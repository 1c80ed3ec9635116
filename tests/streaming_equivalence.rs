//! Streaming enumeration must be a drop-in replacement for the seed's
//! eager generate-then-filter pipeline (paper, Sec 8.3):
//!
//! * the lazy [`Skeleton::stream`] yields exactly the same multiset of
//!   executions as the eager reference (`candidates_eager`);
//! * uniproc pruning is *exact* — `emitted + pruned == candidate_count()`
//!   — and *sound*: the emitted set is precisely the SC-PER-LOCATION
//!   -consistent subset, in both the strict and load-load-hazard variants;
//! * thin-air pruning ([`Architecture::thin_air_base`]) keeps exactly the
//!   model-allowed multiset on architectures vouching for a static base,
//!   and never fires on architectures without one;
//! * sharded enumeration partitions the stream exactly, with merged
//!   `emitted + pruned` counters equal to `candidate_count()`;
//! * the streamed, pruned litmus driver reaches identical verdicts to the
//!   eager judge on the whole corpus, under native and llh architectures.

use herd_core::arch::Power;
use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_core::event::{Dir, Fence};
use herd_core::exec::Execution;
use herd_core::model::{check, sc_per_location, Architecture};
use herd_core::relation::Relation;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::CorpusEntry;
use herd_litmus::simulate::{judge, simulate_sharded, simulate_with};
use proptest::prelude::*;

/// Power's axioms without the static-base hook: the default
/// [`Architecture::thin_air_base`] returns `None`, modelling an
/// architecture that does not (or cannot soundly) declare NO THIN AIR for
/// generation-time pruning.
struct NoThinAirHook(Power);

impl Architecture for NoThinAirHook {
    fn name(&self) -> &str {
        "power-no-hook"
    }
    fn ppo(&self, x: &Execution) -> Relation {
        self.0.ppo(x)
    }
    fn fences(&self, x: &Execution) -> Relation {
        self.0.fences(x)
    }
    fn prop(&self, x: &Execution) -> Relation {
        self.0.prop(x)
    }
}

/// A canonical fingerprint of one execution: event values plus the rf/co
/// choice (everything the data-flow enumeration decides).
fn key(x: &Execution) -> String {
    format!("{:?}|{:?}|{:?}", x.events().iter().map(|e| e.val).collect::<Vec<_>>(), x.rf(), x.co())
}

fn sorted_keys<I: IntoIterator<Item = Execution>>(xs: I) -> Vec<String> {
    let mut ks: Vec<String> = xs.into_iter().map(|x| key(&x)).collect();
    ks.sort();
    ks
}

/// SC PER LOCATION with read-read po-loc pairs dropped (the ARM-llh /
/// Sparc-RMO weakening the llh pruning mode must match).
fn sc_per_location_llh(x: &Execution) -> bool {
    let rr = x.dir_restrict(x.po_loc(), Some(Dir::R), Some(Dir::R));
    x.po_loc().minus(&rr).union(x.com()).is_acyclic()
}

/// One op: (is_write, location 0..3, value, fence-after 0..3).
type ProgOp = (bool, u8, i8, u8);

fn random_program() -> impl Strategy<Value = Vec<Vec<ProgOp>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..3, -2i8..3, 0u8..3), 1..=4),
        1..=3,
    )
}

fn build_skeleton(prog: &[Vec<ProgOp>]) -> Skeleton {
    let locs = ["x", "y", "z"];
    let mut b = SkeletonBuilder::new();
    for (tid, thread) in prog.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for &(is_write, loc, val, fence) in thread {
            let id = if is_write {
                b.write(tid as u16, locs[loc as usize], i64::from(val))
            } else {
                b.read(tid as u16, locs[loc as usize])
            };
            if let Some(p) = prev {
                match fence {
                    1 => {
                        b.fence(Fence::Lwsync, p, id);
                    }
                    2 => {
                        b.fence(Fence::Sync, p, id);
                    }
                    _ => {}
                }
            }
            prev = Some(id);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_yields_the_eager_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let eager = sorted_keys(sk.candidates_eager());
        let lazy = sorted_keys(sk.stream());
        prop_assert_eq!(eager, lazy);
        // The back-compat entry point is the stream, collected.
        prop_assert_eq!(sk.candidates().len() as u128, sk.candidate_count().unwrap());
    }

    #[test]
    fn pruning_is_exact_and_sound(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let total = sk.candidate_count().unwrap();
        let all: Vec<Execution> = sk.stream().collect();

        let mut it = sk.stream_pruned();
        let kept = sorted_keys(it.by_ref());
        prop_assert_eq!(it.emitted() + it.pruned(), total,
            "pruned-count + emitted must equal candidate_count()");
        let expected =
            sorted_keys(all.iter().filter(|x| sc_per_location(x)).cloned());
        prop_assert_eq!(kept, expected,
            "pruning keeps exactly the SC-PER-LOCATION-consistent candidates");

        let mut llh_it = sk.stream_pruned_llh();
        let llh_kept = sorted_keys(llh_it.by_ref());
        prop_assert_eq!(llh_it.emitted() + llh_it.pruned(), total);
        let llh_expected =
            sorted_keys(all.iter().filter(|x| sc_per_location_llh(x)).cloned());
        prop_assert_eq!(llh_kept, llh_expected,
            "llh pruning matches the load-load-hazard weakening");
    }

    /// Thin-air pruning may only ever discard model-forbidden candidates:
    /// the *allowed* multiset under Power must match eager enumeration
    /// exactly, with exact accounting — while the same skeleton streamed
    /// for an architecture without a static base prunes nothing beyond
    /// uniproc.
    #[test]
    fn thin_air_pruning_preserves_the_allowed_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let power = Power::new();
        let all: Vec<Execution> = sk.stream().collect();
        let allowed_eager =
            sorted_keys(all.iter().filter(|x| check(&power, x).allowed()).cloned());

        let mut it = sk.stream_pruned_for(&power);
        let kept: Vec<Execution> = it.by_ref().collect();
        prop_assert_eq!(it.emitted() + it.pruned(), sk.candidate_count().unwrap(),
            "thin-air + uniproc accounting must stay exact");
        let allowed_pruned =
            sorted_keys(kept.iter().filter(|x| check(&power, x).allowed()).cloned());
        prop_assert_eq!(allowed_pruned, allowed_eager,
            "generation-time thin-air pruning must be invisible to the model");

        // Without the hook, the stream degrades to uniproc-only pruning.
        let mut plain = sk.stream_pruned();
        let uniproc_kept = sorted_keys(plain.by_ref());
        let hookless = sorted_keys(sk.stream_pruned_for(&NoThinAirHook(power)));
        prop_assert_eq!(hookless, uniproc_kept,
            "no static base means no thin-air pruning, ever");
    }

    /// Contiguous rf-odometer shards partition the pruned stream exactly.
    #[test]
    fn sharded_enumeration_partitions_exactly(prog in random_program(), nshards in 2usize..5) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let power = Power::new();
        let mut whole: Vec<String> = sk.stream_pruned_for(&power).map(|x| key(&x)).collect();
        whole.sort();

        let mut merged = Vec::new();
        let (mut emitted, mut pruned) = (0u128, 0u128);
        for s in 0..nshards {
            let mut it = sk.stream_pruned_for_shard(&power, s, nshards);
            merged.extend(it.by_ref().map(|x| key(&x)));
            emitted += it.emitted();
            pruned += it.pruned();
        }
        merged.sort();
        prop_assert_eq!(merged, whole, "shards must cover the stream exactly");
        prop_assert_eq!(emitted + pruned, sk.candidate_count().unwrap(),
            "merged shard counters must equal the candidate count");
    }
}

/// The streamed, pruned driver — sequential and sharded — and the eager
/// enumerate-then-judge path must produce identical outcomes for every
/// corpus test.
fn assert_corpus_equivalence<A: Architecture + Sync + ?Sized>(corpus: &[CorpusEntry], arch: &A) {
    let opts = EnumOptions::default();
    for entry in corpus {
        let streamed = simulate_with(&entry.test, arch, &opts).expect("streamed simulation");
        let eager = judge(&entry.test, arch, &enumerate(&entry.test, &opts).expect("enumeration"));
        assert_eq!(streamed.candidates, eager.candidates, "{}", entry.test.name);
        assert_eq!(streamed.allowed, eager.allowed, "{}", entry.test.name);
        assert_eq!(streamed.positive, eager.positive, "{}", entry.test.name);
        assert_eq!(streamed.negative, eager.negative, "{}", entry.test.name);
        assert_eq!(streamed.states, eager.states, "{}", entry.test.name);
        assert_eq!(streamed.validated, eager.validated, "{}", entry.test.name);
        let sharded = simulate_sharded(&entry.test, arch, &opts, 3).expect("sharded simulation");
        assert_eq!(sharded.candidates, streamed.candidates, "{}", entry.test.name);
        assert_eq!(sharded.pruned, streamed.pruned, "{}", entry.test.name);
        assert_eq!(sharded.allowed, streamed.allowed, "{}", entry.test.name);
        assert_eq!(sharded.states, streamed.states, "{}", entry.test.name);
        assert_eq!(sharded.validated, streamed.validated, "{}", entry.test.name);
    }
}

#[test]
fn streamed_verdicts_match_eager_on_the_whole_corpus() {
    use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
    use herd_litmus::corpus;
    assert_corpus_equivalence(&corpus::power_corpus(), &Power::new());
    assert_corpus_equivalence(&corpus::arm_corpus(), &Arm::new(ArmVariant::Proposed));
    // The llh variant exercises the weakened pruning graph end to end.
    assert_corpus_equivalence(&corpus::arm_corpus(), &Arm::new(ArmVariant::ProposedLlh));
    assert_corpus_equivalence(&corpus::x86_corpus(), &Tso);
    assert_corpus_equivalence(&corpus::x86_corpus(), &Sc);
}

/// Silicon models with the load-load-hazard erratum must keep their
/// hazard candidates under the streamed, pruned driver: `Prune::for_arch`
/// has to pick the weakened graph for them, or coRR outcomes the part
/// exhibits on real hardware would be pruned away at generation time.
#[test]
fn erratum_silicon_keeps_hazard_candidates_under_pruning() {
    use herd_hw::silicon::{ArmErrata, ArmSilicon};
    use herd_litmus::{corpus, isa::Isa};
    let tegra2 =
        ArmSilicon::new("Tegra2", ArmErrata { load_load_hazards: true, ..Default::default() });
    assert!(tegra2.tolerates_load_load_hazards());
    let test = corpus::co_rr(Isa::Arm);
    assert_corpus_equivalence(&[CorpusEntry { test, allowed: true }], &tegra2);
}

/// The arena-backed verdict stream against the PR 3 engine, candidate by
/// candidate across the whole corpus: [`stream_arch_verdicts`] judges
/// each candidate in place (no owned `Execution`, relations in a reused
/// arena) and must reproduce exactly the per-candidate verdicts of the
/// owned path (`stream_arch` + `ArchRelations` + `check_with`), along
/// with identical emitted/pruned accounting.
///
/// [`stream_arch_verdicts`]: herd_litmus::candidates::stream_arch_verdicts
#[test]
fn arena_verdict_stream_matches_owned_candidate_stream_corpus_wide() {
    use herd_core::arch::{Arm, ArmVariant, Tso};
    use herd_core::model::{check_with, ArchRelations};
    use herd_litmus::candidates::{stream_arch, stream_arch_verdicts};
    use herd_litmus::corpus;

    let opts = EnumOptions::default();
    let suites: Vec<(Vec<CorpusEntry>, Box<dyn Architecture + Sync>)> = vec![
        (corpus::power_corpus(), Box::new(Power::new())),
        (corpus::arm_corpus(), Box::new(Arm::new(ArmVariant::Proposed))),
        (corpus::x86_corpus(), Box::new(Tso)),
    ];
    for (entries, arch) in &suites {
        for entry in entries {
            // PR 3 engine: owned candidates, owned relation computation.
            let mut owned: Vec<String> = Vec::new();
            let owned_stats = stream_arch(&entry.test, &opts, arch.as_ref(), &mut |c| {
                let rels = ArchRelations::compute(arch.as_ref(), &c.exec);
                let v = check_with(arch.as_ref(), &c.exec, &rels);
                owned.push(format!("{v:?}|{:?}|{:?}", c.final_regs, c.final_mem));
            })
            .expect("corpus streams");
            // Arena engine: verdicts computed in place.
            let mut arena_side: Vec<String> = Vec::new();
            let arena_stats = stream_arch_verdicts(&entry.test, &opts, arch.as_ref(), &mut |vc| {
                arena_side.push(format!("{:?}|{:?}|{:?}", vc.verdict, vc.final_regs, vc.final_mem));
            })
            .expect("corpus streams");
            owned.sort();
            arena_side.sort();
            assert_eq!(owned, arena_side, "{}: per-candidate verdicts differ", entry.test.name);
            assert_eq!(
                owned_stats, arena_stats,
                "{}: emitted/pruned accounting differs",
                entry.test.name
            );
        }
    }
}

/// The inputs of the staged-checker equivalence: the built-in corpus, the
/// `corpus/*.litmus` files and a deterministic sample of the diy tests of
/// the Power and ARM pools.
fn staged_inputs() -> Vec<herd_litmus::program::LitmusTest> {
    use herd_diy::{arm_pool, generate_tests, power_pool};
    use herd_litmus::{corpus, isa::Isa};
    let mut tests: Vec<_> = [corpus::power_corpus(), corpus::arm_corpus(), corpus::x86_corpus()]
        .into_iter()
        .flatten()
        .map(|e| e.test)
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/herd-litmus/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus/*.litmus must not be empty");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable litmus file");
        tests.push(herd_litmus::parse::parse(&src).expect("corpus file parses"));
    }
    for (pool, isa) in [(power_pool(), Isa::Power), (arm_pool(), Isa::Arm)] {
        tests.extend(generate_tests(&pool, 5, isa, 400).into_iter().step_by(16));
    }
    for src in RDW_PROBES {
        tests.push(herd_litmus::parse::parse(src).expect("rdw probe parses"));
    }
    tests
}

/// Message passing whose reader chain is `addr; rdw; addr`: the two reads
/// of `x` are ordered only by `rdw = po-loc ∩ (fre; rfe)` (Fig 27), so
/// the envelope is not tight and the condition is forbidden only under the
/// exact per-candidate ppo — allowed once `rdw` is dropped.
const RDW_PROBES: [&str; 2] = [
    "PPC mp+lwsync+addr-rdw-addr
{
0:r2=a; 0:r4=y;
1:r2=y; 1:r4=x; 1:r8=a;
2:r2=x;
}
 P0           | P1            | P2           ;
 li r1,1      | lwz r1,0(r2)  | li r1,1      ;
 stw r1,0(r2) | xor r3,r1,r1  | stw r1,0(r2) ;
 lwsync       | lwzx r5,r3,r4 |              ;
 stw r1,0(r4) | lwz r6,0(r4)  |              ;
              | xor r7,r6,r6  |              ;
              | lwzx r9,r7,r8 |              ;
exists (1:r1=1 /\\ 1:r5=0 /\\ 1:r6=1 /\\ 1:r9=0)
",
    "ARM mp+dmb+addr-rdw-addr
{
0:r2=a; 0:r4=y;
1:r2=y; 1:r4=x; 1:r8=a;
2:r2=x;
}
 P0           | P1             | P2           ;
 mov r1,#1    | ldr r1,[r2]    | mov r1,#1    ;
 str r1,[r2]  | eor r3,r1,r1   | str r1,[r2]  ;
 dmb          | ldr r5,[r4,r3] |              ;
 str r1,[r4]  | ldr r6,[r4]    |              ;
              | eor r7,r6,r6   |              ;
              | ldr r9,[r8,r7] |              ;
exists (1:r1=1 /\\ 1:r5=0 /\\ 1:r6=1 /\\ 1:r9=0)
",
];

/// The rdw probes separate the exact ppo from its lower bound: forbidden
/// under Power and ARM, allowed once `rdw` leaves ppo (Power-static-ppo).
#[test]
fn rdw_probes_need_the_exact_ppo() {
    use herd_core::arch::{Arm, ArmVariant};
    let opts = EnumOptions::default();
    let [ppc, arm] = RDW_PROBES.map(|src| herd_litmus::parse::parse(src).expect("parses"));
    assert!(!simulate_with(&ppc, &Power::new(), &opts).unwrap().validated);
    assert!(simulate_with(&ppc, &Power::without_dynamic_ppo(), &opts).unwrap().validated);
    assert!(!simulate_with(&arm, &Arm::new(ArmVariant::Proposed), &opts).unwrap().validated);
}

/// The architectures the staged checker runs for each dialect: Power,
/// Power-static-ppo, ARM proposed, ARM-llh and TSO.
fn staged_archs(isa: herd_litmus::isa::Isa) -> Vec<Box<dyn Architecture + Sync>> {
    use herd_core::arch::{Arm, ArmVariant, Tso};
    use herd_litmus::isa::Isa;
    match isa {
        Isa::Power => vec![Box::new(Power::new()), Box::new(Power::without_dynamic_ppo())],
        Isa::Arm => {
            vec![
                Box::new(Arm::new(ArmVariant::Proposed)),
                Box::new(Arm::new(ArmVariant::ProposedLlh)),
            ]
        }
        Isa::X86 => vec![Box::new(Tso)],
    }
}

/// The final state the condition observes, rendered independently of the
/// simulator: `1:r1=1; x=2;`, each observable once in first-mention order.
fn reference_state(
    test: &herd_litmus::program::LitmusTest,
    c: &herd_litmus::candidates::Candidate,
) -> String {
    use herd_litmus::candidates::RegFinal;
    use herd_litmus::program::Prop;
    fn atoms<'p>(p: &'p Prop, out: &mut Vec<&'p Prop>) {
        match p {
            Prop::Not(a) => atoms(a, out),
            Prop::And(a, b) | Prop::Or(a, b) => {
                atoms(a, out);
                atoms(b, out);
            }
            atom => out.push(atom),
        }
    }
    let mut list = Vec::new();
    atoms(&test.condition.prop, &mut list);
    let mut seen = std::collections::BTreeSet::new();
    let mut pieces = Vec::new();
    for p in list {
        match p {
            Prop::RegEq { tid, reg, .. } if seen.insert(format!("{tid}:{reg}")) => {
                let v = match c.final_regs.get(&(*tid, *reg)) {
                    Some(RegFinal::Int(v)) => v.to_string(),
                    Some(RegFinal::Addr(l)) => l.clone(),
                    None => "?".into(),
                };
                pieces.push(format!("{tid}:{reg}={v};"));
            }
            Prop::MemEq { loc, .. } if seen.insert(loc.clone()) => {
                pieces.push(format!("{loc}={};", c.final_mem.get(loc).copied().unwrap_or(0)));
            }
            _ => {}
        }
    }
    pieces.join(" ")
}

/// The staged arena checker — combination, rf-configuration and coherence
/// scopes — against the reference oracle (eager `enumerate` plus the owned
/// `model::check`): identical rendered states byte for byte, identical
/// candidate/allowed/positive/negative counts, and the pruned count of the
/// owned pruning stream. Both tight and non-tight ppo envelopes must occur,
/// so the per-candidate fallback scope is exercised too.
#[test]
fn staged_checker_matches_the_reference_oracle() {
    use herd_core::model::ArenaChecker;
    use herd_litmus::candidates::stream_arch;
    use herd_litmus::simulate::eval_prop;
    use std::collections::{BTreeSet, HashSet};

    let opts = EnumOptions::default();
    let (mut tight, mut non_tight) = (0usize, 0usize);
    for test in staged_inputs() {
        let cands = enumerate(&test, &opts).expect("enumeration");
        for arch in staged_archs(test.isa) {
            let arch = arch.as_ref();
            let what = format!("{} under {}", test.name, arch.name());
            let sim = simulate_with(&test, arch, &opts).expect("staged simulation");
            let (mut allowed, mut positive, mut negative) = (0, 0, 0);
            let mut states = BTreeSet::new();
            for c in &cands {
                if check(arch, &c.exec).allowed() {
                    allowed += 1;
                    if eval_prop(&test.condition.prop, c) {
                        positive += 1;
                    } else {
                        negative += 1;
                    }
                    states.insert(reference_state(&test, c));
                }
            }
            let owned = stream_arch(&test, &opts, arch, &mut |_| {}).expect("owned stream");
            assert_eq!(sim.candidates, cands.len() as u128, "{what}: candidates");
            assert_eq!(sim.pruned, owned.pruned, "{what}: pruned");
            assert_eq!(sim.allowed, allowed, "{what}: allowed");
            assert_eq!(sim.positive, positive, "{what}: positive");
            assert_eq!(sim.negative, negative, "{what}: negative");
            assert_eq!(sim.states, states, "{what}: rendered states");

            // Which scope the checker picked, once per control-flow
            // combination (candidates of one combination share a core):
            // the exact ppo per combination when the envelope is tight,
            // per candidate otherwise.
            let mut cores = HashSet::new();
            for c in &cands {
                let core = c.exec.core();
                if cores.insert(std::sync::Arc::as_ptr(core)) {
                    let (checker, env) = ArenaChecker::for_combination(arch, core);
                    if let Some(env) = env {
                        assert!(checker.is_staged(), "{what}: Fig 18 instances are staged");
                        if env.tight(core) {
                            tight += 1;
                        } else {
                            non_tight += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(tight > 0, "no combination had a tight envelope");
    assert!(non_tight > 0, "no combination exercised the per-candidate ppo scope");
}

/// The multi-model verdict stream runs one staged checker per model over
/// shared relations: per candidate, every model's verdict must equal the
/// owned `model::check` on the same uniproc-pruned candidate stream.
#[test]
fn staged_multi_verdicts_match_owned_checks() {
    use herd_litmus::candidates::{stream, stream_multi_verdicts, Prune};

    let opts = EnumOptions::default();
    for test in staged_inputs() {
        let boxed = staged_archs(test.isa);
        let archs: Vec<&dyn Architecture> =
            boxed.iter().map(|a| a.as_ref() as &dyn Architecture).collect();
        let prune = if archs.iter().any(|a| a.tolerates_load_load_hazards()) {
            Prune::UniprocLlh
        } else {
            Prune::Uniproc
        };
        let mut owned: Vec<String> = Vec::new();
        let owned_stats = stream(&test, &opts, prune, &mut |c| {
            let vs: Vec<_> = archs.iter().map(|a| check(*a, &c.exec)).collect();
            owned.push(format!("{vs:?}|{:?}|{:?}", c.final_regs, c.final_mem));
        })
        .expect("owned stream");
        let mut multi: Vec<String> = Vec::new();
        let multi_stats = stream_multi_verdicts(&test, &opts, &archs, &mut |mc| {
            multi.push(format!("{:?}|{:?}|{:?}", mc.verdicts, mc.final_regs, mc.final_mem));
        })
        .expect("multi stream");
        owned.sort();
        multi.sort();
        assert_eq!(owned, multi, "{}: per-candidate verdicts differ", test.name);
        assert_eq!(owned_stats, multi_stats, "{}: emitted/pruned accounting differs", test.name);
    }
}
