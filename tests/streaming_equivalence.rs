//! The pruning arena engine must answer exactly as the reference oracle
//! — eager enumeration plus the owned `model::check` — does (paper,
//! Sec 8.3):
//!
//! * the oracle ([`Skeleton::candidates`]) yields every candidate once,
//!   `candidate_count()` of them, and the engine
//!   ([`Skeleton::check_stream_arena`]) emits a sub-multiset of it with
//!   the owned verdict on every frame, the same allowed multiset, and
//!   exact accounting — `emitted + pruned == candidate_count()`;
//! * uniproc pruning is *sound*: every oracle candidate satisfying SC PER
//!   LOCATION — llh-weakened where the architecture tolerates load-load
//!   hazards — is emitted, and nothing else is;
//! * thin-air pruning ([`Architecture::thin_air_base`]) keeps exactly the
//!   model-allowed multiset on architectures vouching for a static base,
//!   and never fires on architectures without one;
//! * one-unit-per-worker plans partition the engine's stream exactly,
//!   with merged `emitted + pruned` counters equal to `candidate_count()`;
//! * the litmus verdict streams reach the oracle's verdicts on the whole
//!   corpus, under native and llh architectures.

use herd_core::arch::Power;
use herd_core::arena::RelArena;
use herd_core::enumerate::{CheckedStats, Skeleton, SkeletonBuilder};
use herd_core::event::{Dir, Fence};
use herd_core::exec::Execution;
use herd_core::model::{check, sc_per_location, Architecture};
use herd_core::relation::Relation;
use herd_core::sched::{Budget, PlanOpts, WorkPlan};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::CorpusEntry;
use herd_litmus::simulate::{judge, simulate_sharded, simulate_with};
use proptest::prelude::*;
use std::sync::Mutex;

/// An architecture's axioms without the static-base hook: the default
/// [`Architecture::thin_air_base`] returns `None`, modelling an
/// architecture that does not (or cannot soundly) declare NO THIN AIR for
/// generation-time pruning, so the engine prunes uniproc only.
struct NoThinAirHook<A>(A);

impl<A: Architecture> Architecture for NoThinAirHook<A> {
    fn name(&self) -> &str {
        "no-thin-air-hook"
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
    fn tolerates_load_load_hazards(&self) -> bool {
        self.0.tolerates_load_load_hazards()
    }
}

/// A canonical fingerprint of one execution: event values plus the rf/co
/// choice (everything the data-flow enumeration decides).
fn key(x: &Execution) -> String {
    format!("{:?}|{:?}|{:?}", x.events().iter().map(|e| e.val).collect::<Vec<_>>(), x.rf(), x.co())
}

/// The sorted fingerprints of the oracle candidates satisfying `keep`.
fn oracle_keys(sk: &Skeleton, keep: impl Fn(&Execution) -> bool) -> Vec<String> {
    let mut ks: Vec<String> = sk.candidates().iter().filter(|x| keep(x)).map(key).collect();
    ks.sort();
    ks
}

/// Is the sorted multiset `sub` contained in the sorted multiset `sup`?
fn is_sub_multiset(sub: &[String], sup: &[String]) -> bool {
    let mut rest = sup.iter();
    sub.iter().all(|x| rest.by_ref().any(|y| y == x))
}

/// One engine run: the sorted fingerprints of the emitted and of the
/// allowed candidates, plus the stats. Every frame's verdict must equal
/// the owned `check` of the same candidate.
struct EngineRun {
    emitted: Vec<String>,
    allowed: Vec<String>,
    stats: CheckedStats,
}

fn engine<A: Architecture + ?Sized>(sk: &Skeleton, arch: &A) -> EngineRun {
    let mut arena = RelArena::new(0);
    let (mut emitted, mut allowed) = (Vec::new(), Vec::new());
    let stats = sk.check_stream_arena(arch, &mut arena, &Budget::unlimited(), &mut |fx, a, v| {
        let x = fx.to_execution(a);
        assert_eq!(v, check(arch, &x), "frame verdict disagrees with the owned check");
        if v.allowed() {
            allowed.push(key(&x));
        }
        emitted.push(key(&x));
    });
    emitted.sort();
    allowed.sort();
    EngineRun { emitted, allowed, stats }
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

    /// The oracle yields every candidate exactly once; the engine's
    /// stream is drawn from it, with the same allowed multiset and exact
    /// accounting.
    #[test]
    fn streaming_yields_the_eager_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let power = Power::new();
        let eager = oracle_keys(&sk, |_| true);
        prop_assert_eq!(eager.len() as u128, sk.candidate_count().unwrap());
        prop_assert!(eager.windows(2).all(|w| w[0] != w[1]), "the oracle repeats a candidate");
        let run = engine(&sk, &power);
        prop_assert!(is_sub_multiset(&run.emitted, &eager), "the engine emits only oracle candidates");
        prop_assert_eq!(run.stats.emitted + run.stats.pruned, eager.len() as u128,
            "emitted + pruned must equal candidate_count()");
        prop_assert_eq!(run.allowed, oracle_keys(&sk, |x| check(&power, x).allowed()),
            "the engine allows exactly what the oracle allows");
    }

    #[test]
    fn pruning_is_exact_and_sound(prog in random_program()) {
        use herd_core::arch::{Arm, ArmVariant};
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let total = sk.candidate_count().unwrap();

        let run = engine(&sk, &NoThinAirHook(Power::new()));
        prop_assert_eq!(run.stats.emitted + run.stats.pruned, total,
            "pruned-count + emitted must equal candidate_count()");
        prop_assert_eq!(run.emitted, oracle_keys(&sk, sc_per_location),
            "pruning keeps exactly the SC-PER-LOCATION-consistent candidates");

        let llh = engine(&sk, &NoThinAirHook(Arm::new(ArmVariant::ProposedLlh)));
        prop_assert_eq!(llh.stats.emitted + llh.stats.pruned, total);
        prop_assert_eq!(llh.emitted, oracle_keys(&sk, sc_per_location_llh),
            "llh pruning matches the load-load-hazard weakening");
    }

    /// Thin-air pruning may only ever discard model-forbidden candidates:
    /// the *allowed* multiset under Power must match the oracle exactly,
    /// with exact accounting — while the same skeleton run for an
    /// architecture without a static base prunes nothing beyond uniproc.
    #[test]
    fn thin_air_pruning_preserves_the_allowed_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let power = Power::new();
        let run = engine(&sk, &power);
        prop_assert_eq!(run.stats.emitted + run.stats.pruned, sk.candidate_count().unwrap(),
            "thin-air + uniproc accounting must stay exact");
        prop_assert_eq!(run.allowed, oracle_keys(&sk, |x| check(&power, x).allowed()),
            "generation-time thin-air pruning must be invisible to the model");

        // Without the hook, the engine degrades to uniproc-only pruning.
        let hookless = engine(&sk, &NoThinAirHook(power));
        prop_assert_eq!(hookless.emitted, oracle_keys(&sk, sc_per_location),
            "no static base means no thin-air pruning, ever");
    }

    /// One-unit-per-worker plans — contiguous rf ranges, the static split
    /// — partition the engine's stream exactly.
    #[test]
    fn sharded_enumeration_partitions_exactly(prog in random_program(), nshards in 2usize..5) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count_saturating() <= 1500);
        let power = Power::new();
        let whole = engine(&sk, &power);

        let opts = PlanOpts { workers: nshards, units_per_worker: 1, co_split: false };
        let plan = WorkPlan::for_skeleton(&sk, &power, &opts);
        prop_assert!(plan.len() <= nshards && plan.co_units() == 0, "one rf range per worker");
        let merged = Mutex::new(Vec::new());
        let stats = sk
            .check_stream_sched(&power, &plan, 2, &Budget::unlimited(), |_| {
                |fx: &herd_core::exec::ExecFrame<'_>, a: &RelArena, _| {
                    merged.lock().unwrap().push(key(&fx.to_execution(a)));
                }
            })
            .stats;
        let mut merged = merged.into_inner().unwrap();
        merged.sort();
        prop_assert_eq!(merged, whole.emitted, "units must cover the stream exactly");
        prop_assert_eq!(stats.emitted + stats.pruned, sk.candidate_count().unwrap(),
            "merged unit counters must equal the candidate count");
        prop_assert_eq!(stats, whole.stats);
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
/// hazard candidates under the streamed, pruned driver: the engine has
/// to pick the weakened graph for them, or coRR outcomes the part
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

/// The arena-backed verdict stream against the reference oracle
/// (`enumerate` + `ArchRelations` + `check_with`), candidate by candidate
/// across the whole corpus: [`stream_arch_verdicts`] judges each
/// candidate in place (no owned `Execution`, relations in a reused arena).
/// Rendered as `verdict|registers|memory` lines, its allowed lines must
/// equal the oracle's; everything it emits must be an oracle line
/// satisfying SC PER LOCATION, and every oracle line satisfying SC PER
/// LOCATION and NO THIN AIR must be emitted (uniproc pruning is exact,
/// thin-air pruning sound); and `emitted + pruned` must cover the oracle.
///
/// [`stream_arch_verdicts`]: herd_litmus::candidates::stream_arch_verdicts
#[test]
fn arena_verdict_stream_matches_owned_candidate_stream_corpus_wide() {
    use herd_core::arch::{Arm, ArmVariant, Tso};
    use herd_core::model::{check_with, ArchRelations, Verdict};
    use herd_litmus::candidates::stream_arch_verdicts;
    use herd_litmus::corpus;

    let opts = EnumOptions::default();
    let suites: Vec<(Vec<CorpusEntry>, Box<dyn Architecture + Sync>)> = vec![
        (corpus::power_corpus(), Box::new(Power::new())),
        (corpus::arm_corpus(), Box::new(Arm::new(ArmVariant::Proposed))),
        (corpus::arm_corpus(), Box::new(Arm::new(ArmVariant::ProposedLlh))),
        (corpus::x86_corpus(), Box::new(Tso)),
    ];
    for (entries, arch) in &suites {
        let arch = arch.as_ref();
        for entry in entries {
            let what = format!("{} under {}", entry.test.name, arch.name());
            // The oracle: every candidate, judged on owned relations.
            let oracle: Vec<(Verdict, String)> = enumerate(&entry.test, &opts)
                .expect("corpus enumerates")
                .iter()
                .map(|c| {
                    let v = check_with(arch, &c.exec, &ArchRelations::compute(arch, &c.exec));
                    (v, format!("{v:?}|{:?}|{:?}", c.final_regs, c.final_mem))
                })
                .collect();
            let lines = |keep: &dyn Fn(&Verdict) -> bool| {
                let mut ls: Vec<String> =
                    oracle.iter().filter(|(v, _)| keep(v)).map(|(_, l)| l.clone()).collect();
                ls.sort();
                ls
            };
            // The engine: verdicts computed in place.
            let (mut emitted, mut allowed) = (Vec::new(), Vec::new());
            let stats = stream_arch_verdicts(&entry.test, &opts, arch, &mut |vc| {
                let line = format!("{:?}|{:?}|{:?}", vc.verdict, vc.final_regs, vc.final_mem);
                if vc.verdict.allowed() {
                    allowed.push(line.clone());
                }
                emitted.push(line);
            })
            .expect("corpus streams");
            emitted.sort();
            allowed.sort();
            assert_eq!(allowed, lines(&|v| v.allowed()), "{what}: allowed candidates differ");
            assert!(
                is_sub_multiset(&emitted, &lines(&|v| v.sc_per_location)),
                "{what}: emitted ⊄ the oracle's SC-PER-LOCATION-consistent candidates"
            );
            assert!(
                is_sub_multiset(&lines(&|v| v.sc_per_location && v.no_thin_air), &emitted),
                "{what}: pruning dropped a uniproc- and thin-air-clean candidate"
            );
            assert_eq!(stats.total(), oracle.len() as u128, "{what}: accounting is not exact");
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
    for src in RDW_PROBES.into_iter().chain(AWKWARD_STATES) {
        tests.push(herd_litmus::parse::parse(src).expect("hand-written probe parses"));
    }
    tests
}

/// Final states whose rendering is easy to get wrong: a negative value in
/// a register and in memory (`-5`, `-2`), a register holding an address
/// (`1:r4=w`), a register no instruction writes and no init names (`?`),
/// and locations no thread writes, with and without an initial value
/// (`y`, `z`).
const AWKWARD_STATES: [&str; 2] = [
    "PPC awkward-states
{
0:r2=x;
1:r2=x; 1:r4=w;
y=-2; w=3;
}
 P0           | P1           ;
 li r1,-5     | lwz r3,0(r2) ;
 stw r1,0(r2) | lwz r5,0(r4) ;
exists (1:r3=-5 /\\ 1:r4=w /\\ 1:r7=0 /\\ x=-5 /\\ y=-2 /\\ z=0 /\\ 1:r5=3)
",
    "X86 awkward-states
{ x=0; y=-7; }
 P0          | P1          ;
 mov [x],$-1 | mov eax,[x] ;
             | mov ebx,[y] ;
exists (1:eax=-1 /\\ 1:ebx=-7 /\\ 0:ecx=0 /\\ not (z=1) \\/ x=-1)
",
];

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

/// The awkward values really reach the rendered states.
#[test]
fn awkward_states_render_every_kind_of_value() {
    use herd_core::arch::Tso;
    let opts = EnumOptions::default();
    let [ppc, x86] = AWKWARD_STATES.map(|src| herd_litmus::parse::parse(src).expect("parses"));
    let ppc = simulate_with(&ppc, &Power::new(), &opts).unwrap();
    assert!(
        ppc.states.contains("1:r3=-5; 1:r4=w; 1:r7=?; x=-5; y=-2; z=0; 1:r5=3;"),
        "{:?}",
        ppc.states
    );
    let x86 = simulate_with(&x86, &Tso, &opts).unwrap();
    assert!(x86.states.contains("1:r0=-1; 1:r1=-7; 0:r2=?; z=0; x=-1;"), "{:?}", x86.states);
}

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
/// candidate/allowed/positive/negative counts, and a pruned count between
/// the oracle's SC-PER-LOCATION failures and its SC-PER-LOCATION or
/// NO-THIN-AIR failures. Both tight and non-tight ppo
/// envelopes must occur, so the per-candidate fallback scope is exercised
/// too.
#[test]
fn staged_checker_matches_the_reference_oracle() {
    use herd_core::model::ArenaChecker;
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
            let (mut uniproc_bad, mut uniproc_or_thin_air_bad) = (0u128, 0u128);
            let mut states = BTreeSet::new();
            for c in &cands {
                let v = check(arch, &c.exec);
                uniproc_bad += u128::from(!v.sc_per_location);
                uniproc_or_thin_air_bad += u128::from(!v.sc_per_location || !v.no_thin_air);
                if v.allowed() {
                    allowed += 1;
                    if eval_prop(&test.condition.prop, c) {
                        positive += 1;
                    } else {
                        negative += 1;
                    }
                    states.insert(reference_state(&test, c));
                }
            }
            assert_eq!(sim.candidates, cands.len() as u128, "{what}: candidates");
            // Uniproc pruning is exact (llh-weakened through the arch's own
            // SC PER LOCATION), and thin-air pruning only cuts candidates
            // whose hb is cyclic.
            assert!(sim.pruned >= uniproc_bad, "{what}: kept a uniproc-inconsistent candidate");
            assert!(
                sim.pruned <= uniproc_or_thin_air_bad,
                "{what}: pruned a uniproc- and thin-air-clean candidate"
            );
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
/// shared relations and prunes uniproc only, llh-weakened as soon as any
/// model tolerates load-load hazards. Its `verdicts|registers|memory`
/// lines must therefore equal exactly the oracle's lines (`enumerate` +
/// owned `model::check` per model) of the candidates some model's SC PER
/// LOCATION accepts — the weakest model's uniproc graph — with
/// `emitted + pruned` covering the oracle.
#[test]
fn staged_multi_verdicts_match_owned_checks() {
    use herd_litmus::candidates::stream_multi_verdicts;

    let opts = EnumOptions::default();
    for test in staged_inputs() {
        let boxed = staged_archs(test.isa);
        let archs: Vec<&dyn Architecture> =
            boxed.iter().map(|a| a.as_ref() as &dyn Architecture).collect();
        let cands = enumerate(&test, &opts).expect("enumeration");
        let mut owned: Vec<String> = Vec::new();
        for c in &cands {
            let vs: Vec<_> = archs.iter().map(|a| check(*a, &c.exec)).collect();
            if vs.iter().any(|v| v.sc_per_location) {
                owned.push(format!("{vs:?}|{:?}|{:?}", c.final_regs, c.final_mem));
            }
        }
        let mut multi: Vec<String> = Vec::new();
        let multi_stats = stream_multi_verdicts(&test, &opts, &archs, &mut |mc| {
            multi.push(format!("{:?}|{:?}|{:?}", mc.verdicts, mc.final_regs, mc.final_mem));
        })
        .expect("multi stream");
        owned.sort();
        multi.sort();
        assert_eq!(owned, multi, "{}: per-candidate verdicts differ", test.name);
        assert_eq!(multi_stats.total(), cands.len() as u128, "{}: accounting", test.name);
    }
}
