//! Differential tests: the polynomial single-execution backend vs the
//! enumeration engine.
//!
//! The backend ([`herd_core::consistency`], surfaced as
//! [`herd_litmus::decide`]) answers "is this outcome allowed?" by placing
//! *one* coherence order through saturation instead of enumerating all of
//! them. Its only correctness contract is agreement with the reference
//! engine, candidate by candidate:
//!
//! * corpus-wide, every probe — each distinct enumerated final state plus
//!   systematically unreachable mutations — must get the same verdict
//!   from [`decide_outcome`] as from enumerate-and-check, on models on
//!   both sides of the tractability frontier;
//! * on the polynomial side (SC/TSO/PSO) the answer must come from the
//!   saturation path — zero counted fallbacks;
//! * past the old frontier (Power/ARM, now `Conditional`) most queries
//!   must resolve definitively through the ppo-envelope bounds, the
//!   small residue through the counted fallback — exact by enumeration
//!   of the forced order's completions, never a silent guess;
//! * the envelope itself must sandwich the exact per-candidate ppo
//!   (`lower ⊆ ppo(c) ⊆ upper`) on every candidate of every random
//!   program, for Power and ARM alike;
//! * randomised programs ([`ProgramShape`]) and randomised outcomes —
//!   including outcomes no interleaving can reach — agree the same way;
//! * the decided simulation driver reproduces the streamed driver's
//!   `validated` bit and rendered state set on the whole corpus;
//! * the u128 `candidate_count` of the scaled families that broke the old
//!   `usize` accounting stays pinned, and the backend answers queries on
//!   one such family without leaving the polynomial path.

use std::collections::{BTreeMap, BTreeSet};

use herd_core::arch::{Arm, ArmVariant, Power, Pso, Sc, Tso};
use herd_core::event::Fence;
use herd_core::fixtures::{probe_value, ProgramShape, ShapeOp};
use herd_core::model::{check, Architecture, Tractability};
use herd_litmus::candidates::{enumerate, Candidate, EnumOptions, RegFinal};
use herd_litmus::corpus::{self, Dev, Op, TestBuilder};
use herd_litmus::decide::{decide_outcome, Outcome, QueryStats};
use herd_litmus::isa::{Isa, Reg};
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::{simulate_decided, simulate_with};
use proptest::prelude::*;

/// Ground truth for a probe: some enumeration-allowed candidate extends
/// it (the probe's constraints are subsets of the candidate's state).
fn reachable(allowed: &[&Candidate], probe: &Outcome) -> bool {
    allowed.iter().any(|c| {
        probe.regs.iter().all(|(k, v)| c.final_regs.get(k) == Some(v))
            && probe.mem.iter().all(|(l, v)| c.final_mem.get(l) == Some(v))
    })
}

/// Probe set for a test: every distinct enumerated final state — allowed
/// or not — plus, per state, each integer observable mutated to `9`, a
/// value no corpus or shape write produces (unreachable by construction).
fn probes_for(cands: &[Candidate]) -> Vec<Outcome> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for c in cands {
        let o = Outcome { regs: (*c.final_regs).clone(), mem: c.final_mem.clone() };
        if !seen.insert(format!("{:?}|{:?}", o.regs, o.mem)) {
            continue;
        }
        for (key, v) in &o.regs {
            if matches!(v, RegFinal::Int(_)) {
                let mut m = o.clone();
                m.regs.insert(*key, RegFinal::Int(9));
                out.push(m);
            }
        }
        for loc in o.mem.keys() {
            let mut m = o.clone();
            m.mem.insert(loc.clone(), 9);
            out.push(m);
        }
        out.push(o);
    }
    out
}

/// Runs the full differential for one (test, model) pair, accumulating
/// backend counters into `stats`. Panics on the first disagreement.
fn differential(test: &LitmusTest, arch: &dyn Architecture, stats: &mut QueryStats) {
    let cands = enumerate(test, &EnumOptions::default()).expect("reference enumerates");
    let allowed: Vec<&Candidate> =
        cands.iter().filter(|c| check(arch, &c.exec).allowed()).collect();
    for probe in probes_for(&cands) {
        let want = reachable(&allowed, &probe);
        let d =
            decide_outcome(test, arch, &EnumOptions::default(), &probe).expect("backend decides");
        assert_eq!(
            d.allowed,
            want,
            "backend disagrees with enumeration: {} on {}, probe {probe:?}",
            test.name,
            arch.name()
        );
        stats.absorb(&d.stats);
    }
}

#[test]
fn corpus_verdicts_match_enumeration_on_polynomial_models() {
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let mut stats = QueryStats::default();
    for arch in [&Sc as &dyn Architecture, &Tso, &Pso] {
        assert_eq!(arch.tractability(), Tractability::Polynomial, "{}", arch.name());
        for t in &tests {
            differential(t, arch, &mut stats);
        }
    }
    assert!(stats.backend.queries > 0, "the probes must actually reach the backend");
    // The tractability report: SC/TSO/PSO sit on the polynomial side —
    // every query resolves by saturation, nothing silently enumerates.
    assert_eq!(stats.backend.fallbacks, 0, "polynomial models never fall back on the corpus");
    assert_eq!(
        stats.backend.queries,
        stats.backend.contradictions + stats.backend.witnesses,
        "every query is accounted as a contradiction or a witness"
    );
}

#[test]
fn corpus_verdicts_match_enumeration_past_the_frontier() {
    let power = Power::new();
    assert_eq!(power.tractability(), Tractability::Conditional);
    let mut stats = QueryStats::default();
    for t in [
        corpus::mp(Isa::Power, Dev::Po, Dev::Po),
        corpus::mp(Isa::Power, Dev::F(Fence::Lwsync), Dev::Addr),
        corpus::sb(Isa::Power, Dev::Po, Dev::Po),
        corpus::lb(Isa::Power, Dev::Data, Dev::Data),
        corpus::wrc(Isa::Power, Dev::Po, Dev::Po),
        corpus::two_plus_two_w(Isa::Power, Dev::Po, Dev::Po),
        corpus::co_rr(Isa::Power),
    ] {
        differential(&t, &power, &mut stats);
    }
    // Past the old frontier the ppo envelope settles most queries without
    // enumeration: the fallback is a small *counted* residue, and every
    // definitive verdict above was pinned against enumeration probe by
    // probe by `differential`.
    assert!(stats.backend.queries > 0);
    assert!(
        stats.backend.fallbacks < stats.backend.queries,
        "the envelope must settle queries the old frontier routing enumerated"
    );
    assert!(
        stats.backend.conditional_definitive * 5 >= stats.backend.queries * 4,
        "definitive fraction at least 80%: {} of {}",
        stats.backend.conditional_definitive,
        stats.backend.queries
    );
    assert_eq!(
        stats.backend.fallbacks, stats.backend.envelope_fallbacks,
        "every fallback is an envelope disagreement, never a silent skip"
    );
    assert_eq!(
        stats.backend.queries,
        stats.backend.conditional_definitive + stats.backend.fallbacks,
        "every query is accounted definitive or fallback"
    );
}

#[test]
fn decided_simulation_matches_streamed_simulation_corpus_wide() {
    for e in corpus::x86_corpus() {
        for arch in [&Sc as &dyn Architecture, &Tso, &Pso] {
            let streamed = simulate_with(&e.test, arch, &EnumOptions::default()).unwrap();
            let mut stats = QueryStats::default();
            let decided =
                simulate_decided(&e.test, arch, &EnumOptions::default(), &mut stats).unwrap();
            assert_eq!(decided.validated, streamed.validated, "{} on {}", e.test.name, arch.name());
            assert_eq!(decided.states, streamed.states, "{} on {}", e.test.name, arch.name());
            assert_eq!(stats.backend.fallbacks, 0, "{} on {}", e.test.name, arch.name());
        }
        // The corpus' own TSO expectation, through the backend alone.
        let mut stats = QueryStats::default();
        let decided = simulate_decided(&e.test, &Tso, &EnumOptions::default(), &mut stats).unwrap();
        assert_eq!(decided.validated, e.allowed, "{} under TSO", e.test.name);
    }
    // And past the frontier the decided driver still matches — now mostly
    // through the envelope's definitive verdicts rather than the counted
    // fallback.
    let power = Power::new();
    let mut stats = QueryStats::default();
    for t in [
        corpus::mp(Isa::Power, Dev::Po, Dev::Po),
        corpus::sb(Isa::Power, Dev::F(Fence::Sync), Dev::F(Fence::Sync)),
        corpus::iriw(Isa::Power, Dev::Po, Dev::Po),
    ] {
        let streamed = simulate_with(&t, &power, &EnumOptions::default()).unwrap();
        let decided = simulate_decided(&t, &power, &EnumOptions::default(), &mut stats).unwrap();
        assert_eq!(decided.validated, streamed.validated, "{}", t.name);
        assert_eq!(decided.states, streamed.states, "{}", t.name);
    }
    assert!(stats.backend.queries > 0);
    assert!(
        stats.backend.conditional_definitive > 0,
        "the envelope settles queries on the decided Power path"
    );
    assert!(stats.backend.fallbacks < stats.backend.queries);
}

/// Location names for [`ProgramShape`] indices.
fn loc_name(loc: u8) -> &'static str {
    ["x", "y"][loc as usize]
}

/// Compiles a shape into a litmus test (plain program order, trivially
/// true existential condition) and returns the per-thread read registers.
fn shape_to_test(shape: &ProgramShape) -> (LitmusTest, Vec<Vec<Reg>>) {
    let mut b = TestBuilder::new(Isa::X86, "rand");
    for ops in &shape.threads {
        let tops: Vec<Op> = ops
            .iter()
            .map(|o| match *o {
                ShapeOp::Write { loc, val } => Op::W(loc_name(loc), val),
                ShapeOp::Read { loc } => Op::R(loc_name(loc)),
            })
            .collect();
        let devs = vec![Dev::Po; tops.len() - 1];
        b = b.thread(tops, devs);
    }
    let mut read_regs = Vec::new();
    let test = b.condition(Quantifier::Exists, |rr| {
        read_regs = rr.to_vec();
        Prop::True
    });
    (test, read_regs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bounded programs, random partial outcomes (register and
    /// memory constraints over `{0, 1, 2, 9}`, where `9` is reachable by
    /// no interleaving): the backend and the enumeration engine agree on
    /// every one, on both sides of the frontier.
    #[test]
    fn random_programs_and_outcomes_agree(
        bytes in proptest::collection::vec(any::<u8>(), 0..16),
        entropy in proptest::collection::vec(any::<u8>(), 8..24),
    ) {
        let shape = ProgramShape::decode(&bytes);
        let (test, read_regs) = shape_to_test(&shape);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();

        // One random partial outcome decoded from the entropy stream.
        let mut k = 0;
        let mut next = || {
            let b = entropy[k % entropy.len()];
            k += 1;
            b
        };
        let mut random = Outcome::default();
        for (tid, regs) in read_regs.iter().enumerate() {
            for r in regs {
                if next() % 3 != 0 {
                    random.regs.insert((tid as u16, *r), RegFinal::Int(probe_value(next())));
                }
            }
        }
        let locs: BTreeSet<u8> = shape
            .threads
            .iter()
            .flatten()
            .map(|o| match *o {
                ShapeOp::Write { loc, .. } | ShapeOp::Read { loc } => loc,
            })
            .collect();
        for loc in locs {
            if next() % 3 != 0 {
                random.mem.insert(loc_name(loc).to_owned(), probe_value(next()));
            }
        }

        let power = Power::new();
        let arm = Arm::new(ArmVariant::Proposed);
        for arch in [&Sc as &dyn Architecture, &Tso, &power, &arm] {
            let allowed: Vec<&Candidate> =
                cands.iter().filter(|c| check(arch, &c.exec).allowed()).collect();
            let mut probes = probes_for(&cands);
            probes.push(random.clone());
            for probe in probes {
                let want = reachable(&allowed, &probe);
                let d = decide_outcome(&test, arch, &EnumOptions::default(), &probe).unwrap();
                prop_assert_eq!(
                    d.allowed,
                    want,
                    "{:?} on {}, probe {:?}",
                    shape,
                    arch.name(),
                    probe
                );
            }
        }
    }

    /// The ppo envelope's defining property, on random bounded programs:
    /// for Power and ARM, the static lower bound is contained in every
    /// candidate's exact ppo, which is contained in the static upper
    /// bound. This is what makes the conditional verdicts sound.
    #[test]
    fn envelope_sandwiches_random_programs(
        bytes in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let shape = ProgramShape::decode(&bytes);
        let (test, _) = shape_to_test(&shape);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        let power = Power::new();
        let arm = Arm::new(ArmVariant::Proposed);
        for arch in [&power as &dyn Architecture, &arm] {
            for c in &cands {
                let env = arch
                    .ppo_envelope(c.exec.core())
                    .expect("conditional models expose an envelope");
                let upper = env.upper(c.exec.core());
                prop_assert!(env.lower.is_subset(upper), "{:?} on {}", shape, arch.name());
                let exact = arch.ppo(&c.exec);
                prop_assert!(
                    env.lower.is_subset(&exact),
                    "lower bound exceeds exact ppo: {:?} on {}",
                    shape,
                    arch.name()
                );
                prop_assert!(
                    exact.is_subset(upper),
                    "exact ppo exceeds upper bound: {:?} on {}",
                    shape,
                    arch.name()
                );
            }
        }
    }
}

#[test]
fn scaled_family_counts_stay_exact_and_the_backend_stays_polynomial() {
    // wrc+20w: 21 writes of `x` — 21! coherence orders, 2 rf choices.
    // The old `usize` arithmetic wrapped here (21! > u64::MAX); the u128
    // count is exact.
    const FACT_21: u128 = 51_090_942_171_709_440_000;
    assert!(FACT_21 > u128::from(u64::MAX));
    let sk = herd_bench::wrc_scaled(20);
    assert_eq!(sk.candidate_count(), Some(2 * FACT_21));
    assert_eq!(sk.candidate_count_saturating(), 2 * FACT_21);
    // 35 writes: 35! overflows even u128 — `None`, never a silent wrap.
    let big = herd_bench::wrc_scaled(34);
    assert_eq!(big.candidate_count(), None);
    assert_eq!(big.candidate_count_saturating(), u128::MAX);

    // The same family at the litmus level: 2 · 21! candidates is far past
    // anything enumerable, yet single-outcome queries answer through the
    // saturation path without a single fallback.
    let mut b = TestBuilder::new(Isa::X86, "wrc+20w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..20 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let mut read_regs = Vec::new();
    let test = b.condition(Quantifier::Exists, |rr| {
        read_regs = rr.to_vec();
        Prop::True
    });
    let r_z = read_regs[1][0];

    // Allowed: the read observes T0's write and extra writer #3 (value 5)
    // finishes last — any coherence order ending in it works under SC.
    let probe = Outcome {
        regs: BTreeMap::from([((1, r_z), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 5)]),
    };
    let d = decide_outcome(&test, &Sc, &EnumOptions::default(), &probe).unwrap();
    assert!(d.allowed);
    assert_eq!(d.stats.backend.fallbacks, 0, "stays on the polynomial path");
    assert!(d.stats.backend.witnesses >= 1);
    // The register constraint collapses the rf menu before any coherence
    // work: one configuration probed out of the rf space.
    assert_eq!(d.stats.rf_configs, 1);

    // Past the frontier, the same 2 · 21! family answers through the
    // envelope: Power settles the witness definitively, without a single
    // enumeration fallback — 21! completions would never terminate.
    let d = decide_outcome(&test, &Power::new(), &EnumOptions::default(), &probe).unwrap();
    assert!(d.allowed, "what SC allows, Power allows");
    assert!(d.stats.conditional_definitive() >= 1, "the envelope settles the witness");
    assert_eq!(d.stats.backend.fallbacks, 0, "no enumeration over 21! coherence orders");

    // Forbidden: the family's writes store 1..=21, never 99.
    let probe = Outcome { regs: BTreeMap::new(), mem: BTreeMap::from([("x".to_owned(), 99)]) };
    let d = decide_outcome(&test, &Sc, &EnumOptions::default(), &probe).unwrap();
    assert!(!d.allowed);
    assert_eq!(d.stats.backend.fallbacks, 0);
}
