//! Out-of-thin-air values (Sec 4.4): the genuine `lb+datas` with the
//! *loaded value stored on*, whose read values form a self-justifying
//! cycle. The symbolic enumeration must represent such candidates (free
//! symbols enumerated over the test's value domain), NO THIN AIR must
//! reject them, and removing the axiom from the cat model must let them
//! through — "one can very simply disable the NO THIN AIR check"
//! (Sec 4.9).

use herd_cat::{stock, CatModel};
use herd_core::arch::Power;
use herd_core::model::check;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::isa::{Addr, Instr, Isa, Reg};
use herd_litmus::program::{CondVal, Condition, InitVal, LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::{eval_prop, judge, simulate_with};
use std::collections::BTreeMap;

/// `T0: r1 = x; y = r1 — T1: r2 = y; x = r2`, with a 1 written nowhere:
/// any non-zero outcome is out of thin air.
fn true_lb() -> LitmusTest {
    let thread = |addr_in: u8, addr_out: u8| {
        vec![
            Instr::Load { dst: Reg(1), addr: Addr::Reg(Reg(addr_in)) },
            Instr::Store { src: Reg(1), addr: Addr::Reg(Reg(addr_out)) },
        ]
    };
    let mut reg_init = BTreeMap::new();
    reg_init.insert((0u16, Reg(2)), InitVal::Loc("x".into()));
    reg_init.insert((0u16, Reg(4)), InitVal::Loc("y".into()));
    reg_init.insert((1u16, Reg(2)), InitVal::Loc("y".into()));
    reg_init.insert((1u16, Reg(4)), InitVal::Loc("x".into()));
    LitmusTest {
        isa: Isa::Power,
        name: "lb+datas-true".into(),
        threads: vec![thread(2, 4), thread(2, 4)],
        reg_init,
        mem_init: BTreeMap::new(),
        condition: Condition {
            quantifier: Quantifier::Exists,
            prop: Prop::and(
                Prop::RegEq { tid: 0, reg: Reg(1), val: CondVal::Int(1) },
                Prop::RegEq { tid: 1, reg: Reg(1), val: CondVal::Int(1) },
            ),
        },
    }
}

#[test]
fn thin_air_candidates_are_representable() {
    let test = true_lb();
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    // The self-justifying candidate exists: both reads return 1 although
    // nobody ever writes a literal 1.
    let witnesses: Vec<_> = cands.iter().filter(|c| eval_prop(&test.condition.prop, c)).collect();
    assert!(!witnesses.is_empty(), "the value domain includes 1; the cycle justifies it");
    // Its data flow is circular: each read reads the other thread's write.
    for w in &witnesses {
        assert_eq!(w.exec.rfe().len(), 2, "both rf edges are external");
    }
}

#[test]
fn no_thin_air_rejects_the_witness_on_power() {
    let test = true_lb();
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    for c in cands.iter().filter(|c| eval_prop(&test.condition.prop, c)) {
        let v = check(&Power::new(), &c.exec);
        assert!(!v.allowed());
        assert!(!v.no_thin_air, "rejected precisely by NO THIN AIR, got {v}");
    }
}

#[test]
fn disabling_the_axiom_admits_thin_air() {
    // Sec 4.9: the axioms are bricks; drop NO THIN AIR from the cat file
    // and the self-justifying execution becomes allowed.
    let weakened = CatModel::parse(&stock::POWER.replace("acyclic hb as no-thin-air", "")).unwrap();
    let test = true_lb();
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    let admitted = cands
        .iter()
        .filter(|c| eval_prop(&test.condition.prop, c))
        .any(|c| weakened.check(&c.exec).unwrap().allowed());
    assert!(admitted);
}

/// Sec 8.3 `-speedcheck`, second axis: the self-justifying rf subtrees of
/// the genuine lb+datas are pruned at *generation* time by the streamed
/// driver (Power vouches for a static `ppo ∪ fences` base, and the cyclic
/// `data ∪ rfe` choice can never satisfy NO THIN AIR) — yet the verdict,
/// allowed counts and states are bit-identical to eager enumerate+judge.
#[test]
fn generation_time_pruning_drops_thin_air_subtrees_but_keeps_verdicts() {
    let test = true_lb();
    let power = Power::new();
    let streamed = simulate_with(&test, &power, &EnumOptions::default()).unwrap();
    let eager = judge(&test, &power, &enumerate(&test, &EnumOptions::default()).unwrap());
    assert!(streamed.pruned > 0, "the self-justifying subtrees must die at generation");
    assert_eq!(streamed.candidates, eager.candidates, "accounting covers pruned candidates");
    assert_eq!(streamed.allowed, eager.allowed);
    assert_eq!(streamed.positive, eager.positive);
    assert_eq!(streamed.negative, eager.negative);
    assert_eq!(streamed.states, eager.states);
    assert_eq!(streamed.validated, eager.validated);
}

#[test]
fn zero_outcomes_stay_sequential() {
    // The non-thin-air outcomes (someone reads 0) are allowed everywhere.
    let test = true_lb();
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    let sequential = cands
        .iter()
        .any(|c| !eval_prop(&test.condition.prop, c) && check(&Power::new(), &c.exec).allowed());
    assert!(sequential);
}

// ---------------------------------------------------------------------------
// The static base's contract, property-tested (the fence-suffix extension):
// `Architecture::thin_air_base` = static ppo ∪ `thin_air_fences`, and the
// whole of it must underapproximate `ppo(x) ∪ fences(x)` on *every*
// candidate — so `base ∪ rfe ⊆ hb` and generation-time pruning is sound.
// Keeping the static fence suffix in the base is also what makes the
// A-cumulativity pairs `rfe; fences` fall out of the tracked closure for
// free: once the rfe edge `(w, r)` is pushed, `(r, c) ∈ fences ⊆ base`
// closes `(w, c)` transitively.
// ---------------------------------------------------------------------------

use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_core::event::Fence;
use herd_core::exec::Execution;
use herd_core::relation::Relation;
use herd_core::thinair::ThinAirTracker;
use proptest::prelude::*;

/// One random op: `(thread, write?, location, value, device)`.
type SkOp = (u8, u8, u8, i8, u8);

/// Builds a small random skeleton: up to three threads over three
/// locations, with occasional fences and read-to-write dependencies.
fn build_skeleton(ops: &[SkOp]) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    let names = ["x", "y", "z"];
    let mut last_read: [Option<usize>; 3] = [None; 3];
    let mut last_ev: [Option<usize>; 3] = [None; 3];
    for &(tid, w, loc, val, dev) in ops {
        let t = (tid % 3) as usize;
        let is_write = w % 2 == 1;
        let loc = names[(loc % 3) as usize];
        let id = if is_write { b.write(t as u16, loc, val as i64) } else { b.read(t as u16, loc) };
        match dev % 6 {
            1 => {
                if let Some(prev) = last_ev[t] {
                    b.fence(Fence::Sync, prev, id);
                }
            }
            2 => {
                if let Some(prev) = last_ev[t] {
                    b.fence(Fence::Lwsync, prev, id);
                }
            }
            3 => {
                if let Some(prev) = last_ev[t] {
                    b.fence(Fence::Mfence, prev, id);
                }
            }
            4 if is_write => {
                if let Some(r) = last_read[t] {
                    b.data(r, id);
                }
            }
            5 => {
                if let Some(r) = last_read[t] {
                    if r != id {
                        b.ctrl(r, id);
                    }
                }
            }
            _ => {}
        }
        if !is_write {
            last_read[t] = Some(id);
        }
        last_ev[t] = Some(id);
    }
    b.build()
}

/// A >64-event universe, a sparse random base, and a random op sequence
/// `(kind, from, to, rollback-depth)` for the tracker-vs-eager property.
#[allow(clippy::type_complexity)]
fn wide_tracker_inputs(
) -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<(u8, usize, usize, u8)>)> {
    proptest::sample::select(vec![65usize, 100, 130]).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..n / 2),
            proptest::collection::vec((0..4u8, 0..n, 0..n, 0..64u8), 1..32),
        )
    })
}

fn small_candidates(sk: &Skeleton) -> Option<Vec<Execution>> {
    let count = sk.candidate_count_saturating();
    (1..=256).contains(&count).then(|| sk.candidates())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The soundness half: on every candidate of a random skeleton, every
    /// stock architecture's (fence-extended) static base stays under the
    /// candidate's `ppo ∪ fences` — hence under its `hb`.
    #[test]
    fn extended_base_underapproximates_every_candidates_hb(
        ops in proptest::collection::vec((0..3u8, 0..2u8, 0..3u8, 0..4i8, 0..6u8), 1..8)
    ) {
        let sk = build_skeleton(&ops);
        let cands = small_candidates(&sk);
        prop_assume!(cands.is_some());
        let cands = cands.unwrap();
        prop_assume!(!cands.is_empty());
        let core = cands[0].core();
        for arch in herd_core::arch::all() {
            let suffix = arch.thin_air_fences(core);
            if let Some(base) = arch.thin_air_base(core) {
                prop_assert!(
                    suffix.is_subset(&base),
                    "{}: the static fence suffix must sit inside the base",
                    arch.name()
                );
                for x in &cands {
                    let hb_static_part = arch.ppo(x).union(&arch.fences(x));
                    prop_assert!(
                        base.is_subset(&hb_static_part),
                        "{}: base ⊄ ppo ∪ fences on a candidate",
                        arch.name()
                    );
                }
            }
        }
    }

    /// The cumulativity half: with the fence suffix inside the base,
    /// every A-cumulativity pair `rfe; fences` of every candidate is
    /// already reachable in the closed `base ∪ rfe` graph — exactly what
    /// the incremental tracker maintains, so cumulativity-mediated cycles
    /// are caught without per-candidate work.
    #[test]
    fn cumulativity_edges_fall_out_of_the_closed_base(
        ops in proptest::collection::vec((0..3u8, 0..2u8, 0..3u8, 0..4i8, 0..6u8), 1..8)
    ) {
        let sk = build_skeleton(&ops);
        let cands = small_candidates(&sk);
        prop_assume!(cands.is_some());
        let cands = cands.unwrap();
        prop_assume!(!cands.is_empty());
        let core = cands[0].core();
        for arch in herd_core::arch::all() {
            if let Some(base) = arch.thin_air_base(core) {
                for x in &cands {
                    let closure = base.union(x.rfe()).tclosure();
                    let a_cumul = x.rfe().seq(&arch.fences(x));
                    prop_assert!(
                        a_cumul.is_subset(&closure),
                        "{}: an rfe;fences pair escaped the tracked closure",
                        arch.name()
                    );
                }
            }
        }
    }

    /// PR 8, the width-generic tracker: on universes past the old
    /// 64-event ceiling, a random interleaving of pushes, no-edge levels
    /// and rollbacks must agree step by step with eagerly recomputing
    /// "is `base ∪ accepted edges ∪ new edge` acyclic?" from scratch.
    #[test]
    fn wide_tracker_matches_eager_recomputation((n, base_pairs, ops) in wide_tracker_inputs()) {
        let base = Relation::from_pairs(n, base_pairs.clone());
        let mut t = ThinAirTracker::new(&base);
        prop_assert_eq!(t.is_base_cyclic(), !base.is_acyclic());
        // Shadow stack of the tracker's levels (`None` = edgeless level).
        let mut levels: Vec<Option<(usize, usize)>> = Vec::new();
        for (kind, a, b, d) in ops {
            match kind {
                0 | 1 => {
                    let mut pairs = base_pairs.clone();
                    pairs.extend(levels.iter().flatten().copied());
                    pairs.push((a, b));
                    let eager_ok = Relation::from_pairs(n, pairs).is_acyclic();
                    let pushed = t.try_push(0, Some((a, b)));
                    prop_assert_eq!(pushed, eager_ok, "push ({}, {}) at width {}", a, b, n);
                    if pushed {
                        levels.push(Some((a, b)));
                    }
                    prop_assert_eq!(t.depth(), levels.len(), "a rejected push must not push");
                }
                2 => {
                    let pushed = t.try_push(0, None);
                    prop_assert_eq!(pushed, !t.is_base_cyclic());
                    if pushed {
                        levels.push(None);
                    }
                }
                _ => {
                    let d = d as usize % (levels.len() + 1);
                    t.truncate(d);
                    levels.truncate(d);
                }
            }
        }
    }
}
