//! Polynomial single-execution consistency: one witness instead of all.
//!
//! The enumeration engine answers "is this outcome allowed?" by walking
//! every surviving (rf, co) witness. But with the read-from map fixed,
//! the remaining question — *does some coherence order make this
//! execution consistent?* — is polynomial for the SC/TSO-class instances
//! ("How Hard is Weak-Memory Testing?", PAPERS.md): their axioms are
//! monotone in `co`, so coherence can be *placed* by saturation instead
//! of permuted.
//!
//! [`co_exists`] implements that placement. Starting from the edges every
//! valid coherence order must contain (the initial write first, the
//! static `po-loc` write pairs of SC PER LOCATION, and any co-maximal
//! writes the queried outcome pins), it repeatedly tests each unordered
//! same-location write pair in both directions against the four axioms
//! *with the partial order so far*. Monotonicity makes a violation
//! definitive for every extension, so a violating direction forces the
//! opposite edge; both directions violating is a contradiction — the
//! query is forbidden, no enumeration needed. At the fixpoint the partial
//! order is completed greedily (a per-location topological
//! linearisation) and the full four-axiom check either certifies the
//! witness or sends the query to a **counted** fallback that enumerates
//! the remaining linear extensions — saturation is never silently wrong,
//! merely incomplete, and [`ConsistencyStats`] records every time it
//! gives up. Models beyond the vouched-for frontier
//! ([`Tractability::Frontier`]) skip saturation and go straight to the
//! counted fallback.
//!
//! [`Tractability::Conditional`] models (Power/ARM) sit in between:
//! their ppo is candidate-dependent, but *frozen* to any fixed bound the
//! remaining axioms are monotone in `co` again. Saturation therefore runs
//! against a two-sided [`PpoEnvelope`] (`lower ⊆ ppo(x) ⊆ upper` for
//! every candidate): a contradiction under the pessimistic lower bound is
//! definitively forbidden (the exact model has *more* ppo edges, so the
//! violating cycle persists), hypothesis edges forced under the lower
//! bound are constraints every exact witness obeys, and any completed
//! coherence order — found under either bound — that re-checks clean
//! under the exact per-candidate ppo is definitively allowed. Only when
//! the envelope genuinely disagrees (lower finds no contradiction, upper
//! guides to no exact-clean witness) does the query take the counted
//! fallback, recorded per query in
//! [`ConsistencyStats::envelope_fallbacks`].
//!
//! Everything runs on the arena engine: relations live in [`RelArena`]
//! slots, candidates are checked as borrowed [`ExecFrame`]s through
//! [`ArenaChecker`], and a query performs no per-hypothesis heap
//! allocation once the arena is warm.

use crate::arena::{RelArena, RelId};
use crate::enumerate::{build_co_arena, HeapPerm};
use crate::event::{Dir, Event, Loc};
use crate::exec::{ExecCore, ExecFrame, ExecRels};
use crate::model::{Architecture, ArenaChecker, RfScope, Tractability};
use crate::ppo::PpoEnvelope;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters of one or many [`co_exists`] queries. The `fallbacks` /
/// `fallback_candidates` pair is the honesty contract: whenever
/// saturation cannot decide a query by itself, the enumeration fallback
/// is recorded here — degradation is visible, never silent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConsistencyStats {
    /// Queries answered.
    pub queries: usize,
    /// Queries decided *forbidden* during saturation: some write pair
    /// violates the axioms in both directions, so no coherence order
    /// exists (a definitive answer by monotonicity).
    pub contradictions: usize,
    /// Queries decided *allowed* by the greedy single witness.
    pub witnesses: usize,
    /// Queries the saturation fixpoint could not decide — answered
    /// exactly by enumerating the remaining linear extensions.
    pub fallbacks: usize,
    /// Coherence choices the fallback actually checked, across queries.
    pub fallback_candidates: u128,
    /// [`Tractability::Conditional`] queries the ppo envelope decided
    /// definitively (either direction) — also counted in
    /// `contradictions`/`witnesses`, never in `fallbacks`.
    pub conditional_definitive: usize,
    /// [`Tractability::Conditional`] queries where the envelope genuinely
    /// disagreed — each also counts once in `fallbacks`.
    pub envelope_fallbacks: usize,
}

impl ConsistencyStats {
    /// Folds another stats block into this one.
    pub fn absorb(&mut self, o: &ConsistencyStats) {
        self.queries += o.queries;
        self.contradictions += o.contradictions;
        self.witnesses += o.witnesses;
        self.fallbacks += o.fallbacks;
        self.fallback_candidates += o.fallback_candidates;
        self.conditional_definitive += o.conditional_definitive;
        self.envelope_fallbacks += o.envelope_fallbacks;
    }
}

/// One single-execution consistency query: a value-concretised event list
/// over a shared core, a fixed read-from map, and (optionally) the writes
/// an outcome requires to be coherence-maximal.
#[derive(Clone, Copy, Debug)]
pub struct CoQuery<'a> {
    /// The skeleton-invariant core (po, deps, fences).
    pub core: &'a Arc<ExecCore>,
    /// Events with concrete values, indexed by id.
    pub events: &'a [Event],
    /// Read-from edges `(write, read)`, one per read event.
    pub rf: &'a [(usize, usize)],
    /// Per-location co-maximal write required by the queried outcome
    /// (final memory pins the last write); empty leaves final memory
    /// unconstrained.
    pub last_writes: &'a [(Loc, usize)],
}

/// Per-location write layout of a query: the initial write (if the
/// location has one) and the thread writes, gathered once per query.
struct LocWrites {
    loc: Loc,
    init: Option<usize>,
    writes: Vec<usize>,
}

fn loc_writes(events: &[Event]) -> Vec<LocWrites> {
    let mut by_loc: BTreeMap<Loc, LocWrites> = BTreeMap::new();
    for e in events {
        if e.dir != Dir::W {
            continue;
        }
        let entry = by_loc.entry(e.loc).or_insert_with(|| LocWrites {
            loc: e.loc,
            init: None,
            writes: Vec::new(),
        });
        if e.thread.is_none() {
            entry.init = Some(e.id);
        } else {
            entry.writes.push(e.id);
        }
    }
    by_loc.into_values().collect()
}

/// Does some coherence order make this rf-fixed execution satisfy all
/// four axioms of `arch` (and respect the queried co-maximal writes)?
///
/// Decided by saturation for models vouching for
/// [`Tractability::Polynomial`], by envelope saturation plus exact
/// re-validation for [`Tractability::Conditional`] ones, and by counted
/// enumeration otherwise — all paths agree exactly; only the cost
/// differs. `arena` is scratch space reused across queries (it is reset
/// to the query's universe).
pub fn co_exists<A: Architecture + ?Sized>(
    arch: &A,
    q: &CoQuery<'_>,
    arena: &mut RelArena,
    stats: &mut ConsistencyStats,
) -> bool {
    co_exists_with_envelope(arch, q, None, arena, stats)
}

/// [`co_exists`] with a caller-supplied ppo envelope for
/// [`Tractability::Conditional`] models. The envelope depends only on
/// the query's core and the architecture, so batch drivers
/// (`herd_litmus::decide::decide_log`) compute it once per screened rf
/// class and reuse it across every query on that class; `None` computes
/// it on the fly (and is ignored entirely by non-`Conditional` models).
pub fn co_exists_with_envelope<A: Architecture + ?Sized>(
    arch: &A,
    q: &CoQuery<'_>,
    envelope: Option<&PpoEnvelope>,
    arena: &mut RelArena,
    stats: &mut ConsistencyStats,
) -> bool {
    stats.queries += 1;
    let core = q.core.as_ref();
    let n = q.events.len();
    arena.reset(n);
    let rels = ExecRels::alloc(arena);
    arena.clear(rels.rf);
    for &(w, r) in q.rf {
        arena.add(rels.rf, w, r);
    }
    rels.derive_rf(core, arena);
    let locs = loc_writes(q.events);

    let mode = arch.tractability();
    // A `Conditional` model must vouch for an envelope and be a Fig 18
    // instance (ppo frozen through the staged checker's rf scope); a
    // missing one (contract violation) degrades to the frontier fallback
    // — slower, never unsound.
    let owned_env = match (mode, &envelope) {
        (Tractability::Conditional, None) => arch.ppo_envelope(core),
        _ => None,
    };
    let env = match mode {
        Tractability::Conditional => envelope.or(owned_env.as_ref()),
        _ => None,
    };
    let checker = match env {
        Some(env) => ArenaChecker::staged(arch, core, env, false),
        None => ArenaChecker::new(arch, core),
    };
    let env = env.filter(|_| checker.is_staged());
    let saturating = mode == Tractability::Polynomial || env.is_some();

    // The partial coherence order every valid witness must extend,
    // kept transitively closed throughout.
    let forced = arena.alloc();
    arena.clear(forced);
    for lw in &locs {
        if let Some(init) = lw.init {
            for &w in &lw.writes {
                arena.add(forced, init, w);
            }
        }
    }
    for &(loc, last) in q.last_writes {
        if let Some(lw) = locs.iter().find(|lw| lw.loc == loc) {
            for &w in lw.writes.iter().chain(lw.init.iter()) {
                if w != last {
                    arena.add(forced, w, last);
                }
            }
        }
    }

    if saturating {
        // SC PER LOCATION forces co to agree with the architecture's
        // static po-loc on same-location write pairs: orienting co
        // against such a pair closes a 2-cycle in `po-loc ∪ com`.
        let po_loc = arch.sc_per_location_po_loc_static(core);
        for (a, b) in po_loc.iter_pairs() {
            if q.events[a].dir == Dir::W
                && q.events[b].dir == Dir::W
                && q.events[a].loc == q.events[b].loc
            {
                arena.add(forced, a, b);
            }
        }
    }
    close(arena, forced);

    if mode == Tractability::Polynomial {
        // Exact saturation: the per-candidate relations are themselves
        // monotone in co, so every probe checks the exact model.
        match saturate(arch, &checker, q, &rels, arena, forced, &locs, None) {
            SatResult::Contradiction => {
                stats.contradictions += 1;
                return false;
            }
            SatResult::Fixpoint => {}
        }
        if greedy_complete(arena, &rels, forced, &locs) {
            rels.derive_co(core, arena);
            let fx = ExecFrame { core: q.core, events: q.events, rels: &rels };
            if checker.check(arch, &fx, arena).allowed() {
                stats.witnesses += 1;
                return true;
            }
        }
        // Saturation incomplete: the greedy witness failed (independent
        // pair orientations interact) — fall back, counted.
    } else if let Some(env) = env {
        let lower = arena.alloc_from(&env.lower);

        // Pessimistic pass: with ppo frozen to the lower bound every
        // violation is definitive for the exact model too (exact ppo ⊇
        // lower only adds hb/prop edges, so the violating cycle
        // persists) — a contradiction is definitively forbidden, and the
        // forced edges are constraints every exact witness obeys.
        match saturate(arch, &checker, q, &rels, arena, forced, &locs, Some(lower)) {
            SatResult::Contradiction => {
                stats.contradictions += 1;
                stats.conditional_definitive += 1;
                return false;
            }
            SatResult::Fixpoint => {}
        }
        if greedy_complete(arena, &rels, forced, &locs) {
            rels.derive_co(core, arena);
            let fx = ExecFrame { core: q.core, events: q.events, rels: &rels };
            // A completed order is a real candidate: the *exact* check
            // decides it, bounds no longer needed.
            if checker.check(arch, &fx, arena).allowed() {
                stats.witnesses += 1;
                stats.conditional_definitive += 1;
                return true;
            }
        }

        // Optimistic pass, on a copy of the forced order (its forced
        // edges are only sound for upper-frozen witnesses, so they must
        // not leak into the fallback): saturating under the upper bound
        // steers the greedy completion toward an order passing the
        // *stricter* frozen model — and any such order passes the exact
        // model by monotonicity (exact ppo ⊆ upper). The exact re-check
        // below is what certifies the verdict either way. Only now does
        // the envelope's lazily-materialised upper fixpoint get paid —
        // queries the pessimistic pass settles never reach this line.
        let upper = arena.alloc_from(env.upper(core));
        let forced_up = arena.alloc_from(forced);
        if let SatResult::Fixpoint =
            saturate(arch, &checker, q, &rels, arena, forced_up, &locs, Some(upper))
        {
            if greedy_complete(arena, &rels, forced_up, &locs) {
                rels.derive_co(core, arena);
                let fx = ExecFrame { core: q.core, events: q.events, rels: &rels };
                if checker.check(arch, &fx, arena).allowed() {
                    stats.witnesses += 1;
                    stats.conditional_definitive += 1;
                    return true;
                }
            }
        }
        // The envelope genuinely disagreed: no lower contradiction, no
        // exact-clean witness under either bound's guidance.
        stats.envelope_fallbacks += 1;
    }

    stats.fallbacks += 1;
    fallback(arch, &checker, q, &rels, arena, forced, &locs, stats)
}

/// How one saturation pass ended.
enum SatResult {
    /// Some write pair violates in both orientations (or the seed itself
    /// violates): under the pass's (frozen or exact) relations, no total
    /// coherence order extending `forced` is consistent.
    Contradiction,
    /// The hypothesis fixpoint was reached without contradiction;
    /// `forced` has absorbed every forced orientation.
    Fixpoint,
}

/// The hypothesis loop of the polynomial side: tests every unordered
/// same-location write pair in both orientations against the axioms
/// (frozen to `frozen` when given, exact otherwise), forcing the
/// survivor of a one-sided violation, until nothing grows. Mutates
/// `forced` in place (kept transitively closed).
///
/// The query's rf is fixed, so the checker's rf scope — with ppo frozen
/// to the bound, everything but the coherence stage — is evaluated once
/// for the whole pass.
#[allow(clippy::too_many_arguments)] // the solver's single inner loop
fn saturate<A: Architecture + ?Sized>(
    arch: &A,
    checker: &ArenaChecker,
    q: &CoQuery<'_>,
    rels: &ExecRels,
    arena: &mut RelArena,
    forced: RelId,
    locs: &[LocWrites],
    frozen: Option<RelId>,
) -> SatResult {
    let m = arena.mark();
    let fx = ExecFrame { core: q.core, events: q.events, rels };
    let scope = match frozen {
        Some(bound) => checker.rf_scope_frozen(&fx, bound, arena),
        None => checker.rf_scope(&fx, arena),
    };
    let result = saturate_in(arch, checker, q, rels, arena, forced, locs, scope);
    arena.release(m);
    result
}

/// [`saturate`] under one rf scope.
#[allow(clippy::too_many_arguments)] // the solver's single inner loop
fn saturate_in<A: Architecture + ?Sized>(
    arch: &A,
    checker: &ArenaChecker,
    q: &CoQuery<'_>,
    rels: &ExecRels,
    arena: &mut RelArena,
    forced: RelId,
    locs: &[LocWrites],
    scope: RfScope,
) -> SatResult {
    // Base check: the seed itself (plus the rf-only axioms, NO THIN
    // AIR included) may already be definitively violated.
    if violates(arch, checker, q, rels, arena, forced, scope) {
        return SatResult::Contradiction;
    }
    loop {
        let mut grew = false;
        for lw in locs {
            for (i, &a) in lw.writes.iter().enumerate() {
                for &b in &lw.writes[i + 1..] {
                    let fv = arena.view(forced);
                    if fv.contains(a, b) || fv.contains(b, a) {
                        continue;
                    }
                    let ab_bad =
                        hypothesis_violates(arch, checker, q, rels, arena, forced, a, b, scope);
                    let ba_bad =
                        hypothesis_violates(arch, checker, q, rels, arena, forced, b, a, scope);
                    match (ab_bad, ba_bad) {
                        (true, true) => {
                            // Every total order contains one of the two
                            // edges and both are definitively violating.
                            return SatResult::Contradiction;
                        }
                        (true, false) => {
                            force(arena, forced, b, a);
                            grew = true;
                        }
                        (false, true) => {
                            force(arena, forced, a, b);
                            grew = true;
                        }
                        (false, false) => {}
                    }
                }
            }
        }
        if !grew {
            return SatResult::Fixpoint;
        }
        // New forced edges can combine into a definitive violation.
        if violates(arch, checker, q, rels, arena, forced, scope) {
            return SatResult::Contradiction;
        }
    }
}

/// Greedy completion: per location, a topological linearisation of the
/// forced order (smallest event id first among the ready), built into
/// `rels.co`. False if `forced` is cyclic on some location's writes.
fn greedy_complete(
    arena: &mut RelArena,
    rels: &ExecRels,
    forced: RelId,
    locs: &[LocWrites],
) -> bool {
    arena.clear(rels.co);
    for lw in locs {
        match linearise(arena, forced, &lw.writes) {
            Some(order) => build_co_arena(arena, rels.co, lw.init, &order),
            None => return false,
        }
    }
    true
}

/// Transitively closes `rel` in place (through a scratch slot).
fn close(arena: &mut RelArena, rel: RelId) {
    let m = arena.mark();
    let t = arena.alloc_from(rel);
    arena.tclosure_into(rel, t);
    arena.release(m);
}

/// Adds `(a, b)` to the closed relation `rel`, restoring closure.
fn force(arena: &mut RelArena, rel: RelId, a: usize, b: usize) {
    arena.add(rel, a, b);
    close(arena, rel);
}

/// Do the four axioms reject this (possibly partial) coherence order?
/// `scope` is the checker's rf scope, ppo frozen to a bound or exact;
/// either way, for relations monotone in `co` a `true` here is
/// definitive for every extension of `co_slot` under the same ppo.
#[allow(clippy::too_many_arguments)] // the solver's single probe shape
fn violates<A: Architecture + ?Sized>(
    arch: &A,
    checker: &ArenaChecker,
    q: &CoQuery<'_>,
    rels: &ExecRels,
    arena: &mut RelArena,
    co_slot: RelId,
    scope: RfScope,
) -> bool {
    arena.copy_into(rels.co, co_slot);
    rels.derive_co(q.core.as_ref(), arena);
    let fx = ExecFrame { core: q.core, events: q.events, rels };
    !checker.check_co(arch, &fx, scope, arena).allowed()
}

/// Tests the hypothesis `forced ∪ {(a, b)}` against the axioms.
#[allow(clippy::too_many_arguments)] // one hypothesis probe, one call site
fn hypothesis_violates<A: Architecture + ?Sized>(
    arch: &A,
    checker: &ArenaChecker,
    q: &CoQuery<'_>,
    rels: &ExecRels,
    arena: &mut RelArena,
    forced: RelId,
    a: usize,
    b: usize,
    scope: RfScope,
) -> bool {
    let m = arena.mark();
    let t = arena.alloc_from(forced);
    arena.add(t, a, b);
    let hyp = arena.alloc();
    arena.tclosure_into(hyp, t);
    let bad = violates(arch, checker, q, rels, arena, hyp, scope);
    arena.release(m);
    bad
}

/// A topological linearisation of `writes` under the closed partial
/// order in `forced` (smallest id first among the ready); `None` if the
/// partial order is cyclic on these writes.
fn linearise(arena: &RelArena, forced: RelId, writes: &[usize]) -> Option<Vec<usize>> {
    let fv = arena.view(forced);
    let mut remaining: Vec<usize> = writes.to_vec();
    let mut order = Vec::with_capacity(writes.len());
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&w| remaining.iter().all(|&v| v == w || !fv.contains(v, w)))?;
        order.push(remaining.remove(pos));
    }
    Some(order)
}

/// The exact fallback: enumerate every per-location linear extension of
/// `forced` and check each completed coherence order in full. Counted in
/// [`ConsistencyStats::fallback_candidates`].
#[allow(clippy::too_many_arguments)] // the solver's single exit path
fn fallback<A: Architecture + ?Sized>(
    arch: &A,
    checker: &ArenaChecker,
    q: &CoQuery<'_>,
    rels: &ExecRels,
    arena: &mut RelArena,
    forced: RelId,
    locs: &[LocWrites],
    stats: &mut ConsistencyStats,
) -> bool {
    // Per-location menus: the permutations consistent with `forced`.
    let mut menus: Vec<Vec<Vec<usize>>> = Vec::with_capacity(locs.len());
    for lw in locs {
        let mut menu = Vec::new();
        let mut heap = HeapPerm::new(lw.writes.clone());
        loop {
            let order = heap.current();
            let fv = arena.view(forced);
            let ok = (0..order.len())
                .all(|i| (i + 1..order.len()).all(|j| !fv.contains(order[j], order[i])));
            if ok {
                menu.push(order.to_vec());
            }
            if !heap.advance() {
                break;
            }
        }
        if menu.is_empty() {
            return false; // forced is cyclic within this location
        }
        menus.push(menu);
    }

    let radices: Vec<usize> = menus.iter().map(Vec::len).collect();
    let mut pick = vec![0usize; menus.len()];
    loop {
        arena.clear(rels.co);
        for (li, lw) in locs.iter().enumerate() {
            build_co_arena(arena, rels.co, lw.init, &menus[li][pick[li]]);
        }
        rels.derive_co(q.core.as_ref(), arena);
        let fx = ExecFrame { core: q.core, events: q.events, rels };
        stats.fallback_candidates += 1;
        if checker.check(arch, &fx, arena).allowed() {
            return true;
        }
        if !bump(&mut pick, &radices) {
            return false;
        }
    }
}

fn bump(digits: &mut [usize], radices: &[usize]) -> bool {
    for (d, &r) in digits.iter_mut().zip(radices) {
        if *d + 1 < r {
            *d += 1;
            return true;
        }
        *d = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Power, Pso, Rmo, Sc, Tso};
    use crate::exec::Execution;
    use crate::fixtures::{self, Device};
    use crate::model::check;
    use crate::relation::Relation;

    /// Ground truth by brute force: does any coherence order over the
    /// same events and rf pass `check`?
    fn co_exists_brute<A: Architecture + ?Sized>(arch: &A, x: &Execution) -> bool {
        let locs = loc_writes(x.events());
        let mut heaps: Vec<HeapPerm> =
            locs.iter().map(|lw| HeapPerm::new(lw.writes.clone())).collect();
        loop {
            let mut co = Relation::empty(x.len());
            for (li, lw) in locs.iter().enumerate() {
                crate::enumerate::build_co(&mut co, lw.init, heaps[li].current());
            }
            let cand =
                Execution::with_core(x.events().to_vec(), Arc::clone(x.core()), x.rf().clone(), co)
                    .expect("permuted coherence orders are well-formed");
            if check(arch, &cand).allowed() {
                return true;
            }
            if !heaps.iter_mut().any(|h| h.advance()) {
                return false;
            }
        }
    }

    fn query_of(x: &Execution) -> (Vec<(usize, usize)>, Vec<Event>) {
        (x.rf().iter_pairs().collect(), x.events().to_vec())
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        let archs: Vec<Box<dyn Architecture>> =
            vec![Box::new(Sc), Box::new(Tso), Box::new(Pso), Box::new(Rmo), Box::new(Power::new())];
        let fixtures: Vec<(&str, Execution)> = vec![
            ("mp", fixtures::mp(Device::None, Device::None)),
            ("sb", fixtures::sb(Device::None, Device::None)),
            ("lb", fixtures::lb(Device::None, Device::None)),
            ("wrc", fixtures::wrc(Device::None, Device::None)),
            ("iriw", fixtures::iriw(Device::None, Device::None)),
            ("2+2w", fixtures::two_plus_two_w(Device::None, Device::None)),
            ("r", fixtures::r(Device::None, Device::None)),
            ("s", fixtures::s(Device::None, Device::None)),
            ("co_ww", fixtures::co_ww()),
            ("co_rw1", fixtures::co_rw1()),
            ("co_rr", fixtures::co_rr()),
            ("co_wr", fixtures::co_wr()),
        ];
        let mut arena = RelArena::new(0);
        let mut stats = ConsistencyStats::default();
        for arch in &archs {
            for (name, x) in &fixtures {
                let (rf, events) = query_of(x);
                let q = CoQuery { core: x.core(), events: &events, rf: &rf, last_writes: &[] };
                let ours = co_exists(arch.as_ref(), &q, &mut arena, &mut stats);
                let brute = co_exists_brute(arch.as_ref(), x);
                assert_eq!(ours, brute, "{name} on {} diverged", arch.name());
            }
        }
        assert_eq!(stats.queries, archs.len() * fixtures.len());
        // Power is conditional-side: the ppo envelope decides (nearly)
        // every fixture definitively, and whatever residue remains is a
        // counted envelope fallback — never a silent one.
        assert!(stats.conditional_definitive > 0, "the envelope must decide some queries");
        assert_eq!(
            stats.fallbacks, stats.envelope_fallbacks,
            "every fallback must come from a counted envelope disagreement"
        );
        assert!(
            stats.fallbacks < fixtures.len(),
            "conditional saturation must beat one-fallback-per-query on the fixtures"
        );
    }

    #[test]
    fn last_write_constraint_pins_final_memory() {
        // co_ww: T0 writes x=1 then x=2 (po-loc). Final x=2 is the only
        // coherent completion; requiring x=1 last contradicts po-loc.
        let x = fixtures::co_ww();
        let (rf, events) = query_of(&x);
        let (w1, w2) = {
            let mut ws =
                events.iter().filter(|e| e.dir == Dir::W && e.thread.is_some()).map(|e| e.id);
            (ws.next().unwrap(), ws.next().unwrap())
        };
        let loc = events[w1].loc;
        let mut arena = RelArena::new(0);
        let mut stats = ConsistencyStats::default();
        let ok_last = [(loc, w2)];
        let q = CoQuery { core: x.core(), events: &events, rf: &rf, last_writes: &ok_last };
        assert!(co_exists(&Sc, &q, &mut arena, &mut stats));
        let bad_last = [(loc, w1)];
        let q = CoQuery { core: x.core(), events: &events, rf: &rf, last_writes: &bad_last };
        assert!(!co_exists(&Sc, &q, &mut arena, &mut stats));
        assert_eq!(stats.fallbacks, 0, "SC queries stay on the polynomial path");
    }

    #[test]
    fn polynomial_models_do_not_fall_back_on_independent_writes() {
        // A bag of unordered same-location writes: saturation forces
        // nothing, the greedy witness must succeed on its own.
        let mut b = crate::fixtures::ExecBuilder::new();
        let ws: Vec<usize> = (0..4u16).map(|t| b.write(t, "x", i64::from(t) + 1)).collect();
        for w in ws.windows(2) {
            b.co(w[0], w[1]); // build() needs a total co; the query ignores it
        }
        let x = b.build().unwrap();
        let (rf, events) = query_of(&x);
        let mut arena = RelArena::new(0);
        let mut stats = ConsistencyStats::default();
        for arch in [&Sc as &dyn Architecture, &Tso, &Pso] {
            let q = CoQuery { core: x.core(), events: &events, rf: &rf, last_writes: &[] };
            assert!(co_exists(arch, &q, &mut arena, &mut stats));
        }
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.witnesses, 3);
    }
}
