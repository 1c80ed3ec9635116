//! Data-flow enumeration: from a program skeleton to all candidate
//! executions (paper, Sec 3 §Data-flow semantics).
//!
//! A [`Skeleton`] is a control-flow semantics whose write values are known
//! and whose read values are still undetermined. Enumeration chooses, for
//! every read, a same-location write to read from (`rf`), and for every
//! location a total coherence order (`co`) with the initial write first —
//! exactly the candidate-execution construction of Fig 3.
//!
//! The module holds one engine and one oracle:
//!
//! * **The engine** — [`Skeleton::check_stream_arena`] (and, over a
//!   [`crate::sched::WorkPlan`], [`Skeleton::check_stream_sched`]) walks
//!   an odometer over rf picks and per-location coherence menus and
//!   checks every surviving candidate in place, in arena slots, against
//!   the four axioms. The pruning axes come from the architecture, Sec
//!   8.3's `-speedcheck`: SC PER LOCATION masks (load-load-hazard
//!   weakened when [`Architecture::tolerates_load_load_hazards`] says so)
//!   cut whole rf×co subtrees, and a [`ThinAirTracker`] over the static
//!   base that [`Architecture::thin_air_base`] vouches for skips every rf
//!   subtree whose partial happens-before graph is already cyclic.
//!   `emitted + pruned` equals [`Skeleton::candidate_count`] exactly.
//! * **The oracle** — [`Skeleton::candidates`] materialises every
//!   candidate eagerly, unpruned, as owned [`Execution`]s for
//!   [`crate::model::check`]. It is the executable specification the
//!   engine is tested against, not a production path.
//!
//! Front ends whose write values depend on read values (genuine data flow
//! through registers) perform their own symbolic enumeration and lower to
//! concrete [`Execution`]s directly; this module covers the common case of
//! constant-valued writes, which includes every litmus family in the paper.

use crate::arena::RelArena;
use crate::event::{Dir, Event, Fence, Loc, ThreadId, Val};
use crate::exec::{Deps, ExecCore, ExecFrame, ExecRels, Execution};
use crate::faultpoint::{self, FaultPoint};
use crate::model::{thin_air_base_with, Architecture, ArenaChecker, Verdict};
use crate::ppo::PpoEnvelope;
use crate::relation::Relation;
use crate::sched::{Budget, StopReason};
use crate::thinair::ThinAirTracker;
use crate::uniproc::{CoMenus, EventShape, LocGraphs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One event of a skeleton: a write with a fixed value, or a read whose
/// value enumeration will determine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkeletonEvent {
    /// Holding thread (`None` for initial writes).
    pub thread: Option<ThreadId>,
    /// Program-order index within the thread.
    pub po_index: usize,
    /// Direction.
    pub dir: Dir,
    /// Location accessed.
    pub loc: Loc,
    /// Value written (ignored for reads).
    pub val: Val,
}

/// A control-flow semantics ready for data-flow enumeration.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// The events; index = event id.
    pub events: Vec<SkeletonEvent>,
    /// Program order over the events.
    pub po: Relation,
    /// Dependency relations.
    pub deps: Deps,
    /// Fence relations.
    pub fences: BTreeMap<Fence, Relation>,
}

impl Skeleton {
    fn parts_core(&self) -> (SkeletonParts, Arc<ExecCore>) {
        let n = self.events.len();
        assert_eq!(self.po.universe(), n, "po universe mismatch");
        let parts = SkeletonParts::new(self);
        let core = Arc::new(
            ExecCore::new(
                &parts.base_events,
                self.po.clone(),
                self.deps.clone(),
                self.fences.clone(),
            )
            .expect("skeleton relations are well-formed"),
        );
        (parts, core)
    }

    /// The arena-backed checked stream: enumerates with every pruning
    /// axis sound for `arch` (uniproc masks, llh weakening, thin air) and
    /// checks each surviving candidate against the four axioms — **zero
    /// heap allocations per candidate** once `arena` has warmed to its
    /// high-water mark.
    ///
    /// Candidates are never materialised as owned [`Execution`]s: the
    /// witness and all derived relations live in `arena` slots addressed
    /// by one [`ExecRels`], refreshed scope by scope — the rf-invariant
    /// part once per rf-odometer digit, the coherence-dependent part once
    /// per co choice — and `sink` observes each candidate as a borrowed
    /// [`ExecFrame`] plus its [`Verdict`]. The axiom temporaries are
    /// rolled back to a checkpoint after every candidate, so the arena's
    /// footprint is the high-water mark of one candidate's working set.
    ///
    /// A `budget` deadline, candidate bound, or cooperative cancellation
    /// stops enumeration mid-odometer, and the returned stats report the
    /// cut exactly — `emitted + pruned + remaining == candidate_count`,
    /// with a [`ResumePoint`] that [`Skeleton::check_stream_arena_resume`]
    /// can complete from. [`Budget::unlimited`] never stops.
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn check_stream_arena<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        arena: &mut RelArena,
        budget: &Budget,
        sink: &mut dyn FnMut(&ExecFrame<'_>, &RelArena, Verdict),
    ) -> CheckedStats {
        let ctx = EngineCtx::new(self, arch);
        let mut st = EngineState::new(&ctx, arch, arena);
        let end = RfDriver::rf_total(&ctx.parts);
        run_arena_range(&ctx, arch, arena, &mut st, 0, end, None, budget, sink)
    }

    /// Completes an interrupted [`Skeleton::check_stream_arena`]
    /// run from its [`ResumePoint`]: first the unchecked tail of the cut
    /// configuration's coherence odometer, then every following rf
    /// configuration. The merged stats of the interrupted run and this one
    /// reproduce an uninterrupted run exactly — same verdict stream, same
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn check_stream_arena_resume<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        arena: &mut RelArena,
        resume: ResumePoint,
        sink: &mut dyn FnMut(&ExecFrame<'_>, &RelArena, Verdict),
    ) -> CheckedStats {
        let ctx = EngineCtx::new(self, arch);
        let mut st = EngineState::new(&ctx, arch, arena);
        let end = RfDriver::rf_total(&ctx.parts);
        let unlimited = Budget::unlimited();
        let mut stats = CheckedStats::default();
        let tail_start = if resume.co_next > 0 {
            // Finish the cut configuration's coherence tail; `u128::MAX`
            // clamps to the menu count, and a non-zero start means the
            // configuration's generation-time prunes stay with the
            // interrupted run that already claimed them.
            stats.absorb(&run_arena_range(
                &ctx,
                arch,
                arena,
                &mut st,
                resume.rf_pos,
                resume.rf_pos + 1,
                Some((resume.co_next, u128::MAX)),
                &unlimited,
                sink,
            ));
            resume.rf_pos + 1
        } else {
            resume.rf_pos
        };
        if tail_start < end {
            stats.absorb(&run_arena_range(
                &ctx, arch, arena, &mut st, tail_start, end, None, &unlimited, sink,
            ));
        }
        stats
    }

    /// The reference oracle: every candidate execution, unpruned, as an
    /// owned [`Execution`] — per-location permutation tables materialised
    /// up front and `po`/`deps`/`fences` cloned into every candidate. The
    /// executable specification the engine
    /// ([`Skeleton::check_stream_arena`]) is tested against.
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn candidates(&self) -> Vec<Execution> {
        let n = self.events.len();
        assert_eq!(self.po.universe(), n, "po universe mismatch");
        let parts = SkeletonParts::new(self);

        // Materialise every coherence permutation per location up front.
        let co_choices: Vec<Vec<Vec<usize>>> = parts
            .loc_writes
            .iter()
            .map(|ws| {
                let mut perms = Vec::new();
                let mut heap = HeapPerm::new(ws.clone());
                loop {
                    perms.push(heap.current().to_vec());
                    if !heap.advance() {
                        break;
                    }
                }
                perms
            })
            .collect();

        let mut out = Vec::new();
        if parts.rf_choices.iter().any(Vec::is_empty) {
            return out;
        }
        let mut rf_pick = vec![0usize; parts.reads.len()];
        let mut co_pick = vec![0usize; parts.locs.len()];
        loop {
            let mut events = parts.base_events.clone();
            let mut rf = Relation::empty(n);
            for (k, &r) in parts.reads.iter().enumerate() {
                let w = parts.rf_choices[k][rf_pick[k]];
                rf.add(w, r);
                events[r].val = events[w].val;
            }
            let mut co = Relation::empty(n);
            for (li, &init) in parts.loc_init.iter().enumerate() {
                let order = &co_choices[li][co_pick[li]];
                build_co(&mut co, init, order);
            }
            let x = Execution::new(
                events,
                self.po.clone(),
                rf,
                co,
                self.deps.clone(),
                self.fences.clone(),
            )
            .expect("enumerated candidates are well-formed by construction");
            out.push(x);

            if !bump(&mut rf_pick, &parts.rf_choices.iter().map(Vec::len).collect::<Vec<_>>())
                && !bump(&mut co_pick, &co_choices.iter().map(Vec::len).collect::<Vec<_>>())
            {
                break;
            }
        }
        out
    }

    /// The number of candidates without materialising them: the product of
    /// per-read rf choices and per-location coherence permutations,
    /// checked in `u128` — `None` when even that overflows (a skeleton no
    /// enumeration could ever finish anyway). The old `usize` arithmetic
    /// wrapped silently (debug-panicked) on large skeletons, breaking the
    /// `emitted + pruned == candidate_count` accounting.
    pub fn candidate_count(&self) -> Option<u128> {
        let mut writes_by_loc: BTreeMap<Loc, (usize, bool)> = BTreeMap::new();
        for e in &self.events {
            if e.dir == Dir::W {
                let entry = writes_by_loc.entry(e.loc).or_insert((0, false));
                if e.thread.is_none() {
                    entry.1 = true;
                } else {
                    entry.0 += 1;
                }
            }
        }
        let mut count = 1u128;
        for e in &self.events {
            if e.dir == Dir::R {
                let (w, init) = writes_by_loc.get(&e.loc).copied().unwrap_or((0, false));
                count = count.checked_mul(w as u128 + u128::from(init))?;
            }
        }
        for &(w, _) in writes_by_loc.values() {
            count = count.checked_mul(factorial_checked(w)?)?;
        }
        Some(count)
    }

    /// [`Skeleton::candidate_count`], saturating at `u128::MAX` instead of
    /// returning `None` — convenient for size guards in tests.
    pub fn candidate_count_saturating(&self) -> u128 {
        self.candidate_count().unwrap_or(u128::MAX)
    }
}

/// Skeleton-derived tables shared by the oracle, the engine and the
/// [`crate::sched`] planner.
pub(crate) struct SkeletonParts {
    pub(crate) base_events: Vec<Event>,
    pub(crate) reads: Vec<usize>,
    pub(crate) rf_choices: Vec<Vec<usize>>,
    pub(crate) locs: Vec<Loc>,
    /// Initial write of each `locs` entry, if any.
    pub(crate) loc_init: Vec<Option<usize>>,
    /// Non-initial writes of each `locs` entry, in event order.
    pub(crate) loc_writes: Vec<Vec<usize>>,
}

impl SkeletonParts {
    pub(crate) fn new(sk: &Skeleton) -> Self {
        let base_events: Vec<Event> = sk
            .events
            .iter()
            .enumerate()
            .map(|(id, e)| Event {
                id,
                thread: e.thread,
                po_index: e.po_index,
                dir: e.dir,
                loc: e.loc,
                val: e.val,
            })
            .collect();

        let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
        let mut init_by_loc: BTreeMap<Loc, usize> = BTreeMap::new();
        for e in &base_events {
            if e.dir == Dir::W {
                if e.thread.is_none() {
                    init_by_loc.insert(e.loc, e.id);
                } else {
                    writes_by_loc.entry(e.loc).or_default().push(e.id);
                }
            }
        }

        let reads: Vec<usize> =
            base_events.iter().filter(|e| e.dir == Dir::R).map(|e| e.id).collect();
        let rf_choices: Vec<Vec<usize>> = reads
            .iter()
            .map(|&r| {
                let loc = base_events[r].loc;
                let mut ws: Vec<usize> = writes_by_loc.get(&loc).cloned().unwrap_or_default();
                if let Some(&init) = init_by_loc.get(&loc) {
                    ws.push(init);
                }
                ws
            })
            .collect();

        let locs: Vec<Loc> = writes_by_loc.keys().copied().collect();
        let loc_init: Vec<Option<usize>> =
            locs.iter().map(|l| init_by_loc.get(l).copied()).collect();
        let loc_writes: Vec<Vec<usize>> = locs.iter().map(|l| writes_by_loc[l].clone()).collect();

        SkeletonParts { base_events, reads, rf_choices, locs, loc_init, loc_writes }
    }
}

/// Statistics of one arena-backed checked stream
/// ([`Skeleton::check_stream_arena`]): `emitted + pruned + remaining`
/// equals [`Skeleton::candidate_count`] (summed over work units) — with
/// `remaining == 0` on an uninterrupted run — and `allowed` counts the
/// candidates the architecture's four axioms accept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckedStats {
    /// Candidates materialised as frames and checked.
    pub emitted: u128,
    /// Candidates pruned at generation time (uniproc + thin air).
    pub pruned: u128,
    /// Checked candidates all four axioms allow.
    pub allowed: u128,
    /// Candidates neither checked nor pruned because a [`Budget`] stopped
    /// the run first; zero on a completed run. Recovered in O(odometer
    /// digits) from the driver position at the cut, never by counting.
    pub remaining: u128,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
    /// Where to pick the enumeration back up
    /// ([`Skeleton::check_stream_arena_resume`]); `None` when the run
    /// completed or when per-unit cut points make a single linear resume
    /// point meaningless (the scheduler path).
    pub resume: Option<ResumePoint>,
}

impl CheckedStats {
    /// Merges another unit's stats into `self`: counters add
    /// (saturating, matching the engine's u128 accounting), `stopped`
    /// keeps the first reason seen, and `resume` keeps the first cut
    /// point (meaningful only when the parts are consecutive).
    pub fn absorb(&mut self, other: &CheckedStats) {
        self.emitted = self.emitted.saturating_add(other.emitted);
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.allowed = self.allowed.saturating_add(other.allowed);
        self.remaining = self.remaining.saturating_add(other.remaining);
        if self.stopped.is_none() {
            self.stopped = other.stopped;
        }
        if self.resume.is_none() {
            self.resume = other.resume;
        }
    }
}

/// An exact enumeration cut point: the rf configuration and the coherence
/// ordinal within it where a budgeted run stopped. Feeding it back to
/// [`Skeleton::check_stream_arena_resume`] completes the stream with the
/// same verdicts an uninterrupted run would have produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumePoint {
    /// Linear rf-odometer index of the configuration that was current at
    /// the cut.
    pub rf_pos: u128,
    /// Coherence-menu ordinal (within `rf_pos`) of the first unchecked
    /// candidate; `0` means the whole configuration is still pending.
    pub co_next: u128,
}

/// Skeleton-invariant context of the arena-backed checked stream, built
/// once per enumeration and shared (read-only) by every worker and every
/// [`crate::sched::WorkUnit`].
pub(crate) struct EngineCtx {
    pub(crate) parts: SkeletonParts,
    pub(crate) core: Arc<ExecCore>,
    pub(crate) graphs: LocGraphs,
    pub(crate) thin_air: Option<Relation>,
    /// The architecture's ppo envelope on `core` and whether it is tight:
    /// computed once, shared by every worker's staged checker.
    envelope: Option<(PpoEnvelope, bool)>,
}

impl EngineCtx {
    pub(crate) fn new<A: Architecture + ?Sized>(sk: &Skeleton, arch: &A) -> Self {
        let (parts, core) = sk.parts_core();
        let shape: Vec<EventShape> = parts
            .base_events
            .iter()
            .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
            .collect();
        let graphs = LocGraphs::new(&shape, &sk.po, arch.tolerates_load_load_hazards());
        let env = arch.ppo_envelope(&core);
        let thin_air = thin_air_base_with(arch, &core, env.as_ref());
        let envelope = env.map(|e| {
            let tight = e.tight(&core);
            (e, tight)
        });
        EngineCtx { parts, core, graphs, thin_air, envelope }
    }

    /// One worker's staged checker for this enumeration.
    fn checker<A: Architecture + ?Sized>(&self, arch: &A) -> ArenaChecker {
        match &self.envelope {
            Some((env, tight)) => ArenaChecker::staged(arch, &self.core, env, *tight),
            None => ArenaChecker::new(arch, &self.core),
        }
    }
}

/// Per-worker mutable state of the engine: the arena-slot addresses, the
/// checker, and the reusable menu/odometer buffers. One `EngineState` (and
/// one [`RelArena`]) per worker thread; many units run through it in turn,
/// so unit granularity costs no allocator traffic.
pub(crate) struct EngineState {
    rels: ExecRels,
    checker: ArenaChecker,
    menus: CoMenus,
    co_pick: Vec<usize>,
    events: Vec<Event>,
    rf_src: Vec<usize>,
}

impl EngineState {
    pub(crate) fn new<A: Architecture + ?Sized>(
        ctx: &EngineCtx,
        arch: &A,
        arena: &mut RelArena,
    ) -> Self {
        let n = ctx.parts.base_events.len();
        arena.reset(n);
        EngineState {
            rels: ExecRels::alloc(arena),
            checker: ctx.checker(arch),
            menus: CoMenus::new(&ctx.parts.loc_writes),
            co_pick: vec![0usize; ctx.parts.locs.len()],
            events: ctx.parts.base_events.clone(),
            rf_src: vec![0usize; n],
        }
    }
}

/// Runs the arena-backed checked stream over one work unit: the linear
/// rf-configuration range `[rf_start, rf_end)`, optionally restricted to
/// the coherence-menu odometer sub-range `co_range` of a *single* rf
/// configuration (then `rf_end == rf_start + 1`).
///
/// Accounting contract: a co-sub-range unit emits exactly its share of the
/// menu combinations, and only the unit whose sub-range starts at menu
/// index 0 claims the configuration's generation-time prunes (uniproc menu
/// filtering and thin-air/rf dooms), so per-unit `emitted + pruned` summed
/// over any partition produced by [`crate::sched::WorkPlan`] equals
/// [`Skeleton::candidate_count`].
///
/// Budget contract: when `budget` trips — deadline, candidate bound, or
/// cancellation — the run stops at the next check point (an rf-scope
/// boundary, or every candidate inside the coherence loop) and the
/// returned stats carry the exact `remaining` count of the unit's
/// unclassified candidates plus the [`ResumePoint`] of the cut, so
/// `emitted + pruned + remaining` still equals the unit's share of the
/// space. `remaining` comes from the driver position in O(odometer
/// digits), never from counting.
#[allow(clippy::too_many_arguments)] // engine-internal; one call site family
pub(crate) fn run_arena_range<A: Architecture + ?Sized>(
    ctx: &EngineCtx,
    arch: &A,
    arena: &mut RelArena,
    st: &mut EngineState,
    rf_start: u128,
    rf_end: u128,
    co_range: Option<(u128, u128)>,
    budget: &Budget,
    sink: &mut dyn FnMut(&ExecFrame<'_>, &RelArena, Verdict),
) -> CheckedStats {
    let parts = &ctx.parts;
    let mut driver = RfDriver::new_range(parts, ctx.thin_air.as_ref(), rf_start, rf_end);
    let accounts_prunes = co_range.is_none_or(|(s, _)| s == 0);
    let mut stats = CheckedStats::default();

    'scopes: while !driver.done {
        if !driver.sync_thinair(parts) {
            break; // range exhausted
        }
        // Unit-boundary budget check for plain rf ranges: everything from
        // the current configuration on is untouched, so `remaining` is a
        // whole-subtree product and the resume point is a clean scope.
        if co_range.is_none() {
            if let Some(reason) = budget.check(stats.emitted) {
                stats.stopped = Some(reason);
                stats.remaining = (driver.end - driver.pos).saturating_mul(driver.co_total);
                stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: 0 });
                break 'scopes;
            }
        }
        // One rf scope: fill rf, concretise read values, filter the
        // coherence menus, derive the rf-invariant relations once.
        arena.clear(st.rels.rf);
        for (k, &r) in parts.reads.iter().enumerate() {
            let w = parts.rf_choices[k][driver.rf_pick[k]];
            arena.add(st.rels.rf, w, r);
            st.rf_src[r] = w;
            st.events[r].val = st.events[w].val;
        }
        faultpoint::hit(FaultPoint::CoMenuBuild, faultpoint::config_key(driver.pos));
        ctx.graphs.co_menus_into(&parts.locs, &st.rf_src, &mut st.menus);
        let rf_ok = ctx.graphs.rf_only_consistent_pooled(&parts.locs, &st.rf_src, &mut st.menus);
        let kept = st.menus.kept();
        if !rf_ok || kept == 0 {
            driver.prune_rf_subtree();
            driver.advance_one();
            continue;
        }
        // The coherence scope: one menu combination per candidate, over
        // the whole menu odometer or the unit's sub-range of it.
        let (co_s, co_e) = match co_range {
            None => (0, kept),
            Some((s, e)) => (s.min(kept), e.min(kept)),
        };
        // Unit-boundary budget check for co-sub-range units, *before* the
        // menu prunes are claimed: an interrupted unit classifies its
        // whole share — emitted slice and (if it owns them) menu prunes —
        // as remaining, so a resumed run can re-account them exactly.
        if co_range.is_some() {
            if let Some(reason) = budget.check(stats.emitted) {
                stats.stopped = Some(reason);
                stats.remaining = (co_e - co_s).saturating_add(if accounts_prunes {
                    driver.co_total - kept
                } else {
                    0
                });
                stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: co_s });
                break 'scopes;
            }
        }
        driver.add_pruned(driver.co_total - kept);
        faultpoint::hit(FaultPoint::ArenaCheckpoint, faultpoint::config_key(driver.pos));
        st.rels.derive_rf(&ctx.core, arena);
        // The checker's rf scope lives above this mark until the last
        // coherence choice of the configuration has been checked.
        let rf_mark = arena.mark();

        if co_s < co_e {
            let fx = ExecFrame { core: &ctx.core, events: &st.events, rels: &st.rels };
            let scope = st.checker.rf_scope(&fx, arena);
            // Seek the menu odometer to `co_s` (mixed radix, digit 0
            // least significant — the same layout `CoMenus::bump` walks).
            let mut rem = co_s;
            for (li, d) in st.co_pick.iter_mut().enumerate() {
                let r = st.menus.radix(li) as u128;
                *d = (rem % r) as usize;
                rem /= r;
            }
            let mut visited = co_s;
            loop {
                arena.clear(st.rels.co);
                for (li, &init) in parts.loc_init.iter().enumerate() {
                    build_co_arena(arena, st.rels.co, init, st.menus.order(li, st.co_pick[li]));
                }
                st.rels.derive_co(&ctx.core, arena);
                let fx = ExecFrame { core: &ctx.core, events: &st.events, rels: &st.rels };
                faultpoint::hit(
                    FaultPoint::CandidateCheck,
                    faultpoint::candidate_key(driver.pos, visited),
                );
                let verdict = st.checker.check_co(arch, &fx, scope, arena);
                stats.emitted += 1;
                if verdict.allowed() {
                    stats.allowed += 1;
                }
                sink(&fx, arena, verdict);
                visited += 1;
                if visited >= co_e || !st.menus.bump(&mut st.co_pick) {
                    break;
                }
                // Mid-odometer budget check: the cheap compare-and-load
                // every candidate, the clock only every 1024 emits (the
                // `~2^k` cadence that keeps overhead under the perf gate).
                let hit = if stats.emitted & 1023 == 0 {
                    budget.check(stats.emitted)
                } else {
                    budget.check_fast(stats.emitted)
                };
                if let Some(reason) = hit {
                    stats.stopped = Some(reason);
                    stats.remaining = (co_e - visited).saturating_add(
                        (driver.end - driver.pos - 1).saturating_mul(driver.co_total),
                    );
                    stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: visited });
                    arena.release(rf_mark);
                    break 'scopes;
                }
            }
        }
        arena.release(rf_mark);
        driver.advance_one();
    }
    if accounts_prunes {
        stats.pruned = driver.pruned;
    }
    stats
}

/// Arena twin of [`build_co`]: adds one location's coherence edges to an
/// arena slot.
pub fn build_co_arena(
    arena: &mut RelArena,
    co: crate::arena::RelId,
    init: Option<usize>,
    order: &[usize],
) {
    if let Some(init) = init {
        for &w in order {
            arena.add(co, init, w);
        }
    }
    for i in 0..order.len() {
        for j in i + 1..order.len() {
            arena.add(co, order[i], order[j]);
        }
    }
}

/// Adds the (transitively closed) coherence edges of one location's order:
/// the initial write before every ordered write, and each ordered write
/// before all its successors. Shared by every enumeration front end.
pub fn build_co(co: &mut Relation, init: Option<usize>, order: &[usize]) {
    if let Some(init) = init {
        for &w in order {
            co.add(init, w);
        }
    }
    for i in 0..order.len() {
        for j in i + 1..order.len() {
            co.add(order[i], order[j]);
        }
    }
}

/// The rf-odometer state machine of the engine
/// ([`Skeleton::check_stream_arena`] and every [`crate::sched::WorkUnit`]
/// it runs): linear-index range ownership (seek/resume in O(digits)),
/// mixed-radix digit decoding, thin-air subtree skipping and the pruned
/// accounting.
pub(crate) struct RfDriver {
    thinair: Option<ThinAirTracker>,
    pub(crate) rf_pick: Vec<usize>,
    /// Odometer radices for `rf_pick` (fixed for the whole iteration).
    rf_radices: Vec<usize>,
    /// `rf_weights[d]` = Π `rf_radices[..d]`: the number of rf
    /// configurations in one digit-`d` subtree (saturating).
    rf_weights: Vec<u128>,
    /// Linear rf-configuration index of the current pick; this driver
    /// covers `[pos, end)` of the rf odometer.
    pos: u128,
    end: u128,
    /// Total coherence combinations of one rf configuration (saturating).
    pub(crate) co_total: u128,
    pub(crate) done: bool,
    pub(crate) pruned: u128,
}

impl RfDriver {
    /// Total number of rf configurations of a skeleton (saturating) — the
    /// linear index space [`RfDriver::new_range`] addresses.
    pub(crate) fn rf_total(parts: &SkeletonParts) -> u128 {
        parts.rf_choices.iter().map(|c| c.len() as u128).fold(1u128, u128::saturating_mul)
    }

    /// A driver seeked to cover exactly the linear rf-configuration range
    /// `[start, end)`: the odometer digits are decoded from `start` in
    /// O(digits), so a [`crate::sched::WorkUnit`] can resume mid-odometer
    /// without replaying the prefix.
    pub(crate) fn new_range(
        parts: &SkeletonParts,
        thin_air: Option<&Relation>,
        start: u128,
        end: u128,
    ) -> Self {
        let thinair = thin_air.map(ThinAirTracker::new);
        let rf_radices: Vec<usize> = parts.rf_choices.iter().map(Vec::len).collect();
        let mut rf_weights = Vec::with_capacity(rf_radices.len());
        let mut rf_total: u128 = 1;
        for &r in &rf_radices {
            rf_weights.push(rf_total);
            rf_total = rf_total.saturating_mul(r as u128);
        }
        let co_total = parts
            .loc_writes
            .iter()
            .map(|ws| factorial_saturating(ws.len()))
            .fold(1u128, u128::saturating_mul);

        let pos = start.min(rf_total);
        let end = end.min(rf_total);

        let mut d = RfDriver {
            thinair,
            rf_pick: vec![0usize; rf_radices.len()],
            rf_radices,
            rf_weights,
            pos,
            end,
            co_total,
            done: pos >= end,
            pruned: 0,
        };
        if !d.done {
            d.decode_pos();
            // A cyclic static base forbids every candidate of the range.
            if d.thinair.as_ref().is_some_and(ThinAirTracker::is_base_cyclic) {
                d.pruned = (d.end - d.pos).saturating_mul(d.co_total);
                d.pos = d.end;
                d.done = true;
            }
        }
        d
    }

    /// Rewrites `rf_pick` to the digits of the linear index `pos`.
    fn decode_pos(&mut self) {
        for (d, pick) in self.rf_pick.iter_mut().enumerate() {
            *pick = ((self.pos / self.rf_weights[d]) % self.rf_radices[d] as u128) as usize;
        }
    }

    /// Moves to the next rf configuration (sets `done` past the range).
    fn advance_one(&mut self) {
        self.pos += 1;
        if self.pos >= self.end {
            self.done = true;
            return;
        }
        let more = bump(&mut self.rf_pick, &self.rf_radices);
        debug_assert!(more, "pos < end implies the odometer has not wrapped");
    }

    /// Accounts a whole rf configuration's coherence subtree as pruned.
    fn prune_rf_subtree(&mut self) {
        self.pruned = self.pruned.saturating_add(self.co_total);
    }

    /// Accounts `k` candidates as pruned (menu filtering).
    fn add_pruned(&mut self, k: u128) {
        self.pruned = self.pruned.saturating_add(k);
    }

    /// The external read-from edge read-digit `d` contributes to `hb`
    /// under the current pick, if any (`rfi ⊄ hb`; initial writes are
    /// external but can never sit on a cycle, so including them is fine).
    fn rfe_edge(&self, parts: &SkeletonParts, d: usize) -> Option<(usize, usize)> {
        let r = parts.reads[d];
        let w = parts.rf_choices[d][self.rf_pick[d]];
        let ev = &parts.base_events;
        match (ev[w].thread, ev[r].thread) {
            (Some(a), Some(b)) if a == b => None,
            _ => Some((w, r)),
        }
    }

    /// Aligns the thin-air tracker with the current rf configuration,
    /// skipping doomed subtrees: reads are layered from the most
    /// significant odometer digit down, so when the edge of digit `d`
    /// closes a cycle, every configuration sharing digits `d..` — a whole
    /// subtree of `rf_weights[d]` configurations × `co_total` coherence
    /// orders — is pruned in O(1) and the odometer jumps past it.
    ///
    /// Returns `true` when `pos` names a thin-air-clean configuration;
    /// `false` when the range is exhausted (`done` is set).
    fn sync_thinair(&mut self, parts: &SkeletonParts) -> bool {
        if self.thinair.is_none() {
            return true;
        }
        let nreads = parts.reads.len();
        'retarget: loop {
            // Levels are stacked top digit first: level `l` holds the pick
            // of digit `nreads - 1 - l`. Keep the prefix that still
            // matches, then extend downwards.
            let tracker = self.thinair.as_ref().expect("checked above");
            let mut keep = 0;
            while keep < tracker.depth()
                && tracker.level_tag(keep) == self.rf_pick[nreads - 1 - keep]
            {
                keep += 1;
            }
            self.thinair.as_mut().expect("checked above").truncate(keep);
            for level in keep..nreads {
                let d = nreads - 1 - level;
                let edge = self.rfe_edge(parts, d);
                let pick = self.rf_pick[d];
                if self.thinair.as_mut().expect("checked above").try_push(pick, edge) {
                    continue;
                }
                // Cycle: skip to the next digit-d subtree boundary.
                let width = self.rf_weights[d];
                let next = ((self.pos / width) + 1).saturating_mul(width).min(self.end);
                self.pruned =
                    self.pruned.saturating_add((next - self.pos).saturating_mul(self.co_total));
                self.pos = next;
                if self.pos >= self.end {
                    self.done = true;
                    return false;
                }
                self.decode_pos();
                continue 'retarget;
            }
            return true;
        }
    }
}

/// In-place permutation generator (Heap's algorithm, iterative form).
///
/// Visits all `n!` orders of the initial slice without allocating per
/// permutation; [`advance`](HeapPerm::advance) restores the initial order
/// and returns `false` after the last one, so the generator cycles and can
/// serve as one digit of a mixed-radix odometer.
pub struct HeapPerm {
    arr: Vec<usize>,
    initial: Vec<usize>,
    c: Vec<usize>,
    i: usize,
}

impl HeapPerm {
    /// A generator starting at `items`' given order.
    pub fn new(items: Vec<usize>) -> Self {
        let c = vec![0; items.len()];
        HeapPerm { initial: items.clone(), arr: items, c, i: 0 }
    }

    /// The current permutation.
    pub fn current(&self) -> &[usize] {
        &self.arr
    }

    /// Steps to the next permutation in place; returns `false` (and resets
    /// to the initial order) once all `n!` have been visited.
    pub fn advance(&mut self) -> bool {
        while self.i < self.arr.len() {
            if self.c[self.i] < self.i {
                if self.i.is_multiple_of(2) {
                    self.arr.swap(0, self.i);
                } else {
                    self.arr.swap(self.c[self.i], self.i);
                }
                self.c[self.i] += 1;
                self.i = 0;
                return true;
            }
            self.c[self.i] = 0;
            self.i += 1;
        }
        self.arr.copy_from_slice(&self.initial);
        self.c.iter_mut().for_each(|x| *x = 0);
        self.i = 0;
        false
    }
}

/// `k!` in `u128`, `None` on overflow (first at `k = 35`). The previous
/// `usize` version overflowed silently at `k ≥ 21`.
fn factorial_checked(k: usize) -> Option<u128> {
    let mut acc = 1u128;
    for i in 2..=k as u128 {
        acc = acc.checked_mul(i)?;
    }
    Some(acc)
}

/// `k!` in `u128`, saturating at `u128::MAX`.
fn factorial_saturating(k: usize) -> u128 {
    factorial_checked(k).unwrap_or(u128::MAX)
}

/// Advances a mixed-radix odometer; returns false on wrap-around to zero.
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

/// Convenience builder for skeletons mirroring [`crate::fixtures::ExecBuilder`]
/// but without data-flow choices.
#[derive(Clone, Debug, Default)]
pub struct SkeletonBuilder {
    events: Vec<SkeletonEvent>,
    locs: BTreeMap<String, Loc>,
    po_counters: BTreeMap<u16, usize>,
    addr: Vec<(usize, usize)>,
    data: Vec<(usize, usize)>,
    ctrl: Vec<(usize, usize)>,
    ctrl_cfence: Vec<(usize, usize)>,
    fences: Vec<(Fence, usize, usize)>,
}

impl SkeletonBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn loc(&mut self, name: &str) -> Loc {
        if let Some(&l) = self.locs.get(name) {
            return l;
        }
        let l = Loc(self.locs.len() as u32);
        self.locs.insert(name.to_owned(), l);
        self.events.push(SkeletonEvent {
            thread: None,
            po_index: 0,
            dir: Dir::W,
            loc: l,
            val: Val(0),
        });
        l
    }

    fn push(&mut self, tid: u16, dir: Dir, loc: &str, val: i64) -> usize {
        let l = self.loc(loc);
        let idx = {
            let c = self.po_counters.entry(tid).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        self.events.push(SkeletonEvent {
            thread: Some(ThreadId(tid)),
            po_index: idx,
            dir,
            loc: l,
            val: Val(val),
        });
        self.events.len() - 1
    }

    /// Appends a write of `val` to `loc` on thread `tid`.
    pub fn write(&mut self, tid: u16, loc: &str, val: i64) -> usize {
        self.push(tid, Dir::W, loc, val)
    }

    /// Appends a read from `loc` on thread `tid` (value chosen by
    /// enumeration).
    pub fn read(&mut self, tid: u16, loc: &str) -> usize {
        self.push(tid, Dir::R, loc, 0)
    }

    /// Records an address dependency.
    pub fn addr(&mut self, a: usize, b: usize) -> &mut Self {
        self.addr.push((a, b));
        self
    }

    /// Records a data dependency.
    pub fn data(&mut self, a: usize, b: usize) -> &mut Self {
        self.data.push((a, b));
        self
    }

    /// Records a control dependency.
    pub fn ctrl(&mut self, a: usize, b: usize) -> &mut Self {
        self.ctrl.push((a, b));
        self
    }

    /// Records a `ctrl+cfence` dependency (also a `ctrl` one).
    pub fn ctrl_cfence(&mut self, a: usize, b: usize) -> &mut Self {
        self.ctrl.push((a, b));
        self.ctrl_cfence.push((a, b));
        self
    }

    /// Records a fence between `a` and `b`.
    pub fn fence(&mut self, f: Fence, a: usize, b: usize) -> &mut Self {
        self.fences.push((f, a, b));
        self
    }

    /// Finalises the skeleton; `po` is derived from per-thread insertion
    /// order, and fence relations are saturated so that a fence between
    /// consecutive accesses also separates the enclosing pairs.
    pub fn build(&self) -> Skeleton {
        let n = self.events.len();
        // po from per-thread event lists: events were pushed in program
        // order, so each thread's list is already sorted by po_index.
        let mut by_thread: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
        for (id, e) in self.events.iter().enumerate() {
            if let Some(t) = e.thread {
                by_thread.entry(t).or_default().push(id);
            }
        }
        let mut po = Relation::empty(n);
        for ids in by_thread.values() {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    po.add(a, b);
                }
            }
        }
        let deps = Deps {
            addr: Relation::from_pairs(n, self.addr.iter().copied()),
            data: Relation::from_pairs(n, self.data.iter().copied()),
            ctrl: Relation::from_pairs(n, self.ctrl.iter().copied()),
            ctrl_cfence: Relation::from_pairs(n, self.ctrl_cfence.iter().copied()),
        };
        let mut fences: BTreeMap<Fence, Relation> = BTreeMap::new();
        for &(f, a, b) in &self.fences {
            let rel = fences.entry(f).or_insert_with(|| Relation::empty(n));
            // Saturate: every access po-before-or-equal `a` is separated by
            // the fence from every access po-after-or-equal `b`.
            let mut before = vec![a];
            before.extend((0..n).filter(|&e| po.contains(e, a)));
            let mut after = vec![b];
            after.extend((0..n).filter(|&e| po.contains(b, e)));
            for &x in &before {
                for &y in &after {
                    rel.add(x, y);
                }
            }
        }
        Skeleton { events: self.events.clone(), po, deps, fences }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Power, Sc};
    use crate::model::{check, sc_per_location};

    fn mp_skeleton(with_fence: bool, with_addr: bool) -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let a = b.write(0, "x", 1);
        let w = b.write(0, "y", 1);
        let c = b.read(1, "y");
        let d = b.read(1, "x");
        if with_fence {
            b.fence(Fence::Lwsync, a, w);
        }
        if with_addr {
            b.addr(c, d);
        }
        b.build()
    }

    #[test]
    fn mp_has_four_candidates() {
        // Each read has 2 possible sources; 1 non-init write per location.
        let sk = mp_skeleton(false, false);
        assert_eq!(sk.candidate_count(), Some(4));
        assert_eq!(sk.candidates().len(), 4);
    }

    #[test]
    fn candidate_count_is_overflow_safe() {
        // 40 same-location writes per location: 40!² overflows u128 (and
        // the old usize arithmetic long before). No wraparound, no panic.
        let mut b = SkeletonBuilder::new();
        for i in 0..40 {
            b.write(0, "x", i);
            b.write(1, "y", i);
        }
        let sk = b.build();
        assert_eq!(sk.candidate_count(), None, "40!^2 exceeds u128");
        assert_eq!(sk.candidate_count_saturating(), u128::MAX);
        // A merely-large skeleton still counts exactly: 21 writes at one
        // location is 21! — past the old usize-factorial overflow.
        let mut b = SkeletonBuilder::new();
        for i in 0..21 {
            b.write(0, "x", i);
        }
        let sk = b.build();
        assert_eq!(sk.candidate_count(), Some(51_090_942_171_709_440_000));
    }

    #[test]
    fn sc_rules_out_exactly_the_mp_violation() {
        let sk = mp_skeleton(false, false);
        let allowed: Vec<bool> = sk.candidates().iter().map(|x| check(&Sc, x).allowed()).collect();
        assert_eq!(allowed.iter().filter(|&&a| a).count(), 3, "Fig 3: one of four is non-SC");
    }

    #[test]
    fn power_needs_fence_and_dep_to_match_sc_on_mp() {
        let plain = mp_skeleton(false, false);
        let fenced = mp_skeleton(true, true);
        let count_allowed = |sk: &Skeleton| {
            sk.candidates().iter().filter(|x| check(&Power::new(), x).allowed()).count()
        };
        assert_eq!(count_allowed(&plain), 4);
        assert_eq!(count_allowed(&fenced), 3);
    }

    #[test]
    fn co_enumeration_orders_same_location_writes() {
        let mut b = SkeletonBuilder::new();
        b.write(0, "x", 1);
        b.write(1, "x", 2);
        let sk = b.build();
        // 2 writes, no reads: 2 candidate coherence orders.
        assert_eq!(sk.candidates().len(), 2);
    }

    /// Power's axioms with no static NO THIN AIR base (the default hook):
    /// the engine runs it with uniproc pruning only.
    struct NoHook(Power);

    impl Architecture for NoHook {
        fn name(&self) -> &str {
            "no-hook"
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

    /// The data-flow witness of an oracle candidate.
    fn key(x: &Execution) -> String {
        format!("{:?}|{:?}", x.rf(), x.co())
    }

    /// Sorted witnesses of the oracle candidates satisfying `keep`.
    fn oracle_keys(sk: &Skeleton, keep: impl Fn(&Execution) -> bool) -> Vec<String> {
        let mut keys: Vec<String> = sk.candidates().iter().filter(|x| keep(x)).map(key).collect();
        keys.sort();
        keys
    }

    /// Runs the engine, checking every frame's verdict against the owned
    /// `check` of the same candidate; returns the sorted witnesses of the
    /// emitted and of the allowed candidates, plus the stats.
    fn engine<A: Architecture + ?Sized>(
        sk: &Skeleton,
        arch: &A,
    ) -> (Vec<String>, Vec<String>, CheckedStats) {
        let mut arena = RelArena::new(0);
        let (mut emitted, mut allowed) = (Vec::new(), Vec::new());
        let stats =
            sk.check_stream_arena(arch, &mut arena, &Budget::unlimited(), &mut |fx, a, v| {
                let x = fx.to_execution(a);
                assert_eq!(v, check(arch, &x), "frame verdict disagrees with the owned check");
                if v.allowed() {
                    allowed.push(key(&x));
                }
                emitted.push(key(&x));
            });
        emitted.sort();
        allowed.sort();
        (emitted, allowed, stats)
    }

    #[test]
    fn pruning_keeps_exactly_the_uniproc_candidates() {
        // coWW-style skeleton: same-thread same-location writes make half
        // the coherence orders uniproc-inconsistent.
        let mut b = SkeletonBuilder::new();
        b.write(0, "x", 1);
        b.write(0, "x", 2);
        b.write(1, "x", 3);
        b.read(1, "x");
        let sk = b.build();
        let (kept, _, stats) = engine(&sk, &NoHook(Power::new()));
        assert_eq!(kept, oracle_keys(&sk, sc_per_location), "exactly the uniproc candidates");
        assert_eq!(
            stats.emitted + stats.pruned,
            sk.candidate_count().unwrap(),
            "pruned + emitted == candidate_count"
        );
        assert!(stats.pruned > 0, "this skeleton must actually prune");
    }

    /// A genuine lb+datas ring: each thread reads one location and writes
    /// the next with a data dependency, so the all-non-init rf choice
    /// forms an `hb` cycle (paper Fig 7) prunable before any co work.
    fn lb_ring(threads: usize) -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let names: Vec<String> = (0..threads).map(|i| format!("x{i}")).collect();
        let mut reads = Vec::new();
        for (t, name) in names.iter().enumerate() {
            reads.push(b.read(t as u16, name));
        }
        for t in 0..threads {
            let w = b.write(t as u16, &names[(t + 1) % threads], 1);
            b.data(reads[t], w);
        }
        b.build()
    }

    #[test]
    fn thin_air_pruning_skips_the_self_justifying_subtree() {
        let sk = lb_ring(2);
        let power = Power::new();
        let mut arena = RelArena::new(0);
        let stats =
            sk.check_stream_arena(&power, &mut arena, &Budget::unlimited(), &mut |_, _, v| {
                assert!(v.no_thin_air, "nothing thin-air-forbidden survives");
            });
        assert_eq!(
            stats.emitted + stats.pruned,
            sk.candidate_count().unwrap(),
            "thin-air accounting is exact"
        );
        assert!(stats.pruned > 0, "the cyclic rf choice must be pruned at generation");
        let (_, allowed, _) = engine(&sk, &power);
        assert_eq!(
            allowed,
            oracle_keys(&sk, |x| check(&power, x).allowed()),
            "pruning is invisible to the model"
        );
    }

    #[test]
    fn architectures_without_a_base_never_thin_air_prune() {
        let sk = lb_ring(2);
        let (hookless, _, _) = engine(&sk, &NoHook(Power::new()));
        let uniproc = oracle_keys(&sk, sc_per_location);
        assert_eq!(hookless, uniproc, "no base ⇒ uniproc-only pruning");
        let (hooked, _, _) = engine(&sk, &Power::new());
        assert!(hooked.len() < uniproc.len(), "the hook does prune");
    }

    /// One-unit-per-worker plans — contiguous rf-range chunks, the static
    /// split — must cover the engine's stream exactly, with merged
    /// counters equal to the whole run's.
    #[test]
    fn one_unit_per_worker_plans_partition_the_stream_exactly() {
        use crate::sched::{PlanOpts, WorkPlan};
        use std::sync::Mutex;
        let power = Power::new();
        for sk in [mp_skeleton(true, true), lb_ring(3)] {
            let (whole, _, whole_stats) = engine(&sk, &power);
            for workers in [1usize, 2, 3, 7] {
                let opts = PlanOpts { workers, units_per_worker: 1, co_split: false };
                let plan = WorkPlan::for_skeleton(&sk, &power, &opts);
                assert_eq!(plan.co_units(), 0, "rf-range units only");
                assert!(plan.len() <= workers);
                let merged = Mutex::new(Vec::new());
                let unlimited = Budget::unlimited();
                let stats = sk
                    .check_stream_sched(&power, &plan, 2, &unlimited, |_| {
                        |fx: &ExecFrame<'_>, a: &RelArena, _| {
                            let k = format!(
                                "{:?}|{:?}",
                                a.to_relation(fx.rels.rf),
                                a.to_relation(fx.rels.co)
                            );
                            merged.lock().unwrap().push(k);
                        }
                    })
                    .stats;
                let mut merged = merged.into_inner().unwrap();
                merged.sort();
                assert_eq!(merged, whole, "{workers} units cover exactly the stream");
                assert_eq!(stats, whole_stats, "{workers} units merge exactly");
            }
        }
    }

    /// The engine against the oracle: every emitted candidate is an oracle
    /// candidate with the owned verdict, the allowed multisets coincide,
    /// and the accounting covers the oracle exactly.
    #[test]
    fn arena_engine_matches_the_oracle() {
        let power = Power::new();
        for sk in [mp_skeleton(true, true), lb_ring(2), lb_ring(3)] {
            let (emitted, allowed, stats) = engine(&sk, &power);
            let all = oracle_keys(&sk, |_| true);
            assert!(emitted.iter().all(|k| all.binary_search(k).is_ok()), "emitted ⊆ oracle");
            assert_eq!(allowed, oracle_keys(&sk, |x| check(&power, x).allowed()));
            assert_eq!(stats.allowed, allowed.len() as u128);
            assert_eq!(stats.emitted + stats.pruned, all.len() as u128, "exact accounting");
        }
    }

    /// After warm-up, the arena pool must stop growing: the whole point
    /// of the engine is a flat steady-state footprint.
    #[test]
    fn arena_high_water_stabilises_after_first_candidates() {
        let power = Power::new();
        let sk = mp_skeleton(true, true);
        let mut arena = RelArena::new(0);
        let mut waters: Vec<usize> = Vec::new();
        sk.check_stream_arena(&power, &mut arena, &Budget::unlimited(), &mut |_, a, _| {
            waters.push(a.high_water_words());
        });
        assert!(waters.len() > 2);
        let settled = waters[0];
        assert!(
            waters.iter().skip(1).all(|&w| w == settled),
            "pool grew after the first candidate: {waters:?}"
        );
    }

    #[test]
    fn heap_perm_visits_all_orders_and_cycles() {
        let mut h = HeapPerm::new(vec![1, 2, 3]);
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(h.current().to_vec());
        while h.advance() {
            assert!(seen.insert(h.current().to_vec()), "no repeats");
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(h.current(), &[1, 2, 3], "wrap restores the initial order");
        assert!(h.advance(), "generator cycles");
    }

    #[test]
    fn fence_saturation_covers_transitive_pairs() {
        let mut b = SkeletonBuilder::new();
        let a = b.write(0, "x", 1);
        let w = b.write(0, "y", 1);
        let c = b.write(0, "z", 1);
        b.fence(Fence::Sync, a, w);
        let sk = b.build();
        let sync = &sk.fences[&Fence::Sync];
        assert!(sync.contains(a, w));
        assert!(sync.contains(a, c), "fence also separates a from z-write");
        assert!(!sync.contains(w, c), "no fence between y and z writes");
    }
}
