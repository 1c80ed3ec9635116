//! From a litmus test to its candidate executions (paper, Sec 3).
//!
//! The pipeline: run every thread symbolically ([`crate::sem`]), take the
//! cartesian product of control-flow paths, then enumerate the data flow —
//! a read-from source per read and a coherence order per location. Each
//! read-from choice contributes the equation *read symbol = source write's
//! value expression*; [`crate::expr::Solver`] resolves the system
//! (including the circular, thin-air-style systems of `lb+data`-like tests,
//! whose free symbols are enumerated over the test's value domain) and each
//! consistent assignment concretises into event values and a final
//! register file. One `Concretiser` per control-flow combination does this
//! for every consumer — the verdict streams, the oracle, the candidate
//! counter and the decision backend — with its buffers reused across rf
//! configurations, so a configuration allocates nothing once they are warm.
//!
//! One enumerator serves two masters. [`enumerate`] is the reference
//! oracle: every candidate, unpruned, as an owned [`Candidate`] for
//! [`herd_core::model::check`]. The verdict streams
//! ([`stream_arch_verdicts`], [`stream_range_verdicts`],
//! [`stream_multi_verdicts`]) are the engine: they judge each candidate in
//! arena slots without materialising it, and skip whole rf×co subtrees at
//! generation time whenever a location's communication graph is already
//! cyclic or the rf choice closes a thin-air cycle — herd's
//! generate-and-prune strategy (paper, Sec 8.3). Every candidate of one
//! control-flow combination shares a single `Arc`'d [`ExecCore`].

use crate::expr::{Assignment, Equation, RVal, Solver, SymExpr, SymId};
use crate::isa::Reg;
use crate::program::{InitVal, LitmusTest};
use crate::sem::{self, PathConstraint, SemError, ThreadPath};
use herd_core::arena::RelArena;
use herd_core::enumerate::{build_co, build_co_arena, HeapPerm};
use herd_core::event::{Dir, Event, Fence, Loc, ThreadId, Val};
use herd_core::exec::{Deps, ExecCore, ExecFrame, ExecRels, Execution};
use herd_core::model::{thin_air_base_with, Architecture, ArenaChecker, RfScope, Verdict};
use herd_core::relation::Relation;
use herd_core::thinair::ThinAirTracker;
use herd_core::uniproc::{CoMenus, EventShape, LocGraphs};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The final value of a register, for condition checking.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegFinal {
    /// An integer.
    Int(i64),
    /// The address of a location.
    Addr(String),
}

/// Final register values, per `(thread, register)`.
pub type FinalRegs = BTreeMap<(u16, Reg), RegFinal>;

/// One candidate execution plus the thread-local state needed to evaluate
/// final conditions.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The execution, ready for the axioms.
    pub exec: Execution,
    /// Final register values, per `(thread, register)`. They depend only
    /// on the value assignment, so every coherence order of one
    /// concretisation shares one map.
    pub final_regs: Arc<FinalRegs>,
    /// Final memory values, by location name (the `co`-maximal writes).
    pub final_mem: BTreeMap<String, i64>,
    /// Location names in `Loc` order (for rendering), shared by every
    /// candidate of one [`enumerate`] call.
    pub loc_names: Arc<[String]>,
}

impl Candidate {
    /// Renders the execution as a Graphviz digraph in the style of the
    /// paper's diagrams (herd's `-show` output).
    pub fn to_dot(&self) -> String {
        herd_core::dot::to_dot(&self.exec, &|l: Loc| {
            self.loc_names.get(l.0 as usize).cloned().unwrap_or_else(|| format!("l{}", l.0))
        })
    }
}

/// Errors turning a test into candidates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateError {
    /// Thread semantics failed.
    Sem(SemError),
    /// The enumeration exceeded `max_candidates`. Carries the exact
    /// progress at the point of interruption, so drivers can degrade to a
    /// partial outcome with exact accounting instead of discarding
    /// everything already learned.
    TooManyCandidates {
        /// The configured bound.
        bound: usize,
        /// Candidates emitted (and judged by the sink) before the stop —
        /// the bound plus one, the candidate that tripped it.
        emitted: u128,
        /// Candidates pruned at generation time before the stop.
        pruned: u128,
    },
}

impl fmt::Display for CandidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CandidateError::Sem(e) => write!(f, "instruction semantics: {e}"),
            CandidateError::TooManyCandidates { bound, emitted, pruned } => {
                write!(
                    f,
                    "more than {bound} candidate executions \
                     ({emitted} emitted, {pruned} pruned at interruption)"
                )
            }
        }
    }
}

impl std::error::Error for CandidateError {}

impl From<SemError> for CandidateError {
    fn from(e: SemError) -> Self {
        CandidateError::Sem(e)
    }
}

/// Enumeration knobs.
#[derive(Clone, Copy, Debug)]
pub struct EnumOptions {
    /// Per-thread step budget (loops unrolled up to this many steps).
    pub fuel: usize,
    /// Upper bound on produced candidates.
    pub max_candidates: usize,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions { fuel: 4096, max_candidates: 1 << 20 }
    }
}

/// The location table of a test: name ↔ [`Loc`] in sorted-name order.
#[derive(Clone, Debug, Default)]
pub struct LocTable {
    names: Arc<[String]>,
}

impl LocTable {
    /// Builds the table for a test.
    pub fn for_test(test: &LitmusTest) -> Self {
        LocTable { names: test.locations().into() }
    }

    /// The [`Loc`] of `name`.
    pub fn lookup(&self, name: &str) -> Option<Loc> {
        self.names.iter().position(|n| n == name).map(|i| Loc(i as u32))
    }

    /// The name of `loc`.
    pub fn name(&self, loc: Loc) -> &str {
        &self.names[loc.0 as usize]
    }

    /// All names in `Loc` order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The name → [`Loc`] map (for the instruction semantics).
    pub fn as_map(&self) -> BTreeMap<String, Loc> {
        self.names.iter().enumerate().map(|(i, n)| (n.clone(), Loc(i as u32))).collect()
    }
}

/// Statistics of one streaming enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Candidates pushed to the sink.
    pub emitted: usize,
    /// Candidates pruned before materialisation (0 for [`enumerate`]). A
    /// `u128`: pruning counts subtrees it never visits, so the tally can
    /// legitimately exceed anything enumerable.
    pub pruned: u128,
    /// Locations whose event count exceeds the per-location member cap
    /// ([`herd_core::uniproc::MAX_LOC_MEMBERS`], the `u16` local-index
    /// width — far past the old 64-bit mask limit) and therefore streamed
    /// *unpruned* by a verdict stream (the maximum over
    /// control-flow combinations). Previously this degradation was
    /// silent, making huge tests look mysteriously slow; drivers log it.
    pub unpruned_locations: usize,
}

impl EnumStats {
    /// All candidates the data-flow odometer covered.
    pub fn total(&self) -> u128 {
        self.emitted as u128 + self.pruned
    }
}

/// One judged candidate of the arena-backed verdict stream: the axiom
/// verdict plus the observables the final condition consumes — no owned
/// [`Execution`] is ever materialised.
#[derive(Debug)]
pub struct VerdictCandidate<'a> {
    /// The four-axiom verdict of the architecture under simulation.
    pub verdict: Verdict,
    /// Final register values, per `(thread, register)`.
    pub final_regs: &'a FinalRegs,
    /// Final memory values by location name (the `co`-maximal writes).
    pub final_mem: &'a BTreeMap<String, i64>,
}

/// One candidate of the multi-model arena verdict stream: the verdicts of
/// *every* model under comparison, computed from one shared set of arena
/// relations in a single pass — what the `herd-hw` campaign (silicon /
/// clean / SC in one sweep) and `herd-machine` comparisons consume instead
/// of three materialising `check` calls per candidate.
#[derive(Debug)]
pub struct MultiVerdictCandidate<'a> {
    /// Per-model verdicts, indexed like the `archs` slice passed to
    /// [`stream_multi_verdicts`].
    pub verdicts: &'a [Verdict],
    /// Final register values, per `(thread, register)`.
    pub final_regs: &'a FinalRegs,
    /// Final memory values by location name (the `co`-maximal writes).
    pub final_mem: &'a BTreeMap<String, i64>,
}

/// What the enumeration inner loop emits — and so how it prunes: owned
/// [`Candidate`]s (the unpruned oracle), arena-checked
/// [`VerdictCandidate`]s (the zero-materialisation simulation path), or
/// [`MultiVerdictCandidate`]s (several models judged per candidate in one
/// pass).
enum Emit<'a, 's> {
    Cands(&'a mut (dyn FnMut(Candidate) + 's)),
    Verdicts {
        arch: &'a dyn Architecture,
        sink: &'a mut (dyn FnMut(&VerdictCandidate<'_>) + 's),
    },
    Multi {
        archs: &'a [&'a dyn Architecture],
        sink: &'a mut (dyn FnMut(&MultiVerdictCandidate<'_>) + 's),
    },
}

/// The whole rf-configuration index space.
const EVERYTHING: Range<u128> = 0..u128::MAX;

/// The arena-backed verdict stream: enumerates with every pruning axis
/// sound for `arch` *and* judges each candidate against the four axioms
/// in place, without materialising an owned [`Execution`] — the driver
/// behind [`crate::simulate::simulate_with`]. The worker state (one
/// [`RelArena`]) lives inside; final register files come from the
/// combination's concretiser pool and final memory is overwritten in
/// place, so once warm the stream allocates nothing per rf configuration
/// or coherence choice.
///
/// Pruning: SC PER LOCATION masks (read-read `po-loc` pairs dropped when
/// [`Architecture::tolerates_load_load_hazards`]) and generation-time NO
/// THIN AIR from the architecture's static base
/// ([`Architecture::thin_air_base`]) — herd's full `-speedcheck` (paper,
/// Sec 8.3).
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the emitted-candidate
/// bound is exceeded.
pub fn stream_arch_verdicts<A: Architecture + ?Sized>(
    test: &LitmusTest,
    opts: &EnumOptions,
    arch: &A,
    sink: &mut dyn FnMut(&VerdictCandidate<'_>),
) -> Result<EnumStats, CandidateError> {
    stream_range_verdicts(test, opts, arch, EVERYTHING.start, EVERYTHING.end, sink)
}

/// [`stream_arch_verdicts`] over one contiguous range `[start, end)` of
/// the global rf-configuration index — the [`herd_core::sched::WorkUnit`]
/// granularity. Per-unit [`EnumStats`] over any exact partition of
/// `[0, count_rf_configs)` sum to the whole-test totals, so the
/// work-stealing `simulate_sharded` keeps the same exact accounting as the
/// sequential driver.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the per-unit
/// emitted-candidate bound is exceeded.
pub fn stream_range_verdicts<A: Architecture + ?Sized>(
    test: &LitmusTest,
    opts: &EnumOptions,
    arch: &A,
    start: u128,
    end: u128,
    sink: &mut dyn FnMut(&VerdictCandidate<'_>),
) -> Result<EnumStats, CandidateError> {
    // `&A` is itself an `Architecture` (the reference blanket impl), and
    // it is `Sized`, so `&&A` coerces to the trait object the mode holds.
    let arch_ref = &arch;
    stream_impl(test, opts, start..end, &mut Emit::Verdicts { arch: arch_ref, sink })
}

/// Judges every candidate against *several* models in one enumeration
/// pass: the witness and derived relations are computed once per
/// candidate and each model's four axioms are evaluated on those shared
/// arena slots — replacing the N materialising `check` calls per
/// candidate the owned consumers (`herd-hw` campaigns, `herd-machine`
/// comparisons) used to pay.
///
/// Pruning is the strongest mode sound for **all** models: load-load
/// hazards are tolerated in the uniproc masks as soon as *any* model
/// tolerates them (the weakened graph prunes less, and everything it does
/// prune violates every model's SC PER LOCATION axiom), and thin-air
/// pruning is off (its static base is per-model). The verdicts of the
/// surviving candidates are exactly [`herd_core::model::check`]'s.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the emitted-candidate
/// bound is exceeded.
pub fn stream_multi_verdicts(
    test: &LitmusTest,
    opts: &EnumOptions,
    archs: &[&dyn Architecture],
    sink: &mut dyn FnMut(&MultiVerdictCandidate<'_>),
) -> Result<EnumStats, CandidateError> {
    stream_impl(test, opts, EVERYTHING, &mut Emit::Multi { archs, sink })
}

/// Runs every thread symbolically and returns the per-thread control-flow
/// paths (shared by the streaming enumerators, the configuration counter
/// and the decision backend).
pub(crate) fn thread_paths(
    test: &LitmusTest,
    opts: &EnumOptions,
    loc_map: &BTreeMap<String, Loc>,
) -> Result<Vec<Vec<ThreadPath>>, CandidateError> {
    let mut paths: Vec<Vec<ThreadPath>> = Vec::new();
    for (tid, code) in test.threads.iter().enumerate() {
        let init: BTreeMap<Reg, RVal> = test
            .reg_init
            .iter()
            .filter(|((t, _), _)| *t == tid as u16)
            .map(|((_, r), v)| {
                let rv = match v {
                    InitVal::Int(i) => RVal::int(*i),
                    InitVal::Loc(l) => RVal::Addr(loc_map[l]),
                };
                (*r, rv)
            })
            .collect();
        paths.push(sem::run_thread(tid as u16, code, &init, loc_map, opts.fuel)?);
    }
    Ok(paths)
}

/// The total number of rf configurations the streaming enumerators walk
/// for `test` — the linear index space [`stream_range_verdicts`] ranges
/// over, summed across control-flow combinations. This is the cheap
/// planning pass of the work-stealing `simulate_sharded`: thread
/// semantics runs, but no equation solving and no candidate work.
///
/// # Errors
///
/// Fails if thread semantics rejects the program.
pub fn count_rf_configs(test: &LitmusTest, opts: &EnumOptions) -> Result<u128, CandidateError> {
    let locs = LocTable::for_test(test);
    let paths = thread_paths(test, opts, &locs.as_map())?;
    let mut total = 0u128;
    for_each_combo(&paths, |combo| total = total.saturating_add(combo_space(combo).0));
    Ok(total)
}

/// The unpruned candidate space of a test whose thread paths are
/// computed: per control-flow combination, rf configurations × coherence
/// orders, summed — what a verdict stream would walk before any pruning.
/// Costs no equation solving, only a count of each combination's
/// accesses.
pub(crate) fn candidate_space(paths: &[Vec<ThreadPath>]) -> u128 {
    let mut total = 0u128;
    for_each_combo(paths, |combo| {
        let (rf, co) = combo_space(combo);
        total = total.saturating_add(rf.saturating_mul(co));
    });
    total
}

/// Calls `f` on every control-flow combination, in odometer order.
fn for_each_combo(paths: &[Vec<ThreadPath>], mut f: impl FnMut(&[&ThreadPath])) {
    let mut pick = vec![0usize; paths.len()];
    let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
    loop {
        let combo: Vec<&ThreadPath> = pick.iter().zip(paths).map(|(&i, ps)| &ps[i]).collect();
        f(&combo);
        if !bump(&mut pick, &radices) {
            break;
        }
    }
}

/// The data-flow space of one control-flow combination, from its access
/// shape alone: `(rf configurations, coherence orders per configuration)`.
/// A read chooses among its location's thread writes plus the initial
/// write; a location with `k` thread writes has `k!` coherence orders
/// (the `ComboParts::co_total` product).
fn combo_space(combo: &[&ThreadPath]) -> (u128, u128) {
    let mut writes_by_loc: BTreeMap<Loc, usize> = BTreeMap::new();
    for a in combo.iter().flat_map(|p| &p.accesses).filter(|a| a.dir == Dir::W) {
        *writes_by_loc.entry(a.loc).or_insert(0) += 1;
    }
    let mut rf = 1u128;
    for a in combo.iter().flat_map(|p| &p.accesses).filter(|a| a.dir == Dir::R) {
        let ws = writes_by_loc.get(&a.loc).copied().unwrap_or(0) + 1;
        rf = rf.saturating_mul(ws as u128);
    }
    let co = writes_by_loc.values().map(|&k| factorial(k)).fold(1u128, u128::saturating_mul);
    (rf, co)
}

/// The exact size of the candidate space of `test` — what
/// `emitted + pruned` of an uninterrupted pruning stream totals — without
/// checking or materialising anything: per rf configuration, the number
/// of consistent value concretisations times the coherence-order count.
/// This is the litmus-level `remaining` oracle: an interrupted run's
/// unclassified work is `count_candidates - emitted - pruned`, exact.
///
/// Costs one equation solve per rf configuration (no coherence loop, no
/// axiom checks) — the cheap planning-pass class, like
/// [`count_rf_configs`].
///
/// # Errors
///
/// Fails if thread semantics rejects the program.
pub fn count_candidates(test: &LitmusTest, opts: &EnumOptions) -> Result<u128, CandidateError> {
    count_candidates_owned(test, opts, EVERYTHING)
}

/// [`count_candidates`] restricted to the contiguous rf-configuration
/// range `[start, end)` — the [`herd_core::sched::WorkUnit`] granularity,
/// with the same global indexing as [`stream_range_verdicts`]. Summed over
/// an exact partition of `[0, count_rf_configs)` this reproduces the
/// whole-test count, so a lost unit's exact share of the space is
/// recoverable without re-running it.
///
/// # Errors
///
/// Fails if thread semantics rejects the program.
pub fn count_candidates_range(
    test: &LitmusTest,
    opts: &EnumOptions,
    start: u128,
    end: u128,
) -> Result<u128, CandidateError> {
    count_candidates_owned(test, opts, start..end)
}

fn count_candidates_owned(
    test: &LitmusTest,
    opts: &EnumOptions,
    owner: Range<u128>,
) -> Result<u128, CandidateError> {
    let locs = LocTable::for_test(test);
    let loc_map = locs.as_map();
    let thread_paths = thread_paths(test, opts, &loc_map)?;
    let domain = value_domain(test);
    let mut total = 0u128;
    // The same global configuration counter every stream walks, so range
    // ownership partitions the space identically here.
    let mut cfg_idx = 0u128;
    let mut pick = vec![0usize; thread_paths.len()];
    'combos: loop {
        let combo: Vec<&ThreadPath> =
            pick.iter().zip(&thread_paths).map(|(&i, ps)| &ps[i]).collect();
        let parts = combo_parts(test, &locs, &combo);
        let mut conc = Concretiser::new(test, &locs, &combo, &parts, &domain);
        let mut rf_pick = vec![0usize; parts.reads.len()];
        let rf_radices: Vec<usize> = parts.rf_choices.iter().map(Vec::len).collect();
        loop {
            if owner.contains(&cfg_idx) {
                let concs = conc.run(|k| parts.rf_choices[k][rf_pick[k]]) as u128;
                total = total.saturating_add(concs.saturating_mul(parts.co_total));
            }
            cfg_idx += 1;
            if cfg_idx >= owner.end {
                break 'combos;
            }
            if !bump(&mut rf_pick, &rf_radices) {
                break;
            }
        }
        if !bump(&mut pick, &thread_paths.iter().map(Vec::len).collect::<Vec<_>>()) {
            break;
        }
    }
    Ok(total)
}

/// [`stream_arch_verdicts`] over thread paths the caller has already
/// computed (with [`thread_paths`] under `locs`): the batch judge of
/// [`crate::decide::judge_log`] runs thread semantics once and hands the
/// paths to whichever backend its cost model picks.
pub(crate) fn stream_arch_verdicts_on<A: Architecture + ?Sized>(
    test: &LitmusTest,
    opts: &EnumOptions,
    arch: &A,
    locs: &LocTable,
    paths: &[Vec<ThreadPath>],
    sink: &mut dyn FnMut(&VerdictCandidate<'_>),
) -> Result<EnumStats, CandidateError> {
    let arch_ref = &arch;
    stream_paths(test, opts, locs, paths, EVERYTHING, &mut Emit::Verdicts { arch: arch_ref, sink })
}

fn stream_impl(
    test: &LitmusTest,
    opts: &EnumOptions,
    owner: Range<u128>,
    mode: &mut Emit<'_, '_>,
) -> Result<EnumStats, CandidateError> {
    let locs = LocTable::for_test(test);
    let thread_paths = thread_paths(test, opts, &locs.as_map())?;
    stream_paths(test, opts, &locs, &thread_paths, owner, mode)
}

fn stream_paths(
    test: &LitmusTest,
    opts: &EnumOptions,
    locs: &LocTable,
    thread_paths: &[Vec<ThreadPath>],
    owner: Range<u128>,
    mode: &mut Emit<'_, '_>,
) -> Result<EnumStats, CandidateError> {
    // Value domain for free (thin-air) symbols: every constant the test can
    // produce.
    let domain = value_domain(test);

    let mut stats = EnumStats::default();
    // One relation arena per worker call, retuned per control-flow
    // combination and kept across them — the bump pool converges to the
    // largest combination's working set and then never allocates.
    let mut arena = RelArena::new(0);
    // Global rf-configuration counter, advanced identically by every call
    // so that range ownership partitions the space exactly.
    let mut cfg_idx = 0u128;
    let mut pick = vec![0usize; thread_paths.len()];
    loop {
        let combo: Vec<&ThreadPath> =
            pick.iter().zip(thread_paths).map(|(&i, ps)| &ps[i]).collect();
        assemble(AssembleCtx {
            test,
            locs,
            combo: &combo,
            domain: &domain,
            opts,
            owner: &owner,
            cfg_idx: &mut cfg_idx,
            arena: &mut arena,
            mode,
            stats: &mut stats,
        })?;
        // A range whose end is behind the global counter owns nothing
        // further: stop instead of walking the rest of the space.
        if cfg_idx >= owner.end {
            break;
        }
        if !bump(&mut pick, &thread_paths.iter().map(Vec::len).collect::<Vec<_>>()) {
            break;
        }
    }
    Ok(stats)
}

/// The reference oracle: every candidate execution of `test`, unpruned,
/// as an owned [`Candidate`] — what the verdict streams are tested
/// against.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the candidate bound is
/// exceeded.
pub fn enumerate(test: &LitmusTest, opts: &EnumOptions) -> Result<Vec<Candidate>, CandidateError> {
    let mut out = Vec::new();
    stream_impl(test, opts, EVERYTHING, &mut Emit::Cands(&mut |c| out.push(c)))?;
    Ok(out)
}

pub(crate) fn value_domain(test: &LitmusTest) -> Vec<i64> {
    use crate::isa::Instr;
    let mut d: Vec<i64> = vec![0, 1];
    for t in &test.threads {
        for i in t {
            match i {
                Instr::MoveImm { val, .. }
                | Instr::StoreImm { val, .. }
                | Instr::CmpImm { val, .. } => d.push(*val),
                _ => {}
            }
        }
    }
    d.extend(test.mem_init.values().copied());
    for ((_, _), v) in &test.reg_init {
        if let InitVal::Int(i) = v {
            d.push(*i);
        }
    }
    d.sort_unstable();
    d.dedup();
    d
}

/// The skeleton-invariant parts of one control-flow combination: event
/// layout, shared core, symbolic write values, path constraints, and the
/// rf/co choice spaces. Shared by the enumeration odometer ([`assemble`])
/// and the single-outcome decision backend ([`crate::decide`]).
pub(crate) struct ComboParts {
    /// Events, init writes first (the init write of `loc` has id `loc.0`).
    pub events: Vec<Event>,
    /// Global id of local read index `i` of thread `t`: `read_gid[t][i]`.
    pub read_gid: Vec<Vec<usize>>,
    /// Value expression of each write event, by event id.
    pub write_value: Vec<Option<SymExpr>>,
    /// Path constraints, renamed to global symbols.
    pub constraints: Vec<PathConstraint>,
    /// The shared po/deps/fences core.
    pub core: Arc<ExecCore>,
    /// Read event ids.
    pub reads: Vec<usize>,
    /// Per-read menu of rf sources: same-location thread writes + init.
    pub rf_choices: Vec<Vec<usize>>,
    /// Locations with thread writes, in `Loc` order.
    pub co_locs: Vec<Loc>,
    /// Thread writes per `co_locs` entry.
    pub co_writes: Vec<Vec<usize>>,
    /// Initial write per `co_locs` entry.
    pub co_inits: Vec<Option<usize>>,
    /// `Π |co_writes[l]|!` — coherence orders per rf configuration.
    /// Saturating `u128`: scaled families put this past `usize` (21! on a
    /// single location already overflows 64 bits).
    pub co_total: u128,
}

/// Lays out the events of one combination of thread paths (init writes
/// first, then thread accesses) and builds everything downstream of the
/// layout that does not depend on an rf or co choice.
pub(crate) fn combo_parts(test: &LitmusTest, locs: &LocTable, combo: &[&ThreadPath]) -> ComboParts {
    let n_init = locs.names().len();
    let n: usize = n_init + combo.iter().map(|p| p.accesses.len()).sum::<usize>();

    struct Layout {
        /// global id of access `k` of thread `t`: `access_gid[t][k]`.
        access_gid: Vec<Vec<usize>>,
        /// global id of local read index `i` of thread `t`.
        read_gid: Vec<Vec<usize>>,
    }
    let mut layout = Layout { access_gid: Vec::new(), read_gid: Vec::new() };
    let mut events: Vec<Event> = Vec::with_capacity(n);
    let mut write_value: Vec<Option<SymExpr>> = vec![None; n];

    for (i, name) in locs.names().iter().enumerate() {
        let init_val = test.mem_init.get(name).copied().unwrap_or(0);
        events.push(Event {
            id: i,
            thread: None,
            po_index: 0,
            dir: Dir::W,
            loc: Loc(i as u32),
            val: Val(init_val),
        });
        write_value[i] = Some(SymExpr::Const(init_val));
    }

    let mut gid = n_init;
    for (t, path) in combo.iter().enumerate() {
        let mut gids = Vec::new();
        let mut rgids = Vec::new();
        for (k, a) in path.accesses.iter().enumerate() {
            events.push(Event {
                id: gid,
                thread: Some(ThreadId(t as u16)),
                po_index: k,
                dir: a.dir,
                loc: a.loc,
                val: Val(0), // concretised later
            });
            gids.push(gid);
            if a.read_index.is_some() {
                rgids.push(gid);
            }
            gid += 1;
        }
        layout.access_gid.push(gids);
        layout.read_gid.push(rgids);
    }

    // Rename thread-local symbols to global read event ids.
    let rename_for = |t: usize| {
        let rgids = layout.read_gid[t].clone();
        move |s: SymId| SymId(rgids[s.0])
    };

    // po, deps, fences.
    let mut po = Relation::empty(n);
    let mut deps = Deps::none(n);
    let mut fences: BTreeMap<Fence, Relation> = BTreeMap::new();
    for (t, path) in combo.iter().enumerate() {
        let gids = &layout.access_gid[t];
        let rgids = &layout.read_gid[t];
        for i in 0..gids.len() {
            for j in i + 1..gids.len() {
                po.add(gids[i], gids[j]);
            }
        }
        for (k, a) in path.accesses.iter().enumerate() {
            let tgt = gids[k];
            for &r in &a.addr_deps {
                deps.addr.add(rgids[r], tgt);
            }
            for &r in &a.data_deps {
                deps.data.add(rgids[r], tgt);
            }
            for &r in &a.ctrl_deps {
                deps.ctrl.add(rgids[r], tgt);
            }
            for &r in &a.ctrl_cfence_deps {
                deps.ctrl_cfence.add(rgids[r], tgt);
            }
        }
        for &(f, pos) in &path.fences {
            let rel = fences.entry(f).or_insert_with(|| Relation::empty(n));
            for i in 0..pos.min(gids.len()) {
                for j in pos..gids.len() {
                    rel.add(gids[i], gids[j]);
                }
            }
        }
        // Write value expressions, renamed to global symbols.
        for (k, a) in path.accesses.iter().enumerate() {
            if a.dir == Dir::W {
                write_value[gids[k]] = Some(a.value.rename(&rename_for(t)));
            }
        }
    }

    // Path constraints, renamed.
    let mut constraints: Vec<PathConstraint> = Vec::new();
    for (t, path) in combo.iter().enumerate() {
        for c in &path.constraints {
            constraints.push(PathConstraint { expr: c.expr.rename(&rename_for(t)), ..*c });
        }
    }

    // One shared core per control-flow combination: po, deps and fences
    // are validated once and every candidate holds them through an `Arc`.
    let core = Arc::new(
        ExecCore::new(&events, po, deps, fences).expect("assembled relations are well-formed"),
    );

    // Same-location writes, for rf choices and co permutations.
    let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    for e in &events {
        if e.dir == Dir::W && e.thread.is_some() {
            writes_by_loc.entry(e.loc).or_default().push(e.id);
        }
    }
    let reads: Vec<usize> = events.iter().filter(|e| e.dir == Dir::R).map(|e| e.id).collect();
    let rf_choices: Vec<Vec<usize>> = reads
        .iter()
        .map(|&r| {
            let loc = events[r].loc;
            let mut ws = writes_by_loc.get(&loc).cloned().unwrap_or_default();
            ws.push(loc.0 as usize); // the init write of `loc` has id loc.0
            ws
        })
        .collect();
    let co_locs: Vec<Loc> = writes_by_loc.keys().copied().collect();
    let co_writes: Vec<Vec<usize>> = writes_by_loc.values().cloned().collect();
    let co_inits: Vec<Option<usize>> = co_locs.iter().map(|l| Some(l.0 as usize)).collect();
    let co_total: u128 =
        co_writes.iter().map(|ws| factorial(ws.len())).fold(1u128, u128::saturating_mul);

    ComboParts {
        events,
        read_gid: layout.read_gid,
        write_value,
        constraints,
        core,
        reads,
        rf_choices,
        co_locs,
        co_writes,
        co_inits,
        co_total,
    }
}

/// The value concretisations of one control-flow combination, one rf
/// configuration at a time — the single place where an rf choice becomes
/// equations, [`Solver`] solves them, and each consistent assignment
/// becomes event values and a final register file. The verdict streams,
/// the oracle, the candidate counter and the decision backend
/// ([`crate::decide`]) all concretise through it.
///
/// Built once per combination, next to [`combo_parts`]: the final-register
/// expressions are renamed to global symbols here, once. Its buffers (the
/// equation system, the solver, the value rows and a pool of register
/// files) are reused across configurations, so past the first few
/// configurations [`Concretiser::run`] allocates nothing.
pub(crate) struct Concretiser<'p> {
    parts: &'p ComboParts,
    domain: &'p [i64],
    /// One symbol per read event.
    symbols: Vec<SymId>,
    /// The path constraints, then one `ReadsValue` per read (rewritten by
    /// every [`Concretiser::run`]).
    equations: Vec<Equation<'p>>,
    solver: Solver,
    /// The final register file every concretisation starts from: fixed
    /// entries (addresses, constants, unwritten registers' initial
    /// values) plus a placeholder per entry of `reg_exprs`.
    reg_template: FinalRegs,
    /// Final registers whose value depends on the reads, with their
    /// expressions over global symbols.
    reg_exprs: Vec<((u16, Reg), SymExpr)>,
    /// Event values of each concretisation of the last run, one row of
    /// `parts.events.len()` values each, indexed by event id.
    values: Vec<i64>,
    /// Final register files; the first `len` belong to the last run, the
    /// rest are kept for reuse.
    regs: Vec<FinalRegs>,
    len: usize,
}

impl<'p> Concretiser<'p> {
    pub(crate) fn new(
        test: &LitmusTest,
        locs: &LocTable,
        combo: &[&ThreadPath],
        parts: &'p ComboParts,
        domain: &'p [i64],
    ) -> Self {
        let mut reg_template = FinalRegs::new();
        let mut reg_exprs = Vec::new();
        for (t, path) in combo.iter().enumerate() {
            let rgids = &parts.read_gid[t];
            for (reg, val) in &path.final_regs {
                let key = (t as u16, *reg);
                let fin = match val {
                    RVal::Addr(l) => RegFinal::Addr(locs.name(*l).to_owned()),
                    RVal::Int(e) => match e.rename(&|s: SymId| SymId(rgids[s.0])) {
                        SymExpr::Const(v) => RegFinal::Int(v),
                        e => {
                            reg_exprs.push((key, e));
                            RegFinal::Int(0)
                        }
                    },
                };
                reg_template.insert(key, fin);
            }
            // Registers never written keep their initial value.
            for ((tid, reg), init) in &test.reg_init {
                if *tid == t as u16 && !path.final_regs.contains_key(reg) {
                    let fin = match init {
                        InitVal::Int(i) => RegFinal::Int(*i),
                        InitVal::Loc(l) => RegFinal::Addr(l.clone()),
                    };
                    reg_template.insert((*tid, *reg), fin);
                }
            }
        }
        let equations = parts
            .constraints
            .iter()
            .map(|c| Equation::Constraint { expr: &c.expr, want: c.want, negated: c.negated })
            .collect();
        Concretiser {
            parts,
            domain,
            symbols: parts.reads.iter().map(|&r| SymId(r)).collect(),
            equations,
            solver: Solver::default(),
            reg_template,
            reg_exprs,
            values: Vec::new(),
            regs: Vec::new(),
            len: 0,
        }
    }

    /// Concretises the rf configuration in which read `k` (in
    /// `parts.reads` order) reads from write `src(k)`, and returns the
    /// number of concretisations: the consistent assignments under which
    /// every thread event's value resolves.
    pub(crate) fn run(&mut self, src: impl Fn(usize) -> usize) -> usize {
        let Concretiser {
            parts,
            domain,
            symbols,
            equations,
            solver,
            reg_template,
            reg_exprs,
            values,
            regs,
            len,
        } = self;
        let parts: &'p ComboParts = parts;
        equations.truncate(parts.constraints.len());
        for (k, &r) in parts.reads.iter().enumerate() {
            let expr = parts.write_value[src(k)].as_ref().expect("write has a value expression");
            equations.push(Equation::ReadsValue { sym: SymId(r), expr });
        }
        *len = 0;
        let n = parts.events.len();
        solver.solve_each(symbols, equations, domain, &mut |asg| {
            let start = *len * n;
            if values.len() < start + n {
                values.resize(start + n, 0);
            }
            if !concretise_into(parts, asg, &mut values[start..start + n]) {
                return;
            }
            if regs.len() == *len {
                regs.push(reg_template.clone());
            }
            // The keys are the template's, so these overwrite in place.
            let fin = &mut regs[*len];
            for (key, e) in reg_exprs.iter() {
                match e.eval(asg) {
                    Some(v) => fin.insert(*key, RegFinal::Int(v)),
                    None => fin.remove(key),
                };
            }
            *len += 1;
        });
        *len
    }

    /// The event values of concretisation `i`, indexed by event id.
    pub(crate) fn values(&self, i: usize) -> &[i64] {
        let n = self.parts.events.len();
        &self.values[i * n..(i + 1) * n]
    }

    /// The final register file of concretisation `i`.
    pub(crate) fn final_regs(&self, i: usize) -> &FinalRegs {
        &self.regs[i]
    }

    /// Writes the events of concretisation `i` into `buf`, reusing its
    /// storage.
    pub(crate) fn events_into(&self, i: usize, buf: &mut Vec<Event>) {
        buf.clone_from(&self.parts.events);
        for (e, &v) in buf.iter_mut().zip(self.values(i)) {
            e.val = Val(v);
        }
    }
}

/// Writes every event's value under `asg` into `row`: initial writes keep
/// their value, reads take their symbol's, writes evaluate their value
/// expression. `false` when some thread event's value does not resolve.
fn concretise_into(parts: &ComboParts, asg: &Assignment, row: &mut [i64]) -> bool {
    for (e, slot) in parts.events.iter().zip(row) {
        let v = match (e.thread, e.dir) {
            (None, _) => Some(e.val.0),
            (Some(_), Dir::R) => asg.get(SymId(e.id)),
            (Some(_), Dir::W) => parts.write_value[e.id].as_ref().and_then(|x| x.eval(asg)),
        };
        match v {
            Some(v) => *slot = v,
            None => return false,
        }
    }
    true
}

/// Everything [`assemble`] needs for one combination of thread paths.
struct AssembleCtx<'a, 'e, 's> {
    test: &'a LitmusTest,
    locs: &'a LocTable,
    combo: &'a [&'a ThreadPath],
    domain: &'a [i64],
    opts: &'a EnumOptions,
    /// The rf configurations this call owns.
    owner: &'a Range<u128>,
    /// Global rf-configuration counter shared across combinations.
    cfg_idx: &'a mut u128,
    /// The worker's relation arena (only the judged modes touch it).
    arena: &'a mut RelArena,
    mode: &'a mut Emit<'e, 's>,
    stats: &'a mut EnumStats,
}

/// The per-combination state of the judged modes: arena slots, one staged
/// checker per model, and the generation-time pruning the mode implies.
struct Judged {
    checkers: Vec<ArenaChecker>,
    rels: ExecRels,
    graphs: LocGraphs,
    menus: CoMenus,
    co_pick: Vec<usize>,
    thinair: Option<ThinAirTracker>,
    scopes: Vec<RfScope>,
    verdicts: Vec<Verdict>,
}

/// Assembles all candidates for one combination of thread paths, pushing
/// them into the sink as the data-flow odometer advances.
fn assemble(ctx: AssembleCtx<'_, '_, '_>) -> Result<(), CandidateError> {
    let AssembleCtx { test, locs, combo, domain, opts, owner, cfg_idx, arena, mode, stats } = ctx;
    let parts = combo_parts(test, locs, combo);
    let ComboParts {
        events, core, reads, rf_choices, co_locs, co_writes, co_inits, co_total, ..
    } = &parts;
    let co_total = *co_total;
    let n = events.len();

    // The emit mode fixes the pruning. The oracle (`Cands`) prunes
    // nothing. A verdict stream prunes with every axis sound for its
    // architecture: uniproc, llh-weakened where tolerated, plus NO THIN
    // AIR from the static base of the envelope its staged checker already
    // computed. A multi-model stream prunes uniproc, llh-weakened as soon
    // as any model tolerates hazards, and never thin air (the static base
    // is per model).
    let judged = match &*mode {
        Emit::Cands(_) => None,
        Emit::Verdicts { arch, .. } => {
            let (checker, env) = ArenaChecker::for_combination(*arch, core);
            let base = thin_air_base_with(*arch, core, env.as_ref());
            Some((vec![checker], arch.tolerates_load_load_hazards(), base))
        }
        Emit::Multi { archs, .. } => {
            let checkers = archs.iter().map(|a| ArenaChecker::for_combination(a, core).0);
            let llh = archs.iter().any(|a| a.tolerates_load_load_hazards());
            Some((checkers.collect(), llh, None))
        }
    };
    let mut judged = judged.map(|(checkers, llh, base)| {
        let shape: Vec<EventShape> = events
            .iter()
            .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
            .collect();
        let graphs = LocGraphs::new(&shape, core.po(), llh);
        // Oversized locations (past the u16 local-index cap) stream
        // unpruned; record the degradation so drivers can tell the user.
        stats.unpruned_locations = stats.unpruned_locations.max(graphs.oversized().len());
        // Retune the worker arena to this combination's universe.
        arena.reset(n);
        Judged {
            checkers,
            rels: ExecRels::alloc(arena),
            graphs,
            menus: CoMenus::new(co_writes),
            co_pick: vec![0usize; co_locs.len()],
            thinair: base.map(|b| ThinAirTracker::new(&b)),
            scopes: Vec::new(),
            verdicts: Vec::new(),
        }
    });
    let mut final_mem: BTreeMap<String, i64> =
        locs.names().iter().map(|name| (name.clone(), 0)).collect();
    let mut conc = Concretiser::new(test, locs, combo, &parts, domain);
    // The concretised events the checker's frame holds.
    let mut frame_events: Vec<Event> = Vec::new();

    let mut rf_src = vec![0usize; n];
    let mut rf_pick = vec![0usize; reads.len()];
    let rf_radices: Vec<usize> = rf_choices.iter().map(Vec::len).collect();
    loop {
        // Ownership: every call advances the global counter identically
        // and works only the configurations in its range, so ranges
        // partition the space exactly.
        let idx = *cfg_idx;
        *cfg_idx += 1;
        'cfg: {
            if !owner.contains(&idx) {
                break 'cfg;
            }

            for (k, &r) in reads.iter().enumerate() {
                rf_src[r] = rf_choices[k][rf_pick[k]];
            }
            let concs = conc.run(|k| rf_choices[k][rf_pick[k]]);
            if concs == 0 {
                break 'cfg;
            }

            let Some(j) = judged.as_mut() else {
                // The oracle: every coherence order of every
                // concretisation, unpruned, from in-place Heap's
                // generators.
                let Emit::Cands(sink) = &mut *mode else {
                    unreachable!("every judged mode has judged state")
                };
                let rf = Relation::from_pairs(n, reads.iter().map(|&r| (rf_src[r], r)));
                for i in 0..concs {
                    conc.events_into(i, &mut frame_events);
                    let final_regs = Arc::new(conc.final_regs(i).clone());
                    let mut heaps: Vec<HeapPerm> =
                        co_writes.iter().map(|ws| HeapPerm::new(ws.clone())).collect();
                    loop {
                        let mut co = Relation::empty(n);
                        for (li, &init) in co_inits.iter().enumerate() {
                            build_co(&mut co, init, heaps[li].current());
                        }
                        let exec = Execution::with_core(
                            frame_events.clone(),
                            Arc::clone(core),
                            rf.clone(),
                            co,
                        )
                        .expect("assembled candidates are well-formed");
                        let final_mem = exec
                            .final_memory()
                            .into_iter()
                            .map(|(l, v)| (locs.name(l).to_owned(), v.0))
                            .collect();
                        sink(Candidate {
                            exec,
                            final_regs: Arc::clone(&final_regs),
                            final_mem,
                            loc_names: Arc::clone(&locs.names),
                        });
                        stats.emitted += 1;
                        if stats.emitted > opts.max_candidates {
                            return Err(too_many(opts, stats));
                        }
                        if !heaps.iter_mut().any(HeapPerm::advance) {
                            break;
                        }
                    }
                }
                break 'cfg;
            };
            let Judged { checkers, rels, graphs, menus, co_pick, thinair, scopes, verdicts } = j;

            // NO THIN AIR: if the static base plus this configuration's
            // external rf edges is already cyclic, every candidate of the
            // configuration is forbidden by the axiom whatever its
            // coherence orders — count them pruned and skip all co work
            // (Sec 8.3).
            let thin_air_doomed = thinair.as_mut().is_some_and(|t| {
                !t.check_rf(reads.iter().filter_map(|&r| {
                    let w = rf_src[r];
                    let external = match (events[w].thread, events[r].thread) {
                        (Some(a), Some(b)) => a != b,
                        _ => true,
                    };
                    external.then_some((w, r))
                }))
            });
            if thin_air_doomed {
                stats.pruned += (concs as u128).saturating_mul(co_total);
                break 'cfg;
            }

            // Uniproc: filter each location's coherence orders once per rf
            // configuration and check the locations without a co digit —
            // an empty menu or a failed rf-only location kills the whole
            // rf subtree before any candidate is checked (the engine's
            // herd_core::uniproc helpers).
            graphs.co_menus_into(co_locs, &rf_src, menus);
            let kept = if graphs.rf_only_consistent_pooled(co_locs, &rf_src, menus) {
                menus.kept()
            } else {
                0
            };
            stats.pruned += (concs as u128).saturating_mul(co_total.saturating_sub(kept));
            if kept == 0 {
                break 'cfg;
            }

            // Fill the arena rf slot, refresh the rf-invariant derived
            // relations and each checker's rf scope once for the whole rf
            // configuration, above a mark released after its last
            // coherence choice. The checker reads events only through the
            // frame, and verdicts do not depend on values: the first
            // concretisation's events stand for all of them.
            arena.clear(rels.rf);
            for &r in reads {
                arena.add(rels.rf, rf_src[r], r);
            }
            rels.derive_rf(core, arena);
            let rf_mark = arena.mark();
            conc.events_into(0, &mut frame_events);
            let fx = ExecFrame { core, events: &frame_events, rels };
            scopes.clear();
            scopes.extend(checkers.iter().map(|ck| ck.rf_scope(&fx, arena)));

            // Coherence-major order: verdicts depend only on (rf, co),
            // never on the value concretisation, so each model's four
            // axioms run once per coherence choice and every assignment
            // of the configuration reuses those verdicts — only the
            // observables differ per concretisation.
            co_pick.fill(0);
            loop {
                arena.clear(rels.co);
                for (li, &init) in co_inits.iter().enumerate() {
                    build_co_arena(arena, rels.co, init, menus.order(li, co_pick[li]));
                }
                rels.derive_co(core, arena);
                let fx = ExecFrame { core, events: &frame_events, rels };
                verdicts.clear();
                match &*mode {
                    Emit::Verdicts { arch, .. } => {
                        verdicts.push(checkers[0].check_co(*arch, &fx, scopes[0], arena));
                    }
                    Emit::Multi { archs, .. } => {
                        for ((ck, a), &scope) in checkers.iter().zip(archs.iter()).zip(&*scopes) {
                            verdicts.push(ck.check_co(a, &fx, scope, arena));
                        }
                    }
                    Emit::Cands(_) => unreachable!("the oracle is never judged"),
                }
                for i in 0..concs {
                    // Every location has an initial write, so each has
                    // exactly one co-maximal write: overwrite its entry in
                    // place, no allocation per candidate.
                    let co = arena.view(rels.co);
                    let values = conc.values(i);
                    for e in events.iter().filter(|e| e.is_write() && co.row_is_empty(e.id)) {
                        *final_mem.get_mut(locs.name(e.loc)).expect("every location keyed") =
                            values[e.id];
                    }
                    let final_regs = conc.final_regs(i);
                    match &mut *mode {
                        Emit::Verdicts { sink, .. } => sink(&VerdictCandidate {
                            verdict: verdicts[0],
                            final_regs,
                            final_mem: &final_mem,
                        }),
                        Emit::Multi { sink, .. } => sink(&MultiVerdictCandidate {
                            verdicts,
                            final_regs,
                            final_mem: &final_mem,
                        }),
                        Emit::Cands(_) => unreachable!("the oracle is never judged"),
                    }
                    stats.emitted += 1;
                    if stats.emitted > opts.max_candidates {
                        return Err(too_many(opts, stats));
                    }
                }
                if !menus.bump(co_pick) {
                    break;
                }
            }
            arena.release(rf_mark);
        }
        if *cfg_idx >= owner.end || !bump(&mut rf_pick, &rf_radices) {
            break;
        }
    }
    Ok(())
}

/// The error of an enumeration past its candidate bound, carrying the
/// progress at the interruption.
fn too_many(opts: &EnumOptions, stats: &EnumStats) -> CandidateError {
    CandidateError::TooManyCandidates {
        bound: opts.max_candidates,
        emitted: stats.emitted as u128,
        pruned: stats.pruned,
    }
}

fn factorial(k: usize) -> u128 {
    (1..=k as u128).fold(1u128, u128::saturating_mul)
}

pub(crate) fn bump(digits: &mut [usize], radices: &[usize]) -> bool {
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
    use crate::corpus::{mp, sb, Dev};
    use crate::isa::Isa;

    #[test]
    fn mp_yields_four_candidates() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        assert_eq!(cands.len(), 4, "2 rf choices per read, 1 write per location");
    }

    #[test]
    fn final_registers_track_rf_choice() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        // The two read registers take every combination of {0,1}.
        let mut seen = std::collections::BTreeSet::new();
        for c in &cands {
            let regs: Vec<&RegFinal> =
                c.final_regs.iter().filter(|((t, _), _)| *t == 1).map(|(_, v)| v).collect();
            seen.insert(format!("{regs:?}"));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn x86_direct_operands_enumerate() {
        let test = sb(Isa::X86, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        assert_eq!(cands.len(), 4);
        for c in &cands {
            assert_eq!(c.exec.len(), 6, "2 init + 4 accesses");
            assert!(c.final_mem.contains_key("x"));
        }
    }

    #[test]
    fn oracle_candidates_share_one_core_per_combination() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        assert!(
            cands.windows(2).all(|w| Arc::ptr_eq(w[0].exec.core(), w[1].exec.core())),
            "one shared core per control-flow combination"
        );
    }

    /// A verdict stream's observables, sorted: one line per candidate.
    fn verdict_lines<A: Architecture + ?Sized>(
        test: &LitmusTest,
        arch: &A,
    ) -> (Vec<String>, EnumStats) {
        let mut lines = Vec::new();
        let stats = stream_arch_verdicts(test, &EnumOptions::default(), arch, &mut |vc| {
            lines.push(format!("{:?}|{:?}|{:?}", vc.verdict, vc.final_regs, vc.final_mem));
        })
        .unwrap();
        lines.sort();
        (lines, stats)
    }

    /// The oracle's lines for the candidates satisfying `keep`, in the
    /// same rendering as [`verdict_lines`].
    fn oracle_lines<A: Architecture + ?Sized>(
        cands: &[Candidate],
        arch: &A,
        keep: impl Fn(&Verdict) -> bool,
    ) -> Vec<String> {
        let mut lines: Vec<String> = cands
            .iter()
            .map(|c| (herd_core::model::check(arch, &c.exec), c))
            .filter(|(v, _)| keep(v))
            .map(|(v, c)| format!("{v:?}|{:?}|{:?}", c.final_regs, c.final_mem))
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn pruning_drops_exactly_the_uniproc_violations() {
        use herd_core::arch::{Arm, ArmVariant};
        // coRR-style test: same-location reads make some rf choices
        // violate SC PER LOCATION; a single writer thread leaves no
        // happens-before cycle for thin air to cut.
        let test = crate::corpus::co_rr(Isa::Arm);
        let all = enumerate(&test, &EnumOptions::default()).unwrap();
        let strict = Arm::new(ArmVariant::Proposed);
        let (kept, stats) = verdict_lines(&test, &strict);
        assert_eq!(kept, oracle_lines(&all, &strict, |v| v.sc_per_location));
        assert_eq!(stats.total(), all.len() as u128, "emitted + pruned covers everything");
        assert!(stats.pruned > 0, "coRR must actually prune");

        // The llh variant keeps the load-load-hazard candidates.
        let llh = Arm::new(ArmVariant::ProposedLlh);
        let (llh_kept, llh_stats) = verdict_lines(&test, &llh);
        assert_eq!(llh_kept, oracle_lines(&all, &llh, |v| v.sc_per_location));
        assert_eq!(llh_stats.total(), all.len() as u128);
        assert!(llh_stats.emitted > stats.emitted, "llh tolerates hazards strict pruning drops");
    }

    #[test]
    fn range_units_partition_the_verdict_stream_exactly() {
        use herd_core::arch::Power;
        let opts = EnumOptions::default();
        let power = Power::new();
        for test in
            [crate::corpus::iriw(Isa::Power, Dev::Po, Dev::Po), crate::corpus::co_rr(Isa::Power)]
        {
            let total = count_rf_configs(&test, &opts).unwrap();
            assert!(total >= 4, "{}: a real rf space", test.name);
            let (whole_states, whole) = verdict_lines(&test, &power);
            for units in [1u128, 2, 3, 5, total, total + 7] {
                let ranges = herd_core::sched::rf_ranges(total, units);
                let mut merged = EnumStats::default();
                let mut states = Vec::new();
                for (s, e) in ranges {
                    let part = stream_range_verdicts(&test, &opts, &power, s, e, &mut |vc| {
                        states.push(format!(
                            "{:?}|{:?}|{:?}",
                            vc.verdict, vc.final_regs, vc.final_mem
                        ));
                    })
                    .unwrap();
                    merged.emitted += part.emitted;
                    merged.pruned += part.pruned;
                }
                states.sort();
                assert_eq!(states, whole_states, "{units} units cover exactly the stream");
                assert_eq!(merged.emitted, whole.emitted);
                assert_eq!(merged.pruned, whole.pruned, "pruned counters merge exactly");
            }
        }
    }

    /// The multi-model stream must reproduce, per model, exactly what the
    /// owned enumerate-then-check path computes: same allowed counts, same
    /// allowed observable states.
    #[test]
    fn multi_verdicts_match_per_model_owned_checks() {
        use herd_core::arch::{Power, Sc, Tso};
        use herd_core::model::check;
        let archs: Vec<Box<dyn herd_core::model::Architecture>> =
            vec![Box::new(Power::new()), Box::new(Sc), Box::new(Tso)];
        let arch_refs: Vec<&dyn herd_core::model::Architecture> =
            archs.iter().map(|a| a.as_ref()).collect();
        let opts = EnumOptions::default();
        for test in [
            crate::corpus::mp(Isa::Power, Dev::Po, Dev::Po),
            crate::corpus::co_rr(Isa::Power),
            crate::corpus::lb(Isa::Power, Dev::Data, Dev::Data),
        ] {
            let owned = enumerate(&test, &opts).unwrap();
            for (k, arch) in arch_refs.iter().enumerate() {
                let mut owned_allowed = 0usize;
                let mut owned_states = std::collections::BTreeSet::new();
                for c in &owned {
                    if check(*arch, &c.exec).allowed() {
                        owned_allowed += 1;
                        owned_states.insert(format!("{:?}", c.final_mem));
                    }
                }
                let mut multi_allowed = 0usize;
                let mut multi_states = std::collections::BTreeSet::new();
                stream_multi_verdicts(&test, &opts, &arch_refs, &mut |mc| {
                    if mc.verdicts[k].allowed() {
                        multi_allowed += 1;
                        multi_states.insert(format!("{:?}", mc.final_mem));
                    }
                })
                .unwrap();
                assert_eq!(
                    multi_allowed,
                    owned_allowed,
                    "{}: {} allowed count diverged",
                    test.name,
                    arch.name()
                );
                assert_eq!(multi_states, owned_states, "{}: state sets diverged", test.name);
            }
        }
    }

    #[test]
    fn dependency_edges_survive_assembly() {
        let test = mp(Isa::Power, Dev::F(herd_core::event::Fence::Lwsync), Dev::Addr);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        for c in &cands {
            assert_eq!(c.exec.deps().addr.len(), 1, "one addr edge on T1");
            assert_eq!(
                c.exec.fence(herd_core::event::Fence::Lwsync).len(),
                1,
                "one lwsync pair on T0"
            );
        }
    }
}
