//! perf_pipeline: the enumeration→check pipeline, the eager oracle vs the
//! pruning arena engine (paper, Sec 8.3 / Tab IX).
//!
//! Measures the hottest path in the repo:
//!
//! * **pipeline** — the eager reference oracle (`Skeleton::candidates`:
//!   materialise every candidate, then check each against the model)
//!   against the arena engine (`Skeleton::check_stream_arena`: uniproc and
//!   thin-air subtrees skipped at generation time, survivors checked in
//!   place). The owned streaming and pruned-stream columns of earlier
//!   files (`stream_ns`, `pruned_ns`) are no longer measured; their
//!   history stays in those `BENCH_pr*.json` files;
//! * **thinair** — the second `-speedcheck` axis on the lb+datas family:
//!   rf subtrees whose partial `hb` is already cyclic die before any
//!   coherence work. Two envelope-less Power delegates run the engine on
//!   the same per-candidate checker: `FallbackPower` keeps Power's static
//!   base and so prunes thin air, `UniprocPower` has none and so prunes
//!   uniproc only;
//! * **wide** (PR 8) — the same two pruning axes on event universes past
//!   the old 64-event mask ceiling (`lb+68ev` at 2-word rows, `lb+132ev`
//!   at 3-word rows): the per-location graphs must build with no
//!   oversized fallback and thin-air must still cut below the
//!   uniproc-only count, both on multi-word `herd_core::maskrow` rows;
//! * **sched** — the hierarchical work scheduler (`herd_core::sched`) on
//!   the co-heavy `wrc+Nw` family: co-level `WorkUnit`s within single rf
//!   configurations vs the static split (a one-unit-per-worker rf-range
//!   plan), reporting the load-balance speedups on ≥4 planned workers
//!   (the static split can fill at most 2 of them on `wrc+Nw`) and
//!   measured wall-clock when real cores exist — a 1-core "parallel" time
//!   is not reported, same discipline as the other parallel sections.
//!
//! Also measures compiled-vs-tree cat-model checking throughput on the
//! corpus, the work-stealing corpus simulation split, (**query**) the
//! polynomial single-outcome backend against the full enumeration scan on
//! the scaled families' litmus-level twins — SC/TSO rows gated at ≥10x
//! with zero counted fallbacks — and (**robust**, PR 7) the budget-check
//! overhead: the arena engine armed with a never-firing [`Budget`]
//! (far-future deadline + huge candidate cap + untripped cancel token)
//! against the unbudgeted engine on `iriw+3w` and `wrc+6w`, gated at
//! < 5% overhead — and (**batch**, PR 9) the memoised query layer: a
//! synthetic 100k-row campaign log judged by `decide_log` against
//! row-at-a-time `judge_entry` (gated ≥ 10x), plus the content-addressed
//! verdict cache's warm lookup against the cold uncached decide (gated
//! ≥ 100x per verdict on an expensive `wrc+8w` family) — and
//! (**frontier**, PR 10) conditional saturation past the tractability
//! frontier: the whole checked-in Power and ARM corpus decided through
//! `simulate_decided`, reporting how many queries the ppo envelope
//! settles without enumeration (fallback rate gated ≤ 20%, definitive
//! fraction gated ≥ 80%), plus envelope-vs-pure-fallback probes on
//! `iriw+3w+syncs` and `wrc+6w+po` against a `Power`-delegating baseline
//! stripped of its envelope (gated ≥ 5x).
//!
//! Usage (the driver `ci.sh` runs quick mode with a derived PR number):
//!
//! ```text
//! cargo bench -p herd-bench --bench perf_pipeline -- \
//!     [--quick] [--json PATH] [--pr N] [--gate]
//! ```
//!
//! `--gate` turns the regression thresholds into a hard failure: any
//! heavily-pruning IRIW/2+2W row (pruned fraction ≥ 0.9) whose arena
//! engine is below 5x over the eager oracle, or any
//! heavily-thin-air row (≥ half the uniproc-kept candidates cyclic)
//! below 2x, exits non-zero.

use herd_bench::{
    iriw_scaled, lb_ballast_scaled, lb_datas_scaled, power_tests, two_plus_two_w_scaled, wrc_scaled,
};
use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
use herd_core::arena::RelArena;
use herd_core::enumerate::{CheckedStats, Skeleton};
use herd_core::event::Fence;
use herd_core::exec::{ExecCore, ExecFrame, Execution};
use herd_core::model::{check, Architecture, ArenaArchRels, PropagationCheck, Verdict};
use herd_core::relation::Relation;
use herd_core::sched::{Budget, CancelToken, PlanOpts, WorkPlan};
use herd_core::uniproc::{EventShape, LocGraphs};
use herd_litmus::candidates::{stream_arch_verdicts, EnumOptions, RegFinal};
use herd_litmus::corpus::{self, Dev, Op, TestBuilder};
use herd_litmus::decide::{decide_outcome, Outcome, QueryStats};
use herd_litmus::isa::Isa;
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::{simulate_corpus, simulate_decided, simulate_with};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock of the best of `reps` runs of `f`, in nanoseconds, plus the
/// last result. Fast workloads keep sampling past `reps` until a modest
/// floor of total measurement time is met, so quick mode (one rep) does
/// not gate a family on a single noisy scheduler slice; anything that
/// takes longer than the floor in one run pays nothing extra.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    const SAMPLE_FLOOR: Duration = Duration::from_millis(150);
    const MAX_RUNS: usize = 32;
    let mut best = u128::MAX;
    let mut out = None;
    let started = Instant::now();
    let mut runs = 0;
    while runs < reps.max(1) || (started.elapsed() < SAMPLE_FLOOR && runs < MAX_RUNS) {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos());
        out = Some(r);
        runs += 1;
    }
    (best, out.expect("at least one rep"))
}

struct PipelineRow {
    name: String,
    candidates: u128,
    emitted: u128,
    pruned: u128,
    allowed: usize,
    /// The eager reference oracle (`Skeleton::candidates` + `check`).
    eager_ns: u128,
    /// The arena-backed checked stream (`Skeleton::check_stream_arena`):
    /// generation-time pruning, zero allocations per candidate.
    arena_ns: u128,
}

impl PipelineRow {
    fn speedup_arena(&self) -> f64 {
        self.eager_ns as f64 / self.arena_ns.max(1) as f64
    }
    fn pruned_fraction(&self) -> f64 {
        self.pruned as f64 / self.candidates.max(1) as f64
    }
}

/// Power without its ppo envelope, hence without a static NO THIN AIR
/// base: the engine runs it with uniproc pruning only — the baseline the
/// thin-air and wide rows measure the thin-air axis against. Their
/// thin-air column runs [`FallbackPower`], which is envelope-less too but
/// forwards Power's static base, so both columns take the same
/// per-candidate checker (`ArenaChecker::new`, no per-combination ppo
/// staging) and differ only in thin-air pruning.
struct UniprocPower(Power);

impl Architecture for UniprocPower {
    fn name(&self) -> &str {
        "Power-uniproc"
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
    fn propagation_check(&self) -> PropagationCheck {
        self.0.propagation_check()
    }
    fn arch_rels_arena(&self, fx: &ExecFrame<'_>, arena: &mut RelArena) -> ArenaArchRels {
        self.0.arch_rels_arena(fx, arena)
    }
}

/// The engine over the whole space with no budget and a no-op sink.
fn run_arena<A: Architecture + ?Sized>(
    sk: &Skeleton,
    arch: &A,
    arena: &mut RelArena,
) -> CheckedStats {
    sk.check_stream_arena(arch, arena, &Budget::unlimited(), &mut |_, _, _| {})
}

fn bench_pipeline(name: &str, sk: &Skeleton, reps: usize) -> PipelineRow {
    let power = Power::new();
    let (eager_ns, eager_allowed) =
        best_of(reps, || sk.candidates().iter().filter(|x| check(&power, x).allowed()).count());
    // The arena-backed engine: candidates pruned at generation time and
    // checked in place (no Execution materialisation, no per-candidate
    // allocs).
    let mut arena = RelArena::new(0);
    let (arena_ns, arena_stats) = best_of(reps, || run_arena(sk, &power, &mut arena));
    assert_eq!(
        arena_stats.allowed, eager_allowed as u128,
        "{name}: the arena engine changed the verdict"
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    assert_eq!(
        arena_stats.emitted + arena_stats.pruned,
        candidates,
        "{name}: arena accounting is exact"
    );
    PipelineRow {
        name: name.to_owned(),
        candidates,
        emitted: arena_stats.emitted,
        pruned: arena_stats.pruned,
        allowed: eager_allowed,
        eager_ns,
        arena_ns,
    }
}

struct ThinAirRow {
    name: String,
    candidates: u128,
    /// Candidate executions emitted by uniproc-only pruning.
    emitted_uniproc: u128,
    /// Candidate executions surviving uniproc + thin-air pruning.
    emitted_thinair: u128,
    pruned_thinair: u128,
    allowed: usize,
    uniproc_ns: u128,
    thinair_ns: u128,
}

impl ThinAirRow {
    fn speedup(&self) -> f64 {
        self.uniproc_ns as f64 / self.thinair_ns.max(1) as f64
    }
    /// Fraction of the uniproc-surviving *candidates* that thin air
    /// removes (weighted by each rf configuration's coherence count — on
    /// the lb+datas rings every surviving configuration keeps exactly one
    /// coherence order, so this coincides with the rf-config fraction).
    fn thinair_fraction(&self) -> f64 {
        1.0 - self.emitted_thinair as f64 / self.emitted_uniproc.max(1) as f64
    }
}

fn bench_thinair(name: &str, sk: &Skeleton, reps: usize) -> ThinAirRow {
    let mut arena = RelArena::new(0);
    let (uniproc_ns, uniproc) =
        best_of(reps, || run_arena(sk, &UniprocPower(Power::new()), &mut arena));
    let (thinair_ns, thinair) =
        best_of(reps, || run_arena(sk, &FallbackPower(Power::new()), &mut arena));
    assert_eq!(uniproc.allowed, thinair.allowed, "{name}: thin-air pruning changed the verdict");
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    assert_eq!(uniproc.emitted + uniproc.pruned, candidates, "{name}: uniproc accounting is exact");
    assert_eq!(
        thinair.emitted + thinair.pruned,
        candidates,
        "{name}: thin-air accounting is exact"
    );
    assert!(thinair.emitted < uniproc.emitted, "{name}: thin air must actually cut deeper");
    ThinAirRow {
        name: name.to_owned(),
        candidates,
        emitted_uniproc: uniproc.emitted,
        emitted_thinair: thinair.emitted,
        pruned_thinair: thinair.pruned,
        allowed: usize::try_from(thinair.allowed).expect("allowed fits usize"),
        uniproc_ns,
        thinair_ns,
    }
}

/// One width-generic row (PR 8): a family whose event universe exceeds
/// the old 64-event mask ceiling, proving both generation-time pruning
/// axes still fire on multi-word rows.
struct WideRow {
    name: String,
    /// Event-universe size (≥ 128 on the headline row).
    events: usize,
    /// `u64` words per reachability/adjacency row.
    words_per_row: usize,
    candidates: u128,
    /// Candidates surviving uniproc-only pruning.
    emitted_uniproc: u128,
    /// Candidates surviving uniproc + thin-air (the arena engine).
    emitted: u128,
    pruned: u128,
    allowed: u128,
    /// Locations past the member cap (must be 0: nothing falls back).
    unpruned_locations: usize,
    uniproc_ns: u128,
    arena_ns: u128,
}

impl WideRow {
    /// Fraction of the uniproc-surviving candidates thin air removes.
    fn thinair_fraction(&self) -> f64 {
        1.0 - self.emitted as f64 / self.emitted_uniproc.max(1) as f64
    }
}

fn bench_wide(name: &str, sk: &Skeleton, reps: usize) -> WideRow {
    let power = Power::new();
    let events = sk.events.len();
    let words_per_row = events.div_ceil(64);
    // Axis 1, uniproc: the per-location graphs must build for every
    // location — no oversized fallback anywhere in the universe.
    let shape: Vec<EventShape> = sk
        .events
        .iter()
        .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
        .collect();
    let graphs = LocGraphs::new(&shape, &sk.po, power.tolerates_load_load_hazards());
    let unpruned_locations = graphs.oversized().len();
    assert!(
        graphs.oversized().is_empty(),
        "{name}: {} location(s) fell back to unpruned streaming at {events} events",
        unpruned_locations
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    let mut arena = RelArena::new(0);
    let (uniproc_ns, uniproc) =
        best_of(reps, || run_arena(sk, &UniprocPower(Power::new()), &mut arena));
    let emitted_uniproc = uniproc.emitted;
    assert_eq!(emitted_uniproc + uniproc.pruned, candidates, "{name}: uniproc accounting");
    // Axis 2, thin air (the engine arms the tracker whenever the
    // architecture vouches for a static base — previously impossible past
    // 64 events).
    let (arena_ns, stats) =
        best_of(reps, || run_arena(sk, &FallbackPower(Power::new()), &mut arena));
    assert_eq!(stats.emitted + stats.pruned, candidates, "{name}: arena accounting is exact");
    assert!(
        stats.emitted < emitted_uniproc,
        "{name}: thin air must cut below uniproc-only past 64 events \
         ({} vs {emitted_uniproc})",
        stats.emitted
    );
    WideRow {
        name: name.to_owned(),
        events,
        words_per_row,
        candidates,
        emitted_uniproc,
        emitted: stats.emitted,
        pruned: stats.pruned,
        allowed: stats.allowed,
        unpruned_locations,
        uniproc_ns,
        arena_ns,
    }
}

/// One hierarchical-scheduler row: the co-level work-stealing plan
/// against the static rf-prefix split of the same workload.
struct SchedRow {
    name: String,
    candidates: u128,
    /// Workers the plans are sized for (≥ 4: the co-heavy acceptance
    /// shape), whatever the machine offers.
    plan_workers: usize,
    /// Cores actually available for the measured numbers.
    cores: usize,
    units: usize,
    co_units: usize,
    /// Load-balance speedup of the static split (one rf range per worker)
    /// on `plan_workers` workers: total checks / biggest unit.
    static_speedup: f64,
    /// Load-balance speedup of the stealing plan: total checks / LPT
    /// makespan of the per-unit check counts.
    sched_speedup: f64,
    /// Measured wall-clock of the static split on the executor, `None` on
    /// one core — a 1-thread "parallel" number is not a parallel number.
    static_ns: Option<u128>,
    /// Measured wall-clock of the work-stealing executor, same rule.
    sched_ns: Option<u128>,
}

impl SchedRow {
    /// Parallel efficiency of the scheduler plan: balance speedup over
    /// worker count (1.0 = perfectly even units).
    fn efficiency(&self) -> f64 {
        self.sched_speedup / self.plan_workers as f64
    }
    /// How much better the scheduler balances than the static split.
    fn balance_ratio(&self) -> f64 {
        self.sched_speedup / self.static_speedup.max(f64::MIN_POSITIVE)
    }
    fn measured_ratio(&self) -> Option<f64> {
        match (self.static_ns, self.sched_ns) {
            (Some(s), Some(w)) => Some(s as f64 / w.max(1) as f64),
            _ => None,
        }
    }
}

/// A no-op scheduler sink (one per worker).
fn null_sink(_w: usize) -> impl FnMut(&ExecFrame<'_>, &RelArena, Verdict) + Send {
    |_, _, _| {}
}

fn bench_sched(name: &str, sk: &Skeleton, reps: usize) -> SchedRow {
    let power = Power::new();
    let unlimited = Budget::unlimited();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Plan for at least 4 workers: the shape the co-heavy acceptance
    // figure is defined on; the balance numbers are analytic (exact
    // per-unit check counts), so they do not need 4 cores.
    let plan_workers = cores.max(4);
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    // The static split: one contiguous rf range per worker, no co-level
    // splitting.
    let static_plan = |workers| {
        WorkPlan::for_skeleton(
            sk,
            &power,
            &PlanOpts { workers, units_per_worker: 1, co_split: false },
        )
    };

    // Per-unit check counts give the static split's balance; its biggest
    // unit is its makespan.
    let fixed = sk.check_stream_sched(&power, &static_plan(plan_workers), 1, &unlimited, null_sink);
    let whole = fixed.stats;
    assert_eq!(whole.emitted + whole.pruned, candidates, "{name}: static split accounting");

    // The hierarchical plan: per-unit stats give the stealing balance.
    let plan = WorkPlan::for_skeleton(sk, &power, &PlanOpts::for_workers(plan_workers));
    let out = sk.check_stream_sched(&power, &plan, cores, &unlimited, null_sink);
    assert_eq!(out.stats, whole, "{name}: the scheduler changed the workload");

    let static_makespan = fixed.unit_stats.iter().map(|s| s.emitted).max().unwrap_or(0).max(1);
    // The stealing executor approximates LPT (largest units first, next
    // unit to the first free worker): greedy-assign the exact per-unit
    // check counts to `plan_workers` bins.
    let mut bins = vec![0u128; plan_workers];
    let mut unit_emitted: Vec<u128> = out.unit_stats.iter().map(|s| s.emitted).collect();
    unit_emitted.sort_unstable_by(|a, b| b.cmp(a));
    for e in unit_emitted {
        *bins.iter_mut().min().expect("bins not empty") += e;
    }
    let sched_makespan = bins.iter().copied().max().unwrap_or(0).max(1);
    let static_speedup = whole.emitted as f64 / static_makespan as f64;
    let sched_speedup = whole.emitted as f64 / sched_makespan as f64;

    // Measured wall-clock only with real parallelism.
    let (static_ns, sched_ns) = if cores > 1 {
        let fixed_plan = static_plan(cores);
        let (s_ns, static_emitted) = best_of(reps, || {
            sk.check_stream_sched(&power, &fixed_plan, cores, &unlimited, null_sink).stats.emitted
        });
        let run_plan = WorkPlan::for_skeleton(sk, &power, &PlanOpts::for_workers(cores));
        let (w_ns, sched_emitted) = best_of(reps, || {
            sk.check_stream_sched(&power, &run_plan, cores, &unlimited, null_sink).stats.emitted
        });
        assert_eq!(static_emitted, sched_emitted, "{name}: measured runs disagree");
        (Some(s_ns), Some(w_ns))
    } else {
        (None, None)
    };

    SchedRow {
        name: name.to_owned(),
        candidates,
        plan_workers,
        cores,
        units: plan.len(),
        co_units: plan.co_units(),
        static_speedup,
        sched_speedup,
        static_ns,
        sched_ns,
    }
}

struct ModelRow {
    model: String,
    execs: usize,
    tree_ns: u128,
    compiled_ns: u128,
}

impl ModelRow {
    fn speedup(&self) -> f64 {
        self.tree_ns as f64 / self.compiled_ns.max(1) as f64
    }
    fn checks_per_sec(&self) -> f64 {
        self.execs as f64 / (self.compiled_ns as f64 / 1e9)
    }
}

fn bench_models(reps: usize) -> Vec<ModelRow> {
    let cands = herd_bench::enumerate_all(&power_tests());
    let mut rows = Vec::new();
    for (name, src) in herd_cat::stock::ALL {
        let model = herd_cat::parse(src).expect("stock model parses");
        let compiled = herd_cat::compile(&model).expect("stock model compiles");
        let (tree_ns, tree_allowed) = best_of(reps, || {
            cands.iter().filter(|c| herd_cat::eval_tree(&model, &c.exec).unwrap().allowed()).count()
        });
        // One workspace across the whole candidate stream: slots bind
        // builtins by reference and the arena pool amortises to zero
        // allocations per check.
        let mut ws = herd_cat::CatWorkspace::new();
        let (compiled_ns, compiled_allowed) = best_of(reps, || {
            cands.iter().filter(|c| compiled.check_in(&c.exec, &mut ws).allowed()).count()
        });
        assert_eq!(tree_allowed, compiled_allowed, "{name}: compilation changed the verdict");
        rows.push(ModelRow { model: name.to_owned(), execs: cands.len(), tree_ns, compiled_ns });
    }
    rows
}

struct CorpusRow {
    tests: usize,
    candidates: u128,
    pruned: u128,
    sequential_ns: u128,
    /// `None` when only one worker ran (a 1-thread "parallel" figure is
    /// not a parallel figure).
    parallel_ns: Option<u128>,
    workers: usize,
}

impl CorpusRow {
    fn candidates_per_sec(&self) -> f64 {
        let ns = self.parallel_ns.unwrap_or(self.sequential_ns);
        self.candidates as f64 / (ns as f64 / 1e9)
    }
}

fn bench_corpus(reps: usize) -> CorpusRow {
    let mut tests: Vec<_> = corpus::power_corpus().into_iter().map(|e| e.test).collect();
    tests.extend(corpus::arm_corpus().into_iter().map(|e| e.test));
    tests.extend(corpus::x86_corpus().into_iter().map(|e| e.test));
    let power = Power::new();
    let opts = EnumOptions::default();
    let (sequential_ns, (candidates, pruned)) = best_of(reps, || {
        tests
            .iter()
            .map(|t| {
                let o = simulate_with(t, &power, &opts).expect("corpus simulates");
                (o.candidates, o.pruned)
            })
            .fold((0u128, 0u128), |(c, p), (c2, p2)| (c + c2, p + p2))
    });
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(tests.len());
    let parallel_ns = (workers > 1).then(|| {
        best_of(reps, || {
            let out = simulate_corpus(&tests, &power, &opts).expect("corpus simulates");
            assert!(out.is_complete(), "bench corpus must simulate with no lost units");
            out
        })
        .0
    });
    CorpusRow { tests: tests.len(), candidates, pruned, sequential_ns, parallel_ns, workers }
}

/// One budget-overhead row: the arena engine with no budget against the
/// budgeted engine armed with a budget that never fires (far-future
/// deadline, `u128::MAX` candidate cap, untripped cancel token) — the
/// pure cost of the per-candidate robustness checks on a run that never
/// needs them.
struct RobustRow {
    name: String,
    candidates: u128,
    plain_ns: u128,
    budgeted_ns: u128,
}

impl RobustRow {
    /// `budgeted / plain`: 1.00 = free, 1.05 = the 5% gate.
    fn overhead(&self) -> f64 {
        self.budgeted_ns as f64 / self.plain_ns.max(1) as f64
    }
}

fn bench_robust(name: &str, sk: &Skeleton, reps: usize) -> RobustRow {
    // The gate is a ratio of two close timings: quick mode's single rep
    // is far too noisy for it, and even back-to-back best-of loops pick
    // up frequency drift between the two engines. Take many samples,
    // alternating engines within each round so drift cancels, and gate
    // on the per-engine minima.
    let rounds = reps.max(12);
    let power = Power::new();
    let mut arena = RelArena::new(0);
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_secs(86_400))
        .with_max_candidates(u128::MAX)
        .with_cancel(CancelToken::new());
    let mut plain_ns = u128::MAX;
    let mut budgeted_ns = u128::MAX;
    let mut plain_stats = None;
    let mut budgeted_stats = None;
    for _ in 0..rounds {
        let (ns, stats) = best_of(1, || run_arena(sk, &power, &mut arena));
        plain_ns = plain_ns.min(ns);
        plain_stats = Some(stats);
        let (ns, stats) =
            best_of(1, || sk.check_stream_arena(&power, &mut arena, &budget, &mut |_, _, _| {}));
        budgeted_ns = budgeted_ns.min(ns);
        budgeted_stats = Some(stats);
    }
    let plain_stats = plain_stats.expect("at least one round");
    let budgeted_stats = budgeted_stats.expect("at least one round");
    assert!(budgeted_stats.stopped.is_none(), "{name}: the never-firing budget fired");
    assert_eq!(budgeted_stats.remaining, 0, "{name}: the budgeted run must complete");
    assert_eq!(
        (budgeted_stats.emitted, budgeted_stats.pruned, budgeted_stats.allowed),
        (plain_stats.emitted, plain_stats.pruned, plain_stats.allowed),
        "{name}: the budget changed the verdict"
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    RobustRow { name: name.to_owned(), candidates, plain_ns, budgeted_ns }
}

/// One single-outcome query row: the polynomial backend against the full
/// streamed-enumeration scan answering the same "is this final state
/// allowed?" question.
struct QueryRow {
    /// `family/outcome` label.
    name: String,
    arch: String,
    allowed: bool,
    /// Full scan over `stream_arch_verdicts` (generation-time pruning
    /// included) looking for an allowed candidate matching the outcome.
    enum_ns: u128,
    /// `decide_outcome` through the consistency backend.
    backend_ns: u128,
    /// rf configurations of the whole space vs the ones the backend's
    /// register screening actually probed.
    rf_space: u128,
    rf_configs: u64,
    /// Counted enumeration fallbacks (must be 0 on SC/TSO rows).
    fallbacks: usize,
}

impl QueryRow {
    fn speedup(&self) -> f64 {
        self.enum_ns as f64 / self.backend_ns.max(1) as f64
    }
}

/// The litmus-level `iriw+3w` family (the skeleton benches' `iriw_scaled(3)`
/// with real instruction semantics) plus its classic forbidden outcome:
/// both readers observe the two locations in opposite orders.
fn query_iriw_3w() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::X86, "iriw+3w")
        .thread(vec![Op::W("x", 1), Op::W("x", 2), Op::W("x", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::W("y", 1), Op::W("y", 2), Op::W("y", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::R("y"), Op::R("x")], vec![Dev::Po])
        .thread(vec![Op::R("x"), Op::R("y")], vec![Dev::Po])
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([
            ((2, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((2, herd_litmus::Reg(2)), RegFinal::Int(0)),
            ((3, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((3, herd_litmus::Reg(2)), RegFinal::Int(0)),
        ]),
        mem: BTreeMap::new(),
    };
    (test, outcome)
}

/// The litmus-level `wrc+6w` family (`wrc_scaled(6)`: one contended
/// location with 7 unordered writers) plus an allowed outcome pinning a
/// mid-chain write as coherence-last.
fn query_wrc_6w() -> (LitmusTest, Outcome) {
    let mut b = TestBuilder::new(Isa::X86, "wrc+6w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..6 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let test = b.condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([((1, herd_litmus::Reg(1)), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 5)]),
    };
    (test, outcome)
}

fn bench_query(
    name: &str,
    test: &LitmusTest,
    probe: &Outcome,
    arch: &dyn Architecture,
    reps: usize,
) -> QueryRow {
    let opts = EnumOptions::default();
    let (enum_ns, enum_reachable) = best_of(reps, || {
        let mut hit = false;
        stream_arch_verdicts(test, &opts, arch, &mut |vc| {
            if !hit && vc.verdict.allowed() {
                hit = probe.regs.iter().all(|(k, v)| vc.final_regs.get(k) == Some(v))
                    && probe.mem.iter().all(|(l, v)| vc.final_mem.get(l) == Some(v));
            }
        })
        .expect("query family streams");
        hit
    });
    let (backend_ns, decision) =
        best_of(reps, || decide_outcome(test, arch, &opts, probe).expect("query family decides"));
    assert_eq!(
        decision.allowed,
        enum_reachable,
        "{name} on {}: backend and enumeration disagree",
        arch.name()
    );
    QueryRow {
        name: name.to_owned(),
        arch: arch.name().to_owned(),
        allowed: decision.allowed,
        enum_ns,
        backend_ns,
        rf_space: decision.stats.rf_space,
        rf_configs: decision.stats.rf_configs,
        fallbacks: decision.stats.backend.fallbacks,
    }
}

fn bench_queries(reps: usize) -> Vec<QueryRow> {
    let (iriw, iriw_probe) = query_iriw_3w();
    let (wrc, wrc_probe) = query_wrc_6w();
    let mut rows = Vec::new();
    for arch in [&Sc as &dyn Architecture, &Tso] {
        rows.push(bench_query("iriw+3w/forbidden", &iriw, &iriw_probe, arch, reps));
        rows.push(bench_query("wrc+6w/allowed", &wrc, &wrc_probe, arch, reps));
    }
    rows
}

/// One batched-judging row (PR 9): a synthetic hardware log — ≥100k rows
/// cycling a small distinct-outcome set, the shape of a real Sec 11
/// campaign log — judged through the memoised query layer.
struct BatchRow {
    name: String,
    arch: String,
    /// Total log rows judged.
    rows: usize,
    /// Distinct outcomes in the log.
    distinct: usize,
    /// Row-at-a-time `judge_entry` over the whole log — the pre-PR 9
    /// pathology. `None` on the cache rows (an expensive family at log
    /// scale is exactly the workload nobody should wait for twice).
    perrow_ns: Option<u128>,
    /// One `judge_entries` (`decide_log`) call over the whole log.
    batch_ns: u128,
    /// Uncached single-row decides over the distinct rows: the cold unit
    /// of work a cache miss pays.
    cold_ns: u128,
    /// Warm `judge_log_cached` pass over the whole log (all hits): parse
    /// + fingerprint + shard probe per row.
    warm_ns: u128,
    /// `BatchStats` of the batch call, plus the cache counters after the
    /// warm pass.
    classes: u64,
    saturations: u64,
    reused: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    cache_evictions: u64,
}

impl BatchRow {
    fn batch_speedup(&self) -> Option<f64> {
        self.perrow_ns.map(|p| p as f64 / self.batch_ns.max(1) as f64)
    }
    /// Cold cost of one verdict (a full uncached decide).
    fn cold_row_ns(&self) -> f64 {
        self.cold_ns as f64 / self.distinct.max(1) as f64
    }
    /// Warm cost of one verdict.
    fn warm_row_ns(&self) -> f64 {
        self.warm_ns as f64 / self.rows.max(1) as f64
    }
    /// Per-verdict warm-over-cold speedup of the content-addressed cache.
    fn warm_speedup(&self) -> f64 {
        self.cold_row_ns() / self.warm_row_ns().max(f64::MIN_POSITIVE)
    }
}

fn bench_batch(
    name: &str,
    test: &LitmusTest,
    arch: &dyn Architecture,
    distinct: &[String],
    nrows: usize,
    measure_perrow: bool,
    reps: usize,
) -> BatchRow {
    let log: Vec<String> = (0..nrows).map(|i| distinct[i % distinct.len()].clone()).collect();
    let (batch_ns, (verdicts, stats)) =
        best_of(reps, || herd_hw::judge_entries(test, arch, &log).expect("batch judges"));
    // Differential pin: batch ≡ per-row on every distinct outcome.
    for (i, d) in distinct.iter().enumerate() {
        let single = herd_hw::judge_entry(test, arch, d).expect("row judges");
        assert_eq!(verdicts[i], single, "{name}: batch and per-row disagree on '{d}'");
    }
    let perrow_ns = measure_perrow.then(|| {
        best_of(reps, || {
            log.iter().filter(|s| herd_hw::judge_entry(test, arch, s).expect("row judges")).count()
        })
        .0
    });
    let (cold_ns, _) = best_of(reps, || {
        distinct.iter().filter(|s| herd_hw::judge_entry(test, arch, s).expect("row judges")).count()
    });
    let cache = herd_hw::VerdictCache::new(4096);
    let primed = herd_hw::judge_log_cached(test, arch, &log, &cache).expect("cold pass judges");
    assert_eq!(primed, verdicts, "{name}: the cached path changed a verdict");
    let (warm_ns, warm) =
        best_of(reps, || herd_hw::judge_log_cached(test, arch, &log, &cache).expect("warm judges"));
    assert_eq!(warm, verdicts, "{name}: a warm hit changed a verdict");
    let cs = cache.stats();
    assert_eq!(cs.len, distinct.len(), "{name}: one cache entry per distinct row");
    BatchRow {
        name: name.to_owned(),
        arch: arch.name().to_owned(),
        rows: log.len(),
        distinct: distinct.len(),
        perrow_ns,
        batch_ns,
        cold_ns,
        warm_ns,
        classes: stats.classes,
        saturations: stats.saturations,
        reused: stats.reused,
        cache_hits: cs.hits,
        cache_misses: cs.misses,
        cache_insertions: cs.insertions,
        cache_evictions: cs.evictions,
    }
}

fn bench_batches(reps: usize) -> Vec<BatchRow> {
    const LOG_ROWS: usize = 100_000;
    // The iriw+3w twin: a moderately expensive per-row decide, so the
    // 100k-row per-row scan is measurable (≈ 1s) without being absurd —
    // this row carries the batch-vs-per-row gate.
    let (iriw, _) = query_iriw_3w();
    let mut iriw_states = Vec::new();
    for a in [0i64, 3] {
        for b in [0i64, 3] {
            for c in [0i64, 3] {
                for d in [0i64, 3] {
                    iriw_states.push(format!("2:r1={a}; 2:r2={b}; 3:r1={c}; 3:r2={d}"));
                }
            }
        }
    }
    // A wrc+8w twin: 9 unordered same-location writers make each cold
    // decide an expensive coherence saturation, so the cold-vs-warm
    // contrast is the real cache story — this row carries the
    // warm-lookup gate.
    let mut b = TestBuilder::new(Isa::X86, "wrc+8w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..8 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let wrc = b.condition(Quantifier::Exists, |_| Prop::True);
    let wrc_states: Vec<String> =
        [(1, 5), (0, 2), (1, 9), (0, 4)].iter().map(|&(r, x)| format!("1:r1={r}; x={x}")).collect();
    vec![
        bench_batch("iriw+3w/100k", &iriw, &Tso, &iriw_states, LOG_ROWS, true, reps),
        bench_batch("wrc+8w/100k", &wrc, &Tso, &wrc_states, LOG_ROWS, false, reps),
    ]
}

/// The pure-counted-fallback baseline for the frontier rows (PR 10): the
/// Power model verbatim, minus its `Tractability::Conditional`
/// declaration and ppo envelope — i.e. exactly the pre-envelope routing,
/// where every Power query takes the enumeration fallback. Delegates
/// every relation to the real model so the two paths answer the same
/// question; only the saturation strategy differs. It keeps Power's
/// static NO THIN AIR base, so it is also the thin-air column of the
/// thinair and wide rows, against [`UniprocPower`].
struct FallbackPower(Power);

impl Architecture for FallbackPower {
    fn name(&self) -> &str {
        "Power-fallback"
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
    fn propagation_check(&self) -> PropagationCheck {
        self.0.propagation_check()
    }
    fn thin_air_fences(&self, core: &ExecCore) -> Relation {
        self.0.thin_air_fences(core)
    }
    fn thin_air_base(&self, core: &ExecCore) -> Option<Relation> {
        self.0.thin_air_base(core)
    }
    fn arch_rels_arena(&self, fx: &ExecFrame<'_>, arena: &mut RelArena) -> ArenaArchRels {
        self.0.arch_rels_arena(fx, arena)
    }
}

/// Corpus-wide conditional-saturation accounting for one architecture
/// (PR 10): every checked-in corpus test's distinct final states decided
/// through `simulate_decided`, with the consistency backend's envelope
/// counters accumulated across the sweep.
struct FrontierCorpusRow {
    arch: String,
    tests: usize,
    queries: usize,
    /// Queries the envelope settled without enumeration (lower-bound
    /// contradiction or exactly-rechecked optimistic witness).
    definitive: usize,
    /// Queries where the bounds genuinely disagreed.
    envelope_fallbacks: usize,
    /// All counted fallbacks (must equal `envelope_fallbacks` here: on a
    /// Conditional model nothing else reaches the fallback).
    fallbacks: usize,
    decide_ns: u128,
}

impl FrontierCorpusRow {
    fn fallback_rate(&self) -> f64 {
        self.fallbacks as f64 / self.queries.max(1) as f64
    }
    fn definitive_fraction(&self) -> f64 {
        self.definitive as f64 / self.queries.max(1) as f64
    }
}

fn bench_frontier_corpus(reps: usize) -> Vec<FrontierCorpusRow> {
    let power_suite: Vec<LitmusTest> = corpus::power_corpus().into_iter().map(|e| e.test).collect();
    let arm_suite: Vec<LitmusTest> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
    let power = Power::new();
    let arm = Arm::new(ArmVariant::Proposed);
    let opts = EnumOptions::default();
    let mut rows = Vec::new();
    for (suite, arch) in [(&power_suite, &power as &dyn Architecture), (&arm_suite, &arm)] {
        let (decide_ns, stats) = best_of(reps, || {
            let mut stats = QueryStats::default();
            for t in suite.iter() {
                simulate_decided(t, arch, &opts, &mut stats).expect("corpus test decides");
            }
            stats
        });
        assert_eq!(
            stats.backend.fallbacks,
            stats.backend.envelope_fallbacks,
            "{}: a fallback bypassed the envelope on a Conditional model",
            arch.name()
        );
        rows.push(FrontierCorpusRow {
            arch: arch.name().to_owned(),
            tests: suite.len(),
            queries: stats.backend.queries,
            definitive: stats.backend.conditional_definitive,
            envelope_fallbacks: stats.backend.envelope_fallbacks,
            fallbacks: stats.backend.fallbacks,
            decide_ns,
        });
    }
    rows
}

/// One envelope-vs-fallback timing row (PR 10): the same outcome query
/// decided under the real Conditional Power model and under
/// [`FallbackPower`], its pre-envelope twin.
struct FrontierSpeedRow {
    name: String,
    allowed: bool,
    /// `decide_outcome` under the pure-fallback baseline.
    fallback_ns: u128,
    /// `decide_outcome` under the envelope path.
    envelope_ns: u128,
    /// Envelope-settled queries in the envelope run.
    definitive: usize,
    /// Counted fallbacks left in the envelope run.
    residue: usize,
    /// Whether the ≥5x gate applies (the forbidden probes, where the
    /// baseline must exhaust every coherence completion).
    gated: bool,
}

impl FrontierSpeedRow {
    fn speedup(&self) -> f64 {
        self.fallback_ns as f64 / self.envelope_ns.max(1) as f64
    }
}

/// `iriw+3w` with `sync` between each reader's two loads — the classic
/// `iriw+syncs` shape the paper forbids on Power (Fig 20), scaled to 3
/// writes per location. The envelope's frozen lower bound already carries
/// the fences, so the pessimistic pass contradicts on its base check; the
/// fallback baseline grinds through every coherence completion of the
/// 3-write chains (po-loc seeding is part of the saturation path it
/// skipped) before conceding.
fn query_iriw_3w_syncs() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::Power, "iriw+3w+syncs")
        .thread(vec![Op::W("x", 1), Op::W("x", 2), Op::W("x", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::W("y", 1), Op::W("y", 2), Op::W("y", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::R("y"), Op::R("x")], vec![Dev::F(Fence::Sync)])
        .thread(vec![Op::R("x"), Op::R("y")], vec![Dev::F(Fence::Sync)])
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([
            ((2, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((2, herd_litmus::Reg(2)), RegFinal::Int(0)),
            ((3, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((3, herd_litmus::Reg(2)), RegFinal::Int(0)),
        ]),
        mem: BTreeMap::new(),
    };
    (test, outcome)
}

/// `wrc+6w` with the 6 ballast writes po-ordered on one thread and a
/// probe pinning the po-earliest of them coherence-last — forbidden by
/// SC PER LOCATION alone. The envelope path's po-loc write seeding makes
/// the forced order cyclic, so the frozen base check contradicts
/// immediately; the fallback baseline (no seeding) enumerates the
/// remaining writes' 6! completions and checks every one.
fn query_wrc_6w_po() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::Power, "wrc+6w+po")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data])
        .thread(
            vec![
                Op::W("x", 2),
                Op::W("x", 3),
                Op::W("x", 4),
                Op::W("x", 5),
                Op::W("x", 6),
                Op::W("x", 7),
            ],
            vec![Dev::Po; 5],
        )
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([((1, herd_litmus::Reg(1)), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 2)]),
    };
    (test, outcome)
}

fn bench_frontier_speed(
    name: &str,
    test: &LitmusTest,
    probe: &Outcome,
    gated: bool,
    reps: usize,
) -> FrontierSpeedRow {
    let opts = EnumOptions::default();
    let power = Power::new();
    let baseline = FallbackPower(Power::new());
    let (fallback_ns, base) =
        best_of(reps, || decide_outcome(test, &baseline, &opts, probe).expect("baseline decides"));
    let (envelope_ns, decision) =
        best_of(reps, || decide_outcome(test, &power, &opts, probe).expect("envelope decides"));
    // Differential pin: the envelope never changes an answer, and the
    // baseline really took the enumeration road.
    assert_eq!(decision.allowed, base.allowed, "{name}: envelope changed the verdict");
    assert!(base.stats.backend.fallbacks > 0, "{name}: the baseline never fell back");
    assert_eq!(
        base.stats.backend.conditional_definitive, 0,
        "{name}: the baseline has no envelope"
    );
    FrontierSpeedRow {
        name: name.to_owned(),
        allowed: decision.allowed,
        fallback_ns,
        envelope_ns,
        definitive: decision.stats.backend.conditional_definitive,
        residue: decision.stats.backend.fallbacks,
        gated,
    }
}

fn bench_frontier_speeds(reps: usize) -> Vec<FrontierSpeedRow> {
    let (iriw_syncs, iriw_syncs_probe) = query_iriw_3w_syncs();
    let (wrc_po, wrc_po_probe) = query_wrc_6w_po();
    vec![
        bench_frontier_speed("iriw+3w+syncs/forbidden", &iriw_syncs, &iriw_syncs_probe, true, reps),
        bench_frontier_speed("wrc+6w+po/forbidden", &wrc_po, &wrc_po_probe, true, reps),
    ]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_opt(v: Option<u128>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| x.to_string())
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    path: &str,
    pr: u64,
    mode: &str,
    pipeline: &[PipelineRow],
    thinair: &[ThinAirRow],
    wide: &[WideRow],
    sched: &[SchedRow],
    models: &[ModelRow],
    corpus: &CorpusRow,
    queries: &[QueryRow],
    robust: &[RobustRow],
    batch: &[BatchRow],
    frontier_corpus: &[FrontierCorpusRow],
    frontier_speed: &[FrontierSpeedRow],
) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"pr\": {pr},\n  \"bench\": \"perf_pipeline\",\n"));
    j.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    j.push_str("  \"pipeline\": [\n");
    for (i, r) in pipeline.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"candidates\": {}, \"emitted\": {}, \"pruned\": {}, \
             \"pruned_fraction\": {:.4}, \"allowed\": {}, \"eager_ns\": {}, \"arena_ns\": {}, \
             \"speedup_arena\": {:.2}}}{}\n",
            json_escape(&r.name),
            r.candidates,
            r.emitted,
            r.pruned,
            r.pruned_fraction(),
            r.allowed,
            r.eager_ns,
            r.arena_ns,
            r.speedup_arena(),
            if i + 1 < pipeline.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n  \"thinair\": [\n");
    for (i, r) in thinair.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"candidates\": {}, \"emitted_uniproc\": {}, \
             \"emitted_thinair\": {}, \"pruned_thinair\": {}, \"thinair_fraction\": {:.4}, \
             \"allowed\": {}, \"uniproc_ns\": {}, \"thinair_ns\": {}, \
             \"speedup_thinair\": {:.2}}}{}\n",
            json_escape(&r.name),
            r.candidates,
            r.emitted_uniproc,
            r.emitted_thinair,
            r.pruned_thinair,
            r.thinair_fraction(),
            r.allowed,
            r.uniproc_ns,
            r.thinair_ns,
            r.speedup(),
            if i + 1 < thinair.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    // The width-generic section (PR 8): like "query" and "robust",
    // invisible to the `--compare` parser, so older BENCH files stay
    // comparable. (The wide thin-air families also appear in the
    // "thinair" section above, which compare gates from PR 9 on.)
    j.push_str("  \"wide\": [\n");
    for (i, r) in wide.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"words_per_row\": {}, \
             \"candidates\": {}, \"emitted_uniproc\": {}, \"emitted\": {}, \"pruned\": {}, \
             \"allowed\": {}, \"unpruned_locations\": {}, \"thinair_fraction\": {:.4}, \
             \"uniproc_ns\": {}, \"arena_ns\": {}}}{}\n",
            json_escape(&r.name),
            r.events,
            r.words_per_row,
            r.candidates,
            r.emitted_uniproc,
            r.emitted,
            r.pruned,
            r.allowed,
            r.unpruned_locations,
            r.thinair_fraction(),
            r.uniproc_ns,
            r.arena_ns,
            if i + 1 < wide.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"sched\": [\n");
    for (i, r) in sched.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"candidates\": {}, \"plan_workers\": {}, \"cores\": {}, \
             \"units\": {}, \"co_units\": {}, \"static_speedup\": {:.2}, \
             \"sched_speedup\": {:.2}, \"efficiency\": {:.3}, \"static_ns\": {}, \
             \"sched_ns\": {}}}{}\n",
            json_escape(&r.name),
            r.candidates,
            r.plan_workers,
            r.cores,
            r.units,
            r.co_units,
            r.static_speedup,
            r.sched_speedup,
            r.efficiency(),
            json_opt(r.static_ns),
            json_opt(r.sched_ns),
            if i + 1 < sched.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"models\": [\n");
    for (i, r) in models.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"model\": \"{}\", \"execs\": {}, \"tree_ns\": {}, \"compiled_ns\": {}, \
             \"speedup\": {:.2}, \"checks_per_sec\": {:.0}}}{}\n",
            json_escape(&r.model),
            r.execs,
            r.tree_ns,
            r.compiled_ns,
            r.speedup(),
            r.checks_per_sec(),
            if i + 1 < models.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    // The single-outcome query section (PR 6): the `--compare` parser
    // only reads the "pipeline" and "thinair" sections, so this addition
    // is compare-safe against every earlier BENCH file.
    j.push_str("  \"query\": [\n");
    for (i, r) in queries.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"arch\": \"{}\", \"allowed\": {}, \"enum_ns\": {}, \
             \"backend_ns\": {}, \"speedup\": {:.2}, \"rf_space\": {}, \"rf_configs\": {}, \
             \"fallbacks\": {}}}{}\n",
            json_escape(&r.name),
            json_escape(&r.arch),
            r.allowed,
            r.enum_ns,
            r.backend_ns,
            r.speedup(),
            r.rf_space,
            r.rf_configs,
            r.fallbacks,
            if i + 1 < queries.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    // The budget-overhead section (PR 7): like "query", invisible to the
    // `--compare` parser, so older BENCH files stay comparable.
    j.push_str("  \"robust\": [\n");
    for (i, r) in robust.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"candidates\": {}, \"plain_ns\": {}, \
             \"budgeted_ns\": {}, \"overhead\": {:.4}}}{}\n",
            json_escape(&r.name),
            r.candidates,
            r.plain_ns,
            r.budgeted_ns,
            r.overhead(),
            if i + 1 < robust.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    // The batched-judging section (PR 9): like "query" and "robust",
    // invisible to the `--compare` parser, so older BENCH files stay
    // comparable.
    j.push_str("  \"batch\": [\n");
    for (i, r) in batch.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"arch\": \"{}\", \"rows\": {}, \"distinct\": {}, \
             \"perrow_ns\": {}, \"batch_ns\": {}, \"batch_speedup\": {}, \"cold_ns\": {}, \
             \"warm_ns\": {}, \"cold_row_ns\": {:.0}, \"warm_row_ns\": {:.0}, \
             \"warm_speedup\": {:.2}, \"classes\": {}, \"saturations\": {}, \"reused\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_insertions\": {}, \
             \"cache_evictions\": {}}}{}\n",
            json_escape(&r.name),
            json_escape(&r.arch),
            r.rows,
            r.distinct,
            json_opt(r.perrow_ns),
            r.batch_ns,
            r.batch_speedup().map_or_else(|| "null".to_owned(), |s| format!("{s:.2}")),
            r.cold_ns,
            r.warm_ns,
            r.cold_row_ns(),
            r.warm_row_ns(),
            r.warm_speedup(),
            r.classes,
            r.saturations,
            r.reused,
            r.cache_hits,
            r.cache_misses,
            r.cache_insertions,
            r.cache_evictions,
            if i + 1 < batch.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    // The conditional-saturation section (PR 10): like "query", "robust"
    // and "batch", invisible to the `--compare` parser, so older BENCH
    // files stay comparable. Records the corpus-wide frontier fallback
    // rate per architecture and the envelope-vs-pure-fallback timings.
    j.push_str("  \"frontier\": [\n");
    for (i, r) in frontier_corpus.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"arch\": \"{}\", \"tests\": {}, \"queries\": {}, \"definitive\": {}, \
             \"envelope_fallbacks\": {}, \"fallbacks\": {}, \"fallback_rate\": {:.4}, \
             \"definitive_fraction\": {:.4}, \"decide_ns\": {}}}{}\n",
            json_escape(&r.arch),
            r.tests,
            r.queries,
            r.definitive,
            r.envelope_fallbacks,
            r.fallbacks,
            r.fallback_rate(),
            r.definitive_fraction(),
            r.decide_ns,
            if i + 1 < frontier_corpus.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"frontier_speed\": [\n");
    for (i, r) in frontier_speed.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"allowed\": {}, \"fallback_ns\": {}, \"envelope_ns\": {}, \
             \"speedup\": {:.2}, \"definitive\": {}, \"residue_fallbacks\": {}, \
             \"gated\": {}}}{}\n",
            json_escape(&r.name),
            r.allowed,
            r.fallback_ns,
            r.envelope_ns,
            r.speedup(),
            r.definitive,
            r.residue,
            r.gated,
            if i + 1 < frontier_speed.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"corpus\": {{\"tests\": {}, \"candidates\": {}, \"pruned\": {}, \
         \"sequential_ns\": {}, \"parallel_ns\": {}, \"workers\": {}, \
         \"candidates_per_sec\": {:.0}}}\n",
        corpus.tests,
        corpus.candidates,
        corpus.pruned,
        corpus.sequential_ns,
        json_opt(corpus.parallel_ns),
        corpus.workers,
        corpus.candidates_per_sec(),
    ));
    j.push_str("}\n");
    std::fs::write(path, j).expect("write bench JSON");
    println!("\nwrote {path}");
}

/// Regression thresholds (ROADMAP): heavily-pruning IRIW/2+2W rows must
/// hold 5x over eager, heavily-cyclic lb+datas rows must hold 2x over
/// uniproc-only pruning, and on co-heavy (co-split) scheduler rows the
/// hierarchical plan must balance ≥1.5x better than the static rf-prefix
/// split — measured wall-clock included whenever ≥4 real cores exist —
/// and a never-firing budget must cost < 5% over the unbudgeted arena
/// engine. The wide rows (PR 8) must keep both pruning axes live past
/// the old 64-event ceiling: no unpruned locations, thin air strictly
/// below the uniproc-only count, and at least one row at ≥ 128 events.
/// The batch rows (PR 9) must hold `decide_log` ≥ 10x over row-at-a-time
/// judging on a ≥ 100k-row log, and some cache row must show a warm
/// verdict lookup ≥ 100x cheaper than the cold decide. The frontier rows
/// (PR 10) must keep the Power/ARM corpus fallback rate ≤ 20% with a
/// definitive fraction ≥ 80%, and the gated envelope-vs-fallback probes
/// must hold ≥ 5x over the pure-enumeration baseline. Returns the
/// violations.
#[allow(clippy::too_many_arguments)]
fn gate_violations(
    pipeline: &[PipelineRow],
    thinair: &[ThinAirRow],
    wide: &[WideRow],
    sched: &[SchedRow],
    queries: &[QueryRow],
    robust: &[RobustRow],
    batch: &[BatchRow],
    frontier_corpus: &[FrontierCorpusRow],
    frontier_speed: &[FrontierSpeedRow],
) -> Vec<String> {
    let mut bad = Vec::new();
    for r in frontier_corpus {
        if r.fallbacks >= r.queries {
            bad.push(format!(
                "frontier {}: every query fell back ({}/{})",
                r.arch, r.fallbacks, r.queries
            ));
        }
        if r.fallback_rate() > 0.20 {
            bad.push(format!(
                "frontier {}: corpus fallback rate {:.1}% (> 20%)",
                r.arch,
                100.0 * r.fallback_rate()
            ));
        }
        if r.definitive_fraction() < 0.80 {
            bad.push(format!(
                "frontier {}: envelope settled only {:.1}% of queries (< 80%)",
                r.arch,
                100.0 * r.definitive_fraction()
            ));
        }
    }
    for r in frontier_speed {
        if r.gated && r.speedup() < 5.0 {
            bad.push(format!(
                "frontier {}: envelope only {:.2}x over the pure-fallback baseline (< 5x)",
                r.name,
                r.speedup()
            ));
        }
    }
    for r in batch {
        if r.rows < 100_000 {
            bad.push(format!("{}: synthetic log has {} rows (< 100k)", r.name, r.rows));
        }
        if let Some(s) = r.batch_speedup() {
            if s < 10.0 {
                bad.push(format!(
                    "{}: decide_log only {s:.2}x over row-at-a-time judging (< 10x)",
                    r.name
                ));
            }
        }
    }
    if !batch.is_empty() && !batch.iter().any(|r| r.warm_speedup() >= 100.0) {
        bad.push(format!(
            "batch: no row reaches 100x warm-over-cold verdict lookup (best {:.1}x)",
            batch.iter().map(BatchRow::warm_speedup).fold(0.0, f64::max)
        ));
    }
    if !wide.iter().any(|r| r.events >= 128) {
        bad.push("wide: no family reaches 128 events — the ceiling row is missing".to_owned());
    }
    for r in wide {
        if r.unpruned_locations != 0 {
            bad.push(format!(
                "{}: {} location(s) streamed unpruned at {} events",
                r.name, r.unpruned_locations, r.events
            ));
        }
        if r.emitted >= r.emitted_uniproc {
            bad.push(format!(
                "{}: thin air did not cut below uniproc-only ({} vs {}) at {} events",
                r.name, r.emitted, r.emitted_uniproc, r.events
            ));
        }
    }
    for r in robust {
        if r.overhead() >= 1.05 {
            bad.push(format!(
                "{}: budget checks cost {:.1}% over the unbudgeted arena engine (>= 5%)",
                r.name,
                100.0 * (r.overhead() - 1.0)
            ));
        }
    }
    for r in queries {
        // Every query row runs a polynomial-side model (SC/TSO): the
        // backend must beat the full enumeration scan by 10x and never
        // leave the saturation path.
        if r.speedup() < 10.0 {
            bad.push(format!(
                "{} on {}: backend query only {:.2}x over the enumeration scan (< 10x)",
                r.name,
                r.arch,
                r.speedup()
            ));
        }
        if r.fallbacks != 0 {
            bad.push(format!(
                "{} on {}: {} enumeration fallbacks on a polynomial-side model",
                r.name, r.arch, r.fallbacks
            ));
        }
    }
    for r in sched {
        if r.co_units == 0 {
            continue; // rf-heavy control rows: both schemes balance
        }
        if r.balance_ratio() < 1.5 {
            bad.push(format!(
                "{}: scheduler balance {:.2}x static {:.2}x — ratio {:.2} < 1.5 on a co-heavy \
                 workload",
                r.name,
                r.sched_speedup,
                r.static_speedup,
                r.balance_ratio()
            ));
        }
        if r.cores >= 4 {
            if let Some(ratio) = r.measured_ratio() {
                if ratio < 1.5 {
                    bad.push(format!(
                        "{}: measured sched wall-clock only {ratio:.2}x over the static split on \
                         {} cores (< 1.5x)",
                        r.name, r.cores
                    ));
                }
            }
        }
    }
    for r in pipeline {
        if r.pruned_fraction() >= 0.9 && r.speedup_arena() < 5.0 {
            bad.push(format!(
                "{}: speedup_arena {:.2}x < 5x at {:.0}% pruned",
                r.name,
                r.speedup_arena(),
                100.0 * r.pruned_fraction()
            ));
        }
    }
    for r in thinair {
        if r.thinair_fraction() >= 0.5 && r.speedup() < 2.0 {
            bad.push(format!(
                "{}: speedup_thinair {:.2}x < 2x at {:.0}% of uniproc-kept candidates cyclic",
                r.name,
                r.speedup(),
                100.0 * r.thinair_fraction()
            ));
        }
    }
    bad
}

/// One parsed `BENCH_pr<N>.json`, reduced to what `--compare` consumes.
struct BenchFile {
    pr: u64,
    /// Pipeline rows: `(family, effective ns)` — the arena engine's
    /// `arena_ns` when the file records one, the pre-arena pruned stream's
    /// `pruned_ns` in files that predate the arena engine.
    pipeline: Vec<(String, u128)>,
    /// Thin-air rows: `(family, thinair_ns)`.
    thinair: Vec<(String, u128)>,
}

impl BenchFile {
    /// The family's *effective pruned-stream* time: the arena engine when
    /// the file records one, the pre-arena pruned stream otherwise — the
    /// series the cross-PR regression gate runs on.
    fn effective(&self, family: &str) -> Option<u128> {
        self.pipeline.iter().find(|(n, _)| n == family).map(|&(_, ns)| ns)
    }

    fn thinair_ns(&self, family: &str) -> Option<u128> {
        self.thinair.iter().find(|(n, _)| n == family).map(|&(_, ns)| ns)
    }
}

/// Extracts `"key": 123` from one emitted JSON line.
fn field_u128(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "value"` from one emitted JSON line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// Parses one bench JSON by the line discipline `emit_json` writes (one
/// row object per line, section headers on their own lines) — the same
/// shape every `BENCH_pr*.json` since PR 2 has.
fn parse_bench(path: &std::path::Path) -> Option<BenchFile> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Pipeline,
        Thinair,
    }
    let text = std::fs::read_to_string(path).ok()?;
    let pr = u64::try_from(field_u128(&text, "pr")?).ok()?;
    let mut section = Section::None;
    let mut pipeline = Vec::new();
    let mut thinair = Vec::new();
    for line in text.lines() {
        if line.contains("\"pipeline\": [") {
            section = Section::Pipeline;
            continue;
        }
        if line.contains("\"thinair\": [") {
            section = Section::Thinair;
            continue;
        }
        if line.trim_start().starts_with(']') {
            section = Section::None;
            continue;
        }
        match section {
            Section::Pipeline => {
                let ns = field_u128(line, "arena_ns").or_else(|| field_u128(line, "pruned_ns"));
                if let (Some(name), Some(ns)) = (field_str(line, "name"), ns) {
                    pipeline.push((name, ns));
                }
            }
            Section::Thinair => {
                if let (Some(name), Some(ns)) =
                    (field_str(line, "name"), field_u128(line, "thinair_ns"))
                {
                    thinair.push((name, ns));
                }
            }
            Section::None => {}
        }
    }
    Some(BenchFile { pr, pipeline, thinair })
}

/// Cross-PR regression tolerance for the effective pruned-stream series:
/// quick-mode single-rep timings are noisy, so only a slowdown beyond
/// this factor counts as a regression.
const COMPARE_TOLERANCE: f64 = 1.35;

/// `--compare`: reads every `BENCH_pr*.json` in the working directory,
/// prints the per-family speedup trajectory across PRs, and (with
/// `--gate`) fails on an effective pruned-row regression between the two
/// newest files.
fn run_compare(gate: bool) {
    let scan = |dir: &std::path::Path| -> Vec<BenchFile> {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name().into_string().ok()?;
                (name.starts_with("BENCH_pr") && name.ends_with(".json"))
                    .then(|| parse_bench(&e.path()))
                    .flatten()
            })
            .collect()
    };
    // Cargo runs bench binaries with the package as working directory;
    // the BENCH files live at the workspace root. Try the cwd first (so
    // direct invocations from the root work), then hop up from the
    // manifest.
    let mut files = scan(std::path::Path::new("."));
    if files.is_empty() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            files = scan(&std::path::Path::new(&manifest).join("..").join(".."));
        }
    }
    files.sort_by_key(|f| f.pr);
    if files.is_empty() {
        eprintln!("--compare: no BENCH_pr*.json files found");
        std::process::exit(1);
    }

    // Family order: first appearance across the PR series.
    let mut families: Vec<String> = Vec::new();
    for f in &files {
        for (name, _) in &f.pipeline {
            if !families.contains(name) {
                families.push(name.clone());
            }
        }
    }

    println!("perf trajectory — effective pruned-stream time per family (arena engine once");
    println!("a file records one, the pre-arena pruned stream before); ×N is the speedup");
    println!("over the previous PR's file.\n");
    print!("{:<12}", "family");
    for f in &files {
        print!(" {:>16}", format!("PR {}", f.pr));
    }
    println!();
    for family in &families {
        print!("{family:<12}");
        let mut prev: Option<u128> = None;
        for f in &files {
            match f.effective(family) {
                Some(ns) => {
                    let cell = match prev {
                        Some(p) if ns > 0 => {
                            format!(
                                "{:.2}ms {:>5}",
                                ns as f64 / 1e6,
                                format!("×{:.1}", p as f64 / ns as f64)
                            )
                        }
                        _ => format!("{:.2}ms", ns as f64 / 1e6),
                    };
                    print!(" {cell:>16}");
                    prev = Some(ns);
                }
                None => print!(" {:>16}", "—"),
            }
        }
        println!();
    }

    // Thin-air families, same discipline.
    let mut ta_families: Vec<String> = Vec::new();
    for f in &files {
        for (name, _) in &f.thinair {
            if !ta_families.contains(name) {
                ta_families.push(name.clone());
            }
        }
    }
    if !ta_families.is_empty() {
        println!();
        for family in &ta_families {
            print!("{family:<12}");
            let mut prev: Option<u128> = None;
            for f in &files {
                match f.thinair_ns(family) {
                    Some(ns) => {
                        let cell = match prev {
                            Some(p) if ns > 0 => format!(
                                "{:.2}ms {:>5}",
                                ns as f64 / 1e6,
                                format!("×{:.1}", p as f64 / ns as f64)
                            ),
                            _ => format!("{:.2}ms", ns as f64 / 1e6),
                        };
                        print!(" {cell:>16}");
                        prev = Some(ns);
                    }
                    None => print!(" {:>16}", "—"),
                }
            }
            println!();
        }
    }

    // Gate: the newest file must not regress the effective pruned series
    // against its predecessor on any family both record.
    if files.len() < 2 {
        println!("\nonly one data point: nothing to gate against");
        return;
    }
    let (prev, last) = (&files[files.len() - 2], &files[files.len() - 1]);
    let mut violations = Vec::new();
    for family in &families {
        if let (Some(p), Some(l)) = (prev.effective(family), last.effective(family)) {
            if (l as f64) > (p as f64) * COMPARE_TOLERANCE {
                violations.push(format!(
                    "{family}: effective pruned {:.2}ms (PR {}) -> {:.2}ms (PR {}) exceeds the \
                     {COMPARE_TOLERANCE}x tolerance",
                    p as f64 / 1e6,
                    prev.pr,
                    l as f64 / 1e6,
                    last.pr
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("\ncompare gate: PR {} holds every family of PR {}", last.pr, prev.pr);
        return;
    }
    eprintln!("\ncompare gate (PR {} vs PR {}):", last.pr, prev.pr);
    for v in &violations {
        eprintln!("  FAIL {v}");
    }
    if gate {
        std::process::exit(1);
    }
    eprintln!("  (--gate not set: not failing the run)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    if args.iter().any(|a| a == "--compare") {
        run_compare(gate);
        return;
    }
    let json = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let pr: u64 = args
        .iter()
        .position(|a| a == "--pr")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("PR_NUMBER").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let reps = if quick { 1 } else { 3 };

    // Same workload set in both modes (so the refreshed BENCH_pr<N>.json
    // rows stay comparable PR over PR); quick mode only drops repetitions.
    let workloads: Vec<(String, Skeleton)> = vec![
        ("iriw".into(), iriw_scaled(1)),
        ("iriw+2w".into(), iriw_scaled(2)),
        ("2+2w".into(), two_plus_two_w_scaled(1)),
        ("2+2w+2w".into(), two_plus_two_w_scaled(2)),
        ("iriw+3w".into(), iriw_scaled(3)),
        ("wrc+6w".into(), wrc_scaled(6)),
    ];

    println!(
        "{:<10} {:>10} {:>8} {:>7} {:>12} {:>12} {:>8}",
        "test", "cands", "pruned%", "allowed", "eager", "arena", "xarena"
    );
    let mut pipeline = Vec::new();
    for (name, sk) in &workloads {
        let row = bench_pipeline(name, sk, reps);
        println!(
            "{:<10} {:>10} {:>7.1}% {:>7} {:>10.2}ms {:>10.2}ms {:>7.1}x",
            row.name,
            row.candidates,
            100.0 * row.pruned_fraction(),
            row.allowed,
            row.eager_ns as f64 / 1e6,
            row.arena_ns as f64 / 1e6,
            row.speedup_arena(),
        );
        pipeline.push(row);
    }

    // The thin-air axis: lb+datas rings whose all-non-init rf choices are
    // hb-cyclic, compared against uniproc-only pruning.
    let ta_workloads: Vec<(String, Skeleton)> = vec![
        ("lb+datas".into(), lb_datas_scaled(3, 2)),
        ("lb+datas+6w".into(), lb_datas_scaled(3, 6)),
        // The width-generic families (PR 8): same thin-air discipline on
        // 2-word and 3-word event universes — these rows join the
        // cross-PR compare series from this file on.
        ("lb+68ev".into(), lb_ballast_scaled(14)),
        ("lb+132ev".into(), lb_ballast_scaled(30)),
    ];
    println!(
        "\n{:<12} {:>16} {:>8} {:>8} {:>12} {:>12} {:>8}",
        "test", "cands", "uni-emit", "ta-emit", "uniproc", "thinair", "xthinair"
    );
    let mut thinair = Vec::new();
    for (name, sk) in &ta_workloads {
        let row = bench_thinair(name, sk, reps);
        println!(
            "{:<12} {:>16} {:>8} {:>8} {:>10.2}ms {:>10.2}ms {:>7.1}x",
            row.name,
            row.candidates,
            row.emitted_uniproc,
            row.emitted_thinair,
            row.uniproc_ns as f64 / 1e6,
            row.thinair_ns as f64 / 1e6,
            row.speedup(),
        );
        thinair.push(row);
    }

    // The width-generic rows: both pruning axes past the 64-event mask
    // ceiling, on the same lb+ballast universes the thin-air table just
    // timed (68 events = 2-word rows, 132 = 3-word).
    let wide_workloads: Vec<(String, Skeleton)> =
        vec![("lb+68ev".into(), lb_ballast_scaled(14)), ("lb+132ev".into(), lb_ballast_scaled(30))];
    println!(
        "\n{:<10} {:>6} {:>5} {:>22} {:>8} {:>8} {:>7} {:>12} {:>12}",
        "wide", "events", "words", "cands", "uni-emit", "emitted", "allowed", "uniproc", "arena"
    );
    let mut wide = Vec::new();
    for (name, sk) in &wide_workloads {
        let row = bench_wide(name, sk, reps);
        println!(
            "{:<10} {:>6} {:>5} {:>22} {:>8} {:>8} {:>7} {:>10.2}ms {:>10.2}ms",
            row.name,
            row.events,
            row.words_per_row,
            row.candidates,
            row.emitted_uniproc,
            row.emitted,
            row.allowed,
            row.uniproc_ns as f64 / 1e6,
            row.arena_ns as f64 / 1e6,
        );
        wide.push(row);
    }

    // The hierarchical scheduler vs the static split: wrc+Nw is the
    // co-heavy family the scheduler exists for (the static split can fill
    // at most 2 workers there), iriw+3w the rf-heavy control where both
    // schemes balance.
    let sched_rows = vec![
        bench_sched("wrc+6w", &wrc_scaled(6), reps),
        bench_sched("iriw+3w", &iriw_scaled(3), reps),
    ];
    println!(
        "\n{:<10} {:>8} {:>6} {:>9} {:>3} {:>9} {:>9} {:>6}  measured",
        "scheduler", "cands", "units", "co-units", "w", "static-x", "sched-x", "eff"
    );
    for r in &sched_rows {
        let measured = match (r.static_ns, r.sched_ns) {
            (Some(s), Some(w)) => format!(
                "static {:.2}ms / sched {:.2}ms ({:.2}x) on {} cores",
                s as f64 / 1e6,
                w as f64 / 1e6,
                r.measured_ratio().expect("both measured"),
                r.cores
            ),
            _ => "1 core: no wall-clock to report".to_owned(),
        };
        println!(
            "{:<10} {:>8} {:>6} {:>9} {:>3} {:>8.2}x {:>8.2}x {:>6.2}  {measured}",
            r.name,
            r.candidates,
            r.units,
            r.co_units,
            r.plan_workers,
            r.static_speedup,
            r.sched_speedup,
            r.efficiency(),
        );
    }

    println!(
        "\n{:<16} {:>7} {:>12} {:>12} {:>8} {:>14}",
        "model", "execs", "tree", "compiled", "x", "checks/s"
    );
    let models = bench_models(reps);
    for r in &models {
        println!(
            "{:<16} {:>7} {:>10.2}ms {:>10.2}ms {:>7.1}x {:>14.0}",
            r.model,
            r.execs,
            r.tree_ns as f64 / 1e6,
            r.compiled_ns as f64 / 1e6,
            r.speedup(),
            r.checks_per_sec(),
        );
    }

    // Single-outcome queries: the consistency backend against the full
    // enumeration scan, on the scaled families' litmus-level twins.
    let queries = bench_queries(reps);
    println!(
        "\n{:<20} {:<6} {:>8} {:>12} {:>12} {:>8} {:>9} {:>4}",
        "query", "arch", "allowed", "enum", "backend", "x", "rf-space", "rf"
    );
    for r in &queries {
        println!(
            "{:<20} {:<6} {:>8} {:>10.3}ms {:>10.3}ms {:>7.1}x {:>9} {:>4}",
            r.name,
            r.arch,
            r.allowed,
            r.enum_ns as f64 / 1e6,
            r.backend_ns as f64 / 1e6,
            r.speedup(),
            r.rf_space,
            r.rf_configs,
        );
    }

    // Budget-check overhead on the two biggest families: a never-firing
    // budget threaded through the arena engine must be nearly free.
    let robust_rows = vec![
        bench_robust("iriw+3w", &iriw_scaled(3), reps),
        bench_robust("wrc+6w", &wrc_scaled(6), reps),
    ];
    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>9}",
        "robust", "cands", "plain", "budgeted", "overhead"
    );
    for r in &robust_rows {
        println!(
            "{:<10} {:>10} {:>10.2}ms {:>10.2}ms {:>+8.1}%",
            r.name,
            r.candidates,
            r.plain_ns as f64 / 1e6,
            r.budgeted_ns as f64 / 1e6,
            100.0 * (r.overhead() - 1.0),
        );
    }

    // Batched log judging + the verdict cache: a synthetic 100k-row
    // campaign log through the memoised query layer.
    let batch_rows = bench_batches(reps);
    println!(
        "\n{:<14} {:<5} {:>7} {:>4} {:>10} {:>10} {:>7} {:>9} {:>9} {:>8} {:>4} {:>4} {:>6}",
        "batch",
        "arch",
        "rows",
        "dis",
        "perrow",
        "batch",
        "xbatch",
        "cold/row",
        "warm/row",
        "xwarm",
        "cls",
        "sat",
        "reuse"
    );
    for r in &batch_rows {
        println!(
            "{:<14} {:<5} {:>7} {:>4} {:>10} {:>8.2}ms {:>7} {:>7.1}µs {:>7.2}µs {:>7.1}x \
             {:>4} {:>4} {:>6}",
            r.name,
            r.arch,
            r.rows,
            r.distinct,
            r.perrow_ns.map_or_else(|| "—".to_owned(), |ns| format!("{:.2}ms", ns as f64 / 1e6)),
            r.batch_ns as f64 / 1e6,
            r.batch_speedup().map_or_else(|| "—".to_owned(), |s| format!("{s:.1}x")),
            r.cold_row_ns() / 1e3,
            r.warm_row_ns() / 1e3,
            r.warm_speedup(),
            r.classes,
            r.saturations,
            r.reused,
        );
    }

    // The tractability frontier (PR 10): conditional saturation on the
    // Power/ARM corpus (how much of the weak-model workload the ppo
    // envelope settles without enumeration) and the envelope-vs-fallback
    // probes against the pre-envelope Power routing.
    let frontier_corpus = bench_frontier_corpus(reps);
    println!(
        "\n{:<18} {:>6} {:>8} {:>11} {:>9} {:>10} {:>9} {:>12}",
        "frontier", "tests", "queries", "definitive", "fallback", "rate", "def%", "decide"
    );
    for r in &frontier_corpus {
        println!(
            "{:<18} {:>6} {:>8} {:>11} {:>9} {:>9.1}% {:>8.1}% {:>10.2}ms",
            r.arch,
            r.tests,
            r.queries,
            r.definitive,
            r.fallbacks,
            100.0 * r.fallback_rate(),
            100.0 * r.definitive_fraction(),
            r.decide_ns as f64 / 1e6,
        );
    }
    let frontier_speed = bench_frontier_speeds(reps);
    println!(
        "\n{:<24} {:>8} {:>12} {:>12} {:>8} {:>11} {:>8}",
        "frontier speed", "allowed", "fallback", "envelope", "x", "definitive", "residue"
    );
    for r in &frontier_speed {
        println!(
            "{:<24} {:>8} {:>10.3}ms {:>10.3}ms {:>7.1}x {:>11} {:>8}",
            r.name,
            r.allowed,
            r.fallback_ns as f64 / 1e6,
            r.envelope_ns as f64 / 1e6,
            r.speedup(),
            r.definitive,
            r.residue,
        );
    }

    let corpus = bench_corpus(reps);
    match corpus.parallel_ns {
        Some(par) => println!(
            "\ncorpus: {} tests, {} candidates ({} pruned), sequential {:.2}ms, \
             parallel {:.2}ms on {} workers ({:.0} candidates/s)",
            corpus.tests,
            corpus.candidates,
            corpus.pruned,
            corpus.sequential_ns as f64 / 1e6,
            par as f64 / 1e6,
            corpus.workers,
            corpus.candidates_per_sec(),
        ),
        None => println!(
            "\ncorpus: {} tests, {} candidates ({} pruned), sequential {:.2}ms on 1 worker \
             ({:.0} candidates/s); no parallel number to report",
            corpus.tests,
            corpus.candidates,
            corpus.pruned,
            corpus.sequential_ns as f64 / 1e6,
            corpus.candidates_per_sec(),
        ),
    }

    if let Some(path) = json {
        emit_json(
            &path,
            pr,
            if quick { "quick" } else { "full" },
            &pipeline,
            &thinair,
            &wide,
            &sched_rows,
            &models,
            &corpus,
            &queries,
            &robust_rows,
            &batch_rows,
            &frontier_corpus,
            &frontier_speed,
        );
    }

    let violations = gate_violations(
        &pipeline,
        &thinair,
        &wide,
        &sched_rows,
        &queries,
        &robust_rows,
        &batch_rows,
        &frontier_corpus,
        &frontier_speed,
    );
    if !violations.is_empty() {
        eprintln!("\nperf regression gate:");
        for v in &violations {
            eprintln!("  FAIL {v}");
        }
        if gate {
            std::process::exit(1);
        }
        eprintln!("  (--gate not set: not failing the run)");
    }
}
