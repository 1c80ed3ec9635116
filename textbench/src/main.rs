//! The text-in benchmark of the herd layers.
//!
//! ```text
//! cargo run --release --manifest-path textbench/Cargo.toml -- \
//!     --workload <litmus-sweep|cat-sweep|hw-logs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded client in a closed loop: each request is sent
//! only after the previous one completed. The seed drives the inputs and
//! the request order; the program receives only their text. Every
//! verdict is checked against a reference computed before timing starts.
//! The last line of standard output is one JSON object with the verdict
//! check (`correct`, `attempted`, `failed`) and the metrics: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. See
//! README.md for the metric definitions.

mod inputs;
mod trace;
mod workloads;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Req, Tracer, NO_PARENT};
use workloads::{CatSweep, HwLogs, LitmusSweep, Workload};

/// Share of each ISA's diy tests in the sweeps' litmus pool.
const DIY_SHARE: f64 = 0.5;
/// Litmus texts paired with every cat file in cat-sweep.
const CAT_TESTS: usize = 150;
/// Failure messages printed before the result.
const SHOWN_FAILURES: usize = 10;

/// The closed loop's record: per-request latencies and outcomes, plus the
/// spans of a traced run.
pub struct Run {
    pub tracer: Tracer,
    /// Per request of a pass (by position), its fastest latency so far.
    /// Its size is fixed after the first pass, so the record does not grow
    /// with the run.
    pub best_latency_ns: Vec<u64>,
    /// Requests per pass, once the first pass has ended.
    per_pass: Option<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Queries of the requests that succeeded.
    pub queries: u64,
    pub failures: Vec<String>,
    /// Time spent in program calls since the current unit began: request
    /// latencies plus timed calls outside requests.
    pub program_ns: u64,
}

impl Run {
    fn new(traced: bool) -> Self {
        Run {
            tracer: Tracer::new(traced),
            best_latency_ns: Vec::new(),
            per_pass: None,
            attempted: 0,
            failed: 0,
            queries: 0,
            failures: Vec::new(),
            program_ns: 0,
        }
    }

    /// Times a program call made outside any request (a log parse).
    pub fn program_call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.open(name, NO_PARENT, self.attempted);
        let start = Instant::now();
        let out = f();
        self.program_ns += start.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        out
    }

    /// Sends one request of `queries` queries and waits for it, then
    /// checks its answer with `verify` outside the latency window. It
    /// fails if either returns an error or panics.
    pub fn request<T>(
        &mut self,
        queries: u64,
        call: impl FnOnce(&mut Req<'_>) -> Result<T, String>,
        verify: impl FnOnce(T) -> Result<(), String>,
    ) {
        let id = self.attempted;
        self.attempted += 1;
        let root = self.tracer.open("request", NO_PARENT, id);
        let tracer = &mut self.tracer;
        let mut latency = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let start = Instant::now();
            let answer = call(&mut Req { tracer, root, id });
            latency = start.elapsed().as_nanos() as u64;
            tracer.span("harness.verify", root, id, || verify(answer?))
        }));
        let slot = match self.per_pass {
            Some(n) => id as usize % n,
            None => {
                self.best_latency_ns.push(u64::MAX);
                id as usize
            }
        };
        self.best_latency_ns[slot] = self.best_latency_ns[slot].min(latency);
        self.program_ns += latency;
        self.tracer.close(root);
        let error = match outcome {
            Ok(Ok(())) => {
                self.queries += queries;
                return;
            }
            Ok(Err(e)) => e,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .map_or_else(|| "panic".to_owned(), |p| format!("panic: {p}")),
        };
        self.failed += 1;
        if self.failures.len() < SHOWN_FAILURES {
            self.failures.push(error);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One timed closed-loop run: its record and its fastest timings.
struct Measured {
    run: Run,
    /// Time spent in this run's passes.
    wall_s: f64,
    /// The exact counts of every complete pass over the inputs.
    passes: Vec<Vec<u128>>,
    /// Queries answered in the first pass.
    queries_per_pass: u64,
    /// Per unit, its fastest program time over the passes.
    best_unit_ns: Vec<u64>,
}

impl Measured {
    fn new(units: usize, traced: bool) -> Self {
        Measured {
            run: Run::new(traced),
            wall_s: 0.0,
            passes: Vec::new(),
            queries_per_pass: 0,
            best_unit_ns: vec![u64::MAX; units],
        }
    }

    /// Sends every unit of the inputs once, in `order`.
    fn pass<W: Workload>(&mut self, w: &W, state: &mut W::State, order: &[usize]) {
        let start = Instant::now();
        let mut counts = vec![0u128; W::COUNTS.len()];
        for (i, &unit) in order.iter().enumerate() {
            self.run.program_ns = 0;
            w.run_unit(state, unit, &mut self.run, &mut counts);
            self.best_unit_ns[i] = self.best_unit_ns[i].min(self.run.program_ns);
        }
        self.wall_s += start.elapsed().as_secs_f64();
        self.passes.push(counts);
        if self.passes.len() == 1 {
            self.queries_per_pass = self.run.queries;
        }
        let per_pass = *self.run.per_pass.get_or_insert(self.run.attempted as usize);
        assert_eq!(
            self.run.attempted as usize,
            self.passes.len() * per_pass,
            "every pass sends the same requests"
        );
    }

    /// Queries of one pass over the time the program spent on a pass,
    /// taking each unit at its fastest.
    fn queries_per_s(&self) -> f64 {
        let pass_ns: u64 = self.best_unit_ns.iter().sum();
        self.queries_per_pass as f64 / (pass_ns as f64 / 1e9)
    }
}

/// Runs one closed loop per lane (`true` for a traced lane), each with its
/// own program state. The lanes take turns pass by pass, so that each sees
/// the same machine, until `seconds` have passed and each lane has done two
/// passes. With `time_setup`, the set-up is also timed about every
/// twentieth of the run.
fn measure<W: Workload>(
    w: &W,
    order: &[usize],
    seconds: f64,
    lanes: &[bool],
    time_setup: bool,
) -> (Vec<Measured>, Vec<f64>) {
    let mut states: Vec<W::State> = lanes.iter().map(|_| w.setup()).collect();
    let mut runs: Vec<Measured> = lanes.iter().map(|&t| Measured::new(order.len(), t)).collect();
    let mut setup_samples = Vec::new();
    let sample_every = Duration::from_secs_f64(seconds / 20.0);
    let mut last_sample = Instant::now();
    let deadline = last_sample + Duration::from_secs_f64(seconds);
    loop {
        for (m, state) in runs.iter_mut().zip(&mut states) {
            m.pass(w, state, order);
        }
        let now = Instant::now();
        if time_setup && now - last_sample >= sample_every {
            setup_samples.push(setup_seconds(w));
            last_sample = Instant::now();
        }
        if runs[0].passes.len() >= 2 && now >= deadline {
            break;
        }
    }
    if time_setup && setup_samples.is_empty() {
        setup_samples.push(setup_seconds(w));
    }
    for (m, state) in runs.iter_mut().zip(&states) {
        w.layer_counters(state, &mut m.run);
    }
    (runs, setup_samples)
}

/// The time of one program-side set-up, timed as a batch of at least a
/// millisecond.
fn setup_seconds<W: Workload>(w: &W) -> f64 {
    let first = Instant::now();
    black_box(w.setup());
    let batch = (1e-3 / first.elapsed().as_secs_f64().max(1e-9)).ceil().min(1e6) as usize;
    let t = Instant::now();
    for _ in 0..batch {
        black_box(w.setup());
    }
    t.elapsed().as_secs_f64() / batch as f64
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where run records (exact counts, traces) are written.
fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// The per-layer metrics of a traced run beside its untraced twin.
fn layer_metrics(traced: &Measured, untraced: &Measured, failure_rate: f64) -> Vec<Metric> {
    let totals = traced.run.tracer.totals();
    let tr = &traced.run.tracer;
    let mean_ns = |name: &str| totals.get(name).map_or(0.0, |&(n, ns)| ns as f64 / n as f64);
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |&(_, ns)| ns as f64);
    // Harness spans (verification, the shadow cache) are the benchmark's
    // own work: they count neither as layer time nor as program time.
    let sum_ns = |keep: &dyn Fn(&str) -> bool| -> f64 {
        totals.iter().filter(|(name, _)| keep(name)).map(|(_, &(_, ns))| ns as f64).sum()
    };
    let harness_ns = sum_ns(&|n| n.starts_with("harness."));
    let layer_ns = sum_ns(&|n| n != "request" && !n.starts_with("harness."));
    let stream_candidates = tr.tallied("core.stream.candidates");
    vec![
        metric("litmus.parse.us", mean_ns("litmus.parse") / 1e3, "us"),
        metric("litmus.sem.us", mean_ns("litmus.sem") / 1e3, "us"),
        metric("core.stream.us", mean_ns("core.stream") / 1e3, "us"),
        metric(
            "core.stream.candidates_per_s",
            stream_candidates / (total_ns("core.stream") / 1e9),
            "1/s",
        ),
        metric(
            "core.stream.pruned_fraction",
            tr.tallied("core.stream.pruned") / stream_candidates,
            "ratio",
        ),
        metric(
            "litmus.simulate.self_us",
            (mean_ns("litmus.simulate") - mean_ns("core.stream")) / 1e3,
            "us",
        ),
        metric("cat.parse.us", mean_ns("cat.parse") / 1e3, "us"),
        metric("cat.compile.us", mean_ns("cat.compile") / 1e3, "us"),
        metric("litmus.enumerate.us", mean_ns("litmus.enumerate") / 1e3, "us"),
        metric(
            "cat.check.ns_per_candidate",
            total_ns("cat.check") / tr.tallied("cat.check.candidates"),
            "ns",
        ),
        metric("litmus.eval_prop.us", mean_ns("litmus.eval_prop") / 1e3, "us"),
        metric("hw.log_parse.us", mean_ns("hw.log_parse") / 1e3, "us"),
        metric("hw.judge_hit.us", mean_ns("hw.judge_hit") / 1e3, "us"),
        metric("hw.judge_miss.us", mean_ns("hw.judge_miss") / 1e3, "us"),
        metric("cache.hit_rate", tr.tallied("cache.hit_rate"), "ratio"),
        metric("cache.insertions", tr.tallied("cache.insertions"), "count"),
        metric("cache.evictions", tr.tallied("cache.evictions"), "count"),
        metric("decide.saturations", tr.tallied("decide.saturations"), "count"),
        metric("decide.reused", tr.tallied("decide.reused"), "count"),
        metric("decide.fallbacks", tr.tallied("decide.fallbacks"), "count"),
        metric("unattributed_share", 1.0 - layer_ns / (traced.wall_s * 1e9 - harness_ns), "ratio"),
        metric(
            "tracing_overhead",
            1.0 - traced.queries_per_s() / untraced.queries_per_s(),
            "ratio",
        ),
        metric("failure_rate", failure_rate, "ratio"),
    ]
}

/// Checks that every complete pass gave the same exact counts, and that
/// they match the counts an earlier run of the same build recorded for
/// the same workload and seed. Returns the problems found.
fn check_counts(names: &[&str], passes: &[Vec<u128>], workload: &str, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &passes[0];
    if let Some(k) = passes.iter().position(|p| p != first) {
        problems.push(format!("pass {k} counted {:?}, pass 0 counted {first:?}", passes[k]));
    }
    let record: String = names.iter().zip(first).map(|(n, v)| format!("{n}={v}\n")).collect();
    let path = runs_dir().join(format!("counts-{workload}-seed{seed}-{:016x}.txt", build_id()));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != record => problems.push(format!(
            "counts differ from the earlier run recorded in {}:\n{earlier}now:\n{record}",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let written =
                std::fs::create_dir_all(runs_dir()).and_then(|_| std::fs::write(&path, &record));
            if let Err(e) = written {
                eprintln!("textbench: cannot record counts in {}: {e}", path.display());
            }
        }
    }
    problems
}

/// A hash of this executable, so that count records of one build are
/// never compared with another's.
fn build_id() -> u64 {
    let exe = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    exe.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn bench<W: Workload>(w: &W, args: &Args, extra_checks: impl Fn(&[u128]) -> Vec<String>) {
    let order = inputs::Rng::new(args.seed, 60).permutation(w.units());
    let seconds = args.seconds as f64;
    let lanes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let (runs, setup_samples) = measure(w, &order, seconds, lanes, !args.trace);
    let attempted: u64 = runs.iter().map(|m| m.run.attempted).sum();
    let failed: u64 = runs.iter().map(|m| m.run.failed).sum();
    let failure_rate = failed as f64 / attempted as f64;

    let mut problems = Vec::new();
    for m in &runs {
        problems.extend(check_counts(W::COUNTS, &m.passes, &args.workload, args.seed));
        problems.extend(extra_checks(&m.passes[0]));
    }
    let counts: Vec<String> =
        W::COUNTS.iter().zip(&runs[0].passes[0]).map(|(n, v)| format!("{n}={v}")).collect();
    println!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    println!("exact counts per pass: {}", counts.join(" "));
    for m in &runs {
        println!(
            "{} run: {} requests ({} failed), {} queries in {:.3} s ({:.1} per s of wall \
             time), {} complete passes",
            if m.run.tracer.on() { "traced" } else { "untraced" },
            m.run.attempted,
            m.run.failed,
            m.run.queries,
            m.wall_s,
            m.run.queries as f64 / m.wall_s,
            m.passes.len()
        );
        for f in &m.run.failures {
            println!("  failed: {f}");
        }
    }
    for p in &problems {
        println!("count check failed: {p}");
    }
    println!("failure_rate {failure_rate}");

    let metrics = match runs.get(1) {
        Some(traced) => {
            let path = runs_dir().join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
            match std::fs::create_dir_all(runs_dir())
                .and_then(|_| traced.run.tracer.write_tsv(&path))
            {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("textbench: cannot write spans to {}: {e}", path.display()),
            }
            layer_metrics(traced, &runs[0], failure_rate)
        }
        None => {
            let main = &runs[0];
            let mut best = main.run.best_latency_ns.clone();
            best.sort_unstable();
            println!(
                "latency samples: {} requests per pass, each at its fastest of {} passes",
                best.len(),
                main.passes.len()
            );
            println!("set-up samples (s): {setup_samples:?}");
            vec![
                metric("queries_per_s", main.queries_per_s(), "1/s"),
                metric("latency_p50_us", percentile_us(&best, 0.50), "us"),
                metric("latency_p99_us", percentile_us(&best, 0.99), "us"),
                metric("setup_s", setup_samples.iter().copied().fold(f64::MAX, f64::min), "s"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ]
        }
    };
    for m in &metrics {
        println!("{:<30} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && problems.is_empty(),
        body.join(", ")
    );
}

/// The 107 built-in corpus tests' candidates and pruned subtrees, as
/// recorded for the `corpus` row of BENCH_pr10.json.
const BUILTIN_CANDIDATES: u128 = 728;
const BUILTIN_PRUNED: u128 = 107;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("textbench: {e}");
            eprintln!(
                "usage: textbench --workload <litmus-sweep|cat-sweep|hw-logs> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let generated = Instant::now();
    match args.workload.as_str() {
        "litmus-sweep" => {
            let w = LitmusSweep { items: inputs::litmus_pool(args.seed, DIY_SHARE) };
            eprintln!("textbench: {} litmus texts in {:.2?}", w.items.len(), generated.elapsed());
            bench(&w, &args, |c| {
                let (candidates, pruned) = (c[3], c[4]);
                if (candidates, pruned) == (BUILTIN_CANDIDATES, BUILTIN_PRUNED) {
                    Vec::new()
                } else {
                    vec![format!(
                        "built-in corpus: {candidates} candidates, {pruned} pruned; expected \
                         {BUILTIN_CANDIDATES} and {BUILTIN_PRUNED}"
                    )]
                }
            });
        }
        "cat-sweep" => {
            let pool = inputs::litmus_pool(args.seed, DIY_SHARE);
            let (litmus, pairs) = inputs::cat_pairs(args.seed, &pool, CAT_TESTS);
            let model_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../models");
            let w = CatSweep { litmus, pairs, model_dir };
            eprintln!(
                "textbench: {} (test, cat) pairs in {:.2?}",
                w.pairs.len(),
                generated.elapsed()
            );
            bench(&w, &args, |_| Vec::new());
        }
        "hw-logs" => {
            let hw = inputs::hw_inputs(args.seed);
            // Between one log's distinct rows and the whole input's, so
            // that reads hit, first-seen rows insert, and entries evict.
            let capacity = ((hw.max_log_rows + hw.distinct_rows) / 2) as usize;
            eprintln!(
                "textbench: {} logs, {} rows ({} distinct, at most {} in one log), cache capacity \
                 {capacity}, in {:.2?}",
                hw.logs.len(),
                hw.rows,
                hw.distinct_rows,
                hw.max_log_rows,
                generated.elapsed()
            );
            let (rows, distinct) = (hw.rows, hw.distinct_rows);
            let w = HwLogs { tests: hw.tests, logs: hw.logs, allowed: hw.allowed, capacity };
            println!("hw-logs input: rows={rows} distinct_rows={distinct}");
            bench(&w, &args, |c| {
                if c[0] == u128::from(rows) {
                    Vec::new()
                } else {
                    vec![format!("judged {} rows of {rows}", c[0])]
                }
            });
        }
        other => {
            eprintln!("textbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
