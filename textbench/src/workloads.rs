//! The three workloads: the program-side state each builds before its
//! first request, and the public-call sequence each request makes.
//!
//! Only this file calls into the layers under test on the timed path.
//! Each call is wrapped in a span named after its layer; the calls made
//! in the traced run only are marked as such.

use crate::inputs::{
    isa_index, stock_model, validated, CatPair, Expect, LitmusText, CAT_FILES, ISAS,
};
use crate::trace::Req;
use crate::Run;
use herd_cache::Fingerprint;
use herd_cat::CatModel;
use herd_core::model::Architecture;
use herd_hw::log::{judge_entries, judge_log_cached, Log, VerdictCache};
use herd_litmus::candidates::{count_rf_configs, enumerate, stream_arch_verdicts, EnumOptions};
use herd_litmus::decide::{outcome_fingerprint, query_fingerprint, Outcome};
use herd_litmus::isa::Isa;
use herd_litmus::parse::parse;
use herd_litmus::program::LitmusTest;
use herd_litmus::simulate::{eval_prop, simulate_with};
use std::collections::{BTreeSet, HashMap};

/// A workload: inputs, program-side set-up, and one unit of requests.
pub trait Workload {
    /// What the program builds before its first request.
    type State;
    /// Names of the exact counts tallied over one pass of the inputs.
    const COUNTS: &'static [&'static str];
    fn setup(&self) -> Self::State;
    /// Units in one pass (a unit is one request, or one log of requests).
    fn units(&self) -> usize;
    fn run_unit(&self, state: &mut Self::State, unit: usize, run: &mut Run, counts: &mut [u128]);
    /// Counters read from the program's own stats after a traced run.
    fn layer_counters(&self, _state: &Self::State, _run: &mut Run) {}
}

fn check_expect(what: impl std::fmt::Display, got: Expect, want: Expect) -> Result<(), String> {
    let counts_agree = match (got.counts, want.counts) {
        (Some(g), Some(w)) => g == w,
        _ => true,
    };
    if got.validated == want.validated && counts_agree {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, reference {want:?}"))
    }
}

/// The stock model of each ISA, indexed like [`ISAS`].
pub type StockModels = Vec<Box<dyn Architecture>>;

/// litmus-sweep: `parse` then `simulate_with` under the ISA's stock model.
pub struct LitmusSweep {
    pub items: Vec<LitmusText>,
}

pub struct SweepState {
    models: StockModels,
    opts: EnumOptions,
}

impl Workload for LitmusSweep {
    type State = SweepState;
    const COUNTS: &'static [&'static str] =
        &["candidates", "pruned", "allowed", "builtin_candidates", "builtin_pruned"];

    fn setup(&self) -> SweepState {
        SweepState {
            models: ISAS.iter().map(|&isa| stock_model(isa)).collect(),
            opts: EnumOptions::default(),
        }
    }

    fn units(&self) -> usize {
        self.items.len()
    }

    fn run_unit(&self, st: &mut SweepState, unit: usize, run: &mut Run, counts: &mut [u128]) {
        let item = &self.items[unit];
        let st = &*st;
        run.request(
            1,
            |req| {
                let test =
                    req.span("litmus.parse", || parse(&item.text)).map_err(|e| e.to_string())?;
                let arch = st.models[isa_index(test.isa)].as_ref();
                let mut out = req
                    .span("litmus.simulate", || simulate_with(&test, arch, &st.opts))
                    .map_err(|e| format!("{}: {e}", test.name))?;
                // Free the rendered final states inside the request, as a
                // caller would; the check needs only the tallies.
                drop(std::mem::take(&mut out.states));
                if req.traced() {
                    probe_stream(req, &test, arch, &st.opts)?;
                }
                if !out.is_complete() {
                    return Err(format!("{}: partial outcome", test.name));
                }
                Ok(out)
            },
            |out| {
                counts[0] += out.candidates;
                counts[1] += out.pruned;
                counts[2] += out.allowed as u128;
                if item.builtin {
                    counts[3] += out.candidates;
                    counts[4] += out.pruned;
                }
                let got =
                    Expect { validated: out.validated, counts: Some((out.positive, out.negative)) };
                check_expect(format_args!("{} under {}", out.test, out.arch), got, item.expect)
            },
        );
    }
}

/// The traced run's extra calls beneath `simulate_with`: thread semantics
/// with rf menus, then the arena stream with a no-op sink.
fn probe_stream(
    req: &mut Req<'_>,
    test: &LitmusTest,
    arch: &dyn Architecture,
    opts: &EnumOptions,
) -> Result<(), String> {
    req.span("litmus.sem", || count_rf_configs(test, opts)).map_err(|e| e.to_string())?;
    let stats = req
        .span("core.stream", || stream_arch_verdicts(test, opts, arch, &mut |_| {}))
        .map_err(|e| e.to_string())?;
    req.tally("core.stream.candidates", stats.total() as f64);
    req.tally("core.stream.pruned", stats.pruned as f64);
    Ok(())
}

/// cat-sweep: the call sequence of the `herd` example — parse the test,
/// parse and compile the cat file, enumerate eagerly, check every
/// candidate with the compiled model, evaluate the condition.
pub struct CatSweep {
    pub litmus: Vec<String>,
    pub pairs: Vec<CatPair>,
    pub model_dir: std::path::PathBuf,
}

pub struct CatState {
    /// The cat sources, as read from the model directory.
    cats: Vec<String>,
    opts: EnumOptions,
}

impl Workload for CatSweep {
    type State = CatState;
    const COUNTS: &'static [&'static str] = &["candidates", "pruned", "allowed"];

    fn setup(&self) -> CatState {
        let cats = CAT_FILES
            .iter()
            .map(|name| {
                let path = self.model_dir.join(format!("{name}.cat"));
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            })
            .collect();
        CatState { cats, opts: EnumOptions::default() }
    }

    fn units(&self) -> usize {
        self.pairs.len()
    }

    fn run_unit(&self, st: &mut CatState, unit: usize, run: &mut Run, counts: &mut [u128]) {
        let pair = &self.pairs[unit];
        let st = &*st;
        run.request(
            1,
            |req| {
                let test = req
                    .span("litmus.parse", || parse(&self.litmus[pair.litmus]))
                    .map_err(|e| e.to_string())?;
                let model = req
                    .span("cat.parse", || CatModel::parse(&st.cats[pair.cat]))
                    .map_err(|e| e.to_string())?;
                let compiled =
                    req.span("cat.compile", || model.compile()).map_err(|e| e.to_string())?;
                let cands = req
                    .span("litmus.enumerate", || enumerate(&test, &st.opts))
                    .map_err(|e| format!("{}: {e}", test.name))?;
                let allowed: Vec<bool> = req.span("cat.check", || {
                    cands.iter().map(|c| compiled.check(&c.exec).allowed()).collect()
                });
                req.tally("cat.check.candidates", cands.len() as f64);
                let positive = req.span("litmus.eval_prop", || {
                    cands
                        .iter()
                        .zip(&allowed)
                        .filter(|&(c, &ok)| ok && eval_prop(&test.condition.prop, c))
                        .count()
                });
                let allowed = allowed.iter().filter(|&&ok| ok).count();
                let negative = allowed - positive;
                let got = Expect {
                    validated: validated(test.condition.quantifier, positive, negative),
                    counts: Some((positive, negative)),
                };
                Ok((test.name, got, cands.len()))
            },
            |(name, got, candidates)| {
                counts[0] += candidates as u128;
                counts[2] += got.counts.map_or(0, |(p, n)| p + n) as u128;
                let cat = CAT_FILES[pair.cat];
                check_expect(format_args!("{name} under {cat}.cat"), got, pair.expect)
            },
        );
    }
}

/// hw-logs: `Log::parse` each log, then `judge_log_cached` every entry
/// against the ISA's stock model, with one verdict cache for the run.
pub struct HwLogs {
    pub tests: Vec<String>,
    pub logs: Vec<(Isa, String)>,
    pub allowed: HashMap<(Isa, String), BTreeSet<String>>,
    pub capacity: usize,
}

pub struct HwState {
    models: StockModels,
    tests: HashMap<(Isa, String), LitmusTest>,
    cache: VerdictCache,
    /// A replica of `cache` fed the same lookups and inserts, consulted in
    /// the traced run only to learn which rows a call will miss.
    shadow: Option<VerdictCache>,
}

impl Workload for HwLogs {
    type State = HwState;
    const COUNTS: &'static [&'static str] = &["rows", "invalid_rows"];

    fn setup(&self) -> HwState {
        let tests = self
            .tests
            .iter()
            .map(|text| {
                let t = parse(text).unwrap_or_else(|e| panic!("hw-logs test does not parse: {e}"));
                ((t.isa, t.name.clone()), t)
            })
            .collect();
        HwState {
            models: ISAS.iter().map(|&isa| stock_model(isa)).collect(),
            tests,
            cache: VerdictCache::new(self.capacity),
            shadow: None,
        }
    }

    fn units(&self) -> usize {
        self.logs.len()
    }

    fn run_unit(&self, st: &mut HwState, unit: usize, run: &mut Run, counts: &mut [u128]) {
        let (isa, text) = &self.logs[unit];
        if run.tracer.on() && st.shadow.is_none() {
            st.shadow = Some(VerdictCache::new(self.capacity));
        }
        let st = &*st;
        let log = match run.program_call("hw.log_parse", || Log::parse(text)) {
            Ok(log) => log,
            Err(e) => return run.request(0, |_| Err::<(), _>(format!("log parse: {e}")), Ok),
        };
        let model = st.models[isa_index(*isa)].as_ref();
        for entry in log.entries.values() {
            let key = (*isa, entry.name.clone());
            run.request(
                entry.states.len() as u64,
                |req| {
                    let test =
                        st.tests.get(&key).ok_or_else(|| format!("no test {}", entry.name))?;
                    let rows: Vec<&str> = entry.states.keys().map(String::as_str).collect();
                    let shadow = match &st.shadow {
                        Some(shadow) => Some(req.span("harness.shadow", || {
                            ShadowCall::probe(shadow, &st.cache, test, model, &rows)
                        })?),
                        None => None,
                    };
                    let span = req.tracer.open("hw.judge", req.root, req.id);
                    let verdicts = judge_log_cached(test, model, &rows, &st.cache);
                    req.tracer.close(span);
                    let verdicts = verdicts.map_err(|e| format!("{}: {e}", entry.name))?;
                    if let (Some(call), Some(shadow)) = (shadow, &st.shadow) {
                        call.finish(req, span, shadow, &st.cache, test, model, &rows, &verdicts)?;
                    }
                    Ok((rows, verdicts))
                },
                |(rows, verdicts)| {
                    let want = &self.allowed[&key];
                    for (row, &v) in rows.iter().zip(&verdicts) {
                        if v != want.contains(*row) {
                            return Err(format!("{} row '{row}': judged {v}", entry.name));
                        }
                    }
                    counts[0] += rows.len() as u128;
                    counts[1] += verdicts.iter().filter(|&&v| !v).count() as u128;
                    Ok(())
                },
            );
        }
    }

    fn layer_counters(&self, st: &HwState, run: &mut Run) {
        let s = st.cache.stats();
        run.tracer.set_tally("cache.hit_rate", s.hit_rate());
        run.tracer.set_tally("cache.insertions", s.insertions as f64);
        run.tracer.set_tally("cache.evictions", s.evictions as f64);
    }
}

/// Traced run only: one `judge_log_cached` call replayed on the shadow
/// cache, which learns the rows the real cache is about to miss.
struct ShadowCall {
    keys: Vec<Fingerprint>,
    missed: Vec<usize>,
    misses_before: u64,
}

impl ShadowCall {
    /// Replays the call's lookups, in its order, on the shadow.
    fn probe(
        shadow: &VerdictCache,
        cache: &VerdictCache,
        test: &LitmusTest,
        model: &dyn Architecture,
        rows: &[&str],
    ) -> Result<ShadowCall, String> {
        let base = query_fingerprint(test, model.name(), &EnumOptions::default());
        let keys = rows
            .iter()
            .map(|row| Ok(outcome_fingerprint(base, &Outcome::from_state_row(row)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let missed = (0..keys.len()).filter(|&i| shadow.get(keys[i]).is_none()).collect();
        Ok(ShadowCall { keys, missed, misses_before: cache.stats().misses })
    }

    /// Classifies the call's span as a hit or a miss, mirrors its inserts
    /// into the shadow, and re-judges the missed rows through
    /// `judge_entries` to read the decision layer's batch counters.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        req: &mut Req<'_>,
        span: u32,
        shadow: &VerdictCache,
        cache: &VerdictCache,
        test: &LitmusTest,
        model: &dyn Architecture,
        rows: &[&str],
        verdicts: &[bool],
    ) -> Result<(), String> {
        let moved = req.span("harness.shadow", || cache.stats().misses) - self.misses_before;
        req.tracer.rename(span, if moved == 0 { "hw.judge_hit" } else { "hw.judge_miss" });
        if moved != self.missed.len() as u64 {
            return Err(format!(
                "{}: shadow cache predicted {} misses, the cache counted {moved}",
                test.name,
                self.missed.len()
            ));
        }
        if self.missed.is_empty() {
            return Ok(());
        }
        req.span("harness.shadow", || {
            for &i in &self.missed {
                shadow.insert(self.keys[i], verdicts[i]);
            }
        });
        let missed_rows: Vec<&str> = self.missed.iter().map(|&i| rows[i]).collect();
        let (again, stats) = req.span("hw.rejudge", || judge_entries(test, model, &missed_rows))?;
        if self.missed.iter().zip(&again).any(|(&i, &v)| verdicts[i] != v) {
            return Err(format!("{}: judge_entries disagrees with judge_log_cached", test.name));
        }
        req.tally("decide.saturations", stats.saturations as f64);
        req.tally("decide.reused", stats.reused as f64);
        req.tally("decide.fallbacks", stats.query.backend.fallbacks as f64);
        Ok(())
    }
}
