//! Litmus logs and log comparison (the diy suite's `mcompare` step).
//!
//! Hardware campaigns and model simulations both produce *logs*: per test,
//! a histogram of observed final states. The paper's methodology compares
//! such logs — model vs hardware — to find the *invalid* and *unseen*
//! discrepancies of Tab V (the online material at `diy.inria.fr/cats` is
//! exactly these logs). The format here follows litmus7's:
//!
//! ```text
//! Test mp Allowed
//! Histogram (3 states)
//! 4999999:>1:r1=0; 1:r2=0;
//! 4999998:>1:r1=1; 1:r2=1;
//! 153:>1:r1=1; 1:r2=0;
//! Ok
//! ```

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One test's entry in a log: state → count (0 for model logs, which list
/// allowed states without frequencies).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogEntry {
    /// Test name.
    pub name: String,
    /// Observed (or allowed) states with counts.
    pub states: BTreeMap<String, u64>,
}

/// A whole log: many tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log {
    /// Entries by test name.
    pub entries: BTreeMap<String, LogEntry>,
}

impl Log {
    /// Adds one test's states.
    pub fn insert(&mut self, name: &str, states: BTreeMap<String, u64>) {
        self.entries.insert(name.to_owned(), LogEntry { name: name.to_owned(), states });
    }

    /// Renders in litmus7-style text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in self.entries.values() {
            s.push_str(&format!("Test {} Allowed\n", e.name));
            s.push_str(&format!("Histogram ({} states)\n", e.states.len()));
            for (state, count) in &e.states {
                s.push_str(&format!("{count}:>{state}\n"));
            }
            s.push('\n');
        }
        s
    }

    /// Parses the textual format back.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line. A second
    /// `Test` header for one name, or a state line repeating an earlier
    /// one of its test, is malformed too — keeping either would silently
    /// drop the earlier entry or count — and the message names the line
    /// it repeats.
    pub fn parse(text: &str) -> Result<Log, String> {
        let mut log = Log::default();
        // The line of each test's header, for the repeat errors.
        let mut headers: BTreeMap<&str, usize> = BTreeMap::new();
        let mut current: Option<LogEntry> = None;
        for (lno, line) in text.lines().enumerate() {
            let lno = lno + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("Test ") {
                if let Some(e) = current.take() {
                    log.entries.insert(e.name.clone(), e);
                }
                let name = rest.split_whitespace().next().unwrap_or("");
                if name.is_empty() {
                    return Err(format!("line {lno}: empty test name"));
                }
                if let Some(first) = headers.insert(name, lno) {
                    return Err(format!(
                        "line {lno}: test {name} repeats the header of line {first}"
                    ));
                }
                current = Some(LogEntry { name: name.to_owned(), states: BTreeMap::new() });
            } else if line.starts_with("Histogram") || line == "Ok" || line == "No" {
                // Informational lines.
            } else if let Some((count, state)) = line.split_once(":>") {
                let Some(entry) = current.as_mut() else {
                    return Err(format!("line {lno}: state before any Test header"));
                };
                let count: u64 =
                    count.trim().parse().map_err(|_| format!("line {lno}: bad count '{count}'"))?;
                let state = state.trim();
                match entry.states.entry(state.to_owned()) {
                    Entry::Vacant(v) => {
                        v.insert(count);
                    }
                    Entry::Occupied(_) => {
                        let first = state_line(text, headers[entry.name.as_str()], state);
                        return Err(format!("line {lno}: state '{state}' repeats line {first}"));
                    }
                }
            } else {
                return Err(format!("line {lno}: unrecognised '{line}'"));
            }
        }
        if let Some(e) = current.take() {
            log.entries.insert(e.name.clone(), e);
        }
        Ok(log)
    }
}

/// The 1-based line of the first `count:>state` line after the header on
/// line `header` (1-based) that spells `state`.
fn state_line(text: &str, header: usize, state: &str) -> usize {
    let is_state = |line: &str| line.split_once(":>").is_some_and(|(_, s)| s.trim() == state);
    text.lines().skip(header).position(is_state).map_or(header, |k| header + k + 1)
}

impl fmt::Display for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Per-test discrepancies between a model log and a hardware log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Comparison {
    /// Tests with hardware states the model does not list (Tab V
    /// "invalid").
    pub invalid: BTreeMap<String, BTreeSet<String>>,
    /// Tests with model states the hardware never showed (Tab V
    /// "unseen").
    pub unseen: BTreeMap<String, BTreeSet<String>>,
    /// Tests present in only one log.
    pub missing: BTreeSet<String>,
}

impl Comparison {
    /// Tab V summary counts: `(tests compared, invalid, unseen)`.
    pub fn summary(&self) -> (usize, usize, usize) {
        (
            self.invalid.len().max(self.unseen.len()),
            self.invalid.values().filter(|s| !s.is_empty()).count(),
            self.unseen.values().filter(|s| !s.is_empty()).count(),
        )
    }
}

/// Compares a model log (allowed states) against a hardware log (observed
/// states) — `mcompare`.
pub fn compare(model: &Log, hardware: &Log) -> Comparison {
    let mut out = Comparison::default();
    for (name, hw) in &hardware.entries {
        let Some(m) = model.entries.get(name) else {
            out.missing.insert(name.clone());
            continue;
        };
        let invalid: BTreeSet<String> =
            hw.states.keys().filter(|s| !m.states.contains_key(*s)).cloned().collect();
        let unseen: BTreeSet<String> =
            m.states.keys().filter(|s| !hw.states.contains_key(*s)).cloned().collect();
        if !invalid.is_empty() {
            out.invalid.insert(name.clone(), invalid);
        }
        if !unseen.is_empty() {
            out.unseen.insert(name.clone(), unseen);
        }
    }
    for name in model.entries.keys() {
        if !hardware.entries.contains_key(name) {
            out.missing.insert(name.clone());
        }
    }
    out
}

/// Builds the model-side log for a set of tests under a model: per test,
/// the full states of the allowed candidate executions (count 0).
///
/// Models on the polynomial side of the tractability frontier
/// ([`herd_core::model::Tractability::Polynomial`]) and the conditional
/// models past it ([`Tractability::Conditional`], Power/ARM with their
/// ppo envelopes) are judged through the consistency backend — one
/// witness query per distinct final state instead of a full (rf, co)
/// enumeration; only [`Tractability::Frontier`] models keep the
/// enumerate-and-check path. All produce the same states.
///
/// [`Tractability::Conditional`]: herd_core::model::Tractability::Conditional
/// [`Tractability::Frontier`]: herd_core::model::Tractability::Frontier
pub fn model_log(
    tests: &[herd_litmus::program::LitmusTest],
    model: &dyn herd_core::model::Architecture,
) -> Log {
    use crate::campaign::{render_full_state, render_full_state_parts};
    use herd_core::model::Tractability;
    use herd_litmus::candidates::{enumerate, EnumOptions};
    let mut log = Log::default();
    for t in tests {
        let states: BTreeMap<String, u64> = if model.tractability() != Tractability::Frontier {
            let mut stats = herd_litmus::decide::QueryStats::default();
            let mut states = BTreeMap::new();
            herd_litmus::decide::allowed_full_outcomes(
                t,
                model,
                &EnumOptions::default(),
                &mut stats,
                &mut |regs, mem| {
                    states.insert(render_full_state_parts(regs, mem), 0);
                },
            )
            .expect("corpus tests enumerate");
            states
        } else {
            enumerate(t, &EnumOptions::default())
                .expect("corpus tests enumerate")
                .iter()
                .filter(|c| herd_core::model::check(model, &c.exec).allowed())
                .map(|c| (render_full_state(c), 0))
                .collect()
        };
        log.insert(&t.name, states);
    }
    log
}

/// The memoised variant of [`model_log`]: each `(test, model)` pair's
/// allowed-state set is looked up in (and on a miss, computed into) the
/// content-addressed `cache`, so re-judging a corpus a second time — the
/// normal shape of the Sec 11 data-mining loop — is one fingerprint and
/// one shard probe per test.
pub fn model_log_cached(
    tests: &[herd_litmus::program::LitmusTest],
    model: &dyn herd_core::model::Architecture,
    cache: &ModelLogCache,
) -> Log {
    use herd_litmus::candidates::EnumOptions;
    use herd_litmus::decide::query_fingerprint;
    let mut log = Log::default();
    for t in tests {
        let key = query_fingerprint(t, model.name(), &EnumOptions::default());
        let states = cache.get_or_insert_with(key, || {
            let one = model_log(std::slice::from_ref(t), model);
            one.entries.get(&t.name).map(|e| e.states.clone()).unwrap_or_default()
        });
        log.insert(&t.name, states);
    }
    log
}

/// A content-addressed store of model-log state sets, keyed by
/// `(test, model, opts)` fingerprints — see [`model_log_cached`].
pub type ModelLogCache = herd_cache::ShardedLru<BTreeMap<String, u64>>;

/// A content-addressed store of per-row verdicts, keyed by
/// `(test, model, opts, state row)` fingerprints — see
/// [`judge_log_cached`].
pub type VerdictCache = herd_cache::ShardedLru<bool>;

/// Judges one log row — a full final state like `0:r1=1; x=2` — against a
/// model through the single-outcome backend: `Ok(true)` iff some
/// consistent execution of `test` produces the state. This is the
/// per-row form of the [`compare`] "invalid" set: a hardware state is
/// invalid exactly when `judge_entry` says `false`. A thin wrapper over
/// the batch machinery of [`judge_entries`] with a one-row log.
///
/// # Errors
///
/// Returns the parse error for a malformed state row, or the enumeration
/// error message for a program thread semantics rejects.
pub fn judge_entry(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    state: &str,
) -> Result<bool, String> {
    judge_entries(test, model, std::slice::from_ref(&state)).map(|(v, _)| v[0])
}

/// Judges a whole batch of log rows against one `(test, model)` pair
/// through [`herd_litmus::decide::decide_log`], always: repeated rows are
/// answered once, and the distinct rows are grouped into screened rf
/// classes, each walked once. On full-state hardware rows the classes are
/// usually the rows themselves, one saturation each; the cost-modelled
/// [`judge_log_cached`] is the fast path, and this is the plain
/// `decide_log` judge it is checked against. Returns per-row verdicts in
/// input order plus the batch accounting.
///
/// # Errors
///
/// Returns the parse error of the first malformed state row, prefixed
/// with its 1-based row number and text (`row 3 '0:r1=1; 0:r1=2': …`),
/// or the enumeration error message for a program thread semantics
/// rejects.
pub fn judge_entries<S: AsRef<str>>(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    states: &[S],
) -> Result<(Vec<bool>, herd_litmus::decide::BatchStats), String> {
    use herd_litmus::candidates::EnumOptions;
    use herd_litmus::decide::{decide_log, Outcome};
    let rows: Vec<Outcome> = states
        .iter()
        .enumerate()
        .map(|(i, s)| Outcome::from_state_row(s.as_ref()).map_err(|e| row_error(i, s.as_ref(), &e)))
        .collect::<Result<_, String>>()?;
    let batch =
        decide_log(test, model, &EnumOptions::default(), &rows).map_err(|e| e.to_string())?;
    Ok((batch.verdicts, batch.stats))
}

/// The memoised variant of [`judge_entry`]: [`judge_log_cached`] with a
/// one-row log, so a warm re-query never re-runs the decision.
///
/// # Errors
///
/// As [`judge_log_cached`].
pub fn judge_entry_cached(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    state: &str,
    cache: &VerdictCache,
) -> Result<bool, String> {
    judge_log_cached(test, model, std::slice::from_ref(&state), cache).map(|v| v[0])
}

/// The batched, memoised judge of log rows — the Sec 11 `mcompare` inner
/// loop at full speed.
///
/// - **Hits.** The query fingerprint is computed once per call. Each row
///   is parsed once, in place, into a reused
///   [`RowView`](herd_litmus::decide::RowView) that borrows the row text,
///   keyed from the view and probed in the content-addressed `cache`. A
///   hit allocates nothing.
/// - **Misses.** The missed rows go to [`herd_litmus::decide::judge_log`]
///   together. It runs thread semantics once, then either streams the
///   test once and answers every missed row by membership in the allowed
///   set, or decides them with `decide_log`, whichever its cost model
///   (candidate space against missed distinct rows) says is cheaper. The
///   verdicts are then cached.
///
/// Each row is stored under
/// `outcome_fingerprint(query_fingerprint(test, model.name(), &EnumOptions::default()), &Outcome::from_state_row(row)?)`,
/// and every row is probed exactly once per call.
///
/// # Errors
///
/// As [`judge_entries`]: a parse error names the first malformed row, by
/// 1-based number and text, and caches nothing.
pub fn judge_log_cached<S: AsRef<str>>(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    states: &[S],
    cache: &VerdictCache,
) -> Result<Vec<bool>, String> {
    use herd_litmus::candidates::EnumOptions;
    use herd_litmus::decide::{judge_log, query_fingerprint, RowView};
    let opts = EnumOptions::default();
    let base = query_fingerprint(test, model.name(), &opts);
    let mut view = RowView::default();
    let mut verdicts = Vec::with_capacity(states.len());
    let mut missed = Vec::new();
    let mut rows = Vec::new();
    for (i, s) in states.iter().enumerate() {
        let s = s.as_ref();
        view.parse(s).map_err(|e| row_error(i, s, &e))?;
        let key = view.fingerprint(base);
        let hit = cache.get(key);
        if hit.is_none() {
            missed.push((i, key));
            rows.push(view.to_outcome());
        }
        verdicts.push(hit.unwrap_or(false));
    }
    if !missed.is_empty() {
        let judged = judge_log(test, model, &opts, &rows).map_err(|e| e.to_string())?;
        for (&(i, key), &v) in missed.iter().zip(&judged.verdicts) {
            cache.insert(key, v);
            verdicts[i] = v;
        }
    }
    Ok(verdicts)
}

/// A row's parse error, prefixed with its 1-based row number and text.
fn row_error(index: usize, row: &str, err: &str) -> String {
    format!("row {} '{row}': {err}", index + 1)
}

/// Builds the hardware-side log by running each test on a machine.
pub fn hardware_log(
    tests: &[herd_litmus::program::LitmusTest],
    machine: &crate::silicon::Machine,
    iterations: u64,
    seed: u64,
) -> Log {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut log = Log::default();
    for t in tests {
        let run =
            crate::campaign::run_test(machine, t, iterations, &mut rng).expect("corpus tests run");
        log.insert(&t.name, run.states);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::arm_machines;
    use herd_core::arch::{Arm, ArmVariant};
    use herd_litmus::corpus;

    #[test]
    fn render_parse_roundtrip() {
        let mut log = Log::default();
        log.insert(
            "mp",
            BTreeMap::from([
                ("1:r1=0; 1:r2=0;".to_owned(), 4_999_999),
                ("1:r1=1; 1:r2=0;".to_owned(), 153),
            ]),
        );
        log.insert("sb", BTreeMap::from([("0:r1=0; 1:r1=0;".to_owned(), 42)]));
        let text = log.render();
        assert_eq!(Log::parse(&text).unwrap(), log);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Log::parse("Test \n").is_err());
        assert!(Log::parse("5:>x=1;\n").is_err(), "state before header");
        assert!(Log::parse("Test t Allowed\nwat\n").is_err());
        // A repeated header would replace the earlier entry, a repeated
        // state would overwrite its count: both are errors naming the
        // line they repeat.
        let err =
            Log::parse("Test t Allowed\n1:>x=1;\n\nTest u Allowed\nTest t Allowed\n").unwrap_err();
        assert_eq!(err, "line 5: test t repeats the header of line 1");
        let err = Log::parse("Test t Allowed\nHistogram (2 states)\n3:>x=1;\n4:>x=0;\n5:>x=1;\n")
            .unwrap_err();
        assert_eq!(err, "line 5: state 'x=1;' repeats line 3");
        // The same state under two tests is no repeat.
        let log = Log::parse("Test t Allowed\n3:>x=1;\nTest u Allowed\n4:>x=1;\n").unwrap();
        assert_eq!(log.entries.len(), 2);
    }

    #[test]
    fn batched_and_cached_judging_match_the_plain_paths() {
        use herd_core::arch::Tso;
        use herd_core::model::Architecture;
        use herd_litmus::candidates::EnumOptions;
        use herd_litmus::corpus::Dev;
        use herd_litmus::decide::{outcome_fingerprint, query_fingerprint, Outcome};
        use herd_litmus::isa::Isa;
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let rows =
            ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=0; 1:r1=0", "0:r1=1; 1:r1=1", "x=1; y=1"];
        let (batch, stats) = judge_entries(&test, &Tso, &rows).unwrap();
        assert_eq!(stats.rows, rows.len() as u64);
        assert!(stats.reused >= 1, "the literal repeat is answered once");
        let cache = VerdictCache::new(1024);
        for (i, row) in rows.iter().enumerate() {
            let plain = judge_entry(&test, &Tso, row).unwrap();
            assert_eq!(batch[i], plain, "row {i}");
            assert_eq!(judge_entry_cached(&test, &Tso, row, &cache).unwrap(), plain);
            assert_eq!(judge_entry_cached(&test, &Tso, row, &cache).unwrap(), plain, "warm");
        }
        let s = cache.stats();
        assert!(s.hits >= rows.len() as u64 - 1, "second pass hits: {s:?}");
        assert!(judge_entry(&test, &Tso, "not a state").is_err());

        // The batched cached path: cold agrees with the batch verdicts,
        // warm is all hits and agrees again.
        let log_cache = VerdictCache::new(1024);
        let cold = judge_log_cached(&test, &Tso, &rows, &log_cache).unwrap();
        assert_eq!(cold, batch);
        let warm = judge_log_cached(&test, &Tso, &rows, &log_cache).unwrap();
        assert_eq!(warm, batch);
        let s = log_cache.stats();
        assert_eq!(s.misses, 5, "every cold probe misses (the repeat probes twice)");
        assert_eq!(s.len, 4, "four distinct rows stored");
        assert!(s.hits >= rows.len() as u64, "the warm pass never decides: {s:?}");
        assert!(judge_log_cached(&test, &Tso, &["bogus"], &log_cache).is_err());
        assert!(judge_log_cached(&test, &Tso, &["0:r1=0; 0:r1=1"], &log_cache).is_err());

        // Every row is stored under the public key functions' key.
        let base = query_fingerprint(&test, Tso.name(), &EnumOptions::default());
        for (row, &want) in rows.iter().zip(&batch) {
            let key = outcome_fingerprint(base, &Outcome::from_state_row(row).unwrap());
            assert_eq!(log_cache.get(key), Some(want), "row '{row}' is not cached under its key");
        }
    }

    #[test]
    fn row_parse_errors_name_the_row() {
        use herd_core::arch::Tso;
        use herd_litmus::corpus::Dev;
        use herd_litmus::isa::Isa;
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let rows = ["0:r1=0; 1:r1=0", "0:r1=1", "0:r1=1; 0:r1=2", "bogus"];
        let want = "row 3 '0:r1=1; 0:r1=2': '0:r1=2': register 0:r1 named twice";
        let cache = VerdictCache::new(64);
        assert_eq!(judge_log_cached(&test, &Tso, &rows, &cache).unwrap_err(), want);
        assert_eq!(cache.stats().len, 0, "a parse error caches nothing");
        assert_eq!(judge_entries(&test, &Tso, &rows).unwrap_err(), want);
        assert_eq!(
            judge_entry_cached(&test, &Tso, "bogus", &cache).unwrap_err(),
            "row 1 'bogus': 'bogus': expected lhs=value"
        );
        assert_eq!(
            judge_entry(&test, &Tso, "0:rx=1").unwrap_err(),
            "row 1 '0:rx=1': '0:rx=1': bad register"
        );
    }

    #[test]
    fn cached_model_log_matches_and_hits_when_warm() {
        use herd_core::arch::Tso;
        let tests: Vec<_> = corpus::x86_corpus().into_iter().map(|e| e.test).take(4).collect();
        let plain = model_log(&tests, &Tso);
        let cache = ModelLogCache::new(256);
        let cold = model_log_cached(&tests, &Tso, &cache);
        assert_eq!(cold, plain);
        let warm = model_log_cached(&tests, &Tso, &cache);
        assert_eq!(warm, plain);
        let s = cache.stats();
        assert_eq!(s.misses, tests.len() as u64, "cold pass misses once per test");
        assert_eq!(s.hits, tests.len() as u64, "warm pass is all hits");
    }

    #[test]
    fn mcompare_reproduces_tab5_for_one_machine() {
        let tests: Vec<_> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
        let machines = arm_machines();
        let tegra3 = machines.iter().find(|m| m.name == "Tegra3").unwrap();
        let hw = hardware_log(&tests, tegra3, 10_000_000_000, 7);
        let model = model_log(&tests, &Arm::new(ArmVariant::PowerArm));
        let cmp = compare(&model, &hw);
        let (_, invalid, unseen) = cmp.summary();
        assert!(invalid > 0, "Tegra3 invalidates Power-ARM");
        assert!(unseen > 0, "some allowed states stay unseen");
        assert!(cmp.missing.is_empty());
        // The coRR state is among the invalid ones.
        assert!(
            cmp.invalid.keys().any(|k| k == "coRR"),
            "{:?}",
            cmp.invalid.keys().collect::<Vec<_>>()
        );
        // And the whole thing round-trips through text.
        let hw2 = Log::parse(&hw.render()).unwrap();
        assert_eq!(compare(&model, &hw2), cmp);
    }
}
