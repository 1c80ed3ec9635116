//! Single-outcome decisions: is *this* final state allowed, without
//! enumerating every witness?
//!
//! [`decide_outcome`] answers the question the enumeration pipeline
//! ([`mod@crate::simulate`]) answers only as a by-product: given a litmus
//! test, a model, and one candidate outcome (a final-state assignment —
//! e.g. a row of an `herd-hw` campaign log), allowed or forbidden. It
//! shares the control-flow and data-flow front end with the enumerator
//! (`combo_parts` in [`mod@crate::candidates`]) but replaces the coherence
//! odometer with the polynomial saturation backend
//! ([`herd_core::consistency::co_exists`]): per matching value
//! concretisation, *one* witness query instead of `Π |writes(l)|!`
//! checks.
//!
//! Two further cuts keep the rf side polynomial in practice:
//!
//! - control-flow combinations whose final register file statically
//!   contradicts the outcome are skipped whole (`combos_pruned`), and
//! - a read whose final register value the outcome pins loses every rf
//!   source whose write value is a constant other than the required one,
//!   so the rf odometer walks the configurations that can possibly match
//!   instead of the full product ([`QueryStats::rf_space`] vs
//!   [`QueryStats::rf_configs`]).
//!
//! Exactness is unconditional: the backend falls back to counted
//! enumeration whenever saturation is incomplete or the model sits past
//! the tractability frontier ([`herd_core::model::Tractability`]); the
//! fallback shows up in [`QueryStats::backend`], never silently.
//!
//! ## Batched judging
//!
//! The data-mining workflow (paper Sec 11, `mcompare`) does not ask one
//! question — it judges every row of a hardware log, and hardware logs
//! repeat themselves: a 100k-run campaign of a 2-thread test produces a
//! handful of *distinct* final states. Two backends answer a batch.
//!
//! - [`decide_log`] decides the rows. Literal repeats are answered once
//!   and copied ([`BatchStats::reused`]); the remaining distinct rows are
//!   grouped *per control-flow combination* by their screened rf class —
//!   the filtered rf menus plus the memory constraints — and each class
//!   walks the rf odometer **once**, sharing every solve, concretisation
//!   and coherence saturation across its members, with only the final
//!   register probe checked per row. Full-state hardware rows pin every
//!   read, so there each class is usually one row and costs one
//!   saturation. [`decide_outcome`] (and `herd-hw`'s `judge_entry`) are
//!   thin wrappers over the same machinery, so the single-row path cannot
//!   drift from the batch path.
//! - [`AllowedSet`] does what `mcompare` does: one verdict stream over the
//!   whole test collects the model's allowed states, and each row is
//!   answered by membership, on the projection it names.
//!
//! [`judge_log`] is the log-judging entry point that picks between them.
//! It runs thread semantics once, and its cost model
//! ([`STREAM_SPACE_PER_ROW`]) weighs the test's candidate space (rf
//! configurations × coherence orders) against the distinct rows to
//! answer: enumeration costs exactly the candidate count, a saturation
//! costs per row ("How Hard is Weak-Memory Testing?"), and neither wins
//! everywhere. `herd-hw`'s `judge_log_cached` sends its cache misses here.
//! The row keys of that cache come from [`RowView`], a parse of the row
//! that borrows its text, so a cache hit builds no [`Outcome`].

use crate::candidates::{
    bump, candidate_space, combo_parts, stream_arch_verdicts_on, thread_paths, value_domain,
    CandidateError, ComboParts, Concretiser, EnumOptions, FinalRegs, LocTable, RegFinal,
};
use crate::expr::{RVal, SymExpr};
use crate::isa::Reg;
use crate::program::{InitVal, LitmusTest};
use crate::sem::ThreadPath;
use herd_core::arena::RelArena;
use herd_core::consistency::{co_exists_with_envelope, CoQuery, ConsistencyStats};
use herd_core::event::{Event, Loc, Val};
use herd_core::fingerprint::{Fingerprint, FpHasher};
use herd_core::model::Architecture;
use herd_core::ppo::PpoEnvelope;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// One queried final state: register values by `(thread, register)` and
/// memory values by location name. Both parts are *subset* constraints —
/// observables the query does not mention are unconstrained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Required final register values.
    pub regs: FinalRegs,
    /// Required final memory values.
    pub mem: BTreeMap<String, i64>,
}

impl Outcome {
    /// Parses a litmus-log state row — the format of
    /// `herd-hw`'s `render_full_state` and of litmus7 histograms:
    /// `0:r1=1; 1:r2=0; x=2`. Trailing semicolons and blank pieces are
    /// tolerated; register values that are not integers are taken as
    /// location names (address-valued registers). The one row parser is
    /// [`RowView::parse`]; this builds the owned maps from its view.
    ///
    /// # Errors
    ///
    /// Returns the malformed piece, or the piece that names a register or
    /// location an earlier piece of the row already named.
    pub fn from_state_row(row: &str) -> Result<Outcome, String> {
        let mut view = RowView::default();
        view.parse(row)?;
        Ok(view.to_outcome())
    }
}

/// A register's final value as a state row spells it, borrowed from the
/// row text: the borrowed twin of [`RegFinal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegValue<'a> {
    /// An integer.
    Int(i64),
    /// The address of a location, by name.
    Addr(&'a str),
}

impl<'a> From<&'a RegFinal> for RegValue<'a> {
    fn from(v: &'a RegFinal) -> Self {
        match v {
            RegFinal::Int(i) => RegValue::Int(*i),
            RegFinal::Addr(name) => RegValue::Addr(name),
        }
    }
}

impl RegValue<'_> {
    fn to_final(self) -> RegFinal {
        match self {
            RegValue::Int(i) => RegFinal::Int(i),
            RegValue::Addr(name) => RegFinal::Addr(name.to_owned()),
        }
    }
}

/// One state row parsed in place: the pieces of an [`Outcome`], borrowed
/// from the row text and kept sorted by key, as the owned maps iterate.
/// The buffers are reused across rows — [`RowView::parse`] clears and
/// refills them — so once they have grown to a row's piece count,
/// parsing and keying a further row allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct RowView<'a> {
    regs: Vec<((u16, Reg), RegValue<'a>)>,
    mem: Vec<(&'a str, i64)>,
}

/// `s.split_once(sep)` for an ASCII separator, without the char searcher.
fn split_at_byte(s: &str, sep: u8) -> Option<(&str, &str)> {
    let at = s.bytes().position(|b| b == sep)?;
    Some((&s[..at], &s[at + 1..]))
}

/// `s.trim()`, skipping the Unicode scan when both ends are visible ASCII
/// (which is never white space).
fn trim(s: &str) -> &str {
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(f), Some(l)) if f.is_ascii_graphic() && l.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

impl<'a> RowView<'a> {
    /// Parses `row` into this view, replacing what it held. The grammar
    /// is [`Outcome::from_state_row`]'s.
    ///
    /// # Errors
    ///
    /// As [`Outcome::from_state_row`]; the view's contents are then
    /// unspecified.
    pub fn parse(&mut self, row: &'a str) -> Result<(), String> {
        self.regs.clear();
        self.mem.clear();
        // `str::split(';')`, `split_once` and `trim`, by byte: the
        // separators are ASCII, so every cut is a char boundary.
        let mut rest = Some(row);
        while let Some(text) = rest {
            let piece = match split_at_byte(text, b';') {
                Some((piece, next)) => {
                    rest = Some(next);
                    piece
                }
                None => {
                    rest = None;
                    text
                }
            };
            let piece = trim(piece);
            if piece.is_empty() {
                continue;
            }
            let Some((lhs, rhs)) = split_at_byte(piece, b'=') else {
                return Err(format!("'{piece}': expected lhs=value"));
            };
            let (lhs, rhs) = (trim(lhs), trim(rhs));
            if let Some((tid, reg)) = split_at_byte(lhs, b':') {
                let tid: u16 =
                    trim(tid).parse().map_err(|_| format!("'{piece}': bad thread id"))?;
                let reg: Reg = trim(reg)
                    .strip_prefix('r')
                    .and_then(|n| n.parse().ok())
                    .map(Reg)
                    .ok_or_else(|| format!("'{piece}': bad register"))?;
                let val = match rhs.parse::<i64>() {
                    Ok(v) => RegValue::Int(v),
                    Err(_) => RegValue::Addr(rhs),
                };
                match self.regs.binary_search_by(|(k, _)| k.cmp(&(tid, reg))) {
                    Ok(_) => return Err(format!("'{piece}': register {tid}:{reg} named twice")),
                    Err(at) => self.regs.insert(at, ((tid, reg), val)),
                }
            } else {
                let v: i64 = rhs.parse().map_err(|_| format!("'{piece}': bad memory value"))?;
                match self.mem.binary_search_by(|&(name, _)| name.cmp(lhs)) {
                    Ok(_) => return Err(format!("'{piece}': location {lhs} named twice")),
                    Err(at) => self.mem.insert(at, (lhs, v)),
                }
            }
        }
        Ok(())
    }

    /// The owned [`Outcome`] this view spells.
    pub fn to_outcome(&self) -> Outcome {
        Outcome {
            regs: self.regs.iter().map(|&(k, v)| (k, v.to_final())).collect(),
            mem: self.mem.iter().map(|&(name, v)| (name.to_owned(), v)).collect(),
        }
    }

    /// The verdict key of this row under the query key `base`: exactly
    /// [`outcome_fingerprint`] of [`RowView::to_outcome`], computed
    /// without building the outcome.
    pub fn fingerprint(&self, base: Fingerprint) -> Fingerprint {
        row_key(base, self.regs.iter().map(|(k, v)| (k, *v)), self.mem.iter().copied())
    }
}

/// Work accounting of one or many decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Control-flow combinations examined.
    pub combos: u64,
    /// Combinations skipped whole by static register screening.
    pub combos_pruned: u64,
    /// rf configurations walked (after required-value menu filtering).
    pub rf_configs: u64,
    /// The unfiltered rf-configuration space of the examined
    /// combinations — what enumeration would walk.
    pub rf_space: u128,
    /// Value concretisations whose observables matched the outcome.
    pub matched: u64,
    /// The coherence backend's own counters (witnesses, contradictions,
    /// counted fallbacks).
    pub backend: ConsistencyStats,
}

impl QueryStats {
    /// Folds another decision's stats into this one.
    pub fn absorb(&mut self, o: &QueryStats) {
        self.combos += o.combos;
        self.combos_pruned += o.combos_pruned;
        self.rf_configs += o.rf_configs;
        self.rf_space += o.rf_space;
        self.matched += o.matched;
        self.backend.absorb(&o.backend);
    }

    /// Coherence queries the ppo envelope decided definitively
    /// ([`herd_core::model::Tractability::Conditional`] models only).
    pub fn conditional_definitive(&self) -> usize {
        self.backend.conditional_definitive
    }

    /// Coherence queries that took the enumeration fallback because the
    /// ppo envelope genuinely disagreed.
    pub fn envelope_fallbacks(&self) -> usize {
        self.backend.envelope_fallbacks
    }
}

/// The answer to one outcome query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Does some consistent execution of the test produce the outcome?
    pub allowed: bool,
    /// What it cost to find out.
    pub stats: QueryStats,
}

/// Work accounting of one batched decision ([`decide_log`]), on top of
/// the underlying [`QueryStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows in the input log, before deduplication.
    pub rows: u64,
    /// Screened rf classes walked: groups of distinct rows sharing
    /// filtered rf menus and memory constraints within one control-flow
    /// combination. Each class walks its rf odometer once.
    pub classes: u64,
    /// Coherence placements launched (each shared by a whole class).
    pub saturations: u64,
    /// Rows answered without their own decision walk: literal duplicates
    /// of an earlier row, plus class co-members settled by a witness
    /// found once for the class.
    pub reused: u64,
    /// The underlying decision accounting.
    pub query: QueryStats,
}

/// The answer to one batched log query: one verdict per input row, in
/// input order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchDecision {
    /// `verdicts[i]` answers `rows[i]`: allowed under the model?
    pub verdicts: Vec<bool>,
    /// What the whole batch cost.
    pub stats: BatchStats,
}

/// Decides whether `outcome` is allowed for `test` under `arch`.
///
/// Exact for every architecture; polynomial (per rf configuration) for
/// models vouching for [`herd_core::model::Tractability::Polynomial`].
/// A thin wrapper over the batch engine ([`decide_log`]) with a
/// single-row log — identical control flow and accounting.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn decide_outcome<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    outcome: &Outcome,
) -> Result<Decision, CandidateError> {
    let batch = decide_log(test, arch, opts, std::slice::from_ref(outcome))?;
    Ok(Decision { allowed: batch.verdicts[0], stats: batch.stats.query })
}

/// Judges a whole log of outcome rows against one `(test, model)` pair.
///
/// Shares work three ways that row-at-a-time [`decide_outcome`] cannot:
/// thread semantics and combination parts are computed once for the
/// whole batch; literal repeat rows are answered once and copied; and
/// within each combination, rows are grouped by screened rf class —
/// identical filtered menus plus identical memory constraints — so each
/// class walks the rf odometer, the solver and the coherence saturation
/// *once*, with only the per-row register probe distinguishing members.
/// A witness found for a class settles every member whose registers
/// match ([`BatchStats::reused`]).
///
/// Verdicts are bit-identical to calling [`decide_outcome`] per row.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn decide_log<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    rows: &[Outcome],
) -> Result<BatchDecision, CandidateError> {
    decide_rows(test, arch, opts, rows, &LocTable::for_test(test), None)
}

/// [`decide_log`], reusing the thread paths when the caller already ran
/// thread semantics (`paths`, computed under `locs`); with `None` they
/// are computed here, and only if some row can match at all.
fn decide_rows<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    rows: &[Outcome],
    locs: &LocTable,
    paths: Option<&[Vec<ThreadPath>]>,
) -> Result<BatchDecision, CandidateError> {
    let mut stats = BatchStats { rows: rows.len() as u64, ..BatchStats::default() };
    // Literal repeats: each input row maps to one distinct outcome.
    let mut first: BTreeMap<(&FinalRegs, &BTreeMap<String, i64>), usize> = BTreeMap::new();
    let mut distinct: Vec<usize> = Vec::new();
    let mut owner: Vec<usize> = Vec::with_capacity(rows.len());
    for (i, o) in rows.iter().enumerate() {
        owner.push(*first.entry((&o.regs, &o.mem)).or_insert_with(|| {
            distinct.push(i);
            distinct.len() - 1
        }));
    }
    stats.reused += (rows.len() - distinct.len()) as u64;

    // A location the test does not know can never match any candidate.
    let mut dverdict: Vec<Option<bool>> = distinct
        .iter()
        .map(|&i| rows[i].mem.keys().any(|name| locs.lookup(name).is_none()).then_some(false))
        .collect();
    let live: Vec<usize> = (0..distinct.len()).filter(|&d| dverdict[d].is_none()).collect();

    // Distinct rows a multi-member class answered *forbidden*: they rode
    // another member's exhaustive walk exactly as witness-settled members
    // do, and count as reused (once per row) when they stay forbidden.
    let mut shared_forbidden = vec![false; distinct.len()];
    if !live.is_empty() {
        let owned;
        let paths = match paths {
            Some(paths) => paths,
            None => {
                owned = thread_paths(test, opts, &locs.as_map())?;
                &owned
            }
        };
        let domain = value_domain(test);
        let mut arena = RelArena::new(0);
        let mut pick = vec![0usize; paths.len()];
        let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
        loop {
            let combo: Vec<&ThreadPath> = pick.iter().zip(paths).map(|(&i, ps)| &ps[i]).collect();
            stats.query.combos += 1;
            let parts = combo_parts(test, locs, &combo);
            stats.query.rf_space +=
                parts.rf_choices.iter().map(|c| c.len() as u128).product::<u128>().max(1);
            // Screen every still-undecided row, grouping survivors by
            // their screened rf class.
            let mut groups: BTreeMap<ClassKey<'_>, Vec<usize>> = BTreeMap::new();
            let mut screened = 0usize;
            for &d in &live {
                if dverdict[d].is_some() {
                    continue;
                }
                screened += 1;
                let outcome = &rows[distinct[d]];
                if let Some(menus) = screen_combo(test, locs, &combo, &parts, outcome) {
                    groups.entry((menus, &outcome.mem)).or_default().push(d);
                }
            }
            if screened > 0 && groups.is_empty() {
                // The combination is skipped whole, as in the single-row
                // path: no surviving row can match it.
                stats.query.combos_pruned += 1;
            }
            // The ppo envelope of a Conditional model depends only on
            // the combination's core — compute it once here and share
            // it across every class and coherence query of the combo.
            let envelope: Option<PpoEnvelope> =
                if groups.is_empty() { None } else { arch.ppo_envelope(&parts.core) };
            let mut conc = Concretiser::new(test, locs, &combo, &parts, &domain);
            for ((menus, _), members) in &groups {
                stats.classes += 1;
                decide_class(
                    arch,
                    locs,
                    &mut conc,
                    &parts,
                    envelope.as_ref(),
                    menus,
                    members,
                    rows,
                    &distinct,
                    &mut dverdict,
                    &mut arena,
                    &mut stats,
                );
                for &d in members.iter().skip(1) {
                    if dverdict[d].is_none() {
                        shared_forbidden[d] = true;
                    }
                }
            }
            if live.iter().all(|&d| dverdict[d].is_some()) {
                break;
            }
            if !bump(&mut pick, &radices) {
                break;
            }
        }
    }

    // Rows the walk never settled have no witness in any combination;
    // those that shared some class's walk are reused, not re-walked.
    stats.reused += shared_forbidden
        .iter()
        .zip(&dverdict)
        .filter(|&(&shared, v)| shared && v.is_none())
        .count() as u64;
    let verdicts: Vec<bool> = owner.iter().map(|&d| dverdict[d].unwrap_or(false)).collect();
    Ok(BatchDecision { verdicts, stats })
}

/// The cost model of [`judge_log`], in candidates per row: one verdict
/// stream is chosen when the test's unpruned candidate space `S` (rf
/// configurations × coherence orders) is at most this many candidates
/// per distinct row beyond the first, `S ≤ 4·(m − 1)`; otherwise
/// [`decide_log`] decides the `m` rows. A single row is never streamed.
///
/// Calibrated by judging every cache-missing call of the textbench
/// `hw-logs` workload (Power, ARM and x86 campaign logs of corpus and diy
/// tests; 11k calls) and a sweep of corpus and diy tests at 1–32 rows
/// (1.2k calls) cold both ways, on a shared 2-core x86-64 container.
/// Least-squares fits agreed across both sets: a stream costs ≈ 35 µs
/// plus ≈ 3 µs per candidate, `decide_log` ≈ 14 µs plus ≈ 11 µs per
/// row. They break even at `S ≈ 3.7·m − 7`, rounded here to
/// `S ≤ 4·(m − 1)`. That rule came within 2% (hw-logs) and 4% (sweep)
/// of choosing the faster backend on every call; always streaming cost
/// 55% more than it on the sweep, always deciding 82% more on hw-logs.
pub const STREAM_SPACE_PER_ROW: u128 = 4;

/// Which backend answered a [`judge_log`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogBackend {
    /// No row needed the model: each named a location the test lacks,
    /// or there were no rows. Thread semantics did not run.
    Screened,
    /// One verdict stream over the test; every row was answered by
    /// membership in the collected [`AllowedSet`].
    Stream,
    /// [`decide_log`]: the candidate space was too large for the rows.
    Decide,
    /// The stream was chosen but passed `max_candidates`; [`decide_log`]
    /// answered instead, exactly.
    StreamFallback,
}

/// The answer to one [`judge_log`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogJudgement {
    /// `verdicts[i]` answers `rows[i]`: allowed under the model?
    pub verdicts: Vec<bool>,
    /// The backend the cost model chose.
    pub backend: LogBackend,
    /// The test's unpruned candidate space: per control-flow
    /// combination, rf configurations × coherence orders, summed (0 when
    /// thread semantics did not run).
    pub space: u128,
}

/// Judges a log of outcome rows against one `(test, model)` pair the way
/// `mcompare` does — against the model's set of allowed states — when
/// that is cheaper than deciding the rows one class at a time.
///
/// Thread semantics runs once. A cost model then compares the test's
/// candidate space with the number of distinct rows that can match at
/// all. When the space is at most [`STREAM_SPACE_PER_ROW`] candidates
/// per row beyond the first, one
/// [`stream_arch_verdicts`](crate::candidates::stream_arch_verdicts) run
/// collects the [`AllowedSet`] and each row is answered by membership;
/// otherwise [`decide_log`] decides the rows. A stream past
/// `max_candidates` falls back to [`decide_log`], so the answer is always
/// exact. Verdicts are [`decide_log`]'s on every row either way: a row
/// naming only some observables matches on that projection, and a row
/// naming a location the test lacks, or a thread it does not have, is
/// forbidden.
///
/// # Errors
///
/// Propagates [`CandidateError::Sem`] from thread semantics.
pub fn judge_log<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    rows: &[Outcome],
) -> Result<LogJudgement, CandidateError> {
    let locs = LocTable::for_test(test);
    let known = |o: &Outcome| o.mem.keys().all(|name| locs.lookup(name).is_some());
    let mut live: BTreeMap<(&FinalRegs, &BTreeMap<String, i64>), bool> =
        rows.iter().filter(|o| known(o)).map(|o| ((&o.regs, &o.mem), false)).collect();
    if live.is_empty() {
        let verdicts = vec![false; rows.len()];
        return Ok(LogJudgement { verdicts, backend: LogBackend::Screened, space: 0 });
    }
    let paths = thread_paths(test, opts, &locs.as_map())?;
    let space = candidate_space(&paths);
    let backend = if space <= STREAM_SPACE_PER_ROW.saturating_mul(live.len() as u128 - 1) {
        match AllowedSet::stream_on(test, arch, opts, &locs, &paths) {
            Ok(set) => {
                for ((regs, mem), v) in &mut live {
                    *v = set.admits(regs, mem);
                }
                let verdicts =
                    rows.iter().map(|o| live.get(&(&o.regs, &o.mem)) == Some(&true)).collect();
                return Ok(LogJudgement { verdicts, backend: LogBackend::Stream, space });
            }
            Err(CandidateError::TooManyCandidates { .. }) => LogBackend::StreamFallback,
            Err(e) => return Err(e),
        }
    } else {
        LogBackend::Decide
    };
    let batch = decide_rows(test, arch, opts, rows, &locs, Some(&paths))?;
    Ok(LogJudgement { verdicts: batch.verdicts, backend, space })
}

/// The allowed full outcomes of one test under one model, collected from
/// a single verdict stream: the model's side of `mcompare`, as a
/// structural set keyed by final register file. Each distinct outcome is
/// cloned once, when first seen; the stream's other candidates only probe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllowedSet {
    by_regs: BTreeMap<FinalRegs, BTreeSet<BTreeMap<String, i64>>>,
}

impl AllowedSet {
    /// Streams every candidate of `test` under `arch` and keeps the
    /// observables of the allowed ones.
    ///
    /// # Errors
    ///
    /// Fails if thread semantics rejects the program or the stream passes
    /// `opts.max_candidates`.
    pub fn stream<A: Architecture + ?Sized>(
        test: &LitmusTest,
        arch: &A,
        opts: &EnumOptions,
    ) -> Result<AllowedSet, CandidateError> {
        let locs = LocTable::for_test(test);
        let paths = thread_paths(test, opts, &locs.as_map())?;
        AllowedSet::stream_on(test, arch, opts, &locs, &paths)
    }

    fn stream_on<A: Architecture + ?Sized>(
        test: &LitmusTest,
        arch: &A,
        opts: &EnumOptions,
        locs: &LocTable,
        paths: &[Vec<ThreadPath>],
    ) -> Result<AllowedSet, CandidateError> {
        let mut by_regs: BTreeMap<FinalRegs, BTreeSet<BTreeMap<String, i64>>> = BTreeMap::new();
        stream_arch_verdicts_on(test, opts, arch, locs, paths, &mut |vc| {
            if !vc.verdict.allowed() {
                return;
            }
            match by_regs.get_mut(vc.final_regs) {
                Some(mems) => {
                    if !mems.contains(vc.final_mem) {
                        mems.insert(vc.final_mem.clone());
                    }
                }
                None => {
                    by_regs.insert(vc.final_regs.clone(), BTreeSet::from([vc.final_mem.clone()]));
                }
            }
        })?;
        Ok(AllowedSet { by_regs })
    }

    /// Does some allowed outcome agree with every observable the row
    /// names? A row naming every observable is one lookup; a row naming
    /// only some is matched on that projection, as [`decide_log`] does.
    pub fn admits(&self, regs: &FinalRegs, mem: &BTreeMap<String, i64>) -> bool {
        if self.by_regs.get(regs).is_some_and(|mems| mems.contains(mem)) {
            return true;
        }
        self.by_regs.iter().any(|(all_regs, mems)| {
            regs.iter().all(|(k, v)| all_regs.get(k) == Some(v))
                && mems.iter().any(|m| mem.iter().all(|(name, v)| m.get(name) == Some(v)))
        })
    }
}

/// The exact identity of one screened rf class: the filtered rf menus
/// plus the row's memory constraints — everything the shared walk of
/// [`decide_class`] depends on.
type ClassKey<'a> = (Vec<Vec<usize>>, &'a BTreeMap<String, i64>);

/// Walks one screened rf class within one control-flow combination,
/// settling every member a witness covers. Members share the rf
/// odometer, the solver and the coherence queries; only the final
/// register probe is per-row.
#[allow(clippy::too_many_arguments)] // private odometer step of decide_log
fn decide_class<A: Architecture + ?Sized>(
    arch: &A,
    locs: &LocTable,
    conc: &mut Concretiser<'_>,
    parts: &ComboParts,
    envelope: Option<&PpoEnvelope>,
    menus: &[Vec<usize>],
    members: &[usize],
    rows: &[Outcome],
    distinct: &[usize],
    dverdict: &mut [Option<bool>],
    arena: &mut RelArena,
    stats: &mut BatchStats,
) {
    // Memory constraints are part of the class key: identical across
    // members, so any member stands for the class below.
    let class_outcome = &rows[distinct[members[0]]];
    let rf_radices: Vec<usize> = menus.iter().map(Vec::len).collect();
    let mut rf_pick = vec![0usize; menus.len()];
    let mut rf_pairs: Vec<(usize, usize)> = Vec::with_capacity(parts.reads.len());
    let mut matching: Vec<usize> = Vec::new();
    let mut evs: Vec<Event> = Vec::new();
    loop {
        stats.query.rf_configs += 1;
        rf_pairs.clear();
        rf_pairs.extend(parts.reads.iter().enumerate().map(|(k, &r)| (menus[k][rf_pick[k]], r)));
        for i in 0..conc.run(|k| menus[k][rf_pick[k]]) {
            let final_regs = conc.final_regs(i);
            // The per-row probe: which undecided members does this
            // concretisation's register file satisfy?
            matching.clear();
            matching.extend(members.iter().copied().filter(|&d| {
                dverdict[d].is_none()
                    && rows[distinct[d]].regs.iter().all(|(k, v)| final_regs.get(k) == Some(v))
            }));
            if matching.is_empty() {
                continue;
            }
            conc.events_into(i, &mut evs);
            // The outcome's memory values pin per-location co-maximal
            // writes: collect the candidate last writes of each
            // constrained location (any one of them being co-maximal
            // yields the required value — they are tried in turn).
            let Some((constrained, last_menus)) =
                last_write_menus(parts, locs, class_outcome, &evs)
            else {
                continue;
            };
            stats.query.matched += matching.len() as u64;
            let lw_radices: Vec<usize> = last_menus.iter().map(Vec::len).collect();
            let mut lw_pick = vec![0usize; last_menus.len()];
            loop {
                let last_writes: Vec<(Loc, usize)> = constrained
                    .iter()
                    .zip(&lw_pick)
                    .enumerate()
                    .map(|(j, (&l, &i))| (l, last_menus[j][i]))
                    .collect();
                let q = CoQuery {
                    core: &parts.core,
                    events: &evs,
                    rf: &rf_pairs,
                    last_writes: &last_writes,
                };
                stats.saturations += 1;
                if co_exists_with_envelope(arch, &q, envelope, arena, &mut stats.query.backend) {
                    // One witness settles every matching member.
                    for (extra, &d) in matching.iter().enumerate() {
                        dverdict[d] = Some(true);
                        stats.reused += (extra > 0) as u64;
                    }
                    break;
                }
                if !bump(&mut lw_pick, &lw_radices) {
                    break;
                }
            }
            if members.iter().all(|&d| dverdict[d].is_some()) {
                return;
            }
        }
        if !bump(&mut rf_pick, &rf_radices) {
            break;
        }
    }
}

/// Stable content key of one `(test, model, opts)` query context — the
/// base the per-row verdict keys of [`outcome_fingerprint`] extend, and
/// the key `herd-cache` stores model logs and reachability verdicts
/// under. The test is hashed by its structure (its derived [`Hash`]), so
/// structurally equal tests share a key whatever source text they came
/// from, and computing the key allocates nothing.
pub fn query_fingerprint(test: &LitmusTest, model_name: &str, opts: &EnumOptions) -> Fingerprint {
    let mut h = FpHasher::new("query/v2");
    h.tag("test");
    test.hash(&mut h);
    h.tag("model");
    h.write_str(model_name);
    h.tag("opts");
    h.write_u64(opts.fuel as u64);
    h.write_u64(opts.max_candidates as u64);
    h.finish()
}

/// Extends a query key with one outcome row: the content key of a single
/// cached verdict. Hashes the parsed maps, not the row text — the
/// register map (length, then each `(tid, reg, Int|Addr)`), then the
/// memory map (length, then each `(loc, value)`) — so piece order and
/// spacing in the row do not matter, and no allocation happens. A parsed
/// [`RowView`] keys itself identically ([`RowView::fingerprint`]).
pub fn outcome_fingerprint(base: Fingerprint, outcome: &Outcome) -> Fingerprint {
    row_key(
        base,
        outcome.regs.iter().map(|(k, v)| (k, RegValue::from(v))),
        outcome.mem.iter().map(|(name, &v)| (name.as_str(), v)),
    )
}

/// The one verdict-key definition behind [`outcome_fingerprint`] and
/// [`RowView::fingerprint`]: the register pieces, then the memory pieces,
/// each as a length followed by its items in key order — the encoding
/// std's `Hash` gives the two `BTreeMap`s of an [`Outcome`], so the key
/// is the same whichever form the row is in.
fn row_key<'r>(
    base: Fingerprint,
    regs: impl ExactSizeIterator<Item = (&'r (u16, Reg), RegValue<'r>)>,
    mem: impl ExactSizeIterator<Item = (&'r str, i64)>,
) -> Fingerprint {
    let mut h = FpHasher::from(base);
    h.tag("row/v2");
    regs.len().hash(&mut h);
    for (k, v) in regs {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    mem.len().hash(&mut h);
    for (name, v) in mem {
        name.hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

/// Static register screening of one combination: `None` when the path's
/// final register file can never match `outcome`, otherwise the rf menus
/// with required-value filtering applied (a read whose value the outcome
/// pins to `v` keeps only sources that can produce `v`).
fn screen_combo(
    test: &LitmusTest,
    locs: &LocTable,
    combo: &[&ThreadPath],
    parts: &ComboParts,
    outcome: &Outcome,
) -> Option<Vec<Vec<usize>>> {
    let mut menus = parts.rf_choices.clone();
    for ((otid, reg), want) in &outcome.regs {
        let Some(path) = combo.get(*otid as usize) else {
            return None; // a thread the test does not have
        };
        match path.final_regs.get(reg) {
            Some(RVal::Addr(l)) => {
                let ok = matches!(want, RegFinal::Addr(name) if name == locs.name(*l));
                if !ok {
                    return None;
                }
            }
            Some(RVal::Int(e)) => match want {
                RegFinal::Addr(_) => return None,
                RegFinal::Int(v) => {
                    if let Some(c) = e.as_const() {
                        if c != *v {
                            return None;
                        }
                    } else if let SymExpr::Sym(s) = e {
                        // The register is a read's value verbatim: only
                        // sources that can produce `v` can match.
                        let g = parts.read_gid[*otid as usize][s.0];
                        let k = parts
                            .reads
                            .iter()
                            .position(|&r| r == g)
                            .expect("read symbol maps to a read event");
                        menus[k].retain(|&w| {
                            match parts.write_value[w].as_ref().and_then(SymExpr::as_const) {
                                Some(c) => c == *v,
                                None => true, // symbolic source: solver decides
                            }
                        });
                        if menus[k].is_empty() {
                            return None;
                        }
                    }
                }
            },
            // Unwritten registers keep their initial value (or are
            // absent from the final file entirely).
            None => match (test.reg_init.get(&(*otid, *reg)), want) {
                (Some(InitVal::Int(i)), RegFinal::Int(v)) if i == v => {}
                (Some(InitVal::Loc(l)), RegFinal::Addr(m)) if l == m => {}
                _ => return None,
            },
        }
    }
    Some(menus)
}

/// The candidate co-maximal writes of each memory-constrained location;
/// `None` when some required value is unproducible in this
/// concretisation.
fn last_write_menus(
    parts: &ComboParts,
    locs: &LocTable,
    outcome: &Outcome,
    evs: &[Event],
) -> Option<(Vec<Loc>, Vec<Vec<usize>>)> {
    let mut constrained: Vec<Loc> = Vec::new();
    let mut menus: Vec<Vec<usize>> = Vec::new();
    for (name, &v) in &outcome.mem {
        let loc = locs.lookup(name).expect("unknown locations rejected up front");
        match parts.co_locs.iter().position(|&l| l == loc) {
            Some(li) => {
                let cands: Vec<usize> =
                    parts.co_writes[li].iter().copied().filter(|&w| evs[w].val == Val(v)).collect();
                if cands.is_empty() {
                    return None;
                }
                constrained.push(loc);
                menus.push(cands);
            }
            // Only the initial write: the final value is fixed.
            None => {
                if evs[loc.0 as usize].val != Val(v) {
                    return None;
                }
            }
        }
    }
    Some((constrained, menus))
}

/// Feeds every distinct allowed *full* outcome of `test` under `arch` to
/// `emit`: the complete final register file plus one value per location —
/// the states an `herd-hw` model log lists. Each distinct outcome is
/// emitted exactly once. Decisions run on the same backend as
/// [`decide_outcome`]; the work lands in `stats`.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn allowed_full_outcomes<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    stats: &mut QueryStats,
    emit: &mut dyn FnMut(&FinalRegs, &BTreeMap<String, i64>),
) -> Result<(), CandidateError> {
    let locs = LocTable::for_test(test);
    let loc_map = locs.as_map();
    let paths = thread_paths(test, opts, &loc_map)?;
    let domain = value_domain(test);
    let mut arena = RelArena::new(0);
    // Allowed full outcomes already emitted, by register file.
    let mut seen_allowed: BTreeMap<FinalRegs, BTreeSet<BTreeMap<String, i64>>> = BTreeMap::new();
    let mut pick = vec![0usize; paths.len()];
    let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
    loop {
        let combo: Vec<&ThreadPath> = pick.iter().zip(&paths).map(|(&i, ps)| &ps[i]).collect();
        stats.combos += 1;
        let parts = combo_parts(test, &locs, &combo);
        stats.rf_space += parts.rf_choices.iter().map(|c| c.len() as u128).product::<u128>().max(1);
        // One ppo envelope per combination, shared by every query on it.
        let envelope: Option<PpoEnvelope> = arch.ppo_envelope(&parts.core);
        let mut conc = Concretiser::new(test, &locs, &combo, &parts, &domain);
        let rf_radices: Vec<usize> = parts.rf_choices.iter().map(Vec::len).collect();
        let mut rf_pick = vec![0usize; parts.rf_choices.len()];
        let mut rf_pairs: Vec<(usize, usize)> = Vec::with_capacity(parts.reads.len());
        let mut evs: Vec<Event> = Vec::new();
        loop {
            stats.rf_configs += 1;
            let choice = |k: usize| parts.rf_choices[k][rf_pick[k]];
            rf_pairs.clear();
            rf_pairs.extend(parts.reads.iter().enumerate().map(|(k, &r)| (choice(k), r)));
            for i in 0..conc.run(choice) {
                conc.events_into(i, &mut evs);
                let final_regs = conc.final_regs(i);
                stats.matched += 1;
                // Full final memory: one co-maximal write choice per
                // location with thread writes, the initial value
                // elsewhere.
                let lw_radices: Vec<usize> = parts.co_writes.iter().map(Vec::len).collect();
                let mut lw_pick = vec![0usize; parts.co_writes.len()];
                loop {
                    let mut mem: BTreeMap<String, i64> = locs
                        .names()
                        .iter()
                        .enumerate()
                        .map(|(i, n)| (n.clone(), evs[i].val.0))
                        .collect();
                    let mut last_writes: Vec<(Loc, usize)> =
                        Vec::with_capacity(parts.co_locs.len());
                    for (li, &loc) in parts.co_locs.iter().enumerate() {
                        let w = parts.co_writes[li][lw_pick[li]];
                        mem.insert(locs.name(loc).to_owned(), evs[w].val.0);
                        last_writes.push((loc, w));
                    }
                    if !seen_allowed.get(final_regs).is_some_and(|seen| seen.contains(&mem)) {
                        let q = CoQuery {
                            core: &parts.core,
                            events: &evs,
                            rf: &rf_pairs,
                            last_writes: &last_writes,
                        };
                        if co_exists_with_envelope(
                            arch,
                            &q,
                            envelope.as_ref(),
                            &mut arena,
                            &mut stats.backend,
                        ) {
                            emit(final_regs, &mem);
                            seen_allowed.entry(final_regs.clone()).or_default().insert(mem);
                        }
                    }
                    if !bump(&mut lw_pick, &lw_radices) {
                        break;
                    }
                }
            }
            if !bump(&mut rf_pick, &rf_radices) {
                break;
            }
        }
        if !bump(&mut pick, &radices) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Dev};
    use crate::isa::Isa;
    use herd_core::arch::{Power, Sc, Tso};

    fn outcome(row: &str) -> Outcome {
        Outcome::from_state_row(row).unwrap()
    }

    #[test]
    fn parses_state_rows() {
        let o = outcome("0:r1=1; 1:r2=0; x=2");
        assert_eq!(o.regs.get(&(0, Reg(1))), Some(&RegFinal::Int(1)));
        assert_eq!(o.regs.get(&(1, Reg(2))), Some(&RegFinal::Int(0)));
        assert_eq!(o.mem.get("x"), Some(&2));
        let o = outcome("1:r1=1; 1:r5=0;");
        assert_eq!(o.regs.len(), 2);
        assert!(o.mem.is_empty());
        assert!(Outcome::from_state_row("nonsense").is_err());
        assert!(Outcome::from_state_row("0:rx=1").is_err());
    }

    #[test]
    fn rows_naming_an_observable_twice_are_rejected() {
        // Keeping the last value would silently turn this row into r1=1.
        let err = Outcome::from_state_row("0:r1=0; 0:r1=1").unwrap_err();
        assert_eq!(err, "'0:r1=1': register 0:r1 named twice");
        let err = Outcome::from_state_row("x=1; 1:r2=0; x = 1;").unwrap_err();
        assert_eq!(err, "'x = 1': location x named twice");
        // The same name as a register of two threads, or as a register
        // and a location, is not a repeat.
        let o = outcome("0:r1=0; 1:r1=1; r1=2");
        assert_eq!((o.regs.len(), o.mem.len()), (2, 1));
    }

    #[test]
    fn mp_outcome_forbidden_on_sc_allowed_on_power() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0");
        let sc = decide_outcome(&test, &Sc, &EnumOptions::default(), &witness).unwrap();
        assert!(!sc.allowed, "SC forbids the mp relaxed outcome");
        assert_eq!(sc.stats.backend.fallbacks, 0, "SC stays on the polynomial path");
        let power =
            decide_outcome(&test, &Power::new(), &EnumOptions::default(), &witness).unwrap();
        assert!(power.allowed, "Power allows bare mp");
        assert!(
            power.stats.conditional_definitive() > 0,
            "the ppo envelope settles bare mp without enumeration"
        );
        assert_eq!(power.stats.backend.fallbacks, 0, "no envelope fallback on bare mp");
    }

    #[test]
    fn sb_outcome_allowed_on_tso() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("0:r1=0; 1:r1=0");
        let d = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        assert!(d.allowed, "store buffering is THE tso behaviour");
        let sc = decide_outcome(&test, &Sc, &EnumOptions::default(), &witness).unwrap();
        assert!(!sc.allowed);
    }

    #[test]
    fn forbidden_class_co_members_share_the_walk_and_count_reused() {
        // Two rows that differ only in a never-written register pinned to
        // its initial value screen to identical rf menus, so they land in
        // the same class. mp+sync+addr forbids the relaxed outcome on
        // Power: the class is walked once and the co-member is `reused`,
        // not silently answered by a second enumeration.
        // Thread 1 reads into r1 and r3 (r2 is the xor temp of the addr
        // dependency).
        let mut test = corpus::mp(Isa::Power, Dev::F(Isa::Power.full_fence()), Dev::Addr);
        test.reg_init.insert((0, Reg(5)), InitVal::Int(0));
        let rows = vec![outcome("1:r1=1; 1:r3=0"), outcome("1:r1=1; 1:r3=0; 0:r5=0")];
        let arch = Power::new();
        let batch = decide_log(&test, &arch, &EnumOptions::default(), &rows).unwrap();
        assert_eq!(batch.verdicts, vec![false, false], "mp+sync+addr forbids the outcome");
        let single = decide_log(&test, &arch, &EnumOptions::default(), &rows[..1]).unwrap();
        assert_eq!(
            batch.stats.saturations, single.stats.saturations,
            "class co-members share one decision walk"
        );
        assert_eq!(batch.stats.reused, 1, "the forbidden co-member is accounted as reused");
    }

    #[test]
    fn memory_constraints_pin_the_last_write() {
        // mp's writer publishes x=1 then y=1: final x=1 is mandatory,
        // final x=0 impossible.
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        assert!(decide_outcome(&test, &Tso, &opts, &outcome("x=1; y=1")).unwrap().allowed);
        assert!(!decide_outcome(&test, &Tso, &opts, &outcome("x=0")).unwrap().allowed);
        // A value no write produces is unreachable whatever the model.
        assert!(!decide_outcome(&test, &Power::new(), &opts, &outcome("x=9")).unwrap().allowed);
        // Unknown locations are trivially forbidden, not an error.
        assert!(!decide_outcome(&test, &Tso, &opts, &outcome("zz=0")).unwrap().allowed);
    }

    #[test]
    fn register_screening_prunes_the_rf_space() {
        // iriw: 4 reads × menus of 2 = 16 rf configurations; pinning all
        // four read registers leaves exactly one viable configuration.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let d = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        assert!(!d.allowed, "iriw is forbidden on TSO");
        assert_eq!(d.stats.rf_space, 16);
        assert_eq!(d.stats.rf_configs, 1, "pinned reads collapse the rf odometer");
    }

    #[test]
    fn batch_verdicts_match_row_at_a_time() {
        let rows: Vec<Outcome> = [
            "0:r1=0; 1:r1=0",
            "0:r1=1; 1:r1=0",
            "0:r1=0; 1:r1=1",
            "0:r1=1; 1:r1=1",
            "0:r1=0; 1:r1=0", // literal repeat
            "x=1; y=1",
            "zz=3", // unknown location
        ]
        .iter()
        .map(|r| outcome(r))
        .collect();
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
            let batch = decide_log(&test, arch, &EnumOptions::default(), &rows).unwrap();
            assert_eq!(batch.stats.rows, rows.len() as u64);
            for (i, row) in rows.iter().enumerate() {
                let single = decide_outcome(&test, arch, &EnumOptions::default(), row).unwrap();
                assert_eq!(
                    batch.verdicts[i], single.allowed,
                    "row {i} diverged between batch and single"
                );
            }
        }
    }

    #[test]
    fn batch_reuses_work_across_repeated_rows() {
        // 100 copies of two distinct rows: 98 answered by deduplication.
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(outcome(if i % 2 == 0 { "0:r1=0; 1:r1=0" } else { "0:r1=1; 1:r1=1" }));
        }
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let batch = decide_log(&test, &Tso, &EnumOptions::default(), &rows).unwrap();
        assert!(batch.verdicts.iter().all(|&v| v), "both states are TSO-allowed");
        assert!(batch.stats.reused >= 98, "duplicates are answered once: {:?}", batch.stats);
        assert!(
            batch.stats.query.combos <= 4,
            "the combo walk runs per batch, not per row: {:?}",
            batch.stats
        );
    }

    #[test]
    fn single_row_batch_reproduces_wrapper_stats() {
        // The decide_outcome wrapper and a 1-row decide_log are the same
        // machinery; their accounting must agree exactly.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let single = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        let batch =
            decide_log(&test, &Tso, &EnumOptions::default(), std::slice::from_ref(&witness))
                .unwrap();
        assert_eq!(single.stats, batch.stats.query);
        assert_eq!(batch.stats.reused, 0);
        assert!(batch.stats.classes >= 1);
    }

    #[test]
    fn fingerprints_are_stable_and_content_addressed() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        let base = query_fingerprint(&test, "TSO", &opts);
        assert_eq!(base, query_fingerprint(&test, "TSO", &opts), "same content, same key");
        assert_ne!(base, query_fingerprint(&test, "SC", &opts), "the model is part of the key");
        let other = corpus::mp(Isa::X86, Dev::Po, Dev::Po);
        assert_ne!(base, query_fingerprint(&other, "TSO", &opts), "the test is part of the key");
        let row = outcome("0:r1=0; 1:r1=0");
        let k1 = outcome_fingerprint(base, &row);
        assert_eq!(k1, outcome_fingerprint(base, &row));
        assert_ne!(k1, outcome_fingerprint(base, &outcome("0:r1=1; 1:r1=0")));
    }

    #[test]
    fn outcome_keys_follow_the_parsed_row_not_its_text() {
        let base = query_fingerprint(
            &corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            "TSO",
            &EnumOptions::default(),
        );
        let key = |row: &str| outcome_fingerprint(base, &outcome(row));
        let k = key("0:r1=1; 1:r1=x; y=2");
        for same in ["1:r1=x; y=2; 0:r1=1", "  0 : r1 = 1 ;1:r1=x;y=2", "y=2;0:r1=1;1:r1=x;;"] {
            assert_eq!(
                key(same),
                k,
                "piece order, spacing and trailing ';' are not identity: {same}"
            );
        }
        let mut keys = BTreeSet::from([k]);
        for other in [
            "0:r1=0; 1:r1=x; y=2",
            "0:r1=1; 1:r1=z; y=2",
            "0:r1=1; 1:r1=x; y=3",
            "0:r1=1; 1:r1=x; z=2",
            "0:r2=1; 1:r1=x; y=2",
            "1:r1=1; 0:r1=x; y=2",
            "0:r1=1; 1:r1=x",
            "0:r1=1; y=2",
            "",
        ] {
            assert!(keys.insert(key(other)), "{other:?} collides");
        }
        // Int vs Addr: the same spelling as an integer or an address.
        let mut addr = outcome("0:r1=1");
        addr.regs.insert((0, Reg(1)), RegFinal::Addr("1".into()));
        assert_ne!(key("0:r1=1"), outcome_fingerprint(base, &addr));
        // The same name as a register or as a location.
        assert_ne!(key("0:r1=1"), key("r1=1"));
        let mut as_loc = outcome("");
        as_loc.mem.insert("x".into(), 0);
        assert_ne!(key("0:r1=x"), outcome_fingerprint(base, &as_loc));
        // The row extends its query: another base, another key.
        let sc_base = query_fingerprint(
            &corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            "SC",
            &EnumOptions::default(),
        );
        assert_ne!(k, outcome_fingerprint(sc_base, &outcome("0:r1=1; 1:r1=x; y=2")));
    }

    #[test]
    fn row_views_key_exactly_as_the_owned_maps_hash() {
        // The PR 15 definition of a verdict key: std's derived `Hash` of
        // the two owned maps under the `row/v2` tag. The shared `row_key`
        // must reproduce it bit for bit, from either form of the row.
        let base = query_fingerprint(
            &corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            "TSO",
            &EnumOptions::default(),
        );
        let derived = |o: &Outcome| {
            let mut h = FpHasher::from(base);
            h.tag("row/v2");
            o.regs.hash(&mut h);
            o.mem.hash(&mut h);
            h.finish()
        };
        let mut view = RowView::default();
        for row in [
            "0:r1=1; 1:r1=x; y=2",
            "y=2; 1:r1=x; 0:r1=1;",
            "3:r12=-7; 0:r1=0; 10:r2=y; b=1; a=0; ab=3",
            "x=0",
            "0:r1=1",
            "",
        ] {
            let owned = outcome(row);
            view.parse(row).unwrap();
            assert_eq!(view.to_outcome(), owned, "{row:?}: the view spells the outcome");
            assert_eq!(outcome_fingerprint(base, &owned), derived(&owned), "{row:?}");
            assert_eq!(view.fingerprint(base), derived(&owned), "{row:?}");
        }
        // A reused view forgets the previous row, and reports its errors.
        view.parse("0:r1=1; x=1").unwrap();
        assert!(view.parse("0:r1=0; 0:r1=1").is_err());
        view.parse("x=1").unwrap();
        assert_eq!(view.to_outcome(), outcome("x=1"));
    }

    /// The row grammar over `str::split`, `split_once` and `trim`: the
    /// reference the byte-level [`RowView::parse`] must reproduce.
    fn std_parse(row: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for piece in row.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (lhs, rhs) =
                piece.split_once('=').ok_or_else(|| format!("'{piece}': expected lhs=value"))?;
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if let Some((tid, reg)) = lhs.split_once(':') {
                let tid: u16 =
                    tid.trim().parse().map_err(|_| format!("'{piece}': bad thread id"))?;
                let reg = reg
                    .trim()
                    .strip_prefix('r')
                    .and_then(|n| n.parse().ok())
                    .map(Reg)
                    .ok_or_else(|| format!("'{piece}': bad register"))?;
                let val =
                    rhs.parse().map_or_else(|_| RegFinal::Addr(rhs.to_owned()), RegFinal::Int);
                if out.regs.insert((tid, reg), val).is_some() {
                    return Err(format!("'{piece}': register {tid}:{reg} named twice"));
                }
            } else {
                let v = rhs.parse().map_err(|_| format!("'{piece}': bad memory value"))?;
                if out.mem.insert(lhs.to_owned(), v).is_some() {
                    return Err(format!("'{piece}': location {lhs} named twice"));
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn byte_level_row_parse_matches_the_std_string_grammar() {
        let mut view = RowView::default();
        for row in [
            "0:r1=1; 1:r2=0; x=2",
            "0:r1=1;1:r2=0;x=2;",
            ";;0:r1=1;;",
            "",
            ";",
            " \t0 :\tr1 = +1 ;\u{0b}x\u{0b}=\u{a0}-2\u{a0};\u{3000}",
            "0:r1=; 1:r2=x y",
            "0:r1==1",
            "a:b=1",
            "0:r1:2=1",
            "x==1",
            "=1",
            "0:=1",
            ":r1=1",
            "0:r=1",
            "0:r256=1",
            "65536:r1=1",
            "-1:r1=1",
            "+1:r+1=1",
            "x=99999999999999999999",
            "0:r1=99999999999999999999",
            "x=1; 0:r1=2; x=3",
            "1:r1=0; 0:r1=0; 1:r1=0",
            "é=1; 0:r1=é",
            "nonsense",
        ] {
            let fast = view.parse(row).map(|()| view.to_outcome());
            assert_eq!(fast, std_parse(row), "{row:?}");
        }
    }

    #[test]
    fn judge_log_streams_many_rows_and_decides_one() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        let rows: Vec<Outcome> =
            ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=0; 1:r1=1", "0:r1=1; 1:r1=1", "x=1"]
                .iter()
                .map(|r| outcome(r))
                .collect();
        for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
            let want = decide_log(&test, arch, &opts, &rows).unwrap().verdicts;
            let many = judge_log(&test, arch, &opts, &rows).unwrap();
            assert_eq!(many.space, 4, "sb: 4 rf configurations, one write per location");
            assert_eq!(many.backend, LogBackend::Stream, "4 candidates for 5 rows: stream");
            assert_eq!(many.verdicts, want);
            let one = judge_log(&test, arch, &opts, &rows[..1]).unwrap();
            assert_eq!(one.backend, LogBackend::Decide, "a single row is decided");
            assert_eq!(one.verdicts, want[..1]);
        }
        // No row can match: thread semantics never runs.
        let unknown = judge_log(&test, &Tso, &opts, &[outcome("zz=1")]).unwrap();
        assert_eq!((unknown.backend, unknown.verdicts), (LogBackend::Screened, vec![false]));
    }

    #[test]
    fn full_outcomes_match_enumeration_states() {
        use crate::simulate::eval_prop;
        for test in [
            corpus::mp(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            corpus::co_rr(Isa::X86),
        ] {
            let cands = crate::candidates::enumerate(&test, &EnumOptions::default()).unwrap();
            let reference: BTreeSet<(FinalRegs, BTreeMap<String, i64>)> = cands
                .iter()
                .filter(|c| herd_core::model::check(&Tso, &c.exec).allowed())
                .map(|c| ((*c.final_regs).clone(), c.final_mem.clone()))
                .collect();
            let mut stats = QueryStats::default();
            let mut ours = BTreeSet::new();
            let mut emitted = 0;
            allowed_full_outcomes(&test, &Tso, &EnumOptions::default(), &mut stats, &mut |r, m| {
                ours.insert((r.clone(), m.clone()));
                emitted += 1;
            })
            .unwrap();
            assert_eq!(emitted, ours.len(), "{}: an outcome was emitted twice", test.name);
            assert_eq!(ours, reference, "{}", test.name);
            let _ = eval_prop; // referenced: observables drive both sides
        }
    }
}
