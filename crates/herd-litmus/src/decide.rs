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
//! handful of *distinct* final states. [`decide_log`] exploits that
//! twice. Literal repeats are answered once and copied
//! ([`BatchStats::reused`]); the remaining distinct rows are grouped
//! *per control-flow combination* by their screened rf class — the
//! filtered rf menus plus the memory constraints — and each class walks
//! the rf odometer **once**, sharing every solve, concretisation and
//! coherence saturation across its members, with only the final
//! register probe checked per row. [`decide_outcome`] (and `herd-hw`'s
//! `judge_entry`) are thin wrappers over the same machinery, so the
//! single-row path cannot drift from the batch path.

use crate::candidates::{
    bump, combo_parts, final_registers, thread_paths, value_domain, CandidateError, ComboParts,
    EnumOptions, FinalRegs, LocTable, RegFinal,
};
use crate::expr::{self, Equation, RVal, SymExpr, SymId};
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
    /// location names (address-valued registers).
    ///
    /// # Errors
    ///
    /// Returns the malformed piece.
    pub fn from_state_row(row: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for piece in row.split(';') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let Some((lhs, rhs)) = piece.split_once('=') else {
                return Err(format!("'{piece}': expected lhs=value"));
            };
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if let Some((tid, reg)) = lhs.split_once(':') {
                let tid: u16 =
                    tid.trim().parse().map_err(|_| format!("'{piece}': bad thread id"))?;
                let reg = reg.trim();
                let reg: Reg = reg
                    .strip_prefix('r')
                    .and_then(|n| n.parse().ok())
                    .map(Reg)
                    .ok_or_else(|| format!("'{piece}': bad register"))?;
                let val = match rhs.parse::<i64>() {
                    Ok(v) => RegFinal::Int(v),
                    Err(_) => RegFinal::Addr(rhs.to_owned()),
                };
                out.regs.insert((tid, reg), val);
            } else {
                let v: i64 = rhs.parse().map_err(|_| format!("'{piece}': bad memory value"))?;
                out.mem.insert(lhs.to_owned(), v);
            }
        }
        Ok(out)
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
    let mut stats = BatchStats { rows: rows.len() as u64, ..BatchStats::default() };
    // Literal repeats: each input row maps to one distinct outcome.
    let mut first: BTreeMap<String, usize> = BTreeMap::new();
    let mut distinct: Vec<usize> = Vec::new();
    let mut owner: Vec<usize> = Vec::with_capacity(rows.len());
    for (i, o) in rows.iter().enumerate() {
        let key = render_key(&o.regs, &o.mem);
        owner.push(*first.entry(key).or_insert_with(|| {
            distinct.push(i);
            distinct.len() - 1
        }));
    }
    stats.reused += (rows.len() - distinct.len()) as u64;

    let locs = LocTable::for_test(test);
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
        let loc_map = locs.as_map();
        let paths = thread_paths(test, opts, &loc_map)?;
        let domain = value_domain(test);
        let mut arena = RelArena::new(0);
        let mut pick = vec![0usize; paths.len()];
        let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
        loop {
            let combo: Vec<&ThreadPath> = pick.iter().zip(&paths).map(|(&i, ps)| &ps[i]).collect();
            stats.query.combos += 1;
            let parts = combo_parts(test, &locs, &combo);
            stats.query.rf_space +=
                parts.rf_choices.iter().map(|c| c.len() as u128).product::<u128>().max(1);
            // Screen every still-undecided row, grouping survivors by
            // their screened rf class.
            let mut groups: BTreeMap<u128, (Vec<Vec<usize>>, Vec<usize>)> = BTreeMap::new();
            let mut screened = 0usize;
            for &d in &live {
                if dverdict[d].is_some() {
                    continue;
                }
                screened += 1;
                let outcome = &rows[distinct[d]];
                if let Some(menus) = screen_combo(test, &locs, &combo, &parts, outcome) {
                    let key = class_fingerprint(&menus, &outcome.mem);
                    groups.entry(key.0).or_insert_with(|| (menus, Vec::new())).1.push(d);
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
            for (menus, members) in groups.values() {
                stats.classes += 1;
                decide_class(
                    test,
                    arch,
                    &locs,
                    &combo,
                    &domain,
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

/// Walks one screened rf class within one control-flow combination,
/// settling every member a witness covers. Members share the rf
/// odometer, the solver and the coherence queries; only the final
/// register probe is per-row.
#[allow(clippy::too_many_arguments)] // private odometer step of decide_log
fn decide_class<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    locs: &LocTable,
    combo: &[&ThreadPath],
    domain: &[i64],
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
    let symbols: Vec<SymId> = parts.reads.iter().map(|&r| SymId(r)).collect();
    let rf_radices: Vec<usize> = menus.iter().map(Vec::len).collect();
    let mut rf_pick = vec![0usize; menus.len()];
    loop {
        stats.query.rf_configs += 1;
        let mut equations = parts.base_equations.clone();
        let mut rf_pairs: Vec<(usize, usize)> = Vec::with_capacity(parts.reads.len());
        for (k, &r) in parts.reads.iter().enumerate() {
            let w = menus[k][rf_pick[k]];
            rf_pairs.push((w, r));
            equations.push(Equation::ReadsValue {
                sym: SymId(r),
                expr: parts.write_value[w].clone().expect("write has a value expression"),
            });
        }
        for asg in expr::solve(&symbols, &equations, domain) {
            let Some(evs) = concretise(parts, &asg) else { continue };
            let final_regs = final_registers(test, locs, combo, &asg, &parts.read_gid);
            // The per-row probe: which undecided members does this
            // concretisation's register file satisfy?
            let matching: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&d| dverdict[d].is_none())
                .filter(|&d| {
                    rows[distinct[d]].regs.iter().all(|(k, v)| final_regs.get(k) == Some(v))
                })
                .collect();
            if matching.is_empty() {
                continue;
            }
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

/// The identity of one screened rf class: the filtered menus plus the
/// row's memory constraints — everything the shared walk depends on.
fn class_fingerprint(menus: &[Vec<usize>], mem: &BTreeMap<String, i64>) -> Fingerprint {
    let mut h = FpHasher::new("rf-class/v1");
    h.tag("menus");
    h.write_len(menus.len());
    for m in menus {
        h.write_len(m.len());
        for &w in m {
            h.write_u64(w as u64);
        }
    }
    h.tag("mem");
    h.write_len(mem.len());
    for (name, &v) in mem {
        h.write_str(name);
        h.write_i64(v);
    }
    h.finish()
}

/// Stable content key of one `(test, model, opts)` query context — the
/// base the per-row verdict keys of [`outcome_fingerprint`] extend, and
/// the key `herd-cache` stores model logs and reachability verdicts
/// under.
pub fn query_fingerprint(test: &LitmusTest, model_name: &str, opts: &EnumOptions) -> Fingerprint {
    let mut h = FpHasher::new("query/v1");
    h.tag("test");
    h.write_str(&test.to_string());
    h.tag("model");
    h.write_str(model_name);
    h.tag("opts");
    h.write_u64(opts.fuel as u64);
    h.write_u64(opts.max_candidates as u64);
    h.finish()
}

/// Extends a query key with one outcome row: the content key of a single
/// cached verdict.
pub fn outcome_fingerprint(base: Fingerprint, outcome: &Outcome) -> Fingerprint {
    let mut h = FpHasher::from(base);
    h.tag("row");
    h.write_str(&render_key(&outcome.regs, &outcome.mem));
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

/// Concretises the combination's events under one assignment; `None` when
/// a value does not resolve.
fn concretise(parts: &ComboParts, asg: &expr::Assignment) -> Option<Vec<Event>> {
    let mut evs = parts.events.clone();
    for e in &mut evs {
        if e.thread.is_none() {
            continue;
        }
        let v = match e.dir {
            herd_core::event::Dir::R => asg.get(SymId(e.id)),
            herd_core::event::Dir::W => parts.write_value[e.id].as_ref().and_then(|x| x.eval(asg)),
        };
        e.val = Val(v?);
    }
    Some(evs)
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
    let mut seen_allowed: BTreeSet<String> = BTreeSet::new();
    let mut pick = vec![0usize; paths.len()];
    let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
    loop {
        let combo: Vec<&ThreadPath> = pick.iter().zip(&paths).map(|(&i, ps)| &ps[i]).collect();
        stats.combos += 1;
        let parts = combo_parts(test, &locs, &combo);
        stats.rf_space += parts.rf_choices.iter().map(|c| c.len() as u128).product::<u128>().max(1);
        // One ppo envelope per combination, shared by every query on it.
        let envelope: Option<PpoEnvelope> = arch.ppo_envelope(&parts.core);
        let symbols: Vec<SymId> = parts.reads.iter().map(|&r| SymId(r)).collect();
        let rf_radices: Vec<usize> = parts.rf_choices.iter().map(Vec::len).collect();
        let mut rf_pick = vec![0usize; parts.rf_choices.len()];
        loop {
            stats.rf_configs += 1;
            let mut equations = parts.base_equations.clone();
            let mut rf_pairs: Vec<(usize, usize)> = Vec::with_capacity(parts.reads.len());
            for (k, &r) in parts.reads.iter().enumerate() {
                let w = parts.rf_choices[k][rf_pick[k]];
                rf_pairs.push((w, r));
                equations.push(Equation::ReadsValue {
                    sym: SymId(r),
                    expr: parts.write_value[w].clone().expect("write has a value expression"),
                });
            }
            for asg in expr::solve(&symbols, &equations, &domain) {
                let Some(evs) = concretise(&parts, &asg) else { continue };
                let final_regs = final_registers(test, &locs, &combo, &asg, &parts.read_gid);
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
                    let key = render_key(&final_regs, &mem);
                    if !seen_allowed.contains(&key) {
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
                            seen_allowed.insert(key);
                            emit(&final_regs, &mem);
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

/// Canonical text of one full outcome, for deduplication (mirrors the log
/// row format: `0:r1=1; x=2`).
fn render_key(regs: &FinalRegs, mem: &BTreeMap<String, i64>) -> String {
    let mut parts: Vec<String> = Vec::new();
    for ((tid, reg), v) in regs {
        let v = match v {
            RegFinal::Int(i) => i.to_string(),
            RegFinal::Addr(l) => l.clone(),
        };
        parts.push(format!("{tid}:{reg}={v}"));
    }
    for (loc, v) in mem {
        parts.push(format!("{loc}={v}"));
    }
    parts.join("; ")
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
    fn full_outcomes_match_enumeration_states() {
        use crate::simulate::eval_prop;
        for test in [
            corpus::mp(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            corpus::co_rr(Isa::X86),
        ] {
            let cands = crate::candidates::enumerate(&test, &EnumOptions::default()).unwrap();
            let reference: BTreeSet<String> = cands
                .iter()
                .filter(|c| herd_core::model::check(&Tso, &c.exec).allowed())
                .map(|c| render_key(&c.final_regs, &c.final_mem))
                .collect();
            let mut stats = QueryStats::default();
            let mut ours = BTreeSet::new();
            allowed_full_outcomes(&test, &Tso, &EnumOptions::default(), &mut stats, &mut |r, m| {
                ours.insert(render_key(r, m));
            })
            .unwrap();
            assert_eq!(ours, reference, "{}", test.name);
            let _ = eval_prop; // referenced: observables drive both sides
        }
    }
}
