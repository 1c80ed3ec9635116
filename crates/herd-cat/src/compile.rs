//! Compilation of cat models to a slot-indexed instruction program.
//!
//! The tree-walking evaluator ([`crate::eval::eval_tree`]) re-resolves
//! every name through a string-keyed environment map on each candidate
//! execution. Simulation campaigns check thousands of candidates against
//! one model, so this module performs the name resolution **once per
//! model**: [`compile`] lowers the AST to a straight-line program over
//! dense result slots, with
//!
//! * every `let`-bound and builtin name resolved to a slot or a
//!   [`BuiltinRel`] variant at compile time (zero string lookups per
//!   candidate),
//! * hash-consing (common-subexpression elimination), so a subexpression
//!   like `hb*` that several axioms sequence through is computed once per
//!   candidate,
//! * constant folding of expressions involving the empty relation
//!   (`0 | x = x`, `0; x = 0`, `0* = id`, ...) and other algebraic
//!   identities (`x | x = x`, `(x+)+ = x+`, `(x^-1)^-1 = x`),
//! * hoisting of fixpoint-invariant subexpressions out of `let rec`
//!   iteration bodies: an operand of a recursive equation that does not
//!   depend on the recursively bound names is evaluated once, not once
//!   per fixpoint iteration.
//!
//! [`crate::eval::eval`] is a thin wrapper over compile-then-run; use
//! [`CompiledModel::check`] directly to amortise compilation across a
//! candidate stream.

use crate::ast::{CheckKind, Expr, Model, Stmt};
use crate::eval::{CatVerdict, CheckOutcome, EvalError};
use herd_core::arena::{RelArena, RelId, RelSrc};
use herd_core::event::{Dir, Fence};
use herd_core::exec::Execution;
use herd_core::relation::Relation;
use std::cell::RefCell;
use std::collections::HashMap;

/// A builtin relation of the candidate execution, resolved from its cat
/// name at compile time (mirrors [`Execution::builtin`] without the string
/// dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BuiltinRel {
    /// `po`.
    Po,
    /// `po-loc`.
    PoLoc,
    /// `rf`.
    Rf,
    /// `rfe`.
    Rfe,
    /// `rfi`.
    Rfi,
    /// `co` / `ws`.
    Co,
    /// `coe` / `wse`.
    Coe,
    /// `coi` / `wsi`.
    Coi,
    /// `fr`.
    Fr,
    /// `fre`.
    Fre,
    /// `fri`.
    Fri,
    /// `com`.
    Com,
    /// `addr`.
    Addr,
    /// `data`.
    Data,
    /// `ctrl`.
    Ctrl,
    /// `ctrl+cfence` / `ctrl+isync` / `ctrl+isb`.
    CtrlCfence,
    /// `rdw` (Fig 27).
    Rdw,
    /// `detour` (Fig 28).
    Detour,
    /// `loc` (same-location pairs).
    SameLoc,
    /// `int` (same-thread pairs).
    Int,
    /// `ext` (cross-thread pairs).
    Ext,
    /// `id`.
    Id,
    /// One fence flavour's relation.
    Fence(Fence),
}

impl BuiltinRel {
    /// Resolves a cat name to a builtin, if it is one.
    pub fn resolve(name: &str) -> Option<BuiltinRel> {
        use BuiltinRel::*;
        Some(match name {
            "po" => Po,
            "po-loc" => PoLoc,
            "rf" => Rf,
            "rfe" => Rfe,
            "rfi" => Rfi,
            "co" | "ws" => Co,
            "coe" | "wse" => Coe,
            "coi" | "wsi" => Coi,
            "fr" => Fr,
            "fre" => Fre,
            "fri" => Fri,
            "com" => Com,
            "addr" => Addr,
            "data" => Data,
            "ctrl" => Ctrl,
            "ctrl+cfence" | "ctrl+isync" | "ctrl+isb" => CtrlCfence,
            "rdw" => Rdw,
            "detour" => Detour,
            "loc" => SameLoc,
            "int" => Int,
            "ext" => Ext,
            "id" => Id,
            other => Fence(*herd_core::event::Fence::ALL.iter().find(|f| f.mnemonic() == other)?),
        })
    }

    /// Borrows the builtin from one execution — **no copy**: every
    /// variant, including `id` and absent fence flavours, resolves to a
    /// relation the execution (or its shared core) already holds. This is
    /// what lets compiled evaluation keep builtins by reference in its
    /// slots; the old `fetch` that `clone()`d each builtin per evaluation
    /// is gone, and [`EvalStats::builtin_copies`] pins the invariant.
    fn fetch_ref(self, x: &Execution) -> &Relation {
        use BuiltinRel::*;
        match self {
            Po => x.po(),
            PoLoc => x.po_loc(),
            Rf => x.rf(),
            Rfe => x.rfe(),
            Rfi => x.rfi(),
            Co => x.co(),
            Coe => x.coe(),
            Coi => x.coi(),
            Fr => x.fr(),
            Fre => x.fre(),
            Fri => x.fri(),
            Com => x.com(),
            Addr => &x.deps().addr,
            Data => &x.deps().data,
            Ctrl => &x.deps().ctrl,
            CtrlCfence => &x.deps().ctrl_cfence,
            Rdw => x.rdw(),
            Detour => x.detour(),
            SameLoc => x.same_loc(),
            Int => x.internal(),
            Ext => x.external(),
            Id => x.core().id_rel(),
            Fence(f) => x.core().fence_ref(f),
        }
    }
}

/// One relational operation over result slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    Builtin(BuiltinRel),
    Empty,
    /// `[W]` / `[R]` / `[M]`: partial identity over a direction set.
    DirId(Option<Dir>),
    Union(usize, usize),
    Inter(usize, usize),
    Diff(usize, usize),
    Seq(usize, usize),
    TClosure(usize),
    RtClosure(usize),
    Opt(usize),
    Inverse(usize),
    /// `WW(e)`, `RM(e)`, ... — source/target direction restriction.
    DirRestrict(usize, Option<Dir>, Option<Dir>),
}

/// An instruction: compute `op` into slot `dst`.
#[derive(Clone, Copy, Debug)]
struct Insn {
    dst: usize,
    op: Op,
}

/// One element of the compiled program.
#[derive(Clone, Debug)]
enum Step {
    /// A straight-line instruction.
    Op(Insn),
    /// A `let rec` group run to its least fixpoint.
    Fixpoint {
        /// Slots holding the recursively bound names (start empty).
        rec: Vec<usize>,
        /// Per binding, the slot its recomputed value lands in.
        results: Vec<usize>,
        /// Loop body: only the fixpoint-variant instructions; invariant
        /// subexpressions were hoisted into the enclosing program.
        body: Vec<Insn>,
    },
}

/// One compiled constraint statement.
#[derive(Clone, Debug)]
struct CompiledCheck {
    name: String,
    kind: CheckKind,
    slot: usize,
}

/// A cat model lowered to a slot-indexed program; see the module docs.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    name: Option<String>,
    prog: Vec<Step>,
    checks: Vec<CompiledCheck>,
    n_slots: usize,
}

impl CompiledModel {
    /// The model's declared name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Number of result slots (compile-time statistic).
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// Number of straight-line instructions plus fixpoint-body
    /// instructions (compile-time statistic).
    pub fn insn_count(&self) -> usize {
        self.prog
            .iter()
            .map(|s| match s {
                Step::Op(_) => 1,
                Step::Fixpoint { body, .. } => body.len(),
            })
            .sum()
    }

    /// Checks one candidate execution against the compiled model.
    ///
    /// Infallible: every name was resolved at compile time. Runs
    /// [`CompiledModel::check_in`] in a workspace owned by the calling
    /// thread and reused across calls, so after warm-up a check allocates
    /// nothing beyond the returned verdict. Should that workspace be busy
    /// (a check re-entered from inside another on the same thread) or
    /// already torn down (thread exit), the check runs in a fresh one.
    pub fn check(&self, exec: &Execution) -> CatVerdict {
        thread_local! {
            static WORKSPACE: RefCell<CatWorkspace> = RefCell::new(CatWorkspace::new());
        }
        WORKSPACE
            .try_with(|ws| ws.try_borrow_mut().ok().map(|mut ws| self.check_in(exec, &mut ws)))
            .ok()
            .flatten()
            .unwrap_or_else(|| self.check_in(exec, &mut CatWorkspace::new()))
    }

    /// Checks one candidate against the compiled model using a reusable
    /// [`CatWorkspace`].
    ///
    /// Slot values are either *borrowed builtins* (references into the
    /// execution and its shared core — never copied) or computed
    /// relations bump-allocated in the workspace arena; the arena's pool
    /// is kept across calls, so steady-state evaluation performs no heap
    /// allocation beyond the returned verdict's check names.
    pub fn check_in(&self, exec: &Execution, ws: &mut CatWorkspace) -> CatVerdict {
        ws.begin(exec.len(), self.n_slots);
        for step in &self.prog {
            match step {
                Step::Op(insn) => ws.run_insn(*insn, exec),
                Step::Fixpoint { rec, results, body } => {
                    for &r in rec {
                        ws.slots[r] = Slot::Empty;
                    }
                    loop {
                        ws.stats.fixpoint_iters += 1;
                        for insn in body {
                            ws.run_insn(*insn, exec);
                        }
                        let stable = rec
                            .iter()
                            .zip(results)
                            .all(|(&r, &s)| r == s || ws.slots_equal(r, s, exec));
                        for (&r, &s) in rec.iter().zip(results) {
                            if r != s {
                                ws.assign(r, s);
                            }
                        }
                        if stable {
                            break;
                        }
                    }
                }
            }
        }
        // Regression accounting: a Builtin instruction whose slot ended up
        // materialised (owned storage) would mean the borrow discipline
        // broke — see [`EvalStats::builtin_copies`].
        for step in &self.prog {
            if let Step::Op(Insn { dst, op: Op::Builtin(_) }) = step {
                if matches!(ws.slots[*dst], Slot::Owned(_)) {
                    ws.stats.builtin_copies += 1;
                }
            }
        }
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let ok = match c.kind {
                    CheckKind::Acyclic => {
                        let src = resolve(&ws.slots, c.slot, exec);
                        ws.arena.is_acyclic(src)
                    }
                    CheckKind::Irreflexive => {
                        ws.arena.is_irreflexive(resolve(&ws.slots, c.slot, exec))
                    }
                    CheckKind::Empty => ws.arena.is_empty(resolve(&ws.slots, c.slot, exec)),
                };
                CheckOutcome { name: c.name.clone(), kind: c.kind, ok }
            })
            .collect();
        CatVerdict { checks }
    }
}

/// One slot value during compiled evaluation: builtins stay *borrowed*
/// (resolved to a reference on demand), computed results live in the
/// workspace arena.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Not yet computed (program order guarantees no reads).
    Unset,
    /// A builtin of the execution, held by name — resolved to a borrow at
    /// each use, never copied.
    Builtin(BuiltinRel),
    /// The empty relation (resolved to the core's cached instance).
    Empty,
    /// A computed relation in the workspace arena.
    Owned(RelId),
}

/// Runtime statistics of one [`CompiledModel::check_in`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// `Op::Builtin` instructions executed (slots bound by reference).
    pub builtin_loads: u64,
    /// Builtin relations that were deep-copied into owned storage to
    /// satisfy a builtin load — **always 0** with the arena evaluator;
    /// the regression test in this crate asserts it stays that way.
    pub builtin_copies: u64,
    /// Total `let rec` fixpoint iterations run.
    pub fixpoint_iters: u64,
}

/// Reusable evaluation state for [`CompiledModel::check_in`]: the slot
/// table and the relation arena, both of which keep their storage across
/// candidates.
pub struct CatWorkspace {
    arena: RelArena,
    slots: Vec<Slot>,
    stats: EvalStats,
}

impl Default for CatWorkspace {
    fn default() -> Self {
        CatWorkspace::new()
    }
}

impl CatWorkspace {
    /// A fresh workspace (the arena grows to the model × execution
    /// high-water mark on first use and is then flat).
    pub fn new() -> Self {
        CatWorkspace { arena: RelArena::new(0), slots: Vec::new(), stats: EvalStats::default() }
    }

    /// Statistics of the most recent [`CompiledModel::check_in`] call.
    pub fn last_stats(&self) -> EvalStats {
        self.stats
    }

    fn begin(&mut self, universe: usize, n_slots: usize) {
        self.arena.reset(universe);
        self.slots.clear();
        self.slots.resize(n_slots, Slot::Unset);
        self.stats = EvalStats::default();
    }

    /// The arena slot backing `i`, allocated on first write.
    fn owned(&mut self, i: usize) -> RelId {
        if let Slot::Owned(id) = self.slots[i] {
            return id;
        }
        let id = self.arena.alloc();
        self.slots[i] = Slot::Owned(id);
        id
    }

    /// `slots[r] = value of slots[s]` (fixpoint result propagation):
    /// borrowed values propagate as borrows, owned ones copy rows in the
    /// arena — never a heap allocation after warm-up.
    fn assign(&mut self, r: usize, s: usize) {
        match self.slots[s] {
            Slot::Owned(sid) => {
                let rid = self.owned(r);
                self.arena.copy_into(rid, sid);
            }
            other => self.slots[r] = other,
        }
    }

    /// Bitwise equality of two slots' values.
    fn slots_equal(&self, a: usize, b: usize, x: &Execution) -> bool {
        self.arena.eq(resolve(&self.slots, a, x), resolve(&self.slots, b, x))
    }

    fn run_insn(&mut self, insn: Insn, x: &Execution) {
        let Insn { dst, op } = insn;
        match op {
            Op::Builtin(b) => {
                self.stats.builtin_loads += 1;
                self.slots[dst] = Slot::Builtin(b);
            }
            Op::Empty => self.slots[dst] = Slot::Empty,
            Op::DirId(d) => {
                let id = self.owned(dst);
                x.core().dir_restrict_arena(&mut self.arena, id, x.core().id_rel(), d, d);
            }
            Op::Union(a, b) => self.binop(dst, a, b, x, BinKind::Union),
            Op::Inter(a, b) => self.binop(dst, a, b, x, BinKind::Inter),
            Op::Diff(a, b) => self.binop(dst, a, b, x, BinKind::Diff),
            Op::Seq(a, b) => {
                let id = self.owned(dst);
                let (sa, sb) = (resolve(&self.slots, a, x), resolve(&self.slots, b, x));
                self.arena.seq_into(id, sa, sb);
            }
            Op::TClosure(a) => {
                let id = self.owned(dst);
                let sa = resolve(&self.slots, a, x);
                self.arena.tclosure_into(id, sa);
            }
            Op::RtClosure(a) => {
                let id = self.owned(dst);
                let sa = resolve(&self.slots, a, x);
                self.arena.rtclosure_into(id, sa);
            }
            Op::Opt(a) => {
                let id = self.owned(dst);
                let sa = resolve(&self.slots, a, x);
                self.arena.copy_into(id, sa);
                self.arena.union_id(id);
            }
            Op::Inverse(a) => {
                let id = self.owned(dst);
                let sa = resolve(&self.slots, a, x);
                self.arena.transpose_into(id, sa);
            }
            Op::DirRestrict(a, src, tgt) => {
                let id = self.owned(dst);
                let sa = resolve(&self.slots, a, x);
                x.core().dir_restrict_arena(&mut self.arena, id, sa, src, tgt);
            }
        }
    }

    /// `dst = a ⟨op⟩ b` for the copy-then-combine operators.
    fn binop(&mut self, dst: usize, a: usize, b: usize, x: &Execution, kind: BinKind) {
        let id = self.owned(dst);
        let (sa, sb) = (resolve(&self.slots, a, x), resolve(&self.slots, b, x));
        self.arena.copy_into(id, sa);
        match kind {
            BinKind::Union => self.arena.union_into(id, sb),
            BinKind::Inter => self.arena.intersect_into(id, sb),
            BinKind::Diff => self.arena.minus_into(id, sb),
        }
    }
}

/// The three copy-then-combine binary operators of [`CatWorkspace::binop`].
#[derive(Clone, Copy)]
enum BinKind {
    Union,
    Inter,
    Diff,
}

/// Resolves a slot to an arena operand: owned slots by id, builtins and
/// the empty relation as borrows into the execution's shared core.
fn resolve<'x>(slots: &[Slot], i: usize, x: &'x Execution) -> RelSrc<'x> {
    match slots[i] {
        Slot::Owned(id) => RelSrc::Slot(id),
        Slot::Builtin(b) => RelSrc::Ext(b.fetch_ref(x)),
        Slot::Empty => RelSrc::Ext(x.core().empty_rel()),
        Slot::Unset => unreachable!("slot {i} read before being computed"),
    }
}

/// Compiles a model.
///
/// # Errors
///
/// Returns the same [`EvalError`]s the tree-walking evaluator would raise
/// lazily: unknown names and unknown combinators.
pub fn compile(model: &Model) -> Result<CompiledModel, EvalError> {
    let mut c = Compiler::default();
    for stmt in &model.stmts {
        match stmt {
            Stmt::Let { bindings, recursive: false } => {
                for (name, e) in bindings {
                    let slot = c.lower(e)?;
                    c.env.insert(name.clone(), slot);
                }
            }
            Stmt::Let { bindings, recursive: true } => c.lower_rec(bindings)?,
            Stmt::Check { kind, expr, name } => {
                let slot = c.lower(expr)?;
                let name = name.clone().unwrap_or_else(|| format!("{kind} {expr}"));
                c.checks.push(CompiledCheck { name, kind: *kind, slot });
            }
        }
    }
    Ok(CompiledModel {
        name: model.name.clone(),
        prog: c.prog,
        checks: c.checks,
        n_slots: c.n_slots,
    })
}

#[derive(Default)]
struct Compiler {
    prog: Vec<Step>,
    checks: Vec<CompiledCheck>,
    env: HashMap<String, usize>,
    /// Hash-consing: op (over slot ids) → slot already computing it.
    memo: HashMap<Op, usize>,
    n_slots: usize,
    /// Slots whose value changes across the current fixpoint's iterations.
    variant: Vec<bool>,
    /// Body of the fixpoint currently being lowered, if any.
    rec_body: Option<Vec<Insn>>,
    /// The slot holding the empty relation, if one was emitted.
    empty_slot: Option<usize>,
}

impl Compiler {
    fn fresh(&mut self) -> usize {
        let s = self.n_slots;
        self.n_slots += 1;
        self.variant.push(false);
        s
    }

    /// Emits `op` (or reuses a previous slot via CSE / folding).
    fn emit(&mut self, op: Op) -> usize {
        if let Some(folded) = self.fold(op) {
            return folded;
        }
        let variant = self.op_is_variant(op);
        // CSE: reuse only when the cached slot is certain to hold the same
        // value here — invariant ops always do; variant ops only while the
        // same fixpoint body is being built (they are recomputed each
        // iteration in order).
        if let Some(&slot) = self.memo.get(&op) {
            if self.variant[slot] == variant {
                return slot;
            }
        }
        let dst = self.fresh();
        self.variant[dst] = variant;
        let insn = Insn { dst, op };
        if variant {
            self.rec_body.as_mut().expect("variant op outside fixpoint").push(insn);
        } else {
            self.prog.push(Step::Op(insn));
        }
        self.memo.insert(op, dst);
        if op == Op::Empty {
            self.empty_slot = Some(dst);
        }
        dst
    }

    fn op_is_variant(&self, op: Op) -> bool {
        let v = |s: usize| self.variant[s];
        match op {
            Op::Builtin(_) | Op::Empty | Op::DirId(_) => false,
            Op::Union(a, b) | Op::Inter(a, b) | Op::Diff(a, b) | Op::Seq(a, b) => v(a) || v(b),
            Op::TClosure(a)
            | Op::RtClosure(a)
            | Op::Opt(a)
            | Op::Inverse(a)
            | Op::DirRestrict(a, _, _) => v(a),
        }
    }

    /// Algebraic folds; returns the slot that already holds the result.
    fn fold(&mut self, op: Op) -> Option<usize> {
        let empty = |s: usize| self.empty_slot == Some(s);
        match op {
            Op::Union(a, b) if a == b => Some(a),
            Op::Union(a, b) if empty(a) => Some(b),
            Op::Union(a, b) if empty(b) => Some(a),
            Op::Inter(a, b) if a == b => Some(a),
            Op::Inter(a, b) | Op::Seq(a, b) if empty(a) || empty(b) => {
                Some(if empty(a) { a } else { b })
            }
            Op::Diff(a, b) if empty(b) => Some(a),
            Op::Diff(a, b) if a == b || empty(a) => Some(self.emit(Op::Empty)),
            Op::TClosure(a) | Op::Inverse(a) | Op::DirRestrict(a, _, _) if empty(a) => Some(a),
            Op::RtClosure(a) | Op::Opt(a) if empty(a) => {
                Some(self.emit(Op::Builtin(BuiltinRel::Id)))
            }
            // (x*)+ = (x*)* = x* and (x+)+ = x+.
            Op::TClosure(a) | Op::RtClosure(a)
                if matches!(self.memo_of(a), Some(Op::RtClosure(_))) =>
            {
                Some(a)
            }
            Op::TClosure(a) if matches!(self.memo_of(a), Some(Op::TClosure(_))) => Some(a),
            Op::Inverse(a) => match self.memo_of(a) {
                Some(Op::Inverse(inner)) => Some(inner),
                _ => None,
            },
            _ => None,
        }
    }

    /// The op that computed `slot`, if it is a straight-line CSE'd one.
    fn memo_of(&self, slot: usize) -> Option<Op> {
        self.memo.iter().find(|&(_, &s)| s == slot).map(|(&op, _)| op)
    }

    fn lower(&mut self, e: &Expr) -> Result<usize, EvalError> {
        Ok(match e {
            Expr::Empty => self.emit(Op::Empty),
            Expr::Name(n) => match self.env.get(n) {
                Some(&slot) => slot,
                None => match BuiltinRel::resolve(n) {
                    Some(b) => self.emit(Op::Builtin(b)),
                    None => return Err(EvalError::UnknownName(n.clone())),
                },
            },
            Expr::Union(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Union(a, b))
            }
            Expr::Inter(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Inter(a, b))
            }
            Expr::Diff(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Diff(a, b))
            }
            Expr::Seq(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Seq(a, b))
            }
            Expr::TClosure(a) => {
                let a = self.lower(a)?;
                self.emit(Op::TClosure(a))
            }
            Expr::RtClosure(a) => {
                let a = self.lower(a)?;
                self.emit(Op::RtClosure(a))
            }
            Expr::Opt(a) => {
                let a = self.lower(a)?;
                self.emit(Op::Opt(a))
            }
            Expr::Inverse(a) => {
                let a = self.lower(a)?;
                self.emit(Op::Inverse(a))
            }
            Expr::App(f, a) => {
                let (src, dst) =
                    dir_filter(f).ok_or_else(|| EvalError::UnknownFunction(f.clone()))?;
                let a = self.lower(a)?;
                self.emit(Op::DirRestrict(a, src, dst))
            }
            Expr::IdSet(s) => {
                let dir = match s.as_str() {
                    "W" => Some(Dir::W),
                    "R" => Some(Dir::R),
                    "M" | "_" => None,
                    other => return Err(EvalError::UnknownName(format!("[{other}]"))),
                };
                match dir {
                    None => self.emit(Op::Builtin(BuiltinRel::Id)),
                    d => self.emit(Op::DirId(d)),
                }
            }
        })
    }

    fn lower_rec(&mut self, bindings: &[(String, Expr)]) -> Result<(), EvalError> {
        // Allocate the recursion slots first: every binding sees every
        // other (and itself) while lowering, as in the Fig 25 equations.
        let rec: Vec<usize> = bindings
            .iter()
            .map(|(name, _)| {
                let slot = self.fresh();
                self.variant[slot] = true;
                self.env.insert(name.clone(), slot);
                slot
            })
            .collect();
        let prev_body = self.rec_body.replace(Vec::new());
        let mut results = Vec::with_capacity(bindings.len());
        for (_, e) in bindings {
            results.push(self.lower(e)?);
        }
        let body = self.rec_body.take().expect("rec body present");
        self.rec_body = prev_body;
        // Once the loop has converged, the rec slots and the body's
        // intermediate slots all hold their stable fixpoint values, so
        // everything computed from them afterwards is invariant again —
        // and the memo entries of body ops stay valid for CSE.
        for &r in &rec {
            self.variant[r] = false;
        }
        for insn in &body {
            self.variant[insn.dst] = false;
        }
        self.prog.push(Step::Fixpoint { rec, results, body });
        Ok(())
    }
}

fn dir_filter(name: &str) -> Option<(Option<Dir>, Option<Dir>)> {
    let part = |c: u8| match c {
        b'R' => Some(Some(Dir::R)),
        b'W' => Some(Some(Dir::W)),
        b'M' => Some(None),
        _ => None,
    };
    let b = name.as_bytes();
    if b.len() != 2 {
        return None;
    }
    Some((part(b[0])?, part(b[1])?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_tree;
    use crate::parse::parse;
    use herd_core::fixtures::{self, Device};

    fn agree(src: &str) {
        let model = parse(src).unwrap();
        let compiled = compile(&model).unwrap();
        for x in [
            fixtures::mp(Device::None, Device::None),
            fixtures::mp(Device::Fence(herd_core::event::Fence::Lwsync), Device::Addr),
            fixtures::sb(Device::None, Device::None),
            fixtures::iriw(Device::None, Device::None),
        ] {
            assert_eq!(compiled.check(&x), eval_tree(&model, &x).unwrap(), "{src}");
        }
    }

    #[test]
    fn compiled_agrees_with_tree_walker() {
        agree("acyclic po | rf | fr | co as sc\n");
        agree("let fr2 = rf^-1;co\nempty fr2 \\ fr as same\n");
        agree("let rec p = po | (p;p)\nacyclic p\n");
        agree("empty WW(po) as ww\nirreflexive fre;po as obs\n");
        agree("let a = [W];po;[R]\nempty a \\ WR(po) as fwd\n");
    }

    /// The satellite regression assert: compiled evaluation must never
    /// copy a builtin relation — slots bind builtins by reference, and a
    /// reused workspace's arena stops growing after the first candidate.
    #[test]
    fn compiled_evaluation_copies_zero_builtins() {
        let mut ws = CatWorkspace::new();
        for (name, src) in crate::stock::ALL {
            let compiled = compile(&parse(src).unwrap()).unwrap();
            for x in [
                fixtures::mp(Device::Addr, Device::Addr),
                fixtures::iriw(Device::Fence(herd_core::event::Fence::Sync), Device::Addr),
                fixtures::sb(Device::None, Device::None),
            ] {
                let tree = eval_tree(&parse(src).unwrap(), &x).unwrap();
                let v = compiled.check_in(&x, &mut ws);
                assert_eq!(v, tree, "{name}");
                let stats = ws.last_stats();
                assert!(stats.builtin_loads > 0, "{name}: models do load builtins");
                assert_eq!(stats.builtin_copies, 0, "{name}: a builtin was materialised");
            }
        }
        // Steady state: re-checking with the warmed workspace must not
        // grow the arena pool.
        let compiled = compile(&parse(crate::stock::ALL[0].1).unwrap()).unwrap();
        let x = fixtures::mp(Device::Addr, Device::Addr);
        compiled.check_in(&x, &mut ws);
        let hw = ws.arena.high_water_words();
        for _ in 0..16 {
            compiled.check_in(&x, &mut ws);
        }
        assert_eq!(ws.arena.high_water_words(), hw, "workspace pool grew in steady state");
    }

    #[test]
    fn stock_models_compile_and_agree() {
        for (name, src) in crate::stock::ALL {
            let model = parse(src).unwrap();
            let compiled = compile(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
            let x = fixtures::mp(Device::Addr, Device::Addr);
            assert_eq!(compiled.check(&x), eval_tree(&model, &x).unwrap(), "{name}");
        }
    }

    #[test]
    fn cse_computes_shared_subexpressions_once() {
        // hb* appears twice; CSE must emit one RtClosure instruction.
        let model =
            parse("let hb = po | rfe\nirreflexive fre;hb* as a\nacyclic co;hb* as b\n").unwrap();
        let compiled = compile(&model).unwrap();
        let rt = compiled
            .prog
            .iter()
            .filter(|s| matches!(s, Step::Op(Insn { op: Op::RtClosure(_), .. })))
            .count();
        assert_eq!(rt, 1, "hb* computed once");
    }

    #[test]
    fn empty_folds_away() {
        let model = parse("let fences = 0\nlet prop = po | fences\nacyclic prop\n").unwrap();
        let compiled = compile(&model).unwrap();
        // `po | 0` folds to `po`: no Union instruction at all.
        assert!(!compiled
            .prog
            .iter()
            .any(|s| matches!(s, Step::Op(Insn { op: Op::Union(_, _), .. }))));
    }

    #[test]
    fn fixpoint_invariant_operands_are_hoisted() {
        let model = parse("let rec ii = (addr | data) | (ii;ii)\nacyclic ii\n").unwrap();
        let compiled = compile(&model).unwrap();
        let Step::Fixpoint { body, .. } = compiled
            .prog
            .iter()
            .find(|s| matches!(s, Step::Fixpoint { .. }))
            .expect("has a fixpoint")
        else {
            unreachable!()
        };
        // The loop body recomputes only ii;ii and the outer union —
        // `addr | data` runs once, outside.
        assert_eq!(body.len(), 2, "invariant union hoisted out of the loop");
    }

    #[test]
    fn unknown_names_error_at_compile_time() {
        let model = parse("acyclic haz\n").unwrap();
        assert_eq!(compile(&model).unwrap_err(), EvalError::UnknownName("haz".into()));
    }
}
