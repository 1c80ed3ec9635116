//! Symbolic values flowing through registers.
//!
//! Thread semantics (paper, Sec 5) runs each thread with the values of its
//! memory loads left *symbolic*: load event `r` introduces the symbol
//! `S_r`. Register contents are then expressions over these symbols, with
//! arithmetic folded eagerly — in particular `xor x x` folds to `0` even
//! for unknown `x`, which is exactly how litmus tests build *false*
//! dependencies (Sec 5.2.1) whose addresses still resolve concretely.
//!
//! Choosing a read-from edge `w → r` later equates `S_r` with the write's
//! value expression; a [`Solver`] finds the [`Assignment`]s that satisfy
//! the resulting equation system.

use herd_core::event::Loc;
use std::fmt;

/// A symbol standing for the (yet unknown) value of one memory read;
/// identified by the read's event id within its candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub usize);

/// An integer-valued symbolic expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SymExpr {
    /// A known constant.
    Const(i64),
    /// The value of a read.
    Sym(SymId),
    /// Bitwise exclusive or.
    Xor(Box<SymExpr>, Box<SymExpr>),
    /// Addition.
    Add(Box<SymExpr>, Box<SymExpr>),
    /// Comparison for equality, yielding 1 or 0. Used for condition
    /// registers (`cmpwi`/`cmp`).
    Eq(Box<SymExpr>, Box<SymExpr>),
}

impl SymExpr {
    /// Smart constructor for xor: folds constants and the structural
    /// identity `e ⊕ e = 0` (false dependencies).
    pub fn xor(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(x ^ y),
            _ if a == b => SymExpr::Const(0),
            (SymExpr::Const(0), _) => b,
            (_, SymExpr::Const(0)) => a,
            _ => SymExpr::Xor(Box::new(a), Box::new(b)),
        }
    }

    /// Smart constructor for addition: folds constants and `+ 0`.
    #[allow(clippy::should_implement_trait)] // cat-algebra naming, not ops::Add
    pub fn add(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(x + y),
            (SymExpr::Const(0), _) => b,
            (_, SymExpr::Const(0)) => a,
            _ => SymExpr::Add(Box::new(a), Box::new(b)),
        }
    }

    /// Smart constructor for equality comparison.
    #[allow(clippy::should_implement_trait)] // cat-algebra naming, not PartialEq
    pub fn eq(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Const(x), SymExpr::Const(y)) => SymExpr::Const(i64::from(x == y)),
            _ if a == b => SymExpr::Const(1),
            _ => SymExpr::Eq(Box::new(a), Box::new(b)),
        }
    }

    /// Evaluates under an assignment; `None` if a needed symbol is
    /// unassigned.
    pub fn eval(&self, asg: &Assignment) -> Option<i64> {
        match self {
            SymExpr::Const(c) => Some(*c),
            SymExpr::Sym(s) => asg.get(*s),
            SymExpr::Xor(a, b) => Some(a.eval(asg)? ^ b.eval(asg)?),
            SymExpr::Add(a, b) => Some(a.eval(asg)? + b.eval(asg)?),
            SymExpr::Eq(a, b) => Some(i64::from(a.eval(asg)? == b.eval(asg)?)),
        }
    }

    /// Collects the symbols occurring in the expression.
    pub fn symbols(&self, out: &mut Vec<SymId>) {
        match self {
            SymExpr::Const(_) => {}
            SymExpr::Sym(s) => out.push(*s),
            SymExpr::Xor(a, b) | SymExpr::Add(a, b) | SymExpr::Eq(a, b) => {
                a.symbols(out);
                b.symbols(out);
            }
        }
    }

    /// Is the expression a known constant?
    pub fn as_const(&self) -> Option<i64> {
        match self {
            SymExpr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Rewrites every symbol through `f` (used to map thread-local read
    /// indices to global event identifiers).
    pub fn rename(&self, f: &impl Fn(SymId) -> SymId) -> SymExpr {
        match self {
            SymExpr::Const(c) => SymExpr::Const(*c),
            SymExpr::Sym(s) => SymExpr::Sym(f(*s)),
            SymExpr::Xor(a, b) => SymExpr::Xor(Box::new(a.rename(f)), Box::new(b.rename(f))),
            SymExpr::Add(a, b) => SymExpr::Add(Box::new(a.rename(f)), Box::new(b.rename(f))),
            SymExpr::Eq(a, b) => SymExpr::Eq(Box::new(a.rename(f)), Box::new(b.rename(f))),
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Const(c) => write!(f, "{c}"),
            SymExpr::Sym(s) => write!(f, "s{}", s.0),
            SymExpr::Xor(a, b) => write!(f, "({a} ^ {b})"),
            SymExpr::Add(a, b) => write!(f, "({a} + {b})"),
            SymExpr::Eq(a, b) => write!(f, "({a} == {b})"),
        }
    }
}

/// A register's content: an integer expression or a location (address).
///
/// Registers initialised with `0:r2=x` hold addresses; arithmetic on
/// addresses is limited to adding a (folded) zero offset, which is all the
/// paper's false-dependency idioms need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RVal {
    /// An integer expression.
    Int(SymExpr),
    /// The address of a shared location.
    Addr(Loc),
}

impl Default for RVal {
    /// Uninitialised registers read as the integer 0.
    fn default() -> Self {
        RVal::int(0)
    }
}

impl RVal {
    /// A constant integer.
    pub fn int(v: i64) -> RVal {
        RVal::Int(SymExpr::Const(v))
    }

    /// The integer expression, if this is not an address.
    pub fn as_int(&self) -> Option<&SymExpr> {
        match self {
            RVal::Int(e) => Some(e),
            RVal::Addr(_) => None,
        }
    }
}

/// A partial map from symbols to concrete values, dense by symbol index
/// (symbols are the event ids of one candidate's reads, so the table is
/// small).
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    vals: Vec<Option<i64>>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of `s`, if assigned.
    pub fn get(&self, s: SymId) -> Option<i64> {
        self.vals.get(s.0).copied().flatten()
    }

    /// Binds `s` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is already bound to a different value (resolution
    /// logic must check before binding).
    pub fn bind(&mut self, s: SymId, v: i64) {
        let prev = self.set(s, v);
        assert!(prev.is_none() || prev == Some(v), "rebinding {s:?}");
    }

    /// Binds `s` to `v` whatever it held; returns the previous value.
    fn set(&mut self, s: SymId, v: i64) -> Option<i64> {
        if s.0 >= self.vals.len() {
            self.vals.resize(s.0 + 1, None);
        }
        self.vals[s.0].replace(v)
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.vals.iter().flatten().count()
    }

    /// Is nothing bound?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One equation `Sym(s) == expr` produced by a read-from choice, or a path
/// constraint `expr == const` / `expr != const` produced by a branch. The
/// expressions are borrowed, so a system is assembled per rf choice
/// without cloning expression trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Equation<'e> {
    /// The read with symbol `sym` takes the value of `expr`.
    ReadsValue {
        /// The read's symbol.
        sym: SymId,
        /// The source write's value expression.
        expr: &'e SymExpr,
    },
    /// A branch went the way requiring `expr == want` (`negated` flips it).
    Constraint {
        /// The branch condition expression.
        expr: &'e SymExpr,
        /// The required value.
        want: i64,
        /// Whether the requirement is `!=` instead of `==`.
        negated: bool,
    },
}

/// Resolves systems of equations, given the domain to enumerate for
/// symbols that stay free (value cycles, e.g. genuine `lb+data` thin-air
/// candidates, constrain values only up to equality). It keeps one
/// assignment and the free-symbol odometer across calls, so solving
/// allocates nothing once its buffers have grown to the largest system
/// seen.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    asg: Assignment,
    free: Vec<SymId>,
    digits: Vec<usize>,
}

impl Solver {
    /// Calls `emit` with every consistent total assignment over `symbols`.
    ///
    /// Forced values are propagated to a fixpoint first; the symbols left
    /// free are then enumerated over `domain`, the first free symbol
    /// varying slowest.
    pub fn solve_each(
        &mut self,
        symbols: &[SymId],
        equations: &[Equation<'_>],
        domain: &[i64],
        emit: &mut dyn FnMut(&Assignment),
    ) {
        let asg = &mut self.asg;
        asg.vals.fill(None);
        // Propagate forced values to a fixpoint.
        loop {
            let mut changed = false;
            for eq in equations {
                if let Equation::ReadsValue { sym, expr } = *eq {
                    if asg.get(sym).is_none() {
                        if let Some(v) = expr.eval(asg) {
                            asg.bind(sym, v);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.free.clear();
        self.free.extend(symbols.iter().copied().filter(|s| asg.get(*s).is_none()));
        let Some(&first) = domain.first() else {
            if self.free.is_empty() && consistent(asg, equations) {
                emit(asg);
            }
            return;
        };
        self.digits.clear();
        self.digits.resize(self.free.len(), 0);
        for &s in &self.free {
            asg.set(s, first);
        }
        loop {
            if consistent(asg, equations) {
                emit(asg);
            }
            // Advance the odometer, the last free symbol fastest.
            let mut k = self.free.len();
            loop {
                let Some(prev) = k.checked_sub(1) else { return };
                k = prev;
                self.digits[k] += 1;
                if let Some(&v) = domain.get(self.digits[k]) {
                    asg.set(self.free[k], v);
                    break;
                }
                self.digits[k] = 0;
                asg.set(self.free[k], first);
            }
        }
    }
}

/// Do all equations hold under a total assignment?
pub fn consistent(asg: &Assignment, equations: &[Equation<'_>]) -> bool {
    equations.iter().all(|eq| match *eq {
        Equation::ReadsValue { sym, expr } => match (asg.get(sym), expr.eval(asg)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Equation::Constraint { expr, want, negated } => match expr.eval(asg) {
            Some(v) => (v == want) != negated,
            None => false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every consistent total assignment over `symbols`.
    fn solve(symbols: &[SymId], equations: &[Equation<'_>], domain: &[i64]) -> Vec<Assignment> {
        let mut out = Vec::new();
        Solver::default().solve_each(symbols, equations, domain, &mut |asg| out.push(asg.clone()));
        out
    }

    #[test]
    fn xor_folds_false_dependency() {
        let s = SymExpr::Sym(SymId(3));
        assert_eq!(SymExpr::xor(s.clone(), s), SymExpr::Const(0));
        assert_eq!(SymExpr::xor(SymExpr::Const(5), SymExpr::Const(3)), SymExpr::Const(6));
    }

    #[test]
    fn add_folds_zero() {
        let s = SymExpr::Sym(SymId(0));
        assert_eq!(SymExpr::add(SymExpr::Const(0), s.clone()), s);
        assert_eq!(SymExpr::add(SymExpr::Const(2), SymExpr::Const(40)), SymExpr::Const(42));
    }

    #[test]
    fn eval_needs_all_symbols() {
        let e = SymExpr::add(SymExpr::Sym(SymId(0)), SymExpr::Const(1));
        let mut asg = Assignment::new();
        assert_eq!(e.eval(&asg), None);
        asg.bind(SymId(0), 41);
        assert_eq!(e.eval(&asg), Some(42));
    }

    #[test]
    fn solve_propagates_chains() {
        // s0 = 1; s1 = s0 + 1.
        let (one, succ) =
            (SymExpr::Const(1), SymExpr::add(SymExpr::Sym(SymId(0)), SymExpr::Const(1)));
        let eqs = vec![
            Equation::ReadsValue { sym: SymId(0), expr: &one },
            Equation::ReadsValue { sym: SymId(1), expr: &succ },
        ];
        let sols = solve(&[SymId(0), SymId(1)], &eqs, &[0]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(SymId(1)), Some(2));
    }

    #[test]
    fn solve_enumerates_value_cycles() {
        // s0 = s1; s1 = s0 — the thin-air shape: any domain value works,
        // but the two symbols must agree.
        let (s0, s1) = (SymExpr::Sym(SymId(0)), SymExpr::Sym(SymId(1)));
        let eqs = vec![
            Equation::ReadsValue { sym: SymId(0), expr: &s1 },
            Equation::ReadsValue { sym: SymId(1), expr: &s0 },
        ];
        let sols = solve(&[SymId(0), SymId(1)], &eqs, &[0, 1]);
        assert_eq!(sols.len(), 2);
        for s in &sols {
            assert_eq!(s.get(SymId(0)), s.get(SymId(1)));
        }
    }

    #[test]
    fn free_symbols_vary_first_slowest_and_a_reused_solver_answers_afresh() {
        let (s0, s1) = (SymExpr::Sym(SymId(0)), SymExpr::Sym(SymId(1)));
        let eqs = [
            Equation::ReadsValue { sym: SymId(0), expr: &s0 },
            Equation::ReadsValue { sym: SymId(1), expr: &s1 },
        ];
        let syms = [SymId(0), SymId(1)];
        let pairs = |sols: &[Assignment]| -> Vec<(Option<i64>, Option<i64>)> {
            sols.iter().map(|a| (a.get(SymId(0)), a.get(SymId(1)))).collect()
        };
        let want = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(a, b)| (Some(a), Some(b)));
        assert_eq!(pairs(&solve(&syms, &eqs, &[0, 1])), want);
        let mut solver = Solver::default();
        solver.solve_each(&syms, &eqs, &[0, 1, 2], &mut |_| {});
        let mut again = Vec::new();
        solver.solve_each(&syms, &eqs, &[0, 1], &mut |a| again.push(a.clone()));
        assert_eq!(pairs(&again), want);
    }

    #[test]
    fn constraints_filter_solutions() {
        let s0 = SymExpr::Sym(SymId(0));
        let eqs = vec![
            Equation::ReadsValue { sym: SymId(0), expr: &s0 },
            Equation::Constraint { expr: &s0, want: 1, negated: false },
        ];
        let sols = solve(&[SymId(0)], &eqs, &[0, 1, 2]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(SymId(0)), Some(1));
    }
}
