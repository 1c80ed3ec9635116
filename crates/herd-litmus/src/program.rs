//! Litmus tests: programs, initial states and final conditions.

use crate::isa::{Instr, Isa, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Initial value of a register: an integer or the address of a location.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum InitVal {
    /// An integer constant.
    Int(i64),
    /// The address of the named shared location.
    Loc(String),
}

/// The quantifier of a final condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `exists P`: validated if some allowed execution satisfies `P`.
    Exists,
    /// `~exists P`: validated if no allowed execution satisfies `P`.
    NotExists,
    /// `forall P`: validated if all allowed executions satisfy `P`.
    Forall,
}

/// A value a final condition compares against.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CondVal {
    /// An integer.
    Int(i64),
    /// The address of a location.
    Loc(String),
}

/// A final-state proposition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Prop {
    /// `T:rN = v`.
    RegEq {
        /// Thread index.
        tid: u16,
        /// Register.
        reg: Reg,
        /// Expected value.
        val: CondVal,
    },
    /// `x = v` (final memory).
    MemEq {
        /// Location name.
        loc: String,
        /// Expected value.
        val: i64,
    },
    /// Negation.
    Not(Box<Prop>),
    /// Conjunction (`/\`).
    And(Box<Prop>, Box<Prop>),
    /// Disjunction (`\/`).
    Or(Box<Prop>, Box<Prop>),
    /// Always true (empty condition).
    True,
}

impl Prop {
    /// `a /\ b`.
    pub fn and(a: Prop, b: Prop) -> Prop {
        Prop::And(Box::new(a), Box::new(b))
    }

    /// `a \/ b`.
    pub fn or(a: Prop, b: Prop) -> Prop {
        Prop::Or(Box::new(a), Box::new(b))
    }

    /// `not a`.
    #[allow(clippy::should_implement_trait)] // condition-language naming
    pub fn not(a: Prop) -> Prop {
        Prop::Not(Box::new(a))
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::RegEq { tid, reg, val: CondVal::Int(v) } => write!(f, "{tid}:{reg}={v}"),
            Prop::RegEq { tid, reg, val: CondVal::Loc(l) } => write!(f, "{tid}:{reg}={l}"),
            Prop::MemEq { loc, val } => write!(f, "{loc}={val}"),
            Prop::Not(p) => write!(f, "not ({p})"),
            Prop::And(a, b) => write!(f, "({a} /\\ {b})"),
            Prop::Or(a, b) => write!(f, "({a} \\/ {b})"),
            Prop::True => write!(f, "true"),
        }
    }
}

/// The final condition of a litmus test.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Condition {
    /// The quantifier.
    pub quantifier: Quantifier,
    /// The proposition.
    pub prop: Prop,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = match self.quantifier {
            Quantifier::Exists => "exists",
            Quantifier::NotExists => "~exists",
            Quantifier::Forall => "forall",
        };
        write!(f, "{q} ({})", self.prop)
    }
}

/// A complete litmus test.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LitmusTest {
    /// Assembly dialect.
    pub isa: Isa,
    /// Test name (e.g. `MP+lwsync+addr`).
    pub name: String,
    /// Per-thread instruction sequences.
    pub threads: Vec<Vec<Instr>>,
    /// Initial register values, per `(thread, register)`.
    pub reg_init: BTreeMap<(u16, Reg), InitVal>,
    /// Initial memory values (locations default to 0).
    pub mem_init: BTreeMap<String, i64>,
    /// The final condition.
    pub condition: Condition,
}

impl LitmusTest {
    /// All location names mentioned anywhere in the test, sorted.
    pub fn locations(&self) -> Vec<String> {
        let mut locs: Vec<String> = self
            .reg_init
            .values()
            .filter_map(|v| match v {
                InitVal::Loc(l) => Some(l.clone()),
                InitVal::Int(_) => None,
            })
            .chain(self.mem_init.keys().cloned())
            .chain(self.direct_locs())
            .chain(self.condition_locs())
            .collect();
        locs.sort();
        locs.dedup();
        locs
    }

    fn direct_locs(&self) -> Vec<String> {
        use crate::isa::Addr;
        let mut out = Vec::new();
        for t in &self.threads {
            for i in t {
                let addr = match i {
                    Instr::Load { addr, .. }
                    | Instr::Store { addr, .. }
                    | Instr::StoreImm { addr, .. } => addr,
                    _ => continue,
                };
                if let Addr::Direct(l) = addr {
                    out.push(l.clone());
                }
            }
        }
        out
    }

    fn condition_locs(&self) -> Vec<String> {
        fn walk(p: &Prop, out: &mut Vec<String>) {
            match p {
                Prop::MemEq { loc, .. } => out.push(loc.clone()),
                Prop::RegEq { val: CondVal::Loc(l), .. } => out.push(l.clone()),
                Prop::Not(a) => walk(a, out),
                Prop::And(a, b) | Prop::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(&self.condition.prop, &mut out);
        out
    }
}

impl fmt::Display for LitmusTest {
    /// Renders the test in litmus format (parsable back by
    /// [`crate::parse::parse`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}", self.isa.header_name(), self.name)?;
        writeln!(f, "{{")?;
        for ((tid, reg), v) in &self.reg_init {
            match v {
                InitVal::Int(i) => writeln!(f, "{tid}:{reg}={i};")?,
                InitVal::Loc(l) => writeln!(f, "{tid}:{reg}={l};")?,
            }
        }
        for (loc, v) in &self.mem_init {
            writeln!(f, "{loc}={v};")?;
        }
        writeln!(f, "}}")?;
        // Column layout: pad each thread's rows.
        let rows = self.threads.iter().map(Vec::len).max().unwrap_or(0);
        let cols: Vec<Vec<String>> = self
            .threads
            .iter()
            .map(|t| {
                let mut c: Vec<String> = t.iter().map(|i| i.render(self.isa)).collect();
                c.resize(rows, String::new());
                c
            })
            .collect();
        let widths: Vec<usize> = cols
            .iter()
            .enumerate()
            .map(|(k, c)| {
                c.iter()
                    .map(String::len)
                    .chain(std::iter::once(format!("P{k}").len()))
                    .max()
                    .unwrap_or(2)
            })
            .collect();
        let header: Vec<String> =
            (0..cols.len()).map(|k| format!("{:w$}", format!("P{k}"), w = widths[k])).collect();
        writeln!(f, " {} ;", header.join(" | "))?;
        for r in 0..rows {
            let row: Vec<String> = cols
                .iter()
                .enumerate()
                .map(|(k, c)| format!("{:w$}", c[r], w = widths[k]))
                .collect();
            writeln!(f, " {} ;", row.join(" | "))?;
        }
        writeln!(f, "{}", self.condition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Addr;

    fn tiny() -> LitmusTest {
        LitmusTest {
            isa: Isa::Power,
            name: "TINY".into(),
            threads: vec![vec![
                Instr::MoveImm { dst: Reg(1), val: 1 },
                Instr::Store { src: Reg(1), addr: Addr::Reg(Reg(2)) },
            ]],
            reg_init: BTreeMap::from([((0, Reg(2)), InitVal::Loc("x".into()))]),
            mem_init: BTreeMap::new(),
            condition: Condition {
                quantifier: Quantifier::Exists,
                prop: Prop::MemEq { loc: "x".into(), val: 1 },
            },
        }
    }

    #[test]
    fn locations_collects_everything() {
        let t = tiny();
        assert_eq!(t.locations(), vec!["x".to_owned()]);
    }

    #[test]
    fn display_includes_all_sections() {
        let s = tiny().to_string();
        assert!(s.contains("PPC TINY"));
        assert!(s.contains("0:r2=x;"));
        assert!(s.contains("stw r1,0(r2)"));
        assert!(s.contains("exists (x=1)"));
    }

    #[test]
    fn prop_display() {
        let p = Prop::and(
            Prop::RegEq { tid: 1, reg: Reg(1), val: CondVal::Int(1) },
            Prop::not(Prop::MemEq { loc: "y".into(), val: 2 }),
        );
        assert_eq!(p.to_string(), "(1:r1=1 /\\ not (y=2))");
    }
}
