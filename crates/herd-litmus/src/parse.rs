//! Parser for the litmus test format.
//!
//! The accepted shape mirrors the diy/litmus tool suite:
//!
//! ```text
//! PPC mp+lwsync+addr
//! "optional description"
//! {
//! 0:r2=x; 0:r4=y;
//! 1:r2=y; 1:r4=x;
//! }
//!  P0           | P1            ;
//!  li r1,1      | lwz r1,0(r2)  ;
//!  stw r1,0(r2) | xor r3,r1,r1  ;
//!  lwsync       | lwzx r5,r3,r4 ;
//!  stw r1,0(r4) |               ;
//! exists (1:r1=1 /\ 1:r5=0)
//! ```
//!
//! Power, ARM and x86 mnemonics are recognised according to the header's
//! ISA. `(* ... *)` comments and blank lines are ignored.
//!
//! The parser borrows: lines, cells, operands and condition tokens are
//! slices of the source, mnemonics are lowercased into a stack buffer, and
//! the condition is lexed on demand. What it allocates is what the
//! returned [`LitmusTest`] owns. Malformed text never panics: every error
//! is a [`ParseError`] naming a line.

use crate::isa::{Addr, BranchCond, Instr, Isa, Reg};
use crate::program::{CondVal, Condition, InitVal, LitmusTest, Prop, Quantifier};
use herd_core::event::Fence;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with a line number when available.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line. Every error [`parse`] returns names one: a
    /// section missing at the end of the text blames its last line.
    pub line: Option<usize>,
    /// Description of the failure.
    pub message: String,
}

impl ParseError {
    fn new(line: Option<usize>, message: impl Into<String>) -> Self {
        ParseError { line, message: message.into() }
    }

    /// A section missing at the end of `src`: blames its last line (line 1
    /// of an empty source).
    fn at_end(src: &str, message: &str) -> Self {
        ParseError::new(Some(src.lines().count().max(1)), message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete litmus test.
///
/// Lines, cells, operands and condition tokens are borrowed slices of
/// `src`; the only heap allocations are the parts of the returned
/// [`LitmusTest`] itself (its name, instruction lists, location names and
/// condition). Two rare shapes still copy text: a line with a `(* ... *)`
/// comment in its middle, and an init item that spans lines.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse(src: &str) -> Result<LitmusTest, ParseError> {
    // One scan of the whole text spares most sources a per-line one.
    let comments = src.contains("(*");
    let mut lines = src
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, if comments { strip_comment(l) } else { Cow::Borrowed(l) }))
        .filter(|(_, l)| !trim(l).is_empty())
        .peekable();

    // Header: ISA and name.
    let (hline, header) =
        lines.next().ok_or_else(|| ParseError::at_end(src, "empty litmus source"))?;
    let mut hw = header.split_whitespace();
    let isa = hw
        .next()
        .and_then(Isa::from_header)
        .ok_or_else(|| ParseError::new(Some(hline), "expected ISA header (PPC/ARM/X86)"))?;
    let name = hw
        .next()
        .ok_or_else(|| ParseError::new(Some(hline), "expected test name after ISA"))?
        .to_owned();

    // Optional quoted description lines.
    while let Some((_, l)) = lines.peek() {
        if l.trim_start().starts_with('"') {
            lines.next();
        } else {
            break;
        }
    }

    // Init block: `;`-separated items, on one line or several. Items are
    // parsed as the block is read, but the first bad item is reported only
    // once the block is closed, so a stray `}` inside the block is still
    // the error a reader sees first.
    let mut reg_init = BTreeMap::new();
    let mut mem_init = BTreeMap::new();
    let (bline, b) = lines.next().ok_or_else(|| ParseError::at_end(src, "missing init block"))?;
    let mut item_err: Option<String> = None;
    let mut init_item = |item: &str| {
        let item = trim(item);
        if item_err.is_none() && !item.is_empty() {
            item_err = parse_init(item, &mut reg_init, &mut mem_init).err();
        }
    };
    if b.trim() == "{" {
        // The text of an item that continues on the next line.
        let mut carry = String::new();
        for (l, text) in lines.by_ref() {
            if text.contains('}') {
                if trim(&text) == "}" {
                    break;
                }
                return Err(ParseError::new(Some(l), "'}' must be on its own line"));
            }
            let mut pieces = text.split(';');
            let last = pieces.next_back().unwrap_or("");
            for piece in pieces {
                if carry.is_empty() {
                    init_item(piece);
                } else {
                    carry.push_str(piece);
                    init_item(&carry);
                    carry.clear();
                }
            }
            if !carry.is_empty() || !last.trim().is_empty() {
                carry.push_str(last);
                carry.push(' ');
            }
        }
        init_item(&carry);
    } else if b.trim().starts_with('{') && b.trim().ends_with('}') {
        b.trim().trim_start_matches('{').trim_end_matches('}').split(';').for_each(init_item);
    } else {
        return Err(ParseError::new(Some(bline), "expected '{' opening the init block"));
    }
    if let Some(m) = item_err {
        return Err(ParseError::new(Some(bline), m));
    }

    // Program columns.
    let (pline, header_row) =
        lines.next().ok_or_else(|| ParseError::at_end(src, "missing program block"))?;
    let header_cells = split_row(&header_row)
        .ok_or_else(|| ParseError::new(Some(pline), "expected 'P0 | P1 ... ;' header"))?;
    let nthreads = columns(header_cells);
    for (k, c) in header_cells.split('|').enumerate() {
        if !is_thread_name(trim(c), k) {
            return Err(ParseError::new(Some(pline), format!("expected P{k}, found '{c}'")));
        }
    }
    // Room for a typical thread up front, instead of growing it row by row.
    let mut threads: Vec<Vec<Instr>> = (0..nthreads).map(|_| Vec::with_capacity(8)).collect();
    let mut cond_line = None;
    for (l, text) in lines.by_ref() {
        let t = trim(&text);
        if t.starts_with("exists") || t.starts_with("~exists") || t.starts_with("forall") {
            cond_line = Some((l, text));
            break;
        }
        let cells = split_row(&text)
            .ok_or_else(|| ParseError::new(Some(l), "expected instruction row ending in ';'"))?;
        let ncells = columns(cells);
        if ncells != nthreads {
            return Err(ParseError::new(
                Some(l),
                format!("row has {ncells} columns, expected {nthreads}"),
            ));
        }
        for (k, cell) in cells.split('|').enumerate() {
            let cell = trim(cell);
            if cell.is_empty() {
                continue;
            }
            let instr = parse_instr(isa, cell).map_err(|m| ParseError::new(Some(l), m))?;
            threads[k].push(instr);
        }
    }

    let (cline, cond_text) =
        cond_line.ok_or_else(|| ParseError::at_end(src, "missing final condition"))?;
    let condition = parse_condition(&cond_text).map_err(|m| ParseError::new(Some(cline), m))?;

    Ok(LitmusTest { isa, name, threads, reg_init, mem_init, condition })
}

/// Drops a `(* ... *)` comment (or an unterminated `(*` tail). Borrows the
/// line unless the comment sits in its middle.
fn strip_comment(line: &str) -> Cow<'_, str> {
    match line.find("(*") {
        Some(i) => match line.find("*)") {
            Some(j) if j > i => Cow::Owned(format!("{}{}", &line[..i], &line[j + 2..])),
            _ => Cow::Borrowed(&line[..i]),
        },
        None => Cow::Borrowed(line),
    }
}

/// `s.trim()`, with a byte-level fast path: once ASCII whitespace is
/// stripped, an edge that is ASCII and not a vertical tab (the one ASCII
/// whitespace byte `trim_ascii` keeps) is not whitespace either.
fn trim(s: &str) -> &str {
    let t = s.trim_ascii();
    if settled(t.as_bytes().first()) && settled(t.as_bytes().last()) {
        t
    } else {
        s.trim()
    }
}

/// `s.trim_end()`, with [`trim`]'s fast path.
fn trim_end(s: &str) -> &str {
    let t = s.trim_ascii_end();
    if settled(t.as_bytes().last()) {
        t
    } else {
        s.trim_end()
    }
}

/// Does `str::trim` stop at this edge byte of a `trim_ascii`ed slice?
fn settled(edge: Option<&u8>) -> bool {
    edge.is_none_or(|&b| b.is_ascii() && b != 0x0B)
}

/// The cells of `a | b | c ;` as one `|`-separated slice; `None` if the
/// trailing `;` is missing.
fn split_row(line: &str) -> Option<&str> {
    trim_end(line).strip_suffix(';')
}

/// The number of `|`-separated cells in a row.
fn columns(cells: &str) -> usize {
    cells.bytes().filter(|&b| b == b'|').count() + 1
}

/// Is the header cell exactly `P{k}`?
fn is_thread_name(cell: &str, k: usize) -> bool {
    cell.strip_prefix('P').is_some_and(|d| {
        d.bytes().all(|b| b.is_ascii_digit())
            && (d == "0" || !d.starts_with('0'))
            && d.parse() == Ok(k)
    })
}

fn parse_init(
    item: &str,
    reg_init: &mut BTreeMap<(u16, Reg), InitVal>,
    mem_init: &mut BTreeMap<String, i64>,
) -> Result<(), String> {
    let (lhs, rhs) = item.split_once('=').ok_or_else(|| format!("init item '{item}' lacks '='"))?;
    let (lhs, rhs) = (trim(lhs), trim(rhs));
    if let Some((tid, reg)) = lhs.split_once(':') {
        let tid: u16 = tid.trim().parse().map_err(|_| format!("bad thread id in '{item}'"))?;
        let reg = parse_reg(reg).ok_or_else(|| format!("bad register in '{item}'"))?;
        let val = match rhs.parse::<i64>() {
            Ok(v) => InitVal::Int(v),
            Err(_) => InitVal::Loc(rhs.to_owned()),
        };
        reg_init.insert((tid, reg), val);
    } else {
        let loc = lhs.trim_start_matches('[').trim_end_matches(']');
        let v: i64 = rhs.parse().map_err(|_| format!("bad memory init '{item}'"))?;
        mem_init.insert(loc.to_owned(), v);
    }
    Ok(())
}

/// `rN` / `RN`, or an x86 register name in any case.
fn parse_reg(s: &str) -> Option<Reg> {
    let s = trim(s);
    if let Some(n) = s.strip_prefix(['r', 'R']) {
        return n.parse::<u8>().ok().map(Reg);
    }
    // x86 conventional registers map onto r0..r3.
    ["eax", "ebx", "ecx", "edx"]
        .iter()
        .position(|n| s.eq_ignore_ascii_case(n))
        .map(|i| Reg(i as u8))
}

fn parse_imm(s: &str) -> Option<i64> {
    trim(s).trim_start_matches(['#', '$']).parse().ok()
}

/// `op` lowercased into `buf`; the empty string (which names no
/// instruction) when `op` is longer than every mnemonic.
fn lower_op<'b>(op: &str, buf: &'b mut [u8; 8]) -> &'b str {
    let Some(dst) = buf.get_mut(..op.len()) else { return "" };
    dst.copy_from_slice(op.as_bytes());
    dst.make_ascii_lowercase();
    // Lowercasing ASCII bytes keeps UTF-8 valid.
    std::str::from_utf8(dst).unwrap_or("")
}

fn parse_instr(isa: Isa, text: &str) -> Result<Instr, String> {
    let t = trim(text);
    // Label?
    if let Some(l) = t.strip_suffix(':') {
        if !l.contains(' ') {
            return Ok(Instr::Label(l.to_owned()));
        }
    }
    let (op, rest) = match t.split_once(char::is_whitespace) {
        Some((op, rest)) => (op, trim(rest)),
        None => (t, ""),
    };
    let mut op_buf = [0u8; 8];
    let op_l = lower_op(op, &mut op_buf);
    // Fences first (no operands; ARM's "dmb st" takes one).
    let fence = match (op_l, rest) {
        ("sync", "") => Some(Fence::Sync),
        ("lwsync", "") => Some(Fence::Lwsync),
        ("eieio", "") => Some(Fence::Eieio),
        ("isync", "") => Some(Fence::Isync),
        ("dmb", "") => Some(Fence::Dmb),
        ("dsb", "") => Some(Fence::Dsb),
        ("dmb.st", "") | ("dmb", "st") => Some(Fence::DmbSt),
        ("dsb.st", "") | ("dsb", "st") => Some(Fence::DsbSt),
        ("isb", "") => Some(Fence::Isb),
        ("mfence", "") => Some(Fence::Mfence),
        _ => None,
    };
    if let Some(f) = fence {
        return Ok(Instr::Fence(f));
    }
    let args = Args(rest);
    let arg = |i: usize| args.get(i).ok_or_else(|| format!("missing operand in '{t}'"));
    let reg = |i: usize| -> Result<Reg, String> {
        args.get(i).and_then(parse_reg).ok_or_else(|| format!("bad register operand in '{t}'"))
    };
    let imm = |i: usize| -> Result<i64, String> {
        parse_imm(arg(i)?).ok_or_else(|| format!("bad immediate in '{t}'"))
    };
    let label = |i: usize| arg(i).map(str::to_owned);
    match (isa, op_l) {
        (Isa::Power, "li") => Ok(Instr::MoveImm { dst: reg(0)?, val: imm(1)? }),
        (Isa::Power, "lwz" | "ld") => {
            Ok(Instr::Load { dst: reg(0)?, addr: parse_power_mem(arg(1)?)? })
        }
        (Isa::Power, "lwzx" | "ldx") => {
            Ok(Instr::Load { dst: reg(0)?, addr: Addr::Indexed { base: reg(2)?, index: reg(1)? } })
        }
        (Isa::Power, "stw" | "std") => {
            Ok(Instr::Store { src: reg(0)?, addr: parse_power_mem(arg(1)?)? })
        }
        (Isa::Power, "stwx" | "stdx") => {
            Ok(Instr::Store { src: reg(0)?, addr: Addr::Indexed { base: reg(2)?, index: reg(1)? } })
        }
        (Isa::Power, "mr") => Ok(Instr::Move { dst: reg(0)?, src: reg(1)? }),
        (Isa::Power | Isa::Arm, "xor" | "eor") => {
            Ok(Instr::Xor { dst: reg(0)?, a: reg(1)?, b: reg(2)? })
        }
        (Isa::Power | Isa::Arm, "add") => Ok(Instr::Add { dst: reg(0)?, a: reg(1)?, b: reg(2)? }),
        (Isa::Power, "cmpwi") => Ok(Instr::CmpImm { src: reg(0)?, val: imm(1)? }),
        (Isa::Power, "cmpw") => Ok(Instr::CmpReg { a: reg(0)?, b: reg(1)? }),
        (Isa::Arm, "cmp") => {
            let src = arg(1)?;
            match parse_imm(src) {
                Some(v) if src.starts_with('#') => Ok(Instr::CmpImm { src: reg(0)?, val: v }),
                _ => Ok(Instr::CmpReg { a: reg(0)?, b: reg(1)? }),
            }
        }
        (Isa::Arm, "mov") => match parse_imm(arg(1)?) {
            Some(v) => Ok(Instr::MoveImm { dst: reg(0)?, val: v }),
            None => Ok(Instr::Move { dst: reg(0)?, src: reg(1)? }),
        },
        (Isa::Arm, "ldr") => Ok(Instr::Load { dst: reg(0)?, addr: parse_arm_mem(args)? }),
        (Isa::Arm, "str") => Ok(Instr::Store { src: reg(0)?, addr: parse_arm_mem(args)? }),
        (Isa::X86, "mov") => parse_x86_mov(args, t),
        (_, "beq") => Ok(Instr::Branch { cond: BranchCond::Eq, label: label(0)? }),
        (_, "bne") => Ok(Instr::Branch { cond: BranchCond::Ne, label: label(0)? }),
        (_, "b" | "jmp") => Ok(Instr::Branch { cond: BranchCond::Always, label: label(0)? }),
        _ => Err(format!("unknown {isa} instruction '{t}'")),
    }
}

/// Instruction operands: the text after the mnemonic, split at top-level
/// commas (keeping `[rA,rB]` bracket groups together) into trimmed pieces,
/// the last of them dropped when blank. The pieces are found on demand,
/// so nothing is collected.
#[derive(Clone, Copy)]
struct Args<'a>(&'a str);

impl<'a> Args<'a> {
    fn iter(self) -> ArgPieces<'a> {
        ArgPieces { rest: Some(self.0) }
    }

    fn get(self, i: usize) -> Option<&'a str> {
        self.iter().nth(i)
    }
}

/// The pieces of an [`Args`], left to right.
struct ArgPieces<'a> {
    /// The text not yet split; `None` once the last piece is out.
    rest: Option<&'a str>,
}

impl<'a> Iterator for ArgPieces<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        let mut depth = 0usize;
        for (i, b) in s.bytes().enumerate() {
            match b {
                b'[' | b'(' => depth += 1,
                b']' | b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    self.rest = Some(&s[i + 1..]);
                    return Some(trim(&s[..i]));
                }
                _ => {}
            }
        }
        self.rest = None;
        Some(trim(s)).filter(|last| !last.is_empty())
    }
}

/// Power memory operand `0(rA)`.
fn parse_power_mem(s: &str) -> Result<Addr, String> {
    let s = s.trim();
    let open = s.find('(').ok_or_else(|| format!("bad memory operand '{s}'"))?;
    let off = &s[..open];
    if off.parse::<i64>() != Ok(0) {
        return Err(format!("only zero offsets are supported, got '{s}'"));
    }
    let r = s[open + 1..]
        .strip_suffix(')')
        .and_then(parse_reg)
        .ok_or_else(|| format!("bad memory operand '{s}'"))?;
    Ok(Addr::Reg(r))
}

/// ARM memory operand `[rA]` or `[rA,rB]`: every operand after the first.
fn parse_arm_mem(args: Args<'_>) -> Result<Addr, String> {
    let mut ops = args.iter().skip(1);
    let joined = match (ops.next(), ops.next()) {
        (Some(one), None) => Cow::Borrowed(one),
        (None, _) => Cow::Borrowed(""),
        // Several top-level operands never form a valid address; rebuild
        // the text only to name it in the error.
        _ => Cow::Owned(args.iter().skip(1).collect::<Vec<_>>().join(",")),
    };
    let inner = joined
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("bad ARM memory operand '{joined}'"))?;
    let mut parts = inner.split(',').map(str::trim);
    let reg = |a: &str| parse_reg(a).ok_or_else(|| format!("bad register '{a}'"));
    match (parts.next(), parts.next(), parts.next()) {
        (Some(a), None, _) => Ok(Addr::Reg(reg(a)?)),
        (Some(a), Some(b), None) => Ok(Addr::Indexed { base: reg(a)?, index: reg(b)? }),
        _ => Err(format!("bad ARM memory operand '{joined}'")),
    }
}

/// x86 `mov` in its four litmus shapes.
fn parse_x86_mov(args: Args<'_>, t: &str) -> Result<Instr, String> {
    let bad = || format!("unsupported x86 mov '{t}'");
    let (dst, src) = (args.get(0).ok_or_else(bad)?, args.get(1).ok_or_else(bad)?);
    let mem = |s: &str| -> Option<Addr> {
        let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
        match parse_reg(inner) {
            Some(r) => Some(Addr::Reg(r)),
            None => Some(Addr::Direct(inner.trim().to_owned())),
        }
    };
    if let Some(addr) = mem(dst) {
        if let Some(v) = parse_imm(src).filter(|_| src.trim().starts_with('$')) {
            return Ok(Instr::StoreImm { val: v, addr });
        }
        return Ok(Instr::Store { src: parse_reg(src).ok_or_else(bad)?, addr });
    }
    if let Some(addr) = mem(src) {
        return Ok(Instr::Load { dst: parse_reg(dst).ok_or_else(bad)?, addr });
    }
    if let Some(v) = parse_imm(src).filter(|_| src.trim().starts_with('$')) {
        return Ok(Instr::MoveImm { dst: parse_reg(dst).ok_or_else(bad)?, val: v });
    }
    Ok(Instr::Move { dst: parse_reg(dst).ok_or_else(bad)?, src: parse_reg(src).ok_or_else(bad)? })
}

/// Parses `exists (...)`, `~exists (...)` or `forall (...)`.
fn parse_condition(text: &str) -> Result<Condition, String> {
    let t = text.trim();
    let (quantifier, rest) = if let Some(r) = t.strip_prefix("~exists") {
        (Quantifier::NotExists, r)
    } else if let Some(r) = t.strip_prefix("exists") {
        (Quantifier::Exists, r)
    } else if let Some(r) = t.strip_prefix("forall") {
        (Quantifier::Forall, r)
    } else {
        return Err(format!("expected a quantifier, found '{t}'"));
    };
    let mut lexer = CondLexer { rest, error: None };
    let parsed = {
        let mut p = CondParser { toks: lexer.by_ref().peekable() };
        match p.prop() {
            Ok(_) if p.peek().is_some() => Err(format!("trailing tokens in condition '{t}'")),
            parsed => parsed,
        }
    };
    // A lexical error anywhere in the condition is reported ahead of a
    // syntax error before it, so lex whatever the parser left.
    lexer.by_ref().for_each(drop);
    match lexer.error {
        Some(lexical) => Err(lexical),
        None => parsed.map(|prop| Condition { quantifier, prop }),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CTok<'a> {
    LPar,
    RPar,
    And,
    Or,
    Not,
    /// `ident` or `tid:reg` or integer.
    Atom(&'a str),
    Eq,
}

/// The condition's tokens, borrowed from its text. A lexical error ends
/// the stream and is kept in `error`.
struct CondLexer<'a> {
    rest: &'a str,
    error: Option<String>,
}

impl<'a> CondLexer<'a> {
    fn lex(&mut self) -> Result<Option<CTok<'a>>, String> {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
        let Some(c) = self.rest.chars().next() else { return Ok(None) };
        let (tok, len) = match c {
            '(' => (CTok::LPar, 1),
            ')' => (CTok::RPar, 1),
            '=' => (CTok::Eq, 1),
            '/' if self.rest[1..].starts_with('\\') => (CTok::And, 2),
            '/' => return Err("expected '/\\'".into()),
            '\\' if self.rest[1..].starts_with('/') => (CTok::Or, 2),
            '\\' => return Err("expected '\\/'".into()),
            _ => {
                let len = self
                    .rest
                    .find(|c: char| {
                        !(c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '[' | ']'))
                    })
                    .unwrap_or(self.rest.len());
                if len == 0 {
                    return Err(format!("unexpected character '{c}' in condition"));
                }
                let atom = &self.rest[..len];
                (if atom == "not" { CTok::Not } else { CTok::Atom(atom) }, len)
            }
        };
        self.rest = &self.rest[len..];
        Ok(Some(tok))
    }
}

impl<'a> Iterator for CondLexer<'a> {
    type Item = CTok<'a>;

    fn next(&mut self) -> Option<CTok<'a>> {
        if self.error.is_some() {
            return None;
        }
        self.lex().unwrap_or_else(|e| {
            self.error = Some(e);
            None
        })
    }
}

/// A recursive-descent parser over the condition's tokens.
struct CondParser<'a, 'l> {
    toks: std::iter::Peekable<&'l mut CondLexer<'a>>,
}

impl<'a> CondParser<'a, '_> {
    fn peek(&mut self) -> Option<CTok<'a>> {
        self.toks.peek().copied()
    }

    fn next(&mut self) -> Option<CTok<'a>> {
        self.toks.next()
    }

    /// prop := term (\/ term)*
    fn prop(&mut self) -> Result<Prop, String> {
        let mut acc = self.term()?;
        while self.peek() == Some(CTok::Or) {
            self.next();
            acc = Prop::or(acc, self.term()?);
        }
        Ok(acc)
    }

    /// term := factor (/\ factor)*
    fn term(&mut self) -> Result<Prop, String> {
        let mut acc = self.factor()?;
        while self.peek() == Some(CTok::And) {
            self.next();
            acc = Prop::and(acc, self.factor()?);
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Prop, String> {
        match self.next() {
            Some(CTok::Not) => Ok(Prop::not(self.factor()?)),
            Some(CTok::LPar) => {
                let p = self.prop()?;
                if self.next() != Some(CTok::RPar) {
                    return Err("expected ')'".into());
                }
                Ok(p)
            }
            Some(CTok::Atom("true")) => Ok(Prop::True),
            Some(CTok::Atom(a)) => {
                if self.next() != Some(CTok::Eq) {
                    return Err(format!("expected '=' after '{a}'"));
                }
                let rhs = match self.next() {
                    Some(CTok::Atom(v)) => v,
                    other => return Err(format!("expected a value, found {other:?}")),
                };
                atom_prop(a, rhs)
            }
            other => Err(format!("unexpected token {other:?} in condition")),
        }
    }
}

fn atom_prop(lhs: &str, rhs: &str) -> Result<Prop, String> {
    if let Some((tid, reg)) = lhs.split_once(':') {
        let tid: u16 = tid.parse().map_err(|_| format!("bad thread id '{lhs}'"))?;
        let reg = parse_reg(reg).ok_or_else(|| format!("bad register '{lhs}'"))?;
        let val = match rhs.parse::<i64>() {
            Ok(v) => CondVal::Int(v),
            Err(_) => CondVal::Loc(rhs.to_owned()),
        };
        Ok(Prop::RegEq { tid, reg, val })
    } else {
        let loc = lhs.trim_start_matches('[').trim_end_matches(']');
        let val: i64 = rhs.parse().map_err(|_| format!("bad memory value '{rhs}'"))?;
        Ok(Prop::MemEq { loc: loc.to_owned(), val })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = r#"PPC mp+lwsync+addr
"classic message passing"
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1            ;
 li r1,1      | lwz r1,0(r2)  ;
 stw r1,0(r2) | xor r3,r1,r1  ;
 lwsync       | lwzx r5,r3,r4 ;
 stw r1,0(r4) |               ;
exists (1:r1=1 /\ 1:r5=0)
"#;

    #[test]
    fn parses_mp() {
        let t = parse(MP).unwrap();
        assert_eq!(t.isa, Isa::Power);
        assert_eq!(t.name, "mp+lwsync+addr");
        assert_eq!(t.threads.len(), 2);
        assert_eq!(t.threads[0].len(), 4);
        assert_eq!(t.threads[1].len(), 3);
        assert_eq!(t.reg_init[&(0, Reg(2))], InitVal::Loc("x".into()));
        assert_eq!(t.condition.quantifier, Quantifier::Exists);
    }

    #[test]
    fn roundtrips_through_display() {
        let t = parse(MP).unwrap();
        let printed = t.to_string();
        let t2 = parse(&printed).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parses_arm_dialect() {
        let src = r#"ARM mp+dmb+ctrlisb
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 mov r1,#1    | ldr r1,[r2]  ;
 str r1,[r2]  | cmp r1,r1    ;
 dmb          | beq L0       ;
 str r1,[r4]  | L0:          ;
              | isb          ;
              | ldr r5,[r4]  ;
exists (1:r1=1 /\ 1:r5=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.isa, Isa::Arm);
        assert!(t.threads[1].contains(&Instr::Fence(Fence::Isb)));
        assert!(t.threads[1].contains(&Instr::CmpReg { a: Reg(1), b: Reg(1) }));
    }

    #[test]
    fn parses_x86_dialect() {
        let src = r#"X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 mov [x],$1  | mov [y],$1  ;
 mfence      | mfence      ;
 mov eax,[y] | mov eax,[x] ;
exists (0:eax=0 /\ 1:eax=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.isa, Isa::X86);
        assert_eq!(t.threads[0][0], Instr::StoreImm { val: 1, addr: Addr::Direct("x".into()) });
        assert_eq!(t.mem_init["x"], 0);
    }

    #[test]
    fn condition_precedence_and_not() {
        let c = parse_condition(r"exists (x=1 /\ not (y=2 \/ 0:r1=3))").unwrap();
        match c.prop {
            Prop::And(_, rhs) => assert!(matches!(*rhs, Prop::Not(_))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    /// A one-thread test whose only instruction row is `instr`, on line 5.
    fn one_instr(isa: &str, instr: &str) -> Result<LitmusTest, ParseError> {
        parse(&format!("{isa} t\n{{\n}}\n P0 ;\n {instr} ;\nexists (x=1)\n"))
    }

    #[test]
    fn missing_operands_are_errors_not_panics() {
        for (isa, instr) in [
            ("PPC", "li r1"),
            ("PPC", "stw r1"),
            ("PPC", "beq"),
            ("PPC", "cmpwi r1"),
            ("ARM", "mov r1"),
            ("ARM", "cmp r1"),
        ] {
            let err = one_instr(isa, instr).unwrap_err();
            assert_eq!(err.to_string(), format!("line 5: missing operand in '{instr}'"));
        }
        // Shapes that already reported their own error keep it.
        let err = one_instr("ARM", "ldr r1").unwrap_err();
        assert_eq!(err.to_string(), "line 5: bad ARM memory operand ''");
        let err = one_instr("PPC", "li").unwrap_err();
        assert_eq!(err.to_string(), "line 5: bad register operand in 'li'");
    }

    #[test]
    fn init_items_may_span_lines_and_bad_items_wait_for_the_block_end() {
        let src = "PPC t\n{\n0:r2=\nx; y=1;\n}\n P0 ;\n lwz r1,0(r2) ;\nexists (y=1)\n";
        let t = parse(src).unwrap();
        assert_eq!(t.reg_init[&(0, Reg(2))], InitVal::Loc("x".into()));
        assert_eq!(t.mem_init["y"], 1);
        // A stray '}' later in the block is reported before an earlier
        // bad item, whose error names the block's opening line.
        let src = "PPC t\n{\nx=oops;\ny=0; }\n}\n";
        assert_eq!(parse(src).unwrap_err().to_string(), "line 4: '}' must be on its own line");
        let src = "PPC t\n{\nx=oops;\n}\n P0 ;\n";
        assert_eq!(parse(src).unwrap_err().to_string(), "line 2: bad memory init 'x=oops'");
    }

    #[test]
    fn fast_trims_agree_with_str_trims() {
        for s in
            ["", " ", "\t x \r", "\u{b}x\u{b}", "x\u{b} ", "\u{a0}x\u{2003}", " é ", " \u{85}y"]
        {
            assert_eq!(trim(s), s.trim(), "{s:?}");
            assert_eq!(trim_end(s), s.trim_end(), "{s:?}");
        }
    }

    #[test]
    fn thread_headers_must_be_exact() {
        let src = "PPC t\n{\n}\n P0 | P01 ;\n";
        assert_eq!(parse(src).unwrap_err().to_string(), "line 4: expected P1, found ' P01 '");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "PPC t\n{\n}\n P0 ;\n frob r1 ;\nexists (x=1)\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, Some(5));
        assert!(err.message.contains("frob"));
    }
}
