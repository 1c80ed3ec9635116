//! Mutation fuzz of the two text front ends: the litmus parser and the cat
//! parser must never panic on damaged text, and every error they return
//! must name a line of the input.
//!
//! The inputs are real texts: the built-in corpus rendered to litmus, the
//! shipped `corpus/*.litmus` files, a diy sample, and the seven
//! `models/*.cat`. Each case damages one of them with a few random edits —
//! a byte deleted, inserted or duplicated, a line deleted or duplicated,
//! or the text cut short — and decodes the bytes lossily, so broken UTF-8
//! and stray non-ASCII characters reach the parsers too. The well-formed
//! grammar itself is pinned by the `parse(to_string())` round trips in
//! `query_cache.rs`.

use cats::cat::{stock, CatError, CatModel};
use cats::diy::{arm_pool, generate_tests, power_pool, x86_pool};
use cats::litmus::corpus;
use cats::litmus::isa::Isa;
use cats::litmus::parse::parse;
use cats::litmus::text_corpus;
use proptest::prelude::*;
use std::panic::catch_unwind;
use std::sync::OnceLock;

/// Bytes an insertion draws from: litmus and cat punctuation, digits,
/// register letters, whitespace (a vertical tab among it), and lead and
/// continuation bytes of multi-byte characters (`é`, `∪`).
const INSERTS: &[u8] = b" \t\x0b\n;|,:=()[]{}*+^-~/\\\"#$0123456789Prxy\xc3\xa9\xe2\x88\xaa";

/// One edit of a text's bytes; the numbers pick positions modulo the
/// current length.
#[derive(Clone, Copy, Debug)]
enum Edit {
    DeleteByte(usize),
    InsertByte(usize, u8),
    DuplicateByte(usize),
    DeleteLine(usize),
    DuplicateLine(usize),
    Truncate(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..6, any::<usize>(), 0..INSERTS.len()).prop_map(|(kind, at, b)| match kind {
        0 => Edit::DeleteByte(at),
        1 => Edit::InsertByte(at, INSERTS[b]),
        2 => Edit::DuplicateByte(at),
        3 => Edit::DeleteLine(at),
        4 => Edit::DuplicateLine(at),
        _ => Edit::Truncate(at),
    })
}

/// Applies the edits in turn and decodes the result lossily.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &e in edits {
        let n = bytes.len();
        match e {
            Edit::DeleteByte(at) if n > 0 => {
                bytes.remove(at % n);
            }
            Edit::InsertByte(at, b) => bytes.insert(at % (n + 1), b),
            Edit::DuplicateByte(at) if n > 0 => bytes.insert(at % n, bytes[at % n]),
            Edit::DeleteLine(at) | Edit::DuplicateLine(at) => {
                let mut lines: Vec<Vec<u8>> =
                    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let k = at % lines.len();
                if matches!(e, Edit::DeleteLine(_)) {
                    lines.remove(k);
                } else {
                    lines.insert(k, lines[k].clone());
                }
                bytes = lines.join(&b'\n');
            }
            Edit::Truncate(at) => bytes.truncate(at % (n + 1)),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The litmus inputs: the built-in corpus rendered to text, the shipped
/// files, and every fourth diy test of each ISA's pool up to 4 edges.
fn litmus_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let builtin = corpus::power_corpus()
            .into_iter()
            .chain(corpus::arm_corpus())
            .chain(corpus::x86_corpus())
            .map(|e| e.test.to_string());
        let files = text_corpus::ALL.iter().map(|e| e.source.to_owned());
        let diy = [(power_pool(), Isa::Power), (arm_pool(), Isa::Arm), (x86_pool(), Isa::X86)]
            .into_iter()
            .flat_map(|(pool, isa)| generate_tests(&pool, 4, isa, 80).into_iter().step_by(4))
            .map(|t| t.to_string());
        builtin.chain(files).chain(diy).collect()
    })
}

/// The last line a parser can blame: the input's line count, and 1 for an
/// empty input.
fn last_line(text: &str) -> usize {
    text.lines().count().max(1)
}

#[test]
fn every_input_parses_unmutated() {
    let texts = litmus_texts();
    assert!(texts.len() > 150, "a real sample: {} texts", texts.len());
    for text in texts {
        parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }
    for (file, src) in stock::ALL {
        CatModel::parse(src).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_litmus_never_panics_and_errors_name_a_line(
        pick in any::<usize>(),
        edits in proptest::collection::vec(edit(), 1..4),
    ) {
        let texts = litmus_texts();
        let text = mutate(&texts[pick % texts.len()], &edits);
        let parsed = catch_unwind(|| parse(&text));
        prop_assert!(parsed.is_ok(), "the litmus parser panicked on {text:?}");
        if let Ok(Err(e)) = parsed {
            prop_assert!(
                e.line.is_some_and(|l| (1..=last_line(&text)).contains(&l)),
                "error {e:?} names no line of {text:?}"
            );
        }
    }

    #[test]
    fn mutated_cat_never_panics_and_errors_name_a_line(
        pick in 0..stock::ALL.len(),
        edits in proptest::collection::vec(edit(), 1..4),
    ) {
        let text = mutate(stock::ALL[pick].1, &edits);
        let parsed = catch_unwind(|| CatModel::parse(&text));
        prop_assert!(parsed.is_ok(), "the cat parser panicked on {text:?}");
        match parsed {
            Ok(Err(CatError::Parse(e))) => prop_assert!(
                (1..=last_line(&text)).contains(&e.line),
                "error {e:?} names no line of {text:?}"
            ),
            Ok(Err(other)) => prop_assert!(false, "parsing gave a non-parse error {other:?}"),
            _ => {}
        }
    }
}
