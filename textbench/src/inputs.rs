//! Input generation and reference verdicts.
//!
//! This is harness work, done before anything is timed. Every generated
//! input reaches the program under test as text: litmus sources and
//! litmus7 log histograms (the cat sources are the shipped model files).
//! The references are computed from the generating values, never from
//! the program's own parse of the text.

use herd_core::arch::{Arm, ArmVariant, CppRa, CppRaStrength, Power, Sc, Tso};
use herd_core::model::{check, Architecture};
use herd_hw::campaign::render_full_state;
use herd_hw::silicon::{arm_machines, power_machines, x86_machines, Machine};
use herd_litmus::candidates::{enumerate, Candidate, EnumOptions};
use herd_litmus::corpus;
use herd_litmus::isa::Isa;
use herd_litmus::program::{LitmusTest, Quantifier};
use herd_litmus::simulate::eval_prop;
use herd_litmus::text_corpus;
use std::collections::{BTreeSet, HashMap, HashSet};

/// splitmix64: a small deterministic generator for sampling and order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

/// The three ISAs, in the order of [`stock_model`].
pub const ISAS: [Isa; 3] = [Isa::Power, Isa::Arm, Isa::X86];

pub fn isa_index(isa: Isa) -> usize {
    match isa {
        Isa::Power => 0,
        Isa::Arm => 1,
        Isa::X86 => 2,
    }
}

/// An ISA's stock model: Power, the proposed ARM model, TSO.
pub fn stock_model(isa: Isa) -> Box<dyn Architecture> {
    match isa {
        Isa::Power => Box::new(Power::new()),
        Isa::Arm => Box::new(Arm::new(ArmVariant::Proposed)),
        Isa::X86 => Box::new(Tso),
    }
}

/// The cat files of `models/` with their native twins.
pub const CAT_FILES: [&str; 7] = ["sc", "tso", "power", "arm", "arm-llh", "cppra", "cppra-exact"];

fn native_twin(cat: &str) -> Box<dyn Architecture> {
    match cat {
        "sc" => Box::new(Sc),
        "tso" => Box::new(Tso),
        "power" => Box::new(Power::new()),
        "arm" => Box::new(Arm::new(ArmVariant::Proposed)),
        "arm-llh" => Box::new(Arm::new(ArmVariant::ProposedLlh)),
        "cppra" => Box::new(CppRa::new(CppRaStrength::PaperStrong)),
        "cppra-exact" => Box::new(CppRa::new(CppRaStrength::StandardExact)),
        other => unreachable!("no native twin for {other}.cat"),
    }
}

/// The expected answer to one (test, model) query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// herd's `Ok`: the quantified condition holds.
    pub validated: bool,
    /// Allowed executions satisfying / not satisfying the proposition,
    /// when the reference is the enumeration oracle (the hand-written
    /// corpora carry only the paper's verdict).
    pub counts: Option<(usize, usize)>,
}

/// The reference oracle: eager enumeration judged candidate by candidate
/// with the owned four-axiom check.
fn oracle(test: &LitmusTest, cands: &[Candidate], arch: &dyn Architecture) -> Expect {
    let (mut positive, mut negative) = (0, 0);
    for c in cands {
        if check(arch, &c.exec).allowed() {
            if eval_prop(&test.condition.prop, c) {
                positive += 1;
            } else {
                negative += 1;
            }
        }
    }
    Expect {
        validated: validated(test.condition.quantifier, positive, negative),
        counts: Some((positive, negative)),
    }
}

/// herd's verdict from the allowed executions' proposition tallies.
pub fn validated(q: Quantifier, positive: usize, negative: usize) -> bool {
    match q {
        Quantifier::Exists => positive > 0,
        Quantifier::NotExists => positive == 0,
        Quantifier::Forall => negative == 0,
    }
}

fn candidates_of(test: &LitmusTest) -> Vec<Candidate> {
    enumerate(test, &EnumOptions::default()).expect("generated tests enumerate")
}

/// One litmus query of the sweeps: the source text and the reference
/// verdict under its ISA's stock model.
#[derive(Clone, Debug)]
pub struct LitmusText {
    pub text: String,
    pub expect: Expect,
    /// One of the 107 built-in corpus tests.
    pub builtin: bool,
}

/// Cycles of at most six edges: 1860 Power, 1016 ARM and 308 x86 tests.
const DIY_MAX_CYCLE: usize = 6;

/// Every diy test of one ISA's pool, in generation order.
pub fn diy_tests(isa: Isa) -> Vec<LitmusTest> {
    let pool = match isa {
        Isa::Power => herd_diy::power_pool(),
        Isa::Arm => herd_diy::arm_pool(),
        Isa::X86 => herd_diy::x86_pool(),
    };
    herd_diy::generate_tests(&pool, DIY_MAX_CYCLE, isa, usize::MAX)
}

/// The built-in corpus with the paper's verdicts.
fn builtin_corpus() -> Vec<corpus::CorpusEntry> {
    let mut all = corpus::power_corpus();
    all.extend(corpus::arm_corpus());
    all.extend(corpus::x86_corpus());
    all
}

/// The litmus texts of the sweeps: the 107 built-in corpus tests rendered
/// to text, the 10 shipped `.litmus` files, and a seeded sample of
/// `diy_share` of every ISA's diy tests, judged by the oracle.
pub fn litmus_pool(seed: u64, diy_share: f64) -> Vec<LitmusText> {
    let mut out: Vec<LitmusText> = builtin_corpus()
        .into_iter()
        .map(|e| LitmusText {
            text: e.test.to_string(),
            expect: Expect { validated: e.allowed, counts: None },
            builtin: true,
        })
        .collect();
    for entry in &text_corpus::ALL {
        let test = text_corpus::parse_entry(entry).expect("shipped litmus files parse");
        assert_eq!(
            stock_model(test.isa).name(),
            herd_core::arch::by_name(entry.model).expect("stock model").name(),
            "{} is judged by its ISA's stock model",
            entry.file
        );
        out.push(LitmusText {
            text: entry.source.to_owned(),
            expect: Expect { validated: entry.allowed, counts: None },
            builtin: false,
        });
    }
    for (k, isa) in ISAS.into_iter().enumerate() {
        let mut tests = diy_tests(isa);
        Rng::new(seed, 10 + k as u64).shuffle(&mut tests);
        let take = (tests.len() as f64 * diy_share).round() as usize;
        let model = stock_model(isa);
        for t in tests.into_iter().take(take) {
            let expect = oracle(&t, &candidates_of(&t), model.as_ref());
            out.push(LitmusText { text: t.to_string(), expect, builtin: false });
        }
    }
    out
}

/// One cat-sweep query: a litmus text and a cat file, with the verdict
/// of the cat file's native twin.
#[derive(Clone, Debug)]
pub struct CatPair {
    pub litmus: usize,
    pub cat: usize,
    pub expect: Expect,
}

/// The cat-sweep inputs: a seeded sample of `tests` litmus texts of the
/// pool, each paired with every cat file.
pub fn cat_pairs(seed: u64, pool: &[LitmusText], tests: usize) -> (Vec<String>, Vec<CatPair>) {
    let pick = Rng::new(seed, 20).permutation(pool.len());
    let twins: Vec<Box<dyn Architecture>> = CAT_FILES.iter().map(|c| native_twin(c)).collect();
    let mut texts = Vec::with_capacity(tests);
    let mut pairs = Vec::with_capacity(tests * CAT_FILES.len());
    for &i in pick.iter().take(tests) {
        let test = herd_litmus::parse::parse(&pool[i].text).expect("pool texts parse");
        let cands = candidates_of(&test);
        for (cat, twin) in twins.iter().enumerate() {
            let expect = oracle(&test, &cands, twin.as_ref());
            pairs.push(CatPair { litmus: texts.len(), cat, expect });
        }
        texts.push(pool[i].text.clone());
    }
    (texts, pairs)
}

/// The hw-logs inputs.
pub struct HwInputs {
    /// Litmus sources of every test some log names.
    pub tests: Vec<String>,
    /// litmus7 log texts, each with the ISA whose stock model judges it.
    pub logs: Vec<(Isa, String)>,
    /// Allowed full states per (ISA, test name), by enumeration.
    pub allowed: HashMap<(Isa, String), BTreeSet<String>>,
    /// Rows in all logs, and distinct (ISA, test, row) triples.
    pub rows: u64,
    pub distinct_rows: u64,
    /// The most distinct rows any single log holds.
    pub max_log_rows: u64,
}

/// Logs per machine, and fresh diy tests per log.
const LOGS_PER_MACHINE: usize = 4;
const DIY_PER_LOG: usize = 4;
/// Simulated runs per test: enough for states of bug-only rarity to show.
const ITERATIONS: u64 = 10_000_000_000;

/// Seeded hardware logs of the simulated Power, ARM and x86 machines.
/// Every log holds all of its ISA's built-in corpus tests (recurring from
/// log to log) plus a fresh slice of the ISA's diy tests (seen once).
pub fn hw_inputs(seed: u64) -> HwInputs {
    let machines: Vec<(Isa, Machine)> =
        [(Isa::Power, power_machines()), (Isa::Arm, arm_machines()), (Isa::X86, x86_machines())]
            .into_iter()
            .flat_map(|(isa, ms)| ms.into_iter().map(move |m| (isa, m)))
            .collect();
    let corpora = [corpus::power_corpus(), corpus::arm_corpus(), corpus::x86_corpus()];
    let mut diy: Vec<Vec<LitmusTest>> = ISAS
        .iter()
        .enumerate()
        .map(|(k, &isa)| {
            let recurring: HashSet<&str> =
                corpora[k].iter().map(|e| e.test.name.as_str()).collect();
            let mut tests: Vec<LitmusTest> = diy_tests(isa)
                .into_iter()
                .filter(|t| !recurring.contains(t.name.as_str()))
                .collect();
            Rng::new(seed, 30 + k as u64).shuffle(&mut tests);
            tests
        })
        .collect();

    let mut logs = Vec::new();
    let mut named: HashMap<(Isa, String), LitmusTest> = HashMap::new();
    let mut distinct: HashSet<(Isa, String, String)> = HashSet::new();
    let (mut rows, mut max_log_rows) = (0u64, 0u64);
    let mut log_seeds = Rng::new(seed, 40);
    for _ in 0..LOGS_PER_MACHINE {
        for (isa, machine) in &machines {
            let (isa, k) = (*isa, isa_index(*isa));
            assert!(diy[k].len() >= DIY_PER_LOG, "{isa:?} ran out of fresh diy tests");
            let fresh: Vec<LitmusTest> = diy[k].drain(..DIY_PER_LOG).collect();
            let tests: Vec<LitmusTest> =
                corpora[k].iter().map(|e| e.test.clone()).chain(fresh).collect();
            let log = herd_hw::log::hardware_log(&tests, machine, ITERATIONS, log_seeds.next_u64());
            let mut log_rows = 0u64;
            for e in log.entries.values() {
                for state in e.states.keys() {
                    distinct.insert((isa, e.name.clone(), state.clone()));
                }
                log_rows += e.states.len() as u64;
            }
            rows += log_rows;
            max_log_rows = max_log_rows.max(log_rows);
            for t in tests {
                named.entry((isa, t.name.clone())).or_insert(t);
            }
            logs.push((isa, log.render()));
        }
    }
    Rng::new(seed, 50).shuffle(&mut logs);

    let allowed = named
        .iter()
        .map(|(key, t)| {
            let model = stock_model(key.0);
            let states = candidates_of(t)
                .iter()
                .filter(|c| check(model.as_ref(), &c.exec).allowed())
                .map(render_full_state)
                .collect();
            (key.clone(), states)
        })
        .collect();
    let tests = named.values().map(|t| t.to_string()).collect();
    HwInputs { tests, logs, allowed, rows, distinct_rows: distinct.len() as u64, max_log_rows }
}
