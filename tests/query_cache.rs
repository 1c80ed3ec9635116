//! PR 9: the memoised query layer — cached verdicts must be
//! bit-identical to fresh computation under arbitrary interleavings of
//! hits, misses and evictions, and the content keys must be stable.
//!
//! The cache under test is deliberately tiny (a handful of entries per
//! shard) so random query sequences exercise all three paths — cold
//! miss, warm hit, and re-miss after LRU eviction — while a reference
//! model recomputes every verdict from scratch. The keys are the real
//! verdict-cache keys of `herd_hw::log::judge_log_cached`, and their own
//! properties are checked over a diy sample of realistic size.

use cats::cache::ShardedLru;
use cats::litmus::candidates::EnumOptions;
use cats::litmus::corpus::{self, Dev};
use cats::litmus::decide::{decide_outcome, outcome_fingerprint, query_fingerprint, Outcome};
use cats::litmus::isa::Isa;
use cats::litmus::program::LitmusTest;
use herd_core::arch::{Sc, Tso};
use herd_core::model::Architecture;
use proptest::prelude::*;
use std::collections::HashSet;

/// The query universe: a few tests × a few state rows × two models.
fn universe() -> Vec<(LitmusTest, String)> {
    let rows =
        ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=1; 1:r1=1", "1:r1=1; 1:r2=0", "x=1; y=1", "x=0"];
    let tests = [
        corpus::sb(Isa::X86, Dev::Po, Dev::Po),
        corpus::mp(Isa::X86, Dev::Po, Dev::Po),
        corpus::lb(Isa::X86, Dev::Po, Dev::Po),
    ];
    let mut out = Vec::new();
    for t in &tests {
        for r in &rows {
            out.push((t.clone(), (*r).to_string()));
        }
    }
    out
}

/// Model `m` of the universe.
fn arch(m: usize) -> &'static dyn Architecture {
    if m == 0 {
        &Sc
    } else {
        &Tso
    }
}

/// The fresh (uncached) answer for query index `q` under model `m`.
fn fresh(universe: &[(LitmusTest, String)], q: usize, m: usize) -> bool {
    let (test, row) = &universe[q];
    let outcome = Outcome::from_state_row(row).unwrap();
    decide_outcome(test, arch(m), &EnumOptions::default(), &outcome).unwrap().allowed
}

/// The verdict key for query index `q` under model `m`, as
/// `judge_log_cached` computes it.
fn key(universe: &[(LitmusTest, String)], q: usize, m: usize) -> cats::cache::Fingerprint {
    let (test, row) = &universe[q];
    let base = query_fingerprint(test, arch(m).name(), &EnumOptions::default());
    outcome_fingerprint(base, &Outcome::from_state_row(row).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of lookups against a cache small enough to
    /// evict constantly: every answer equals the fresh computation.
    #[test]
    fn cached_verdicts_are_bit_identical_to_fresh(
        queries in proptest::collection::vec((0usize..18, 0usize..2), 1..60),
        capacity in 1usize..8,
    ) {
        let uni = universe();
        let cache: ShardedLru<bool> = ShardedLru::new(capacity);
        let mut lookups = 0u64;
        for (q, m) in queries {
            let k = key(&uni, q, m);
            let want = fresh(&uni, q, m);
            let got = cache.get_or_insert_with(k, || fresh(&uni, q, m));
            prop_assert_eq!(got, want, "query {} model {} diverged through the cache", q, m);
            lookups += 1;
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, lookups, "every lookup is counted exactly once");
        prop_assert!(s.insertions <= s.misses, "insertions only follow misses");
        prop_assert!(s.evictions <= s.insertions, "can only evict what was inserted");
        prop_assert!(s.len <= s.capacity.max(1), "the bound holds");
    }

    /// Fingerprints are pure functions of content: recomputing the key
    /// of the same query always lands on the same entry, and distinct
    /// queries get distinct keys across the whole universe.
    #[test]
    fn content_keys_are_stable_and_distinct(q in 0usize..18, m in 0usize..2) {
        let uni = universe();
        prop_assert_eq!(key(&uni, q, m), key(&uni, q, m));
        for q2 in 0..uni.len() {
            for m2 in 0..2 {
                if (q2, m2) != (q, m) {
                    prop_assert_ne!(key(&uni, q, m), key(&uni, q2, m2));
                }
            }
        }
    }
}

/// Concurrent mixed hit/miss/eviction traffic from the executor's worker
/// count never corrupts a verdict (the fill may race; the value may not).
#[test]
fn concurrent_traffic_preserves_verdicts() {
    let uni = universe();
    let cache: ShardedLru<bool> = ShardedLru::new(8);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let (uni, cache) = (&uni, &cache);
            s.spawn(move || {
                for i in 0..uni.len() {
                    let q = (i + t) % uni.len();
                    let m = (i + t) % 2;
                    let got = cache.get_or_insert_with(key(uni, q, m), || fresh(uni, q, m));
                    assert_eq!(got, fresh(uni, q, m));
                }
            });
        }
    });
}

/// The built-in corpus, the shipped `corpus/*.litmus` files and a
/// deterministic diy sample of the Power and ARM pools (cycles up to
/// length 6).
fn key_corpus() -> (Vec<LitmusTest>, usize) {
    use cats::diy::{arm_pool, generate_tests, power_pool};
    let builtin = [corpus::power_corpus(), corpus::arm_corpus(), corpus::x86_corpus()];
    let mut tests: Vec<LitmusTest> = builtin.into_iter().flatten().map(|e| e.test).collect();
    tests.extend(cats::litmus::text_corpus::load_all().expect("the shipped files parse"));
    let mut diy = 0;
    for (pool, isa) in [(power_pool(), Isa::Power), (arm_pool(), Isa::Arm)] {
        let sample = generate_tests(&pool, 6, isa, 600);
        diy += sample.len();
        tests.extend(sample);
    }
    (tests, diy)
}

/// Query keys hash the test's structure: distinct tests get distinct keys
/// under every model name, and the same model name on the same test always
/// gets the same key — whether the test was built in memory or parsed back
/// from its own litmus text.
#[test]
fn query_keys_are_distinct_and_structural_over_a_diy_sample() {
    let (tests, diy) = key_corpus();
    assert!(diy >= 1000, "the diy sample has only {diy} tests");
    let opts = EnumOptions::default();
    let distinct: HashSet<&LitmusTest> = tests.iter().collect();
    let mut keys = HashSet::new();
    for test in &distinct {
        for model in ["SC", "TSO", "Power", "ARM"] {
            let fresh = keys.insert(query_fingerprint(test, model, &opts));
            assert!(fresh, "{} under {model} collides with another query", test.name);
        }
    }
    let mut round_trips = 0;
    for test in &tests {
        let key = query_fingerprint(test, "Power", &opts);
        assert_eq!(key, query_fingerprint(&test.clone(), "Power", &opts), "{}", test.name);
        let again = cats::litmus::parse::parse(&test.to_string()).expect("rendered tests parse");
        if again == *test {
            round_trips += 1;
            assert_eq!(key, query_fingerprint(&again, "Power", &opts), "{}", test.name);
        }
    }
    assert!(round_trips >= 1000, "only {round_trips} tests round-trip through their text");
}
