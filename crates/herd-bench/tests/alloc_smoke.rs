//! Allocation-freedom smoke test for the arena-backed relation engine
//! (run with `cargo test -p herd-bench --features alloc-count --test
//! alloc_smoke`).
//!
//! The engine's contract: once the per-worker [`RelArena`] has warmed to
//! its high-water mark, streaming-and-checking a candidate performs
//! **zero** heap allocations — enumeration state, the witness relations,
//! the Power ppo fixpoint, the axiom temporaries and the pruning
//! machinery all live in reused storage. A counting global allocator
//! turns that claim into an assert on the `iriw+2w` family (a tight ppo
//! envelope: ppo fixed per combination) and on a coRR skeleton (a
//! non-tight one: ppo computed per candidate). The same holds for a cat
//! model's [`CompiledModel::check`], whose thread-owned workspace is
//! reused: past warm-up it allocates only the verdict it returns. And the
//! verdict-cache keys (`query_fingerprint`, `outcome_fingerprint`) hash
//! the test and the row by structure, so computing them allocates nothing;
//! a warm `judge_log_cached` call parses each row into a reused borrowing
//! view, so its allocations do not grow with its row count.
//!
//! The allocation counter is per thread, so the tests may run on parallel
//! harness threads.
//!
//! [`RelArena`]: herd_core::arena::RelArena
//! [`CompiledModel::check`]: herd_cat::CompiledModel::check
#![cfg(feature = "alloc-count")]

use herd_bench::alloc_count::{allocation_count, CountingAllocator};
use herd_bench::iriw_scaled;
use herd_core::arch::{Arm, ArmVariant, Power, Tso};
use herd_core::arena::RelArena;
use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_core::model::Architecture;
use herd_core::sched::Budget;
use herd_litmus::candidates::{count_rf_configs, enumerate, stream_range_verdicts, EnumOptions};
use herd_litmus::corpus;
use herd_litmus::decide::{outcome_fingerprint, query_fingerprint, Outcome};
use herd_litmus::isa::{Instr, Isa};

/// The stock model of each ISA.
fn stock_model(isa: Isa) -> Box<dyn Architecture> {
    match isa {
        Isa::Power => Box::new(Power::new()),
        Isa::Arm => Box::new(Arm::new(ArmVariant::Proposed)),
        Isa::X86 => Box::new(Tso),
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Streams `sk` under Power through the staged checker and asserts that
/// the steady state performs no heap allocation per candidate.
fn assert_steady_state_allocates_zero(sk: &Skeleton, what: &str) {
    let power = Power::new();
    let mut arena = RelArena::new(0);

    // Pre-size the observation buffer so the sink itself cannot allocate.
    let mut counts: Vec<u64> = Vec::with_capacity(4096);
    let stats = sk.check_stream_arena(&power, &mut arena, &Budget::unlimited(), &mut |_, _, _| {
        counts.push(allocation_count());
    });
    assert!(stats.emitted > 16, "{what} must stream a meaningful candidate count");
    assert!(counts.len() < 4096, "observation buffer must not have grown");

    // Warm-up: the first candidates grow the arena pool, the coherence
    // menus and the thin-air level pool to their high-water marks. After
    // a quarter of the stream everything must be steady: the allocation
    // counter may no longer move between candidates.
    let warmup = counts.len() / 4;
    let steady = &counts[warmup..];
    let per_candidate: Vec<u64> = steady.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        per_candidate.iter().all(|&d| d == 0),
        "{what}: steady-state candidates allocated: deltas {per_candidate:?}"
    );

    // And the whole steady-state tail together allocated nothing either
    // (guards against allocations between the sampled sink calls).
    assert_eq!(
        steady.first().copied(),
        steady.last().copied(),
        "{what}: allocation counter moved across the steady-state window"
    );
}

/// iriw+2w: a tight ppo envelope, so the rf scope carries the whole
/// combination's ppo and each coherence choice checks only what reads co.
#[test]
fn iriw_2w_steady_state_allocates_zero_per_candidate() {
    assert_steady_state_allocates_zero(&iriw_scaled(2), "iriw+2w");
}

/// coRR with three reads against three writes: `po-loc ∩ RR` makes the
/// Power envelope non-tight (rdw may order the reads), so every candidate
/// computes its exact ppo in the coherence scope — allocation-free too.
#[test]
fn non_tight_corrr_steady_state_allocates_zero_per_candidate() {
    let mut b = SkeletonBuilder::new();
    b.write(0, "x", 1);
    b.write(0, "x", 2);
    b.write(2, "x", 3);
    for _ in 0..3 {
        b.read(1, "x");
    }
    let sk = b.build();
    let x = &sk.candidates()[0];
    let tight = Power::new().ppo_envelope(x.core()).expect("Power has an envelope").tight(x.core());
    assert!(!tight, "the skeleton must exercise the non-tight scope");
    assert_steady_state_allocates_zero(&sk, "coRRR+3w");
}

/// The same engine must also be allocation-free across *rf-scope*
/// boundaries once warm, not just inside one coherence scope: run the
/// whole stream twice and require the second pass to allocate nothing at
/// all (every buffer, menu and arena slot is reused).
#[test]
fn second_pass_over_iriw_2w_allocates_nothing_in_the_arena() {
    let sk = iriw_scaled(2);
    let power = Power::new();
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    sk.check_stream_arena(&power, &mut arena, &unlimited, &mut |_, _, _| {});
    let high_water = arena.high_water_words();
    sk.check_stream_arena(&power, &mut arena, &unlimited, &mut |_, _, _| {});
    assert_eq!(
        arena.high_water_words(),
        high_water,
        "second pass grew the arena past the first pass's high-water mark"
    );
}

/// A compiled cat model checked candidate by candidate through
/// [`herd_cat::CompiledModel::check`]: once its thread's workspace has
/// warmed up on every candidate, a further check of any of them allocates
/// exactly what cloning its verdict allocates, and nothing else.
#[test]
fn cat_check_steady_state_allocates_only_its_verdict() {
    let model = herd_cat::stock::load(herd_cat::stock::POWER);
    let compiled = model.compile().expect("the stock Power model compiles");
    let mut cands = Vec::new();
    for entry in &corpus::power_corpus() {
        cands.extend(enumerate(&entry.test, &EnumOptions::default()).expect("enumerates"));
    }
    assert!(cands.len() > 16, "the check must see a meaningful candidate count");
    for c in &cands {
        drop(compiled.check(&c.exec));
    }
    for (i, c) in cands.iter().enumerate() {
        let before = allocation_count();
        let verdict = compiled.check(&c.exec);
        let checked = allocation_count() - before;
        let before = allocation_count();
        let copy = verdict.clone();
        let cloned = allocation_count() - before;
        drop((verdict, copy));
        assert_eq!(checked, cloned, "candidate #{i}: check allocated past its verdict");
    }
}

/// The verdict-cache key path of `herd_hw::log::judge_log_cached`: after
/// a warm-up call, the query key of a corpus test and the row key of one
/// of its full-state log rows perform no heap allocation at all.
#[test]
fn verdict_cache_keys_allocate_nothing() {
    let opts = EnumOptions::default();
    for entry in &corpus::power_corpus() {
        let test = &entry.test;
        let cands = enumerate(test, &opts).expect("enumerates");
        let row = herd_hw::campaign::render_full_state(&cands[cands.len() - 1]);
        let row = Outcome::from_state_row(&row).expect("a full-state row parses");
        let key = || outcome_fingerprint(query_fingerprint(test, "Power", &opts), &row);
        let warm = key();
        let before = allocation_count();
        let again = key();
        let allocated = allocation_count() - before;
        assert_eq!(allocated, 0, "{}: computing the keys allocated", test.name);
        assert_eq!(again, warm, "{}: the keys are not deterministic", test.name);
    }
}

/// The hit path of `herd_hw::judge_log_cached`: each row is parsed once
/// into a reused view that borrows the row text, keyed from the view and
/// probed. Once every row is cached, a call over 64 rows allocates
/// exactly what a call over 8 rows does (its verdict vector and the
/// view's buffers), so a hit allocates nothing per row.
#[test]
fn warm_judge_log_cached_allocates_nothing_per_row() {
    let power = Power::new();
    for entry in corpus::power_corpus().iter().take(8) {
        let test = &entry.test;
        let cands = enumerate(test, &EnumOptions::default()).expect("enumerates");
        let states: Vec<String> = cands.iter().map(herd_hw::campaign::render_full_state).collect();
        let rows: Vec<&str> = (0..64).map(|i| states[i % states.len()].as_str()).collect();
        let cache = herd_hw::VerdictCache::new(1024);
        let cold = herd_hw::judge_log_cached(test, &power, &rows, &cache).expect("judges");
        let calls = |n: usize| {
            let before = allocation_count();
            let warm = herd_hw::judge_log_cached(test, &power, &rows[..n], &cache).expect("judges");
            let allocated = allocation_count() - before;
            assert_eq!(warm, cold[..n], "{}: a hit changed a verdict", test.name);
            allocated
        };
        calls(64);
        let (eight, sixty_four) = (calls(8), calls(64));
        assert_eq!(
            eight, sixty_four,
            "{}: a warm call's allocations grew with its rows",
            test.name
        );
    }
}

/// The litmus verdict stream's per-rf-configuration work: on built-in
/// tests with one control-flow combination and at least 8 rf
/// configurations, streaming the whole range `[0, R)` allocates at most
/// one more block per extra configuration than streaming `[0, 1)` — the
/// pooled final register file an extra concretisation may need. Equation
/// systems, assignments, value rows and the checker's frame all live in
/// the combination's reused concretiser.
#[test]
fn verdict_stream_allocates_at_most_a_register_file_per_extra_configuration() {
    let opts = EnumOptions::default();
    let mut checked = Vec::new();
    for entry in
        corpus::power_corpus().into_iter().chain(corpus::arm_corpus()).chain(corpus::x86_corpus())
    {
        let test = &entry.test;
        let branches = test.threads.iter().flatten().any(|i| matches!(i, Instr::Branch { .. }));
        let configs = count_rf_configs(test, &opts).expect("thread semantics runs");
        if branches || configs < 8 {
            continue;
        }
        let arch = stock_model(test.isa);
        let stream = |end: u128| {
            let before = allocation_count();
            stream_range_verdicts(test, &opts, arch.as_ref(), 0, end, &mut |_| {})
                .expect("streams");
            allocation_count() - before
        };
        stream(configs);
        let (first, all) = (stream(1), stream(configs));
        let extra = (configs - 1) as u64;
        assert!(
            all - first <= extra,
            "{}: {} allocations over {extra} extra rf configurations",
            test.name,
            all - first
        );
        checked.push(test.name.clone());
    }
    assert!(checked.len() >= 4, "too few single-combination tests: {checked:?}");
}
