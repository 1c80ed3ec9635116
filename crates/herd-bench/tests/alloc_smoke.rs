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
//! reused: past warm-up it allocates only the verdict it returns.
//!
//! The allocation counter is per thread, so the tests may run on parallel
//! harness threads.
//!
//! [`RelArena`]: herd_core::arena::RelArena
//! [`CompiledModel::check`]: herd_cat::CompiledModel::check
#![cfg(feature = "alloc-count")]

use herd_bench::alloc_count::{allocation_count, CountingAllocator};
use herd_bench::iriw_scaled;
use herd_core::arch::Power;
use herd_core::arena::RelArena;
use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_core::model::Architecture;
use herd_core::sched::Budget;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus;

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
