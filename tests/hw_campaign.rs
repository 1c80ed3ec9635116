//! Tab V shapes, asserted: our Power model is never invalidated by the
//! Power machines but leaves behaviours unseen; every ARM part invalidates
//! the Power-ARM model; Tegra3 is the worst offender; x86 is clean.
//!
//! Plus the polynomial-backend routing of log judging: for models on the
//! polynomial side of the tractability frontier, [`herd_hw::model_log`]
//! and [`herd_hw::judge_entry`] answer through single-outcome witness
//! queries — their verdicts must be indistinguishable from the
//! enumerate-and-check reference, row by row. And the two backends of
//! cost-modelled log judging — one streamed allowed set per batch, or
//! `decide_log` — must agree with each other and with enumeration on
//! every campaign row and on rows mutated to probe the edge cases.

use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
use herd_hw::{arm_machines, campaign, power_machines, x86_machines};
use herd_litmus::corpus;
use herd_litmus::program::LitmusTest;

const RUNS: u64 = 10_000_000_000;

fn power_tests() -> Vec<LitmusTest> {
    corpus::power_corpus().into_iter().map(|e| e.test).collect()
}

fn arm_tests() -> Vec<LitmusTest> {
    corpus::arm_corpus().into_iter().map(|e| e.test).collect()
}

#[test]
fn tab5_power_row() {
    for machine in power_machines() {
        let s = campaign(&machine, &power_tests(), &Power::new(), RUNS, 42).unwrap();
        assert_eq!(s.invalid, 0, "{}: our Power model is sound w.r.t. the machines", s.machine);
        assert!(s.unseen > 0, "{}: lb stays unseen (not implemented in silicon)", s.machine);
    }
}

#[test]
fn tab5_arm_rows_against_power_arm() {
    let reference = Arm::new(ArmVariant::PowerArm);
    let mut tegra3_invalid = 0;
    let mut others_max = 0;
    for machine in arm_machines() {
        let s = campaign(&machine, &arm_tests(), &reference, RUNS, 42).unwrap();
        assert!(s.invalid > 0, "{}: every part invalidates Power-ARM", s.machine);
        if s.machine == "Tegra3" {
            tegra3_invalid = s.invalid;
        } else {
            others_max = others_max.max(s.invalid);
        }
    }
    assert!(
        tegra3_invalid > others_max,
        "Tegra3 ({tegra3_invalid}) shows more anomalies than any other part ({others_max})"
    );
}

#[test]
fn tab5_proposed_arm_tolerates_early_commit() {
    // Against the *proposed* model, the Qualcomm parts' early-commit
    // behaviours stop counting as invalid; only genuine errata remain.
    let machines = arm_machines();
    let apq = machines.iter().find(|m| m.name == "APQ8060").unwrap();
    let power_arm = campaign(apq, &arm_tests(), &Arm::new(ArmVariant::PowerArm), RUNS, 42).unwrap();
    let proposed = campaign(apq, &arm_tests(), &Arm::new(ArmVariant::Proposed), RUNS, 42).unwrap();
    assert!(
        proposed.invalid < power_arm.invalid,
        "the proposed model explains the early-commit observations ({} < {})",
        proposed.invalid,
        power_arm.invalid
    );
}

#[test]
fn tab5_x86_control_row() {
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let s = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    assert_eq!((s.invalid, s.unseen), (0, 0), "x86 silicon is exactly TSO");
}

#[test]
fn backend_model_log_matches_the_enumeration_reference() {
    use herd_core::model::{check, Architecture, Tractability};
    use herd_hw::campaign::render_full_state;
    use herd_hw::Log;
    use herd_litmus::candidates::{enumerate, EnumOptions};

    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    for model in [&Sc as &(dyn Architecture + Sync), &Tso] {
        // These models sit on the polynomial side: `model_log` routes
        // them through the consistency backend.
        assert_eq!(model.tractability(), Tractability::Polynomial);
        let backend = herd_hw::model_log(&tests, model);
        // The pre-backend reference: enumerate every candidate, keep the
        // allowed ones, render their full states.
        let mut reference = Log::default();
        for t in &tests {
            let states = enumerate(t, &EnumOptions::default())
                .unwrap()
                .iter()
                .filter(|c| check(model, &c.exec).allowed())
                .map(|c| (render_full_state(c), 0))
                .collect();
            reference.insert(&t.name, states);
        }
        assert_eq!(backend, reference, "backend log differs under {}", model.name());
    }

    // Past the old frontier: the conditional models (Power/ARM with ppo
    // envelopes) route through the backend too, and their logs must be
    // indistinguishable from enumerate-and-check as well.
    for (tests, model) in [
        (power_tests(), &Power::new() as &(dyn Architecture + Sync)),
        (arm_tests(), &Arm::new(ArmVariant::Proposed)),
    ] {
        assert_eq!(model.tractability(), Tractability::Conditional);
        let backend = herd_hw::model_log(&tests, model);
        let mut reference = Log::default();
        for t in &tests {
            let states = enumerate(t, &EnumOptions::default())
                .unwrap()
                .iter()
                .filter(|c| check(model, &c.exec).allowed())
                .map(|c| (render_full_state(c), 0))
                .collect();
            reference.insert(&t.name, states);
        }
        assert_eq!(backend, reference, "backend log differs under {}", model.name());
    }
}

#[test]
fn judge_entry_reproduces_the_compare_invalid_sets() {
    // A seeded campaign log judged row by row: a hardware state is in
    // `compare`'s invalid set exactly when the backend forbids it.
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let hw = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    // Judge TSO silicon against SC: the write-read reorderings (sb, r,
    // rwc) must show up invalid, so the equivalence below has teeth.
    let model = herd_hw::model_log(&tests, &Sc);
    let cmp = herd_hw::compare(&model, &hw);
    assert!(
        cmp.invalid.values().map(|s| s.len()).sum::<usize>() > 0,
        "TSO silicon must invalidate SC somewhere"
    );
    for (name, entry) in &hw.entries {
        let test = tests.iter().find(|t| &t.name == name).unwrap();
        for state in entry.states.keys() {
            let allowed = herd_hw::judge_entry(test, &Sc, state).unwrap();
            let invalid = cmp.invalid.get(name).is_some_and(|s| s.contains(state));
            assert_eq!(!allowed, invalid, "{name}: backend and mcompare disagree on row '{state}'");
        }
    }
}

#[test]
fn batched_judging_matches_row_at_a_time_and_enumeration() {
    // PR 9: the batch API is the same judge, faster. For every test in a
    // seeded x86 campaign log, `judge_entries` over the whole row set
    // must agree row for row with (a) single-row `judge_entry` calls and
    // (b) the enumerate-every-candidate reference.
    use herd_core::model::{check, Architecture};
    use herd_hw::campaign::render_full_state;
    use herd_litmus::candidates::{enumerate, EnumOptions};
    use std::collections::BTreeSet;

    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let hw = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    for model in [&Sc as &(dyn Architecture + Sync), &Tso] {
        for (name, entry) in &hw.entries {
            let test = tests.iter().find(|t| &t.name == name).unwrap();
            let rows: Vec<&String> = entry.states.keys().collect();
            let (batch, stats) = herd_hw::judge_entries(test, model, &rows).unwrap();
            assert_eq!(batch.len(), rows.len());
            assert_eq!(stats.rows, rows.len() as u64, "{name}: one stat row per log row");
            assert!(stats.classes <= stats.rows, "{name}: classes cannot exceed rows");

            // The enumeration reference: a full state is allowed exactly
            // when some allowed candidate renders to it.
            let allowed_states: BTreeSet<String> = enumerate(test, &EnumOptions::default())
                .unwrap()
                .iter()
                .filter(|c| check(model, &c.exec).allowed())
                .map(render_full_state)
                .collect();

            for (state, &verdict) in rows.iter().zip(&batch) {
                let single = herd_hw::judge_entry(test, model, state).unwrap();
                assert_eq!(
                    verdict,
                    single,
                    "{name} under {}: batch and row-at-a-time disagree on '{state}'",
                    model.name()
                );
                assert_eq!(
                    verdict,
                    allowed_states.contains(state.as_str()),
                    "{name} under {}: batch and enumeration disagree on '{state}'",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn backend_judged_campaigns_are_worker_count_independent() {
    // Campaign tests fan out over the work-stealing executor with as many
    // workers as the host offers; per-test RNGs are derived from
    // (seed, index), so two runs must agree state for state however the
    // steal order interleaved them — including everything the backend
    // judged.
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let a = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    let b = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    assert_eq!((a.invalid, a.unseen), (b.invalid, b.unseen));
    assert_eq!(a.classification, b.classification);
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.observed, rb.observed, "{}", ra.name);
        assert_eq!(ra.model_allowed, rb.model_allowed, "{}", ra.name);
        assert_eq!(ra.invalid_states, rb.invalid_states, "{}", ra.name);
        assert_eq!(ra.unseen_states, rb.unseen_states, "{}", ra.name);
    }
    // And the raw seeded log is bitwise reproducible, too.
    let h1 = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    let h2 = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    assert_eq!(h1, h2);
}

#[test]
fn tab8_classification_buckets() {
    // The invalid observations classify into the S (llh) and O/P-involving
    // (early commit, isb defeat) buckets, as in the paper's Tab VIII.
    let reference = Arm::new(ArmVariant::PowerArm);
    let mut labels = std::collections::BTreeSet::new();
    for machine in arm_machines() {
        let s = campaign(&machine, &arm_tests(), &reference, RUNS, 42).unwrap();
        labels.extend(s.classification.keys().cloned());
    }
    assert!(labels.contains("S"), "{labels:?}");
    assert!(labels.iter().any(|l| l.contains('O') || l.contains('P')), "{labels:?}");
}

/// Does some allowed candidate agree with every observable `row` names?
/// The enumerate-and-check reference of log judging.
fn reference_admits(
    allowed: &[herd_litmus::candidates::Candidate],
    row: &herd_litmus::decide::Outcome,
) -> bool {
    allowed.iter().any(|c| {
        row.regs.iter().all(|(k, v)| c.final_regs.get(k) == Some(v))
            && row.mem.iter().all(|(l, v)| c.final_mem.get(l) == Some(v))
    })
}

/// The hardware rows of `test` plus mutations of its first row: a
/// projection onto one register, one onto memory, an unknown location, a
/// thread the test lacks, and a never-written register.
fn probe_rows(hw_rows: &[String]) -> Vec<String> {
    let mut rows = hw_rows.to_vec();
    let base = &hw_rows[0];
    let pieces: Vec<&str> = base.split(';').map(str::trim).filter(|p| !p.is_empty()).collect();
    let (regs, mem): (Vec<&str>, Vec<&str>) = pieces.iter().partition(|p| p.contains(':'));
    if let Some(r) = regs.first() {
        rows.push((*r).to_owned());
    }
    rows.push(mem.join("; "));
    rows.push(format!("{base}; zz=0"));
    rows.push(format!("{base}; 99:r1=0"));
    rows.push(format!("{base}; 0:r200=0"));
    rows.push(String::new());
    rows
}

/// Judges `rows` of `test` under `model` every way there is and asserts
/// they agree row for row; returns the backend the cost model chose.
fn assert_log_judges_agree(
    test: &LitmusTest,
    model: &dyn herd_core::model::Architecture,
    rows: &[String],
) -> herd_litmus::decide::LogBackend {
    use herd_core::model::check;
    use herd_litmus::candidates::{enumerate, EnumOptions};
    use herd_litmus::decide::{decide_log, judge_log, AllowedSet, Outcome};

    let opts = EnumOptions::default();
    let outcomes: Vec<Outcome> =
        rows.iter().map(|r| Outcome::from_state_row(r).expect("probe rows parse")).collect();
    let allowed: Vec<_> = enumerate(test, &opts)
        .expect("enumerates")
        .into_iter()
        .filter(|c| check(model, &c.exec).allowed())
        .collect();
    let set = AllowedSet::stream(test, model, &opts).expect("streams");
    let decided = decide_log(test, model, &opts, &outcomes).expect("decides").verdicts;
    let judged = judge_log(test, model, &opts, &outcomes).expect("judges");
    let cached = herd_hw::judge_log_cached(test, model, rows, &herd_hw::VerdictCache::new(256))
        .expect("judges cached");
    for (i, (row, o)) in rows.iter().zip(&outcomes).enumerate() {
        let want = reference_admits(&allowed, o);
        let what = format!("{} under {}: row '{row}'", test.name, model.name());
        assert_eq!(set.admits(&o.regs, &o.mem), want, "{what}: streamed set vs enumeration");
        assert_eq!(decided[i], want, "{what}: decide_log vs enumeration");
        assert_eq!(judged.verdicts[i], want, "{what}: judge_log ({:?})", judged.backend);
        assert_eq!(cached[i], want, "{what}: judge_log_cached");
    }
    judged.backend
}

#[test]
fn streamed_set_decide_log_and_enumeration_agree_row_for_row() {
    use herd_core::model::Architecture;
    use herd_litmus::decide::LogBackend;
    use herd_litmus::isa::Isa;
    use herd_litmus::program::InitVal;
    use herd_litmus::Reg;
    use rand::{Rng, SeedableRng};

    // Campaign logs: each ISA's corpus on one of its machines, plus a
    // seeded sample of that ISA's diy tests.
    let mut rng = rand::rngs::StdRng::seed_from_u64(16);
    let power = Power::new();
    let power_arm = Arm::new(ArmVariant::PowerArm);
    let arms = arm_machines();
    let tegra3 = arms.iter().find(|m| m.name == "Tegra3").unwrap();
    let suites = [
        (Isa::X86, &x86_machines()[0], vec![&Sc as &dyn Architecture, &Tso]),
        (Isa::Power, &power_machines()[0], vec![&power]),
        (Isa::Arm, tegra3, vec![&power_arm]),
    ];
    let (mut streamed, mut decided) = (0, 0);
    for (isa, machine, models) in suites {
        let (corpus, pool) = match isa {
            Isa::X86 => (corpus::x86_corpus(), herd_diy::x86_pool()),
            Isa::Power => (corpus::power_corpus(), herd_diy::power_pool()),
            Isa::Arm => (corpus::arm_corpus(), herd_diy::arm_pool()),
        };
        let mut tests: Vec<LitmusTest> = corpus.into_iter().map(|e| e.test).collect();
        let mut diy = herd_diy::generate_tests(&pool, 4, isa, usize::MAX);
        for _ in 0..6 {
            tests.push(diy.swap_remove(rng.gen_range(0..diy.len())));
        }
        let hw = herd_hw::hardware_log(&tests, machine, RUNS, 16);
        for test in &tests {
            let hw_rows: Vec<String> = hw.entries[&test.name].states.keys().cloned().collect();
            let rows = probe_rows(&hw_rows);
            // The same test with a register initialised to an integer and
            // one to an address, neither ever written, and a location
            // only the initial write touches.
            let mut init = test.clone();
            let loc = test.locations()[0].clone();
            init.reg_init.insert((0, Reg(200)), InitVal::Int(7));
            init.reg_init.insert((0, Reg(201)), InitVal::Loc(loc.clone()));
            init.mem_init.insert("untouched".to_owned(), 3);
            let base = &hw_rows[0];
            let init_rows: Vec<String> = [
                format!("{base}; 0:r200=7"),
                format!("{base}; 0:r200=0"),
                format!("0:r201={loc}"),
                "0:r201=untouched".to_owned(),
                "0:r201=1".to_owned(),
                format!("{base}; untouched=3"),
                "untouched=3".to_owned(),
                "untouched=0".to_owned(),
            ]
            .into_iter()
            .chain(rows.iter().cloned())
            .collect();
            for &model in &models {
                for (t, rows) in [(test, &rows), (&init, &init_rows)] {
                    match assert_log_judges_agree(t, model, rows) {
                        LogBackend::Stream => streamed += 1,
                        _ => decided += 1,
                    }
                }
                // One row at a time is always decided.
                for row in hw_rows.iter().take(2) {
                    let one = std::slice::from_ref(row);
                    assert_eq!(assert_log_judges_agree(test, model, one), LogBackend::Decide);
                    decided += 1;
                }
            }
        }
    }
    assert!(
        streamed > 0 && decided > 0,
        "both backends ran: {streamed} streamed, {decided} decided"
    );
}

#[test]
fn the_cost_model_reads_the_coherence_space_not_just_rf() {
    use herd_litmus::candidates::{count_rf_configs, EnumOptions};
    use herd_litmus::corpus::{Dev, Op, TestBuilder};
    use herd_litmus::decide::{decide_log, judge_log, LogBackend, Outcome};
    use herd_litmus::isa::Isa;
    use herd_litmus::program::{Prop, Quantifier};

    let opts = EnumOptions::default();
    // wrc with seven more writers of x: the rf space is 2 (one read, one
    // write to its location), but x has 8 writes, so 8! coherence orders.
    let mut b = TestBuilder::new(Isa::X86, "wrc+8w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..7 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let wrc = b.condition(Quantifier::Exists, |_| Prop::True);
    assert_eq!(count_rf_configs(&wrc, &opts).unwrap(), 2);
    let rows: Vec<Outcome> = (1..=8)
        .flat_map(|x| [format!("1:r1=1; x={x}"), format!("1:r1=0; x={x}")])
        .map(|r| Outcome::from_state_row(&r).unwrap())
        .collect();
    for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
        let want = decide_log(&wrc, arch, &opts, &rows).unwrap().verdicts;
        for n in [1, rows.len()] {
            let judged = judge_log(&wrc, arch, &opts, &rows[..n]).unwrap();
            assert_eq!(judged.space, 2 * 40_320, "rf configurations × coherence orders");
            assert_eq!(judged.backend, LogBackend::Decide, "{n} rows cannot pay for 8! orders");
            assert_eq!(judged.verdicts, want[..n]);
        }
    }

    // Many rows on a small space: sb's 4 candidates, 4 distinct rows.
    let sb = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
    let rows: Vec<Outcome> =
        ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=0; 1:r1=1", "0:r1=1; 1:r1=1"]
            .iter()
            .map(|r| Outcome::from_state_row(r).unwrap())
            .collect();
    let want = decide_log(&sb, &Tso, &opts, &rows).unwrap().verdicts;
    let judged = judge_log(&sb, &Tso, &opts, &rows).unwrap();
    assert_eq!((judged.backend, judged.space), (LogBackend::Stream, 4));
    assert_eq!(judged.verdicts, want);
    // A stream past its candidate bound falls back to decide_log, exactly.
    let tight = EnumOptions { max_candidates: 1, ..opts };
    let judged = judge_log(&sb, &Tso, &tight, &rows).unwrap();
    assert_eq!(judged.backend, LogBackend::StreamFallback);
    assert_eq!(judged.verdicts, want);
}
