//! The cat-language models must agree with the native architectures on
//! every candidate execution of every corpus test — this is the paper's
//! genericity claim: the model file *is* the model (Sec 8.3, Fig 38).

use herd_cat::{stock, CatModel, CatWorkspace, CompiledModel};
use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
use herd_core::model::{check, Architecture};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::{self, CorpusEntry};

fn assert_agreement(corpus: &[CorpusEntry], native: &dyn Architecture, cat: &CatModel) {
    let opts = EnumOptions::default();
    let compiled = cat.compile().expect("stock model compiles");
    let mut candidates = 0usize;
    for entry in corpus {
        let cands = enumerate(&entry.test, &opts).expect("enumeration succeeds");
        for (i, c) in cands.iter().enumerate() {
            let native_allowed = check(native, &c.exec).allowed();
            let cat_verdict = compiled.check(&c.exec);
            assert_eq!(
                native_allowed,
                cat_verdict.allowed(),
                "{} candidate #{i}: native={native_allowed}, cat failed checks {:?}",
                entry.test.name,
                cat_verdict.failed(),
            );
            candidates += 1;
        }
    }
    assert!(candidates > 30, "the corpus should exercise many candidates, got {candidates}");
}

#[test]
fn power_cat_equals_native_power_on_all_candidates() {
    assert_agreement(&corpus::power_corpus(), &Power::new(), &stock::load(stock::POWER));
}

#[test]
fn arm_cat_equals_native_arm_on_all_candidates() {
    assert_agreement(
        &corpus::arm_corpus(),
        &Arm::new(ArmVariant::Proposed),
        &stock::load(stock::ARM),
    );
}

#[test]
fn arm_llh_cat_equals_native_on_all_candidates() {
    assert_agreement(
        &corpus::arm_corpus(),
        &Arm::new(ArmVariant::ProposedLlh),
        &stock::load(stock::ARM_LLH),
    );
}

#[test]
fn sc_cat_equals_native_sc_on_all_candidates() {
    // SC is ISA-agnostic: run it over all three corpora.
    let all: Vec<CorpusEntry> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .collect();
    assert_agreement(&all, &Sc, &stock::load(stock::SC));
}

#[test]
fn tso_cat_equals_native_tso_on_all_candidates() {
    assert_agreement(&corpus::x86_corpus(), &Tso, &stock::load(stock::TSO));
}

mod random_agreement {
    use super::*;
    use herd_core::enumerate::SkeletonBuilder;
    use herd_core::event::Fence;
    use proptest::prelude::*;

    /// (is_write, loc, fence_after: 0=none 1=lwsync 2=sync 3=eieio)
    type ProgOp = (bool, u8, u8);

    fn random_program() -> impl Strategy<Value = Vec<Vec<ProgOp>>> {
        proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u8..2, 0u8..4), 1..=3),
            2..=3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cat Power model agrees with the native one on random
        /// programs, not just the corpus.
        #[test]
        fn power_cat_equals_native_on_random_programs(prog in random_program()) {
            let mut b = SkeletonBuilder::new();
            let locs = ["x", "y"];
            for (tid, thread) in prog.iter().enumerate() {
                let mut prev: Option<usize> = None;
                let mut fence = 0u8;
                for &(is_write, loc, fence_after) in thread {
                    let id = if is_write {
                        b.write(tid as u16, locs[loc as usize], i64::from(loc) + 1)
                    } else {
                        b.read(tid as u16, locs[loc as usize])
                    };
                    if let Some(p) = prev {
                        match fence {
                            1 => { b.fence(Fence::Lwsync, p, id); }
                            2 => { b.fence(Fence::Sync, p, id); }
                            3 => { b.fence(Fence::Eieio, p, id); }
                            _ => {}
                        }
                    }
                    fence = fence_after;
                    prev = Some(id);
                }
            }
            let skeleton = b.build();
            prop_assume!(skeleton.candidate_count_saturating() <= 500);
            let native = Power::new();
            let cat = stock::load(stock::POWER);
            for exec in skeleton.candidates() {
                prop_assert_eq!(
                    check(&native, &exec).allowed(),
                    cat.check(&exec).unwrap().allowed()
                );
            }
        }
    }
}

/// The compiled evaluator (slot-indexed, CSE'd, constant-folded) must
/// agree check-for-check with the tree-walking reference on all 7 stock
/// models × every candidate of the full corpus.
#[test]
fn compiled_models_agree_with_tree_walker_on_full_corpus() {
    let all: Vec<CorpusEntry> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .collect();
    let opts = EnumOptions::default();
    let execs: Vec<(String, herd_core::Execution)> = all
        .iter()
        .flat_map(|entry| {
            enumerate(&entry.test, &opts)
                .expect("enumeration succeeds")
                .into_iter()
                .map(|c| (entry.test.name.clone(), c.exec))
        })
        .collect();
    let mut checked = 0usize;
    for (name, src) in stock::ALL {
        let model = herd_cat::parse(src).unwrap();
        let compiled = herd_cat::compile(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (test, exec) in &execs {
            let tree = herd_cat::eval_tree(&model, exec)
                .unwrap_or_else(|e| panic!("{name} × {test}: {e}"));
            assert_eq!(tree, compiled.check(exec), "{name} × {test}");
            checked += 1;
        }
    }
    assert!(checked >= 7 * 400, "7 models × the whole corpus, got {checked}");
}

/// A user-modified model: dropping the OBSERVATION axiom from the Power
/// cat file must start allowing mp+lwsync+addr while everything
/// SC-per-location keeps failing — the "fine-tuning" workflow of Sec 4.9.
#[test]
fn editing_the_model_file_changes_the_model() {
    let src = stock::POWER.replace("irreflexive fre;prop;hb* as observation", "");
    let weakened = CatModel::parse(&src).unwrap();
    let test = corpus::mp(
        herd_litmus::isa::Isa::Power,
        corpus::Dev::F(herd_core::event::Fence::Lwsync),
        corpus::Dev::Addr,
    );
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    let full = stock::load(stock::POWER);
    let weakened_allows_more = cands.iter().any(|c| {
        weakened.check(&c.exec).unwrap().allowed() && !full.check(&c.exec).unwrap().allowed()
    });
    assert!(weakened_allows_more, "removing OBSERVATION must permit the mp witness");
}

/// Executions whose universes alternate between corpus sizes and a
/// 70-event one (two words per relation row): thread 0 writes 34
/// locations once each, thread 1 reads the first two.
fn mixed_universe_executions() -> Vec<herd_core::Execution> {
    let mut b = herd_core::enumerate::SkeletonBuilder::new();
    let locs: Vec<String> = (0..34).map(|i| format!("x{i}")).collect();
    for loc in &locs {
        b.write(0, loc, 1);
    }
    b.read(1, &locs[0]);
    b.read(1, &locs[1]);
    let wide = b.build().candidates();
    assert!(wide.iter().all(|x| x.len() > 64), "the wide executions must pass 64 events");
    let opts = EnumOptions::default();
    let narrow: Vec<herd_core::Execution> = corpus::power_corpus()
        .iter()
        .take(6)
        .flat_map(|e| enumerate(&e.test, &opts).expect("enumeration succeeds"))
        .map(|c| c.exec)
        .collect();
    let mut out = Vec::new();
    for (i, x) in narrow.into_iter().enumerate() {
        out.push(x);
        out.push(wide[i % wide.len()].clone());
    }
    out
}

/// Checks every execution under every stock model, switching model on
/// each call, and asserts the reused-workspace `check` agrees with
/// `check_in` over a fresh workspace.
fn assert_reused_matches_fresh(models: &[CompiledModel], execs: &[herd_core::Execution]) {
    for (i, x) in execs.iter().enumerate() {
        for k in 0..models.len() {
            let j = (i + k) % models.len();
            let fresh = models[j].check_in(x, &mut CatWorkspace::new());
            assert_eq!(models[j].check(x), fresh, "execution #{i} ({} events), model {j}", x.len());
        }
    }
}

fn stock_compiled() -> Vec<CompiledModel> {
    stock::ALL.iter().map(|(_, src)| stock::load(src).compile().expect("compiles")).collect()
}

/// `CompiledModel::check` reuses one workspace per thread; consecutive
/// calls that alternate models and universe sizes (including rows of two
/// words) must answer exactly as a fresh workspace does.
#[test]
fn reused_cat_workspace_matches_a_fresh_one() {
    assert_reused_matches_fresh(&stock_compiled(), &mixed_universe_executions());
}

/// Two threads checking at once each get their own workspace: released
/// together by a barrier, both still agree with fresh workspaces.
#[test]
fn reused_cat_workspace_is_per_thread() {
    let models = stock_compiled();
    let execs = mixed_universe_executions();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                assert_reused_matches_fresh(&models, &execs);
            });
        }
    });
}
