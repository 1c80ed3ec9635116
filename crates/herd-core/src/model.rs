//! The generic axiomatic model: the four axioms of Fig 5, the
//! architecture abstraction, and verdict classification.
//!
//! An *architecture* is a triple of functions `(ppo, fences, prop)`
//! (paper, Sec 4.1 §Architectures). Given a candidate execution, the
//! generic model checks:
//!
//! 1. **SC PER LOCATION** — `acyclic(po-loc ∪ com)`
//! 2. **NO THIN AIR** — `acyclic(hb)`, `hb = ppo ∪ fences ∪ rfe`
//! 3. **OBSERVATION** — `irreflexive(fre; prop; hb*)`
//! 4. **PROPAGATION** — `acyclic(co ∪ prop)`
//!
//! Two hooks cover the paper's documented deviations: ARM-with-load-load
//! -hazards weakens `po-loc` in axiom 1 (Tab VII), and exact C++ R-A
//! weakens axiom 4 to `irreflexive(prop; co)` (Sec 4.8).

use crate::arch::{prop_power_arm_co, prop_power_arm_rf};
use crate::arena::{RelArena, RelId, RelSrc};
use crate::event::Dir;
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::ppo::{self, PpoConfig, PpoEnvelope};
use crate::relation::Relation;
use std::fmt;

/// How the PROPAGATION axiom is enforced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PropagationCheck {
    /// The paper's default: `acyclic(co ∪ prop)`.
    #[default]
    Acyclic,
    /// The weakening matching C++ R-A's `HBVSMO`: `irreflexive(prop; co)`
    /// (paper, Sec 4.8).
    IrreflexivePropCo,
}

/// Which side of the single-execution consistency tractability frontier a
/// model sits on — the complexity landscape of "How Hard is Weak-Memory
/// Testing?" applied to this framework's axioms.
///
/// [`crate::consistency`] decides "does some coherence order make this
/// (rf-fixed) execution consistent?" by saturation: it tests co
/// hypotheses against the axioms with a *partial* coherence order and
/// treats a violation as definitive. That reasoning is sound exactly when
/// every co-dependent relation the axioms consume (`fr`, `com`, `prop`,
/// `fre; prop; hb*`) is **monotone** in co — adding co edges can only add
/// derived edges, never remove a violation. The SC/TSO/PSO/RMO-class
/// instances (static `ppo`, `prop = ppo ∪ fences ∪ rf[e] ∪ fr`) qualify.
/// Power/ARM's `ppo` is *dynamic* (`rdw`/`rfi`/`detour` feed the Fig 25
/// fixpoint), but once ppo is frozen to a candidate-independent bound
/// their remaining axioms are monotone in co again — that is the
/// [`Tractability::Conditional`] mode, which saturates against a sound
/// two-sided [`crate::ppo::PpoEnvelope`] and only falls back to (counted)
/// enumeration when the bounds genuinely disagree. C++ R-A's
/// `irreflexive(prop; co)` weakening is not vouched for at all, so its
/// queries always take the fallback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tractability {
    /// Saturation/co-placement decides single-execution consistency in
    /// polynomial time: every axiom is monotone in `co` and
    /// [`Architecture::arch_rels_arena`] accepts partial coherence
    /// orders (no materialising default that would validate totality).
    Polynomial,
    /// Conditionally polynomial: the axioms are monotone in co *given* a
    /// frozen ppo, and the architecture vouches for a sound envelope
    /// `lower ⊆ ppo(x) ⊆ upper` via [`Architecture::ppo_envelope`], and
    /// its prop factors through a known ppo ([`Architecture::fig18_fences`],
    /// frozen through the staged [`ArenaChecker`]'s rf scope). Saturation
    /// runs once per bound: a lower-bound contradiction is definitively
    /// forbidden (fewer ppo edges can only *miss* violations), an upper-bound
    /// witness that re-checks clean under the exact per-candidate ppo is
    /// definitively allowed, and only a genuine disagreement falls back —
    /// counted in [`crate::consistency::ConsistencyStats`], never silent.
    Conditional,
    /// Beyond the vouched-for frontier: single-execution queries fall
    /// back to enumerating coherence orders, and the fallback is counted
    /// in [`crate::consistency::ConsistencyStats`], never silent.
    #[default]
    Frontier,
}

/// An instance of the generic framework.
///
/// Implementations provide the three architecture functions; the default
/// hook methods reproduce the paper's standard axioms.
pub trait Architecture {
    /// Human-readable architecture name (e.g. `"Power"`).
    fn name(&self) -> &str;

    /// The preserved program order for this execution.
    fn ppo(&self, x: &Execution) -> Relation;

    /// The ordering contributed by fences (direction-filtered; e.g. on
    /// Power `lwfence = lwsync \ WR`, Fig 17).
    fn fences(&self, x: &Execution) -> Relation;

    /// The propagation order (Fig 18 for Power/ARM, Fig 21 for SC/TSO).
    fn prop(&self, x: &Execution) -> Relation;

    /// Does this architecture tolerate load-load hazards, i.e. does its SC
    /// PER LOCATION axiom drop read-read `po-loc` pairs (Tab VII for
    /// ARM-llh, Sec 4.9 for Sparc RMO)? Drives the default
    /// [`Architecture::sc_per_location_po_loc`] and tells enumeration-time
    /// uniproc pruning which per-location graph is sound for this
    /// architecture.
    fn tolerates_load_load_hazards(&self) -> bool {
        false
    }

    /// The `po-loc` used by SC PER LOCATION. Architectures tolerating
    /// load-load hazards drop read-read pairs
    /// (`po-loc-llh = po-loc \ RR`, Tab VII).
    ///
    /// The default delegates to the skeleton-invariant
    /// [`Architecture::sc_per_location_po_loc_static`] — directions and
    /// locations never depend on the witness — so overriding the static
    /// hook adjusts both the owned and the arena checking paths at once.
    fn sc_per_location_po_loc(&self, x: &Execution) -> Relation {
        self.sc_per_location_po_loc_static(x.core())
    }

    /// Skeleton-invariant twin of
    /// [`Architecture::sc_per_location_po_loc`], computed from the core
    /// before any data-flow choice. [`ArenaChecker::new`] caches it once
    /// per enumeration, so architectures customising their SC PER
    /// LOCATION `po-loc` should override *this* hook (a per-candidate
    /// override of the dynamic method alone would only affect the owned
    /// path).
    fn sc_per_location_po_loc_static(&self, core: &ExecCore) -> Relation {
        if self.tolerates_load_load_hazards() {
            let rr = core.dir_restrict(core.po_loc(), Some(Dir::R), Some(Dir::R));
            core.po_loc().minus(&rr)
        } else {
            core.po_loc().clone()
        }
    }

    /// Which form of the PROPAGATION axiom applies.
    fn propagation_check(&self) -> PropagationCheck {
        PropagationCheck::Acyclic
    }

    /// Which side of the single-execution tractability frontier this
    /// model sits on (see [`Tractability`]). Overriding to
    /// [`Tractability::Polynomial`] is a promise that every co-dependent
    /// relation the axioms consume is monotone in `co` **and** that
    /// [`Architecture::arch_rels_arena`] never materialises an owned
    /// [`Execution`] (whose validation rejects the partial coherence
    /// orders saturation probes with). The default keeps the enumeration
    /// fallback — always sound, never silent.
    fn tractability(&self) -> Tractability {
        Tractability::Frontier
    }

    /// The candidate-independent ppo envelope backing
    /// [`Tractability::Conditional`]: `lower ⊆ ppo(x) ⊆ upper` for every
    /// candidate `x` built on `core`. Architectures declaring
    /// `Conditional` **must** override this (returning `Some`); the
    /// default `None` matches the static-ppo and frontier models, for
    /// which no envelope is needed or none is sound.
    fn ppo_envelope(&self, core: &ExecCore) -> Option<PpoEnvelope> {
        let _ = core;
        None
    }

    /// The fences of a Fig 18 instance, which lets the staged
    /// [`ArenaChecker`] evaluate each relation once per scope of its
    /// inputs instead of once per candidate.
    ///
    /// `Some` is a promise about every candidate `x` built on `core`:
    /// `fences(x)` equals the returned `fences`, and `prop(x)` is
    /// [`crate::arch::prop_power_arm`] over `ppo(x)`, those fences and the
    /// returned `ffence`. Paired with a [`Architecture::ppo_envelope`]
    /// (whose exact member is the Fig 25 fixpoint under
    /// [`PpoEnvelope::config`]), it is also what conditional saturation
    /// freezes ppo through. The default `None` keeps per-candidate
    /// evaluation through [`Architecture::arch_rels_arena`].
    fn fig18_fences(&self, core: &ExecCore) -> Option<Fig18Fences> {
        let _ = core;
        None
    }

    /// The skeleton-invariant part of this architecture's `fences`
    /// relation — the *static fence suffix* of the cumulativity edges.
    ///
    /// `A-cumul = rfe; fences` (Fig 18) is rf-dependent, but its `fences`
    /// suffix is not: fence placement and event directions are fixed by
    /// the skeleton. Putting this static suffix into the thin-air base
    /// makes every cumulativity composition fall out of the incremental
    /// closure for free — when the tracker pushes an rfe edge `(w, r)`
    /// and the base holds `(r, c) ∈ fences`, the closed graph contains
    /// `(w, c)` without any per-candidate work (the `rfe; fences` pair).
    /// `tests/thin_air.rs` checks both halves of the contract: the base
    /// stays under every candidate's `hb`, and the cumulativity pairs are
    /// reachable in the tracked closure.
    ///
    /// The default is the whole fence relation of a Fig 18 instance
    /// ([`Architecture::fig18_fences`]), and empty otherwise (sound for
    /// every architecture); the other stock instances with fences
    /// override it, and [`Architecture::thin_air_base`] unions it into
    /// the static base.
    fn thin_air_fences(&self, core: &ExecCore) -> Relation {
        self.fig18_fences(core).map_or_else(|| Relation::empty(core.universe()), |f| f.fences)
    }

    /// A skeleton-invariant underapproximation of `ppo ∪ fences`, enabling
    /// generation-time NO THIN AIR pruning (Sec 8.3, the `-speedcheck`
    /// strategy).
    ///
    /// The contract: the returned relation must be contained in
    /// `ppo(x) ∪ fences(x)` for **every** candidate execution `x` built on
    /// `core`, so that a cycle in `base ∪ rfe` implies a cycle in `hb` and
    /// the candidate is forbidden by NO THIN AIR whatever its coherence
    /// order. Architectures whose model does not enforce NO THIN AIR (or
    /// that cannot offer a sound static base) return `None` — the default
    /// — which disables this pruning axis entirely; pruning never happens
    /// unless an architecture explicitly vouches for it.
    ///
    /// The default derives the base from the ppo envelope when there is
    /// one: `lower ∪ thin_air_fences`, which is how Power and ARM get
    /// theirs. Models without an envelope return `None` unless they
    /// override it, as SC/C++RA (`po`) and TSO/PSO/RMO (their static
    /// `ppo`) do — each unioned with the static fence suffix
    /// ([`Architecture::thin_air_fences`]), which also covers the
    /// cumulativity edges compositionally.
    fn thin_air_base(&self, core: &ExecCore) -> Option<Relation> {
        self.ppo_envelope(core).map(|e| e.lower.union(&self.thin_air_fences(core)))
    }

    /// Evaluates the three architecture functions for one arena-backed
    /// candidate, returning arena slots instead of owned relations.
    ///
    /// The default implementation materialises an owned [`Execution`]
    /// from the frame and copies `ppo`/`fences`/`prop` into the arena —
    /// always correct, but it allocates; every stock architecture
    /// overrides it with a pure-arena computation so the hot checking
    /// path performs zero heap allocations in the steady state.
    ///
    /// Slots are allocated under the caller's current mark; the caller
    /// (normally [`ArenaChecker::check`]) releases them after the axioms
    /// are evaluated.
    fn arch_rels_arena(&self, fx: &ExecFrame<'_>, arena: &mut RelArena) -> ArenaArchRels {
        let x = fx.to_execution(arena);
        ArenaArchRels {
            ppo: arena.alloc_from(&self.ppo(&x)),
            fences: arena.alloc_from(&self.fences(&x)),
            prop: arena.alloc_from(&self.prop(&x)),
        }
    }
}

/// References delegate wholesale, preserving every override — so `&A`
/// (and in particular `&dyn Architecture`, which is `Sized`) is itself an
/// architecture. Lets unsized-generic drivers hand a trait object to
/// enum-shaped plumbing without re-monomorphising it.
impl<A: Architecture + ?Sized> Architecture for &A {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn ppo(&self, x: &Execution) -> Relation {
        (**self).ppo(x)
    }
    fn fences(&self, x: &Execution) -> Relation {
        (**self).fences(x)
    }
    fn prop(&self, x: &Execution) -> Relation {
        (**self).prop(x)
    }
    fn tolerates_load_load_hazards(&self) -> bool {
        (**self).tolerates_load_load_hazards()
    }
    fn sc_per_location_po_loc(&self, x: &Execution) -> Relation {
        (**self).sc_per_location_po_loc(x)
    }
    fn sc_per_location_po_loc_static(&self, core: &ExecCore) -> Relation {
        (**self).sc_per_location_po_loc_static(core)
    }
    fn propagation_check(&self) -> PropagationCheck {
        (**self).propagation_check()
    }
    fn tractability(&self) -> Tractability {
        (**self).tractability()
    }
    fn ppo_envelope(&self, core: &ExecCore) -> Option<PpoEnvelope> {
        (**self).ppo_envelope(core)
    }
    fn fig18_fences(&self, core: &ExecCore) -> Option<Fig18Fences> {
        (**self).fig18_fences(core)
    }
    fn thin_air_fences(&self, core: &ExecCore) -> Relation {
        (**self).thin_air_fences(core)
    }
    fn thin_air_base(&self, core: &ExecCore) -> Option<Relation> {
        (**self).thin_air_base(core)
    }
    fn arch_rels_arena(&self, fx: &ExecFrame<'_>, arena: &mut RelArena) -> ArenaArchRels {
        (**self).arch_rels_arena(fx, arena)
    }
}

/// The three architecture relations of one arena-backed candidate, as
/// slots of the checking arena — the [`ArchRelations`] twin produced by
/// [`Architecture::arch_rels_arena`].
#[derive(Clone, Copy, Debug)]
pub struct ArenaArchRels {
    /// Preserved program order.
    pub ppo: RelId,
    /// Fence-induced ordering.
    pub fences: RelId,
    /// Propagation order.
    pub prop: RelId,
}

/// The skeleton-invariant fences of a Fig 18 instance
/// ([`Architecture::fig18_fences`]).
#[derive(Clone, Debug)]
pub struct Fig18Fences {
    /// The whole fence relation (`lwfence ∪ ffence` on Power).
    pub fences: Relation,
    /// The full fences the strong part of prop sequences through.
    pub ffence: Relation,
}

/// The three architecture relations, computed once per candidate.
#[derive(Clone, Debug)]
pub struct ArchRelations {
    /// Preserved program order.
    pub ppo: Relation,
    /// Fence-induced ordering.
    pub fences: Relation,
    /// Propagation order.
    pub prop: Relation,
    /// Happens-before `ppo ∪ fences ∪ rfe`.
    pub hb: Relation,
    /// Transitive closure `hb+` (computed once; NO THIN AIR is its
    /// irreflexivity).
    pub hb_plus: Relation,
    /// Reflexive-transitive closure `hb*` (computed once and shared by
    /// every axiom consumer — the OBSERVATION axiom and the Power/ARM
    /// `prop` both sequence through it).
    pub hb_star: Relation,
}

impl ArchRelations {
    /// Evaluates the architecture functions on a candidate.
    pub fn compute<A: Architecture + ?Sized>(arch: &A, x: &Execution) -> Self {
        let ppo = arch.ppo(x);
        let fences = arch.fences(x);
        let prop = arch.prop(x);
        let hb = ppo.union(&fences).union(x.rfe());
        let hb_plus = hb.tclosure();
        let hb_star = hb_plus.union(&Relation::id(hb.universe()));
        ArchRelations { ppo, fences, prop, hb, hb_plus, hb_star }
    }
}

/// Per-axiom outcome for one candidate execution (`true` = axiom holds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Verdict {
    /// SC PER LOCATION held.
    pub sc_per_location: bool,
    /// NO THIN AIR held.
    pub no_thin_air: bool,
    /// OBSERVATION held.
    pub observation: bool,
    /// PROPAGATION held.
    pub propagation: bool,
}

impl Verdict {
    /// A verdict with every axiom satisfied.
    pub const ALLOWED: Verdict =
        Verdict { sc_per_location: true, no_thin_air: true, observation: true, propagation: true };

    /// Does the model allow the candidate (all four axioms hold)?
    pub fn allowed(&self) -> bool {
        self.sc_per_location && self.no_thin_air && self.observation && self.propagation
    }

    /// The paper's Tab VIII labels the set of violated axioms with one
    /// letter each: `S` (SC PER LOCATION), `T` (NO THIN AIR),
    /// `O` (OBSERVATION), `P` (PROPAGATION). An allowed execution yields
    /// the empty string.
    pub fn violation_label(&self) -> String {
        let mut s = String::new();
        if !self.sc_per_location {
            s.push('S');
        }
        if !self.no_thin_air {
            s.push('T');
        }
        if !self.observation {
            s.push('O');
        }
        if !self.propagation {
            s.push('P');
        }
        s
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.allowed() {
            f.write_str("allowed")
        } else {
            write!(f, "forbidden({})", self.violation_label())
        }
    }
}

/// Checks the four axioms of Fig 5 on one candidate execution.
pub fn check<A: Architecture + ?Sized>(arch: &A, x: &Execution) -> Verdict {
    let rels = ArchRelations::compute(arch, x);
    check_with(arch, x, &rels)
}

/// Axiom check reusing precomputed architecture relations.
pub fn check_with<A: Architecture + ?Sized>(
    arch: &A,
    x: &Execution,
    rels: &ArchRelations,
) -> Verdict {
    let po_loc = arch.sc_per_location_po_loc(x);
    let sc_per_location = po_loc.union(x.com()).is_acyclic();

    let no_thin_air = rels.hb_plus.is_irreflexive();

    let observation = x.fre().seq(&rels.prop).seq(&rels.hb_star).is_irreflexive();

    let propagation = match arch.propagation_check() {
        PropagationCheck::Acyclic => x.co().union(&rels.prop).is_acyclic(),
        PropagationCheck::IrreflexivePropCo => rels.prop.seq(x.co()).is_irreflexive(),
    };

    Verdict { sc_per_location, no_thin_air, observation, propagation }
}

/// Checks only SC PER LOCATION with the standard `po-loc` — used on its own
/// by the coherence tests of Fig 6 and by `herd-hw` anomaly classification.
pub fn sc_per_location(x: &Execution) -> bool {
    x.po_loc().union(x.com()).is_acyclic()
}

/// The arena-backed axiom checker: [`check_with`] without a single heap
/// allocation per candidate, with each relation evaluated once per scope
/// of the inputs it reads (the compositional reading of cat of Alglave and
/// Cousot, PAPERS.md).
///
/// Three scopes, outermost first:
///
/// * **Control-flow combination** — the checker itself. [`ArenaChecker::new`]
///   precomputes only the skeleton-invariant `po-loc` of SC PER LOCATION
///   (load-load-hazard-weakened when the architecture asks for it).
///   [`ArenaChecker::staged`] additionally takes the static fences of a
///   Fig 18 instance ([`Architecture::fig18_fences`]) and, when the ppo
///   envelope is tight, the exact ppo: `envelope.lower`.
/// * **rf configuration** — [`ArenaChecker::rf_scope`], after
///   [`ExecRels::derive_rf`](crate::exec::ExecRels::derive_rf). With a
///   known ppo it evaluates `hb = ppo ∪ fences ∪ rfe`, `hb+`/`hb*`, the NO
///   THIN AIR verdict, and the rf-only parts of prop
///   ([`crate::arch::prop_power_arm_rf`]); [`ArenaChecker::rf_scope_frozen`]
///   does the same from a caller's ppo bound.
/// * **Coherence choice** — [`ArenaChecker::check_co`]: only what reads
///   `co`: SC PER LOCATION, `com*`, the strong part of prop, OBSERVATION
///   and PROPAGATION.
///
/// When the rf scope holds no ppo (a non-tight envelope) or the model is
/// not a Fig 18 instance, `check_co` does the whole per-candidate work:
/// for Fig 18 instances ppo through [`crate::ppo::compute_arena`] and then
/// the same two stages, for every other model
/// [`Architecture::arch_rels_arena`]. [`ArenaChecker::check`] runs both
/// scopes for one candidate.
///
/// All temporaries live above arena marks the caller (for the rf scope)
/// or the checker (for `check_co`) releases, so the arena's footprint
/// stays at its high-water mark. Equivalence with the owned path
/// ([`check`] / [`check_with`]) is pinned down by the corpus-wide
/// equivalence suites.
pub struct ArenaChecker {
    sc_po_loc: Relation,
    /// The Fig 18 combination scope; `None` checks per candidate through
    /// [`Architecture::arch_rels_arena`].
    fig18: Option<Fig18Stage>,
}

/// The per-combination inputs of a staged Fig 18 check.
struct Fig18Stage {
    fences: Relation,
    ffence: Relation,
    /// The exact ppo of every candidate, when the envelope is tight.
    ppo: Option<Relation>,
    /// The Fig 25 configuration each candidate's ppo is computed under
    /// otherwise.
    ppo_cfg: PpoConfig,
}

/// What an [`ArenaChecker`] evaluated for one rf configuration: arena
/// slots shared by every coherence choice under it, valid until the
/// caller releases the mark it took before [`ArenaChecker::rf_scope`].
#[derive(Clone, Copy, Debug)]
pub struct RfScope(Option<RfRels>);

#[derive(Clone, Copy, Debug)]
struct RfRels {
    no_thin_air: bool,
    /// `prop-base ∩ WW`.
    prop_ww: RelId,
    /// `(prop-base ∩ WW); hb*`, for OBSERVATION.
    prop_ww_hb: RelId,
    /// `prop-base*; ffence; hb*`, the rf-only suffix of prop's strong part.
    strong: RelId,
}

impl ArenaChecker {
    /// The per-candidate checker: precomputes the static SC PER LOCATION
    /// `po-loc` for `core` and nothing else.
    pub fn new<A: Architecture + ?Sized>(arch: &A, core: &ExecCore) -> Self {
        ArenaChecker { sc_po_loc: arch.sc_per_location_po_loc_static(core), fig18: None }
    }

    /// The staged checker for an architecture whose envelope `env` on
    /// `core` the caller already holds. `tight` says the envelope is
    /// tight ([`PpoEnvelope::tight`]), making `env.lower` the exact ppo
    /// of the whole combination. Models that are not Fig 18 instances get
    /// [`ArenaChecker::new`]'s per-candidate checker.
    pub fn staged<A: Architecture + ?Sized>(
        arch: &A,
        core: &ExecCore,
        env: &PpoEnvelope,
        tight: bool,
    ) -> Self {
        let fig18 = arch.fig18_fences(core).map(|f| Fig18Stage {
            fences: f.fences,
            ffence: f.ffence,
            ppo: tight.then(|| env.lower.clone()),
            ppo_cfg: *env.config(),
        });
        ArenaChecker { sc_po_loc: arch.sc_per_location_po_loc_static(core), fig18 }
    }

    /// The control-flow-combination scope where candidates are streamed:
    /// computes the architecture's envelope on `core` once, decides its
    /// tightness, and returns the checker with the envelope (for
    /// [`thin_air_base_with`]).
    pub fn for_combination<A: Architecture + ?Sized>(
        arch: &A,
        core: &ExecCore,
    ) -> (Self, Option<PpoEnvelope>) {
        let env = arch.ppo_envelope(core);
        let checker = match &env {
            Some(e) => ArenaChecker::staged(arch, core, e, e.tight(core)),
            None => ArenaChecker::new(arch, core),
        };
        (checker, env)
    }

    /// Does this checker stage a Fig 18 instance (so
    /// [`ArenaChecker::rf_scope_frozen`] applies)?
    pub fn is_staged(&self) -> bool {
        self.fig18.is_some()
    }

    /// The rf-configuration scope: call once `fx.rels`' rf-derived slots
    /// are filled, under a mark held until the last coherence choice of
    /// the configuration has been checked.
    pub fn rf_scope(&self, fx: &ExecFrame<'_>, arena: &mut RelArena) -> RfScope {
        match &self.fig18 {
            Some(st @ Fig18Stage { ppo: Some(ppo), .. }) => {
                RfScope(Some(st.rf_rels(fx, ppo, arena)))
            }
            _ => RfScope(None),
        }
    }

    /// [`ArenaChecker::rf_scope`] with ppo frozen to the slot `ppo`
    /// instead of the candidate's exact Fig 25 fixpoint — the relation
    /// evaluator behind conditional saturation. Every relation of the
    /// scope is computed from `ppo`, none from the candidate's dynamic
    /// `rdw`/`rfi`/`detour`.
    ///
    /// # Panics
    ///
    /// Panics unless the checker is staged ([`ArenaChecker::is_staged`]).
    pub fn rf_scope_frozen(&self, fx: &ExecFrame<'_>, ppo: RelId, arena: &mut RelArena) -> RfScope {
        let st = self.fig18.as_ref().expect("a frozen ppo needs a staged Fig 18 checker");
        RfScope(Some(st.rf_rels(fx, ppo, arena)))
    }

    /// The coherence scope: checks the four axioms of Fig 5 on one
    /// candidate whose rf configuration `scope` was computed for.
    pub fn check_co<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        fx: &ExecFrame<'_>,
        scope: RfScope,
        arena: &mut RelArena,
    ) -> Verdict {
        let m = arena.mark();
        let verdict = match (scope.0, &self.fig18) {
            (Some(rf), _) => self.co_stage(arch, fx, rf, arena),
            (None, Some(st)) => {
                let ppo = ppo::compute_arena(fx, &st.ppo_cfg, arena);
                let rf = st.rf_rels(fx, ppo, arena);
                self.co_stage(arch, fx, rf, arena)
            }
            (None, None) => {
                let ar = arch.arch_rels_arena(fx, arena);
                let (no_thin_air, hb_star) = hb_closures(fx, ar.ppo, ar.fences, arena);
                // OBSERVATION: irreflexive(fre; prop; hb*).
                let t = arena.alloc();
                arena.seq_into(t, fx.rels.fre, ar.prop);
                let observation = arena.seq_is_irreflexive(t, hb_star);
                self.axioms(arch, fx, no_thin_air, observation, ar.prop, arena)
            }
        };
        arena.release(m);
        verdict
    }

    /// Checks the four axioms of Fig 5 on one arena-backed candidate:
    /// [`ArenaChecker::rf_scope`] and [`ArenaChecker::check_co`] in one go.
    pub fn check<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        fx: &ExecFrame<'_>,
        arena: &mut RelArena,
    ) -> Verdict {
        let m = arena.mark();
        let scope = self.rf_scope(fx, arena);
        let verdict = self.check_co(arch, fx, scope, arena);
        arena.release(m);
        verdict
    }

    /// The coherence half of a staged Fig 18 check.
    fn co_stage<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        fx: &ExecFrame<'_>,
        rf: RfRels,
        arena: &mut RelArena,
    ) -> Verdict {
        let prop = prop_power_arm_co(fx, rf.prop_ww, rf.strong, arena);
        // OBSERVATION: irreflexive(fre; prop; hb*). The strong part of
        // prop already ends in hb*, so prop; hb* = prop ∪ (prop-base ∩
        // WW); hb*, and the composition splits over the union.
        let observation = arena.seq_is_irreflexive(fx.rels.fre, prop)
            && arena.seq_is_irreflexive(fx.rels.fre, rf.prop_ww_hb);
        self.axioms(arch, fx, rf.no_thin_air, observation, prop, arena)
    }

    /// SC PER LOCATION and PROPAGATION from `prop`, with NO THIN AIR and
    /// OBSERVATION already decided.
    fn axioms<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        fx: &ExecFrame<'_>,
        no_thin_air: bool,
        observation: bool,
        prop: RelId,
        arena: &mut RelArena,
    ) -> Verdict {
        // SC PER LOCATION: acyclic(po-loc ∪ com).
        let t = arena.alloc_from(&self.sc_po_loc);
        arena.union_into(t, fx.rels.com);
        let sc_per_location = arena.is_acyclic(t);

        // PROPAGATION: acyclic(co ∪ prop), or the C++ R-A weakening.
        let propagation = match arch.propagation_check() {
            PropagationCheck::Acyclic => {
                arena.copy_into(t, fx.rels.co);
                arena.union_into(t, prop);
                arena.is_acyclic(t)
            }
            PropagationCheck::IrreflexivePropCo => arena.seq_is_irreflexive(prop, fx.rels.co),
        };
        Verdict { sc_per_location, no_thin_air, observation, propagation }
    }
}

impl Fig18Stage {
    /// The rf scope of a Fig 18 instance from a known ppo.
    fn rf_rels<'a>(
        &self,
        fx: &ExecFrame<'_>,
        ppo: impl Into<RelSrc<'a>>,
        arena: &mut RelArena,
    ) -> RfRels {
        let (no_thin_air, hb_star) = hb_closures(fx, ppo, &self.fences, arena);
        let (prop_ww, strong) = prop_power_arm_rf(fx, &self.fences, &self.ffence, hb_star, arena);
        let prop_ww_hb = arena.alloc();
        arena.seq_into(prop_ww_hb, prop_ww, hb_star);
        RfRels { no_thin_air, prop_ww, prop_ww_hb, strong }
    }
}

/// `hb = ppo ∪ fences ∪ rfe`: returns the NO THIN AIR verdict
/// (`acyclic(hb)`, read off `hb+`) and the `hb*` slot.
fn hb_closures<'a, 'b>(
    fx: &ExecFrame<'_>,
    ppo: impl Into<RelSrc<'a>>,
    fences: impl Into<RelSrc<'b>>,
    arena: &mut RelArena,
) -> (bool, RelId) {
    let hb = arena.alloc_from(ppo);
    arena.union_into(hb, fences);
    arena.union_into(hb, fx.rels.rfe);
    let hb_star = arena.alloc();
    arena.tclosure_into(hb_star, hb);
    let no_thin_air = arena.is_irreflexive(hb_star);
    arena.union_id(hb_star);
    (no_thin_air, hb_star)
}

/// [`Architecture::thin_air_base`] for a core whose envelope the caller
/// already holds: the trait default's `lower ∪ thin_air_fences` without a
/// second lower fixpoint. Without an envelope it asks the hook. Either
/// way the base is within `ppo ∪ fences` of every candidate, so pruning
/// with it is sound.
pub fn thin_air_base_with<A: Architecture + ?Sized>(
    arch: &A,
    core: &ExecCore,
    env: Option<&PpoEnvelope>,
) -> Option<Relation> {
    match env {
        Some(e) => Some(e.lower.union(&arch.thin_air_fences(core))),
        None => arch.thin_air_base(core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;
    impl Architecture for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn ppo(&self, x: &Execution) -> Relation {
            Relation::empty(x.len())
        }
        fn fences(&self, x: &Execution) -> Relation {
            Relation::empty(x.len())
        }
        fn prop(&self, x: &Execution) -> Relation {
            Relation::empty(x.len())
        }
    }

    #[test]
    fn verdict_labels() {
        let mut v = Verdict::ALLOWED;
        assert!(v.allowed());
        assert_eq!(v.violation_label(), "");
        v.sc_per_location = false;
        v.propagation = false;
        assert_eq!(v.violation_label(), "SP");
        assert_eq!(v.to_string(), "forbidden(SP)");
    }

    #[test]
    fn null_architecture_allows_mp() {
        let x = crate::fixtures::mp_fig4();
        let v = check(&Null, &x);
        assert!(v.allowed(), "no ppo, no fences, no prop: everything is allowed");
    }

    /// The arena checker must agree with the owned path verdict-for-
    /// verdict — per candidate and staged, for the stock arena
    /// implementations *and* for the default (materialising)
    /// `arch_rels_arena` fallback.
    #[test]
    fn arena_checker_matches_owned_check() {
        use crate::arena::RelArena;
        use crate::exec::{ExecFrame, ExecRels};
        use crate::fixtures::{self, Device};

        let fixtures = [
            fixtures::mp(Device::None, Device::None),
            fixtures::mp(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
            fixtures::sb(Device::Fence(crate::event::Fence::Mfence), Device::None),
            fixtures::lb(Device::Data, Device::Ctrl),
            fixtures::iriw(Device::Fence(crate::event::Fence::Sync), Device::Addr),
            fixtures::two_plus_two_w(Device::Fence(crate::event::Fence::Lwsync), Device::None),
            fixtures::co_rr(),
            fixtures::wrc(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
        ];
        let mut arena = RelArena::new(0);
        for arch in crate::arch::all() {
            for x in &fixtures {
                arena.reset(x.len());
                let rels = ExecRels::from_execution(x, &mut arena);
                let fx = ExecFrame { core: x.core(), events: x.events(), rels: &rels };
                let checker = ArenaChecker::new(arch.as_ref(), x.core());
                let arena_v = checker.check(arch.as_ref(), &fx, &mut arena);
                let owned_v = check(arch.as_ref(), x);
                assert_eq!(arena_v, owned_v, "{} disagrees", arch.name());
                // The staged checker, through its two scopes.
                let (staged, _) = ArenaChecker::for_combination(arch.as_ref(), x.core());
                let m = arena.mark();
                let scope = staged.rf_scope(&fx, &mut arena);
                let staged_v = staged.check_co(arch.as_ref(), &fx, scope, &mut arena);
                arena.release(m);
                assert_eq!(staged_v, owned_v, "staged {} disagrees", arch.name());
            }
        }
        // The default fallback (Null overrides nothing) takes the
        // materialising path and must agree too.
        let x = fixtures::mp_fig4();
        arena.reset(x.len());
        let rels = ExecRels::from_execution(&x, &mut arena);
        let fx = ExecFrame { core: x.core(), events: x.events(), rels: &rels };
        let checker = ArenaChecker::new(&Null, x.core());
        assert_eq!(checker.check(&Null, &fx, &mut arena), check(&Null, &x));
    }
}
