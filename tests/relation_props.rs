//! Property tests for the relational algebra underlying everything
//! (herd-core): closure laws, composition associativity, transpose
//! involution, acyclicity coherence — and, in [`pair_set_model`], every
//! word-walking operator against a naive set-of-pairs model at the
//! universe sizes where rows cross machine-word boundaries.

use herd_core::relation::Relation;
use herd_core::set::EventSet;
use proptest::prelude::*;

fn relation(n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..n, 0..n), 0..=n * 2)
        .prop_map(move |pairs| Relation::from_pairs(n, pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tclosure_is_idempotent(r in relation(8)) {
        let c = r.tclosure();
        prop_assert_eq!(c.tclosure(), c);
    }

    #[test]
    fn tclosure_is_transitive_and_contains(r in relation(8)) {
        let c = r.tclosure();
        prop_assert!(r.is_subset(&c));
        prop_assert!(c.seq(&c).is_subset(&c));
    }

    #[test]
    fn rtclosure_adds_identity(r in relation(8)) {
        let c = r.rtclosure();
        prop_assert!(Relation::id(8).is_subset(&c));
        prop_assert_eq!(c.clone(), r.tclosure().union(&Relation::id(8)));
    }

    #[test]
    fn seq_is_associative(a in relation(6), b in relation(6), c in relation(6)) {
        prop_assert_eq!(a.seq(&b).seq(&c), a.seq(&b.seq(&c)));
    }

    #[test]
    fn seq_distributes_over_union(a in relation(6), b in relation(6), c in relation(6)) {
        prop_assert_eq!(a.seq(&b.union(&c)), a.seq(&b).union(&a.seq(&c)));
    }

    #[test]
    fn transpose_involution_and_antidistribution(a in relation(7), b in relation(7)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert_eq!(a.seq(&b).transpose(), b.transpose().seq(&a.transpose()));
    }

    #[test]
    fn acyclic_iff_topo_sortable(r in relation(8)) {
        prop_assert_eq!(r.is_acyclic(), r.topo_sort().is_some());
        prop_assert_eq!(r.is_acyclic(), r.find_cycle().is_none());
    }

    #[test]
    fn found_cycles_are_real(r in relation(8)) {
        if let Some(cycle) = r.find_cycle() {
            for w in cycle.windows(2) {
                prop_assert!(r.contains(w[0], w[1]));
            }
            prop_assert!(r.contains(*cycle.last().unwrap(), cycle[0]));
        }
    }

    #[test]
    fn irreflexive_union_check(a in relation(8), b in relation(8)) {
        // acyclic(a ∪ b) implies both acyclic(a) and acyclic(b).
        if a.union(&b).is_acyclic() {
            prop_assert!(a.is_acyclic());
            prop_assert!(b.is_acyclic());
        }
    }

    #[test]
    fn restrict_is_intersection_with_product(r in relation(8)) {
        let evens = EventSet::from_indices(8, (0..8).step_by(2));
        let odds = evens.complement();
        let q = r.restrict(&evens, &odds);
        for (x, y) in q.iter_pairs() {
            prop_assert!(evens.contains(x) && odds.contains(y));
            prop_assert!(r.contains(x, y));
        }
        for (x, y) in r.iter_pairs() {
            if evens.contains(x) && odds.contains(y) {
                prop_assert!(q.contains(x, y));
            }
        }
    }

    #[test]
    fn topo_sort_respects_edges(r in relation(8)) {
        if let Some(order) = r.topo_sort() {
            let mut rank = [0usize; 8];
            for (i, &e) in order.iter().enumerate() {
                rank[e] = i;
            }
            for (a, b) in r.iter_pairs() {
                prop_assert!(rank[a] < rank[b]);
            }
        }
    }
}

mod pair_set_model {
    use super::*;
    use proptest::sample::select;
    use std::collections::BTreeSet;

    type Pairs = BTreeSet<(usize, usize)>;

    /// Universes on both sides of each machine-word boundary of a row.
    const SIZES: [usize; 7] = [1, 8, 63, 64, 65, 128, 130];

    /// Indices next to a word boundary, drawn as often as all others
    /// together so edge bits 63/64/65, 127/128/129 and `n - 1` turn up in
    /// most relations.
    const EDGES: [usize; 8] = [0, 62, 63, 64, 65, 127, 128, 129];

    /// One random draw: the universe, two relations as pair lists, and
    /// two event-set masks.
    type Draw = (usize, Vec<(usize, usize)>, Vec<(usize, usize)>, Vec<bool>, Vec<bool>);

    fn draw() -> impl Strategy<Value = Draw> {
        select(SIZES.to_vec()).prop_flat_map(|n| {
            let mut coords: Vec<usize> = (0..n).collect();
            let edges: Vec<usize> =
                EDGES.iter().copied().chain([n - 1]).filter(|&i| i < n).collect();
            while coords.len() < 2 * n {
                coords.extend(&edges);
            }
            let pair = (select(coords.clone()), select(coords));
            (
                Just(n),
                proptest::collection::vec(pair.clone(), 0..=n * 3 / 2),
                proptest::collection::vec(pair, 0..=n * 3 / 2),
                proptest::collection::vec(any::<bool>(), n),
                proptest::collection::vec(any::<bool>(), n),
            )
        })
    }

    /// The model of `r`, read bit by bit through `contains` only.
    fn model(r: &Relation) -> Pairs {
        let n = r.universe();
        (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| r.contains(a, b))
            .collect()
    }

    fn succs(p: &Pairs, a: usize) -> impl Iterator<Item = usize> + '_ {
        p.range((a, 0)..(a + 1, 0)).map(|&(_, b)| b)
    }

    fn seq(p: &Pairs, q: &Pairs) -> Pairs {
        p.iter().flat_map(|&(a, b)| succs(q, b).map(move |c| (a, c))).collect()
    }

    /// `p+`: everything reachable in one or more steps, by a search from
    /// every source.
    fn closure(p: &Pairs, n: usize) -> Pairs {
        let mut out = Pairs::new();
        for a in 0..n {
            let mut stack: Vec<usize> = succs(p, a).collect();
            while let Some(b) = stack.pop() {
                if out.insert((a, b)) {
                    stack.extend(succs(p, b));
                }
            }
        }
        out
    }

    fn set(n: usize, mask: &[bool]) -> EventSet {
        EventSet::from_indices(n, (0..n).filter(|&i| mask[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn seq_and_transpose_match_the_model((n, a, b, _, _) in draw()) {
            let (ra, rb) = (Relation::from_pairs(n, a), Relation::from_pairs(n, b));
            let (ma, mb) = (model(&ra), model(&rb));
            prop_assert_eq!(model(&ra.seq(&rb)), seq(&ma, &mb));
            let flipped: Pairs = ma.iter().map(|&(x, y)| (y, x)).collect();
            prop_assert_eq!(model(&ra.transpose()), flipped);
        }

        #[test]
        fn closures_and_acyclicity_match_the_model((n, a, _, _, _) in draw()) {
            let r = Relation::from_pairs(n, a);
            let plus = closure(&model(&r), n);
            prop_assert_eq!(model(&r.tclosure()), plus.clone());
            let star: Pairs = plus.iter().copied().chain((0..n).map(|i| (i, i))).collect();
            prop_assert_eq!(model(&r.rtclosure()), star);
            prop_assert_eq!(r.is_acyclic(), (0..n).all(|i| !plus.contains(&(i, i))));
        }

        #[test]
        fn succs_and_iter_pairs_match_the_model((n, a, _, _, _) in draw()) {
            let r = Relation::from_pairs(n, a);
            let m = model(&r);
            prop_assert_eq!(r.iter_pairs().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
            for x in 0..n + 2 {
                prop_assert_eq!(r.succs(x).collect::<Vec<_>>(), succs(&m, x).collect::<Vec<_>>());
            }
        }

        #[test]
        fn restrict_domain_range_match_the_model((n, a, _, src, dst) in draw()) {
            let r = Relation::from_pairs(n, a);
            let m = model(&r);
            let kept: Pairs = m.iter().copied().filter(|&(x, y)| src[x] && dst[y]).collect();
            prop_assert_eq!(model(&r.restrict(&set(n, &src), &set(n, &dst))), kept);
            let domain: Vec<usize> = m.iter().map(|&(x, _)| x).collect::<BTreeSet<_>>().into_iter().collect();
            prop_assert_eq!(r.domain().iter().collect::<Vec<_>>(), domain);
            let range: Vec<usize> = m.iter().map(|&(_, y)| y).collect::<BTreeSet<_>>().into_iter().collect();
            prop_assert_eq!(r.range().iter().collect::<Vec<_>>(), range);
        }
    }

    /// Every boundary size, deterministically: the identity, a chain
    /// through every event, a single edge between the last two events (the
    /// highest bit of the last word) and the full relation, which is its
    /// own closure and its own square.
    #[test]
    fn boundary_shapes_match_the_model() {
        for n in SIZES {
            let chain = Relation::from_pairs(n, (1..n).map(|i| (i - 1, i)));
            let last = Relation::from_pairs(n, [(n - 1, n.saturating_sub(2))]);
            for r in [Relation::id(n), chain, last] {
                let m = model(&r);
                assert_eq!(model(&r.tclosure()), closure(&m, n), "tclosure at n={n}");
                assert_eq!(model(&r.seq(&r)), seq(&m, &m), "seq at n={n}");
                assert_eq!(r.iter_pairs().collect::<Pairs>(), m, "iter_pairs at n={n}");
                assert_eq!(r.succs(n).count(), 0, "succs past the universe at n={n}");
            }
            let full = Relation::full(n);
            let m = model(&full);
            assert_eq!(m.len(), n * n);
            assert_eq!(model(&full.tclosure()), m, "tclosure of full at n={n}");
            assert_eq!(model(&full.seq(&full)), m, "seq of full at n={n}");
            assert_eq!(full.iter_pairs().collect::<Pairs>(), m, "iter_pairs of full at n={n}");
            assert_eq!(full.succs(n).count(), 0, "succs of full past the universe at n={n}");
        }
    }
}
