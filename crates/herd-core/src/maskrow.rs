//! Width-generic bit-row kernels: the mask layer under every fast path.
//!
//! The streaming engine's hot structures — arena slots
//! ([`crate::arena::RelArena`]), thin-air reachability masks
//! ([`crate::thinair::ThinAirTracker`]) and per-location uniproc graphs
//! ([`crate::uniproc::LocGraphs`]) — all reduce to *rows* of `u64` words:
//! one row per graph node, one bit per possible successor. Historically
//! each of them hard-coded a single-word row (`u64`), which capped every
//! pruning axis at 64 events exactly where pruning matters most (the
//! search space explodes with event count, Sec 8.3). This module is the
//! one place that knows how wide a row is:
//!
//! - the word kernels `or_words` / `and_words` / `andnot_words`
//!   dispatch on row width — explicit unrolled arms for 1-, 2- and 4-word
//!   rows (64 / 128 / 256 events) that the compiler keeps in SIMD
//!   registers, plus a 4-words-per-step loop for anything wider;
//! - [`MaskRow`] wraps one row as a value: up to 4 words inline (no heap)
//!   and a spill to `Vec<u64>` beyond 256 events;
//! - [`acyclic_masks`] is the single-word Kahn elimination previously
//!   duplicated (and drifting) in `arena.rs` and `uniproc.rs`;
//! - [`KahnScratch`] is its width-generic twin over row-major adjacency,
//!   with pooled buffers so steady-state checks allocate nothing.
//!
//! The 1-word path is bit-identical to the pre-refactor code: `wpr == 1`
//! callers hit the same single-`u64` operations as before, and
//! [`KahnScratch::is_acyclic_rows`] delegates 1-word graphs straight to
//! [`acyclic_masks`].

/// Words needed for a row of `n` bits.
#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// `dst |= src`, width-dispatched.
///
/// Rows of 1, 2 and 4 words (universes of 64, 128 and 256 events) take
/// explicit unrolled arms; anything else runs 4 words per step with a
/// remainder loop — which also serves the arena's whole-slot operators,
/// whose operands are `n` rows laid out contiguously.
#[inline]
pub(crate) fn or_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] |= src[0],
        2 => {
            dst[0] |= src[0];
            dst[1] |= src[1];
        }
        4 => {
            dst[0] |= src[0];
            dst[1] |= src[1];
            dst[2] |= src[2];
            dst[3] |= src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] |= sc[0];
                dc[1] |= sc[1];
                dc[2] |= sc[2];
                dc[3] |= sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a |= b;
            }
        }
    }
}

/// `dst &= src`, width-dispatched like [`or_words`].
#[inline]
pub(crate) fn and_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] &= src[0],
        2 => {
            dst[0] &= src[0];
            dst[1] &= src[1];
        }
        4 => {
            dst[0] &= src[0];
            dst[1] &= src[1];
            dst[2] &= src[2];
            dst[3] &= src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] &= sc[0];
                dc[1] &= sc[1];
                dc[2] &= sc[2];
                dc[3] &= sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a &= b;
            }
        }
    }
}

/// `dst &= !src`, width-dispatched like [`or_words`].
#[inline]
pub(crate) fn andnot_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] &= !src[0],
        2 => {
            dst[0] &= !src[0];
            dst[1] &= !src[1];
        }
        4 => {
            dst[0] &= !src[0];
            dst[1] &= !src[1];
            dst[2] &= !src[2];
            dst[3] &= !src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] &= !sc[0];
                dc[1] &= !sc[1];
                dc[2] &= !sc[2];
                dc[3] &= !sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a &= !b;
            }
        }
    }
}

/// Does the row contain bit `b`?
#[inline]
pub(crate) fn row_test(row: &[u64], b: usize) -> bool {
    row[b / 64] >> (b % 64) & 1 == 1
}

/// Sets bit `b` in the row.
#[inline]
pub(crate) fn row_set(row: &mut [u64], b: usize) {
    row[b / 64] |= 1u64 << (b % 64);
}

/// One width-generic bit row: a successor or membership mask over a
/// universe of `n` nodes, `words_for(n)` words wide.
///
/// Rows of up to 4 words (256 nodes — every realistic litmus or scaled
/// family) live inline with no heap allocation; wider rows spill to a
/// `Vec<u64>` allocated once at construction. All operations run through
/// the width-dispatched kernels of this module, so a 1-word `MaskRow`
/// compiles to the same single-`u64` instructions the pre-refactor code
/// hard-wired.
///
/// # Examples
///
/// ```
/// use herd_core::maskrow::MaskRow;
/// let mut a = MaskRow::zero(130);
/// a.set(0);
/// a.set(129);
/// let mut b = MaskRow::zero(130);
/// b.set(129);
/// a.and(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![129]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaskRow {
    /// Up to 4 words (256 nodes) stored inline; `len` is the row width in
    /// words, trailing array entries beyond it are unused and zero.
    Small {
        /// Row width in words (0..=4).
        len: u8,
        /// Inline word storage; only `words[..len]` is the row.
        words: [u64; 4],
    },
    /// Rows wider than 4 words, heap-backed.
    Wide(Vec<u64>),
}

impl MaskRow {
    /// The empty mask over a universe of `n` nodes.
    pub fn zero(n: usize) -> Self {
        let w = words_for(n);
        if w <= 4 {
            MaskRow::Small { len: w as u8, words: [0; 4] }
        } else {
            MaskRow::Wide(vec![0; w])
        }
    }

    /// The row's words, exactly `words_for(n)` of them.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            MaskRow::Small { len, words } => &words[..*len as usize],
            MaskRow::Wide(v) => v,
        }
    }

    /// The row's words, mutable.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        match self {
            MaskRow::Small { len, words } => &mut words[..*len as usize],
            MaskRow::Wide(v) => v,
        }
    }

    /// Sets bit `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the universe the row was built for.
    #[inline]
    pub fn set(&mut self, b: usize) {
        row_set(self.words_mut(), b);
    }

    /// Does the mask contain bit `b`? Out-of-universe bits read as unset.
    #[inline]
    pub fn test(&self, b: usize) -> bool {
        let words = self.words();
        b / 64 < words.len() && words[b / 64] >> (b % 64) & 1 == 1
    }

    /// `self |= other` (widths must match).
    pub fn or(&mut self, other: &MaskRow) {
        or_words(self.words_mut(), other.words());
    }

    /// `self &= other` (widths must match).
    pub fn and(&mut self, other: &MaskRow) {
        and_words(self.words_mut(), other.words());
    }

    /// `self &= !other` (widths must match).
    pub fn andnot(&mut self, other: &MaskRow) {
        andnot_words(self.words_mut(), other.words());
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the mask empty?
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates over the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Kahn-style elimination over single-word successor masks of at most 64
/// nodes — the shared fast path of [`crate::arena::RelArena::is_acyclic`]
/// and [`crate::uniproc::LocGraph::is_uniproc_in`] (previously two private
/// copies that had already drifted in shape).
///
/// `adj[i]` is node `i`'s successor mask; the graph is acyclic iff nodes
/// with no live predecessor (other than themselves) can be removed until
/// none remain. Stack-only: no allocation whatever the outcome.
pub fn acyclic_masks(adj: &[u64]) -> bool {
    let m = adj.len();
    debug_assert!(m <= 64, "acyclic_masks caps at 64 nodes; use KahnScratch");
    let mut preds = [0u64; 64];
    for (i, &succ) in adj.iter().enumerate() {
        let mut s = succ;
        while s != 0 {
            let j = s.trailing_zeros() as usize;
            s &= s - 1;
            preds[j] |= 1 << i;
        }
    }
    let mut alive: u64 = if m == 64 { !0 } else { (1u64 << m) - 1 };
    loop {
        let mut removed = 0u64;
        let mut a = alive;
        while a != 0 {
            let i = a.trailing_zeros() as usize;
            a &= a - 1;
            if preds[i] & alive & !(1 << i) == 0 && adj[i] >> i & 1 == 0 {
                removed |= 1 << i;
            }
        }
        alive &= !removed;
        if alive == 0 {
            return true;
        }
        if removed == 0 {
            return false;
        }
    }
}

/// Pooled scratch for width-generic Kahn elimination: acyclicity of a
/// graph given as row-major successor masks (`m` rows of `wpr` words).
///
/// The buffers grow to the largest graph ever checked and are reused
/// afterwards, so steady-state checks allocate nothing — the same
/// discipline as the arena pool. One-word graphs skip the buffers
/// entirely and run [`acyclic_masks`] on the stack, keeping the ≤64-node
/// path bit-identical (and allocation-identical) to the pre-refactor
/// code.
#[derive(Debug, Default)]
pub struct KahnScratch {
    /// Row-major predecessor masks (the transpose of `adj`).
    preds: Vec<u64>,
    /// Mask of nodes not yet removed.
    alive: Vec<u64>,
    /// Mask of nodes removed this round.
    removed: Vec<u64>,
}

impl KahnScratch {
    /// Fresh scratch with empty pools.
    pub fn new() -> Self {
        KahnScratch::default()
    }

    /// Is the graph acyclic? `adj` holds `m` successor rows of `wpr`
    /// words each; bits at positions `>= m` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is shorter than `m * wpr`.
    pub fn is_acyclic_rows(&mut self, adj: &[u64], m: usize, wpr: usize) -> bool {
        assert!(adj.len() >= m * wpr, "adjacency shorter than m * wpr");
        if m == 0 {
            return true;
        }
        if wpr == 1 {
            return acyclic_masks(&adj[..m]);
        }
        self.preds.clear();
        self.preds.resize(m * wpr, 0);
        for i in 0..m {
            for w in 0..wpr {
                let mut word = adj[i * wpr + w];
                while word != 0 {
                    let j = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    debug_assert!(j < m, "successor bit beyond the node count");
                    row_set(&mut self.preds[j * wpr..(j + 1) * wpr], i);
                }
            }
        }
        self.alive.clear();
        self.alive.resize(wpr, !0u64);
        let tail = m % 64;
        if tail != 0 {
            self.alive[m / 64] = (1u64 << tail) - 1;
        }
        for w in self.alive[m.div_ceil(64)..].iter_mut() {
            *w = 0;
        }
        self.removed.clear();
        self.removed.resize(wpr, 0);
        loop {
            self.removed.fill(0);
            let mut any = false;
            for w in 0..wpr {
                let mut word = self.alive[w];
                while word != 0 {
                    let i = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if adj[i * wpr + w] >> (i % 64) & 1 == 1 {
                        continue; // self loop: never removable
                    }
                    let prow = &self.preds[i * wpr..(i + 1) * wpr];
                    let mut live_preds = false;
                    for (pw, (&p, &a)) in prow.iter().zip(&self.alive).enumerate() {
                        let mut v = p & a;
                        if pw == w {
                            v &= !(1u64 << (i % 64));
                        }
                        if v != 0 {
                            live_preds = true;
                            break;
                        }
                    }
                    if !live_preds {
                        row_set(&mut self.removed, i);
                        any = true;
                    }
                }
            }
            if !any {
                return false;
            }
            let mut empty = true;
            for (a, &r) in self.alive.iter_mut().zip(&self.removed) {
                *a &= !r;
                empty &= *a == 0;
            }
            if empty {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    /// Owned-algebra reference: acyclic iff the transitive closure is
    /// irreflexive.
    fn acyclic_ref(n: usize, pairs: &[(usize, usize)]) -> bool {
        Relation::from_pairs(n, pairs.iter().copied()).is_acyclic()
    }

    fn rows_from(n: usize, pairs: &[(usize, usize)]) -> (Vec<u64>, usize) {
        let wpr = words_for(n);
        let mut adj = vec![0u64; n * wpr];
        for &(a, b) in pairs {
            row_set(&mut adj[a * wpr..(a + 1) * wpr], b);
        }
        (adj, wpr)
    }

    #[test]
    fn single_word_kahn_matches_fixture_cases() {
        assert!(acyclic_masks(&[0b010, 0b100, 0b000]));
        assert!(!acyclic_masks(&[0b010, 0b100, 0b001]));
        assert!(!acyclic_masks(&[0b001]), "self loop");
        assert!(acyclic_masks(&[]));
    }

    #[test]
    fn wide_kahn_agrees_with_the_single_word_path() {
        let mut k = KahnScratch::new();
        for &(n, pairs) in &[
            (3usize, &[(0, 1), (1, 2)][..]),
            (3, &[(0, 1), (1, 2), (2, 0)][..]),
            (64, &[(0, 63), (63, 1)][..]),
            (64, &[(0, 63), (63, 0)][..]),
        ] {
            let (adj, wpr) = rows_from(n, pairs);
            assert_eq!(wpr, 1);
            assert_eq!(k.is_acyclic_rows(&adj, n, wpr), acyclic_ref(n, pairs), "n={n}");
        }
    }

    #[test]
    fn chains_and_cycles_across_word_boundaries() {
        let mut k = KahnScratch::new();
        for n in [65usize, 127, 128, 129, 200, 300] {
            // A chain touching the first and last node of every word.
            let chain: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let (adj, wpr) = rows_from(n, &chain);
            assert!(wpr > 1);
            assert!(k.is_acyclic_rows(&adj, n, wpr), "n={n} chain");
            // Closing the chain makes every node cyclic.
            let mut cycle = chain.clone();
            cycle.push((n - 1, 0));
            let (adj, wpr) = rows_from(n, &cycle);
            assert!(!k.is_acyclic_rows(&adj, n, wpr), "n={n} cycle");
            // A self loop alone is a cycle, wherever the bit lands.
            let (adj, wpr) = rows_from(n, &[(n - 1, n - 1)]);
            assert!(!k.is_acyclic_rows(&adj, n, wpr), "n={n} self loop");
        }
    }

    #[test]
    fn wide_kahn_matches_owned_closure_on_pseudorandom_graphs() {
        // Deterministic LCG so the test needs no external randomness.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut k = KahnScratch::new();
        for &n in &[63usize, 64, 65, 127, 128, 129] {
            for density in 1..=3u64 {
                let mut pairs = Vec::new();
                for _ in 0..(n as u64 * density) {
                    let a = (next() % n as u64) as usize;
                    let b = (next() % n as u64) as usize;
                    if a != b {
                        pairs.push((a, b));
                    }
                }
                let (adj, wpr) = rows_from(n, &pairs);
                assert_eq!(
                    k.is_acyclic_rows(&adj, n, wpr),
                    acyclic_ref(n, &pairs),
                    "n={n} density={density}"
                );
            }
        }
    }

    #[test]
    fn kahn_scratch_buffers_are_reused_across_sizes() {
        let mut k = KahnScratch::new();
        let (big, wpr_big) = rows_from(129, &[(0, 128), (128, 64)]);
        assert!(k.is_acyclic_rows(&big, 129, wpr_big));
        // A smaller graph afterwards must not read stale pool contents.
        let (small, wpr_small) = rows_from(65, &[(64, 0), (0, 64)]);
        assert!(!k.is_acyclic_rows(&small, 65, wpr_small));
        let (small_ok, _) = rows_from(65, &[(64, 0)]);
        assert!(k.is_acyclic_rows(&small_ok, 65, wpr_small));
    }

    #[test]
    fn mask_row_ops_match_reference_sets() {
        for n in [5usize, 64, 65, 129, 300] {
            let mut a = MaskRow::zero(n);
            let mut b = MaskRow::zero(n);
            for i in (0..n).step_by(3) {
                a.set(i);
            }
            for i in (0..n).step_by(2) {
                b.set(i);
            }
            let mut and = a.clone();
            and.and(&b);
            assert!(and.iter().all(|i| i % 6 == 0), "n={n}");
            assert_eq!(and.count(), n.div_ceil(6), "n={n}");
            let mut or = a.clone();
            or.or(&b);
            assert_eq!(or.count(), (0..n).filter(|i| i % 3 == 0 || i % 2 == 0).count());
            let mut diff = a.clone();
            diff.andnot(&b);
            assert!(diff.iter().all(|i| i % 3 == 0 && i % 2 != 0));
            assert!(!diff.test(0));
            assert!(a.test(0) && !a.test(1));
            assert!(!a.test(n + 64), "out-of-universe bits read unset");
        }
    }

    #[test]
    fn mask_row_stays_inline_up_to_256_bits() {
        assert!(matches!(MaskRow::zero(256), MaskRow::Small { len: 4, .. }));
        assert!(matches!(MaskRow::zero(257), MaskRow::Wide(_)));
        assert_eq!(MaskRow::zero(0).words(), &[] as &[u64]);
    }
}
