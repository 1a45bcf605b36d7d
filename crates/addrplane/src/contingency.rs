//! The bitwise 2^t contingency kernel.
//!
//! The per-address way to build a capture-history table walks the union
//! of `t` source sets and probes each source per address — `O(union·t)`
//! set probes. Over bitmap planes the same table is a word problem: for
//! every 64-address word shared by any source, split the word's union
//! recursively by "in source *i*" / "not in source *i*" and popcount
//! the surviving bits at the leaves. Each leaf's accumulated mask *is*
//! the capture history, so `counts[mask] += popcount(acc)` builds all
//! `2^t` cells in one pass with no per-address loop. Branches whose
//! accumulator goes empty are pruned, which collapses the `2^t` factor
//! on sparse overlap.
//!
//! Cell 0 (the unobservable ghost cell) is structurally zero: every bit
//! fed to the recursion belongs to at least one source, so the all-"not
//! in" path always carries an empty accumulator.
//!
//! The stratified build ([`stratified_contingency_counts`], §3.4) rides
//! the same word walk: each union bit is assigned a stratum, and each
//! stratum's bits of the word go through the same split/sparse step into
//! that stratum's cells. The planes need not hold addresses: a /24
//! subnet plane (bit `i` = subnet id `i`) builds its tables the same way.

use crate::plane::{seg_base, AddrPlane};

/// Maximum number of sources a contingency build accepts; mirrors
/// `ghosts_core::MAX_SOURCES` (the `2^t` cell count makes larger `t`
/// statistically meaningless).
pub const MAX_SOURCES: usize = 16;

/// Words with at most this many bits to classify take the per-bit path:
/// a handful of shift/mask ops per bit beats the recursion's call tree
/// when almost every leaf would be empty anyway.
const SPARSE_BITS: u32 = 8;

/// Builds the `2^t` capture-history cell counts for `t` source planes.
///
/// `counts[mask]` is the number of addresses whose per-source
/// membership pattern is exactly `mask` (bit `i` ⇔ present in
/// `planes[i]`); `counts[0]` is always zero. The result is
/// bit-identical to iterating the union and probing each source per
/// address, because both compute the same exact partition.
///
/// # Panics
///
/// Panics unless `1 <= planes.len() <= MAX_SOURCES`.
pub fn contingency_counts(planes: &[&AddrPlane]) -> Vec<u64> {
    let t = checked_sources(planes);
    let mut counts = vec![0u64; 1usize << t];
    for_each_shared_word(planes, |_, words, union| tally(words, union, &mut counts));
    counts
}

/// Builds one set of `2^t` cell counts per stratum from the same word
/// walk as [`contingency_counts`]. `stratum_of` receives the plane bit
/// index of every set bit of the sources' union, once, in ascending
/// order, and names its stratum (`None` drops the bit). Consecutive bits
/// of one word that share a stratum are classified together by the
/// kernel's split/sparse step; each bit's capture history comes from the
/// words already loaded, never from per-source membership probes.
///
/// # Panics
///
/// Panics unless `1 <= planes.len() <= MAX_SOURCES`, and if `stratum_of`
/// returns `Some(i)` with `i >= n_strata`.
pub fn stratified_contingency_counts<F>(
    planes: &[&AddrPlane],
    n_strata: usize,
    mut stratum_of: F,
) -> Vec<Vec<u64>>
where
    F: FnMut(u32) -> Option<usize>,
{
    let t = checked_sources(planes);
    let mut counts = vec![vec![0u64; 1usize << t]; n_strata];
    for_each_shared_word(planes, |base, words, union| {
        // The open run: a stratum and the bits assigned to it so far.
        let mut run: Option<(usize, u64)> = None;
        let mut rem = union;
        while rem != 0 {
            let bit = rem & rem.wrapping_neg();
            let stratum = stratum_of(base | rem.trailing_zeros());
            rem &= rem - 1;
            match (run, stratum) {
                (Some((open, bits)), Some(s)) if open == s => run = Some((open, bits | bit)),
                _ => {
                    tally_run(run, words, &mut counts);
                    run = stratum.map(|s| (s, bit));
                }
            }
        }
        tally_run(run, words, &mut counts);
    });
    counts
}

/// `planes.len()`, checked against the accepted source range.
fn checked_sources(planes: &[&AddrPlane]) -> usize {
    let t = planes.len();
    assert!(
        (1..=MAX_SOURCES).contains(&t),
        "contingency_counts: t = {t} out of range"
    );
    t
}

/// The shared word walk: visits, in ascending order, every 64-bit word
/// position where at least one plane has a set bit, as
/// `f(first bit index, words, union)`. `words[i]` is plane `i`'s word
/// there (zero where it has none) and `union` their OR. Callers pass at
/// most `MAX_SOURCES` planes.
fn for_each_shared_word<F>(planes: &[&AddrPlane], mut f: F)
where
    F: FnMut(u32, &[u64], u64),
{
    let t = planes.len().min(MAX_SOURCES);
    let mut keys: Vec<u32> = planes.iter().flat_map(|p| p.segment_keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut srcs: Vec<(usize, &[u64])> = Vec::with_capacity(t);
    for key in keys {
        // Resolve each present source to its raw word slice once per
        // segment; the word loop then runs on plain slice loads.
        srcs.clear();
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for (i, p) in planes.iter().enumerate().take(t) {
            if let Some(seg) = p.segment(key) {
                let span = seg.word_span();
                lo = lo.min(span.start);
                hi = hi.max(span.end);
                srcs.push((i, seg.words_all()));
            }
        }
        // Fresh buffer per segment: sources absent from this segment must
        // not see stale words from the previous one.
        let mut words = [0u64; MAX_SOURCES];
        let seg_base = seg_base(key);
        for wi in lo..hi {
            let mut union = 0u64;
            for &(i, bits) in &srcs {
                let w = bits.get(wi).copied().unwrap_or(0);
                if let Some(slot) = words.get_mut(i) {
                    *slot = w;
                }
                union |= w;
            }
            if union != 0 {
                f(
                    seg_base | ((wi as u32) << 6),
                    words.get(..t).unwrap_or(&[]),
                    union,
                );
            }
        }
    }
}

/// Adds the capture history of every bit of `bits` (a subset of the OR
/// of `words`) to `counts`.
fn tally(words: &[u64], bits: u64, counts: &mut [u64]) {
    if bits.count_ones() <= SPARSE_BITS {
        let mut rem = bits;
        while rem != 0 {
            let b = rem.trailing_zeros();
            rem &= rem - 1;
            let mut mask = 0usize;
            for (i, w) in words.iter().enumerate() {
                mask |= (((w >> b) & 1) as usize) << i;
            }
            if let Some(cell) = counts.get_mut(mask) {
                *cell += 1;
            }
        }
    } else {
        split(words, bits, 0, 1, counts);
    }
}

/// Tallies a closed stratum run into its stratum's cells.
fn tally_run(run: Option<(usize, u64)>, words: &[u64], counts: &mut [Vec<u64>]) {
    if let Some((stratum, bits)) = run {
        let n = counts.len();
        assert!(
            stratum < n,
            "stratum {stratum} out of range (n_strata = {n})"
        );
        if let Some(cells) = counts.get_mut(stratum) {
            tally(words, bits, cells);
        }
    }
}

/// Recursive source-by-source refinement of one word. `acc` holds the
/// bits still matching the history prefix encoded in `mask`; `bit` is
/// the mask bit of the next source to split on.
fn split(words: &[u64], acc: u64, mask: usize, bit: usize, counts: &mut [u64]) {
    if acc == 0 {
        return;
    }
    match words.split_first() {
        None => {
            if let Some(cell) = counts.get_mut(mask) {
                *cell += u64::from(acc.count_ones());
            }
        }
        Some((&w, rest)) => {
            split(rest, acc & w, mask | bit, bit << 1, counts);
            split(rest, acc & !w, mask, bit << 1, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-address reference: iterate the union, probe each source.
    fn reference(planes: &[&AddrPlane]) -> Vec<u64> {
        let mut union = AddrPlane::new();
        for p in planes {
            union.union_with(p);
        }
        let mut counts = vec![0u64; 1usize << planes.len()];
        for addr in union.iter() {
            let mut mask = 0usize;
            for (i, p) in planes.iter().enumerate() {
                if p.contains(addr) {
                    mask |= 1 << i;
                }
            }
            counts[mask] += 1;
        }
        counts
    }

    #[test]
    fn matches_reference_on_small_overlap() {
        let a: AddrPlane = [1u32, 2, 3, 0x0900_0000].into_iter().collect();
        let b: AddrPlane = [2u32, 3, 4].into_iter().collect();
        let c: AddrPlane = [3u32, 4, 0xff00_0001].into_iter().collect();
        let planes = [&a, &b, &c];
        assert_eq!(contingency_counts(&planes), reference(&planes));
    }

    #[test]
    fn ghost_cell_is_structurally_zero_and_totals_add_up() {
        let a: AddrPlane = (0u32..1000).collect();
        let b: AddrPlane = (500u32..1500).collect();
        let counts = contingency_counts(&[&a, &b]);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[0b01], 500);
        assert_eq!(counts[0b10], 500);
        assert_eq!(counts[0b11], 500);
    }

    #[test]
    fn single_source_counts_itself() {
        let a: AddrPlane = [7u32, 8, u32::MAX].into_iter().collect();
        assert_eq!(contingency_counts(&[&a]), vec![0, 3]);
    }

    #[test]
    fn segment_straddling_sources_match_reference() {
        // Sources spanning several /8s with boundary addresses.
        let a: AddrPlane = [0u32, (1 << 24) - 1, 1 << 24, u32::MAX]
            .into_iter()
            .collect();
        let b: AddrPlane = [(1u32 << 24) - 1, 1 << 24, 0x7f00_0001]
            .into_iter()
            .collect();
        let planes = [&a, &b];
        assert_eq!(contingency_counts(&planes), reference(&planes));
    }

    /// Per-stratum reference: each stratum's table from planes
    /// restricted to that stratum's bits.
    fn stratified_reference(
        planes: &[&AddrPlane],
        n: usize,
        key: impl Fn(u32) -> Option<usize>,
    ) -> Vec<Vec<u64>> {
        (0..n)
            .map(|s| {
                let kept: Vec<AddrPlane> = planes
                    .iter()
                    .map(|p| {
                        let mut q = (*p).clone();
                        q.retain(|a| key(a) == Some(s));
                        q
                    })
                    .collect();
                let refs: Vec<&AddrPlane> = kept.iter().collect();
                reference(&refs)
            })
            .collect()
    }

    #[test]
    fn stratified_matches_reference_per_stratum() {
        // Dense words (split path), sparse words (per-bit path), strata
        // that change inside a word, and dropped bits.
        let a: AddrPlane = (0u32..200).chain([0x0900_0001, u32::MAX]).collect();
        let b: AddrPlane = (100u32..300).step_by(3).chain([0x0900_0001]).collect();
        let c: AddrPlane = (50u32..250).step_by(2).chain([u32::MAX - 1]).collect();
        let planes = [&a, &b, &c];
        let key = |x: u32| match x % 7 {
            0 => None,
            r if x < 128 => Some(usize::from(r < 4)),
            _ => Some(2),
        };
        let got = stratified_contingency_counts(&planes, 3, key);
        assert_eq!(got, stratified_reference(&planes, 3, key));
        // One stratum holding everything is the unstratified table.
        let all = stratified_contingency_counts(&planes, 1, |_| Some(0));
        assert_eq!(all, vec![contingency_counts(&planes)]);
    }

    #[test]
    fn stratum_key_sees_each_union_bit_once_in_order() {
        let a: AddrPlane = [5u32, 6, 0x0a00_0000].into_iter().collect();
        let b: AddrPlane = [6u32, 7].into_iter().collect();
        let mut seen = Vec::new();
        stratified_contingency_counts(&[&a, &b], 1, |x| {
            seen.push(x);
            None
        });
        assert_eq!(seen, vec![5, 6, 7, 0x0a00_0000]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_stratum_rejected() {
        let a: AddrPlane = [1u32].into_iter().collect();
        stratified_contingency_counts(&[&a], 1, |_| Some(1));
    }

    #[test]
    #[should_panic]
    fn zero_sources_rejected() {
        contingency_counts(&[]);
    }
}
