//! A full-2^32 bitmap set of IPv4 addresses, backed by the segmented
//! address plane ([`ghosts_addrplane::AddrPlane`]).

use crate::addr::Prefix;
use ghosts_addrplane::AddrPlane;

/// A set of IPv4 addresses stored as one bit per address in lazily
/// allocated one-page segments (one per populated /17).
///
/// Membership is a single word load; set algebra (union, intersection,
/// subtraction) and popcounts run a word at a time over the touched
/// word ranges only. The segment directory is a `BTreeMap`, so every
/// iteration over the set is in ascending address order by construction
/// — no iteration-order nondeterminism can reach derived output.
///
/// ```
/// use ghosts_net::{addr_from_str, AddrSet};
///
/// let mut seen = AddrSet::new();
/// seen.insert(addr_from_str("192.0.2.1").unwrap());
/// seen.insert(addr_from_str("192.0.2.200").unwrap());
/// assert_eq!(seen.len(), 2);
/// assert_eq!(seen.to_subnet24().len(), 1); // same /24
/// assert_eq!(seen.count_in_prefix("192.0.2.0/24".parse().unwrap()), 2);
/// ```
#[derive(Clone, Default)]
pub struct AddrSet {
    plane: AddrPlane,
}

impl AddrSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing address plane as a set.
    pub fn from_plane(plane: AddrPlane) -> Self {
        AddrSet { plane }
    }

    /// The backing bitmap plane (for word-wise kernels — e.g. the
    /// bitwise contingency build in `ghosts_core`).
    pub fn plane(&self) -> &AddrPlane {
        &self.plane
    }

    /// Mutable access to the backing plane (bulk ingest via
    /// `AddrPlane::or_word` / `AddrPlane::fill_prefix`).
    pub fn plane_mut(&mut self) -> &mut AddrPlane {
        &mut self.plane
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> u64 {
        self.plane.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.plane.is_empty()
    }

    /// Inserts an address; returns `true` if it was not already present.
    pub fn insert(&mut self, addr: u32) -> bool {
        self.plane.insert(addr)
    }

    /// Removes an address; returns `true` if it was present.
    pub fn remove(&mut self, addr: u32) -> bool {
        self.plane.remove(addr)
    }

    /// Membership test.
    pub fn contains(&self, addr: u32) -> bool {
        self.plane.contains(addr)
    }

    /// Merges `other` into `self` (set union).
    pub fn union_with(&mut self, other: &AddrSet) {
        self.plane.union_with(&other.plane);
    }

    /// Number of addresses present in both sets.
    pub fn intersection_count(&self, other: &AddrSet) -> u64 {
        self.plane.intersection_count(&other.plane)
    }

    /// The intersection of two sets as a new set.
    pub fn intersect(&self, other: &AddrSet) -> AddrSet {
        AddrSet {
            plane: self.plane.intersect(&other.plane),
        }
    }

    /// Removes from `self` every address present in `other`.
    pub fn subtract(&mut self, other: &AddrSet) {
        self.plane.subtract(&other.plane);
    }

    /// Number of set addresses inside `prefix` — a popcount over the
    /// prefix's word range (whole populated segments use their
    /// maintained counts).
    pub fn count_in_prefix(&self, prefix: Prefix) -> u64 {
        self.plane.count_in_prefix(prefix.base(), prefix.len())
    }

    /// Iterates addresses in ascending order (segments are kept sorted).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.plane.iter()
    }

    /// Keeps only addresses satisfying the predicate.
    pub fn retain<F: FnMut(u32) -> bool>(&mut self, f: F) {
        self.plane.retain(f);
    }

    /// Projects to the set of /24 subnets containing at least one
    /// address, by walking nonzero words (each word sits inside one /24).
    pub fn to_subnet24(&self) -> super::SubnetSet {
        let mut out = super::SubnetSet::new();
        self.plane.for_each_word(|word_base, _| {
            out.insert(word_base >> 8);
        });
        out
    }

    /// Per-/8 address counts (index = first octet).
    pub fn per_octet_counts(&self) -> [u64; 256] {
        self.plane.per_octet_counts()
    }
}

impl FromIterator<u32> for AddrSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        AddrSet {
            plane: iter.into_iter().collect(),
        }
    }
}

impl Extend<u32> for AddrSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        self.plane.extend(iter);
    }
}

impl std::fmt::Debug for AddrSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AddrSet {{ len: {}, segments: {} }}",
            self.plane.len(),
            self.plane.segment_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::addr_from_str;

    fn a(s: &str) -> u32 {
        addr_from_str(s).unwrap()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = AddrSet::new();
        assert!(s.insert(a("10.0.0.1")));
        assert!(!s.insert(a("10.0.0.1")));
        assert!(s.contains(a("10.0.0.1")));
        assert!(!s.contains(a("10.0.0.2")));
        assert_eq!(s.len(), 1);
        assert!(s.remove(a("10.0.0.1")));
        assert!(!s.remove(a("10.0.0.1")));
        assert!(s.is_empty());
    }

    #[test]
    fn boundary_addresses() {
        let mut s = AddrSet::new();
        s.insert(0);
        s.insert(u32::MAX);
        s.insert(a("0.0.255.255"));
        s.insert(a("0.1.0.0"));
        s.insert(a("0.255.255.255")); // segment boundary
        s.insert(a("1.0.0.0"));
        assert_eq!(s.len(), 6);
        assert!(s.contains(0) && s.contains(u32::MAX));
        let all: Vec<u32> = s.iter().collect();
        assert_eq!(all, vec![0, 65535, 65536, (1 << 24) - 1, 1 << 24, u32::MAX]);
    }

    #[test]
    fn union_and_intersection() {
        let s1: AddrSet = [1u32, 2, 3, 100_000].into_iter().collect();
        let s2: AddrSet = [3u32, 4, 100_000, 9_000_000].into_iter().collect();
        assert_eq!(s1.intersection_count(&s2), 2);
        assert_eq!(s2.intersection_count(&s1), 2);
        let mut u = s1.clone();
        u.union_with(&s2);
        assert_eq!(u.len(), 6);
        for &x in &[1u32, 2, 3, 4, 100_000, 9_000_000] {
            assert!(u.contains(x));
        }
    }

    #[test]
    fn intersect_builds_common_set() {
        let s1: AddrSet = [1u32, 2, 3, 100_000].into_iter().collect();
        let s2: AddrSet = [2u32, 3, 100_000, 9_000_000].into_iter().collect();
        let i = s1.intersect(&s2);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3, 100_000]);
        assert_eq!(i.len(), s1.intersection_count(&s2));
        // Intersection with an empty set is empty.
        assert!(s1.intersect(&AddrSet::new()).is_empty());
    }

    #[test]
    fn subtract_removes_and_prunes() {
        let mut s: AddrSet = [1u32, 2, 3].into_iter().collect();
        let t: AddrSet = [2u32, 3, 4].into_iter().collect();
        s.subtract(&t);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
        // Subtracting everything empties the set.
        let t2: AddrSet = [1u32].into_iter().collect();
        s.subtract(&t2);
        assert!(s.is_empty());
        assert_eq!(
            s.plane().segment_count(),
            0,
            "empty segments must be pruned"
        );
    }

    #[test]
    fn count_in_prefix_various_lengths() {
        let mut s = AddrSet::new();
        for &addr in &[
            "10.0.0.1",
            "10.0.0.200",
            "10.0.1.7",
            "10.128.0.1",
            "11.0.0.1",
        ] {
            s.insert(a(addr));
        }
        assert_eq!(s.count_in_prefix("10.0.0.0/8".parse().unwrap()), 4);
        assert_eq!(s.count_in_prefix("10.0.0.0/24".parse().unwrap()), 2);
        assert_eq!(s.count_in_prefix("10.0.0.0/16".parse().unwrap()), 3);
        assert_eq!(s.count_in_prefix("10.0.0.0/31".parse().unwrap()), 1);
        assert_eq!(s.count_in_prefix("10.0.0.1/32".parse().unwrap()), 1);
        assert_eq!(s.count_in_prefix("10.0.0.2/32".parse().unwrap()), 0);
        assert_eq!(s.count_in_prefix(Prefix::whole_space()), 5);
        assert_eq!(s.count_in_prefix("12.0.0.0/8".parse().unwrap()), 0);
        // Wider than one /8: the count spans segments.
        assert_eq!(s.count_in_prefix("10.0.0.0/7".parse().unwrap()), 5);
    }

    #[test]
    fn projection_to_subnets() {
        let mut s = AddrSet::new();
        s.insert(a("10.0.0.1"));
        s.insert(a("10.0.0.200")); // same /24
        s.insert(a("10.0.1.1"));
        s.insert(a("172.16.5.9"));
        s.insert(0);
        s.insert(u32::MAX);
        let subs = s.to_subnet24();
        assert_eq!(
            subs.iter().collect::<Vec<_>>(),
            vec![
                0,
                a("10.0.0.0") >> 8,
                a("10.0.1.0") >> 8,
                a("172.16.5.0") >> 8,
                (1 << 24) - 1
            ]
        );
    }

    #[test]
    fn retain_filters() {
        let mut s: AddrSet = (0u32..100).collect();
        s.retain(|x| x % 2 == 0);
        assert_eq!(s.len(), 50);
        assert!(s.contains(42) && !s.contains(43));
    }

    #[test]
    fn per_octet_counts_bucketize() {
        let mut s = AddrSet::new();
        s.insert(a("10.1.2.3"));
        s.insert(a("10.200.2.3"));
        s.insert(a("53.0.0.1"));
        let counts = s.per_octet_counts();
        assert_eq!(counts[10], 2);
        assert_eq!(counts[53], 1);
        assert_eq!(counts[11], 0);
    }

    #[test]
    fn iter_sorted_and_complete() {
        let addrs = [9u32, 5, 70_000, 3, u32::MAX, 65_536];
        let s: AddrSet = addrs.iter().copied().collect();
        let got: Vec<u32> = s.iter().collect();
        let mut want = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn union_with_overlapping_chunks_maintains_len() {
        let mut s1: AddrSet = (0u32..1000).collect();
        let s2: AddrSet = (500u32..1500).collect();
        s1.union_with(&s2);
        assert_eq!(s1.len(), 1500);
        assert_eq!(s1.iter().count() as u64, s1.len());
    }

    #[test]
    fn plane_round_trip() {
        let s: AddrSet = [1u32, 2, 0x0a00_0000].into_iter().collect();
        let t = AddrSet::from_plane(s.plane().clone());
        assert_eq!(t.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
    }
}
