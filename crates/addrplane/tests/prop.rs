//! Property-based tests: the segmented bitmap plane against a
//! `BTreeSet<u32>` reference model under random operation sequences, and
//! segment-boundary edge cases the random strategies would rarely reach.

use ghosts_addrplane::{AddrPlane, SEG_BITS};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Addresses drawn so sequences collide, straddle segment boundaries
/// (`2^15` and the /8 seam `2^24`), and touch both extremes of the space.
fn addr_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0x0000_7f00u32..0x0000_8100u32, // straddles segment 0 → 1
        0x00ff_ff00u32..0x0100_0100u32, // straddles the first /8 seam
        0x0a00_0000u32..0x0a00_0400u32, // dense cluster inside one /8
        Just(0u32),
        Just(u32::MAX),
        any::<u32>(),
    ]
}

/// Operations for the set-model property.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    Union(Vec<u32>),
    Intersect(Vec<u32>),
    Subtract(Vec<u32>),
    PopcountPrefix(u32, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let small = || proptest::collection::vec(addr_strategy(), 0..40);
    prop_oneof![
        addr_strategy().prop_map(Op::Insert),
        addr_strategy().prop_map(Op::Remove),
        small().prop_map(Op::Union),
        small().prop_map(Op::Intersect),
        small().prop_map(Op::Subtract),
        // Prefix length derived from the address so one draw covers both.
        addr_strategy().prop_map(|a| Op::PopcountPrefix(a, (a % 33) as u8)),
    ]
}

fn model_count_in_prefix(model: &BTreeSet<u32>, base: u32, len: u8) -> u64 {
    if len == 0 {
        return model.len() as u64;
    }
    let shift = 32 - u32::from(len);
    let lo = (base >> shift) << shift;
    // Two-step shift: `u32::MAX >> 32` would overflow at len == 32.
    let hi = lo | (u32::MAX >> (u32::from(len) - 1) >> 1);
    model.range(lo..=hi).count() as u64
}

proptest! {
    #[test]
    fn plane_matches_btreeset_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut plane = AddrPlane::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(a) => prop_assert_eq!(plane.insert(a), model.insert(a)),
                Op::Remove(a) => prop_assert_eq!(plane.remove(a), model.remove(&a)),
                Op::Union(addrs) => {
                    let other: AddrPlane = addrs.iter().copied().collect();
                    plane.union_with(&other);
                    model.extend(addrs);
                }
                Op::Intersect(addrs) => {
                    let other: AddrPlane = addrs.iter().copied().collect();
                    let keep: BTreeSet<u32> = addrs.into_iter().collect();
                    prop_assert_eq!(
                        plane.intersection_count(&other),
                        model.intersection(&keep).count() as u64
                    );
                    plane = plane.intersect(&other);
                    model = model.intersection(&keep).copied().collect();
                }
                Op::Subtract(addrs) => {
                    let other: AddrPlane = addrs.iter().copied().collect();
                    let drop: BTreeSet<u32> = addrs.into_iter().collect();
                    plane.subtract(&other);
                    model = model.difference(&drop).copied().collect();
                }
                Op::PopcountPrefix(base, len) => {
                    prop_assert_eq!(
                        plane.count_in_prefix(base, len),
                        model_count_in_prefix(&model, base, len),
                        "count_in_prefix({}, {})", base, len
                    );
                }
            }
            prop_assert_eq!(plane.len(), model.len() as u64);
        }
        prop_assert!(plane.iter().eq(model.iter().copied()), "iteration order diverged");
    }

    #[test]
    fn popcount_in_prefix_matches_model_everywhere(
        addrs in proptest::collection::vec(addr_strategy(), 0..300),
        base in addr_strategy(),
        len in 0u8..=32,
    ) {
        let addrs: BTreeSet<u32> = addrs.into_iter().collect();
        let plane: AddrPlane = addrs.iter().copied().collect();
        prop_assert_eq!(
            plane.count_in_prefix(base, len),
            model_count_in_prefix(&addrs, base, len)
        );
    }

    #[test]
    fn xor_is_symmetric_difference(
        a in proptest::collection::vec(addr_strategy(), 0..200),
        b in proptest::collection::vec(addr_strategy(), 0..200),
    ) {
        let a: BTreeSet<u32> = a.into_iter().collect();
        let b: BTreeSet<u32> = b.into_iter().collect();
        let mut plane: AddrPlane = a.iter().copied().collect();
        let pb: AddrPlane = b.iter().copied().collect();
        plane.xor_with(&pb);
        let want: BTreeSet<u32> = a.symmetric_difference(&b).copied().collect();
        prop_assert_eq!(plane.len(), want.len() as u64);
        prop_assert!(plane.iter().eq(want.iter().copied()));
    }
}

#[test]
fn segment_boundary_edge_cases() {
    let seg = SEG_BITS as u32;
    let mut p = AddrPlane::new();
    // Extremes of the space and both sides (±1) of the first and last
    // segment boundaries.
    for a in [
        0u32,
        1,
        seg - 2,
        seg - 1,
        seg,
        seg + 1,
        u32::MAX - seg,
        u32::MAX - seg + 1,
        u32::MAX - 1,
        u32::MAX,
    ] {
        assert!(p.insert(a), "fresh insert of {a}");
        assert!(p.contains(a));
    }
    assert_eq!(p.len(), 10);
    assert_eq!(p.segment_count(), 4); // first two and last two /17s
    assert_eq!(p.per_octet_counts()[0], 6);
    assert_eq!(p.per_octet_counts()[255], 4);

    // A /16 straddles no segment; a /14 spans four. Prefixes of length
    // ≥ 17 never straddle, so 0.0.126.0/23 ends right at the boundary.
    assert_eq!(p.count_in_prefix(0, 14), 6); // 0.0.0.0–0.3.255.255
    assert_eq!(p.count_in_prefix(0, 16), 6);
    assert_eq!(p.count_in_prefix(0, 17), 4);
    assert_eq!(p.count_in_prefix(seg, 17), 2);
    assert_eq!(p.count_in_prefix(seg - 512, 23), 2); // holds seg − 2, seg − 1
    assert_eq!(p.count_in_prefix(seg, 31), 2);
    assert_eq!(p.count_in_prefix(u32::MAX, 17), 3);
    assert_eq!(p.count_in_prefix(u32::MAX - seg, 17), 1);
    assert_eq!(p.count_in_prefix(u32::MAX, 8), 4);
    assert_eq!(p.count_range(seg - 1, seg), 2);
    assert_eq!(p.count_range(u32::MAX - seg, u32::MAX - seg + 1), 2);
    assert_eq!(p.count_in_prefix(0, 0), 10);
    assert_eq!(p.count_in_prefix(0, 32), 1);
    assert_eq!(p.count_in_prefix(u32::MAX, 32), 1);
}

#[test]
fn fill_prefix_straddling_segments_matches_per_bit() {
    // A /16 fill covers two whole segments; its count splits evenly at
    // the key boundary.
    let mut two = AddrPlane::new();
    assert_eq!(two.fill_prefix(0x0a00_0000, 16), 1 << 16);
    assert_eq!(two.segment_count(), 2);
    assert_eq!(two.count_range(0x0a00_7fff, 0x0a00_8000), 2);
    assert_eq!(two.count_in_prefix(0x0a00_8000, 17), 1 << 15);
    assert!(!two.contains(0x0a01_0000) && !two.contains(0x09ff_ffff));
    // 0.255.255.128/25: the last bits of the /8's last segment.
    let mut filled = AddrPlane::new();
    let added = filled.fill_prefix(0x00ff_ff80, 25);
    assert_eq!(added, 128);
    let mut per_bit = AddrPlane::new();
    for a in 0x00ff_ff80u32..=0x00ff_ffff {
        per_bit.insert(a);
    }
    assert_eq!(filled.len(), per_bit.len());
    assert!(filled.iter().eq(per_bit.iter()));
}
