//! Property-based tests for the IPv4 substrate: the bitmap sets against
//! `HashSet`/`BTreeSet` reference models, prefix algebra laws, and the
//! free-block census identity `x' − x = A·n`.

// The reference model deliberately uses HashSet: its semantics (not its
// iteration order) are what AddrSet is checked against.
#![allow(clippy::disallowed_types)]

use ghosts_net::freeblocks::{additions_by_block_size, apply_additions, free_block_census};
use ghosts_net::{AddrSet, Prefix, SubnetSet};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

/// Operations for the set-model property.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    Contains(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Cluster addresses into a narrow range so collisions happen.
    let addr = 0x0a000000u32..0x0a000400u32;
    prop_oneof![
        addr.clone().prop_map(Op::Insert),
        addr.clone().prop_map(Op::Remove),
        addr.prop_map(Op::Contains),
    ]
}

/// One past the largest /24 subnet id.
const SUBNETS: u32 = 1 << 24;

/// Operations for the `SubnetSet` model property.
#[derive(Debug, Clone)]
enum SubOp {
    Insert(u32),
    Remove(u32),
    Contains(u32),
    Union(Vec<u32>),
    Intersect(Vec<u32>),
    Subtract(Vec<u32>),
    CountInPrefix(u32, u8),
    /// `contains`/`remove` of an id at or above 2^24.
    OutOfRange(u32),
}

/// Subnet ids clustered at both ends of the id space (so words collide
/// and the extreme ids 0 and 2^24−1 recur), plus uniform ones.
fn subnet_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(SUBNETS - 1),
        0u32..300,
        SUBNETS - 300..SUBNETS,
        0u32..SUBNETS,
    ]
}

fn sub_op_strategy() -> impl Strategy<Value = SubOp> {
    let ids = || proptest::collection::vec(subnet_id(), 0..40);
    prop_oneof![
        subnet_id().prop_map(SubOp::Insert),
        subnet_id().prop_map(SubOp::Remove),
        subnet_id().prop_map(SubOp::Contains),
        ids().prop_map(SubOp::Union),
        ids().prop_map(SubOp::Intersect),
        ids().prop_map(SubOp::Subtract),
        // A base subnet and a length in /0–/24 (the shim has no tuple
        // strategies, so both come from a pair of ids).
        proptest::collection::vec(subnet_id(), 2usize)
            .prop_map(|v| SubOp::CountInPrefix(v[0] << 8, (v[1] % 25) as u8)),
        (SUBNETS..=u32::MAX).prop_map(SubOp::OutOfRange),
    ]
}

proptest! {
    #[test]
    fn subnetset_matches_btreeset_model(ops in proptest::collection::vec(sub_op_strategy(), 1..120)) {
        let mut set = SubnetSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                SubOp::Insert(id) => prop_assert_eq!(set.insert(id), model.insert(id)),
                SubOp::Remove(id) => prop_assert_eq!(set.remove(id), model.remove(&id)),
                SubOp::Contains(id) => {
                    prop_assert_eq!(set.contains(id), model.contains(&id));
                    prop_assert_eq!(set.contains_addr(id << 8 | 0x7f), model.contains(&id));
                }
                SubOp::Union(ids) => {
                    set.union_with(&ids.iter().copied().collect());
                    model.extend(ids);
                }
                SubOp::Intersect(ids) => {
                    let other: SubnetSet = ids.iter().copied().collect();
                    let other_model: BTreeSet<u32> = ids.into_iter().collect();
                    let want: BTreeSet<u32> = model.intersection(&other_model).copied().collect();
                    prop_assert_eq!(set.intersection_count(&other), want.len() as u64);
                    set = set.intersect(&other);
                    model = want;
                }
                SubOp::Subtract(ids) => {
                    set.subtract(&ids.iter().copied().collect());
                    for id in ids {
                        model.remove(&id);
                    }
                }
                SubOp::CountInPrefix(base, len) => {
                    let prefix = Prefix::new(base, len);
                    let want = model.iter().filter(|&&id| prefix.contains(id << 8)).count();
                    prop_assert_eq!(set.count_in_prefix(prefix), want as u64);
                }
                SubOp::OutOfRange(id) => {
                    prop_assert!(!set.contains(id));
                    prop_assert!(!set.remove(id));
                }
            }
            prop_assert_eq!(set.len(), model.len() as u64);
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn addrset_matches_hashset_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut set = AddrSet::new();
        let mut model: HashSet<u32> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(a) => prop_assert_eq!(set.insert(a), model.insert(a)),
                Op::Remove(a) => prop_assert_eq!(set.remove(a), model.remove(&a)),
                Op::Contains(a) => prop_assert_eq!(set.contains(a), model.contains(&a)),
            }
            prop_assert_eq!(set.len(), model.len() as u64);
        }
        // Final iteration agrees with the model, sorted.
        let mut want: Vec<u32> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn addrset_algebra_laws(
        a in proptest::collection::hash_set(0u32..5000, 0..300),
        b in proptest::collection::hash_set(0u32..5000, 0..300),
    ) {
        let sa: AddrSet = a.iter().copied().collect();
        let sb: AddrSet = b.iter().copied().collect();
        // |A ∪ B| = |A| + |B| − |A ∩ B|
        let mut u = sa.clone();
        u.union_with(&sb);
        let inter = sa.intersection_count(&sb);
        prop_assert_eq!(u.len(), sa.len() + sb.len() - inter);
        // intersect() materialises exactly intersection_count elements.
        let i = sa.intersect(&sb);
        prop_assert_eq!(i.len(), inter);
        for addr in i.iter() {
            prop_assert!(sa.contains(addr) && sb.contains(addr));
        }
        // A \ B ∪ (A ∩ B) = A
        let mut diff = sa.clone();
        diff.subtract(&sb);
        prop_assert_eq!(diff.len() + inter, sa.len());
    }

    #[test]
    fn subnet_projection_counts(addrs in proptest::collection::hash_set(0u32..2_000_000, 0..400)) {
        let set: AddrSet = addrs.iter().copied().collect();
        let subs: SubnetSet = set.to_subnet24();
        let want: HashSet<u32> = addrs.iter().map(|a| a >> 8).collect();
        prop_assert_eq!(subs.len(), want.len() as u64);
        for s in want {
            prop_assert!(subs.contains(s));
        }
    }

    #[test]
    fn count_in_prefix_matches_filter(
        addrs in proptest::collection::hash_set(0u32..100_000, 0..300),
        base in 0u32..100_000,
        len in 12u8..=32,
    ) {
        let set: AddrSet = addrs.iter().copied().collect();
        let prefix = Prefix::new(base, len);
        let want = addrs.iter().filter(|&&a| prefix.contains(a)).count() as u64;
        prop_assert_eq!(set.count_in_prefix(prefix), want);
    }

    #[test]
    fn prefix_parent_child_roundtrip(base in any::<u32>(), len in 1u8..=32) {
        let p = Prefix::new(base, len);
        let parent = p.parent().unwrap();
        prop_assert!(parent.contains_prefix(&p));
        let (l, r) = parent.children().unwrap();
        prop_assert!(l == p || r == p);
        prop_assert_eq!(l.num_addresses() + r.num_addresses(), parent.num_addresses());
        // Sibling relation is an involution.
        if let Some(s) = p.sibling() {
            prop_assert_eq!(s.sibling().unwrap(), p);
            prop_assert_ne!(s, p);
            prop_assert_eq!(s.parent(), p.parent());
        }
    }

    #[test]
    fn prefix_split_partitions(base in any::<u32>(), len in 8u8..=20, extra in 0u8..=6) {
        let p = Prefix::new(base, len);
        let target = len + extra;
        let parts: Vec<Prefix> = p.split_into(target).collect();
        prop_assert_eq!(parts.len(), 1usize << extra);
        let total: u64 = parts.iter().map(|q| q.num_addresses()).sum();
        prop_assert_eq!(total, p.num_addresses());
        for q in &parts {
            prop_assert!(p.contains_prefix(q));
        }
        // Disjoint and ordered.
        for w in parts.windows(2) {
            prop_assert!(w[0].last_address() < w[1].base());
        }
    }

    /// The free-block census obeys the §7.1 relation under random growth:
    /// recovering n from the census delta and replaying it reproduces the
    /// after-census exactly, and the total additions equal the number of
    /// *newly used maximal-vacancy fills* (each insert fills exactly one).
    #[test]
    fn freeblock_census_identity(
        first in proptest::collection::hash_set(0u32..65_536, 1..60),
        second in proptest::collection::hash_set(0u32..65_536, 1..60),
    ) {
        let universe = [Prefix::new(0x0b000000, 16)];
        let base = 0x0b000000u32;
        let s1: AddrSet = first.iter().map(|o| base + o).collect();
        let mut s2 = s1.clone();
        for o in &second {
            s2.insert(base + o);
        }
        let x1 = free_block_census(&universe, &|p| s1.count_in_prefix(p), 32);
        let x2 = free_block_census(&universe, &|p| s2.count_in_prefix(p), 32);
        let n = additions_by_block_size(&x1, &x2);
        // Replay matches exactly.
        let replayed = apply_additions(&x1, &n);
        for (len, (r, want)) in replayed.iter().zip(x2.iter()).enumerate() {
            prop_assert!((r - *want as f64).abs() < 1e-6,
                "len {}: {} vs {}", len, r, want);
        }
        // Total additions = number of genuinely new addresses.
        let new_addrs = s2.len() - s1.len();
        let placed: f64 = n.iter().sum();
        prop_assert!((placed - new_addrs as f64).abs() < 1e-6,
            "placed {} of {}", placed, new_addrs);
        // All counts non-negative.
        for (len, v) in n.iter().enumerate() {
            prop_assert!(*v >= -1e-9, "negative n at {}", len);
        }
    }
}
