//! Prefix-trie behaviour that `ghosts-net` relies on.
//!
//! [`Registry`](crate::Registry) and [`RoutedTable`](crate::RoutedTable)
//! both index prefixes with [`ghosts_addrplane::PrefixPlane`]. These tests
//! pin that trie against this crate's [`Prefix`] type: longest-prefix match
//! by insertion ordinal (the registry's allocation id), default and host
//! routes, lexicographic iteration, and union counts.

#[cfg(test)]
mod tests {
    use crate::addr::Prefix;
    use ghosts_addrplane::PrefixPlane;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        crate::addr::addr_from_str(s).unwrap()
    }

    fn insert(t: &mut PrefixPlane, prefix: Prefix) -> bool {
        t.insert(prefix.base(), prefix.len())
    }

    fn longest(t: &PrefixPlane, addr: u32) -> Option<(Prefix, u32)> {
        let (base, len) = t.longest_match(addr)?;
        let ordinal = t.longest_match_ordinal(addr)?;
        Some((Prefix::new(base, len), ordinal))
    }

    #[test]
    fn longest_prefix_match() {
        let mut t = PrefixPlane::new();
        insert(&mut t, p("10.0.0.0/8"));
        insert(&mut t, p("10.1.0.0/16"));
        insert(&mut t, p("10.1.2.0/24"));
        assert_eq!(longest(&t, a("10.1.2.3")), Some((p("10.1.2.0/24"), 2)));
        assert_eq!(longest(&t, a("10.1.9.9")), Some((p("10.1.0.0/16"), 1)));
        assert_eq!(longest(&t, a("10.200.0.1")), Some((p("10.0.0.0/8"), 0)));
        assert!(longest(&t, a("11.0.0.0")).is_none());
        assert!(t.contains_addr(a("10.7.7.7")));
        assert!(!t.contains_addr(a("9.9.9.9")));
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixPlane::new();
        insert(&mut t, Prefix::whole_space());
        assert!(t.contains_addr(0));
        assert!(t.contains_addr(u32::MAX));
        assert_eq!(longest(&t, u32::MAX), Some((Prefix::whole_space(), 0)));
    }

    #[test]
    fn host_route_exactness() {
        let mut t = PrefixPlane::new();
        insert(&mut t, p("1.2.3.4/32"));
        assert!(t.contains_addr(a("1.2.3.4")));
        assert!(!t.contains_addr(a("1.2.3.5")));
        assert_eq!(longest(&t, a("1.2.3.4")), Some((p("1.2.3.4/32"), 0)));
    }

    #[test]
    fn iteration_in_order() {
        let mut t = PrefixPlane::new();
        insert(&mut t, p("192.0.0.0/8"));
        insert(&mut t, p("10.0.0.0/8"));
        insert(&mut t, p("10.1.0.0/16"));
        let mut got = Vec::new();
        t.for_each(|base, len| got.push(Prefix::new(base, len)));
        assert_eq!(
            got,
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.0.0.0/8")]
        );
    }

    #[test]
    fn union_counts_dedupe_nesting() {
        let mut t = PrefixPlane::new();
        insert(&mut t, p("10.0.0.0/8"));
        insert(&mut t, p("10.1.0.0/16")); // nested — must not double count
        insert(&mut t, p("192.168.0.0/24"));
        assert_eq!(t.union_address_count(), (1 << 24) + 256);
        assert_eq!(t.union_subnet24_count(), 65536 + 1);
    }

    #[test]
    fn union_counts_subnet_partial_cover() {
        let mut t = PrefixPlane::new();
        insert(&mut t, p("1.2.3.128/25"));
        insert(&mut t, p("1.2.3.0/26")); // both halves of the same /24
        assert_eq!(t.union_subnet24_count(), 1);
        assert_eq!(t.union_address_count(), 128 + 64);
    }
}
