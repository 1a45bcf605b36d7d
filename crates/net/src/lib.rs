//! # ghosts-net
//!
//! IPv4 address-space substrate for the *Capturing Ghosts* reproduction
//! (Zander, Andrew & Armitage, IMC 2014):
//!
//! * [`addr`] — addresses as `u32`, CIDR [`Prefix`] algebra.
//! * [`set`] — compact [`AddrSet`] / [`SubnetSet`] bitmaps holding per-source
//!   observations at Internet scale, both façades over the segmented
//!   address plane (`ghosts_addrplane::AddrPlane`): one over addresses,
//!   one over /24 subnet ids.
//! * [`routed`] — the aggregated publicly routed table (§4.4, §6.1),
//!   backed by the compact `ghosts_addrplane::PrefixPlane` trie.
//! * [`registry`] — RIR delegations with country/industry/age attributes for
//!   stratification (§3.4), indexed by a `ghosts_addrplane::PrefixPlane`.
//! * [`bogons`] — reserved space and the allocatable universe (§7.1).
//! * [`freeblocks`] — maximal-free-block census and the §7.1 `A`-matrix
//!   relation between censuses and additions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bogons;
pub mod freeblocks;
pub mod registry;
pub mod routed;
pub mod set;
#[cfg(test)]
mod trie;

pub use addr::{addr_from_str, addr_to_string, Prefix};
pub use registry::{Allocation, AllocationId, CountryCode, Industry, Registry, Rir};
pub use routed::RoutedTable;
pub use set::{AddrSet, SubnetSet};
