//! # ghosts-addrplane
//!
//! A dependency-free bitmap plane over the full IPv4 space for the
//! *Capturing Ghosts* reproduction (Zander, Andrew & Armitage, IMC
//! 2014). One bit per address, one-page (4 KiB, /17) segments allocated
//! lazily on the first set bit, and every data structure iterates in
//! ascending address order by construction:
//!
//! * [`AddrPlane`] — the segmented bitmap with word-wise boolean
//!   kernels (AND/OR/XOR/AND-NOT), popcounts per arbitrary range or
//!   prefix, bulk word ingest, and a set-bit iterator.
//! * [`contingency_counts`] — the bitwise 2^t kernel: all
//!   capture-history cells of `t` source planes from one walk over
//!   their shared words, bit-identical to the per-address construction;
//!   [`stratified_contingency_counts`] splits the same walk by stratum.
//! * [`PrefixPlane`] — a compact index-based binary trie answering
//!   longest-prefix match (by prefix or by insertion ordinal) and
//!   per-prefix covered-address counts for routing, registry lookups
//!   and truncation.
//!
//! The crate sits at the bottom of the workspace stack (below
//! `ghosts-net`) and deliberately depends on nothing, so every layer —
//! sets, pipelines, the estimator, the simulator, and the server — can
//! share one address-plane substrate without dependency cycles. A plane
//! is a bitmap over any `u32` id space: `ghosts_net`'s address sets use
//! it over addresses and its /24 subnet sets over subnet ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contingency;
pub mod plane;
pub mod prefix;

pub use contingency::{contingency_counts, stratified_contingency_counts, MAX_SOURCES};
pub use plane::{AddrPlane, SEG_BITS, SEG_WORDS};
pub use prefix::PrefixPlane;
