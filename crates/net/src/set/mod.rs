//! Compact sets of IPv4 addresses and /24 subnets.
//!
//! Capture–recapture consumes, per source and time window, the *set* of
//! observed identifiers. At Internet scale a `HashSet<u32>` costs tens of
//! bytes per element; measurement sources observe hundreds of millions of
//! addresses, so the workspace uses bitmaps instead:
//!
//! * [`AddrSet`] — a view over the full-2^32 segmented bitmap plane
//!   (`ghosts_addrplane::AddrPlane`): one bit per address in lazily
//!   allocated 4 KiB segments, one per populated /17. Densely used space
//!   costs one bit per address; unused /17s cost nothing.
//! * [`SubnetSet`] — the same plane over the 2²⁴ possible /24 subnet ids
//!   (a /24 is "used" if any of its addresses is, §4): subnet id `i` is
//!   bit `i`, so the whole /24 space is the plane's first /8.

mod addr_set;
mod subnet_set;

pub use addr_set::AddrSet;
pub use subnet_set::SubnetSet;
