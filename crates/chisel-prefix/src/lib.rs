//! Prefix and routing-table substrate for the Chisel LPM reproduction.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace:
//!
//! - [`Prefix`]: an IPv4/IPv6 prefix — a bit string of explicit length
//!   followed by implicit wildcard bits.
//! - [`Key`]: a fully-specified lookup key (a complete address).
//! - [`RoutingTable`]: a deduplicated set of [`RouteEntry`] values.
//! - [`RouteUpdate`]: one BGP announce or withdraw.
//! - [`cpe`]: Controlled Prefix Expansion (Srinivasan & Varghese), the
//!   baseline wildcard-support transform the paper compares against.
//! - [`collapse`]: prefix collapsing, the paper's novel transform
//!   (Section 4.3), including the greedy stride-plan algorithm.
//! - [`oracle`]: a simple, obviously-correct LPM implementation used as the
//!   test oracle for every engine in the workspace.
//!
//! # Example
//!
//! ```
//! use chisel_prefix::{Prefix, Key, RoutingTable, NextHop, oracle::OracleLpm};
//!
//! # fn main() -> Result<(), chisel_prefix::PrefixError> {
//! let mut table = RoutingTable::new_v4();
//! table.insert("10.0.0.0/8".parse()?, NextHop::new(1));
//! table.insert("10.1.0.0/16".parse()?, NextHop::new(2));
//!
//! let oracle = OracleLpm::from_table(&table);
//! let key: Key = "10.1.2.3".parse()?;
//! assert_eq!(oracle.lookup(key), Some(NextHop::new(2)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bits;
pub mod collapse;
pub mod cpe;
mod error;
pub mod io;
mod key;
mod nexthop;
pub mod oracle;
pub mod parallel;
mod prefix;
mod route;
#[cfg(feature = "serde")]
mod serde_impls;
mod table;

pub use error::PrefixError;
pub use key::Key;
pub use nexthop::NextHop;
pub use prefix::{AddressFamily, Prefix};
pub use route::{RouteEntry, RouteUpdate};
pub use table::{LengthHistogram, RoutingTable};
