//! The Chisel LPM engine (paper Section 4): Bloomier-filter sub-cells with
//! prefix collapsing, exact false-positive elimination, and incremental
//! updates.
//!
//! The lookup data path per sub-cell is Figure 6 of the paper:
//!
//! ```text
//! key ──collapse──▶ Index Table (k-segment XOR) ──p──▶ Filter Table (== ?)
//!                                              └─p──▶ Bit-vector Table ─rank+ptr─▶ Result Table
//! ```
//!
//! - The **Index Table** is a [`chisel_bloomier::PartitionedBloomier`]
//!   encoding a pointer `p(t)` per collapsed prefix (Equation 4).
//! - The **Filter Table** stores the collapsed keys themselves, turning
//!   the Bloomier filter's probabilistic false positives into exact
//!   mismatch detection (Section 4.2).
//! - The **Bit-vector Table** disambiguates the collapsed bits with a
//!   `2^stride`-bit vector and a rank-indexed pointer into the off-chip
//!   **Result Table** (Section 4.3).
//! - Updates are applied incrementally through dirty bits, singleton
//!   inserts and partition-bounded re-setups (Section 4.4).
//!
//! See [`ChiselLpm`] for the user-facing API and [`ChiselConfig`] for the
//! design-point knobs.

pub mod batch;
mod bitvector;
mod concurrent;
mod config;
mod cow;
mod engine;
mod error;
pub mod faultpoint;
mod flowcache;
pub mod image;
pub mod journal;
mod result_table;
mod shadow;
pub mod snapshot;
pub mod stats;
mod subcell;
mod update;
pub mod verify;

pub use batch::{BatchPlan, BatchReport, PlannedOp, RouteUpdate};
pub use bitvector::LeafVector;
pub use concurrent::{CachedReader, EngineSnapshot, SharedChisel};
pub use config::ChiselConfig;
pub use engine::ChiselLpm;
pub use error::ChiselError;
pub use flowcache::FlowCache;
pub use image::{HardwareImage, ImageError};
pub use journal::{
    recover, recover_with_config, DurableControl, DurableError, DurableOptions, DurableStats,
    JournalError, JournalWriter, Recovered, RecoveryReport,
};
pub use result_table::{Block, ResultTable};
pub use shadow::GroupShadow;
pub use stats::{DegradedMode, EngineStats, LookupTrace, RecoveryStats, StorageBreakdown};
pub use update::{BatchStats, RecentWithdrawals, UpdateKind, UpdateStats};
pub use verify::{verify_image, VerifyReport, Violation};
