//! # seeker-trace
//!
//! Check-in trace substrate for the FriendSeeker reproduction: the data
//! model of Definitions 1–5 of the paper (POIs, check-ins, trajectories,
//! social graphs), a SNAP-format loader for the real Gowalla/Brightkite
//! dumps, a synthetic MSN trace generator, and the empirical statistics of
//! §II-C (Table I, Table II, Fig. 1).
//!
//! ## Quickstart
//!
//! ```
//! use seeker_trace::synth::{generate, SyntheticConfig};
//! use seeker_trace::stats;
//!
//! let trace = generate(&SyntheticConfig::small(42))?;
//! let s = stats::basic_stats(&trace.dataset);
//! assert!(s.n_checkins > s.n_users); // everyone checks in at least twice
//! # Ok::<(), seeker_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod dataset;
mod error;
/// GeoJSON export of traces for visual inspection.
pub mod geojson;
/// Per-user mobility summaries (radius of gyration, etc.).
pub mod mobility;
/// Loader for SNAP-format check-in/edge dumps.
pub mod snap;
mod sorted;
/// Dataset statistics of §II-C.
pub mod stats;
/// Streaming synthetic-world generation (O(users)-memory emission).
pub mod stream;
/// Synthetic MSN trace generator.
pub mod synth;
mod types;

/// The check-in dataset container.
pub use dataset::{BoundingBox, Dataset, DatasetBuilder};
/// Typed trace errors.
pub use error::{Result, TraceError};
/// In-place merge of a sorted batch into a sorted vector.
pub use sorted::merge_sorted_by_key;
/// Core identifiers and record types (Definitions 1–3).
pub use types::{CheckIn, GeoPoint, Poi, PoiId, Timestamp, UserId, UserPair};
