//! # seeker-serve
//!
//! A long-lived incremental FriendSeeker attack service: a std-only
//! threaded TCP server wrapping [`friendseeker::IncrementalAttack`].
//!
//! The service exposes five operations over length-prefixed frames
//! ([`protocol`]): streaming check-in **ingest**, **pair** and **top-k**
//! friendship queries, and **snapshot/restore** of the full session. Ingest
//! batches are validated per client, then coalesced and flushed as one
//! engine append (amortizing the delta pipeline) on a deadline, a size
//! threshold, or the arrival of any query — so queries always read their
//! own preceding writes. See `docs/SERVING.md` for the wire protocol and
//! operational semantics.
//!
//! Threading model: connection I/O runs on plain `std::thread`s (one
//! acceptor, one per connection); the inference engine lives on a single
//! state thread and is never shared or locked. Every request, `Ping`
//! included, reaches that thread over one bounded `std::sync::mpsc`
//! channel; a request that finds it full is answered `ERR_BUSY` at once,
//! and once the thread is gone (shut down, or panicked) every request is
//! answered `ERR_INTERNAL` rather than left waiting. The engine's own
//! refinement fans out over the `seeker-par` persistent pool — keeping the
//! I/O plane off that pool is what makes this deadlock-free (a connection
//! handler blocking on a pool that is busy inside `infer` would starve
//! both).
//!
//! ```no_run
//! use friendseeker::{FriendSeeker, FriendSeekerConfig, IncrementalOptions};
//! use seeker_serve::{Client, ServeConfig, Server};
//! use seeker_trace::synth::{generate, SyntheticConfig};
//!
//! let train = generate(&SyntheticConfig::small(1))?.dataset;
//! let target = generate(&SyntheticConfig::small(2))?.dataset;
//! let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train)?;
//! let train_pois = train.pois().to_vec();
//! let engine = friendseeker::IncrementalAttack::new(trained, target, IncrementalOptions::default())?;
//! let server = Server::start(engine, train_pois, ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let verdict = client.query_pair(0, 1)?;
//! println!("friends: {}", verdict.friend);
//! client.shutdown()?;
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod client;
mod error;
/// Wire format: length-prefixed request/response frames.
pub mod protocol;
mod server;
/// Session snapshot/restore envelopes.
pub mod snapshot;
mod state;

/// Blocking client for the serve wire protocol.
pub use client::{Client, WireVerdict};
/// Service error type and result alias.
pub use error::{Result, ServeError};
/// Request/response frames and the session stats payload.
pub use protocol::{Request, Response, ServeStats};
/// The threaded TCP server and its configuration.
pub use server::{ServeConfig, Server};
