//! Error type of the attack pipeline.

use std::error::Error as StdError;
use std::fmt;

/// Errors raised while training or running the attack.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// The configuration is invalid.
    Config(String),
    /// The dataset cannot support the requested operation (e.g. no labeled
    /// pairs to train on).
    Data(String),
    /// The pair universe `n·(n−1)/2` does not fit the platform's address
    /// space (or the `u32` user-id range), so enumerating it would overflow.
    PairUniverse {
        /// The offending user count.
        n_users: usize,
    },
    /// A persisted artifact (attack blob, serve snapshot) failed framing
    /// validation: bad magic, truncation, trailing bytes, or a checksum
    /// mismatch.
    Persist(String),
    /// An ingest batch was rejected before mutating any state (out-of-span
    /// timestamp, unknown user or POI).
    Ingest(String),
    /// An error from the trace substrate.
    Trace(seeker_trace::TraceError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Config(m) => write!(f, "invalid configuration: {m}"),
            AttackError::Data(m) => write!(f, "unusable data: {m}"),
            AttackError::PairUniverse { n_users } => {
                write!(f, "pair universe overflow: {n_users} users imply more pairs than the platform can index")
            }
            AttackError::Persist(m) => write!(f, "corrupt persisted artifact: {m}"),
            AttackError::Ingest(m) => write!(f, "rejected ingest batch: {m}"),
            AttackError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl StdError for AttackError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            AttackError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<seeker_trace::TraceError> for AttackError {
    fn from(e: seeker_trace::TraceError) -> Self {
        AttackError::Trace(e)
    }
}

impl From<crate::persist::DecodeError> for AttackError {
    fn from(e: crate::persist::DecodeError) -> Self {
        AttackError::Persist(e.to_string())
    }
}

/// Result alias for the attack pipeline.
pub type Result<T> = std::result::Result<T, AttackError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AttackError::Config("bad sigma".into());
        assert!(e.to_string().contains("bad sigma"));
        assert!(e.source().is_none());
        let e = AttackError::Persist("checksum mismatch".into());
        assert!(e.to_string().contains("checksum mismatch"));
        let e = AttackError::Ingest("timestamp past span".into());
        assert!(e.to_string().contains("timestamp past span"));
        let e = AttackError::from(seeker_trace::TraceError::Invalid("x".into()));
        assert!(e.to_string().contains("trace error"));
        assert!(e.source().is_some());
    }
}
