//! Error type of the serving layer.

use std::error::Error as StdError;
use std::fmt;

/// Errors raised by the server, the wire protocol, or the client.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket or stream I/O failed.
    Io(std::io::Error),
    /// A frame violated the wire format (bad tag, short body, oversized
    /// length prefix).
    Protocol(String),
    /// The attack engine rejected the operation (ingest validation,
    /// snapshot corruption, …).
    Attack(friendseeker::AttackError),
    /// The peer answered with a protocol-level error frame.
    Remote {
        /// The error code from the frame (see [`crate::protocol`]).
        code: u8,
        /// The peer's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServeError::Attack(e) => write!(f, "attack error: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "remote error (code {code}): {message}")
            }
        }
    }
}

impl StdError for ServeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Attack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<friendseeker::AttackError> for ServeError {
    fn from(e: friendseeker::AttackError) -> Self {
        ServeError::Attack(e)
    }
}

impl From<friendseeker::persist::DecodeError> for ServeError {
    fn from(e: friendseeker::persist::DecodeError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Protocol("tag 9".into());
        assert!(e.to_string().contains("tag 9"));
        assert!(e.source().is_none());
        let e = ServeError::from(std::io::Error::new(std::io::ErrorKind::Other, "boom"));
        assert!(e.source().is_some());
        let e = ServeError::from(friendseeker::AttackError::Ingest("late".into()));
        assert!(e.to_string().contains("late"));
        let e = ServeError::Remote { code: 1, message: "no".into() };
        assert!(e.to_string().contains("code 1"));
    }
}
