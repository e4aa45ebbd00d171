//! The wire format: little-endian, length-prefixed frames.
//!
//! A frame is a `u32` little-endian payload length followed by the payload;
//! the payload's first byte is a tag, the rest is the tag-specific body
//! (fixed-width little-endian integers, `f64` as IEEE-754 bits, strings and
//! blobs as `u32` length + bytes, check-ins as the 16-byte record). Bodies
//! are written and read with the workspace's one codec,
//! [`friendseeker::persist::Writer`]/[`friendseeker::persist::Reader`], so
//! a lying count fails as a [`ServeError::Protocol`] before it allocates,
//! and [`read_frame`](crate::protocol::read_frame) grows its buffer with
//! the bytes that arrive rather than the length a peer claims. The format
//! is documented normatively in `docs/SERVING.md`; the exact-bytes tests
//! below pin every variant.

use std::io::{Read, Write};

use friendseeker::persist::{Reader, Writer};
use seeker_trace::CheckIn;

use crate::error::{Result, ServeError};

/// Hard ceiling on a frame payload (64 MiB): a corrupt or malicious length
/// prefix must not trigger an unbounded allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Error code: an ingest batch failed validation (nothing was applied).
pub const ERR_INGEST: u8 = 1;
/// Error code: a snapshot blob failed framing or checksum validation.
pub const ERR_PERSIST: u8 = 2;
/// Error code: the request itself was malformed.
pub const ERR_BAD_REQUEST: u8 = 3;
/// Error code: an internal engine failure, or a request the engine thread
/// can no longer answer because it shut down or panicked.
pub const ERR_INTERNAL: u8 = 4;
/// Error code: the engine's request queue was full; nothing was done, and
/// the request may be sent again.
pub const ERR_BUSY: u8 = 5;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Append a batch of check-ins to the target dataset.
    Ingest(Vec<CheckIn>),
    /// Friendship verdict for one user pair.
    QueryPair {
        /// First user id.
        a: u32,
        /// Second user id.
        b: u32,
    },
    /// The k highest-probability predicted friendships.
    QueryTopK {
        /// How many pairs to return.
        k: u32,
    },
    /// Serialize the whole session (attack + dataset) to a blob.
    Snapshot,
    /// Replace the session with one restored from a snapshot blob.
    Restore(Vec<u8>),
    /// Serving statistics.
    Stats,
    /// Stop accepting connections and exit the serving loop.
    Shutdown,
}

/// Serving statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Users in the target world.
    pub n_users: u64,
    /// Check-ins currently in the dataset.
    pub n_checkins: u64,
    /// Co-location candidate pairs in the universe.
    pub n_candidate_pairs: u64,
    /// Edges in the final refined graph.
    pub n_edges: u64,
    /// Ingest batches accepted since the session opened.
    pub ingested_batches: u64,
    /// Check-ins accepted since the session opened.
    pub ingested_checkins: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The batch was accepted and applied (possibly coalesced with others).
    IngestOk {
        /// Check-ins accepted from this client's batch.
        accepted: u32,
    },
    /// Verdict for a queried pair.
    Pair {
        /// Whether the final refined graph contains the pair.
        friend: bool,
        /// Classifier `C`'s friend probability, when the session caches one.
        probability: Option<f64>,
    },
    /// Ranked predicted friendships `(lo, hi, probability)`.
    TopK(Vec<(u32, u32, f64)>),
    /// A session snapshot blob.
    Snapshot(Vec<u8>),
    /// The session was replaced by the restored snapshot.
    RestoreOk,
    /// Serving statistics.
    Stats(ServeStats),
    /// The server acknowledges shutdown; the connection closes after this.
    ShutdownOk,
    /// The request failed; see the `ERR_*` codes.
    Error {
        /// Machine-readable failure class.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

/// The most [`read_frame`] reserves before payload bytes arrive (64 KiB);
/// a longer frame's buffer grows as its bytes are read.
const FRAME_RESERVE: usize = 64 << 10;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(ServeError::Protocol(format!("frame of {} bytes exceeds cap", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// The buffer starts at most 64 KiB long and grows with the payload
/// actually read, so a length prefix alone never allocates the claimed
/// size.
///
/// # Errors
///
/// Propagates I/O errors (including clean EOF, and EOF before the claimed
/// length, as `UnexpectedEof`); rejects length prefixes over
/// [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!("frame length {len} exceeds cap")));
    }
    let mut buf = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping => w.u8(0x01),
            Request::Ingest(batch) => {
                w.u8(0x02);
                w.checkins(batch);
            }
            Request::QueryPair { a, b } => {
                w.u8(0x03);
                w.u32(*a);
                w.u32(*b);
            }
            Request::QueryTopK { k } => {
                w.u8(0x04);
                w.u32(*k);
            }
            Request::Snapshot => w.u8(0x05),
            Request::Restore(blob) => {
                w.u8(0x06);
                w.blob(blob);
            }
            Request::Stats => w.u8(0x07),
            Request::Shutdown => w.u8(0x08),
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on unknown tags, truncation, a count the
    /// frame cannot hold, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0x01 => Request::Ping,
            0x02 => Request::Ingest(r.checkins()?),
            0x03 => Request::QueryPair { a: r.u32()?, b: r.u32()? },
            0x04 => Request::QueryTopK { k: r.u32()? },
            0x05 => Request::Snapshot,
            0x06 => Request::Restore(r.blob()?.to_vec()),
            0x07 => Request::Stats,
            0x08 => Request::Shutdown,
            t => return Err(ServeError::Protocol(format!("unknown request tag {t:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong => w.u8(0x80),
            Response::IngestOk { accepted } => {
                w.u8(0x81);
                w.u32(*accepted);
            }
            Response::Pair { friend, probability } => {
                w.u8(0x82);
                w.u8(u8::from(*friend));
                match probability {
                    Some(p) => {
                        w.u8(1);
                        w.f64(*p);
                    }
                    None => w.u8(0),
                }
            }
            Response::TopK(rows) => {
                w.u8(0x83);
                w.count(rows.len());
                for &(lo, hi, p) in rows {
                    w.u32(lo);
                    w.u32(hi);
                    w.f64(p);
                }
            }
            Response::Snapshot(blob) => {
                w.u8(0x84);
                w.blob(blob);
            }
            Response::RestoreOk => w.u8(0x85),
            Response::Stats(s) => {
                w.u8(0x86);
                for v in [
                    s.n_users,
                    s.n_checkins,
                    s.n_candidate_pairs,
                    s.n_edges,
                    s.ingested_batches,
                    s.ingested_checkins,
                ] {
                    w.u64(v);
                }
            }
            Response::ShutdownOk => w.u8(0x87),
            Response::Error { code, message } => {
                w.u8(0xFF);
                w.u8(*code);
                w.blob(message.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on unknown tags, truncation, a count the
    /// frame cannot hold, trailing bytes, or invalid UTF-8 in an error
    /// message.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0x80 => Response::Pong,
            0x81 => Response::IngestOk { accepted: r.u32()? },
            0x82 => {
                let friend = r.u8()? != 0;
                let probability = match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    t => {
                        return Err(ServeError::Protocol(format!("bad probability flag {t}")));
                    }
                };
                Response::Pair { friend, probability }
            }
            0x83 => {
                let n = r.count(16)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push((r.u32()?, r.u32()?, r.f64()?));
                }
                Response::TopK(rows)
            }
            0x84 => Response::Snapshot(r.blob()?.to_vec()),
            0x85 => Response::RestoreOk,
            0x86 => Response::Stats(ServeStats {
                n_users: r.u64()?,
                n_checkins: r.u64()?,
                n_candidate_pairs: r.u64()?,
                n_edges: r.u64()?,
                ingested_batches: r.u64()?,
                ingested_checkins: r.u64()?,
            }),
            0x87 => Response::ShutdownOk,
            0xFF => {
                let code = r.u8()?;
                let message = String::from_utf8(r.blob()?.to_vec())
                    .map_err(|_| ServeError::Protocol("error message is not UTF-8".into()))?;
                Response::Error { code, message }
            }
            t => return Err(ServeError::Protocol(format!("unknown response tag {t:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::{PoiId, Timestamp, UserId};

    fn roundtrip_request(r: Request) {
        let bytes = r.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), r);
    }

    fn roundtrip_response(r: Response) {
        let bytes = r.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Ingest(vec![
            CheckIn::new(UserId::new(3), PoiId::new(9), Timestamp::from_secs(1234)),
            CheckIn::new(UserId::new(0), PoiId::new(0), Timestamp::from_secs(-7)),
        ]));
        roundtrip_request(Request::Ingest(Vec::new()));
        roundtrip_request(Request::QueryPair { a: 1, b: 2 });
        roundtrip_request(Request::QueryTopK { k: 10 });
        roundtrip_request(Request::Snapshot);
        roundtrip_request(Request::Restore(vec![1, 2, 3]));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::IngestOk { accepted: 42 });
        roundtrip_response(Response::Pair { friend: true, probability: Some(0.75) });
        roundtrip_response(Response::Pair { friend: false, probability: None });
        roundtrip_response(Response::TopK(vec![(0, 1, 0.9), (2, 5, 0.5)]));
        roundtrip_response(Response::TopK(Vec::new()));
        roundtrip_response(Response::Snapshot(vec![9; 100]));
        roundtrip_response(Response::RestoreOk);
        roundtrip_response(Response::Stats(ServeStats {
            n_users: 1,
            n_checkins: 2,
            n_candidate_pairs: 3,
            n_edges: 4,
            ingested_batches: 5,
            ingested_checkins: 6,
        }));
        roundtrip_response(Response::ShutdownOk);
        roundtrip_response(Response::Error { code: ERR_INGEST, message: "too late".into() });
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x99]).is_err());
        assert!(Response::decode(&[0x42]).is_err());
        // Trailing bytes are rejected.
        let mut ping = Request::Ping.encode();
        ping.push(0);
        assert!(Request::decode(&ping).is_err());
        // Truncated ingest body.
        let batch = Request::Ingest(vec![CheckIn::new(
            UserId::new(1),
            PoiId::new(1),
            Timestamp::from_secs(5),
        )])
        .encode();
        assert!(Request::decode(&batch[..batch.len() - 1]).is_err());
        // A lying ingest count cannot drive a huge allocation.
        let mut lying = vec![0x02];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// Exact bytes of every request and response variant, both ways: the
    /// encoder must emit the literal and the decoder must read it back. A
    /// round trip alone passes whatever the layout.
    #[test]
    fn wire_bytes_are_pinned() {
        let requests = [
            (Request::Ping, "01"),
            (
                Request::Ingest(vec![
                    CheckIn::new(UserId::new(3), PoiId::new(9), Timestamp::from_secs(1234)),
                    CheckIn::new(UserId::new(0), PoiId::new(258), Timestamp::from_secs(-7)),
                ]),
                "0202000000\
                 0300000009000000d204000000000000\
                 0000000002010000f9ffffffffffffff",
            ),
            (Request::QueryPair { a: 1, b: 2 }, "030100000002000000"),
            (Request::QueryTopK { k: 10 }, "040a000000"),
            (Request::Snapshot, "05"),
            (Request::Restore(vec![1, 2, 3]), "0603000000010203"),
            (Request::Stats, "07"),
            (Request::Shutdown, "08"),
        ];
        for (request, bytes) in requests {
            assert_eq!(hex(&request.encode()), bytes, "{request:?}");
            assert_eq!(Request::decode(&unhex(bytes)).unwrap(), request);
        }
        let responses = [
            (Response::Pong, "80"),
            (Response::IngestOk { accepted: 42 }, "812a000000"),
            (Response::Pair { friend: true, probability: Some(0.75) }, "820101000000000000e83f"),
            (Response::Pair { friend: false, probability: None }, "820000"),
            (
                Response::TopK(vec![(0, 1, 0.9), (2, 5, -0.5)]),
                "8302000000\
                 0000000001000000cdccccccccccec3f\
                 0200000005000000000000000000e0bf",
            ),
            (Response::Snapshot(vec![9, 8]), "84020000000908"),
            (Response::RestoreOk, "85"),
            (
                Response::Stats(ServeStats {
                    n_users: 1,
                    n_checkins: 2,
                    n_candidate_pairs: 3,
                    n_edges: 4,
                    ingested_batches: 5,
                    ingested_checkins: 6,
                }),
                "86\
                 010000000000000002000000000000000300000000000000\
                 040000000000000005000000000000000600000000000000",
            ),
            (Response::ShutdownOk, "87"),
            (
                Response::Error { code: ERR_INGEST, message: "too late".into() },
                "ff0108000000746f6f206c617465",
            ),
        ];
        for (response, bytes) in responses {
            assert_eq!(hex(&response.encode()), bytes, "{response:?}");
            assert_eq!(Response::decode(&unhex(bytes)).unwrap(), response);
        }
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::QueryTopK { k: 3 }.encode()).unwrap();
        write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap()).unwrap(),
            Request::QueryTopK { k: 3 }
        );
        assert_eq!(Request::decode(&read_frame(&mut r).unwrap()).unwrap(), Request::Ping);
        // EOF mid-prefix surfaces as an I/O error.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).is_err());
        // An oversized length prefix is rejected before allocating.
        let mut huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        let mut r = &huge[..];
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
    }

    /// Serves its bytes, then EOF, and records the largest buffer `read` is
    /// handed.
    struct Stub {
        data: Vec<u8>,
        pos: usize,
        largest: usize,
    }

    impl Read for Stub {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_frame_reserves_what_arrives_not_what_is_claimed() {
        // A maximal length prefix followed by 16 bytes and EOF.
        let mut data = (MAX_FRAME as u32).to_le_bytes().to_vec();
        data.extend_from_slice(&[7; 16]);
        let mut stub = Stub { data, pos: 0, largest: 0 };
        match read_frame(&mut stub) {
            Err(ServeError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("a short frame must fail as an I/O error, got {other:?}"),
        }
        assert!(stub.largest <= 64 << 10, "read was handed a {}-byte buffer", stub.largest);
    }
}
