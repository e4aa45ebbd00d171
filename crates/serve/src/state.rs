//! The engine state thread: the one owner of an [`IncrementalAttack`], fed
//! over one bounded `std::sync::mpsc` channel.
//!
//! Connection threads never touch the engine. Each sends its decoded
//! [`Request`] down the channel with a reply [`Sender`] and waits for the
//! answer ([`call`]); the state thread receives the requests in arrival
//! order and answers each through one match, `State::handle`. The channel
//! is the only state the threads share, so the crate takes no lock. It
//! holds at most [`QUEUE_DEPTH`] requests: one more is answered `ERR_BUSY`
//! at once, and its connection stays open. When the state thread is gone,
//! returned after a `Shutdown` or unwound by a panic, every request still
//! waiting and every later one is answered `ERR_INTERNAL` instead of
//! blocking.
//!
//! Ingest batches are validated on arrival (and acknowledged or rejected
//! immediately — validation is against the fixed user/POI tables and
//! observation span, which staging cannot change) but *applied* lazily:
//! accepted check-ins accumulate in a staging buffer that is flushed as a
//! single engine append when the oldest has waited [`FLUSH_DEADLINE`], the
//! buffer holds [`MAX_STAGED_CHECKINS`], or any read (query, stats,
//! snapshot, shutdown) arrives. Reads therefore always observe their own
//! preceding writes, while bursty writers amortize the delta pipeline
//! across many frames.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::time::{Duration, Instant};

use friendseeker::{AttackError, IncrementalAttack};
use seeker_trace::{CheckIn, Poi, UserId};

use crate::protocol::{
    Request, Response, ServeStats, ERR_BAD_REQUEST, ERR_BUSY, ERR_INGEST, ERR_INTERNAL, ERR_PERSIST,
};
use crate::snapshot;
use crate::ServeError;

/// How long accepted check-ins may sit staged before they are flushed into
/// the engine, absent any other trigger.
const FLUSH_DEADLINE: Duration = Duration::from_millis(5);

/// Flush at once when this many check-ins are staged.
const MAX_STAGED_CHECKINS: usize = 10_000;

/// How many requests may wait for the state thread at once. A connection
/// has at most one request in flight, so the queue fills only when this
/// many connections are waiting together.
pub(crate) const QUEUE_DEPTH: usize = 64;

/// One request on its way to the state thread, with the sender its answer
/// goes back through.
pub(crate) type Call = (Request, Sender<Response>);

/// Sends `request` to the state thread and waits for the answer.
///
/// A full queue answers `ERR_BUSY` at once, counted on
/// `serve.reject.busy`; the request is dropped and the connection may send
/// it again. `Err` is the `ERR_INTERNAL` answer for a state thread that is
/// gone, after a `Shutdown` or a panic: it answers nothing more, so the
/// connection writes this itself and closes. One `recv` notices every way
/// the thread goes, because each drops the reply sender: a failed send
/// drops it with the request, a dropped receiver drops every queued call,
/// and an unwinding thread drops the call it was answering.
pub(crate) fn call(engine: &SyncSender<Call>, request: Request) -> Result<Response, Response> {
    let (reply, answer) = mpsc::channel();
    if let Err(TrySendError::Full(_)) = engine.try_send((request, reply)) {
        seeker_obs::counter!("serve.reject.busy", 1);
        return Ok(Response::Error {
            code: ERR_BUSY,
            message: format!("the engine's request queue is full ({QUEUE_DEPTH} waiting)"),
        });
    }
    answer.recv().map_err(|_| Response::Error {
        code: ERR_INTERNAL,
        message: "the engine thread is gone".into(),
    })
}

/// Fixed-size ring of query latencies feeding the `serve.query.p{50,99}_us`
/// gauges.
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
    recorded: u64,
}

impl LatencyRing {
    const CAP: usize = 1024;
    /// Republish the percentile gauges every this many samples.
    const PUBLISH_EVERY: u64 = 32;

    fn new() -> LatencyRing {
        LatencyRing { samples: Vec::with_capacity(Self::CAP), next: 0, recorded: 0 }
    }

    fn record(&mut self, micros: u64) {
        if self.samples.len() < Self::CAP {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
        }
        self.next = (self.next + 1) % Self::CAP;
        self.recorded += 1;
        if self.recorded % Self::PUBLISH_EVERY == 0 {
            self.publish();
        }
    }

    fn publish(&self) {
        if self.samples.is_empty() {
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let pick = |p: usize| sorted[(sorted.len() - 1) * p / 100] as usize;
        seeker_obs::gauge!("serve.query.p50_us", pick(50));
        seeker_obs::gauge!("serve.query.p99_us", pick(99));
    }
}

/// Maps an engine error on the write path to a protocol error frame.
fn attack_error_response(e: &AttackError) -> Response {
    let code = match e {
        AttackError::Ingest(_) => ERR_INGEST,
        AttackError::Persist(_) => ERR_PERSIST,
        _ => ERR_INTERNAL,
    };
    Response::Error { code, message: e.to_string() }
}

/// Maps a serve-layer error (snapshot envelope, …) to an error frame.
fn serve_error_response(e: &ServeError) -> Response {
    match e {
        ServeError::Attack(a) => attack_error_response(a),
        other => Response::Error { code: ERR_INTERNAL, message: other.to_string() },
    }
}

/// The state thread's working set: the engine, the training POI table the
/// snapshot envelope needs, and the ingest staging buffer.
struct State {
    engine: IncrementalAttack,
    train_pois: Vec<Poi>,
    staged: Vec<CheckIn>,
    flush_due: Option<Instant>,
    latency: LatencyRing,
    /// Client batches accepted (before coalescing — the engine's own count
    /// is per *flush*, which merges many client batches into one append).
    accepted_batches: u64,
    /// Check-ins accepted across all client batches.
    accepted_checkins: u64,
}

impl State {
    /// Answers one request. Every read but `Ping` flushes the staged
    /// check-ins first.
    fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Ingest(batch) => self.handle_ingest(batch),
            Request::QueryPair { a, b } => self.handle_query_pair(a, b),
            Request::QueryTopK { k } => self.handle_top_k(k),
            Request::Snapshot => self.handle_snapshot(),
            Request::Restore(blob) => self.handle_restore(blob),
            Request::Stats => self.handle_stats(),
            Request::Shutdown => {
                self.flush();
                Response::ShutdownOk
            }
        }
    }

    /// Applies the staging buffer as one engine append.
    fn flush(&mut self) {
        self.flush_due = None;
        if self.staged.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.staged);
        seeker_obs::counter!("serve.ingest.flushes", 1);
        if let Err(e) = self.engine.ingest(&batch) {
            // Unreachable in practice: every staged batch already passed
            // `validate_batch` against the immutable tables, and staging
            // cannot invalidate it. Keep serving rather than crash.
            seeker_obs::info!("serve: staged flush failed: {e}");
        }
    }

    fn handle_ingest(&mut self, batch: Vec<CheckIn>) -> Response {
        match self.engine.validate_batch(&batch) {
            Ok(()) => {
                seeker_obs::counter!("serve.ingest.batches", 1);
                let accepted = batch.len() as u32;
                self.accepted_batches += 1;
                self.accepted_checkins += u64::from(accepted);
                self.staged.extend_from_slice(&batch);
                if !self.staged.is_empty() && self.flush_due.is_none() {
                    // lint:allow(no-system-time) -- flush-deadline pacing is inherently wall-clock
                    self.flush_due = Some(Instant::now() + FLUSH_DEADLINE);
                }
                if self.staged.len() >= MAX_STAGED_CHECKINS {
                    self.flush();
                }
                Response::IngestOk { accepted }
            }
            Err(e) => {
                seeker_obs::counter!("serve.ingest.rejected", 1);
                attack_error_response(&e)
            }
        }
    }

    fn handle_query_pair(&mut self, a: u32, b: u32) -> Response {
        self.flush();
        // lint:allow(no-system-time) -- client-visible latency gauge
        let t0 = Instant::now();
        let resp = match self.engine.query_pair(UserId::new(a), UserId::new(b)) {
            Ok(v) => {
                seeker_obs::counter!("serve.query.hits", 1);
                Response::Pair { friend: v.friend, probability: v.probability }
            }
            Err(e) => Response::Error { code: ERR_BAD_REQUEST, message: e.to_string() },
        };
        self.latency.record(t0.elapsed().as_micros() as u64);
        resp
    }

    fn handle_top_k(&mut self, k: u32) -> Response {
        self.flush();
        // lint:allow(no-system-time) -- client-visible latency gauge
        let t0 = Instant::now();
        seeker_obs::counter!("serve.query.hits", 1);
        let rows = self
            .engine
            .top_k(k as usize)
            .into_iter()
            .map(|(p, proba)| (p.lo().raw(), p.hi().raw(), proba))
            .collect();
        self.latency.record(t0.elapsed().as_micros() as u64);
        Response::TopK(rows)
    }

    fn handle_snapshot(&mut self) -> Response {
        self.flush();
        match snapshot::save_session(&self.engine, &self.train_pois) {
            Ok(blob) => Response::Snapshot(blob),
            Err(e) => serve_error_response(&e),
        }
    }

    fn handle_restore(&mut self, blob: Vec<u8>) -> Response {
        // A restore replaces the whole session; staged-but-unapplied
        // check-ins belong to the state being discarded, so drop them.
        self.staged.clear();
        self.flush_due = None;
        match snapshot::restore_session(&blob, self.engine.options().clone()) {
            Ok((engine, train_pois)) => {
                self.engine = engine;
                self.train_pois = train_pois;
                Response::RestoreOk
            }
            // The old session is untouched on any restore failure.
            Err(e) => serve_error_response(&e),
        }
    }

    fn handle_stats(&mut self) -> Response {
        self.flush();
        let ds = self.engine.dataset();
        let result = self.engine.result();
        Response::Stats(ServeStats {
            n_users: ds.n_users() as u64,
            n_checkins: ds.n_checkins() as u64,
            n_candidate_pairs: result.pairs.len() as u64,
            n_edges: result.final_graph().n_edges() as u64,
            ingested_batches: self.accepted_batches,
            ingested_checkins: self.accepted_checkins,
        })
    }
}

/// Waits for the next call, until `flush_due` at most while check-ins are
/// staged. `Err(Timeout)` means flush now; `Err(Disconnected)` means no
/// connection can send any more.
fn next(calls: &Receiver<Call>, flush_due: Option<Instant>) -> Result<Call, RecvTimeoutError> {
    match flush_due {
        // lint:allow(no-system-time) -- flush-deadline pacing is inherently wall-clock
        Some(due) => calls.recv_timeout(due.saturating_duration_since(Instant::now())),
        None => calls.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

/// The state thread's serving loop: answers each call in arrival order and
/// returns once it has answered a `Shutdown`. The thread then drops
/// `calls`, and with it every call still queued.
pub(crate) fn run(calls: &Receiver<Call>, engine: IncrementalAttack, train_pois: Vec<Poi>) {
    let mut st = State {
        engine,
        train_pois,
        staged: Vec::new(),
        flush_due: None,
        latency: LatencyRing::new(),
        accepted_batches: 0,
        accepted_checkins: 0,
    };
    loop {
        match next(calls, st.flush_due) {
            Ok((request, reply)) => {
                let shutdown = matches!(request, Request::Shutdown);
                let _ = reply.send(st.handle(request));
                if shutdown {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => st.flush(),
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ring_wraps_and_publishes() {
        let mut r = LatencyRing::new();
        for i in 0..(LatencyRing::CAP as u64 * 2 + 5) {
            r.record(i);
        }
        assert_eq!(r.samples.len(), LatencyRing::CAP);
        r.publish(); // must not panic on a full ring
        let empty = LatencyRing::new();
        empty.publish(); // nor on an empty one
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains() {
        let gone = |answer: Result<Response, Response>| {
            matches!(answer, Err(Response::Error { code: ERR_INTERNAL, .. }))
        };
        let (engine, calls) = mpsc::sync_channel(QUEUE_DEPTH);
        std::thread::scope(|s| {
            let queued = s.spawn(|| call(&engine, Request::Stats));
            // Receiving the call proves it was sent; queue it again, then
            // drop the receiver with it queued, as a departing state
            // thread does.
            let sent = calls.recv().unwrap();
            engine.send(sent).unwrap();
            drop(calls);
            assert!(gone(queued.join().unwrap()));
        });
        assert!(gone(call(&engine, Request::Stats)));
    }

    /// A full queue turns the next call away at once with `ERR_BUSY`, an
    /// answer that keeps the connection open, while the queued call waits.
    #[test]
    fn full_queue_answers_busy_at_once() {
        let (engine, calls) = mpsc::sync_channel::<Call>(1);
        let (reply, _answer) = mpsc::channel();
        engine.try_send((Request::Ping, reply)).unwrap();
        // lint:allow(no-system-time) -- the answer must not wait on the engine
        let t0 = Instant::now();
        let busy = call(&engine, Request::Stats);
        assert!(matches!(busy, Ok(Response::Error { code: ERR_BUSY, .. })), "{busy:?}");
        assert!(t0.elapsed() < Duration::from_secs(1), "busy answer took {:?}", t0.elapsed());
        // The queued call is still the only one waiting.
        assert!(matches!(calls.try_recv(), Ok((Request::Ping, _))));
        assert!(calls.try_recv().is_err());
    }

    #[test]
    fn pop_honors_an_expired_deadline() {
        let (_engine, calls) = mpsc::channel::<Call>();
        // lint:allow(no-system-time) -- testing the deadline path itself
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(next(&calls, Some(past)), Err(RecvTimeoutError::Timeout)));
    }
}
