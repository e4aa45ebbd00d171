//! The TCP front-end: acceptor, per-connection framing loops, lifecycle.

use std::io::BufWriter;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use friendseeker::IncrementalAttack;
use seeker_trace::Poi;

use crate::error::Result;
use crate::protocol::{self, Request, Response, ERR_BAD_REQUEST};
use crate::state::{self, Call};
use crate::ServeError;

/// Where a [`Server`] listens.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port `0` picks an ephemeral port (read it back via
    /// [`Server::addr`]).
    pub bind: SocketAddr,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { bind: SocketAddr::from(([127, 0, 0, 1], 0)) }
    }
}

/// A running attack service.
///
/// Dropping the handle does **not** stop the server; send
/// [`Request::Shutdown`] (e.g. [`crate::Client::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    /// Set once no more connections should be accepted; the acceptor reads
    /// it after each wake-up.
    shutting_down: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    state: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the state thread and the acceptor, and returns once
    /// the socket is listening.
    ///
    /// `train_pois` is the **training** world's POI table — the attack
    /// persistence layer needs it to serialize the session (snapshots
    /// rebuild the STD division from it on restore).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        engine: IncrementalAttack,
        train_pois: Vec<Poi>,
        cfg: ServeConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(cfg.bind)?;
        let addr = listener.local_addr()?;
        let (engine_tx, calls) = mpsc::sync_channel(state::QUEUE_DEPTH);
        let shutting_down = Arc::new(AtomicBool::new(false));

        // lint:allow(thread-spawn) -- the engine's single-owner thread; hosting it on the
        // seeker-par pool would deadlock against the engine's own par_map fan-out.
        let state = std::thread::Builder::new()
            .name("seeker-serve-state".into())
            .spawn(move || state::run(&calls, engine, train_pois))
            .map_err(ServeError::Io)?;

        let acceptor = spawn_acceptor(listener, engine_tx, Arc::clone(&shutting_down))?;
        Ok(Server { addr, shutting_down, acceptor: Some(acceptor), state: Some(state) })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the state thread and the acceptor to exit. Call after a
    /// client has sent [`Request::Shutdown`]; returns as well once the
    /// state thread has ended by any other path, such as a panic.
    pub fn join(mut self) {
        if let Some(h) = self.state.take() {
            let _ = h.join();
        }
        // However the state thread ended, no request can be answered any
        // more. After a served shutdown the acceptor is already stopping;
        // after a panic no connection saw `ShutdownOk`, so stop it here.
        stop_accepting(&self.shutting_down, self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the acceptor: one framing-loop thread per accepted connection,
/// each sending its requests to the state thread over `engine`, until a
/// wake-up finds `shutting_down` set.
fn spawn_acceptor(
    listener: TcpListener,
    engine: SyncSender<Call>,
    shutting_down: Arc<AtomicBool>,
) -> Result<JoinHandle<()>> {
    // lint:allow(thread-spawn) -- blocking accept loop; connection I/O must stay off
    // the seeker-par pool (see crate docs) so plain threads are the correct tool.
    std::thread::Builder::new()
        .name("seeker-serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Some(stream) = accepted(stream) else { continue };
                let conn_engine = engine.clone();
                let conn_flag = Arc::clone(&shutting_down);
                // lint:allow(thread-spawn) -- one blocking framing loop per connection
                let _ = std::thread::Builder::new()
                    .name("seeker-serve-conn".into())
                    .spawn(move || serve_connection(stream, &conn_engine, &conn_flag));
            }
        })
        .map_err(ServeError::Io)
}

/// Sets the acceptor's flag, then wakes its blocking `accept` with a
/// connection to `addr` (the loopback address if `addr` is unspecified) so
/// it observes the flag. A failed connect just means the listener is
/// already gone.
fn stop_accepting(shutting_down: &AtomicBool, mut addr: SocketAddr) {
    shutting_down.store(true, Ordering::SeqCst);
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// The acceptor's hand-off of a new connection to its thread: turns off
/// Nagle's algorithm, as [`crate::Client::connect`] does on its side, so a
/// small response is not held back waiting for the peer's delayed ACK.
/// `None` drops a connection that failed to accept or to configure.
fn accepted(stream: std::io::Result<TcpStream>) -> Option<TcpStream> {
    let stream = stream.ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

/// One connection's framing loop: read a request frame, send it to the
/// state thread, relay the answer. Exits on EOF, protocol violation,
/// shutdown, or a state thread that is gone.
fn serve_connection(stream: TcpStream, engine: &SyncSender<Call>, shutting_down: &Arc<AtomicBool>) {
    let peer_shutdown = match serve_frames(&stream, engine) {
        Ok(peer_shutdown) => peer_shutdown,
        Err(_) => false, // EOF / broken pipe / malformed peer: drop quietly
    };
    if peer_shutdown {
        match stream.local_addr() {
            Ok(local) => stop_accepting(shutting_down, local),
            Err(_) => shutting_down.store(true, Ordering::SeqCst),
        }
    }
}

/// Returns `Ok(true)` iff the peer requested (and was acknowledged) a
/// server shutdown.
fn serve_frames(stream: &TcpStream, engine: &SyncSender<Call>) -> Result<bool> {
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    loop {
        let payload = protocol::read_frame(&mut reader)?;
        // A malformed frame poisons the stream position, and a state thread
        // that is gone answers nothing more: either way, answer once, then
        // close. A busy answer (`ERR_BUSY`) keeps the connection.
        let (response, close) = match Request::decode(&payload) {
            Ok(request) => match state::call(engine, request) {
                Ok(response) => (response, false),
                Err(gone) => (gone, true),
            },
            Err(e) => (Response::Error { code: ERR_BAD_REQUEST, message: e.to_string() }, true),
        };
        protocol::write_frame(&mut writer, &response.encode())?;
        let shutdown = matches!(response, Response::ShutdownOk);
        if close || shutdown {
            return Ok(shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A server whose state thread ends without any connection seeing
    /// `ShutdownOk` (here it drops its receiver and returns; a panic ends
    /// it the same way) still joins: `join` stops the acceptor itself.
    #[test]
    fn join_returns_once_the_state_thread_is_gone() {
        let listener = TcpListener::bind(ServeConfig::default().bind).unwrap();
        let addr = listener.local_addr().unwrap();
        let (engine_tx, calls) = mpsc::sync_channel::<Call>(state::QUEUE_DEPTH);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let state = std::thread::spawn(move || drop(calls));
        let acceptor = spawn_acceptor(listener, engine_tx, Arc::clone(&shutting_down)).unwrap();
        let server = Server { addr, shutting_down, acceptor: Some(acceptor), state: Some(state) };
        // A request to the dead engine is answered, and does not stop the
        // acceptor.
        let mut client = crate::Client::connect(addr).unwrap();
        assert!(client.ping().is_err(), "a dead engine answers no ping");
        let (done_tx, done) = mpsc::channel();
        let t0 = Instant::now();
        std::thread::spawn(move || {
            server.join();
            let _ = done_tx.send(());
        });
        assert!(
            done.recv_timeout(Duration::from_secs(5)).is_ok(),
            "join still blocked after {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (raw, _) = listener.accept().unwrap();
        assert!(!raw.nodelay().unwrap(), "a fresh socket batches small writes");
        let stream = accepted(Ok(raw)).unwrap();
        assert!(stream.nodelay().unwrap(), "the hand-off must set TCP_NODELAY");
        drop(client);
    }
}
