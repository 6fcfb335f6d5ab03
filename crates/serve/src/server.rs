//! The daemon: accepts connections on TCP or a Unix socket, speaks the
//! framed [`crate::protocol`], and drives the [`crate::coordinator`].
//!
//! One thread per connection; each handler loops reading request frames
//! until the client closes, the idle read-timeout expires, or a protocol
//! error occurs (reported back as an `Error` frame where the transport
//! still allows it). Remote workers use the same connections for their
//! register/heartbeat/lease/upload RPCs. Every TCP stream, dialed or
//! accepted, sets `TCP_NODELAY`: a reply frame written behind an
//! unacknowledged one must not wait out the peer's delayed ACK. A
//! `Shutdown` request flips the drain flag: queued and running jobs
//! finish, new submissions get `ShuttingDown`, idle connections are
//! closed at once, and [`Server::run`] returns once the accept loop and
//! all drivers have stopped.

use crate::coordinator::{CancelOutcome, Coordinator, LeaseOffer, ServeConfig, SubmitOutcome};
use crate::job::JobSpec;
use crate::protocol::{write_message, FrameReader, Message, ProtocolError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// `true` when `addr` names a Unix-domain socket path rather than a TCP
/// host:port — any address containing a `/`.
pub fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Conn {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `addr` (Unix socket iff the address contains `/`),
    /// with `TCP_NODELAY` set on a TCP stream.
    ///
    /// # Errors
    ///
    /// Propagates connection and `setsockopt` failures.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        if is_unix_addr(addr) {
            Ok(Conn::Unix(UnixStream::connect(addr)?))
        } else {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Conn::Tcp(stream))
        }
    }

    /// Applies a read timeout (`None` clears it).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Ends the read half: a blocked or later read returns EOF once the
    /// bytes already received are consumed. Writes still go through.
    fn shutdown_read(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let stream = l.accept()?.0;
                // Without NODELAY the connection is slower, not broken:
                // no reason to end the daemon, as an accept error would.
                let _ = stream.set_nodelay(true);
                Ok(Conn::Tcp(stream))
            }
            Listener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Clones of the open connections, keyed by handler, so the drain can
/// end their read halves. Every update is one insert or remove, so a
/// poisoned lock still guards a valid map.
type OpenConns = Arc<Mutex<HashMap<usize, Conn>>>;

/// A handler's entry in [`OpenConns`], removed when the handler exits
/// (or panics): a clone left behind would hold the socket open, and the
/// peer would never see EOF.
struct Registration {
    open: OpenConns,
    id: usize,
}

impl Drop for Registration {
    fn drop(&mut self) {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        open.remove(&self.id);
    }
}

/// The campaign service daemon.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    addr: String,
    sched: Arc<Coordinator>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` (TCP `host:port`, or a Unix socket path when the
    /// address contains `/` — a stale socket file is replaced), opens or
    /// resumes the journal at `journal`, and starts the driver pool.
    /// Interrupted jobs found in the journal are re-queued immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-I/O failures.
    pub fn bind(addr: &str, journal: &Path, config: ServeConfig) -> io::Result<Server> {
        let listener = if is_unix_addr(addr) {
            let path = PathBuf::from(addr);
            let _ = std::fs::remove_file(&path);
            Listener::Unix(UnixListener::bind(&path)?, path)
        } else {
            Listener::Tcp(TcpListener::bind(addr)?)
        };
        let bound = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_, path) => path.display().to_string(),
        };
        let sched = Arc::new(Coordinator::open(journal, config)?);
        Ok(Server {
            listener,
            addr: bound,
            sched,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address — with TCP port resolved, so binding to port 0
    /// yields the ephemeral port the tests need.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// The shared coordinator (status inspection in tests).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.sched
    }

    /// A handle that makes [`Server::run`] return as if a `Shutdown`
    /// request had arrived.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            addr: self.addr.clone(),
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serves connections until a `Shutdown` request (or
    /// [`ShutdownHandle::shutdown`]), then drains: every open
    /// connection's read half is ended, so a handler waiting on an idle
    /// client reads EOF and exits at once, while one streaming a job
    /// still sends its `JobResult` first. Handler threads join, running
    /// and queued jobs finish, and the method returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(self) -> io::Result<()> {
        let mut handles = Vec::new();
        let open = OpenConns::default();
        loop {
            let conn = match self.listener.accept() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection (or a late client): drop it and
                // stop accepting.
                break;
            }
            // Registered before the handler starts, so the drain below
            // reaches every handler. One that cannot be cloned is still
            // served; the drain just cannot hurry it.
            let id = handles.len();
            if let Ok(clone) = conn.try_clone() {
                open.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, clone);
            }
            let registration = Registration {
                open: Arc::clone(&open),
                id,
            };
            let sched = Arc::clone(&self.sched);
            let shutdown = Arc::clone(&self.shutdown);
            let addr = self.addr.clone();
            handles.push(std::thread::spawn(move || {
                let _registration = registration;
                handle_connection(conn, &sched, &shutdown, &addr);
            }));
        }
        for conn in open.lock().unwrap_or_else(PoisonError::into_inner).values() {
            let _ = conn.shutdown_read();
        }
        for h in handles {
            let _ = h.join();
        }
        self.sched.drain();
        Ok(())
    }
}

/// Triggers a graceful drain from outside the accept loop.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    addr: String,
    shutdown: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Flips the shutdown flag and unblocks the accept loop.
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, &self.addr);
    }
}

/// Sets the flag and pokes the listener with a throwaway connection so
/// `accept()` returns and observes it.
fn request_shutdown(shutdown: &AtomicBool, addr: &str) {
    shutdown.store(true, Ordering::SeqCst);
    let _ = Conn::connect(addr);
}

fn handle_connection(mut conn: Conn, sched: &Coordinator, shutdown: &AtomicBool, addr: &str) {
    let _ = conn.set_read_timeout(Some(sched.config().idle_timeout));
    let mut reader = FrameReader::new();
    loop {
        let msg = match reader.read(&mut conn) {
            Ok(Some(msg)) => msg,
            Ok(None) => return, // client closed between frames
            Err(ProtocolError::Io(io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)) => {
                // Idle client: tell it why and hang up.
                let _ = write_message(
                    &mut conn,
                    &Message::Error {
                        message: "idle timeout".into(),
                    },
                );
                return;
            }
            Err(e) => {
                let _ = write_message(
                    &mut conn,
                    &Message::Error {
                        message: format!("protocol error: {e}"),
                    },
                );
                return;
            }
        };
        let keep_going = match msg {
            Message::Submit { spec, wait } => handle_submit(&mut conn, sched, spec, wait),
            Message::Status { job } => {
                let reply = match sched.status(job) {
                    Some(jobs) => Message::StatusReport { jobs },
                    None => Message::Error {
                        message: format!("no such job {}", job.unwrap_or(0)),
                    },
                };
                write_message(&mut conn, &reply).is_ok()
            }
            Message::Stats { job } => {
                let reply = match sched.telemetry_snapshot(job) {
                    Some(snapshot) => Message::Telemetry { snapshot },
                    None => Message::Error {
                        message: format!("no such job {}", job.unwrap_or(0)),
                    },
                };
                write_message(&mut conn, &reply).is_ok()
            }
            Message::Cancel { job } => {
                let reply = match sched.cancel(job) {
                    CancelOutcome::Cancelled => Message::Cancelled { job },
                    CancelOutcome::AlreadyTerminal(state) => Message::Error {
                        message: format!("job {job} already {state}"),
                    },
                    CancelOutcome::Unknown => Message::Error {
                        message: format!("no such job {job}"),
                    },
                    CancelOutcome::ShuttingDown => Message::ShuttingDown,
                };
                write_message(&mut conn, &reply).is_ok()
            }
            Message::Register { name } => {
                let (worker, lease_ms) = sched.register(&name);
                write_message(&mut conn, &Message::Registered { worker, lease_ms }).is_ok()
            }
            Message::Heartbeat { worker } => {
                let (draining, known) = sched.heartbeat(worker);
                write_message(&mut conn, &Message::HeartbeatAck { draining, known }).is_ok()
            }
            Message::LeaseRequest { worker } => {
                let reply = match sched.request_lease(worker) {
                    LeaseOffer::Grant {
                        lease,
                        job,
                        shard,
                        spec,
                        experiments,
                    } => Message::LeaseGrant {
                        lease,
                        job,
                        shard,
                        spec,
                        experiments,
                    },
                    LeaseOffer::NoWork { draining } => Message::NoWork { draining },
                };
                write_message(&mut conn, &reply).is_ok()
            }
            Message::PartialUpload {
                worker,
                lease,
                job,
                shard,
                results,
                stats,
                memo,
            } => {
                let outcome = sched.upload(worker, lease, job, shard, results, &stats, &memo);
                write_message(&mut conn, &Message::UploadAck { outcome }).is_ok()
            }
            Message::Workers => {
                let workers = sched.workers();
                write_message(&mut conn, &Message::WorkerReport { workers }).is_ok()
            }
            Message::Shutdown => {
                // Refuse new submissions before the client hears the
                // acknowledgement, so nothing it does afterwards can
                // slip into the queue.
                sched.begin_drain();
                let _ = write_message(&mut conn, &Message::ShuttingDown);
                request_shutdown(shutdown, addr);
                false
            }
            other => {
                let _ = write_message(
                    &mut conn,
                    &Message::Error {
                        message: format!("unexpected message kind {} from client", other.kind()),
                    },
                );
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Submits and, for `wait`, streams progress frames until the job is
/// terminal, finishing with `JobResult` (or `Error` for failed/cancelled
/// jobs). Returns `false` when the connection should close.
fn handle_submit(conn: &mut Conn, sched: &Coordinator, spec: JobSpec, wait: bool) -> bool {
    let job = match sched.submit(spec) {
        SubmitOutcome::Accepted(job) => job,
        SubmitOutcome::Busy { queued, capacity } => {
            return write_message(conn, &Message::Busy { queued, capacity }).is_ok();
        }
        SubmitOutcome::ShuttingDown => {
            return write_message(conn, &Message::ShuttingDown).is_ok();
        }
    };
    if write_message(conn, &Message::Accepted { job }).is_err() {
        return false;
    }
    if !wait {
        return true;
    }
    // Streaming can outlast the idle timeout between batches of a slow
    // campaign; progress frames are our own liveness signal, so wait
    // without a deadline.
    let _ = conn.set_read_timeout(None);
    let mut last_done = u64::MAX; // force an initial Progress frame
    loop {
        let Some(update) = sched.wait_progress(job, last_done) else {
            let _ = write_message(
                conn,
                &Message::Error {
                    message: format!("job {job} no longer tracked"),
                },
            );
            return false;
        };
        last_done = update.status.done;
        if write_message(
            conn,
            &Message::Progress {
                job,
                done: update.status.done,
                total: update.status.total,
                stats: update.status.stats,
            },
        )
        .is_err()
        {
            // Client went away mid-stream: the job keeps running.
            return false;
        }
        if update.status.state.is_terminal() {
            let reply = match update.outcome {
                Some((result, stats)) => Message::JobResult { job, result, stats },
                None => Message::Error {
                    message: if update.status.error.is_empty() {
                        format!("job {job} ended {}", update.status.state)
                    } else {
                        format!("job {job} failed: {}", update.status.error)
                    },
                },
            };
            let _ = write_message(conn, &reply);
            let _ = conn.set_read_timeout(Some(sched.config().idle_timeout));
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodelay(conn: &Conn) -> io::Result<bool> {
        match conn {
            Conn::Tcp(s) => s.nodelay(),
            Conn::Unix(_) => panic!("expected a TCP stream"),
        }
    }

    #[test]
    fn tcp_streams_set_nodelay_on_both_ends() {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = tcp.local_addr().unwrap().to_string();
        let listener = Listener::Tcp(tcp);
        let dialed = Conn::connect(&addr).unwrap();
        let accepted = listener.accept().unwrap();
        assert!(matches!(nodelay(&dialed), Ok(true)), "connecting end");
        assert!(matches!(nodelay(&accepted), Ok(true)), "accepted end");
    }
}
