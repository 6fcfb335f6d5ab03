//! Client-side wrappers over the wire protocol, used by the `sofi`
//! CLI's `submit` / `status` / `cancel` / `worker` subcommands and by
//! the integration tests.

use crate::coordinator::LeaseOffer;
use crate::job::{JobSpec, JobStatus, WorkerStatus};
use crate::protocol::{write_message, FrameReader, Message, ProtocolError, UploadOutcome};
use crate::server::Conn;
use sofi_campaign::{CampaignResult, ExecutorStats, ExperimentResult, MemoRecord};
use sofi_telemetry::Snapshot;
use std::fmt;
use std::io;
use std::sync::Mutex;
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect.
    Connect(io::Error),
    /// The transport or framing broke mid-exchange.
    Protocol(ProtocolError),
    /// The daemon refused the submission: bounded queue full.
    Busy {
        /// Jobs currently queued daemon-side.
        queued: u32,
        /// The daemon's queue capacity.
        capacity: u32,
    },
    /// The daemon is draining and accepts no new submissions.
    ShuttingDown,
    /// The daemon reported a request-level error.
    Server(String),
    /// The daemon sent a message that makes no sense here. Boxed so the
    /// error variant stays small — `Message` can embed a full
    /// `CampaignResult`.
    Unexpected(Box<Message>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot connect: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClientError::Busy { queued, capacity } => {
                write!(
                    f,
                    "daemon busy ({queued}/{capacity} jobs queued), retry later"
                )
            }
            ClientError::ShuttingDown => write!(f, "daemon is shutting down"),
            ClientError::Server(msg) => write!(f, "daemon error: {msg}"),
            ClientError::Unexpected(msg) => {
                write!(f, "unexpected reply kind {}", msg.kind())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// How many consecutive zero-progress read-timeout windows a client
/// tolerates *mid-frame* before declaring the peer stalled. Mid-frame
/// patience must exceed one window (a slow peer's inter-chunk gap can
/// span several), but stay bounded so a dead peer is detected within a
/// few multiples of the configured timeout.
const MAX_STALL_WINDOWS: u32 = 5;

/// One connection to a `sofi serve` daemon.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
    /// Resumable frame reader: a read timeout mid-frame keeps the bytes
    /// received so far, so the retry continues the frame instead of
    /// desynchronizing the stream into a bogus checksum error.
    reader: FrameReader,
}

impl Client {
    /// Connects to `addr` — a Unix socket path when it contains `/`,
    /// TCP `host:port` otherwise.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the daemon is unreachable.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Ok(Client {
            conn: Conn::connect(addr).map_err(ClientError::Connect)?,
            reader: FrameReader::new(),
        })
    }

    /// Applies a read timeout to the underlying socket (`None` clears
    /// it). With a timeout set, a reply that stalls *between* frames
    /// surfaces as [`ClientError::Protocol`] with a `TimedOut` /
    /// `WouldBlock` kind; a frame that keeps trickling in is retried
    /// transparently for as long as bytes keep arriving.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures as [`ClientError::Connect`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<(), ClientError> {
        self.conn
            .set_read_timeout(dur)
            .map_err(ClientError::Connect)
    }

    /// Reads one reply frame, retrying read timeouts that fire
    /// *mid-frame*. A timeout with no frame started (zero buffered
    /// bytes) surfaces immediately — that is the ordinary
    /// waiting-for-a-reply timeout. Once a frame has started arriving,
    /// timeouts are retried: unconditionally when bytes arrived since
    /// the last window (the peer is slow, not stalled), and up to
    /// [`MAX_STALL_WINDOWS`] consecutive zero-progress windows
    /// otherwise, after which the peer is declared stalled and the
    /// timeout surfaces as a typed I/O error — never as the bogus
    /// checksum failure that restarting the frame mid-stream used to
    /// produce.
    fn read_reply(&mut self) -> Result<Option<Message>, ClientError> {
        let mut last_pending = self.reader.pending();
        let mut stalled_windows = 0u32;
        loop {
            match self.reader.read(&mut self.conn) {
                Ok(msg) => return Ok(msg),
                Err(ProtocolError::Io(kind))
                    if kind == io::ErrorKind::TimedOut || kind == io::ErrorKind::WouldBlock =>
                {
                    let pending = self.reader.pending();
                    if pending > last_pending {
                        last_pending = pending;
                        stalled_windows = 0;
                        continue;
                    }
                    if pending > 0 {
                        stalled_windows += 1;
                        if stalled_windows < MAX_STALL_WINDOWS {
                            continue;
                        }
                    }
                    return Err(ClientError::Protocol(ProtocolError::Io(kind)));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn roundtrip(&mut self, req: &Message) -> Result<Message, ClientError> {
        write_message(&mut self.conn, req)
            .map_err(|e| ClientError::Protocol(ProtocolError::Io(e.kind())))?;
        match self.read_reply()? {
            Some(msg) => Ok(msg),
            None => Err(ClientError::Protocol(ProtocolError::Truncated)),
        }
    }

    /// Submits a job without waiting; returns the assigned id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] under backpressure,
    /// [`ClientError::ShuttingDown`] during drain.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, ClientError> {
        match self.roundtrip(&Message::Submit { spec, wait: false })? {
            Message::Accepted { job } => Ok(job),
            Message::Busy { queued, capacity } => Err(ClientError::Busy { queued, capacity }),
            Message::ShuttingDown => Err(ClientError::ShuttingDown),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Submits a job and blocks until it finishes, invoking
    /// `on_progress(done, total, stats)` for every streamed progress
    /// frame — `stats` carries the executor counters merged over the
    /// batches committed so far. Returns the job id with the final
    /// merged result and stats.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus [`ClientError::Server`] when the job
    /// fails or is cancelled mid-wait.
    pub fn submit_wait(
        &mut self,
        spec: JobSpec,
        mut on_progress: impl FnMut(u64, u64, &ExecutorStats),
    ) -> Result<(u64, CampaignResult, ExecutorStats), ClientError> {
        let job = match self.roundtrip(&Message::Submit { spec, wait: true })? {
            Message::Accepted { job } => job,
            Message::Busy { queued, capacity } => {
                return Err(ClientError::Busy { queued, capacity });
            }
            Message::ShuttingDown => return Err(ClientError::ShuttingDown),
            Message::Error { message } => return Err(ClientError::Server(message)),
            other => return Err(ClientError::Unexpected(Box::new(other))),
        };
        loop {
            match self.read_reply()? {
                Some(Message::Progress {
                    done, total, stats, ..
                }) => on_progress(done, total, &stats),
                Some(Message::JobResult { result, stats, .. }) => {
                    return Ok((job, result, stats));
                }
                Some(Message::Error { message }) => return Err(ClientError::Server(message)),
                Some(other) => return Err(ClientError::Unexpected(Box::new(other))),
                None => return Err(ClientError::Protocol(ProtocolError::Truncated)),
            }
        }
    }

    /// Fetches status for one job, or all jobs when `job` is `None`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown job ids.
    pub fn status(&mut self, job: Option<u64>) -> Result<Vec<JobStatus>, ClientError> {
        match self.roundtrip(&Message::Status { job })? {
            Message::StatusReport { jobs } => Ok(jobs),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches a telemetry snapshot: one job's registry, or the merged
    /// daemon-wide view when `job` is `None`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown job ids.
    pub fn stats(&mut self, job: Option<u64>) -> Result<Snapshot, ClientError> {
        match self.roundtrip(&Message::Stats { job })? {
            Message::Telemetry { snapshot } => Ok(snapshot),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown or already-terminal jobs,
    /// [`ClientError::ShuttingDown`] when the daemon has stopped.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Message::Cancel { job })? {
            Message::Cancelled { .. } => Ok(()),
            Message::ShuttingDown => Err(ClientError::ShuttingDown),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Registers this process as a remote worker; returns
    /// `(worker_id, lease_timeout_ms)`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn register(&mut self, name: &str) -> Result<(u64, u64), ClientError> {
        match self.roundtrip(&Message::Register { name: name.into() })? {
            Message::Registered { worker, lease_ms } => Ok((worker, lease_ms)),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Sends a worker liveness ping; returns `(draining, known)`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn heartbeat(&mut self, worker: u64) -> Result<(bool, bool), ClientError> {
        match self.roundtrip(&Message::Heartbeat { worker })? {
            Message::HeartbeatAck { draining, known } => Ok((draining, known)),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Polls the coordinator for a shard lease.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn request_lease(&mut self, worker: u64) -> Result<LeaseOffer, ClientError> {
        match self.roundtrip(&Message::LeaseRequest { worker })? {
            Message::LeaseGrant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } => Ok(LeaseOffer::Grant {
                lease,
                job,
                shard,
                spec,
                experiments,
            }),
            Message::NoWork { draining } => Ok(LeaseOffer::NoWork { draining }),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Streams one executed shard's outcomes (plus its executor stats
    /// and harvested memo facts) back to the coordinator.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    #[allow(clippy::too_many_arguments)]
    pub fn upload(
        &mut self,
        worker: u64,
        lease: u64,
        job: u64,
        shard: u32,
        results: Vec<ExperimentResult>,
        stats: ExecutorStats,
        memo: Vec<MemoRecord>,
    ) -> Result<UploadOutcome, ClientError> {
        match self.roundtrip(&Message::PartialUpload {
            worker,
            lease,
            job,
            shard,
            results,
            stats,
            memo,
        })? {
            Message::UploadAck { outcome } => Ok(outcome),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the coordinator's registered-worker table.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn workers(&mut self) -> Result<Vec<WorkerStatus>, ClientError> {
        match self.roundtrip(&Message::Workers)? {
            Message::WorkerReport { workers } => Ok(workers),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Message::Shutdown)? {
            Message::ShuttingDown => Ok(()),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }
}

/// A small thread-safe pool of daemon connections.
///
/// Checked-in clients are reused by later [`ClientPool::with`] calls
/// instead of paying a fresh TCP/Unix handshake per request — the
/// difference between hundreds of interleaved stress sessions finishing
/// in seconds versus thrashing the daemon's accept loop. Connections
/// are recycled only after exchanges that provably ended on a frame
/// boundary; anything that smells of transport trouble drops the
/// connection on the floor and the next call dials a new one.
#[derive(Debug)]
pub struct ClientPool {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl ClientPool {
    /// An empty pool dialing `addr` on demand.
    pub fn new(addr: &str) -> ClientPool {
        ClientPool {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a pooled (or freshly dialed) client. The client is
    /// returned to the pool when the exchange left the stream aligned:
    /// success, daemon-side `Busy` backpressure, or a request-level
    /// `Server` error — all of which end with a complete reply frame.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; [`ClientError::Connect`] when dialing a
    /// fresh connection fails.
    pub fn with<T>(
        &self,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut client = match self.idle.lock().unwrap().pop() {
            Some(c) => c,
            None => Client::connect(&self.addr)?,
        };
        let out = f(&mut client);
        let recyclable = matches!(
            out,
            Ok(_) | Err(ClientError::Busy { .. }) | Err(ClientError::Server(_))
        );
        if recyclable {
            self.idle.lock().unwrap().push(client);
        }
        out
    }

    /// Connections currently parked in the pool.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap().len()
    }
}
