//! The length-prefixed binary wire protocol.
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SOFI"
//! 4       2     protocol version (currently 7), little-endian
//! 6       2     message kind, little-endian
//! 8       4     payload length in bytes, little-endian
//! 12      4     FNV-1a-32 checksum, little-endian
//! 16      len   payload (message-kind-specific, see `wire`)
//! ```
//!
//! The checksum covers header bytes 0–11 *and* the payload, so a
//! corrupted kind or length field is caught just like a corrupted
//! payload byte — a single-bit flip anywhere outside the checksum field
//! itself can never silently decode as a different message.
//!
//! Decoding is total: any byte sequence either yields a [`Message`] or a
//! typed [`ProtocolError`] — never a panic (property-tested in
//! `tests/protocol_fuzz.rs`). Oversized length fields are rejected from
//! the header alone, before any allocation, so a malicious or corrupt
//! peer cannot balloon the daemon's memory.

use crate::job::{JobSpec, JobStatus, WorkerStatus};
use crate::wire::{self, Codec, Reader, WireError, Writer};
use sofi_campaign::{CampaignResult, ExecutorStats, ExperimentResult, MemoRecord};
use sofi_space::Experiment;
use sofi_telemetry::Snapshot;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SOFI";
/// Current protocol version. Bump on any incompatible frame or payload
/// change; peers reject mismatches with [`ProtocolError::BadVersion`].
///
/// History: v2 added the [`Message::Stats`]/[`Message::Telemetry`] frame
/// pair, live [`ExecutorStats`] in [`Message::Progress`] and
/// [`JobStatus`], and a seventh packed [`sofi_campaign::CampaignConfig`]
/// word (the `telemetry` flag). v3 appended the eighth packed config
/// word (the machine's `block_engine` flag). v4 appended the ninth
/// packed config word (`memo_gate`), the `warm_store` flag in
/// [`JobSpec`], and three trailing [`ExecutorStats`] words
/// (`gate_shards_on`, `gate_shards_off`, `store_hits`). v5 added the
/// distributed-fabric frames: worker registration and heartbeat
/// ([`Message::Register`]/[`Message::Heartbeat`]), leased fault-list
/// shards ([`Message::LeaseRequest`]/[`Message::LeaseGrant`]/
/// [`Message::NoWork`]), streamed partial-result upload
/// ([`Message::PartialUpload`]/[`Message::UploadAck`]) and the worker
/// registry query ([`Message::Workers`]/[`Message::WorkerReport`]).
/// v6 extended the fault-domain byte with the control-flow domains
/// (`InstrSkip`/`OpcodeBit`/`BranchInvert`, wire tags 2–4) and the trap
/// codec with `IllegalOpcode` (tag 5); a v5 peer offered a v6 frame
/// answers with a typed `BadVersion(5)` instead of misdecoding the new
/// tags. v7 shrank the packed config in [`JobSpec`] from nine words to
/// five (threads, timeout factor, timeout slack, serial limit,
/// telemetry): the outcome-neutral executor switches `convergence`,
/// `memoization`, `memo_gate` and the machine's `block_engine` are gone
/// from the wire, and the executor always runs its one default path. A
/// v6 peer gets a typed `BadVersion(6)`; a v7 daemon refuses a v6
/// journal instead of truncating it (see [`crate::journal`]). Words 1–3
/// (timeout factor, timeout slack, serial limit) have since become
/// constants: a v7 spec must carry exactly their values, or it is
/// refused at decode. Dropping the three words is left to a later
/// protocol version, so that v7 journals and stores reopen as written.
pub const VERSION: u16 = 7;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on payload size (64 MiB) — rejected before allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// A protocol-level failure while reading or decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended mid-frame (header or payload truncated).
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// The header's length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The limit it exceeded.
        max: u32,
    },
    /// The frame did not hash to the header's checksum.
    BadChecksum {
        /// Checksum from the header.
        expected: u32,
        /// FNV-1a-32 of the received header bytes 0–11 plus payload.
        found: u32,
    },
    /// The header's kind field names no known message.
    UnknownKind(u16),
    /// The payload failed to decode as the kind's message body.
    Malformed(WireError),
    /// An I/O error other than clean end-of-stream.
    Io(io::ErrorKind),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::BadVersion(v) => {
                write!(f, "protocol version {v} (this build speaks {VERSION})")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte limit")
            }
            ProtocolError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "payload checksum {found:#010x}, header says {expected:#010x}"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            ProtocolError::Malformed(e) => write!(f, "malformed payload: {e}"),
            ProtocolError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> ProtocolError {
        ProtocolError::Malformed(e)
    }
}

/// What the coordinator did with a partial-result upload.
///
/// The merge is idempotent and keyed by `(job, shard)`: a shard's
/// results enter the journal exactly once no matter how many workers
/// upload it or how often — later copies are acknowledged and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadOutcome {
    /// First valid upload for the shard: journaled and merged.
    Committed,
    /// The shard was already committed (by this worker's retry or by
    /// another worker after a lease re-grant); the results were
    /// bit-identical by determinism and have been dropped.
    Duplicate,
    /// The lease no longer matches (expired and re-queued, re-granted to
    /// another worker, or from a previous coordinator incarnation) and
    /// the shard is not yet committed by anyone — the results were
    /// dropped; the worker should request a fresh lease.
    StaleLease,
}

impl UploadOutcome {
    fn encode(self) -> u8 {
        match self {
            UploadOutcome::Committed => 0,
            UploadOutcome::Duplicate => 1,
            UploadOutcome::StaleLease => 2,
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<UploadOutcome, WireError> {
        match r.u8()? {
            0 => Ok(UploadOutcome::Committed),
            1 => Ok(UploadOutcome::Duplicate),
            2 => Ok(UploadOutcome::StaleLease),
            t => Err(r.err(format!("bad upload-outcome tag {t}"))),
        }
    }
}

impl fmt::Display for UploadOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UploadOutcome::Committed => "committed",
            UploadOutcome::Duplicate => "duplicate",
            UploadOutcome::StaleLease => "stale lease",
        })
    }
}

/// Every message the protocol carries, requests and responses alike.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // --- requests (client → daemon) ---
    /// Submit a campaign job. With `wait`, the daemon keeps the
    /// connection open and streams [`Message::Progress`] frames followed
    /// by the final [`Message::JobResult`].
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Stream progress + result on this connection.
        wait: bool,
    },
    /// Request status: one job, or all known jobs when `job` is `None`.
    Status {
        /// Job id, or `None` for the full list.
        job: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Graceful drain: finish queued and running jobs, accept no new
    /// submissions, then exit.
    Shutdown,
    /// Request a telemetry snapshot: one job's registry, or the
    /// daemon-wide registry merged with every job's when `job` is
    /// `None`. Answered with [`Message::Telemetry`].
    Stats {
        /// Job id, or `None` for the merged daemon-wide view.
        job: Option<u64>,
    },
    /// A remote worker introduces itself to the coordinator. Answered
    /// with [`Message::Registered`].
    Register {
        /// Self-chosen worker name (hostname, pod id, …) — shown in the
        /// worker registry, not required to be unique.
        name: String,
    },
    /// Liveness signal from a registered worker. Like any request from
    /// the worker, it keeps every lease the worker holds alive. Answered
    /// with [`Message::HeartbeatAck`].
    Heartbeat {
        /// Worker id from [`Message::Registered`].
        worker: u64,
    },
    /// A worker asks for a fault-list shard to execute. Answered with
    /// [`Message::LeaseGrant`] or [`Message::NoWork`].
    LeaseRequest {
        /// Worker id from [`Message::Registered`].
        worker: u64,
    },
    /// A worker streams back one executed shard's results. Answered with
    /// [`Message::UploadAck`].
    PartialUpload {
        /// Worker id from [`Message::Registered`].
        worker: u64,
        /// The lease under which the shard was granted.
        lease: u64,
        /// Job the shard belongs to.
        job: u64,
        /// Shard index within the job's current shard table.
        shard: u32,
        /// One outcome per leased experiment.
        results: Vec<ExperimentResult>,
        /// Executor counters for this shard's execution.
        stats: ExecutorStats,
        /// Fresh fault-equivalence facts the shard's runs established
        /// (empty when the job bypasses the warm store) — fed into the coordinator's
        /// persistent warm store so remote work warms future jobs
        /// exactly like local work.
        memo: Vec<MemoRecord>,
    },
    /// Request the worker registry. Answered with
    /// [`Message::WorkerReport`].
    Workers,

    // --- responses (daemon → client) ---
    /// Submission accepted and queued.
    Accepted {
        /// Assigned job id.
        job: u64,
    },
    /// Backpressure: the bounded queue is full, try again later.
    Busy {
        /// Jobs currently queued.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// Answer to [`Message::Status`].
    StatusReport {
        /// One entry per requested job.
        jobs: Vec<JobStatus>,
    },
    /// Streamed progress event for a `--wait` submission.
    Progress {
        /// Job id.
        job: u64,
        /// Experiments with committed outcomes so far.
        done: u64,
        /// Total experiments in the plan.
        total: u64,
        /// Executor counters merged over the batches committed so far.
        stats: ExecutorStats,
    },
    /// Final result of a finished job.
    JobResult {
        /// Job id.
        job: u64,
        /// The merged campaign result (bit-identical to an in-process
        /// executor run of the same spec).
        result: CampaignResult,
        /// Executor counters accumulated over all batches.
        stats: ExecutorStats,
    },
    /// Acknowledges a cancellation.
    Cancelled {
        /// Job id.
        job: u64,
    },
    /// Request-level failure (unknown job, assembly error, …).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// The daemon is draining and accepts no new submissions.
    ShuttingDown,
    /// Answer to [`Message::Stats`]: a point-in-time telemetry snapshot.
    Telemetry {
        /// Counters, gauges and histograms from the requested registry.
        snapshot: Snapshot,
    },
    /// Answer to [`Message::Register`].
    Registered {
        /// Coordinator-assigned worker id; quote it in every later
        /// heartbeat, lease request and upload.
        worker: u64,
        /// The coordinator's lease timeout in milliseconds — the worker
        /// must heartbeat well inside this interval or its leases are
        /// re-queued.
        lease_ms: u64,
    },
    /// Answer to [`Message::LeaseRequest`] when work is available: an
    /// exclusive, expiring claim on one fault-list shard.
    LeaseGrant {
        /// Lease id; quote it in the upload.
        lease: u64,
        /// Job the shard belongs to.
        job: u64,
        /// Shard index within the job's shard table.
        shard: u32,
        /// The job spec, verbatim — the worker rebuilds the identical
        /// campaign from it (same program, domain and config ⇒ same
        /// deterministic outcomes).
        spec: JobSpec,
        /// The exact experiments to execute.
        experiments: Vec<Experiment>,
    },
    /// Answer to [`Message::LeaseRequest`] when nothing is leasable.
    NoWork {
        /// `true` once the coordinator is draining — the worker should
        /// exit rather than poll again.
        draining: bool,
    },
    /// Answer to [`Message::PartialUpload`].
    UploadAck {
        /// What the coordinator did with the shard.
        outcome: UploadOutcome,
    },
    /// Answer to [`Message::Workers`].
    WorkerReport {
        /// One entry per registered worker, in registration order.
        workers: Vec<WorkerStatus>,
    },
    /// Answer to [`Message::Heartbeat`].
    HeartbeatAck {
        /// `true` once the coordinator is draining.
        draining: bool,
        /// `false` when the worker id is unknown (the coordinator
        /// restarted since registration) — the worker must re-register.
        known: bool,
    },
}

impl Message {
    /// The header kind code for this message.
    pub fn kind(&self) -> u16 {
        match self {
            Message::Submit { .. } => 1,
            Message::Status { .. } => 2,
            Message::Cancel { .. } => 3,
            Message::Shutdown => 4,
            Message::Stats { .. } => 5,
            Message::Register { .. } => 6,
            Message::Heartbeat { .. } => 7,
            Message::LeaseRequest { .. } => 8,
            Message::PartialUpload { .. } => 9,
            Message::Workers => 10,
            Message::Accepted { .. } => 100,
            Message::Busy { .. } => 101,
            Message::StatusReport { .. } => 102,
            Message::Progress { .. } => 103,
            Message::JobResult { .. } => 104,
            Message::Cancelled { .. } => 105,
            Message::Error { .. } => 106,
            Message::ShuttingDown => 107,
            Message::Telemetry { .. } => 108,
            Message::Registered { .. } => 109,
            Message::LeaseGrant { .. } => 110,
            Message::NoWork { .. } => 111,
            Message::UploadAck { .. } => 112,
            Message::WorkerReport { .. } => 113,
            Message::HeartbeatAck { .. } => 114,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::Submit { spec, wait } => {
                spec.put(&mut w);
                w.bool(*wait);
            }
            Message::Status { job } | Message::Stats { job } => match job {
                Some(id) => {
                    w.bool(true);
                    w.u64(*id);
                }
                None => w.bool(false),
            },
            Message::Cancel { job } => w.u64(*job),
            Message::Shutdown | Message::ShuttingDown | Message::Workers => {}
            Message::Register { name } => w.str(name),
            Message::Heartbeat { worker } | Message::LeaseRequest { worker } => w.u64(*worker),
            Message::PartialUpload {
                worker,
                lease,
                job,
                shard,
                results,
                stats,
                memo,
            } => {
                w.u64(*worker);
                w.u64(*lease);
                w.u64(*job);
                w.u32(*shard);
                w.seq(results);
                stats.put(&mut w);
                w.seq(memo);
            }
            Message::Accepted { job } => w.u64(*job),
            Message::Busy { queued, capacity } => {
                w.u32(*queued);
                w.u32(*capacity);
            }
            Message::StatusReport { jobs } => w.seq(jobs),
            Message::Progress {
                job,
                done,
                total,
                stats,
            } => {
                w.u64(*job);
                w.u64(*done);
                w.u64(*total);
                stats.put(&mut w);
            }
            Message::JobResult { job, result, stats } => {
                w.u64(*job);
                result.put(&mut w);
                stats.put(&mut w);
            }
            Message::Cancelled { job } => w.u64(*job),
            Message::Error { message } => w.str(message),
            Message::Telemetry { snapshot } => snapshot.put(&mut w),
            Message::Registered { worker, lease_ms } => {
                w.u64(*worker);
                w.u64(*lease_ms);
            }
            Message::LeaseGrant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } => {
                w.u64(*lease);
                w.u64(*job);
                w.u32(*shard);
                spec.put(&mut w);
                w.seq(experiments);
            }
            Message::NoWork { draining } => w.bool(*draining),
            Message::UploadAck { outcome } => w.u8(outcome.encode()),
            Message::WorkerReport { workers } => w.seq(workers),
            Message::HeartbeatAck { draining, known } => {
                w.bool(*draining);
                w.bool(*known);
            }
        }
        w.finish()
    }

    fn decode_payload(kind: u16, payload: &[u8]) -> Result<Message, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            1 => Message::Submit {
                spec: JobSpec::take(&mut r)?,
                wait: r.bool()?,
            },
            2 => {
                let job = if r.bool()? { Some(r.u64()?) } else { None };
                Message::Status { job }
            }
            3 => Message::Cancel { job: r.u64()? },
            4 => Message::Shutdown,
            5 => {
                let job = if r.bool()? { Some(r.u64()?) } else { None };
                Message::Stats { job }
            }
            6 => Message::Register { name: r.str()? },
            7 => Message::Heartbeat { worker: r.u64()? },
            8 => Message::LeaseRequest { worker: r.u64()? },
            9 => Message::PartialUpload {
                worker: r.u64()?,
                lease: r.u64()?,
                job: r.u64()?,
                shard: r.u32()?,
                results: r.seq()?,
                stats: ExecutorStats::take(&mut r)?,
                memo: r.seq()?,
            },
            10 => Message::Workers,
            100 => Message::Accepted { job: r.u64()? },
            101 => Message::Busy {
                queued: r.u32()?,
                capacity: r.u32()?,
            },
            102 => Message::StatusReport { jobs: r.seq()? },
            103 => Message::Progress {
                job: r.u64()?,
                done: r.u64()?,
                total: r.u64()?,
                stats: ExecutorStats::take(&mut r)?,
            },
            104 => Message::JobResult {
                job: r.u64()?,
                result: CampaignResult::take(&mut r)?,
                stats: ExecutorStats::take(&mut r)?,
            },
            105 => Message::Cancelled { job: r.u64()? },
            106 => Message::Error { message: r.str()? },
            107 => Message::ShuttingDown,
            108 => Message::Telemetry {
                snapshot: Snapshot::take(&mut r)?,
            },
            109 => Message::Registered {
                worker: r.u64()?,
                lease_ms: r.u64()?,
            },
            110 => Message::LeaseGrant {
                lease: r.u64()?,
                job: r.u64()?,
                shard: r.u32()?,
                spec: JobSpec::take(&mut r)?,
                experiments: r.seq()?,
            },
            111 => Message::NoWork {
                draining: r.bool()?,
            },
            112 => Message::UploadAck {
                outcome: UploadOutcome::decode(&mut r)?,
            },
            113 => Message::WorkerReport { workers: r.seq()? },
            114 => Message::HeartbeatAck {
                draining: r.bool()?,
                known: r.bool()?,
            },
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Encodes this message as one complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        debug_assert!(payload.len() as u32 <= MAX_PAYLOAD);
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&self.kind().to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let checksum = frame_checksum(frame[..12].try_into().unwrap(), &payload);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes one frame from the start of `buf`, returning the message
    /// and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtocolError`] on any malformed input; never
    /// panics.
    pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
        if buf.len() < HEADER_LEN {
            return Err(ProtocolError::Truncated);
        }
        let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
        let (kind, len) = check_header(&header)?;
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(ProtocolError::Truncated);
        }
        let payload = &buf[HEADER_LEN..total];
        verify_checksum(&header, payload)?;
        Ok((Message::decode_payload(kind, payload)?, total))
    }
}

/// The frame checksum: FNV-1a-32 over the first 12 header bytes, then
/// the payload.
fn frame_checksum(header_prefix: &[u8; 12], payload: &[u8]) -> u32 {
    wire::fnv1a32_update(wire::fnv1a32(header_prefix), payload)
}

fn verify_checksum(header: &[u8; HEADER_LEN], payload: &[u8]) -> Result<(), ProtocolError> {
    let found = frame_checksum(header[..12].try_into().unwrap(), payload);
    let expected = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if found == expected {
        Ok(())
    } else {
        Err(ProtocolError::BadChecksum { expected, found })
    }
}

/// Validates a frame header, returning `(kind, payload_len)`.
fn check_header(header: &[u8; HEADER_LEN]) -> Result<(u16, u32), ProtocolError> {
    let magic: [u8; 4] = header[..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let kind = u16::from_le_bytes(header[6..8].try_into().unwrap());
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((kind, len))
}

/// Writes one framed message to `w` (single `write_all`, then flush).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    w.write_all(&msg.encode_frame())?;
    w.flush()
}

/// The frame reader of both ends, daemon and client: it buffers a
/// partially received frame across read timeouts.
///
/// A call that fails with [`ProtocolError::Io`] (`TimedOut`/`WouldBlock`)
/// leaves the partial frame buffered, and the next call resumes exactly
/// where the stream stalled; dropping those bytes would start the retry
/// in the *middle* of the frame and surface a bogus
/// `BadMagic`/`BadChecksum` instead of the retryable timeout it really
/// was. Reads never cross a frame boundary, so one reader can be dropped
/// between messages without desynchronizing the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader (no partial frame buffered).
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes of a partially received frame currently buffered. Callers
    /// can compare this across timeouts to distinguish a stalled-but-
    /// flowing stream (progress between timeouts → retry) from a dead
    /// peer (no progress → give up).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Reads one framed message, resuming any frame a previous timeout
    /// interrupted. Returns `Ok(None)` on a clean end-of-stream at a
    /// frame boundary (the peer closed the connection between messages);
    /// EOF *inside* a frame is [`ProtocolError::Truncated`].
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] on malformed frames or I/O failure,
    /// including [`ProtocolError::Io`] with `TimedOut`/`WouldBlock` when
    /// a read timeout set on the socket expires; after such a timeout the
    /// reader stays valid and the next call continues the same frame.
    pub fn read<R: Read>(&mut self, r: &mut R) -> Result<Option<Message>, ProtocolError> {
        while self.buf.len() < HEADER_LEN {
            if !self.fill(r, HEADER_LEN)? {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
        }
        let header: [u8; HEADER_LEN] = self.buf[..HEADER_LEN].try_into().unwrap();
        let (kind, len) = check_header(&header)?;
        let total = HEADER_LEN + len as usize;
        while self.buf.len() < total {
            if !self.fill(r, total)? {
                return Err(ProtocolError::Truncated);
            }
        }
        let result = (|| {
            verify_checksum(&header, &self.buf[HEADER_LEN..total])?;
            Message::decode_payload(kind, &self.buf[HEADER_LEN..total])
        })();
        // Consume the frame whether it decoded or not: a checksum or
        // payload error is final for this frame, not retryable.
        self.buf.clear();
        result.map(Some)
    }

    /// Pulls more bytes toward `target`, never past it (the next frame's
    /// bytes stay in the kernel buffer). `Ok(false)` reports EOF.
    fn fill<R: Read>(&mut self, r: &mut R, target: usize) -> Result<bool, ProtocolError> {
        let mut chunk = [0u8; 4096];
        let want = (target - self.buf.len()).min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(ProtocolError::Io(e.kind())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{CampaignConfig, FaultDomain};

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Submit {
                spec: JobSpec {
                    name: "hi".into(),
                    source: ".text\nnop\n".into(),
                    domain: FaultDomain::Memory,
                    config: CampaignConfig::default(),
                    warm_store: true,
                },
                wait: true,
            },
            Message::Status { job: None },
            Message::Status { job: Some(3) },
            Message::Cancel { job: 9 },
            Message::Shutdown,
            Message::Stats { job: None },
            Message::Stats { job: Some(7) },
            Message::Accepted { job: 1 },
            Message::Busy {
                queued: 16,
                capacity: 16,
            },
            Message::StatusReport { jobs: vec![] },
            Message::Progress {
                job: 1,
                done: 32,
                total: 64,
                stats: ExecutorStats {
                    workers: 2,
                    experiments: 32,
                    memo_hits: 5,
                    ..ExecutorStats::default()
                },
            },
            Message::Cancelled { job: 2 },
            Message::Error {
                message: "no such job".into(),
            },
            Message::ShuttingDown,
            Message::Telemetry {
                snapshot: sample_snapshot(),
            },
            Message::Register {
                name: "worker-a".into(),
            },
            Message::Heartbeat { worker: 3 },
            Message::LeaseRequest { worker: 3 },
            Message::PartialUpload {
                worker: 3,
                lease: 11,
                job: 1,
                shard: 2,
                results: vec![sample_result(7)],
                stats: ExecutorStats {
                    workers: 1,
                    experiments: 1,
                    ..ExecutorStats::default()
                },
                memo: vec![sample_memo()],
            },
            Message::Workers,
            Message::Registered {
                worker: 3,
                lease_ms: 2000,
            },
            Message::LeaseGrant {
                lease: 11,
                job: 1,
                shard: 2,
                spec: JobSpec {
                    name: "hi".into(),
                    source: ".text\nnop\n".into(),
                    domain: FaultDomain::Memory,
                    config: CampaignConfig::default(),
                    warm_store: true,
                },
                experiments: vec![
                    sofi_space::Experiment {
                        id: 7,
                        coord: sofi_space::FaultCoord { cycle: 3, bit: 12 },
                        weight: 4,
                    },
                    sofi_space::Experiment {
                        id: 8,
                        coord: sofi_space::FaultCoord { cycle: 5, bit: 0 },
                        weight: 1,
                    },
                ],
            },
            Message::NoWork { draining: false },
            Message::NoWork { draining: true },
            Message::UploadAck {
                outcome: UploadOutcome::Committed,
            },
            Message::UploadAck {
                outcome: UploadOutcome::Duplicate,
            },
            Message::UploadAck {
                outcome: UploadOutcome::StaleLease,
            },
            Message::WorkerReport {
                workers: vec![crate::job::WorkerStatus {
                    id: 3,
                    name: "worker-a".into(),
                    alive: true,
                    leases_active: 1,
                    shards_committed: 9,
                    experiments_committed: 288,
                    last_seen_ms: 41,
                }],
            },
            Message::HeartbeatAck {
                draining: false,
                known: true,
            },
        ]
    }

    fn sample_result(id: u32) -> ExperimentResult {
        ExperimentResult {
            experiment: sofi_space::Experiment {
                id,
                coord: sofi_space::FaultCoord { cycle: 3, bit: 12 },
                weight: 4,
            },
            outcome: sofi_campaign::Outcome::NoEffect,
        }
    }

    fn sample_memo() -> MemoRecord {
        MemoRecord {
            cycle: 17,
            digest: sofi_machine::StateDigest::from_bits(0xDEAD_BEEF_0123_4567_89AB_CDEF),
            outcome: sofi_campaign::Outcome::SilentDataCorruption,
            final_cycle: 99,
        }
    }

    fn sample_snapshot() -> Snapshot {
        let reg = sofi_telemetry::Registry::enabled();
        reg.counter(sofi_telemetry::names::EXPERIMENTS).add(32);
        reg.gauge(sofi_telemetry::names::QUEUE_DEPTH).set(1);
        let h = reg.histogram(sofi_telemetry::names::FAULTED_RUN_CYCLES);
        for v in [0, 3, 250, 4096] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn frames_round_trip() {
        for msg in sample_messages() {
            let frame = msg.encode_frame();
            let (back, consumed) = Message::decode_frame(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        for msg in sample_messages() {
            write_message(&mut buf, &msg).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        let mut reader = FrameReader::new();
        for msg in sample_messages() {
            assert_eq!(reader.read(&mut cursor).unwrap(), Some(msg));
        }
        assert_eq!(reader.read(&mut cursor).unwrap(), None);
    }

    /// A well-formed frame (valid checksum) with an arbitrary kind and
    /// raw payload — for exercising decode paths encode_frame can't
    /// produce.
    fn raw_frame(kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&kind.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let checksum = frame_checksum(frame[..12].try_into().unwrap(), payload);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn header_corruption_is_typed() {
        let frame = Message::Shutdown.encode_frame();

        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            Message::decode_frame(&bad),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut bad = frame.clone();
        bad[4] = 99;
        assert_eq!(
            Message::decode_frame(&bad),
            Err(ProtocolError::BadVersion(99))
        );

        // A frame from a v1 peer (pre-telemetry build) is a typed
        // version error, never a misdecode or panic.
        let mut v1 = frame.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            Message::decode_frame(&v1),
            Err(ProtocolError::BadVersion(1))
        );

        // An intact frame whose kind is simply unknown.
        assert_eq!(
            Message::decode_frame(&raw_frame(0xFFFF, &[])),
            Err(ProtocolError::UnknownKind(0xFFFF))
        );
        // A *corrupted* kind field (checksum not updated) is caught by
        // the checksum, not misdecoded as another message.
        let mut bad = frame.clone();
        bad[6] ^= 1;
        assert!(matches!(
            Message::decode_frame(&bad),
            Err(ProtocolError::BadChecksum { .. })
        ));

        let mut bad = frame.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Message::decode_frame(&bad),
            Err(ProtocolError::Oversized { .. })
        ));

        assert_eq!(
            Message::decode_frame(&frame[..HEADER_LEN - 1]),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn v5_peer_frames_are_rejected_with_typed_bad_version() {
        // A frame a v5 peer would actually send: identical layout, the
        // version field says 5, and the checksum is *valid* for those
        // bytes (re-sealed, unlike the corruption cases above). The v6
        // reader must answer `BadVersion(5)` — never reach the payload
        // decoder, which could misread a fault-domain byte that in v5
        // could not carry the control-flow tags 2–4.
        let mut frame = Message::Status { job: Some(3) }.encode_frame();
        frame[4..6].copy_from_slice(&5u16.to_le_bytes());
        let payload = frame[HEADER_LEN..].to_vec();
        let checksum = frame_checksum(frame[..12].try_into().unwrap(), &payload);
        frame[12..16].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Message::decode_frame(&frame),
            Err(ProtocolError::BadVersion(5))
        );
    }

    #[test]
    fn payload_corruption_is_typed() {
        let frame = Message::Accepted { job: 7 }.encode_frame();
        // Flip a payload byte: checksum mismatch.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            Message::decode_frame(&bad),
            Err(ProtocolError::BadChecksum { .. })
        ));
        // Truncate the payload: Truncated (length field says more).
        assert_eq!(
            Message::decode_frame(&frame[..frame.len() - 1]),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A valid Accepted payload with an extra byte, checksummed
        // correctly — must fail in decode, not be silently ignored.
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.push(0xAB);
        assert!(matches!(
            Message::decode_frame(&raw_frame(100, &payload)),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
