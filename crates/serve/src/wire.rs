//! Binary wire codec: primitives + result-type encodings.
//!
//! Everything the daemon persists or ships over a socket — frames, journal
//! records, warm-store batches, job specs, campaign results — reduces to
//! this little-endian codec. It is deliberately dumb: fixed-width
//! integers, length-prefixed strings/sequences, one tag byte per enum
//! variant. Each type has one encoding: a tag enum a `put_*`/`take_*`
//! pair, a record type a [`Codec`] impl, whose `MIN_BYTES` bounds every
//! sequence of it ([`Writer::seq`], [`Reader::seq`]). Decoding is total
//! (never panics on arbitrary bytes) and returns a typed [`WireError`]
//! with the offending byte offset, which the protocol layer surfaces as
//! `ProtocolError::Malformed`.

use sofi_campaign::{
    CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, MemoRecord, Outcome,
};
use sofi_isa::MemWidth;
use sofi_machine::{StateDigest, Trap};
use sofi_space::{Experiment, FaultCoord, FaultSpace};
use sofi_telemetry::{Bucket, HistogramSnapshot, Snapshot};
use std::fmt;

/// Decode failure: what went wrong and where in the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description ("truncated u32", "bad outcome tag 9").
    pub message: String,
    /// Byte offset into the payload at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at payload byte {}", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 32-bit hash — the frame and journal-record checksum. Not
/// cryptographic; it exists to catch torn writes and line corruption.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    fnv1a32_update(0x811c_9dc5, bytes)
}

/// Streaming FNV-1a-32: folds `bytes` into an existing hash state, so a
/// checksum can cover discontiguous regions (the frame header and the
/// payload) without concatenating them. Seed with `fnv1a32(b"")`
/// (the offset basis) for a fresh hash.
///
/// A single corrupted byte always changes the result: the first
/// differing byte sends the two states through `xor` to different
/// values, and every subsequent step (xor with an identical byte,
/// multiply by an odd constant) is a bijection, so the states can never
/// re-converge.
pub fn fnv1a32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state ^= u32::from(b);
        state = state.wrapping_mul(0x0100_0193);
    }
    state
}

/// A record type's one encoding. `MIN_BYTES` is the fewest bytes any
/// value encodes to: [`Reader::seq`] refuses a claimed length whose
/// elements could not fit in what is left of the buffer, before it
/// reserves room for them.
pub trait Codec: Sized {
    /// The fewest bytes any value encodes to.
    const MIN_BYTES: usize;

    /// Appends this value's encoding.
    fn put(&self, w: &mut Writer);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// A [`WireError`] on truncation, a bad tag or a broken invariant.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` as two little-endian `u64`s, high half first.
    pub fn u128(&mut self, v: u128) {
        self.u64((v >> 64) as u64);
        self.u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed (`u32`) sequence.
    pub fn seq<T: Codec>(&mut self, items: &[T]) {
        self.u32(items.len() as u32);
        for item in items {
            item.put(self);
        }
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far: the offset of the next read.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Error constructor at the current offset.
    pub fn err(&self, message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Fails unless the whole buffer was consumed (catches overlong
    /// payloads smuggled under a valid prefix).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!("{} trailing bytes after message", self.remaining())))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.err(format!("truncated {what}")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads a `u128` written by [`Writer::u128`].
    pub fn u128(&mut self) -> Result<u128, WireError> {
        let hi = self.u64()?;
        let lo = self.u64()?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Reads a one-byte bool (strict: only 0 and 1 are valid).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(self.err(format!(
                "string length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not valid UTF-8"))
    }

    /// Reads a sequence written by [`Writer::seq`]. A claimed length
    /// whose elements, at `T::MIN_BYTES` each, could not fit in the
    /// remaining bytes is an error before anything is reserved.
    pub fn seq<T: Codec>(&mut self) -> Result<Vec<T>, WireError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(T::MIN_BYTES) > self.remaining() {
            return Err(self.err(format!(
                "sequence length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::take(self)?);
        }
        Ok(items)
    }
}

// --- Suite result-type codecs -------------------------------------------

/// Encodes a [`FaultDomain`] as one tag byte. Tags 2–4 (the control-flow
/// domains) are a protocol-v6 addition; a v5 peer never sees them because
/// version negotiation rejects the session first.
pub fn put_domain(w: &mut Writer, d: FaultDomain) {
    w.u8(match d {
        FaultDomain::Memory => 0,
        FaultDomain::RegisterFile => 1,
        FaultDomain::InstrSkip => 2,
        FaultDomain::OpcodeBit => 3,
        FaultDomain::BranchInvert => 4,
    });
}

/// Decodes a [`FaultDomain`].
pub fn take_domain(r: &mut Reader<'_>) -> Result<FaultDomain, WireError> {
    match r.u8()? {
        0 => Ok(FaultDomain::Memory),
        1 => Ok(FaultDomain::RegisterFile),
        2 => Ok(FaultDomain::InstrSkip),
        3 => Ok(FaultDomain::OpcodeBit),
        4 => Ok(FaultDomain::BranchInvert),
        t => Err(r.err(format!("bad fault-domain tag {t}"))),
    }
}

fn put_width(w: &mut Writer, width: MemWidth) {
    w.u8(match width {
        MemWidth::Byte => 1,
        MemWidth::Half => 2,
        MemWidth::Word => 4,
    });
}

fn take_width(r: &mut Reader<'_>) -> Result<MemWidth, WireError> {
    match r.u8()? {
        1 => Ok(MemWidth::Byte),
        2 => Ok(MemWidth::Half),
        4 => Ok(MemWidth::Word),
        t => Err(r.err(format!("bad memory-width tag {t}"))),
    }
}

fn put_trap(w: &mut Writer, trap: Trap) {
    match trap {
        Trap::Misaligned { addr, width } => {
            w.u8(0);
            w.u32(addr);
            put_width(w, width);
        }
        Trap::OutOfRange { addr } => {
            w.u8(1);
            w.u32(addr);
        }
        Trap::MmioRead { addr } => {
            w.u8(2);
            w.u32(addr);
        }
        Trap::BadJump { target } => {
            w.u8(3);
            w.u32(target);
        }
        Trap::SerialOverflow => w.u8(4),
        Trap::IllegalOpcode { opcode } => {
            w.u8(5);
            w.u8(opcode);
        }
    }
}

fn take_trap(r: &mut Reader<'_>) -> Result<Trap, WireError> {
    match r.u8()? {
        0 => Ok(Trap::Misaligned {
            addr: r.u32()?,
            width: take_width(r)?,
        }),
        1 => Ok(Trap::OutOfRange { addr: r.u32()? }),
        2 => Ok(Trap::MmioRead { addr: r.u32()? }),
        3 => Ok(Trap::BadJump { target: r.u32()? }),
        4 => Ok(Trap::SerialOverflow),
        5 => Ok(Trap::IllegalOpcode { opcode: r.u8()? }),
        t => Err(r.err(format!("bad trap tag {t}"))),
    }
}

/// Encodes an [`Outcome`] as tag byte + variant payload.
pub fn put_outcome(w: &mut Writer, o: Outcome) {
    match o {
        Outcome::NoEffect => w.u8(0),
        Outcome::DetectedCorrected => w.u8(1),
        Outcome::SilentDataCorruption => w.u8(2),
        Outcome::DetectedUnrecoverable => w.u8(3),
        Outcome::AbnormalHalt { code } => {
            w.u8(4);
            w.u16(code);
        }
        Outcome::CpuException(trap) => {
            w.u8(5);
            put_trap(w, trap);
        }
        Outcome::Timeout => w.u8(6),
        Outcome::OutputFlood => w.u8(7),
    }
}

/// Decodes an [`Outcome`].
pub fn take_outcome(r: &mut Reader<'_>) -> Result<Outcome, WireError> {
    match r.u8()? {
        0 => Ok(Outcome::NoEffect),
        1 => Ok(Outcome::DetectedCorrected),
        2 => Ok(Outcome::SilentDataCorruption),
        3 => Ok(Outcome::DetectedUnrecoverable),
        4 => Ok(Outcome::AbnormalHalt { code: r.u16()? }),
        5 => Ok(Outcome::CpuException(take_trap(r)?)),
        6 => Ok(Outcome::Timeout),
        7 => Ok(Outcome::OutputFlood),
        t => Err(r.err(format!("bad outcome tag {t}"))),
    }
}

/// One bare [`Experiment`] (no outcome): the unit shipped in a lease
/// grant.
impl Codec for Experiment {
    const MIN_BYTES: usize = 4 + 8 + 8 + 8;

    fn put(&self, w: &mut Writer) {
        w.u32(self.id);
        w.u64(self.coord.cycle);
        w.u64(self.coord.bit);
        w.u64(self.weight);
    }

    fn take(r: &mut Reader<'_>) -> Result<Experiment, WireError> {
        Ok(Experiment {
            id: r.u32()?,
            coord: FaultCoord {
                cycle: r.u64()?,
                bit: r.u64()?,
            },
            weight: r.u64()?,
        })
    }
}

/// An [`Experiment`] followed by its outcome.
impl Codec for ExperimentResult {
    /// The experiment, then at least the outcome's tag byte.
    const MIN_BYTES: usize = Experiment::MIN_BYTES + 1;

    fn put(&self, w: &mut Writer) {
        self.experiment.put(w);
        put_outcome(w, self.outcome);
    }

    fn take(r: &mut Reader<'_>) -> Result<ExperimentResult, WireError> {
        Ok(ExperimentResult {
            experiment: Experiment::take(r)?,
            outcome: take_outcome(r)?,
        })
    }
}

/// One memoized fault-equivalence fact: the unit of the warm store, and
/// what a remote worker's partial upload ships home so the coordinator's
/// store keeps learning from remote work.
impl Codec for MemoRecord {
    /// Cycle, digest, at least the outcome's tag byte, final cycle.
    const MIN_BYTES: usize = 8 + 16 + 1 + 8;

    fn put(&self, w: &mut Writer) {
        w.u64(self.cycle);
        w.u128(self.digest.to_bits());
        put_outcome(w, self.outcome);
        w.u64(self.final_cycle);
    }

    fn take(r: &mut Reader<'_>) -> Result<MemoRecord, WireError> {
        Ok(MemoRecord {
            cycle: r.u64()?,
            digest: StateDigest::from_bits(r.u128()?),
            outcome: take_outcome(r)?,
            final_cycle: r.u64()?,
        })
    }
}

/// A full [`CampaignResult`].
impl Codec for CampaignResult {
    /// Benchmark name length, domain tag, space, benign weight, golden
    /// cycles, result count.
    const MIN_BYTES: usize = 4 + 1 + 8 + 8 + 8 + 8 + 4;

    fn put(&self, w: &mut Writer) {
        w.str(&self.benchmark);
        put_domain(w, self.domain);
        w.u64(self.space.cycles);
        w.u64(self.space.bits);
        w.u64(self.known_benign_weight);
        w.u64(self.golden_cycles);
        w.seq(&self.results);
    }

    fn take(r: &mut Reader<'_>) -> Result<CampaignResult, WireError> {
        Ok(CampaignResult {
            benchmark: r.str()?,
            domain: take_domain(r)?,
            space: FaultSpace {
                cycles: r.u64()?,
                bits: r.u64()?,
            },
            known_benign_weight: r.u64()?,
            golden_cycles: r.u64()?,
            results: r.seq()?,
        })
    }
}

/// The executor counters that travel with progress and a finished job.
impl Codec for ExecutorStats {
    const MIN_BYTES: usize = 12 * 8;

    fn put(&self, w: &mut Writer) {
        w.u64(self.workers as u64);
        w.u64(self.experiments);
        w.u64(self.pristine_cycles);
        w.u64(self.faulted_cycles);
        w.u64(self.converged_early);
        w.u64(self.faulted_cycles_saved);
        w.u64(self.memo_hits);
        w.u64(self.memo_misses);
        w.u64(self.memoized_cycles_saved);
        w.u64(self.gate_shards_on);
        w.u64(self.gate_shards_off);
        w.u64(self.store_hits);
    }

    fn take(r: &mut Reader<'_>) -> Result<ExecutorStats, WireError> {
        Ok(ExecutorStats {
            workers: r.u64()? as usize,
            experiments: r.u64()?,
            pristine_cycles: r.u64()?,
            faulted_cycles: r.u64()?,
            converged_early: r.u64()?,
            faulted_cycles_saved: r.u64()?,
            memo_hits: r.u64()?,
            memo_misses: r.u64()?,
            memoized_cycles_saved: r.u64()?,
            gate_shards_on: r.u64()?,
            gate_shards_off: r.u64()?,
            store_hits: r.u64()?,
        })
    }
}

/// A named counter or gauge.
impl Codec for (String, u64) {
    const MIN_BYTES: usize = 4 + 8;

    fn put(&self, w: &mut Writer) {
        w.str(&self.0);
        w.u64(self.1);
    }

    fn take(r: &mut Reader<'_>) -> Result<(String, u64), WireError> {
        Ok((r.str()?, r.u64()?))
    }
}

/// One occupied histogram bucket.
impl Codec for Bucket {
    const MIN_BYTES: usize = 3 * 8;

    fn put(&self, w: &mut Writer) {
        w.u64(self.lo);
        w.u64(self.hi);
        w.u64(self.count);
    }

    fn take(r: &mut Reader<'_>) -> Result<Bucket, WireError> {
        Ok(Bucket {
            lo: r.u64()?,
            hi: r.u64()?,
            count: r.u64()?,
        })
    }
}

/// A named histogram with its occupied buckets, which must be strictly
/// ascending by `lo`.
impl Codec for (String, HistogramSnapshot) {
    /// Name length, count, sum, min, max, bucket count.
    const MIN_BYTES: usize = 4 + 4 * 8 + 4;

    fn put(&self, w: &mut Writer) {
        let (name, h) = self;
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.min);
        w.u64(h.max);
        w.seq(&h.buckets);
    }

    fn take(r: &mut Reader<'_>) -> Result<(String, HistogramSnapshot), WireError> {
        let name = r.str()?;
        let h = HistogramSnapshot {
            count: r.u64()?,
            sum: r.u64()?,
            min: r.u64()?,
            max: r.u64()?,
            buckets: r.seq()?,
        };
        let mut prev_lo: Option<u64> = None;
        for b in &h.buckets {
            if b.hi < b.lo || prev_lo.is_some_and(|p| b.lo <= p) {
                return Err(r.err(format!("histogram buckets not ascending at lo {}", b.lo)));
            }
            prev_lo = Some(b.lo);
        }
        Ok((name, h))
    }
}

/// Reads a sequence of named entries whose names must be strictly
/// sorted: the registry emits them that way and [`Snapshot::merge`]
/// relies on it.
fn take_sorted<V>(r: &mut Reader<'_>, what: &str) -> Result<Vec<(String, V)>, WireError>
where
    (String, V): Codec,
{
    let entries: Vec<(String, V)> = r.seq()?;
    if let Some(pair) = entries.windows(2).find(|p| p[0].0 >= p[1].0) {
        let name = &pair[1].0;
        return Err(r.err(format!("{what} names not strictly sorted at {name:?}")));
    }
    Ok(entries)
}

/// A telemetry [`Snapshot`]: counters, gauges, histograms with their
/// occupied buckets. Name lists must be strictly sorted and bucket lists
/// strictly ascending by `lo`; anything else is a typed [`WireError`].
impl Codec for Snapshot {
    const MIN_BYTES: usize = 3 * 4;

    fn put(&self, w: &mut Writer) {
        w.seq(&self.counters);
        w.seq(&self.gauges);
        w.seq(&self.histograms);
    }

    fn take(r: &mut Reader<'_>) -> Result<Snapshot, WireError> {
        Ok(Snapshot {
            counters: take_sorted(r, "metric")?,
            gauges: take_sorted(r, "metric")?,
            histograms: take_sorted(r, "histogram")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.bool(true);
        w.bool(false);
        w.str("héllo");
        w.u128(u128::MAX - 5);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        r.expect_end().unwrap();
    }

    #[test]
    fn every_outcome_round_trips() {
        let outcomes = [
            Outcome::NoEffect,
            Outcome::DetectedCorrected,
            Outcome::SilentDataCorruption,
            Outcome::DetectedUnrecoverable,
            Outcome::AbnormalHalt { code: 0xDE },
            Outcome::CpuException(Trap::Misaligned {
                addr: 13,
                width: MemWidth::Word,
            }),
            Outcome::CpuException(Trap::OutOfRange { addr: 999 }),
            Outcome::CpuException(Trap::MmioRead { addr: 0xFF00 }),
            Outcome::CpuException(Trap::BadJump { target: 77 }),
            Outcome::CpuException(Trap::SerialOverflow),
            Outcome::CpuException(Trap::IllegalOpcode { opcode: 0x3F }),
            Outcome::Timeout,
            Outcome::OutputFlood,
        ];
        for o in outcomes {
            let mut w = Writer::new();
            put_outcome(&mut w, o);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(take_outcome(&mut r).unwrap(), o);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn every_domain_round_trips() {
        for d in FaultDomain::ALL {
            let mut w = Writer::new();
            put_domain(&mut w, d);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(take_domain(&mut r).unwrap(), d, "{d}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn campaign_result_round_trips() {
        let res = CampaignResult {
            benchmark: "bench".into(),
            domain: FaultDomain::RegisterFile,
            space: FaultSpace::new(100, 64),
            known_benign_weight: 17,
            golden_cycles: 100,
            results: vec![
                ExperimentResult {
                    experiment: Experiment {
                        id: 0,
                        coord: FaultCoord { cycle: 3, bit: 5 },
                        weight: 9,
                    },
                    outcome: Outcome::SilentDataCorruption,
                },
                ExperimentResult {
                    experiment: Experiment {
                        id: 1,
                        coord: FaultCoord { cycle: 90, bit: 63 },
                        weight: 1,
                    },
                    outcome: Outcome::NoEffect,
                },
            ],
        };
        let mut w = Writer::new();
        res.put(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(CampaignResult::take(&mut r).unwrap(), res);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut r = Reader::new(&[]);
        assert!(r.u32().unwrap_err().message.contains("truncated"));
        // String whose claimed length exceeds the buffer.
        let mut w = Writer::new();
        w.u32(1000);
        let buf = w.finish();
        assert!(Reader::new(&buf)
            .str()
            .unwrap_err()
            .message
            .contains("exceeds"));
        // Bogus enum tags.
        assert!(take_outcome(&mut Reader::new(&[9])).is_err());
        assert!(take_domain(&mut Reader::new(&[5])).is_err());
        // Bool strictness.
        assert!(Reader::new(&[2]).bool().is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        // Build a snapshot through the real registry so the encoded form
        // matches what the daemon actually emits.
        let reg = sofi_telemetry::Registry::enabled();
        reg.counter("serve.jobs_submitted").add(3);
        reg.counter("executor.experiments").add(41);
        reg.gauge("serve.queue_depth").set(2);
        let h = reg.histogram("executor.faulted_run_cycles");
        for v in [0, 1, 17, 900, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();

        let mut w = Writer::new();
        snap.put(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(Snapshot::take(&mut r).unwrap(), snap);
        r.expect_end().unwrap();

        // The empty snapshot round-trips too.
        let mut w = Writer::new();
        Snapshot::default().put(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(Snapshot::take(&mut r).unwrap(), Snapshot::default());
        r.expect_end().unwrap();
    }

    #[test]
    fn snapshot_decode_rejects_malformed_input() {
        // Unsorted counter names.
        let mut w = Writer::new();
        w.u32(2);
        w.str("b");
        w.u64(1);
        w.str("a");
        w.u64(2);
        w.u32(0);
        w.u32(0);
        let buf = w.finish();
        let err = Snapshot::take(&mut Reader::new(&buf)).unwrap_err();
        assert!(err.message.contains("sorted"), "{}", err.message);

        // Duplicate histogram names.
        let mut w = Writer::new();
        w.u32(0);
        w.u32(0);
        w.u32(2);
        for _ in 0..2 {
            w.str("dup");
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.u32(0);
        }
        let buf = w.finish();
        assert!(Snapshot::take(&mut Reader::new(&buf)).is_err());

        // Buckets out of order.
        let mut w = Writer::new();
        w.u32(0);
        w.u32(0);
        w.u32(1);
        w.str("h");
        w.u64(2);
        w.u64(10);
        w.u64(4);
        w.u64(6);
        w.u32(2);
        w.u64(6);
        w.u64(7);
        w.u64(1);
        w.u64(4); // lo goes backwards
        w.u64(5);
        w.u64(1);
        let buf = w.finish();
        let err = Snapshot::take(&mut Reader::new(&buf)).unwrap_err();
        assert!(err.message.contains("ascending"), "{}", err.message);

        // Absurd claimed lengths are caught by the sequence guard, not
        // by allocation.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        assert!(Snapshot::take(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Reference values for the FNV-1a parameters (empty input hashes
        // to the offset basis).
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_ne!(fnv1a32(b"sofi"), fnv1a32(b"sofj"));
    }
}
