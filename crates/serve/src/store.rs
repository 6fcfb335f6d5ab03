//! The persistent cross-campaign warm store.
//!
//! A daemon-side, append-only file of fault-equivalence outcome facts
//! ([`sofi_campaign::MemoRecord`]): `(cycle, state digest) → (outcome,
//! final cycle)` entries exported by completed jobs — one per experiment,
//! at its post-injection state, the fact a resubmission probes first
//! ([`sofi_campaign::Campaign::export_memo`]) — and preloaded into later
//! campaigns over the same *context* — program source and fault
//! domain. State digests are purely
//! content-determined, so a fact recorded by one daemon process is valid
//! in any later one.
//!
//! The file is kept by the private `record_log` module, as the result
//! journal is, with one batch record per completed job: a daemon killed mid-append loses
//! at most the in-flight batch, never a committed one, and every
//! surviving record is bit-identical to what was written
//! (`tests/warm_store.rs`).

use crate::record_log::RecordLog;
use crate::wire::{self, Reader, WireError, Writer};
use sofi_campaign::{FaultDomain, MemoRecord, TIMEOUT_FACTOR, TIMEOUT_SLACK};
use sofi_machine::SERIAL_LIMIT;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// A 128-bit campaign-context key: everything that must match for a
/// memoized outcome fact to transfer between jobs. Two independent
/// FNV-1a-64 lanes over the same context bytes — not cryptographic, but
/// 128 bits of separation keeps facts from one program from ever being
/// consulted for another.
pub type ContextKey = u128;

/// FNV-1a-64 with a caller-chosen offset basis (the second lane uses a
/// different basis so the lanes are independent functions).
fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Computes the context key under which a job's memo facts are stored
/// and looked up: the program source text and the fault domain, the
/// only inputs of a job that decide its outcomes. The hashed bytes are
/// the source, the domain's wire tag, and the cycle budget's factor and
/// slack and the serial limit as little-endian `u64`s: those limits are
/// constants, and they stay in the key so that every key an earlier
/// store holds still matches.
pub fn context_key(source: &str, domain: FaultDomain) -> ContextKey {
    let mut w = Writer::new();
    wire::put_domain(&mut w, domain);
    for word in [TIMEOUT_FACTOR, TIMEOUT_SLACK, SERIAL_LIMIT as u64] {
        w.u64(word);
    }
    let tail = w.finish();
    let lane = |basis| fnv1a64_from(fnv1a64_from(basis, source.as_bytes()), &tail);
    (u128::from(lane(0x6C62_272E_07BB_0142)) << 64) | u128::from(lane(0xCBF2_9CE4_8422_2325))
}

/// One store record: a batch of memo facts for one context, exported by
/// one completed job.
fn encode_batch(ctx: ContextKey, records: &[MemoRecord]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(0); // record tag, for future format evolution
    w.u128(ctx);
    w.seq(records);
    w.finish()
}

fn decode_batch(payload: &[u8]) -> Result<(ContextKey, Vec<MemoRecord>), WireError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        0 => {}
        t => return Err(r.err(format!("bad warm-store record tag {t}"))),
    }
    let batch = (r.u128()?, r.seq()?);
    r.expect_end()?;
    Ok(batch)
}

/// An open warm store positioned at the end of its valid prefix, with
/// the full fact index in memory.
#[derive(Debug)]
pub struct WarmStore {
    log: RecordLog,
    path: PathBuf,
    /// `context → (cycle, digest bits) → fact`. The inner map both
    /// deduplicates appends (a fact persisted once is never rewritten)
    /// and serves lookups.
    index: HashMap<ContextKey, HashMap<(u64, u128), MemoRecord>>,
}

impl WarmStore {
    /// Opens (or creates) the store at `path`, replays every committed
    /// batch into the in-memory index, and truncates any torn tail.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures. A short frame or checksum
    /// mismatch is not an error — it marks the end of the committed
    /// history. A checksummed record that does not decode is: the call
    /// fails with [`io::ErrorKind::InvalidData`] naming its byte offset
    /// and leaves the file untouched, exactly as
    /// [`crate::journal::Journal::open`] does.
    pub fn open(path: &Path) -> io::Result<WarmStore> {
        let (log, batches) = RecordLog::open(path, "warm store", decode_batch)?;
        let mut index: HashMap<ContextKey, HashMap<(u64, u128), MemoRecord>> = HashMap::new();
        for (ctx, records) in batches {
            let facts = index.entry(ctx).or_default();
            for r in records {
                facts.entry((r.cycle, r.digest.to_bits())).or_insert(r);
            }
        }
        Ok(WarmStore {
            log,
            path: path.to_path_buf(),
            index,
        })
    }

    /// Every persisted fact for `ctx`, sorted by `(cycle, digest)` —
    /// ready for [`sofi_campaign::Campaign::preload_memo`]. Empty for an
    /// unknown context.
    pub fn lookup(&self, ctx: ContextKey) -> Vec<MemoRecord> {
        let Some(facts) = self.index.get(&ctx) else {
            return Vec::new();
        };
        let mut out: Vec<MemoRecord> = facts.values().copied().collect();
        out.sort_by_key(|r| (r.cycle, r.digest.to_bits()));
        out
    }

    /// Appends the not-yet-persisted subset of `records` for `ctx` as
    /// one checksummed, `fsync`ed batch, and indexes it. Returns how
    /// many facts were actually appended (0 — with no write at all —
    /// when every record was already persisted).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the batch is uncommitted, the
    /// file is rolled back to the last record boundary, and the index
    /// is unchanged (it is only updated after a successful sync).
    pub fn append(&mut self, ctx: ContextKey, records: &[MemoRecord]) -> io::Result<u64> {
        let known = self.index.entry(ctx).or_default();
        let fresh: Vec<MemoRecord> = records
            .iter()
            .filter(|r| !known.contains_key(&(r.cycle, r.digest.to_bits())))
            .copied()
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        self.log.append([encode_batch(ctx, &fresh).as_slice()])?;
        let known = self.index.entry(ctx).or_default();
        for r in &fresh {
            known.insert((r.cycle, r.digest.to_bits()), *r);
        }
        Ok(fresh.len() as u64)
    }

    /// Total facts indexed across all contexts.
    pub fn len(&self) -> usize {
        self.index.values().map(HashMap::len).sum()
    }

    /// `true` when the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.index.values().all(HashMap::is_empty)
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::frame;
    use sofi_campaign::Outcome;
    use sofi_machine::StateDigest;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sofi-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn fact(cycle: u64, digest: u128, outcome: Outcome) -> MemoRecord {
        MemoRecord {
            cycle,
            digest: StateDigest::from_bits(digest),
            outcome,
            final_cycle: cycle + 100,
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip");
        let ctx_a = 0x1111_u128;
        let ctx_b = 0x2222_u128;
        let a = vec![
            fact(5, 0xAAAA, Outcome::NoEffect),
            fact(9, 0xBBBB, Outcome::SilentDataCorruption),
        ];
        let b = vec![fact(3, 0xCCCC, Outcome::Timeout)];
        {
            let mut store = WarmStore::open(&path).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.append(ctx_a, &a).unwrap(), 2);
            assert_eq!(store.append(ctx_b, &b).unwrap(), 1);
            // Re-appending already-persisted facts writes nothing.
            assert_eq!(store.append(ctx_a, &a).unwrap(), 0);
        }
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.index.values().filter(|f| !f.is_empty()).count(), 2);
        assert_eq!(store.lookup(ctx_a), a);
        assert_eq!(store.lookup(ctx_b), b);
        assert!(store.lookup(0x3333).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn");
        let ctx = 0x42_u128;
        {
            let mut store = WarmStore::open(&path).unwrap();
            store
                .append(ctx, &[fact(1, 0x11, Outcome::NoEffect)])
                .unwrap();
            store
                .append(ctx, &[fact(2, 0x22, Outcome::DetectedCorrected)])
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate a daemon killed mid-append: half a record on the end.
        let mut torn = full.clone();
        torn.extend_from_slice(&[0x99, 0x03, 0x00, 0x00, 0x17, 0xFE]);
        std::fs::write(&path, &torn).unwrap();

        let mut store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "torn tail must not hide committed facts");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full.len() as u64);
        store
            .append(ctx, &[fact(3, 0x33, Outcome::Timeout)])
            .unwrap();
        drop(store);
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_corruption_ends_the_valid_prefix() {
        let path = temp_path("crc");
        let ctx = 0x7_u128;
        {
            let mut store = WarmStore::open(&path).unwrap();
            store
                .append(ctx, &[fact(1, 0x11, Outcome::NoEffect)])
                .unwrap();
            store
                .append(ctx, &[fact(2, 0x22, Outcome::NoEffect)])
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let second_start = {
            let len0 = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            8 + len0
        };
        bytes[second_start + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let store = WarmStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "corruption must cut the history there");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn other_format_store_is_refused_untouched() {
        // A checksummed record with a tag this build does not know: a
        // store written in another record format. Treating it as a torn
        // tail would truncate the committed batch behind it.
        let ctx = 0x5_u128;
        let mut other = encode_batch(ctx, &[fact(1, 0x11, Outcome::NoEffect)]);
        other[0] = 1;
        let mut bytes = frame(&other);
        bytes.extend_from_slice(&frame(&encode_batch(
            ctx,
            &[fact(2, 0x22, Outcome::Timeout)],
        )));

        let path = temp_path("other-format");
        std::fs::write(&path, &bytes).unwrap();
        let err = WarmStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("byte offset 0"),
            "error must name the record's offset: {err}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "file must be untouched"
        );

        // The same refusal past a valid prefix names the later offset.
        let mut later = frame(&encode_batch(ctx, &[fact(3, 0x33, Outcome::NoEffect)]));
        let offset = later.len();
        later.extend_from_slice(&bytes);
        std::fs::write(&path, &later).unwrap();
        let err = WarmStore::open(&path).unwrap_err();
        assert!(err.to_string().contains(&format!("byte offset {offset}")));
        assert_eq!(std::fs::read(&path).unwrap(), later);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn context_key_separates_programs_and_domains() {
        let base = context_key("nop\n", FaultDomain::Memory);
        assert_ne!(base, context_key("add r1, r2\n", FaultDomain::Memory));
        assert_ne!(base, context_key("nop\n", FaultDomain::RegisterFile));
    }

    /// Keys computed by the daemon before the limits became constants:
    /// a store written then must keep answering under the same keys.
    #[test]
    fn context_keys_match_earlier_stores() {
        assert_eq!(
            context_key("nop\n", FaultDomain::Memory),
            0x2824_0946_f0f2_ce76_8040_969a_4950_d1d3
        );
        assert_eq!(
            context_key("nop\n", FaultDomain::RegisterFile),
            0x8617_12e5_361c_f78d_fd2e_e69c_e785_d1a4
        );
    }
}
