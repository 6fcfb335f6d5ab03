//! The append-only record file under both the result journal
//! ([`crate::journal`]) and the warm store ([`crate::store`]): one copy
//! of their framing, replay and append.
//!
//! Each record is framed as `len:u32 | fnv1a32(payload):u32 | payload`
//! (little-endian). An append commits a group of records — one or more
//! — with one write and one `fsync`. The laws:
//!
//! * [`RecordLog::open`] replays the valid prefix and truncates the torn
//!   tail a crash left behind — the first short frame or checksum
//!   mismatch — so the next append starts at a record boundary;
//! * a record whose checksum holds but whose payload does not decode
//!   was committed by a build speaking another record format; that is
//!   not a torn tail, so `open` fails with [`io::ErrorKind::InvalidData`]
//!   naming the byte offset and leaves the file untouched (truncating
//!   there would drop every committed record behind it);
//! * a failed append (`write_all` or `fsync`) truncates the file back to
//!   the record boundary before its group, rolling back every record of
//!   the group, so a later successful append never lands behind a torn
//!   frame that replay would stop at. If that truncate fails too, the log
//!   refuses every later append.

use crate::wire::{self, WireError};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// What a [`RecordLog`] needs of its file beyond appending writes (a
/// trait so the rollback can be tested against failing writes).
pub(crate) trait Storage: Write {
    /// Commits written data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Cuts the storage to `len` bytes; later writes append from there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl Storage for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
}

/// An open record file holding exactly its committed records: the torn
/// tail is cut on open and a failed append is rolled back.
#[derive(Debug)]
pub(crate) struct RecordLog<S = File> {
    /// Opened in append mode: every write lands at the current end.
    file: S,
    /// Byte length of the committed records.
    end: u64,
    /// A failed append could not be rolled back; every append is refused.
    broken: bool,
}

impl RecordLog {
    /// Opens (or creates) the file at `path`, replays it — decoding each
    /// payload with `decode` — and truncates its torn tail. `what` names
    /// the file in errors.
    ///
    /// # Errors
    ///
    /// File-system failures, and [`io::ErrorKind::InvalidData`] for a
    /// checksummed record that does not decode (the file is untouched).
    pub(crate) fn open<T>(
        path: &Path,
        what: &str,
        decode: impl Fn(&[u8]) -> Result<T, WireError>,
    ) -> io::Result<(RecordLog, Vec<T>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, end) = replay(&bytes, what, decode)?;
        if end != bytes.len() as u64 {
            file.set_len(end)?;
        }
        Ok((
            RecordLog {
                file,
                end,
                broken: false,
            },
            records,
        ))
    }
}

impl<S: Storage> RecordLog<S> {
    /// Frames every payload, appends the group with one write and commits
    /// it with one `fsync`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; every record of the group is then
    /// uncommitted and the file is back at the record boundary before the
    /// group. After a failed rollback every call fails without writing.
    pub(crate) fn append<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(
                "an earlier failed append could not be rolled back; refusing to append \
                 behind a torn record",
            ));
        }
        let mut framed = Vec::new();
        for payload in payloads {
            frame_into(&mut framed, payload);
        }
        match self.file.write_all(&framed).and_then(|()| self.file.sync()) {
            Ok(()) => {
                self.end += framed.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.broken = self.file.truncate(self.end).is_err();
                Err(e)
            }
        }
    }
}

/// One record as it sits in the file: length, checksum, payload.
#[cfg(test)]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + payload.len());
    frame_into(&mut framed, payload);
    framed
}

/// Appends the framed `payload` to `buf`.
fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&wire::fnv1a32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Decodes the valid record prefix of `bytes`, returning the records and
/// the prefix's byte length. Stops — without error — at the first short
/// frame or checksum mismatch.
fn replay<T>(
    bytes: &[u8],
    what: &str,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) -> io::Result<(Vec<T>, u64)> {
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if wire::fnv1a32(payload) != crc {
            break;
        }
        let record = decode(payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{what} record at byte offset {pos} has a valid checksum but does \
                     not decode ({e}): the {what} was written in another format; \
                     refusing to truncate it"
                ),
            )
        })?;
        records.push(record);
        pos += 8 + len;
    }
    Ok((records, pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory storage: writes stop after `budget` bytes (tearing the
    /// frame), and sync or truncate fail on demand.
    #[derive(Default)]
    struct Flaky {
        data: Vec<u8>,
        budget: Option<usize>,
        fail_sync: bool,
        fail_truncate: bool,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.budget.unwrap_or(usize::MAX));
            if n == 0 {
                return Err(io::Error::other("no space left on device"));
            }
            self.budget = self.budget.map(|b| b - n);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Storage for Flaky {
        fn sync(&mut self) -> io::Result<()> {
            if self.fail_sync {
                return Err(io::Error::other("fsync failed"));
            }
            Ok(())
        }

        fn truncate(&mut self, len: u64) -> io::Result<()> {
            if self.fail_truncate {
                return Err(io::Error::other("truncate failed"));
            }
            self.data.truncate(len as usize);
            Ok(())
        }
    }

    fn log() -> RecordLog<Flaky> {
        RecordLog {
            file: Flaky::default(),
            end: 0,
            broken: false,
        }
    }

    fn replayed(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
        replay(bytes, "test", |p| Ok(p.to_vec())).unwrap()
    }

    #[test]
    fn replay_stops_at_a_torn_tail_or_a_checksum_mismatch() {
        let mut bytes = [frame(b"first"), frame(b"second")].concat();
        let (records, end) = replayed(&bytes);
        assert_eq!(records, [b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(end, bytes.len() as u64);
        bytes.extend_from_slice(&frame(b"third")[..6]);
        assert_eq!(replayed(&bytes).1, end, "a short frame ends the history");
        bytes[8 + 5 + 8] ^= 0xFF; // inside the second payload
        assert_eq!(replayed(&bytes), (vec![b"first".to_vec()], 13));
    }

    #[test]
    fn failed_appends_roll_back_to_the_last_record_boundary() {
        let mut log = log();
        log.append([&b"first"[..]]).unwrap();
        // A short write tears the frame mid-payload; a failed fsync
        // after a complete write is rolled back too.
        log.file.budget = Some(11);
        assert!(log.append([&b"torn by a short write"[..]]).is_err());
        assert_eq!(log.file.data, frame(b"first"), "torn frame kept");
        log.file.budget = None;
        log.file.fail_sync = true;
        assert!(log.append([&b"unsynced"[..]]).is_err());
        assert_eq!(log.file.data, frame(b"first"));
        // The next append lands on the boundary: replay keeps it.
        log.file.fail_sync = false;
        log.append([&b"second"[..]]).unwrap();
        let (records, _) = replayed(&log.file.data);
        assert_eq!(records, [b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn a_failed_group_rolls_back_every_record_of_the_group() {
        let mut log = log();
        log.append([&b"first"[..]]).unwrap();
        let group: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        // Torn mid-write: the first record of the group lands whole, the
        // second is cut inside its payload.
        log.file.budget = Some(frame(b"alpha").len() + 10);
        assert!(log.append(group).is_err());
        assert_eq!(log.file.data, frame(b"first"), "a torn group kept");
        // Written whole, then the group's one fsync fails.
        log.file.budget = None;
        log.file.fail_sync = true;
        assert!(log.append(group).is_err());
        assert_eq!(log.file.data, frame(b"first"), "an unsynced group kept");
        // The next group lands on the record boundary: replay keeps it.
        log.file.fail_sync = false;
        log.append(group).unwrap();
        let (records, end) = replayed(&log.file.data);
        assert_eq!(
            records,
            [&b"first"[..], b"alpha", b"beta", b"gamma"].map(<[u8]>::to_vec)
        );
        assert_eq!(end, log.end);
        assert_eq!(log.end, log.file.data.len() as u64);
    }

    #[test]
    fn a_failed_rollback_refuses_every_later_append() {
        let mut log = log();
        log.append([&b"first"[..]]).unwrap();
        log.file.budget = Some(3);
        log.file.fail_truncate = true;
        assert!(log.append([&b"torn"[..]]).is_err());
        let torn = log.file.data.clone();
        log.file.budget = None;
        log.file.fail_truncate = false;
        assert!(
            log.append([&b"second"[..]]).is_err(),
            "append behind a torn frame"
        );
        assert_eq!(log.file.data, torn, "nothing written");
    }
}
