//! The append-only record file under both the result journal
//! ([`crate::journal`]) and the warm store ([`crate::store`]): one copy
//! of their framing, replay and append.
//!
//! Each record is framed as `len:u32 | fnv1a32(payload):u32 | payload`
//! (little-endian) and committed with `fsync`. The laws:
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
//!   the last record boundary, so a later successful append never lands
//!   behind a torn frame that replay would stop at. If that truncate
//!   fails too, the log refuses every later append.

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
    /// Frames `payload`, appends it and commits it with `fsync`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the record is then uncommitted and the
    /// file is back at its last record boundary. After a failed rollback
    /// every call fails without writing.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(
                "an earlier failed append could not be rolled back; refusing to append \
                 behind a torn record",
            ));
        }
        let framed = frame(payload);
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
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&wire::fnv1a32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
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
        log.append(b"first").unwrap();
        // A short write tears the frame mid-payload; a failed fsync
        // after a complete write is rolled back too.
        log.file.budget = Some(11);
        assert!(log.append(b"torn by a short write").is_err());
        assert_eq!(log.file.data, frame(b"first"), "torn frame kept");
        log.file.budget = None;
        log.file.fail_sync = true;
        assert!(log.append(b"unsynced").is_err());
        assert_eq!(log.file.data, frame(b"first"));
        // The next append lands on the boundary: replay keeps it.
        log.file.fail_sync = false;
        log.append(b"second").unwrap();
        let (records, _) = replayed(&log.file.data);
        assert_eq!(records, [b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn a_failed_rollback_refuses_every_later_append() {
        let mut log = log();
        log.append(b"first").unwrap();
        log.file.budget = Some(3);
        log.file.fail_truncate = true;
        assert!(log.append(b"torn").is_err());
        let torn = log.file.data.clone();
        log.file.budget = None;
        log.file.fail_truncate = false;
        assert!(log.append(b"second").is_err(), "append behind a torn frame");
        assert_eq!(log.file.data, torn, "nothing written");
    }
}
