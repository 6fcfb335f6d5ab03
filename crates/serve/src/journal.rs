//! The crash-safe result journal.
//!
//! An append-only file of [`Record`]s kept by the private `record_log`
//! module, which owns the framing, the replay, the refusal of a record in
//! another format and the rollback of a failed append. Records are
//! committed with `fsync` — a group of `Batch` records, one per shard,
//! shares one — before the daemon reports their batches as done, so a
//! restarted daemon continues exactly where the last committed batch
//! ended. A journal written by a build speaking another protocol
//! (e.g. a protocol-v6 `JobStart` with its nine packed config words) is
//! refused untouched. Experiment outcomes are journaled *before* the
//! in-memory progress counter advances, so replay can only
//! over-approximate pending work, never lose a committed result.
//!
//! Record tags: 0 `JobStart`, 1 `Batch`, 2 `End`. Tag 3 was an advisory
//! shard-lease record that recovery never read; it is no longer written,
//! and replay skips it, so a journal from a daemon that had remote
//! workers still opens. The coordinator stops when the journal refuses
//! an append (see [`crate::coordinator`]).

use crate::job::{JobSpec, JobState};
use crate::record_log::RecordLog;
use crate::wire::{Codec, Reader, WireError, Writer};
use sofi_campaign::ExperimentResult;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was accepted: the full spec, so a restarted daemon can
    /// rebuild the identical campaign (same program, domain and config
    /// ⇒ same deterministic plan and experiment ids).
    JobStart {
        /// Daemon-assigned job id.
        job: u64,
        /// The submitted spec, verbatim.
        spec: JobSpec,
    },
    /// A batch of experiments completed and their outcomes are final.
    Batch {
        /// Job id.
        job: u64,
        /// The batch's outcomes (any order within the job).
        results: Vec<ExperimentResult>,
    },
    /// The job reached a terminal state; replay needs no further work.
    End {
        /// Job id.
        job: u64,
        /// `Done`, `Failed` or `Cancelled`.
        state: JobState,
    },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Record::JobStart { job, spec } => {
                w.u8(0);
                w.u64(*job);
                spec.put(&mut w);
            }
            Record::Batch { job, results } => {
                w.u8(1);
                w.u64(*job);
                w.seq(results);
            }
            Record::End { job, state } => {
                w.u8(2);
                w.u64(*job);
                w.u8(state.encode());
            }
        }
        w.finish()
    }

    /// Decodes one record; `None` for a tag-3 lease record, which replay
    /// skips.
    fn decode(payload: &[u8]) -> Result<Option<Record>, WireError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            0 => Some(Record::JobStart {
                job: r.u64()?,
                spec: JobSpec::take(&mut r)?,
            }),
            1 => Some(Record::Batch {
                job: r.u64()?,
                results: r.seq()?,
            }),
            2 => Some(Record::End {
                job: r.u64()?,
                state: JobState::decode(&mut r)?,
            }),
            // A shard-lease record (job u64, shard u32, lease u64, worker
            // u64): no longer written, but journals from daemons that had
            // remote workers hold them, and recovery needs none.
            3 => {
                r.u64()?;
                r.u32()?;
                r.u64()?;
                r.u64()?;
                None
            }
            t => return Err(r.err(format!("bad journal record tag {t}"))),
        };
        r.expect_end()?;
        Ok(rec)
    }
}

/// An open journal file holding exactly its committed records.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    path: PathBuf,
    commits: u64,
    /// Test seam: how many appends succeed before the one that is
    /// refused (`None`: none is).
    #[cfg(test)]
    pub(crate) refuse_after: Option<u64>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every committed
    /// record, and truncates any torn tail a crash left behind.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures. A short frame or checksum
    /// mismatch is not an error — it marks the end of the committed
    /// history. A checksummed record that does not decode is: the call
    /// fails with [`io::ErrorKind::InvalidData`] naming its byte offset,
    /// and the file is left byte-for-byte unchanged.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<Record>)> {
        let (log, records) = RecordLog::open(path, "journal", Record::decode).map_err(|e| {
            if e.kind() != io::ErrorKind::InvalidData {
                return e;
            }
            // Record formats change with the protocol version.
            let version = crate::protocol::VERSION;
            io::Error::new(
                e.kind(),
                format!("{e} (this build speaks protocol v{version})"),
            )
        })?;
        let commits = records.len() as u64;
        Ok((
            Journal {
                log,
                path: path.to_path_buf(),
                commits,
                #[cfg(test)]
                refuse_after: None,
            },
            records.into_iter().flatten().collect(),
        ))
    }

    /// Appends a group of records and commits them with one `fsync`: the
    /// write is flushed and `fsync`ed before this returns, so a crash
    /// afterwards cannot lose them.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error no record of the group is
    /// committed and the file is rolled back to the record boundary
    /// before the group.
    pub fn append(&mut self, records: &[Record]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(left) = self.refuse_after {
            self.refuse_after = left.checked_sub(1);
            if left == 0 {
                return Err(io::Error::other("append refused by the test seam"));
            }
        }
        let payloads: Vec<Vec<u8>> = records.iter().map(Record::encode).collect();
        self.log.append(payloads.iter().map(Vec::as_slice))?;
        self.commits += records.len() as u64;
        Ok(())
    }

    /// Committed records so far (replayed + appended).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A job reconstructed from journal replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Job id from the start record.
    pub job: u64,
    /// The spec, verbatim as submitted.
    pub spec: JobSpec,
    /// Every committed experiment outcome, in commit order.
    pub results: Vec<ExperimentResult>,
    /// Terminal state, or `None` for a job interrupted mid-campaign
    /// (start record without end record) — the daemon resumes these.
    pub end: Option<JobState>,
}

/// Folds a replayed record stream into per-job recovery state, in
/// first-seen job order. Batches for unknown jobs (possible only with a
/// hand-edited journal) are dropped.
pub fn recover(records: Vec<Record>) -> Vec<RecoveredJob> {
    let mut order: Vec<u64> = Vec::new();
    let mut jobs: HashMap<u64, RecoveredJob> = HashMap::new();
    for record in records {
        match record {
            Record::JobStart { job, spec } => {
                order.push(job);
                jobs.insert(
                    job,
                    RecoveredJob {
                        job,
                        spec,
                        results: Vec::new(),
                        end: None,
                    },
                );
            }
            Record::Batch { job, results } => {
                if let Some(j) = jobs.get_mut(&job) {
                    j.results.extend(results);
                }
            }
            Record::End { job, state } => {
                if let Some(j) = jobs.get_mut(&job) {
                    j.end = Some(state);
                }
            }
        }
    }
    order
        .into_iter()
        .filter_map(|id| jobs.remove(&id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::frame;
    use crate::wire;
    use sofi_campaign::{CampaignConfig, FaultDomain, Outcome};
    use sofi_space::{Experiment, FaultCoord};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sofi-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn spec() -> JobSpec {
        JobSpec {
            name: "j".into(),
            source: "nop\n".into(),
            domain: FaultDomain::Memory,
            config: CampaignConfig::sequential(),
            warm_store: true,
        }
    }

    fn batch(job: u64, ids: &[u32]) -> Record {
        Record::Batch {
            job,
            results: ids
                .iter()
                .map(|&id| ExperimentResult {
                    experiment: Experiment {
                        id,
                        coord: FaultCoord {
                            cycle: u64::from(id) + 1,
                            bit: 0,
                        },
                        weight: 2,
                    },
                    outcome: Outcome::NoEffect,
                })
                .collect(),
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            Record::JobStart {
                job: 1,
                spec: spec(),
            },
            batch(1, &[0, 1, 2]),
            batch(1, &[3]),
            Record::End {
                job: 1,
                state: JobState::Done,
            },
        ];
        {
            let (mut j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for r in &records {
                j.append(std::slice::from_ref(r)).unwrap();
            }
            assert_eq!(j.commits(), 4);
        }
        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(j.commits(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&[Record::JobStart {
                job: 1,
                spec: spec(),
            }])
            .unwrap();
            j.append(&[batch(1, &[0])]).unwrap();
        }
        // Simulate a crash mid-write: append half a record.
        let full = std::fs::read(&path).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[0x55, 0x01, 0x00, 0x00, 0xAA]);
        std::fs::write(&path, &torn).unwrap();

        let (mut j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2, "torn tail must not hide commits");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full.len() as u64);
        // The journal stays appendable at the committed boundary.
        j.append(&[batch(1, &[1])]).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_corruption_ends_the_valid_prefix() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&[Record::JobStart {
                job: 1,
                spec: spec(),
            }])
            .unwrap();
            j.append(&[batch(1, &[0])]).unwrap();
            j.append(&[batch(1, &[1])]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* record's payload.
        let second_start = {
            let len0 = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            8 + len0
        };
        bytes[second_start + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1, "corruption must cut the history there");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn other_format_journal_is_refused_untouched() {
        // A protocol-v6 JobStart: nine packed config words where this
        // build expects five. Its checksum is valid, so treating it as a
        // torn tail would truncate the committed Batch behind it.
        let mut w = Writer::new();
        w.u8(0);
        w.u64(1);
        w.str("j");
        w.str("nop\n");
        wire::put_domain(&mut w, FaultDomain::Memory);
        for word in [1, 3, 1_000, 1, 1, 64 * 1024, 0, 1, 1] {
            w.u64(word);
        }
        w.bool(true);
        let mut bytes = frame(&w.finish());
        let start_len = bytes.len();
        bytes.extend_from_slice(&frame(&batch(1, &[0, 1]).encode()));

        let path = temp_path("v6");
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&path).unwrap_err();
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
        let mut later = frame(&batch(1, &[9]).encode());
        let offset = later.len();
        later.extend_from_slice(&bytes[..start_len]);
        std::fs::write(&path, &later).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains(&format!("byte offset {offset}")));
        assert_eq!(std::fs::read(&path).unwrap(), later);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_partitions_jobs() {
        let recovered = recover(vec![
            Record::JobStart {
                job: 1,
                spec: spec(),
            },
            Record::JobStart {
                job: 2,
                spec: spec(),
            },
            batch(1, &[0, 1]),
            batch(2, &[0]),
            batch(1, &[2]),
            Record::End {
                job: 1,
                state: JobState::Done,
            },
        ]);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].job, 1);
        assert_eq!(recovered[0].results.len(), 3);
        assert_eq!(recovered[0].end, Some(JobState::Done));
        assert_eq!(recovered[1].job, 2);
        assert_eq!(recovered[1].results.len(), 1);
        assert_eq!(recovered[1].end, None, "job 2 was interrupted");
    }
}
