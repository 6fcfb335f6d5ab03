//! Exact-bytes pins of everything `sofi-serve` writes: one frame of each
//! of the 25 message kinds, each journal record tag and one warm-store
//! batch. Protocol v7 peers, journals and stores must keep reading each
//! other, so a codec change that moves one byte fails here, whatever the
//! round-trip tests say. The expected hex is the format that v7 peers,
//! journals and stores already hold: never regenerate it to match new
//! code. A mismatch prints the bytes now produced.

use sofi_campaign::{
    CampaignConfig, CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, MemoRecord,
    Outcome,
};
use sofi_isa::MemWidth;
use sofi_machine::{StateDigest, Trap};
use sofi_serve::job::{JobSpec, JobState, JobStatus, WorkerStatus};
use sofi_serve::journal::{self, Journal, Record};
use sofi_serve::protocol::{Message, UploadOutcome};
use sofi_serve::WarmStore;
use sofi_space::{Experiment, FaultCoord, FaultSpace};
use sofi_telemetry::{Bucket, HistogramSnapshot, Snapshot};
use std::path::PathBuf;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Checks every `(what, bytes, expected hex)` and reports all mismatches
/// at once, with the bytes now produced.
fn assert_pins(pins: &[(String, Vec<u8>, &str)]) {
    let wrong: Vec<String> = pins
        .iter()
        .filter(|(_, bytes, want)| hex(bytes) != *want)
        .map(|(what, bytes, _)| format!("{what}: {}", hex(bytes)))
        .collect();
    assert!(wrong.is_empty(), "bytes moved:\n{}", wrong.join("\n"));
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-byte-pins");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spec() -> JobSpec {
    JobSpec {
        name: "hi".into(),
        source: "nop\n".into(),
        domain: FaultDomain::BranchInvert,
        config: CampaignConfig {
            threads: 3,
            telemetry: true,
            ..CampaignConfig::default()
        },
        warm_store: true,
    }
}

fn stats() -> ExecutorStats {
    ExecutorStats {
        workers: 2,
        experiments: 15,
        pristine_cycles: 300,
        faulted_cycles: 4_000,
        converged_early: 6,
        faulted_cycles_saved: 70_000,
        memo_hits: 5,
        memo_misses: 9,
        memoized_cycles_saved: 1_234,
        gate_shards_on: 1,
        gate_shards_off: 2,
        store_hits: 3,
    }
}

fn experiment(id: u32) -> Experiment {
    Experiment {
        id,
        coord: FaultCoord {
            cycle: u64::from(id) * 3 + 1,
            bit: u64::from(id) + 8,
        },
        weight: u64::from(id) + 2,
    }
}

/// Every outcome, with every trap (and every width a misaligned access
/// can have).
fn every_outcome() -> Vec<Outcome> {
    let mut outcomes = vec![
        Outcome::NoEffect,
        Outcome::DetectedCorrected,
        Outcome::SilentDataCorruption,
        Outcome::DetectedUnrecoverable,
        Outcome::AbnormalHalt { code: 0xBEEF },
    ];
    for width in [MemWidth::Byte, MemWidth::Half, MemWidth::Word] {
        outcomes.push(Outcome::CpuException(Trap::Misaligned {
            addr: 0x0102_0305,
            width,
        }));
    }
    outcomes.extend([
        Outcome::CpuException(Trap::OutOfRange { addr: 0xFFFF_0000 }),
        Outcome::CpuException(Trap::MmioRead { addr: 0x8000_0004 }),
        Outcome::CpuException(Trap::BadJump { target: 77 }),
        Outcome::CpuException(Trap::SerialOverflow),
        Outcome::CpuException(Trap::IllegalOpcode { opcode: 0x3F }),
        Outcome::Timeout,
        Outcome::OutputFlood,
    ]);
    outcomes
}

fn results() -> Vec<ExperimentResult> {
    every_outcome()
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| ExperimentResult {
            experiment: experiment(i as u32),
            outcome,
        })
        .collect()
}

fn memo(cycle: u64, outcome: Outcome) -> MemoRecord {
    MemoRecord {
        cycle,
        digest: StateDigest::from_bits(
            0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF ^ u128::from(cycle),
        ),
        outcome,
        final_cycle: cycle + 40,
    }
}

fn snapshot() -> Snapshot {
    Snapshot {
        counters: vec![("a.count".into(), 3), ("b.count".into(), u64::MAX)],
        gauges: vec![("queue".into(), 1)],
        histograms: vec![
            ("empty".into(), HistogramSnapshot::default()),
            (
                "lat".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 1_026,
                    min: 1,
                    max: 1_024,
                    buckets: vec![
                        Bucket {
                            lo: 1,
                            hi: 1,
                            count: 1,
                        },
                        Bucket {
                            lo: 1_024,
                            hi: 1_151,
                            count: 2,
                        },
                    ],
                },
            ),
        ],
    }
}

/// One message of each of the 25 kinds, in kind order.
fn every_message() -> Vec<Message> {
    vec![
        Message::Submit {
            spec: spec(),
            wait: true,
        },
        Message::Status { job: Some(7) },
        Message::Cancel { job: 9 },
        Message::Shutdown,
        Message::Stats { job: None },
        Message::Register {
            name: "worker-a".into(),
        },
        Message::Heartbeat { worker: 3 },
        Message::LeaseRequest { worker: 4 },
        Message::PartialUpload {
            worker: 3,
            lease: 11,
            job: 1,
            shard: 2,
            results: results()[..2].to_vec(),
            stats: stats(),
            memo: vec![memo(17, Outcome::SilentDataCorruption)],
        },
        Message::Workers,
        Message::Accepted { job: 1 },
        Message::Busy {
            queued: 16,
            capacity: 16,
        },
        Message::StatusReport {
            jobs: vec![JobStatus {
                id: 42,
                name: "hi".into(),
                domain: FaultDomain::RegisterFile,
                state: JobState::Failed,
                done: 10,
                total: 16,
                error: "boom".into(),
                stats: stats(),
            }],
        },
        Message::Progress {
            job: 1,
            done: 32,
            total: 64,
            stats: stats(),
        },
        Message::JobResult {
            job: 5,
            result: CampaignResult {
                benchmark: "bench".into(),
                domain: FaultDomain::Memory,
                space: FaultSpace::new(100, 64),
                known_benign_weight: 17,
                golden_cycles: 100,
                results: results(),
            },
            stats: stats(),
        },
        Message::Cancelled { job: 2 },
        Message::Error {
            message: "no such job".into(),
        },
        Message::ShuttingDown,
        Message::Telemetry {
            snapshot: snapshot(),
        },
        Message::Registered {
            worker: 3,
            lease_ms: 2_000,
        },
        Message::LeaseGrant {
            lease: 11,
            job: 1,
            shard: 2,
            spec: spec(),
            experiments: vec![experiment(7), experiment(8)],
        },
        Message::NoWork { draining: true },
        Message::UploadAck {
            outcome: UploadOutcome::StaleLease,
        },
        Message::WorkerReport {
            workers: vec![WorkerStatus {
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

const FRAMES: [&str; 25] = [
    // kind 1
    "\
        534f4649070001003900000048e9804f020000006869040000006e6f700a0403000000000000000300000000\
        000000e803000000000000000001000000000001000000000000000101",
    // kind 2
    "534f464907000200090000004e552503010700000000000000",
    // kind 3
    "534f4649070003000800000073a9f5360900000000000000",
    // kind 4
    "534f464907000400000000007d49aa09",
    // kind 5
    "534f464907000500010000008f9a63c600",
    // kind 6
    "534f4649070006000c0000001fb517e508000000776f726b65722d61",
    // kind 7
    "534f464907000700080000009d5c0bc90300000000000000",
    // kind 8
    "534f464907000800080000008d524c250400000000000000",
    // kind 9
    "\
        534f464907000900df000000423c020503000000000000000b00000000000000010000000000000002000000\
        0200000000000000010000000000000008000000000000000200000000000000000100000004000000000000\
        00090000000000000003000000000000000102000000000000000f000000000000002c01000000000000a00f\
        0000000000000600000000000000701101000000000005000000000000000900000000000000d20400000000\
        0000010000000000000002000000000000000300000000000000010000001100000000000000776655443322\
        1100eeeeddccbbaa9988023900000000000000",
    // kind 10
    "534f464907000a00000000005319aef3",
    // kind 100
    "534f4649070064000800000094be3cc60100000000000000",
    // kind 101
    "534f46490700650008000000acc343571000000010000000",
    // kind 102
    "\
        534f4649070066008c00000031bbd6a7010000002a0000000000000002000000686901030a00000000000000\
        100000000000000004000000626f6f6d02000000000000000f000000000000002c01000000000000a00f0000\
        000000000600000000000000701101000000000005000000000000000900000000000000d204000000000000\
        010000000000000002000000000000000300000000000000",
    // kind 103
    "\
        534f46490700670078000000a6443db201000000000000002000000000000000400000000000000002000000\
        000000000f000000000000002c01000000000000a00f00000000000006000000000000007011010000000000\
        05000000000000000900000000000000d2040000000000000100000000000000020000000000000003000000\
        00000000",
    // kind 104
    "\
        534f4649070068006f0200003d9d9c2005000000000000000500000062656e63680064000000000000004000\
        000000000000110000000000000064000000000000000f000000000000000100000000000000080000000000\
        0000020000000000000000010000000400000000000000090000000000000003000000000000000102000000\
        07000000000000000a00000000000000040000000000000002030000000a000000000000000b000000000000\
        00050000000000000003040000000d000000000000000c00000000000000060000000000000004efbe050000\
        0010000000000000000d00000000000000070000000000000005000503020101060000001300000000000000\
        0e000000000000000800000000000000050005030201020700000016000000000000000f0000000000000009\
        000000000000000500050302010408000000190000000000000010000000000000000a000000000000000501\
        0000ffff090000001c0000000000000011000000000000000b000000000000000502040000800a0000001f00\
        00000000000012000000000000000c0000000000000005034d0000000b000000220000000000000013000000\
        000000000d0000000000000005040c000000250000000000000014000000000000000e000000000000000505\
        3f0d000000280000000000000015000000000000000f00000000000000060e0000002b000000000000001600\
        00000000000010000000000000000702000000000000000f000000000000002c01000000000000a00f000000\
        0000000600000000000000701101000000000005000000000000000900000000000000d20400000000000001\
        0000000000000002000000000000000300000000000000",
    // kind 105
    "534f4649070069000800000042f6ba670200000000000000",
    // kind 106
    "534f464907006a000f00000000a52f120b0000006e6f2073756368206a6f62",
    // kind 107
    "534f464907006b00000000007a201782",
    // kind 108
    "\
        534f464907006c00cb000000e6a3c17c0200000007000000612e636f756e7403000000000000000700000062\
        2e636f756e74ffffffffffffffff010000000500000071756575650100000000000000020000000500000065\
        6d70747900000000000000000000000000000000000000000000000000000000000000000000000003000000\
        6c61740300000000000000020400000000000001000000000000000004000000000000020000000100000000\
        0000000100000000000000010000000000000000040000000000007f040000000000000200000000000000",
    // kind 109
    "534f464907006d00100000007e9e70a70300000000000000d007000000000000",
    // kind 110
    "\
        534f464907006e008800000035bca6db0b000000000000000100000000000000020000000200000068690400\
        00006e6f700a0403000000000000000300000000000000e80300000000000000000100000000000100000000\
        00000001020000000700000016000000000000000f0000000000000009000000000000000800000019000000\
        0000000010000000000000000a00000000000000",
    // kind 111
    "534f464907006f00010000002ada645b01",
    // kind 112
    "534f464907007000010000004e66166e02",
    // kind 113
    "\
        534f46490700710035000000c09f495c01000000030000000000000008000000776f726b65722d6101010000\
        00090000000000000020010000000000002900000000000000",
    // kind 114
    "534f46490700720002000000aedcaa0c0001",
];

#[test]
fn one_frame_of_every_message_kind() {
    let messages = every_message();
    assert_eq!(messages.len(), 25);
    let pins: Vec<(String, Vec<u8>, &str)> = messages
        .iter()
        .zip(FRAMES)
        .map(|(msg, want)| (format!("kind {}", msg.kind()), msg.encode_frame(), want))
        .collect();
    assert_pins(&pins);
}

const JOB_START: &str = "\
    41000000863f766a000100000000000000020000006869040000006e6f700a040300000000000000030000000000\
    0000e8030000000000000000010000000000010000000000000001";
const BATCH: &str = "\
    64000000ee8232a40101000000000000000300000000000000010000000000000008000000000000000200000000\
    0000000001000000040000000000000009000000000000000300000000000000010200000007000000000000000a\
    00000000000000040000000000000002";
const END: &str = "0a000000b26312d202010000000000000002";
/// A tag-3 lease record (job 1, shard 4, lease 77, worker 3), framed as
/// protocol-v7 daemons with remote workers wrote it until the record was
/// dropped.
const LEASE: &str = "1d00000029d4674d030100000000000000040000004d000000000000000300000000000000";

fn journal_records() -> [(Record, &'static str); 3] {
    [
        (
            Record::JobStart {
                job: 1,
                spec: spec(),
            },
            JOB_START,
        ),
        (
            Record::Batch {
                job: 1,
                results: results()[..3].to_vec(),
            },
            BATCH,
        ),
        (
            Record::End {
                job: 1,
                state: JobState::Done,
            },
            END,
        ),
    ]
}

#[test]
fn journal_record_bytes() {
    let mut pins = Vec::new();
    for (i, (record, want)) in journal_records().into_iter().enumerate() {
        let path = temp_path(&format!("journal-{i}"));
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(std::slice::from_ref(&record)).unwrap();
        drop(journal);
        pins.push((format!("{record:?}"), std::fs::read(&path).unwrap(), want));
        std::fs::remove_file(&path).unwrap();
    }
    assert_pins(&pins);
}

/// A journal holding a tag-3 lease record between a job's start and its
/// batches reopens, untouched, and recovers the same job as the journal
/// without it.
#[test]
fn a_lease_record_reopens_and_recovers_as_if_absent() {
    let with_lease = [JOB_START, LEASE, BATCH, END].map(unhex).concat();
    let without = [JOB_START, BATCH, END].map(unhex).concat();
    let mut recovered = Vec::new();
    for (name, bytes) in [("with-lease", &with_lease), ("without", &without)] {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            *bytes,
            "{name}: file touched"
        );
        recovered.push(journal::recover(records));
        std::fs::remove_file(&path).unwrap();
    }
    assert_eq!(recovered[0], recovered[1]);
    let job = &recovered[0][0];
    assert_eq!(recovered[0].len(), 1);
    assert_eq!((job.job, &job.spec), (1, &spec()));
    assert_eq!(job.results, results()[..3]);
    assert_eq!(job.end, Some(JobState::Done));
}

const STORE_BATCH: &str = "\
    5c00000087d471e700efcdab89674523011032547698badcfe0200000005000000000000007766554433221100fa\
    eeddccbbaa9988002d0000000000000009000000000000007766554433221100f6eeddccbbaa998805030c000000\
    3100000000000000";

#[test]
fn warm_store_batch_bytes() {
    let ctx = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210;
    let facts = [
        memo(5, Outcome::NoEffect),
        memo(9, Outcome::CpuException(Trap::BadJump { target: 12 })),
    ];
    let path = temp_path("store");
    let mut store = WarmStore::open(&path).unwrap();
    assert_eq!(store.append(ctx, &facts).unwrap(), 2);
    drop(store);
    let bytes = std::fs::read(&path).unwrap();
    assert_pins(&[("warm-store batch".into(), bytes, STORE_BATCH)]);

    // The pinned bytes reopen with every fact.
    std::fs::write(&path, unhex(STORE_BATCH)).unwrap();
    assert_eq!(WarmStore::open(&path).unwrap().lookup(ctx), facts);
    std::fs::remove_file(&path).unwrap();
}
