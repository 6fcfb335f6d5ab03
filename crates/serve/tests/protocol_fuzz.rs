//! Property tests for the wire protocol: seeded random messages
//! round-trip bit-exactly, malformed frames come back as *typed* errors,
//! and arbitrary byte soup never panics the decoder.

use sofi_campaign::{
    CampaignConfig, CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, MemoRecord,
    Outcome,
};
use sofi_isa::MemWidth;
use sofi_machine::{StateDigest, Trap};
use sofi_rng::{DefaultRng, Rng};
use sofi_serve::job::{JobSpec, JobState, JobStatus, WorkerStatus};
use sofi_serve::protocol::{Message, ProtocolError, UploadOutcome, HEADER_LEN, MAX_PAYLOAD};
use sofi_space::{Experiment, FaultCoord, FaultSpace};

fn random_string(rng: &mut DefaultRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| {
            // A mix of plain ASCII and multi-byte chars.
            match rng.gen_range(0u32..20) {
                0 => 'é',
                1 => '☃',
                2 => '\n',
                _ => char::from(rng.gen_range(0x20u32..0x7f) as u8),
            }
        })
        .collect()
}

fn random_domain(rng: &mut DefaultRng) -> FaultDomain {
    *FaultDomain::ALL
        .get(rng.gen_range(0usize..FaultDomain::ALL.len()))
        .unwrap()
}

fn random_outcome(rng: &mut DefaultRng) -> Outcome {
    match rng.gen_range(0u32..8) {
        0 => Outcome::NoEffect,
        1 => Outcome::DetectedCorrected,
        2 => Outcome::SilentDataCorruption,
        3 => Outcome::DetectedUnrecoverable,
        4 => Outcome::Timeout,
        5 => Outcome::OutputFlood,
        6 => Outcome::AbnormalHalt {
            code: rng.gen_range(0u32..u32::from(u16::MAX)) as u16,
        },
        _ => Outcome::CpuException(match rng.gen_range(0u32..6) {
            0 => Trap::Misaligned {
                addr: rng.next_u32(),
                width: *[MemWidth::Byte, MemWidth::Half, MemWidth::Word]
                    .get(rng.gen_range(0usize..3))
                    .unwrap(),
            },
            1 => Trap::OutOfRange {
                addr: rng.next_u32(),
            },
            2 => Trap::MmioRead {
                addr: rng.next_u32(),
            },
            3 => Trap::BadJump {
                target: rng.next_u32(),
            },
            4 => Trap::IllegalOpcode {
                opcode: (rng.next_u32() & 0x3F) as u8,
            },
            _ => Trap::SerialOverflow,
        }),
    }
}

fn random_results(rng: &mut DefaultRng, max: usize) -> Vec<ExperimentResult> {
    let n = rng.gen_range(0..max + 1);
    (0..n)
        .map(|i| ExperimentResult {
            experiment: Experiment {
                id: i as u32,
                coord: FaultCoord {
                    cycle: rng.gen_range(1u64..1 << 40),
                    bit: rng.gen_range(0u64..1 << 20),
                },
                weight: rng.gen_range(1u64..1 << 30),
            },
            outcome: random_outcome(rng),
        })
        .collect()
}

fn random_spec(rng: &mut DefaultRng) -> JobSpec {
    JobSpec {
        name: random_string(rng, 24),
        source: random_string(rng, 200),
        domain: random_domain(rng),
        config: CampaignConfig {
            threads: rng.gen_range(0usize..9),
            telemetry: rng.gen_bool(0.5),
            ..CampaignConfig::default()
        },
        warm_store: rng.gen_bool(0.5),
    }
}

fn random_stats(rng: &mut DefaultRng) -> ExecutorStats {
    ExecutorStats {
        workers: rng.gen_range(0usize..64),
        experiments: rng.next_u64() >> 8,
        pristine_cycles: rng.next_u64() >> 8,
        faulted_cycles: rng.next_u64() >> 8,
        converged_early: rng.next_u64() >> 8,
        faulted_cycles_saved: rng.next_u64() >> 8,
        memo_hits: rng.next_u64() >> 8,
        memo_misses: rng.next_u64() >> 8,
        memoized_cycles_saved: rng.next_u64() >> 8,
        gate_shards_on: rng.gen_range(0u64..8),
        gate_shards_off: rng.gen_range(0u64..8),
        store_hits: rng.next_u64() >> 8,
    }
}

fn random_snapshot(rng: &mut DefaultRng) -> sofi_telemetry::Snapshot {
    // Built through a real registry so names stay sorted and buckets
    // ascending — the invariants the decoder enforces.
    let reg = sofi_telemetry::Registry::enabled();
    for _ in 0..rng.gen_range(0usize..5) {
        reg.counter(&random_string(rng, 12)).add(rng.next_u64());
    }
    for _ in 0..rng.gen_range(0usize..3) {
        reg.gauge(&random_string(rng, 12)).set(rng.next_u64());
    }
    for _ in 0..rng.gen_range(0usize..4) {
        let h = reg.histogram(&random_string(rng, 12));
        for _ in 0..rng.gen_range(0usize..20) {
            h.record(rng.next_u64() >> rng.gen_range(0u32..64));
        }
    }
    reg.snapshot()
}

fn random_status(rng: &mut DefaultRng) -> JobStatus {
    let state = *[
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ]
    .get(rng.gen_range(0usize..5))
    .unwrap();
    JobStatus {
        id: rng.next_u64(),
        name: random_string(rng, 16),
        domain: random_domain(rng),
        state,
        done: rng.gen_range(0u64..1 << 30),
        total: rng.gen_range(0u64..1 << 30),
        error: random_string(rng, 40),
        stats: random_stats(rng),
    }
}

fn random_experiments(rng: &mut DefaultRng, max: usize) -> Vec<Experiment> {
    (0..rng.gen_range(0..max + 1))
        .map(|i| Experiment {
            id: i as u32,
            coord: FaultCoord {
                cycle: rng.gen_range(1u64..1 << 40),
                bit: rng.gen_range(0u64..1 << 20),
            },
            weight: rng.gen_range(1u64..1 << 30),
        })
        .collect()
}

fn random_memo(rng: &mut DefaultRng, max: usize) -> Vec<MemoRecord> {
    (0..rng.gen_range(0..max + 1))
        .map(|_| MemoRecord {
            cycle: rng.gen_range(1u64..1 << 40),
            digest: StateDigest::from_bits(
                (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()),
            ),
            outcome: random_outcome(rng),
            final_cycle: rng.next_u64() >> 8,
        })
        .collect()
}

fn random_worker_status(rng: &mut DefaultRng) -> WorkerStatus {
    WorkerStatus {
        id: rng.next_u64(),
        name: random_string(rng, 16),
        alive: rng.gen_bool(0.5),
        leases_active: rng.next_u32(),
        shards_committed: rng.next_u64() >> 8,
        experiments_committed: rng.next_u64() >> 8,
        last_seen_ms: rng.next_u64() >> 8,
    }
}

fn random_message(rng: &mut DefaultRng) -> Message {
    match rng.gen_range(0u32..25) {
        0 => Message::Submit {
            spec: random_spec(rng),
            wait: rng.gen_bool(0.5),
        },
        1 => Message::Status {
            job: if rng.gen_bool(0.5) {
                Some(rng.next_u64())
            } else {
                None
            },
        },
        2 => Message::Cancel {
            job: rng.next_u64(),
        },
        3 => Message::Shutdown,
        4 => Message::Accepted {
            job: rng.next_u64(),
        },
        5 => Message::Busy {
            queued: rng.next_u32(),
            capacity: rng.next_u32(),
        },
        6 => Message::StatusReport {
            jobs: (0..rng.gen_range(0usize..5))
                .map(|_| random_status(rng))
                .collect(),
        },
        7 => Message::Progress {
            job: rng.next_u64(),
            done: rng.next_u64(),
            total: rng.next_u64(),
            stats: random_stats(rng),
        },
        8 => Message::JobResult {
            job: rng.next_u64(),
            result: CampaignResult {
                benchmark: random_string(rng, 16),
                domain: random_domain(rng),
                space: FaultSpace::new(rng.gen_range(1u64..1 << 20), rng.gen_range(1u64..1 << 20)),
                known_benign_weight: rng.next_u64() >> 1,
                golden_cycles: rng.gen_range(1u64..1 << 40),
                results: random_results(rng, 20),
            },
            stats: random_stats(rng),
        },
        9 => Message::Cancelled {
            job: rng.next_u64(),
        },
        10 => Message::Error {
            message: random_string(rng, 60),
        },
        11 => Message::Stats {
            job: if rng.gen_bool(0.5) {
                Some(rng.next_u64())
            } else {
                None
            },
        },
        12 => Message::Telemetry {
            snapshot: random_snapshot(rng),
        },
        13 => Message::ShuttingDown,
        // --- v5 fabric frames ---
        14 => Message::Register {
            name: random_string(rng, 24),
        },
        15 => Message::Heartbeat {
            worker: rng.next_u64(),
        },
        16 => Message::LeaseRequest {
            worker: rng.next_u64(),
        },
        17 => Message::PartialUpload {
            worker: rng.next_u64(),
            lease: rng.next_u64(),
            job: rng.next_u64(),
            shard: rng.next_u32(),
            results: random_results(rng, 12),
            stats: random_stats(rng),
            memo: random_memo(rng, 8),
        },
        18 => Message::Workers,
        19 => Message::Registered {
            worker: rng.next_u64(),
            lease_ms: rng.next_u64() >> 8,
        },
        20 => Message::LeaseGrant {
            lease: rng.next_u64(),
            job: rng.next_u64(),
            shard: rng.next_u32(),
            spec: random_spec(rng),
            experiments: random_experiments(rng, 12),
        },
        21 => Message::NoWork {
            draining: rng.gen_bool(0.5),
        },
        22 => Message::UploadAck {
            outcome: *[
                UploadOutcome::Committed,
                UploadOutcome::Duplicate,
                UploadOutcome::StaleLease,
            ]
            .get(rng.gen_range(0usize..3))
            .unwrap(),
        },
        23 => Message::WorkerReport {
            workers: (0..rng.gen_range(0usize..5))
                .map(|_| random_worker_status(rng))
                .collect(),
        },
        _ => Message::HeartbeatAck {
            draining: rng.gen_bool(0.5),
            known: rng.gen_bool(0.5),
        },
    }
}

#[test]
fn seeded_random_messages_round_trip() {
    let mut rng = DefaultRng::seed_from_u64(0x50F1_5E4E);
    for _ in 0..500 {
        let msg = random_message(&mut rng);
        let frame = msg.encode_frame();
        let (back, consumed) = Message::decode_frame(&frame)
            .unwrap_or_else(|e| panic!("decode failed ({e}) for {msg:?}"));
        assert_eq!(consumed, frame.len(), "partial consume for {msg:?}");
        assert_eq!(back, msg);
    }
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    let mut rng = DefaultRng::seed_from_u64(7);
    for _ in 0..50 {
        let frame = random_message(&mut rng).encode_frame();
        for cut in 0..frame.len() {
            match Message::decode_frame(&frame[..cut]) {
                Err(ProtocolError::Truncated) => {}
                other => panic!(
                    "cut at {cut}/{}: expected Truncated, got {other:?}",
                    frame.len()
                ),
            }
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_and_never_misdecodes_silently() {
    let mut rng = DefaultRng::seed_from_u64(99);
    for _ in 0..50 {
        let msg = random_message(&mut rng);
        let frame = msg.encode_frame();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 1 << rng.gen_range(0u32..8);
            if bad == frame {
                continue;
            }
            match Message::decode_frame(&bad) {
                // Corrupting the length field may make the frame "longer":
                // Truncated is the correct typed answer. Any other typed
                // error is fine too.
                Err(_) => {}
                Ok((back, _)) => {
                    // A flip the checksum can't see would have to be in the
                    // header's checksum field itself colliding — with a
                    // 32-bit FNV over the payload plus full header
                    // validation, a single-bit flip that decodes MUST
                    // reproduce a frame... it cannot equal the original
                    // message with a differing byte, so fail loudly.
                    panic!("corrupt frame (byte {i}) decoded as {back:?}");
                }
            }
        }
    }
}

#[test]
fn malformed_headers_yield_the_documented_errors() {
    let frame = Message::Shutdown.encode_frame();

    let mut bad = frame.clone();
    bad[2] = b'f';
    assert!(matches!(
        Message::decode_frame(&bad),
        Err(ProtocolError::BadMagic(_))
    ));

    let mut bad = frame.clone();
    bad[4..6].copy_from_slice(&9u16.to_le_bytes());
    assert_eq!(
        Message::decode_frame(&bad),
        Err(ProtocolError::BadVersion(9))
    );

    // A corrupted kind field without a matching checksum is a checksum
    // failure (the checksum covers the header)…
    let mut bad = frame.clone();
    bad[6..8].copy_from_slice(&999u16.to_le_bytes());
    assert!(matches!(
        Message::decode_frame(&bad),
        Err(ProtocolError::BadChecksum { .. })
    ));
    // …while an *intact* frame with an unknown kind is UnknownKind.
    let mut unknown = Vec::new();
    unknown.extend_from_slice(b"SOFI");
    unknown.extend_from_slice(&sofi_serve::protocol::VERSION.to_le_bytes());
    unknown.extend_from_slice(&999u16.to_le_bytes());
    unknown.extend_from_slice(&0u32.to_le_bytes());
    let checksum = sofi_serve::wire::fnv1a32(&unknown);
    unknown.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(
        Message::decode_frame(&unknown),
        Err(ProtocolError::UnknownKind(999))
    );

    let mut bad = frame.clone();
    bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert_eq!(
        Message::decode_frame(&bad),
        Err(ProtocolError::Oversized {
            len: MAX_PAYLOAD + 1,
            max: MAX_PAYLOAD,
        })
    );

    let mut bad = Message::Cancel { job: 3 }.encode_frame();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(
        Message::decode_frame(&bad),
        Err(ProtocolError::BadChecksum { .. })
    ));

    assert_eq!(
        Message::decode_frame(&frame[..HEADER_LEN - 1]),
        Err(ProtocolError::Truncated)
    );
}

/// A v4 peer (the previous protocol revision, without the fabric
/// frames) must get a typed `BadVersion`, never a misdecode — even when
/// the rest of its frame is perfectly well-formed.
#[test]
fn v4_peers_get_typed_bad_version() {
    let mut rng = DefaultRng::seed_from_u64(0x0404);
    for _ in 0..50 {
        let mut frame = random_message(&mut rng).encode_frame();
        frame[4..6].copy_from_slice(&4u16.to_le_bytes());
        // Re-seal the checksum so the version is the *only* defect.
        let checksum = sofi_serve::wire::fnv1a32_update(
            sofi_serve::wire::fnv1a32(&frame[..12]),
            &frame[HEADER_LEN..],
        );
        frame[12..16].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Message::decode_frame(&frame),
            Err(ProtocolError::BadVersion(4))
        );
    }
}

/// A v6 peer (the previous revision, whose job specs carry nine packed
/// config words instead of five) likewise gets a typed `BadVersion(6)`
/// for a perfectly sealed frame: version negotiation — not the spec
/// codec — is what protects it from a spec layout it cannot read.
#[test]
fn v6_peers_get_typed_bad_version() {
    let mut rng = DefaultRng::seed_from_u64(0x0606);
    for _ in 0..50 {
        let mut frame = random_message(&mut rng).encode_frame();
        frame[4..6].copy_from_slice(&6u16.to_le_bytes());
        // Re-seal the checksum so the version is the *only* defect.
        let checksum = sofi_serve::wire::fnv1a32_update(
            sofi_serve::wire::fnv1a32(&frame[..12]),
            &frame[HEADER_LEN..],
        );
        frame[12..16].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Message::decode_frame(&frame),
            Err(ProtocolError::BadVersion(6))
        );
    }
}

/// The packed config's words 1–3 (the cycle budget's factor and slack,
/// the serial limit) are constants. A sealed `Submit` or `LeaseGrant`
/// frame carrying `u64::MAX` in any of them — a budget no run reaches —
/// is `Malformed`, naming the word at its payload offset, so no peer can
/// hand a daemon or a worker a run that never ends.
#[test]
fn a_spec_with_another_limit_is_refused_at_decode() {
    let spec = JobSpec {
        name: "hi".into(),
        source: ".text\nnop\n".into(),
        domain: FaultDomain::Memory,
        config: CampaignConfig::default(),
        warm_store: true,
    };
    // Config word 0 follows the name, the source and the domain tag.
    let words = 4 + spec.name.len() + 4 + spec.source.len() + 1;
    let messages = [
        // The spec opens a Submit payload…
        (
            Message::Submit {
                spec: spec.clone(),
                wait: true,
            },
            0,
        ),
        // …and follows a LeaseGrant's lease, job and shard ids.
        (
            Message::LeaseGrant {
                lease: 11,
                job: 1,
                shard: 2,
                spec: spec.clone(),
                experiments: Vec::new(),
            },
            8 + 8 + 4,
        ),
    ];
    for (message, spec_at) in messages {
        let sealed = message.encode_frame();
        assert_eq!(Message::decode_frame(&sealed), Ok((message, sealed.len())));
        for (index, (what, fixed)) in [
            (1, ("timeout factor", 3u64)),
            (2, ("timeout slack", 1_000)),
            (3, ("serial limit", 64 * 1024)),
        ] {
            let at = spec_at + words + 8 * index;
            let word = HEADER_LEN + at..HEADER_LEN + at + 8;
            assert_eq!(sealed[word.clone()], fixed.to_le_bytes(), "{what}");
            let mut frame = sealed.clone();
            frame[word].copy_from_slice(&u64::MAX.to_le_bytes());
            // Re-seal the checksum so the word is the *only* defect.
            let checksum = sofi_serve::wire::fnv1a32_update(
                sofi_serve::wire::fnv1a32(&frame[..12]),
                &frame[HEADER_LEN..],
            );
            frame[12..16].copy_from_slice(&checksum.to_le_bytes());
            match Message::decode_frame(&frame) {
                Err(ProtocolError::Malformed(e)) => {
                    assert!(e.message.contains(what), "{e}");
                    assert_eq!(e.offset, at, "{e}");
                }
                other => panic!("{what} = u64::MAX must be refused, got {other:?}"),
            }
        }
    }
}

/// A `StatusReport` whose count claims one job per eight payload bytes
/// is refused at the count itself: a job status encodes to at least 130
/// bytes, so the claim cannot fit, and the decoder must not reserve room
/// for it or decode a single job first.
#[test]
fn status_report_count_is_bounded_by_the_job_status_size() {
    let claimed = 100u32;
    let mut payload = claimed.to_le_bytes().to_vec();
    payload.resize(4 + 8 * claimed as usize, 0);
    let mut frame = Vec::new();
    frame.extend_from_slice(b"SOFI");
    frame.extend_from_slice(&sofi_serve::protocol::VERSION.to_le_bytes());
    frame.extend_from_slice(&102u16.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum =
        sofi_serve::wire::fnv1a32_update(sofi_serve::wire::fnv1a32(&frame[..12]), &payload);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame.extend_from_slice(&payload);
    match Message::decode_frame(&frame) {
        Err(ProtocolError::Malformed(e)) => {
            assert!(e.message.contains("sequence length 100"), "{e}");
            assert_eq!(e.offset, 4, "{e}");
        }
        other => panic!("expected a refused sequence length, got {other:?}"),
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = DefaultRng::seed_from_u64(0xDEAD);
    for _ in 0..2000 {
        let len = rng.gen_range(0usize..256);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        // Half the iterations get a valid magic/version prefix so the
        // deeper decode paths are exercised, not just BadMagic.
        if rng.gen_bool(0.5) && buf.len() >= 6 {
            buf[..4].copy_from_slice(b"SOFI");
            buf[4..6].copy_from_slice(&sofi_serve::protocol::VERSION.to_le_bytes());
        }
        let _ = Message::decode_frame(&buf); // must return, never panic
    }
}

#[test]
fn stream_reader_rejects_mid_frame_eof() {
    let msg = Message::Accepted { job: 5 };
    let frame = msg.encode_frame();
    for cut in 1..frame.len() {
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match sofi_serve::protocol::FrameReader::new().read(&mut cursor) {
            Err(ProtocolError::Truncated) => {}
            other => panic!("cut {cut}: {other:?}"),
        }
    }
    let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
    assert_eq!(
        sofi_serve::protocol::FrameReader::new()
            .read(&mut cursor)
            .unwrap(),
        None
    );
}
