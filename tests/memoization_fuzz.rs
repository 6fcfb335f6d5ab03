//! Seeded fuzz battery for fault-equivalence memoization.
//!
//! Two properties, each over deterministic randomly generated programs
//! (straight-line ALU/memory/serial churn plus forward-only branches, so
//! every program terminates) and random fault lists in both domains:
//!
//! 1. the default executor — memoization composed with convergence
//!    termination — is outcome-identical to the naive replay executor;
//! 2. the state digest the memo is keyed on behaves like the identity on
//!    architectural state: `digest(a) == digest(b)` exactly when the
//!    architecturally visible state (registers, PC, cycle, status,
//!    serial, detection count, RAM content) is equal;
//! 3. the incrementally maintained digest (rolling RAM page
//!    contributions + resumable serial hash) equals the from-scratch
//!    re-hash of the same state after any interleaving of partial runs,
//!    mid-run bit flips and copy-on-write forks.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::isa::{Asm, Program, Reg};
use sofi::machine::{Machine, REG_FILE_BITS};
use sofi::space::{Experiment, FaultCoord};
use sofi_rng::{DefaultRng, Rng};

const DATA_BYTES: u32 = 48;

fn reg(rng: &mut impl Rng) -> Reg {
    Reg::from_index(rng.gen_range(1usize..8)).unwrap()
}

/// Emits one random instruction confined to registers r1..r7 and the
/// `buf` data region (all accesses aligned by construction, so a fault-
/// free run can never trap).
fn emit_step(a: &mut Asm, rng: &mut impl Rng, buf_offset: i16) {
    match rng.gen_range(0u32..10) {
        0 | 1 => {
            let (d, x, y) = (reg(rng), reg(rng), reg(rng));
            match rng.gen_range(0u32..6) {
                0 => a.add(d, x, y),
                1 => a.sub(d, x, y),
                2 => a.xor(d, x, y),
                3 => a.and(d, x, y),
                4 => a.mul(d, x, y),
                _ => a.slt(d, x, y),
            };
        }
        2 => {
            a.addi(reg(rng), reg(rng), rng.gen_range(-64i16..64));
        }
        3 => {
            let off = buf_offset + (rng.gen_range(0u32..DATA_BYTES / 4) * 4) as i16;
            a.sw(reg(rng), Reg::R0, off);
        }
        4 => {
            let off = buf_offset + (rng.gen_range(0u32..DATA_BYTES / 4) * 4) as i16;
            a.lw(reg(rng), Reg::R0, off);
        }
        5 => {
            let off = buf_offset + rng.gen_range(0u32..DATA_BYTES) as i16;
            if rng.gen_bool(0.5) {
                a.sb(reg(rng), Reg::R0, off);
            } else {
                a.lb(reg(rng), Reg::R0, off);
            }
        }
        6 => {
            a.serial_out(reg(rng));
        }
        7 => {
            a.li(reg(rng), rng.gen_range(-1000i32..1000));
        }
        _ => {
            a.nop();
        }
    }
}

/// A random terminating program: seeded registers, then a mix of random
/// steps and forward-only skip blocks, then a final serial signature.
fn random_program(seed: u64) -> Program {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let mut a = Asm::with_name(format!("fuzz-{seed:016x}"));
    let buf = a.data_space("buf", DATA_BYTES);
    let buf_offset = buf.offset();
    a.li(Reg::R1, rng.gen_range(1i32..100));
    a.li(Reg::R2, rng.gen_range(1i32..100));
    for _ in 0..rng.gen_range(10usize..40) {
        if rng.gen_bool(0.15) {
            // Forward-only branch over a short block: introduces control-
            // flow divergence under faults without risking nontermination.
            let skip = a.new_label();
            let (x, y) = (reg(&mut rng), reg(&mut rng));
            match rng.gen_range(0u32..3) {
                0 => a.beq(x, y, skip),
                1 => a.bne(x, y, skip),
                _ => a.blt(x, y, skip),
            };
            for _ in 0..rng.gen_range(1usize..4) {
                emit_step(&mut a, &mut rng, buf_offset);
            }
            a.bind(skip);
        } else {
            emit_step(&mut a, &mut rng, buf_offset);
        }
    }
    a.serial_out(Reg::R1);
    a.serial_out(Reg::R3);
    a.build().unwrap()
}

/// `n` random raw fault coordinates in a `cycles × bits` space, in draw
/// order: the executor sorts them itself and returns the results in this
/// order.
fn random_experiments(rng: &mut impl Rng, cycles: u64, bits: u64, n: usize) -> Vec<Experiment> {
    (0..n)
        .map(|i| Experiment {
            id: i as u32,
            coord: FaultCoord {
                cycle: rng.gen_range(1u64..cycles + 1),
                bit: rng.gen_range(0u64..bits),
            },
            weight: 1,
        })
        .collect()
}

#[test]
fn fuzz_memoized_matches_naive_on_random_programs_and_faults() {
    let mut rng = DefaultRng::seed_from_u64(0xF0CC_ED01);
    for round in 0..8u32 {
        let program = random_program(rng.next_u64());
        let composed = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        let cycles = composed.golden().cycles;
        for (domain, bits) in [
            (FaultDomain::Memory, program.ram_size as u64 * 8),
            (FaultDomain::RegisterFile, REG_FILE_BITS),
        ] {
            let experiments = random_experiments(&mut rng, cycles, bits, 120);
            let expected = composed.run_experiments_naive(domain, &experiments);
            let (got, _) = composed.run_experiments_stats(domain, &experiments);
            assert_eq!(
                got, expected,
                "round {round} {}/{domain:?}: memo+convergence diverged from naive",
                program.name
            );
        }
    }
}

/// Architectural-state equality through the public accessors only — the
/// ground truth the digest is checked against.
fn arch_equal(a: &Machine, b: &Machine) -> bool {
    a.cycle() == b.cycle()
        && a.pc() == b.pc()
        && a.status() == b.status()
        && a.detect_count() == b.detect_count()
        && a.serial() == b.serial()
        && (0..16).all(|i| {
            let r = Reg::from_index(i).unwrap();
            a.reg(r) == b.reg(r)
        })
        && a.ram().to_vec() == b.ram().to_vec()
}

#[test]
fn fuzz_state_digest_equality_tracks_architectural_equality() {
    let mut rng = DefaultRng::seed_from_u64(0x00D1_6E57);
    let mut equal_pairs = 0u32;
    let mut unequal_pairs = 0u32;
    for _ in 0..6u32 {
        let program = random_program(rng.next_u64());
        let golden_cycles = {
            let mut m = Machine::new(&program);
            m.run(100_000);
            m.cycle()
        };
        for _ in 0..24u32 {
            // Two independently evolved machines: same program, possibly
            // different faults, paused at possibly different cycles.
            let mut machines: Vec<Machine> = (0..2)
                .map(|_| {
                    let mut m = Machine::new(&program);
                    m.run_to(rng.gen_range(0u64..golden_cycles));
                    if rng.gen_bool(0.7) {
                        let bits = program.ram_size as u64 * 8;
                        if rng.gen_bool(0.5) {
                            m.flip_bit(rng.gen_range(0u64..bits));
                        } else {
                            m.flip_reg_bit(rng.gen_range(0u64..REG_FILE_BITS));
                        }
                    }
                    m.run_to(rng.gen_range(0u64..2 * golden_cycles));
                    m
                })
                .collect();
            let (mut b, mut a) = (machines.pop().unwrap(), machines.pop().unwrap());
            let same = arch_equal(&a, &b);
            assert_eq!(
                a.state_digest() == b.state_digest(),
                same,
                "digest equality must coincide with architectural equality"
            );
            if same {
                equal_pairs += 1;
            } else {
                unequal_pairs += 1;
            }
            // A digest is a pure function of state: identical on a clone,
            // stable under re-computation.
            let mut c = a.clone();
            assert_eq!(c.state_digest(), a.state_digest());
        }
    }
    // The sweep must exercise both sides of the equivalence. Equal pairs
    // arise whenever neither machine got a fault (or a fault was fully
    // masked) and both paused at the same cycle.
    assert!(unequal_pairs > 0, "fuzz never produced distinct states");
    assert!(equal_pairs > 0, "fuzz never produced equal states");
}

/// Probes a machine both ways and asserts the incremental digest (rolling
/// page contributions + resumable serial accumulator) agrees with a full
/// from-scratch re-hash of the same state.
fn assert_incremental_matches_scratch(m: &mut Machine, what: &str) {
    let scratch = m.state_digest_from_scratch();
    assert_eq!(
        m.state_digest(),
        scratch,
        "{what}: incremental digest diverged from from-scratch re-hash"
    );
    // Probing must not perturb the accumulator: a second probe of the
    // unchanged state returns the same digest.
    assert_eq!(
        m.state_digest(),
        scratch,
        "{what}: digest unstable on re-probe"
    );
}

#[test]
fn fuzz_incremental_digest_matches_from_scratch_rehash() {
    let mut rng = DefaultRng::seed_from_u64(0x1DC4_E57A);
    for round in 0..6u32 {
        let program = random_program(rng.next_u64());
        let golden_cycles = {
            let mut m = Machine::new(&program);
            m.run(100_000);
            m.cycle()
        };
        let bits = program.ram_size as u64 * 8;
        // One lineage per round: a machine advanced in random increments,
        // flipped mid-run, probed between every mutation, and forked at
        // random points. Forks inherit the parent's cached page hashes
        // (copy-on-write), so a fork that dirties pages while the parent
        // stays clean — and vice versa — is exactly the aliasing the
        // incremental scheme has to survive.
        let mut m = Machine::new(&program);
        let mut forks: Vec<Machine> = Vec::new();
        for step in 0..24u32 {
            match rng.gen_range(0u32..5) {
                // Advance past a random boundary (possibly beyond the
                // golden run, possibly a no-op when already past it).
                0 | 1 => {
                    m.run_to(rng.gen_range(0u64..2 * golden_cycles));
                }
                // Mid-run fault injection in either domain.
                2 => {
                    if rng.gen_bool(0.5) {
                        m.flip_bit(rng.gen_range(0u64..bits));
                    } else {
                        m.flip_reg_bit(rng.gen_range(0u64..REG_FILE_BITS));
                    }
                }
                // Fork the current machine — sometimes pre-hashed so the
                // fork starts with a warm accumulator, sometimes cold.
                3 => {
                    if rng.gen_bool(0.5) {
                        let _ = m.state_digest();
                    }
                    forks.push(m.clone());
                }
                // Mutate and probe a previously taken fork; the parent's
                // digest must be unaffected (checked on the next probe).
                _ => {
                    if let Some(f) = forks.last_mut() {
                        f.run_to(rng.gen_range(0u64..2 * golden_cycles));
                        if rng.gen_bool(0.7) {
                            f.flip_bit(rng.gen_range(0u64..bits));
                        }
                        assert_incremental_matches_scratch(
                            f,
                            &format!("round {round} step {step} (fork)"),
                        );
                    }
                }
            }
            assert_incremental_matches_scratch(&mut m, &format!("round {round} step {step}"));
        }
        // Sweep the surviving forks once more: their cached hashes have
        // aliased, diverged and re-converged in arbitrary order by now.
        for (i, f) in forks.iter_mut().enumerate() {
            assert_incremental_matches_scratch(f, &format!("round {round} final fork {i}"));
        }
    }
}
