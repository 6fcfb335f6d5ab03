//! Seeded fuzz battery for the basic-block execution engine.
//!
//! Two properties over deterministic randomly generated programs — this
//! generator adds *bounded backward loops* (counted, so the block
//! engine's in-table control transfers get exercised) and random
//! external-event schedules on top of the straight-line/forward-branch
//! mix the memoization fuzz uses — and random fault coordinates:
//!
//! 1. lockstep equivalence: a machine executing through the µop engine
//!    and one forced onto the single-step interpreter, driven through
//!    the same random sequence of `run_to` boundaries with the same
//!    mid-run injections — bit flips (memory and register file) and
//!    armed control-flow faults (instruction skip, opcode corruption,
//!    branch inversion) — have equal state digests, statuses, and cycle
//!    counts at *every* boundary;
//! 2. campaign equivalence: the default executor — block engine,
//!    convergence and memoization — produces outcomes
//!    identical to the naive stepping executor on random fault lists in
//!    every fault domain.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::isa::{Asm, Program, Reg};
use sofi::machine::{CfFault, ExternalEvent, Machine, MachineConfig, REG_FILE_BITS};
use sofi::space::{Experiment, FaultCoord};
use sofi_rng::{DefaultRng, Rng};

const DATA_BYTES: u32 = 48;

fn reg(rng: &mut impl Rng) -> Reg {
    Reg::from_index(rng.gen_range(1usize..8)).unwrap()
}

/// One random instruction confined to registers r1..r7 and the aligned
/// `buf` data region (a fault-free run can never trap).
fn emit_step(a: &mut Asm, rng: &mut impl Rng, buf_offset: i16) {
    match rng.gen_range(0u32..11) {
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
        8 => {
            // Poll the external-input latch into the data mix, so event
            // deliveries are architecturally observable.
            a.read_input(reg(rng));
        }
        _ => {
            a.nop();
        }
    }
}

/// A random terminating program: seeded registers, then a mix of random
/// steps, forward skip branches, and *counted backward loops* (the loop
/// counter lives in r8, untouched by `emit_step`, so fault-free
/// termination is structural), then a serial signature.
fn random_program(seed: u64) -> Program {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let mut a = Asm::with_name(format!("blkfuzz-{seed:016x}"));
    let buf = a.data_space("buf", DATA_BYTES);
    let buf_offset = buf.offset();
    a.li(Reg::R1, rng.gen_range(1i32..100));
    a.li(Reg::R2, rng.gen_range(1i32..100));
    for _ in 0..rng.gen_range(8usize..30) {
        match rng.gen_range(0u32..10) {
            0 => {
                // Forward-only skip branch.
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
            }
            1 | 2 => {
                // Counted backward loop: the block engine follows the
                // taken back-edge inside one µop burst.
                a.li(Reg::R8, rng.gen_range(2i32..6));
                let top = a.label_here();
                for _ in 0..rng.gen_range(1usize..4) {
                    emit_step(&mut a, &mut rng, buf_offset);
                }
                a.addi(Reg::R8, Reg::R8, -1);
                a.bne(Reg::R8, Reg::R0, top);
            }
            _ => emit_step(&mut a, &mut rng, buf_offset),
        }
    }
    a.serial_out(Reg::R1);
    a.serial_out(Reg::R3);
    a.build().unwrap()
}

/// A random sorted external-event schedule.
fn random_events(rng: &mut impl Rng, horizon: u64) -> Vec<ExternalEvent> {
    let mut events: Vec<ExternalEvent> = (0..rng.gen_range(0usize..5))
        .map(|_| ExternalEvent {
            cycle: rng.gen_range(1u64..horizon.max(2)),
            value: rng.gen_range(0u32..1 << 16),
        })
        .collect();
    events.sort_by_key(|e| e.cycle);
    events
}

#[test]
fn fuzz_block_engine_lockstep_with_step_interpreter() {
    let mut rng = DefaultRng::seed_from_u64(0xB10C_0001);
    let mut block_cycles_total = 0u64;
    for round in 0..24u32 {
        let program = random_program(rng.next_u64());
        let golden_cycles = {
            let mut m = Machine::new(&program);
            m.run(100_000);
            m.cycle()
        };
        let events = random_events(&mut rng, golden_cycles);
        let mut blocks = Machine::with_events(&program, MachineConfig::default(), events.clone());
        let mut steps = Machine::with_events(
            &program,
            MachineConfig {
                block_engine: false,
            },
            events,
        );
        let ram_bits = program.ram_size as u64 * 8;
        // Drive both machines through identical random boundaries with
        // identical mid-run injections; compare at every boundary.
        let mut bound = 0u64;
        for _ in 0..rng.gen_range(4u32..10) {
            bound += rng.gen_range(0u64..golden_cycles / 2 + 2);
            if rng.gen_bool(0.5) {
                match rng.gen_range(0u32..5) {
                    0 => {
                        let bit = rng.gen_range(0u64..ram_bits);
                        blocks.flip_bit(bit);
                        steps.flip_bit(bit);
                    }
                    1 => {
                        let bit = rng.gen_range(0u64..REG_FILE_BITS);
                        blocks.flip_reg_bit(bit);
                        steps.flip_reg_bit(bit);
                    }
                    // Armed control-flow faults: the block engine must
                    // fall back to stepping while one is pending, and
                    // stay bit-identical whether or not it ever fires.
                    2 => {
                        let slot = rng.gen_range(0u64..program.insts.len() as u64) as u32;
                        blocks.arm_cf_fault(CfFault::SkipAt { slot });
                        steps.arm_cf_fault(CfFault::SkipAt { slot });
                    }
                    3 => {
                        let slot = rng.gen_range(0u64..program.insts.len() as u64) as u32;
                        let mask = 1u32 << rng.gen_range(0u32..32);
                        blocks.arm_cf_fault(CfFault::CorruptAt { slot, mask });
                        steps.arm_cf_fault(CfFault::CorruptAt { slot, mask });
                    }
                    _ => {
                        blocks.arm_cf_fault(CfFault::InvertBranch);
                        steps.arm_cf_fault(CfFault::InvertBranch);
                    }
                }
            }
            let a = blocks.run_to(bound);
            let b = steps.run_to(bound);
            assert_eq!(a, b, "round {round}: early-stop status at cycle {bound}");
            assert_eq!(
                blocks.cycle(),
                steps.cycle(),
                "round {round}: cycle count at boundary {bound}"
            );
            assert_eq!(
                blocks.state_digest(),
                steps.state_digest(),
                "round {round}: state digest diverged at cycle {}",
                blocks.cycle()
            );
        }
        assert_eq!(
            steps.block_stats().block_cycles,
            0,
            "stepping machine must never enter the µop loop"
        );
        block_cycles_total += blocks.block_stats().block_cycles;
    }
    // The equivalence must not hold vacuously: across the sweep the
    // default machine has to retire real work through the µop engine.
    assert!(
        block_cycles_total > 0,
        "block engine never executed anything"
    );
}

/// `n` random fault coordinates in a `cycles × bits` space, cycle-sorted
/// like a real plan.
fn random_experiments(rng: &mut impl Rng, cycles: u64, bits: u64, n: usize) -> Vec<Experiment> {
    let mut v: Vec<Experiment> = (0..n)
        .map(|i| Experiment {
            id: i as u32,
            coord: FaultCoord {
                cycle: rng.gen_range(1u64..cycles + 1),
                bit: rng.gen_range(0u64..bits),
            },
            weight: 1,
        })
        .collect();
    v.sort_unstable_by_key(|e| (e.coord.cycle, e.coord.bit, e.id));
    v
}

#[test]
fn fuzz_block_engine_campaign_matches_stepping_naive() {
    let mut rng = DefaultRng::seed_from_u64(0xB10C_0002);
    for round in 0..6u32 {
        let program = random_program(rng.next_u64());
        let events = {
            let mut m = Machine::new(&program);
            m.run(100_000);
            random_events(&mut rng, m.cycle())
        };
        let blocks =
            Campaign::with_events(&program, CampaignConfig::sequential(), events.clone()).unwrap();
        let stepping = Campaign::with_events(
            &program,
            CampaignConfig {
                machine: MachineConfig {
                    block_engine: false,
                },
                ..CampaignConfig::sequential()
            },
            events,
        )
        .unwrap();
        let cycles = blocks.golden().cycles;
        let rom_len = program.insts.len() as u64;
        for (domain, bits) in [
            (FaultDomain::Memory, program.ram_size as u64 * 8),
            (FaultDomain::RegisterFile, REG_FILE_BITS),
            (FaultDomain::InstrSkip, rom_len),
            (FaultDomain::OpcodeBit, rom_len * 32),
            (FaultDomain::BranchInvert, 1),
        ] {
            let experiments = random_experiments(&mut rng, cycles, bits, 80);
            let expected = stepping.run_experiments_naive(domain, &experiments);
            let (got, _) = blocks.run_experiments_stats(domain, &experiments);
            assert_eq!(
                got, expected,
                "round {round} {}/{domain:?}: block-engine campaign diverged from stepping naive",
                program.name
            );
        }
    }
}
