//! The CPU core: in-order, one instruction per cycle.

use crate::block::{branch_taken, BlockStats, BlockTable, Uop};
use crate::observer::{AccessKind, MemAccess, MemObserver, NullObserver, RegAccess};
use crate::ram::Ram;
use crate::status::{RunStatus, StepResult};
use crate::trap::Trap;
use sofi_isa::{
    BranchKind, Inst, MemWidth, Program, Reg, MMIO_BASE, MMIO_CYCLE, MMIO_DETECT, MMIO_INPUT,
    MMIO_SERIAL,
};
use std::sync::Arc;

/// A deterministic external event: at the start of `cycle` the machine
/// latches `value` into the memory-mapped input register
/// ([`sofi_isa::MMIO_INPUT`]). This realizes §II-C's footnote — external
/// inputs "are replayed at the exact same point in time during each run" —
/// so benchmarks with asynchronous input stay bit-for-bit deterministic
/// and fault-injection campaigns over them remain valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalEvent {
    /// The cycle at whose start the value becomes visible (1-based; the
    /// instruction executing in this cycle already reads the new value).
    pub cycle: u64,
    /// The latched value.
    pub value: u32,
}

/// Maximum bytes the serial device accepts before trapping
/// ([`Trap::SerialOverflow`]). Faulted runs can get stuck in output
/// loops; this bound keeps experiments finite. It decides outcomes, so
/// it is one constant: every run of every program stops at the same
/// output size.
pub const SERIAL_LIMIT: usize = 64 * 1024;

/// How the machine executes, never what a run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Execute through the decode-once µop engine (the default). `false`
    /// forces pure single-stepping, one [`Machine::step`] at a time —
    /// the reference interpreter the engine oracles compare against.
    /// Results are bit-identical either way (`tests/block_engine_oracle.rs`,
    /// `tests/block_engine_fuzz.rs`). An in-process hook only: the
    /// `sofi-serve` wire does not carry it, so daemon jobs always run the
    /// µop engine.
    pub block_engine: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { block_engine: true }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    Halted { code: u16 },
    Trapped(Trap),
}

/// A pending control-flow fault, armed via [`Machine::arm_cf_fault`] and
/// latched at the decode/execute boundary: the fault fires on the *first
/// matching fetch* at or after the arming cycle, then clears. A fault
/// whose trigger never matches again stays dormant for the rest of the
/// run — architecturally invisible, so the run classifies as no-effect.
///
/// The latched model is what makes trace-based pruning exact: arming
/// anywhere between two consecutive golden executions of the trigger
/// produces the same fire cycle and therefore the same faulted run (see
/// `sofi_space::cflow`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CfFault {
    /// The next execution of ROM slot `slot` retires as a one-cycle
    /// architectural no-op (instruction-skip attack).
    SkipAt {
        /// ROM index whose next execution is skipped.
        slot: u32,
    },
    /// The next execution of ROM slot `slot` has `mask` XORed into its
    /// encoded instruction word before decode; the corrupted word runs
    /// through the ordinary decoder and traps
    /// ([`Trap::IllegalOpcode`]) exactly like ROM garbage if it no
    /// longer decodes.
    CorruptAt {
        /// ROM index whose next fetched word is corrupted.
        slot: u32,
        /// XOR mask applied to the 32-bit encoded word (a single bit for
        /// the `OpcodeBit` fault space; multi-bit for burst mode).
        mask: u32,
    },
    /// The next conditional branch executed — any PC — resolves to the
    /// inverted outcome (branch-inversion attack). An inverted-to-taken
    /// branch still performs the dynamic jump-range check.
    InvertBranch,
}

/// The simulated machine: CPU registers, program counter, cycle counter,
/// RAM, and the MMIO devices (serial sink, detection port, cycle counter).
///
/// The instruction ROM is shared (`Arc`) between clones and RAM is
/// copy-on-write ([`Ram`]), so forking a machine for an injection
/// experiment costs a page-table clone plus registers; pages are copied
/// lazily as the fork writes to them.
///
/// Cycle numbering follows the paper's fault-space convention: the n-th
/// executed instruction runs *in cycle n* (1-based), and a fault coordinate
/// `(c, bit)` means the flip becomes visible at the start of cycle `c` —
/// i.e. the instruction executing in cycle `c` already sees the flipped
/// value. [`Machine::run_to`] plus [`Machine::flip_bit`] realize this:
/// `run_to(c - 1)` executes exactly `c - 1` instructions, the flip is
/// applied, and execution resumes with cycle `c`.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u32; 16],
    pc: u32,
    cycle: u64,
    ram: Ram,
    rom: Arc<[Inst]>,
    serial: Vec<u8>,
    detect_count: u64,
    events: Arc<[ExternalEvent]>,
    next_event: usize,
    input_latch: u32,
    state: State,
    config: MachineConfig,
    /// Rolling serial-output hash: the two-lane fold over the complete
    /// 8-byte chunks of `serial[..serial_hash_pos]`. The serial buffer
    /// is append-only for a machine's lifetime, so
    /// [`Machine::state_digest`] folds only the bytes appended since the
    /// previous probe instead of re-walking the whole buffer.
    serial_hash: (u64, u64),
    serial_hash_pos: usize,
    /// Decode-once µop table for `rom` (see [`crate::block`]); shared by
    /// clones, never invalidated (the ROM is immutable).
    blocks: Arc<BlockTable>,
    /// Engine dispatch counters (diagnostics/telemetry only; cloned with
    /// the machine, excluded from digests and convergence comparison).
    block_stats: BlockStats,
    /// Pending control-flow fault, if armed. Part of the architectural
    /// state: folded into digests and compared by convergence (a dormant
    /// armed fault may still fire later, so it must keep the machine
    /// distinct from pristine).
    cf_fault: Option<CfFault>,
}

impl Machine {
    /// Creates a machine loaded with `program`, RAM initialized from its
    /// data image, registers and cycle counter zeroed.
    pub fn new(program: &Program) -> Self {
        Machine::with_config(program, MachineConfig::default())
    }

    /// Creates a machine with an explicit [`MachineConfig`].
    pub fn with_config(program: &Program, config: MachineConfig) -> Self {
        Machine::with_events(program, config, Vec::new())
    }

    /// Creates a machine with a deterministic external-event schedule.
    ///
    /// # Panics
    ///
    /// Panics if the events are not sorted by ascending cycle.
    pub fn with_events(
        program: &Program,
        config: MachineConfig,
        events: Vec<ExternalEvent>,
    ) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "external events must be sorted by cycle"
        );
        let rom: Arc<[Inst]> = program.insts.clone().into();
        let blocks = Arc::new(BlockTable::decode(&rom));
        Machine {
            regs: [0; 16],
            pc: 0,
            cycle: 0,
            ram: Ram::with_image(program.ram_size, &program.data),
            rom,
            serial: Vec::new(),
            detect_count: 0,
            events: events.into(),
            next_event: 0,
            input_latch: 0,
            state: State::Running,
            config,
            serial_hash: SERIAL_HASH_SEED,
            serial_hash_pos: 0,
            blocks,
            block_stats: BlockStats::default(),
            cf_fault: None,
        }
    }

    /// Completed instruction count (equals the current time coordinate of
    /// the fault space after the run finishes: `Δt`).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current program counter (instruction index).
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Bytes written to the serial device so far.
    #[inline]
    pub fn serial(&self) -> &[u8] {
        &self.serial
    }

    /// Number of detected-and-corrected signals raised via the MMIO
    /// detection port.
    #[inline]
    pub fn detect_count(&self) -> u64 {
        self.detect_count
    }

    /// Reads a register (for tests and diagnostics).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// The machine's RAM.
    #[inline]
    pub fn ram(&self) -> &Ram {
        &self.ram
    }

    /// The machine's final status, or `None` while still running.
    pub fn status(&self) -> Option<RunStatus> {
        match self.state {
            State::Running => None,
            State::Halted { code } => Some(RunStatus::Halted { code }),
            State::Trapped(t) => Some(RunStatus::Trapped(t)),
        }
    }

    /// Injects a transient single-bit flip into RAM. `bit` is the flat
    /// fault-space memory coordinate (`addr * 8 + bit_in_byte`).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside RAM.
    #[inline]
    pub fn flip_bit(&mut self, bit: u64) {
        self.ram.flip_bit(bit);
    }

    /// Injects a transient single-bit flip into the register file. `bit`
    /// is the flat register-fault-space coordinate
    /// `(reg − 1) · 32 + bit_in_reg` over `r1..r15` (§VI-B's register
    /// fault model; `r0` is hard-wired and immune).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 480`.
    #[inline]
    pub fn flip_reg_bit(&mut self, bit: u64) {
        assert!(
            bit < crate::observer::REG_FILE_BITS,
            "register bit {bit} outside the register file"
        );
        self.regs[1 + (bit / 32) as usize] ^= 1 << (bit % 32);
    }

    /// Arms a transient control-flow fault: the fault latches at the
    /// decode/execute boundary and fires on the first matching fetch at
    /// or after the current cycle (see [`CfFault`]). Arming replaces any
    /// previously armed fault; a fault that never matches stays dormant
    /// and the run remains architecturally identical to pristine except
    /// for the pending-fault word in digests and convergence.
    ///
    /// While a fault is armed the machine single-steps (the block
    /// engine's µop bursts are suspended) so the fault latches on the
    /// exact instruction under either engine configuration.
    #[inline]
    pub fn arm_cf_fault(&mut self, fault: CfFault) {
        self.cf_fault = Some(fault);
    }

    /// The currently armed control-flow fault, if any (still pending —
    /// cleared the moment it fires).
    #[inline]
    pub fn cf_fault(&self) -> Option<CfFault> {
        self.cf_fault
    }

    #[inline]
    fn write_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::R0 {
            self.regs[r.index()] = v;
        }
    }

    /// Executes one instruction without observation (the reference
    /// interpreter; returns [`StepResult::Halted`]/[`StepResult::Trapped`]
    /// once the machine has stopped).
    pub fn step(&mut self) -> StepResult {
        self.step_observed(&mut NullObserver)
    }

    /// Executes one instruction, reporting RAM accesses to `obs`.
    ///
    /// Returns [`StepResult::Halted`]/[`StepResult::Trapped`] when the
    /// machine stops; repeated calls after a stop return the same result
    /// without executing anything.
    fn step_observed<O: MemObserver>(&mut self, obs: &mut O) -> StepResult {
        match self.state {
            State::Halted { code } => return StepResult::Halted { code },
            State::Trapped(t) => return StepResult::Trapped(t),
            State::Running => {}
        }
        if self.pc as usize >= self.rom.len() {
            // Run-to-completion: falling off the end is a clean halt and
            // consumes no cycle (the paper's Δt counts executed
            // instructions only).
            self.state = State::Halted { code: 0 };
            return StepResult::Halted { code: 0 };
        }
        let mut inst = self.rom[self.pc as usize];
        let this_cycle = self.cycle + 1;
        let mut next_pc = self.pc + 1;

        // Replay external events scheduled for this cycle (they become
        // visible to the instruction executing now).
        while let Some(ev) = self.events.get(self.next_event) {
            if ev.cycle > this_cycle {
                break;
            }
            self.input_latch = ev.value;
            self.next_event += 1;
        }

        obs.on_fetch(this_cycle, self.pc);

        macro_rules! trap {
            ($t:expr) => {{
                self.cycle = this_cycle;
                let t = $t;
                self.state = State::Trapped(t);
                return StepResult::Trapped(t);
            }};
        }

        // A pending control-flow fault fires at the decode/execute
        // boundary of the first matching fetch, before any operand is
        // observed or read (a skipped or corrupted instruction has the
        // reg-ops of what actually retires, not of the ROM word).
        let mut invert_branch = false;
        if let Some(f) = self.cf_fault {
            match f {
                CfFault::SkipAt { slot } if slot == self.pc => {
                    self.cf_fault = None;
                    inst = Inst::Addi {
                        rd: Reg::R0,
                        rs1: Reg::R0,
                        imm: 0,
                    };
                }
                CfFault::CorruptAt { slot, mask } if slot == self.pc => {
                    self.cf_fault = None;
                    let word = sofi_isa::encode(inst) ^ mask;
                    match sofi_isa::decode(word) {
                        Ok(corrupted) => inst = corrupted,
                        Err(_) => trap!(Trap::IllegalOpcode {
                            opcode: (word >> 26) as u8
                        }),
                    }
                }
                CfFault::InvertBranch if matches!(inst, Inst::Branch { .. }) => {
                    self.cf_fault = None;
                    invert_branch = true;
                }
                _ => {}
            }
        }

        // Register-file access events (reads now, the write after the
        // instruction has executed). `r0` is hard-wired, never reported.
        let reg_ops = inst.reg_ops();
        for r in reg_ops.reads() {
            if r != Reg::R0 {
                obs.on_reg_access(crate::observer::RegAccess {
                    cycle: this_cycle,
                    reg: r,
                    kind: AccessKind::Read,
                });
            }
        }

        use Inst::*;
        match inst {
            Add { rd, rs1, rs2 } => {
                let v = self.reg(rs1).wrapping_add(self.reg(rs2));
                self.write_reg(rd, v);
            }
            Sub { rd, rs1, rs2 } => {
                let v = self.reg(rs1).wrapping_sub(self.reg(rs2));
                self.write_reg(rd, v);
            }
            And { rd, rs1, rs2 } => self.write_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Or { rd, rs1, rs2 } => self.write_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Xor { rd, rs1, rs2 } => self.write_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Sll { rd, rs1, rs2 } => {
                self.write_reg(rd, self.reg(rs1) << (self.reg(rs2) & 31));
            }
            Srl { rd, rs1, rs2 } => {
                self.write_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 31));
            }
            Sra { rd, rs1, rs2 } => {
                self.write_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32);
            }
            Slt { rd, rs1, rs2 } => {
                self.write_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32);
            }
            Sltu { rd, rs1, rs2 } => {
                self.write_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32);
            }
            Mul { rd, rs1, rs2 } => {
                self.write_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Addi { rd, rs1, imm } => {
                self.write_reg(rd, self.reg(rs1).wrapping_add(imm as i32 as u32));
            }
            Andi { rd, rs1, imm } => self.write_reg(rd, self.reg(rs1) & (imm as u16 as u32)),
            Ori { rd, rs1, imm } => self.write_reg(rd, self.reg(rs1) | (imm as u16 as u32)),
            Xori { rd, rs1, imm } => self.write_reg(rd, self.reg(rs1) ^ (imm as u16 as u32)),
            Slti { rd, rs1, imm } => {
                self.write_reg(rd, ((self.reg(rs1) as i32) < (imm as i32)) as u32);
            }
            Slli { rd, rs1, shamt } => self.write_reg(rd, self.reg(rs1) << (shamt & 31)),
            Srli { rd, rs1, shamt } => self.write_reg(rd, self.reg(rs1) >> (shamt & 31)),
            Srai { rd, rs1, shamt } => {
                self.write_reg(rd, ((self.reg(rs1) as i32) >> (shamt & 31)) as u32);
            }
            Lui { rd, imm } => self.write_reg(rd, (imm as u32) << 16),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                if addr >= MMIO_BASE {
                    match addr {
                        MMIO_CYCLE => self.write_reg(rd, this_cycle as u32 - 1),
                        MMIO_INPUT => self.write_reg(rd, self.input_latch),
                        _ => trap!(Trap::MmioRead { addr }),
                    }
                } else {
                    let raw = match self.ram.read(addr, width) {
                        Ok(v) => v,
                        Err(t) => trap!(t),
                    };
                    obs.on_access(MemAccess {
                        cycle: this_cycle,
                        addr,
                        width,
                        kind: AccessKind::Read,
                    });
                    let v = if signed {
                        match width {
                            MemWidth::Byte => raw as u8 as i8 as i32 as u32,
                            MemWidth::Half => raw as u16 as i16 as i32 as u32,
                            MemWidth::Word => raw,
                        }
                    } else {
                        raw
                    };
                    self.write_reg(rd, v);
                }
            }
            Store {
                rs,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i32 as u32);
                let value = self.reg(rs);
                if addr >= MMIO_BASE {
                    match addr {
                        MMIO_SERIAL => {
                            if self.serial.len() >= SERIAL_LIMIT {
                                trap!(Trap::SerialOverflow);
                            }
                            self.serial.push(value as u8);
                        }
                        MMIO_DETECT => self.detect_count += 1,
                        _ => trap!(Trap::OutOfRange { addr }),
                    }
                } else {
                    if let Err(t) = self.ram.write(addr, width, value) {
                        trap!(t);
                    }
                    obs.on_access(MemAccess {
                        cycle: this_cycle,
                        addr,
                        width,
                        kind: AccessKind::Write,
                    });
                }
            }
            Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = invert_branch
                    ^ match kind {
                        BranchKind::Eq => a == b,
                        BranchKind::Ne => a != b,
                        BranchKind::Lt => (a as i32) < (b as i32),
                        BranchKind::Ge => (a as i32) >= (b as i32),
                        BranchKind::Ltu => a < b,
                        BranchKind::Geu => a >= b,
                    };
                obs.on_branch(crate::observer::BranchRecord {
                    cycle: this_cycle,
                    pc: self.pc,
                    taken,
                });
                if taken {
                    let t = (self.pc as i64) + 1 + (offset as i64);
                    if t < 0 || t > self.rom.len() as i64 {
                        trap!(Trap::BadJump {
                            target: t.clamp(0, u32::MAX as i64) as u32
                        });
                    }
                    next_pc = t as u32;
                }
            }
            Jal { rd, target } => {
                if target > self.rom.len() as u32 {
                    trap!(Trap::BadJump { target });
                }
                self.write_reg(rd, self.pc + 1);
                next_pc = target;
            }
            Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as i32 as u32);
                if target > self.rom.len() as u32 {
                    trap!(Trap::BadJump { target });
                }
                self.write_reg(rd, self.pc + 1);
                next_pc = target;
            }
            Halt { code } => {
                self.cycle = this_cycle;
                self.state = State::Halted { code };
                return StepResult::Halted { code };
            }
        }
        if let Some(rd) = reg_ops.write {
            if rd != Reg::R0 {
                obs.on_reg_access(crate::observer::RegAccess {
                    cycle: this_cycle,
                    reg: rd,
                    kind: AccessKind::Write,
                });
            }
        }
        self.pc = next_pc;
        self.cycle = this_cycle;
        StepResult::Running
    }

    /// Runs until the machine stops or `cycle_limit` cycles have executed.
    pub fn run(&mut self, cycle_limit: u64) -> RunStatus {
        self.run_observed(cycle_limit, &mut NullObserver)
    }

    /// Runs with a [`MemObserver`] attached (golden-run tracing).
    pub fn run_observed<O: MemObserver>(&mut self, cycle_limit: u64, obs: &mut O) -> RunStatus {
        match self.run_blocks_to(cycle_limit, obs) {
            Some(status) => status,
            None => RunStatus::CycleLimit,
        }
    }

    /// Advances the machine until exactly `cycle` instructions have
    /// executed (used to pause before an injection). Returns the status if
    /// the program stopped earlier.
    pub fn run_to(&mut self, cycle: u64) -> Option<RunStatus> {
        self.run_blocks_to(cycle, &mut NullObserver)
    }

    /// The unified observed run loop every entry point ([`Machine::run`],
    /// [`Machine::run_to`], [`Machine::run_observed`]) delegates to:
    /// advances until exactly `cycle` instructions have executed,
    /// reporting accesses to `obs`, and returns the final status if the
    /// machine stopped earlier (`None` when the bound was reached while
    /// still running).
    ///
    /// When [`MachineConfig::block_engine`] is on (the default),
    /// instructions retire through the decode-once µop engine
    /// ([`crate::block`]): each dispatch executes a burst of pre-decoded
    /// µops with the run-state check, the external-event scan, and the
    /// observer's register-event bookkeeping hoisted out of the inner
    /// loop. Every cycle-exact boundary is enforced by capping the burst
    /// budget: the `cycle` bound itself (injection points, checkpoint
    /// and convergence probes, cycle limits) and external-event latch
    /// cycles, which fall back to [`Machine::step_observed`] for the
    /// latching instruction. Behaviour is bit-identical to pure
    /// single-stepping (`block_engine: false`) — the block-engine oracle
    /// and fuzz batteries hold both paths to identical architectural
    /// state at every boundary.
    fn run_blocks_to<O: MemObserver>(&mut self, cycle: u64, obs: &mut O) -> Option<RunStatus> {
        while self.cycle < cycle {
            match self.state {
                State::Halted { code } => return Some(RunStatus::Halted { code }),
                State::Trapped(t) => return Some(RunStatus::Trapped(t)),
                State::Running => {}
            }
            // An armed control-flow fault suspends µop bursts: the fault
            // latches inside `step_observed`, so single-stepping until it
            // fires (or the run ends) keeps block_engine=on/off
            // bit-identical by construction.
            if self.config.block_engine && self.cf_fault.is_none() {
                let mut budget = cycle - self.cycle;
                if let Some(ev) = self.events.get(self.next_event) {
                    // µops in this burst retire in cycles
                    // `self.cycle + 1 ..= self.cycle + budget`; none may
                    // reach the next event's latch cycle (overdue events
                    // latch on the next stepped instruction).
                    let latch = ev.cycle.max(self.cycle + 1);
                    budget = budget.min(latch - 1 - self.cycle);
                }
                if budget > 0 {
                    if let Some(status) = self.exec_uops(budget, obs) {
                        return Some(status);
                    }
                    continue;
                }
            }
            let before = self.cycle;
            let result = self.step_observed(obs);
            self.block_stats.step_cycles += self.cycle - before;
            match result {
                StepResult::Running => {}
                StepResult::Halted { code } => return Some(RunStatus::Halted { code }),
                StepResult::Trapped(t) => return Some(RunStatus::Trapped(t)),
            }
        }
        None
    }

    /// Engine dispatch counters accumulated by [`Machine::run`],
    /// [`Machine::run_to`] and [`Machine::run_observed`] since
    /// construction (or since the state this machine was cloned from).
    /// Campaign workers snapshot and diff these around each faulted run.
    pub fn block_stats(&self) -> BlockStats {
        self.block_stats
    }

    /// Number of basic blocks (maximal straight-line instruction runs)
    /// the decode pass found in this machine's ROM — a static property
    /// of the program, useful for sizing expectations against the
    /// dynamic [`BlockStats::blocks`] counter.
    pub fn rom_block_count(&self) -> usize {
        self.blocks.block_count()
    }

    /// The tight pre-decoded µop loop: executes up to `budget` µops from
    /// the current program counter, following control flow through the
    /// PC-aligned table, and stops early only on halt or trap (returning
    /// the status; `None` means the budget was exhausted while running).
    ///
    /// Preconditions (enforced by [`Machine::run_blocks_to`]): the
    /// machine is running, `budget ≥ 1`, and no external event latches
    /// within the burst's cycle window — which is exactly what lets the
    /// loop skip the per-instruction state and event checks the step
    /// interpreter pays.
    fn exec_uops<O: MemObserver>(&mut self, budget: u64, obs: &mut O) -> Option<RunStatus> {
        debug_assert!(matches!(self.state, State::Running) && budget >= 1);
        let table = Arc::clone(&self.blocks);
        let uops = &table.uops[..];
        let rom_len = uops.len() as u32;
        let mut pc = self.pc;
        let mut cycle = self.cycle;
        let stop = cycle + budget;
        let start_cycle = cycle;
        let mut blocks = 1u64;
        let mut result = None;

        // Register-file access with the `< 16` operand invariant made
        // visible to the compiler (no bounds check in the hot loop).
        macro_rules! r {
            ($i:expr) => {
                self.regs[($i & 15) as usize]
            };
        }

        'burst: while cycle < stop {
            if pc >= rom_len {
                // Falling off the ROM end: clean halt, no cycle consumed
                // (same as the step interpreter).
                self.state = State::Halted { code: 0 };
                result = Some(RunStatus::Halted { code: 0 });
                break 'burst;
            }
            let u = uops[pc as usize];
            cycle += 1;
            if O::OBSERVES {
                obs.on_fetch(cycle, pc);
                for reg in table.events[pc as usize].reads.iter().flatten() {
                    obs.on_reg_access(RegAccess {
                        cycle,
                        reg: *reg,
                        kind: AccessKind::Read,
                    });
                }
            }
            macro_rules! trap {
                ($t:expr) => {{
                    let t = $t;
                    self.state = State::Trapped(t);
                    result = Some(RunStatus::Trapped(t));
                    break 'burst;
                }};
            }
            let mut next_pc = pc + 1;
            match u {
                Uop::Nop => {}
                Uop::Add { rd, rs1, rs2 } => r!(rd) = r!(rs1).wrapping_add(r!(rs2)),
                Uop::Sub { rd, rs1, rs2 } => r!(rd) = r!(rs1).wrapping_sub(r!(rs2)),
                Uop::And { rd, rs1, rs2 } => r!(rd) = r!(rs1) & r!(rs2),
                Uop::Or { rd, rs1, rs2 } => r!(rd) = r!(rs1) | r!(rs2),
                Uop::Xor { rd, rs1, rs2 } => r!(rd) = r!(rs1) ^ r!(rs2),
                Uop::Sll { rd, rs1, rs2 } => r!(rd) = r!(rs1) << (r!(rs2) & 31),
                Uop::Srl { rd, rs1, rs2 } => r!(rd) = r!(rs1) >> (r!(rs2) & 31),
                Uop::Sra { rd, rs1, rs2 } => {
                    r!(rd) = ((r!(rs1) as i32) >> (r!(rs2) & 31)) as u32;
                }
                Uop::Slt { rd, rs1, rs2 } => {
                    r!(rd) = ((r!(rs1) as i32) < (r!(rs2) as i32)) as u32;
                }
                Uop::Sltu { rd, rs1, rs2 } => r!(rd) = (r!(rs1) < r!(rs2)) as u32,
                Uop::Mul { rd, rs1, rs2 } => r!(rd) = r!(rs1).wrapping_mul(r!(rs2)),
                Uop::Addi { rd, rs1, imm } => r!(rd) = r!(rs1).wrapping_add(imm),
                Uop::Andi { rd, rs1, imm } => r!(rd) = r!(rs1) & imm,
                Uop::Ori { rd, rs1, imm } => r!(rd) = r!(rs1) | imm,
                Uop::Xori { rd, rs1, imm } => r!(rd) = r!(rs1) ^ imm,
                Uop::Slti { rd, rs1, imm } => {
                    r!(rd) = ((r!(rs1) as i32) < (imm as i32)) as u32;
                }
                Uop::Slli { rd, rs1, sh } => r!(rd) = r!(rs1) << sh,
                Uop::Srli { rd, rs1, sh } => r!(rd) = r!(rs1) >> sh,
                Uop::Srai { rd, rs1, sh } => r!(rd) = ((r!(rs1) as i32) >> sh) as u32,
                Uop::LoadImm { rd, value } => r!(rd) = value,
                Uop::Load {
                    rd,
                    base,
                    off,
                    width,
                    signed,
                } => {
                    let addr = r!(base).wrapping_add(off);
                    if addr >= MMIO_BASE {
                        match addr {
                            MMIO_CYCLE => {
                                if rd != 0 {
                                    r!(rd) = (cycle as u32).wrapping_sub(1);
                                }
                            }
                            MMIO_INPUT => {
                                if rd != 0 {
                                    r!(rd) = self.input_latch;
                                }
                            }
                            _ => trap!(Trap::MmioRead { addr }),
                        }
                    } else {
                        let raw = match self.ram.read(addr, width) {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        };
                        obs.on_access(MemAccess {
                            cycle,
                            addr,
                            width,
                            kind: AccessKind::Read,
                        });
                        let v = if signed {
                            match width {
                                MemWidth::Byte => raw as u8 as i8 as i32 as u32,
                                MemWidth::Half => raw as u16 as i16 as i32 as u32,
                                MemWidth::Word => raw,
                            }
                        } else {
                            raw
                        };
                        if rd != 0 {
                            r!(rd) = v;
                        }
                    }
                }
                Uop::Store {
                    rs,
                    base,
                    off,
                    width,
                } => {
                    let addr = r!(base).wrapping_add(off);
                    let value = r!(rs);
                    if addr >= MMIO_BASE {
                        match addr {
                            MMIO_SERIAL => {
                                if self.serial.len() >= SERIAL_LIMIT {
                                    trap!(Trap::SerialOverflow);
                                }
                                self.serial.push(value as u8);
                            }
                            MMIO_DETECT => self.detect_count += 1,
                            _ => trap!(Trap::OutOfRange { addr }),
                        }
                    } else {
                        if let Err(t) = self.ram.write(addr, width, value) {
                            trap!(t);
                        }
                        obs.on_access(MemAccess {
                            cycle,
                            addr,
                            width,
                            kind: AccessKind::Write,
                        });
                    }
                }
                Uop::Br {
                    kind,
                    rs1,
                    rs2,
                    target,
                } => {
                    let taken = branch_taken(kind, r!(rs1), r!(rs2));
                    if O::OBSERVES {
                        obs.on_branch(crate::observer::BranchRecord { cycle, pc, taken });
                    }
                    if taken {
                        next_pc = target;
                    }
                    blocks += 1;
                }
                Uop::BrBad {
                    kind,
                    rs1,
                    rs2,
                    bad,
                } => {
                    let taken = branch_taken(kind, r!(rs1), r!(rs2));
                    if O::OBSERVES {
                        obs.on_branch(crate::observer::BranchRecord { cycle, pc, taken });
                    }
                    if taken {
                        trap!(Trap::BadJump { target: bad });
                    }
                    blocks += 1;
                }
                Uop::Jal { rd, target } => {
                    if rd != 0 {
                        r!(rd) = pc + 1;
                    }
                    next_pc = target;
                    blocks += 1;
                }
                Uop::JalBad { target } => trap!(Trap::BadJump { target }),
                Uop::Jalr { rd, rs1, off } => {
                    let target = r!(rs1).wrapping_add(off);
                    if target > rom_len {
                        trap!(Trap::BadJump { target });
                    }
                    if rd != 0 {
                        r!(rd) = pc + 1;
                    }
                    next_pc = target;
                    blocks += 1;
                }
                Uop::Halt { code } => {
                    self.state = State::Halted { code };
                    result = Some(RunStatus::Halted { code });
                    break 'burst;
                }
            }
            if O::OBSERVES {
                if let Some(rd) = table.events[pc as usize].write {
                    obs.on_reg_access(RegAccess {
                        cycle,
                        reg: rd,
                        kind: AccessKind::Write,
                    });
                }
            }
            pc = next_pc;
        }
        self.pc = pc;
        self.cycle = cycle;
        self.block_stats.block_cycles += cycle - start_cycle;
        self.block_stats.blocks += blocks;
        result
    }

    /// `true` when this machine's *future evolution* is provably identical
    /// to `pristine`'s: both are still running at the same cycle with
    /// identical program counter, input latch, pending external events,
    /// pending control-flow fault and serial-output length, and identical
    /// registers and RAM bytes wherever `mask` marks them live.
    ///
    /// The machine is deterministic, so equality of exactly this state
    /// implies every subsequent step is identical — the campaign executor
    /// uses it to terminate a faulted run early once it has converged back
    /// onto a pristine checkpoint (the fault was masked or absorbed).
    ///
    /// Two fields are deliberately compared loosely:
    ///
    /// * the serial buffer matters to execution only through its *length*
    ///   (the [`SERIAL_LIMIT`] overflow trap); whether the
    ///   bytes also match the golden output is an *observational* question
    ///   the caller answers separately (serial-prefix check);
    /// * `detect_count` is a pure output counter — a converged run with
    ///   extra detections still replays the same tail, it just classifies
    ///   as detected-and-corrected instead of no-effect.
    ///
    /// A dead location is one whose next access in the reference run
    /// after the current cycle is a write, or that is never accessed
    /// again. A run equal to the pristine machine in everything but dead
    /// locations still evolves identically: every future read sees equal
    /// values (a dead location is rewritten — with equal values — before
    /// any read), so control flow, output and detections stay those of
    /// the reference run, and the lingering differences are unobservable.
    /// This catches the common masked-fault shape a strict comparison
    /// ([`ConvergenceMask::all_live`]) cannot: a corrupted bit that simply
    /// goes dormant for the rest of the run.
    ///
    /// RAM comparison uses the copy-on-write page structure: pages still
    /// `Arc`-shared between the two machines compare by pointer.
    pub fn converged_with_masked(&self, pristine: &Machine, mask: &ConvergenceMask) -> bool {
        self.converged_core(pristine)
            && (0..16).all(|r| mask.reg_live & (1 << r) == 0 || self.regs[r] == pristine.regs[r])
            && self.ram.eq_masked(&pristine.ram, &mask.ram_live)
    }

    /// 128-bit digest of the machine's complete architectural state:
    /// registers, program counter, cycle counter, run state (including
    /// halt code / trap cause), RAM contents, serial output (full
    /// content, not just length), detection count, input latch and
    /// external-event progress.
    ///
    /// The machine is deterministic, so two machines *of the same
    /// program and event schedule* whose digests are
    /// equal evolve identically from here on — equal digests (modulo a
    /// ~2⁻¹²⁸ hash collision) imply equal future runs, equal final
    /// output, and equal outcome classification under any fixed cycle
    /// budget. The campaign executor keys its fault-equivalence
    /// memoization on `(cycle, digest)`; the cycle is folded into the
    /// digest as well, so the digest alone already separates states at
    /// different times.
    ///
    /// Takes `&mut self` to maintain the incremental hashing state: the
    /// RAM hash is a rolling accumulator over dirtied COW pages
    /// ([`crate::Ram::content_hash`]) and the serial hash resumes from
    /// the last probed position (serial output only ever appends), so
    /// digesting a fork of an already-digested machine costs `O(pages
    /// dirtied + serial bytes appended since the fork)` plus the (small)
    /// fixed-size state — `O(1)` for a clean re-probe.
    ///
    /// The digest *value* is purely content-determined (held against
    /// [`Machine::state_digest_from_scratch`] by the fuzz battery), so
    /// digests computed in different processes — or persisted across
    /// daemon restarts by the warm store — compare meaningfully.
    pub fn state_digest(&mut self) -> StateDigest {
        use crate::ram::fold128;
        // Fold the serial bytes appended since the previous probe into
        // the cached accumulator (complete 8-byte chunks only; the
        // partial tail is re-folded per probe below).
        while self.serial_hash_pos + 8 <= self.serial.len() {
            let chunk = &self.serial[self.serial_hash_pos..self.serial_hash_pos + 8];
            self.serial_hash = fold128(
                self.serial_hash,
                u64::from_le_bytes(chunk.try_into().unwrap()),
            );
            self.serial_hash_pos += 8;
        }
        let serial = finish_serial_hash(
            self.serial_hash,
            &self.serial[self.serial_hash_pos..],
            self.serial.len(),
        );
        let ram = self.ram.content_hash();
        self.digest_with(serial, ram)
    }

    /// [`Machine::state_digest`] recomputed with no cached hashing state
    /// (full serial re-walk, [`crate::Ram::content_hash_from_scratch`]).
    /// The oracle the digest-equality fuzz battery compares the
    /// incremental digest against.
    pub fn state_digest_from_scratch(&self) -> StateDigest {
        use crate::ram::fold128;
        let mut sacc = SERIAL_HASH_SEED;
        let complete = self.serial.len() / 8 * 8;
        for chunk in self.serial[..complete].chunks_exact(8) {
            sacc = fold128(sacc, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let serial = finish_serial_hash(sacc, &self.serial[complete..], self.serial.len());
        self.digest_with(serial, self.ram.content_hash_from_scratch())
    }

    /// Folds the fixed-size architectural state around the given serial
    /// and RAM sub-hashes.
    fn digest_with(&self, serial: (u64, u64), ram: u128) -> StateDigest {
        use crate::ram::fold128;
        let mut acc = (0x9216_D5D9_8979_FB1B, 0x0D95_748F_728E_B658);
        acc = fold128(
            acc,
            match self.state {
                State::Running => 0,
                State::Halted { code } => 1 | (code as u64) << 8,
                State::Trapped(t) => 2 | trap_word(t) << 8,
            },
        );
        acc = fold128(acc, self.cycle);
        acc = fold128(acc, (self.pc as u64) << 32 | self.input_latch as u64);
        acc = fold128(acc, self.next_event as u64);
        acc = fold128(acc, self.detect_count);
        // A pending (armed, not yet fired) control-flow fault is part of
        // the architectural state: a machine carrying one must never
        // share a digest with a pristine machine, or the memoized
        // injection-point probe would alias them.
        let (cfw1, cfw2) = match self.cf_fault {
            None => (0u64, 0u64),
            Some(CfFault::SkipAt { slot }) => (1 | (slot as u64) << 8, 0),
            Some(CfFault::CorruptAt { slot, mask }) => (2 | (slot as u64) << 8, mask as u64),
            Some(CfFault::InvertBranch) => (3, 0),
        };
        acc = fold128(acc, cfw1);
        acc = fold128(acc, cfw2);
        for pair in self.regs.chunks_exact(2) {
            acc = fold128(acc, (pair[0] as u64) << 32 | pair[1] as u64);
        }
        // Serial content matters to classification (SDC is a serial
        // mismatch), so the digest covers the bytes, not just the length.
        acc = fold128(acc, serial.0);
        acc = fold128(acc, serial.1);
        acc = fold128(acc, (ram >> 64) as u64);
        acc = fold128(acc, ram as u64);
        StateDigest((acc.0 as u128) << 64 | acc.1 as u128)
    }

    /// The mask-independent part of the convergence comparison.
    fn converged_core(&self, pristine: &Machine) -> bool {
        debug_assert!(
            Arc::ptr_eq(&self.rom, &pristine.rom) || self.rom == pristine.rom,
            "convergence compare across different programs"
        );
        self.state == State::Running
            && pristine.state == State::Running
            && self.cycle == pristine.cycle
            && self.pc == pristine.pc
            && self.input_latch == pristine.input_latch
            && self.next_event == pristine.next_event
            && self.serial.len() == pristine.serial.len()
            // A dormant armed fault may still fire later; conservatively
            // refuse convergence until the pending-fault state matches.
            && self.cf_fault == pristine.cf_fault
    }
}

/// Seed of the rolling serial-output sub-hash (independent of the RAM
/// and whole-state seeds so the sub-hashes never alias).
const SERIAL_HASH_SEED: (u64, u64) = (0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9);

/// Completes a serial sub-hash: folds the zero-padded partial tail
/// chunk (if any) and the total length (which disambiguates the
/// padding) into a copy of the rolling accumulator.
fn finish_serial_hash(mut acc: (u64, u64), tail: &[u8], len: usize) -> (u64, u64) {
    use crate::ram::fold128;
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        acc = fold128(acc, u64::from_le_bytes(word));
    }
    fold128(acc, len as u64)
}

/// Opaque 128-bit architectural-state digest, produced by
/// [`Machine::state_digest`]. Suitable as a hash-map key; equality of
/// digests is (collision-negligibly) equivalent to equality of the full
/// architectural state for machines running the same program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateDigest(u128);

impl StateDigest {
    /// The raw digest bits, for serialization (the daemon's persistent
    /// warm store journals digests and compares them across processes —
    /// sound because the digest is purely content-determined).
    #[inline]
    pub fn to_bits(self) -> u128 {
        self.0
    }

    /// Rebuilds a digest from [`StateDigest::to_bits`].
    #[inline]
    pub fn from_bits(bits: u128) -> StateDigest {
        StateDigest(bits)
    }
}

/// Injectively encodes a trap cause into a word for the state digest.
/// Variant tags sit in the low byte; payloads (which are ≤ 34 bits) are
/// shifted above them.
fn trap_word(t: Trap) -> u64 {
    match t {
        Trap::Misaligned { addr, width } => 1 | (width.bytes() as u64) << 8 | (addr as u64) << 12,
        Trap::OutOfRange { addr } => 2 | (addr as u64) << 12,
        Trap::MmioRead { addr } => 3 | (addr as u64) << 12,
        Trap::BadJump { target } => 4 | (target as u64) << 12,
        Trap::SerialOverflow => 5,
        Trap::IllegalOpcode { opcode } => 6 | (opcode as u64) << 8,
    }
}

/// Which machine state is still *live* — able to influence the rest of a
/// reference run — at a given point in time. Built by the campaign
/// executor from the golden run's access traces, one mask per pristine
/// checkpoint, and consumed by [`Machine::converged_with_masked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceMask {
    /// Flat bitmask over RAM bytes: bit `i` set ⇔ byte `i` may still be
    /// read before being rewritten.
    pub ram_live: Vec<u8>,
    /// Bitmask over registers `r0..r15`: bit `r` set ⇔ register `r` may
    /// still be read before being rewritten.
    pub reg_live: u16,
}

impl ConvergenceMask {
    /// A mask with every byte and register live (strict comparison).
    pub fn all_live(ram_bytes: usize) -> ConvergenceMask {
        ConvergenceMask {
            ram_live: vec![0xFF; ram_bytes.div_ceil(8)],
            reg_live: u16::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::Asm;

    /// The strict convergence comparison: every register and RAM byte
    /// live.
    fn converged(faulted: &Machine, pristine: &Machine) -> bool {
        let mask = ConvergenceMask::all_live(pristine.ram().size() as usize);
        faulted.converged_with_masked(pristine, &mask)
    }

    fn run_program(f: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new();
        f(&mut a);
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100_000);
        m
    }

    #[test]
    fn arithmetic_basics() {
        let m = run_program(|a| {
            a.li(Reg::R1, 7);
            a.li(Reg::R2, -3);
            a.add(Reg::R3, Reg::R1, Reg::R2);
            a.sub(Reg::R4, Reg::R1, Reg::R2);
            a.mul(Reg::R5, Reg::R1, Reg::R2);
        });
        assert_eq!(m.reg(Reg::R3), 4);
        assert_eq!(m.reg(Reg::R4), 10);
        assert_eq!(m.reg(Reg::R5) as i32, -21);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let m = run_program(|a| {
            a.li(Reg::R0, 42);
            a.add(Reg::R1, Reg::R0, Reg::R0);
        });
        assert_eq!(m.reg(Reg::R0), 0);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    #[test]
    fn shifts_and_compares() {
        let m = run_program(|a| {
            a.li(Reg::R1, -8);
            a.srai(Reg::R2, Reg::R1, 1); // -4
            a.srli(Reg::R3, Reg::R1, 28); // 0xF
            a.slli(Reg::R4, Reg::R1, 1); // -16
            a.slt(Reg::R5, Reg::R1, Reg::R0); // -8 < 0 → 1
            a.sltu(Reg::R6, Reg::R1, Reg::R0); // big unsigned < 0 → 0
        });
        assert_eq!(m.reg(Reg::R2) as i32, -4);
        assert_eq!(m.reg(Reg::R3), 0xF);
        assert_eq!(m.reg(Reg::R4) as i32, -16);
        assert_eq!(m.reg(Reg::R5), 1);
        assert_eq!(m.reg(Reg::R6), 0);
    }

    #[test]
    fn zero_extended_logical_immediates() {
        let m = run_program(|a| {
            a.lui(Reg::R1, 0xFFFF);
            a.ori(Reg::R1, Reg::R1, -1); // zext(0xFFFF)
            a.andi(Reg::R2, Reg::R1, -1); // 0x0000FFFF
            a.xori(Reg::R3, Reg::R1, -1); // flips low 16 bits
        });
        assert_eq!(m.reg(Reg::R1), 0xFFFF_FFFF);
        assert_eq!(m.reg(Reg::R2), 0x0000_FFFF);
        assert_eq!(m.reg(Reg::R3), 0xFFFF_0000);
    }

    #[test]
    fn memory_round_trip_and_sign_extension() {
        let m = run_program(|a| {
            a.data_space("buf", 8);
            a.li(Reg::R1, -1);
            a.sb(Reg::R1, Reg::R0, 0);
            a.lb(Reg::R2, Reg::R0, 0); // -1 sign-extended
            a.lbu(Reg::R3, Reg::R0, 0); // 255
            a.li(Reg::R4, -2);
            a.sh(Reg::R4, Reg::R0, 2);
            a.lh(Reg::R5, Reg::R0, 2); // -2
            a.lhu(Reg::R6, Reg::R0, 2); // 0xFFFE
        });
        assert_eq!(m.reg(Reg::R2) as i32, -1);
        assert_eq!(m.reg(Reg::R3), 255);
        assert_eq!(m.reg(Reg::R5) as i32, -2);
        assert_eq!(m.reg(Reg::R6), 0xFFFE);
    }

    #[test]
    fn serial_and_detect_mmio() {
        let m = run_program(|a| {
            a.li(Reg::R1, b'A' as i32);
            a.serial_out(Reg::R1);
            a.detect_signal(Reg::R1);
            a.detect_signal(Reg::R1);
        });
        assert_eq!(m.serial(), b"A");
        assert_eq!(m.detect_count(), 2);
    }

    #[test]
    fn cycle_counter_mmio() {
        let m = run_program(|a| {
            a.nop();
            a.nop();
            a.read_cycle(Reg::R1); // executes in cycle 3, reads 2 completed
        });
        assert_eq!(m.reg(Reg::R1), 2);
    }

    #[test]
    fn run_to_completion_counts_cycles() {
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.nop();
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.run(100), RunStatus::Halted { code: 0 });
        assert_eq!(m.cycle(), 3);
    }

    #[test]
    fn explicit_halt_code() {
        let m = run_program(|a| {
            a.halt(7);
        });
        assert_eq!(m.status(), Some(RunStatus::Halted { code: 7 }));
        assert_eq!(m.cycle(), 1); // halt consumes its cycle
    }

    #[test]
    fn loops_execute() {
        let m = run_program(|a| {
            a.li(Reg::R1, 5);
            a.li(Reg::R2, 0);
            let top = a.label_here();
            a.add(Reg::R2, Reg::R2, Reg::R1);
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R0, top);
        });
        assert_eq!(m.reg(Reg::R2), 15);
        assert_eq!(m.cycle(), 2 + 5 * 3);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut a = Asm::new();
        let top = a.label_here();
        a.j(top);
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.run(50), RunStatus::CycleLimit);
        assert_eq!(m.cycle(), 50);
        assert_eq!(m.status(), None); // still runnable
    }

    #[test]
    fn traps_on_bad_access() {
        let m = run_program(|a| {
            a.data_space("x", 4);
            a.li(Reg::R1, 100);
            a.lw(Reg::R2, Reg::R1, 0);
        });
        assert_eq!(
            m.status(),
            Some(RunStatus::Trapped(Trap::OutOfRange { addr: 100 }))
        );
    }

    #[test]
    fn traps_on_misaligned() {
        let m = run_program(|a| {
            a.data_space("x", 8);
            a.li(Reg::R1, 1);
            a.lw(Reg::R2, Reg::R1, 0);
        });
        assert!(matches!(
            m.status(),
            Some(RunStatus::Trapped(Trap::Misaligned { addr: 1, .. }))
        ));
    }

    #[test]
    fn traps_on_wild_jump() {
        let m = run_program(|a| {
            a.li(Reg::R1, 999);
            a.jalr(Reg::R0, Reg::R1, 0);
        });
        assert_eq!(
            m.status(),
            Some(RunStatus::Trapped(Trap::BadJump { target: 999 }))
        );
    }

    #[test]
    fn jump_to_rom_end_is_clean_halt() {
        let m = run_program(|a| {
            a.li(Reg::R1, 2); // ROM has 2 instructions; index 2 == len
            a.jalr(Reg::R0, Reg::R1, 0);
        });
        assert_eq!(m.status(), Some(RunStatus::Halted { code: 0 }));
    }

    #[test]
    fn mmio_read_of_write_only_register_traps() {
        let m = run_program(|a| {
            a.lb(Reg::R1, Reg::R0, -256); // serial is write-only
        });
        assert!(matches!(
            m.status(),
            Some(RunStatus::Trapped(Trap::MmioRead { .. }))
        ));
    }

    #[test]
    fn serial_overflow_traps() {
        let mut a = Asm::new();
        a.li(Reg::R1, b'x' as i32);
        let top = a.label_here();
        a.serial_out(Reg::R1);
        a.j(top);
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(
            m.run(4 * SERIAL_LIMIT as u64),
            RunStatus::Trapped(Trap::SerialOverflow)
        );
        assert_eq!(m.serial().len(), SERIAL_LIMIT);
    }

    #[test]
    fn determinism_and_clone_independence() {
        let mut a = Asm::new();
        let buf = a.data_space("buf", 16);
        a.li(Reg::R1, 0xAB);
        a.sb(Reg::R1, Reg::R0, buf.offset());
        a.lb(Reg::R2, Reg::R0, buf.offset());
        a.serial_out(Reg::R2);
        let p = a.build().unwrap();

        let mut m1 = Machine::new(&p);
        m1.run_to(2);
        let mut m2 = m1.clone();
        // Diverge the clone with a fault; the original is untouched.
        m2.flip_bit(buf.addr() as u64 * 8);
        let s1 = m1.run(1_000);
        let s2 = m2.run(1_000);
        assert_eq!(s1, s2); // both halt cleanly...
        assert_eq!(m1.serial(), &[0xAB]);
        assert_eq!(m2.serial(), &[0xAA]); // ...but the fault corrupted output
    }

    #[test]
    fn flip_before_read_is_seen_flip_after_is_not() {
        // Verifies the cycle convention: a flip applied after run_to(c-1)
        // is visible to the read in cycle c.
        let mut a = Asm::new();
        let x = a.data_bytes("x", &[0x01]);
        a.nop(); // cycle 1
        a.lb(Reg::R1, Reg::R0, x.offset()); // cycle 2: the read
        a.serial_out(Reg::R1); // cycle 3
        let p = a.build().unwrap();

        // Inject at coordinate cycle=2 (just before the read executes).
        let mut m = Machine::new(&p);
        m.run_to(1);
        m.flip_bit(0);
        m.run(100);
        assert_eq!(m.serial(), &[0x00]);

        // Inject at coordinate cycle=3 (after the read): dormant.
        let mut m = Machine::new(&p);
        m.run_to(2);
        m.flip_bit(0);
        m.run(100);
        assert_eq!(m.serial(), &[0x01]);
    }

    #[test]
    fn repeated_step_after_halt_is_stable() {
        let mut a = Asm::new();
        a.halt(3);
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.step(), StepResult::Halted { code: 3 });
        assert_eq!(m.step(), StepResult::Halted { code: 3 });
        assert_eq!(m.cycle(), 1);
    }

    #[test]
    fn convergence_detects_masked_fault() {
        // A value is written, corrupted, then overwritten before any read:
        // after the overwrite the faulted fork is bit-identical to the
        // pristine machine again.
        let mut a = Asm::new();
        let x = a.data_space("x", 4);
        a.li(Reg::R1, 5);
        a.sw(Reg::R1, Reg::R0, x.offset()); // cycle 3 (li is 2 insts)
        a.li(Reg::R2, 9);
        a.sw(Reg::R2, Reg::R0, x.offset()); // overwrites the fault
        a.lw(Reg::R3, Reg::R0, x.offset());
        a.serial_out(Reg::R3);
        let p = a.build().unwrap();

        let mut pristine = Machine::new(&p);
        pristine.run_to(3);
        let mut faulted = pristine.clone();
        faulted.flip_bit(x.addr() as u64 * 8 + 1); // dead interval: dies at the sw
        assert!(!converged(&faulted, &pristine), "fault still live");
        pristine.run_to(6);
        faulted.run_to(6);
        assert!(converged(&faulted, &pristine), "overwrite masks the fault");
    }

    #[test]
    fn masked_convergence_absorbs_dormant_faults() {
        // The fault corrupts a byte that is read once more and then never
        // accessed again: strict convergence never fires (RAM differs
        // forever), masked convergence fires as soon as the byte is dead.
        let mut a = Asm::new();
        let x = a.data_bytes("x", &[0x40]);
        a.lb(Reg::R1, Reg::R0, x.offset()); // only access to x
        a.slti(Reg::R2, Reg::R1, 100); // 1 for golden and faulted values
        a.mv(Reg::R1, Reg::R0); // kill the corrupted register copy
        a.serial_out(Reg::R2);
        a.nop();
        let p = a.build().unwrap();

        let mut pristine = Machine::new(&p);
        let mut faulted = Machine::new(&p);
        faulted.flip_bit(0); // x = 0x41: still < 100, comparison masks it
        pristine.run_to(4);
        faulted.run_to(4);
        assert!(!converged(&faulted, &pristine), "RAM still differs");

        // x (byte 0) is dead from here on; everything else is live.
        let mut mask = ConvergenceMask::all_live(1);
        assert!(
            !faulted.converged_with_masked(&pristine, &mask),
            "all-live mask must behave like the strict comparison"
        );
        mask.ram_live[0] &= !1;
        assert!(faulted.converged_with_masked(&pristine, &mask));

        // A dead *register* difference is likewise absorbed.
        let mut faulted = pristine.clone();
        faulted.flip_reg_bit((3 - 1) * 32); // r3 never touched by the program
        assert!(!converged(&faulted, &pristine));
        let mut mask = ConvergenceMask::all_live(1);
        mask.reg_live &= !(1 << 3);
        assert!(faulted.converged_with_masked(&pristine, &mask));
    }

    #[test]
    fn convergence_rejects_any_architectural_difference() {
        let mut a = Asm::new();
        a.data_space("buf", 8);
        for _ in 0..6 {
            a.nop();
        }
        let p = a.build().unwrap();
        let mut m1 = Machine::new(&p);
        m1.run_to(2);
        let m2 = m1.clone();
        assert!(converged(&m1, &m2));

        let mut diverged = m2.clone();
        diverged.flip_reg_bit(0);
        assert!(!converged(&diverged, &m1), "register difference");

        let mut diverged = m2.clone();
        diverged.flip_bit(0);
        assert!(!converged(&diverged, &m1), "RAM difference");

        let mut diverged = m2.clone();
        diverged.run_to(3);
        assert!(!converged(&diverged, &m1), "cycle difference");

        let mut halted = m2.clone();
        halted.run(100);
        assert!(!converged(&halted, &m1), "stopped machines never converge");
    }

    #[test]
    fn convergence_ignores_detect_count_but_not_serial_length() {
        // Equal-length paths: the faulted path signals a detection and
        // scrubs the register, re-aligning cycle, pc and registers with
        // the pristine run — only detect_count differs afterwards, and
        // that must not block convergence (it decides NoEffect vs
        // DetectedCorrected, not *whether* the tail is identical).
        let mut a = Asm::new();
        let clean = a.new_label();
        let join = a.new_label();
        a.beq(Reg::R1, Reg::R0, clean);
        a.detect_signal(Reg::R1); // faulted path, 3 cycles
        a.mv(Reg::R1, Reg::R0);
        a.j(join);
        a.bind(clean);
        a.nop(); // pristine path, 3 cycles
        a.nop();
        a.nop();
        a.bind(join);
        a.serial_out(Reg::R1);
        let p = a.build().unwrap();

        let mut pristine = Machine::new(&p);
        let mut faulted = Machine::new(&p);
        faulted.flip_reg_bit(0); // r1 = 1: takes the detect path
        pristine.run_to(4);
        faulted.run_to(4);
        assert_eq!(faulted.detect_count(), 1);
        assert_eq!(pristine.detect_count(), 0);
        assert!(converged(&faulted, &pristine));

        // A path that *wrote serial output* instead never converges, even
        // with registers, pc and cycle re-aligned: the extra byte makes
        // the final output differ from golden, which pure state
        // comparison cannot absorb.
        let mut a = Asm::new();
        let clean = a.new_label();
        let join = a.new_label();
        a.beq(Reg::R1, Reg::R0, clean);
        a.serial_out(Reg::R1);
        a.mv(Reg::R1, Reg::R0);
        a.j(join);
        a.bind(clean);
        a.nop();
        a.nop();
        a.nop();
        a.bind(join);
        a.halt(0);
        let p = a.build().unwrap();
        let mut pristine = Machine::new(&p);
        let mut faulted = Machine::new(&p);
        faulted.flip_reg_bit(0);
        pristine.run_to(4);
        faulted.run_to(4);
        assert_eq!(faulted.pc(), pristine.pc());
        assert_eq!(faulted.serial().len(), 1);
        assert!(!converged(&faulted, &pristine));
    }

    #[test]
    fn state_digest_separates_architectural_differences() {
        let mut a = Asm::new();
        let x = a.data_bytes("x", &[1, 2, 3, 4]);
        a.lb(Reg::R1, Reg::R0, x.offset());
        a.serial_out(Reg::R1);
        a.sb(Reg::R0, Reg::R0, x.offset());
        a.nop();
        let p = a.build().unwrap();

        let mut m = Machine::new(&p);
        m.run_to(2);
        let base = m.state_digest();
        assert_eq!(m.clone().state_digest(), base, "clone digests equal");
        assert_eq!(m.state_digest(), base, "digesting is idempotent");

        // Every digested component, perturbed one at a time.
        let mut d = m.clone();
        d.flip_reg_bit(0);
        assert_ne!(d.state_digest(), base, "register difference");
        let mut d = m.clone();
        d.flip_bit(x.addr() as u64 * 8 + 9);
        assert_ne!(d.state_digest(), base, "RAM difference");
        let mut d = m.clone();
        d.run_to(3);
        assert_ne!(d.state_digest(), base, "cycle/pc difference");
        let mut d = m.clone();
        d.run(100);
        assert_ne!(d.state_digest(), base, "halted vs running");

        // An involution restores the digest exactly.
        let mut d = m.clone();
        d.flip_bit(x.addr() as u64 * 8);
        d.flip_bit(x.addr() as u64 * 8);
        assert_eq!(d.state_digest(), base);
    }

    #[test]
    fn state_digest_covers_serial_content_not_just_length() {
        // Two runs emitting equal-length but different serial bytes must
        // digest differently: classification (SDC vs NoEffect) depends
        // on the content, and the memoizing executor keys outcomes on
        // the digest.
        let mut a = Asm::new();
        let x = a.data_bytes("x", b"a");
        a.lb(Reg::R1, Reg::R0, x.offset());
        a.serial_out(Reg::R1);
        a.nop();
        let p = a.build().unwrap();

        let mut clean = Machine::new(&p);
        let mut faulted = Machine::new(&p);
        faulted.flip_bit(0); // emits 'a' ^ 1 = '`'
        clean.run_to(2);
        faulted.run_to(2);
        assert_eq!(clean.serial().len(), faulted.serial().len());
        assert_ne!(clean.state_digest(), faulted.state_digest());

        // Restoring the flipped (already dead) byte re-aligns everything
        // but the serial content: still different digests.
        faulted.flip_bit(0);
        assert_eq!(clean.ram().to_vec(), faulted.ram().to_vec());
        assert_ne!(clean.state_digest(), faulted.state_digest());
    }

    #[test]
    fn state_digest_ignores_cow_sharing_structure() {
        // Digests are content-determined: a machine rebuilt from scratch
        // and a forked machine in the same state digest identically even
        // though their RAM page tables share nothing.
        let mut a = Asm::new();
        a.data_space("buf", 600);
        a.li(Reg::R1, 0x55);
        a.sb(Reg::R1, Reg::R0, 0);
        a.sb(Reg::R1, Reg::R0, 300);
        a.nop();
        let p = a.build().unwrap();
        let mut m1 = Machine::new(&p);
        m1.run_to(3);
        let mut fork = m1.clone();
        let mut m2 = Machine::new(&p);
        m2.run_to(3);
        assert!(!m1.ram().shares_all_pages_with(m2.ram()) || m1.ram() == m2.ram());
        assert_eq!(m1.state_digest(), m2.state_digest());
        assert_eq!(fork.state_digest(), m2.state_digest());
    }

    #[test]
    fn observer_sees_ram_accesses_only() {
        use crate::observer::RecordingObserver;
        let mut a = Asm::new();
        let x = a.data_word("x", 5);
        a.lw(Reg::R1, Reg::R0, x.offset()); // RAM read
        a.serial_out(Reg::R1); // MMIO: not reported
        a.sw(Reg::R1, Reg::R0, x.offset()); // RAM write
        let p = a.build().unwrap();
        let mut obs = RecordingObserver::default();
        let mut m = Machine::new(&p);
        m.run_observed(100, &mut obs);
        assert_eq!(obs.accesses.len(), 2);
        assert_eq!(obs.accesses[0].kind, AccessKind::Read);
        assert_eq!(obs.accesses[0].cycle, 1);
        assert_eq!(obs.accesses[1].kind, AccessKind::Write);
        assert_eq!(obs.accesses[1].cycle, 3);
    }

    /// A looping program plus its machine under both engine configs.
    fn engine_pair() -> (Machine, Machine) {
        let mut a = Asm::new();
        let buf = a.data_space("buf", 8);
        a.li(Reg::R1, 25);
        let top = a.label_here();
        a.sw(Reg::R1, Reg::R0, buf.offset());
        a.lw(Reg::R2, Reg::R0, buf.offset());
        a.addi(Reg::R1, Reg::R1, -1);
        a.bne(Reg::R1, Reg::R0, top);
        a.serial_out(Reg::R2);
        let p = a.build().unwrap();
        let blocks = Machine::new(&p);
        let steps = Machine::with_config(
            &p,
            MachineConfig {
                block_engine: false,
            },
        );
        (blocks, steps)
    }

    #[test]
    fn block_engine_run_to_is_cycle_exact() {
        // Every run_to bound — including mid-block ones — must leave the
        // two engines in identical architectural states.
        let (mut blocks, mut steps) = engine_pair();
        for bound in [1u64, 2, 5, 7, 8, 13, 50, 200] {
            assert_eq!(blocks.run_to(bound), steps.run_to(bound), "bound {bound}");
            assert_eq!(blocks.cycle(), steps.cycle(), "bound {bound}");
            assert_eq!(blocks.pc(), steps.pc(), "bound {bound}");
            assert_eq!(blocks.state_digest(), steps.state_digest(), "bound {bound}");
        }
        assert_eq!(blocks.status(), Some(RunStatus::Halted { code: 0 }));
    }

    #[test]
    fn block_stats_partition_the_cycle_count() {
        let (mut blocks, mut steps) = engine_pair();
        blocks.run(100_000);
        steps.run(100_000);
        let b = blocks.block_stats();
        assert_eq!(
            b.block_cycles + b.step_cycles,
            blocks.cycle(),
            "every retired instruction is attributed to exactly one engine"
        );
        assert!(b.block_cycles > 0, "default config must use the µop loop");
        assert!(b.blocks > 0);
        let s = steps.block_stats();
        assert_eq!(s.block_cycles, 0, "disabled engine must never dispatch");
        assert_eq!(s.step_cycles, steps.cycle());
        assert!(blocks.rom_block_count() > 1);
    }

    #[test]
    fn block_engine_latches_events_on_exact_cycles() {
        // The input latch flips mid-run; µop bursts must stop short of
        // each latch cycle so the delivery lands on the same instruction
        // as under single-stepping.
        let mut a = Asm::new();
        a.li(Reg::R3, 6);
        let top = a.label_here();
        a.read_input(Reg::R1);
        a.serial_out(Reg::R1);
        a.addi(Reg::R3, Reg::R3, -1);
        a.bne(Reg::R3, Reg::R0, top);
        let p = a.build().unwrap();
        // The latch is polled at cycles 2, 6, 10, 14, 18, 22. The second
        // event lands *exactly* on a poll cycle (its instruction must
        // already read the new value), the others land mid-loop.
        let events = vec![
            ExternalEvent { cycle: 4, value: 7 },
            ExternalEvent {
                cycle: 10,
                value: 8,
            },
            ExternalEvent {
                cycle: 15,
                value: 9,
            },
        ];
        let mut blocks = Machine::with_events(&p, MachineConfig::default(), events.clone());
        let mut steps = Machine::with_events(
            &p,
            MachineConfig {
                block_engine: false,
            },
            events,
        );
        assert_eq!(blocks.run(1_000), steps.run(1_000));
        assert_eq!(blocks.serial(), steps.serial());
        assert_eq!(blocks.state_digest(), steps.state_digest());
        // And the latch really was observed changing: three distinct
        // values must appear in the poll log.
        assert!(blocks.serial().contains(&7));
        assert!(blocks.serial().contains(&8));
        assert!(blocks.serial().contains(&9));
    }

    #[test]
    fn block_engine_reads_cycle_counter_exactly() {
        // MMIO_CYCLE returns the number of *completed* instructions; the
        // µop loop computes it from its local cycle register.
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.read_cycle(Reg::R1);
        a.serial_out(Reg::R1);
        a.read_cycle(Reg::R2);
        let p = a.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100);
        assert!(m.block_stats().block_cycles > 0);
        assert_eq!(m.serial(), &[2]);
        assert_eq!(m.reg(Reg::R2), 4);
    }

    #[test]
    fn block_engine_traps_keep_pc_and_consume_the_cycle() {
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.lw(Reg::R1, Reg::R0, 1); // misaligned: traps at pc 2, cycle 3
        let p = a.build().unwrap();
        let mut blocks = Machine::new(&p);
        let mut steps = Machine::with_config(
            &p,
            MachineConfig {
                block_engine: false,
            },
        );
        let a_status = blocks.run(100);
        let b_status = steps.run(100);
        assert_eq!(a_status, b_status);
        assert!(matches!(
            a_status,
            RunStatus::Trapped(Trap::Misaligned { .. })
        ));
        assert_eq!(blocks.cycle(), 3);
        assert_eq!(blocks.pc(), 2, "trap must not advance the pc");
        assert_eq!(blocks.state_digest(), steps.state_digest());
    }
}
