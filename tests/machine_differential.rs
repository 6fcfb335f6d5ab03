//! Differential testing of the CPU core: random straight-line programs
//! are executed both on the simulator and on an independent Rust model of
//! the ISA semantics; register files and memory must agree afterwards.

use sofi::isa::{Asm, Inst, MemWidth, Program, Reg};
use sofi::machine::Machine;
use sofi_rng::{DefaultRng, Rng};

const RAM: u32 = 16;

/// Independent interpreter for the instruction subset the generator
/// emits (deliberately written from the ISA documentation, not from the
/// simulator source).
struct Model {
    regs: [u32; 16],
    ram: [u8; RAM as usize],
}

impl Model {
    fn new(data: &[u8]) -> Model {
        let mut ram = [0u8; RAM as usize];
        ram[..data.len()].copy_from_slice(data);
        Model { regs: [0; 16], ram }
    }

    fn wr(&mut self, r: Reg, v: u32) {
        if r != Reg::R0 {
            self.regs[r.index()] = v;
        }
    }

    fn rd(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn exec(&mut self, inst: Inst) {
        use Inst::*;
        match inst {
            Add { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1).wrapping_add(self.rd(rs2))),
            Sub { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1).wrapping_sub(self.rd(rs2))),
            And { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) & self.rd(rs2)),
            Or { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) | self.rd(rs2)),
            Xor { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) ^ self.rd(rs2)),
            Sll { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) << (self.rd(rs2) & 31)),
            Srl { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) >> (self.rd(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                self.wr(rd, ((self.rd(rs1) as i32) >> (self.rd(rs2) & 31)) as u32);
            }
            Slt { rd, rs1, rs2 } => {
                self.wr(rd, ((self.rd(rs1) as i32) < (self.rd(rs2) as i32)) as u32);
            }
            Sltu { rd, rs1, rs2 } => self.wr(rd, (self.rd(rs1) < self.rd(rs2)) as u32),
            Mul { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1).wrapping_mul(self.rd(rs2))),
            Addi { rd, rs1, imm } => self.wr(rd, self.rd(rs1).wrapping_add(imm as i32 as u32)),
            Andi { rd, rs1, imm } => self.wr(rd, self.rd(rs1) & (imm as u16 as u32)),
            Ori { rd, rs1, imm } => self.wr(rd, self.rd(rs1) | (imm as u16 as u32)),
            Xori { rd, rs1, imm } => self.wr(rd, self.rd(rs1) ^ (imm as u16 as u32)),
            Slti { rd, rs1, imm } => {
                self.wr(rd, ((self.rd(rs1) as i32) < imm as i32) as u32);
            }
            Slli { rd, rs1, shamt } => self.wr(rd, self.rd(rs1) << (shamt & 31)),
            Srli { rd, rs1, shamt } => self.wr(rd, self.rd(rs1) >> (shamt & 31)),
            Srai { rd, rs1, shamt } => {
                self.wr(rd, ((self.rd(rs1) as i32) >> (shamt & 31)) as u32);
            }
            Lui { rd, imm } => self.wr(rd, (imm as u32) << 16),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.rd(base).wrapping_add(offset as i32 as u32) as usize;
                let v = match width {
                    MemWidth::Byte => {
                        let b = self.ram[addr] as u32;
                        if signed {
                            b as u8 as i8 as i32 as u32
                        } else {
                            b
                        }
                    }
                    MemWidth::Half => {
                        let h = u16::from_le_bytes([self.ram[addr], self.ram[addr + 1]]);
                        if signed {
                            h as i16 as i32 as u32
                        } else {
                            h as u32
                        }
                    }
                    MemWidth::Word => u32::from_le_bytes([
                        self.ram[addr],
                        self.ram[addr + 1],
                        self.ram[addr + 2],
                        self.ram[addr + 3],
                    ]),
                };
                self.wr(rd, v);
            }
            Store {
                rs,
                base,
                offset,
                width,
            } => {
                let addr = self.rd(base).wrapping_add(offset as i32 as u32) as usize;
                let v = self.rd(rs);
                match width {
                    MemWidth::Byte => self.ram[addr] = v as u8,
                    MemWidth::Half => {
                        self.ram[addr..addr + 2].copy_from_slice(&(v as u16).to_le_bytes());
                    }
                    MemWidth::Word => {
                        self.ram[addr..addr + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            other => panic!("generator does not emit {other}"),
        }
    }
}

#[derive(Debug, Clone)]
enum Gen {
    R(u8, usize, usize, usize),
    I(u8, usize, usize, i16),
    Shift(u8, usize, usize, u8),
    Lui(usize, u16),
    LoadB(usize, u8, bool),
    LoadH(usize, u8, bool),
    LoadW(usize, u8),
    StoreB(usize, u8),
    StoreH(usize, u8),
    StoreW(usize, u8),
}

fn any_gen(rng: &mut impl Rng) -> Gen {
    fn reg<R: Rng + ?Sized>(rng: &mut R) -> usize {
        rng.gen_range(0usize..16)
    }
    match rng.gen_range(0u32..10) {
        0 => Gen::R(rng.gen_range(0u8..11), reg(rng), reg(rng), reg(rng)),
        1 => Gen::I(
            rng.gen_range(0u8..5),
            reg(rng),
            reg(rng),
            rng.next_u64() as i16,
        ),
        2 => Gen::Shift(
            rng.gen_range(0u8..3),
            reg(rng),
            reg(rng),
            rng.gen_range(0u8..32),
        ),
        3 => Gen::Lui(reg(rng), rng.next_u64() as u16),
        4 => Gen::LoadB(reg(rng), rng.gen_range(0u8..16), rng.gen_bool(0.5)),
        5 => Gen::LoadH(reg(rng), rng.gen_range(0u8..8), rng.gen_bool(0.5)),
        6 => Gen::LoadW(reg(rng), rng.gen_range(0u8..4)),
        7 => Gen::StoreB(reg(rng), rng.gen_range(0u8..16)),
        8 => Gen::StoreH(reg(rng), rng.gen_range(0u8..8)),
        _ => Gen::StoreW(reg(rng), rng.gen_range(0u8..4)),
    }
}

fn lower(g: &Gen) -> Inst {
    let r = |i: usize| Reg::from_index(i).unwrap();
    match *g {
        Gen::R(op, d, a, b) => {
            let (rd, rs1, rs2) = (r(d), r(a), r(b));
            match op {
                0 => Inst::Add { rd, rs1, rs2 },
                1 => Inst::Sub { rd, rs1, rs2 },
                2 => Inst::And { rd, rs1, rs2 },
                3 => Inst::Or { rd, rs1, rs2 },
                4 => Inst::Xor { rd, rs1, rs2 },
                5 => Inst::Sll { rd, rs1, rs2 },
                6 => Inst::Srl { rd, rs1, rs2 },
                7 => Inst::Sra { rd, rs1, rs2 },
                8 => Inst::Slt { rd, rs1, rs2 },
                9 => Inst::Sltu { rd, rs1, rs2 },
                _ => Inst::Mul { rd, rs1, rs2 },
            }
        }
        Gen::I(op, d, a, imm) => {
            let (rd, rs1) = (r(d), r(a));
            match op {
                0 => Inst::Addi { rd, rs1, imm },
                1 => Inst::Andi { rd, rs1, imm },
                2 => Inst::Ori { rd, rs1, imm },
                3 => Inst::Xori { rd, rs1, imm },
                _ => Inst::Slti { rd, rs1, imm },
            }
        }
        Gen::Shift(op, d, a, shamt) => {
            let (rd, rs1) = (r(d), r(a));
            match op {
                0 => Inst::Slli { rd, rs1, shamt },
                1 => Inst::Srli { rd, rs1, shamt },
                _ => Inst::Srai { rd, rs1, shamt },
            }
        }
        Gen::Lui(d, imm) => Inst::Lui { rd: r(d), imm },
        Gen::LoadB(d, a, signed) => Inst::Load {
            rd: r(d),
            base: Reg::R0,
            offset: a as i16,
            width: MemWidth::Byte,
            signed,
        },
        Gen::LoadH(d, a, signed) => Inst::Load {
            rd: r(d),
            base: Reg::R0,
            offset: a as i16 * 2,
            width: MemWidth::Half,
            signed,
        },
        Gen::LoadW(d, a) => Inst::Load {
            rd: r(d),
            base: Reg::R0,
            offset: a as i16 * 4,
            width: MemWidth::Word,
            signed: true,
        },
        Gen::StoreB(s, a) => Inst::Store {
            rs: r(s),
            base: Reg::R0,
            offset: a as i16,
            width: MemWidth::Byte,
        },
        Gen::StoreH(s, a) => Inst::Store {
            rs: r(s),
            base: Reg::R0,
            offset: a as i16 * 2,
            width: MemWidth::Half,
        },
        Gen::StoreW(s, a) => Inst::Store {
            rs: r(s),
            base: Reg::R0,
            offset: a as i16 * 4,
            width: MemWidth::Word,
        },
    }
}

#[test]
fn machine_agrees_with_independent_model() {
    // Deterministic seeded sweep: 256 random straight-line programs.
    let mut rng = DefaultRng::seed_from_u64(0xD1FF);
    for case in 0..256 {
        let len = rng.gen_range(1usize..60);
        let steps: Vec<Gen> = (0..len).map(|_| any_gen(&mut rng)).collect();
        let mut seed_data = vec![0u8; RAM as usize];
        rng.fill_bytes(&mut seed_data);

        let insts: Vec<Inst> = steps.iter().map(lower).collect();
        let program = Program::new("diff", insts.clone(), seed_data.clone(), RAM);

        let mut machine = Machine::new(&program);
        let status = machine.run(10_000);
        assert!(status.is_clean_halt(), "case {case}: {status:?}");

        let mut model = Model::new(&seed_data);
        for inst in insts {
            model.exec(inst);
        }

        for r in Reg::ALL {
            assert_eq!(
                machine.reg(r),
                model.rd(r),
                "case {case}: register {r} disagrees"
            );
        }
        assert_eq!(machine.ram().to_vec(), &model.ram[..], "case {case}");
        assert_eq!(machine.cycle(), steps.len() as u64, "case {case}");
    }
}

/// Observer-attached and observer-free runs share one stepping entry
/// point (`run_to` used to silently step with `NullObserver` while
/// `run_observed` took the generic path): an observer must never perturb
/// execution, so both report identical cycle counts and final
/// architectural state — with the block engine on and off — and the two
/// engines must feed an attached observer the exact same event streams.
#[test]
fn observer_attached_and_observer_free_runs_agree() {
    use sofi::machine::{MachineConfig, RecordingObserver};
    let mut rng = DefaultRng::seed_from_u64(0x0B5E);
    for case in 0..64 {
        let len = rng.gen_range(1usize..60);
        let steps: Vec<Gen> = (0..len).map(|_| any_gen(&mut rng)).collect();
        let mut seed_data = vec![0u8; RAM as usize];
        rng.fill_bytes(&mut seed_data);
        let insts: Vec<Inst> = steps.iter().map(lower).collect();
        let program = Program::new("diff", insts, seed_data, RAM);

        let mut observers = Vec::new();
        for block_engine in [true, false] {
            let config = MachineConfig { block_engine };
            let mut plain = Machine::with_config(&program, config);
            let plain_status = plain.run(10_000);
            let mut observed = Machine::with_config(&program, config);
            let mut obs = RecordingObserver::default();
            let observed_status = observed.run_observed(10_000, &mut obs);
            assert_eq!(
                plain_status, observed_status,
                "case {case} (blocks={block_engine}): status"
            );
            assert_eq!(
                plain.cycle(),
                observed.cycle(),
                "case {case} (blocks={block_engine}): cycle count"
            );
            assert_eq!(
                plain.state_digest(),
                observed.state_digest(),
                "case {case} (blocks={block_engine}): final state"
            );
            observers.push(obs);
        }
        let steps_obs = observers.pop().unwrap();
        let blocks_obs = observers.pop().unwrap();
        assert_eq!(
            blocks_obs.accesses, steps_obs.accesses,
            "case {case}: engines reported different memory-access streams"
        );
        assert_eq!(
            blocks_obs.reg_accesses, steps_obs.reg_accesses,
            "case {case}: engines reported different register-access streams"
        );
        assert_eq!(
            blocks_obs.pc_trace, steps_obs.pc_trace,
            "case {case}: engines reported different fetch streams"
        );
        assert_eq!(
            blocks_obs.branches, steps_obs.branches,
            "case {case}: engines reported different branch streams"
        );
    }
}

/// Branch-outcome recording (the `on_branch` observer hook feeding
/// control-flow pruning) must not perturb execution: an observed run of
/// a branchy program reaches the same state digest as an unobserved one,
/// both engines emit the identical branch-record stream, and that stream
/// reports exactly the golden taken/not-taken outcomes.
#[test]
fn branch_recording_does_not_perturb_golden_state() {
    use sofi::machine::{BranchRecord, MachineConfig, RecordingObserver};
    let mut a = Asm::with_name("branchy");
    a.data_space("ram", 4);
    a.li(Reg::R1, 3);
    a.li(Reg::R2, 0);
    let top = a.label_here();
    a.addi(Reg::R2, Reg::R2, 5);
    a.addi(Reg::R1, Reg::R1, -1);
    a.bne(Reg::R1, Reg::R0, top);
    let skip = a.new_label();
    a.beq(Reg::R2, Reg::R0, skip); // never taken: r2 = 15
    a.serial_out(Reg::R2);
    a.bind(skip);
    let program = a.build().unwrap();

    let mut streams: Vec<Vec<BranchRecord>> = Vec::new();
    for block_engine in [true, false] {
        let config = MachineConfig { block_engine };
        let mut plain = Machine::with_config(&program, config);
        let plain_status = plain.run(10_000);
        let mut observed = Machine::with_config(&program, config);
        let mut obs = RecordingObserver::default();
        let observed_status = observed.run_observed(10_000, &mut obs);
        assert_eq!(plain_status, observed_status, "blocks={block_engine}");
        assert_eq!(
            plain.state_digest(),
            observed.state_digest(),
            "recording perturbed the golden state (blocks={block_engine})"
        );
        assert_eq!(obs.pc_trace.len() as u64, observed.cycle());
        streams.push(obs.branches);
    }
    assert_eq!(streams[0], streams[1], "engines disagree on branch records");
    // The back-edge resolves taken, taken, not-taken across the three
    // loop iterations; the trailing beq guard is never taken.
    let outcomes: Vec<bool> = streams[0].iter().map(|b| b.taken).collect();
    assert_eq!(outcomes, vec![true, true, false, false]);
    let pcs: Vec<u32> = streams[0].iter().map(|b| b.pc).collect();
    assert_eq!(pcs, vec![4, 4, 4, 5]);
}

/// The same differential check via the text assembler as a second front
/// end: `Asm`-built and text-assembled variants must produce identical
/// machine behaviour.
#[test]
fn builder_and_text_frontends_agree() {
    let mut b = Asm::with_name("x");
    let buf = b.data_space("buf", 8);
    b.li(Reg::R1, 0x1234);
    b.sw(Reg::R1, Reg::R0, buf.offset());
    b.lh(Reg::R2, Reg::R0, buf.offset());
    b.serial_out(Reg::R2);
    let built = b.build().unwrap();

    let text = sofi::isa::assemble_text(
        "x",
        "
        .data
        buf: .space 8
        .text
        li r1, 0x1234
        sw r1, buf(r0)
        lh r2, buf(r0)
        serial r2
        ",
    )
    .unwrap();

    let mut m1 = Machine::new(&built);
    let mut m2 = Machine::new(&text);
    m1.run(100);
    m2.run(100);
    assert_eq!(m1.serial(), m2.serial());
    assert_eq!(m1.cycle(), m2.cycle());
}
