//! The text assembler as an end-to-end front end: `.s` sources assemble,
//! execute, and feed campaigns exactly like builder-generated programs.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::isa::assemble_text;
use sofi::machine::{Machine, RunStatus};

#[test]
fn textual_hi_reproduces_figure3() {
    let src = "
        ; The paper's 'Hi' benchmark, Figure 3a.
        .data
        msg: .space 2
        .text
        li r1, 'H'
        sb r1, msg(r0)
        li r1, 'i'
        sb r1, msg+1(r0)
        lb r2, msg(r0)
        serial r2
        lb r2, msg+1(r0)
        serial r2
    ";
    let program = assemble_text("hi_text", src).unwrap();
    let mut m = Machine::new(&program);
    assert_eq!(m.run(100), RunStatus::Halted { code: 0 });
    assert_eq!(m.serial(), b"Hi");
    assert_eq!(m.cycle(), 8);

    let result = Campaign::new(&program)
        .unwrap()
        .run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(result.space.size(), 128);
    assert_eq!(result.failure_weight(), 48);
}

#[test]
fn textual_loop_with_functions() {
    let src = "
        .data
        counter: .word 0
        .text
        li r4, 5
        main_loop:
            call bump
            addi r4, r4, -1
            bne r4, r0, main_loop
        lw r5, counter(r0)
        serial r5
        halt 0

        bump:
            lw r1, counter(r0)
            addi r1, r1, 2
            sw r1, counter(r0)
            ret
    ";
    let program = assemble_text("bump", src).unwrap();
    let mut m = Machine::new(&program);
    assert_eq!(m.run(1_000), RunStatus::Halted { code: 0 });
    assert_eq!(m.serial(), &[10]);
}

#[test]
fn textual_program_with_ram_directive_and_mmio() {
    let src = "
        .ram 16
        .text
        rdcycle r3
        li r2, 1
        detect r2
        li r1, 0x41
        serial r1
        halt 0
    ";
    let program = assemble_text("mmio", src).unwrap();
    assert_eq!(program.ram_size, 16);
    let mut m = Machine::new(&program);
    assert_eq!(m.run(100), RunStatus::Halted { code: 0 });
    assert_eq!(m.serial(), b"A");
    assert_eq!(m.detect_count(), 1);
}

#[test]
fn text_and_builder_agree_on_encoding() {
    // The same program written both ways must produce identical ROMs.
    use sofi::isa::{Asm, Reg};
    let text = assemble_text(
        "t",
        "
        li r1, 7
        add r2, r1, r1
        sw r2, 0(r0)
        halt 3
        .data
        x: .word 0
        ",
    )
    .unwrap();
    let mut b = Asm::with_name("b");
    b.data_word("x", 0);
    b.li(Reg::R1, 7);
    b.add(Reg::R2, Reg::R1, Reg::R1);
    b.sw(Reg::R2, Reg::R0, 0);
    b.halt(3);
    let built = b.build().unwrap();
    assert_eq!(text.insts, built.insts);
    assert_eq!(text.encode_rom(), built.encode_rom());
}

#[test]
fn shipped_asm_sources_assemble_and_run_to_halt() {
    // Pins the `asm/` directory: every shipped `.s` example must keep
    // assembling with the text front end and run to a clean halt. The
    // expected cycle counts make silent codegen drift visible.
    let cases: [(&str, &str, u64); 4] = [
        ("checksum", include_str!("../asm/checksum.s"), 47),
        ("countdown", include_str!("../asm/countdown.s"), 40),
        ("hi", include_str!("../asm/hi.s"), 8),
        ("hi_dft", include_str!("../asm/hi_dft.s"), 12),
    ];
    for (name, src, cycles) in cases {
        let program = assemble_text(name, src).unwrap_or_else(|e| panic!("asm/{name}.s: {e}"));
        let mut m = Machine::new(&program);
        assert_eq!(
            m.run(100_000),
            RunStatus::Halted { code: 0 },
            "asm/{name}.s did not halt cleanly"
        );
        assert_eq!(m.cycle(), cycles, "asm/{name}.s changed runtime");
        assert!(!m.serial().is_empty(), "asm/{name}.s produced no output");

        // Behavioural round trip: re-assembling `to_source()` output must
        // preserve instructions, data image and RAM size.
        let rt = assemble_text(name, &program.to_source())
            .unwrap_or_else(|e| panic!("asm/{name}.s round trip: {e}"));
        assert_eq!(rt.insts, program.insts, "asm/{name}.s round-trip insts");
        assert_eq!(rt.data, program.data, "asm/{name}.s round-trip data");
        assert_eq!(rt.ram_size, program.ram_size, "asm/{name}.s round-trip ram");
    }
}
