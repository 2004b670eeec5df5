//! The decoded-instruction cache: invisibility (cycles and counters are
//! bit-identical with the cache on or off), self-modifying-code
//! invalidation, and the invalidation hooks.

use vax_arch::{MachineVariant, Opcode, Psl};
use vax_asm::{Asm, Operand, Reg};
use vax_cpu::{ExecTier, HaltReason, Machine, StepEvent};

fn kernel_machine(code: &[u8], tier: ExecTier) -> Machine {
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.set_exec_tier(tier);
    m.mem_mut().write_slice(0x1000, code).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    m
}

fn run_to_halt(m: &mut Machine) {
    loop {
        match m.step() {
            StepEvent::Ok => {}
            StepEvent::Halted(HaltReason::HaltInstruction) => break,
            other => panic!("unexpected {other:?} at pc={:#x}", m.pc()),
        }
    }
}

fn compute_loop(iterations: u32) -> Vec<u8> {
    let mut a = Asm::new(0x1000);
    a.movl(Operand::Imm(iterations), Operand::Reg(Reg::R2))
        .unwrap();
    a.clrl(Operand::Reg(Reg::R3)).unwrap();
    let top = a.label();
    a.bind(top).unwrap();
    a.inst(
        Opcode::Addl2,
        &[Operand::Reg(Reg::R2), Operand::Reg(Reg::R3)],
    )
    .unwrap();
    a.inst(
        Opcode::Xorl2,
        &[Operand::Imm(0x55AA), Operand::Reg(Reg::R3)],
    )
    .unwrap();
    a.inst(
        Opcode::Sobgtr,
        &[Operand::Reg(Reg::R2), Operand::Branch(top)],
    )
    .unwrap();
    a.halt().unwrap();
    a.assemble().unwrap().bytes
}

#[test]
fn cache_on_and_off_are_bit_identical() {
    let code = compute_loop(500);
    let mut cached = kernel_machine(&code, ExecTier::Cache);
    let mut bytewise = kernel_machine(&code, ExecTier::Interp);
    run_to_halt(&mut cached);
    run_to_halt(&mut bytewise);
    assert_eq!(cached.reg(3), bytewise.reg(3));
    assert_eq!(cached.cycles(), bytewise.cycles(), "cycles must not move");
    assert_eq!(
        cached.counters(),
        bytewise.counters(),
        "counters must not move"
    );
    // And the cache must actually have been used.
    let stats = cached.decode_cache_stats();
    assert!(stats.hits > 1000, "loop body should hit: {stats:?}");
    assert_eq!(bytewise.decode_cache_stats().hits, 0);
}

#[test]
fn self_modifying_code_is_observed() {
    // A two-iteration loop: iteration one executes `incl r0` (D6 50) —
    // caching its template — then patches its register byte to make it
    // `incl r1` (D6 51). With a stale decode cache iteration two would
    // increment r0 again; correct invalidation yields r0 == 1, r1 == 1.
    let mut a = Asm::new(0x1000);
    a.movl(Operand::Imm(2), Operand::Reg(Reg::R2)).unwrap();
    let top = a.label();
    a.bind(top).unwrap();
    a.incl(Operand::Reg(Reg::R0)).unwrap();
    // Patch the `incl` destination register for the *next* iteration.
    a.inst(
        Opcode::Movb,
        &[Operand::Imm(0x51), Operand::Abs(0)], // abs address fixed below
    )
    .unwrap();
    a.inst(
        Opcode::Sobgtr,
        &[Operand::Reg(Reg::R2), Operand::Branch(top)],
    )
    .unwrap();
    a.halt().unwrap();
    let mut bytes = a.assemble().unwrap().bytes;

    // Locate the `incl` (D6 50) and point the MOVB's absolute operand at
    // the register-specifier byte following the D6 opcode.
    let incl_off = bytes
        .windows(2)
        .position(|w| w == [0xD6, 0x50])
        .expect("incl r0 in program");
    let movb_abs_off = bytes
        .windows(2)
        .position(|w| w == [0x51, 0x9F]) // imm byte 0x51, then @# specifier
        .expect("movb abs operand")
        + 2;
    let patch_addr = (0x1000 + incl_off as u32 + 1).to_le_bytes();
    bytes[movb_abs_off..movb_abs_off + 4].copy_from_slice(&patch_addr);

    for tier in [ExecTier::Cache, ExecTier::Interp] {
        let mut m = kernel_machine(&bytes, tier);
        run_to_halt(&mut m);
        assert_eq!(m.reg(0), 1, "{}: first iteration", tier.name());
        assert_eq!(m.reg(1), 1, "{}: patched iteration", tier.name());
    }

    // The store must also have cost an invalidation, not a full flush.
    let mut m = kernel_machine(&bytes, ExecTier::Cache);
    run_to_halt(&mut m);
    assert!(m.decode_cache_stats().invalidations > 0);
}

#[test]
fn tbia_and_mapen_flush_the_cache() {
    let code = compute_loop(50);
    let mut m = kernel_machine(&code, ExecTier::Cache);
    run_to_halt(&mut m);
    let before = m.decode_cache_stats().invalidations;
    m.write_ipr(vax_arch::Ipr::Tbia, 0).unwrap();
    m.write_ipr(vax_arch::Ipr::Mapen, 0).unwrap();
    assert_eq!(m.decode_cache_stats().invalidations, before + 2);
}

#[test]
fn disabling_the_cache_mid_run_is_safe() {
    let code = compute_loop(100);
    let mut m = kernel_machine(&code, ExecTier::Cache);
    for _ in 0..20 {
        assert_eq!(m.step(), StepEvent::Ok);
    }
    m.set_exec_tier(ExecTier::Interp);
    run_to_halt(&mut m);

    let mut reference = kernel_machine(&code, ExecTier::Interp);
    run_to_halt(&mut reference);
    assert_eq!(m.reg(3), reference.reg(3));
    assert_eq!(m.cycles(), reference.cycles());
}
