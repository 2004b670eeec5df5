//! Instruction-semantics tests: condition codes, arithmetic edge cases,
//! branches, calls, and string instructions, each against hand-computed
//! expectations.

use vax_arch::{MachineVariant, Psl, ScbVector};
use vax_asm::assemble_text;
use vax_cpu::{HaltReason, Machine, StepEvent};

fn run(src: &str) -> Machine {
    run_with(src, |_| {})
}

fn run_with(src: &str, setup: impl FnOnce(&mut Machine)) -> Machine {
    let p = assemble_text(src, 0x1000).expect("assembles");
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    setup(&mut m);
    for _ in 0..500_000 {
        match m.step() {
            StepEvent::Ok => {}
            StepEvent::Halted(HaltReason::HaltInstruction) => return m,
            other => panic!("unexpected {other:?} at pc={:#x}", m.pc()),
        }
    }
    panic!("did not halt");
}

fn cc(m: &Machine) -> (bool, bool, bool, bool) {
    let p = m.psl();
    (
        p.flag(Psl::N),
        p.flag(Psl::Z),
        p.flag(Psl::V),
        p.flag(Psl::C),
    )
}

#[test]
fn addl_carry_and_overflow() {
    // 0x7FFFFFFF + 1: signed overflow, no carry.
    let m = run("movl #0x7FFFFFFF, r0\n addl2 #1, r0\n halt");
    assert_eq!(m.reg(0), 0x8000_0000);
    let (n, z, v, c) = cc(&m);
    assert!(n && !z && v && !c);

    // 0xFFFFFFFF + 1: carry out, result zero, no signed overflow.
    let m = run("movl #0xFFFFFFFF, r0\n addl2 #1, r0\n halt");
    assert_eq!(m.reg(0), 0);
    let (n, z, v, c) = cc(&m);
    assert!(!n && z && !v && c);
}

#[test]
fn subl_borrow_semantics() {
    // SUBL2 sub,dif: dif = dif - sub. 3 - 5 borrows.
    let m = run("movl #3, r0\n subl2 #5, r0\n halt");
    assert_eq!(m.reg(0) as i32, -2);
    let (n, _, v, c) = cc(&m);
    assert!(n && !v && c, "borrow sets C");

    // 5 - 3: no borrow.
    let m = run("movl #5, r0\n subl2 #3, r0\n halt");
    assert_eq!(m.reg(0), 2);
    let (_, _, _, c) = cc(&m);
    assert!(!c);
}

#[test]
fn subl3_operand_order() {
    // SUBL3 sub, min, dif: dif = min - sub.
    let m = run("movl #10, r1\n subl3 #4, r1, r2\n halt");
    assert_eq!(m.reg(2), 6);
}

#[test]
fn divl_by_zero_traps() {
    let p = assemble_text("divl2 #0, r0\n halt", 0x1000).unwrap();
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    // Arithmetic vector -> a halt handler at 0x2000.
    m.set_scbb(0x200);
    m.mem_mut()
        .write_u32(0x200 + ScbVector::Arithmetic.offset(), 0x2000)
        .unwrap();
    m.mem_mut().write_u8(0x2000, 0x00).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(0, 77);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    m.step(); // DIVL2 -> arithmetic trap
    assert_eq!(m.pc(), 0x2000, "trapped through the arithmetic vector");
    assert_eq!(m.reg(0), 77, "destination unchanged on divide by zero");
    // Frame parameter is the type code (2 = divide by zero).
    let sp = m.reg(14);
    assert_eq!(m.mem().read_u32(sp).unwrap(), 2);
}

#[test]
fn divl_min_by_minus_one_overflows() {
    let m = run("movl #0x80000000, r0\n divl2 #-1, r0\n halt");
    assert_eq!(m.reg(0), 0x8000_0000, "result is the dividend");
    let (_, _, v, _) = cc(&m);
    assert!(v, "V set on divide overflow");
}

#[test]
fn mull_wide_overflow_detection() {
    let m = run("movl #0x10000, r0\n mull2 #0x10000, r0\n halt");
    assert_eq!(m.reg(0), 0);
    let (_, _, v, _) = cc(&m);
    assert!(v, "product exceeded 32 bits");

    let m = run("movl #1000, r0\n mull2 #1000, r0\n halt");
    assert_eq!(m.reg(0), 1_000_000);
    let (_, _, v, _) = cc(&m);
    assert!(!v);
}

#[test]
fn cmpl_signed_and_unsigned_flags() {
    // CMPL -1, 1: N set (signed less), C set (unsigned greater means
    // first < second unsigned is false... C = src1 <u src2).
    let m = run("cmpl #-1, #1\n halt");
    let (n, z, _, c) = cc(&m);
    assert!(n, "-1 < 1 signed");
    assert!(!z);
    assert!(!c, "0xFFFFFFFF > 1 unsigned");

    let m = run("cmpl #1, #-1\n halt");
    let (n, _, _, c) = cc(&m);
    assert!(!n);
    assert!(c, "1 < 0xFFFFFFFF unsigned");
}

#[test]
fn signed_and_unsigned_branches() {
    let m = run("
        clrl r5
        cmpl #-1, #1
        blss s_ok               ; signed less: taken
        halt
    s_ok:
        bisl2 #1, r5
        cmpl #-1, #1
        blssu u_no              ; unsigned: 0xFFFFFFFF not < 1
        bisl2 #2, r5
        halt
    u_no:
        halt
        ");
    assert_eq!(m.reg(5), 3);
}

#[test]
fn blbs_blbc() {
    let m = run("
        clrl r5
        movl #5, r0
        blbs r0, odd
        halt
    odd:
        incl r5
        movl #4, r0
        blbc r0, even
        halt
    even:
        incl r5
        halt
        ");
    assert_eq!(m.reg(5), 2);
}

#[test]
fn aoblss_and_sobgeq() {
    // AOBLSS: count 0..5.
    let m = run("
        clrl r0
        clrl r1
    top:
        incl r1
        aoblss #5, r0, top
        halt
        ");
    assert_eq!(m.reg(0), 5);
    assert_eq!(m.reg(1), 5);

    // SOBGEQ runs for index values down to 0 inclusive.
    let m = run("
        movl #3, r0
        clrl r1
    top:
        incl r1
        sobgeq r0, top
        halt
        ");
    assert_eq!(m.reg(1), 4, "3,2,1,0");
}

#[test]
fn ashl_directions() {
    let m = run("movl #1, r0\n ashl #4, r0, r1\n halt");
    assert_eq!(m.reg(1), 16);
    let m = run("movl #-32, r0\n ashl #-3, r0, r1\n halt");
    assert_eq!(m.reg(1) as i32, -4, "arithmetic right shift");
}

#[test]
fn byte_and_word_ops_preserve_high_register_bits() {
    let m = run_with("movb #0x7F, r0\n movw #0x1234, r1\n halt", |m| {
        m.set_reg(0, 0xAABB_CC00);
        m.set_reg(1, 0xAABB_0000);
    });
    assert_eq!(m.reg(0), 0xAABB_CC7F, "MOVB merges low byte");
    assert_eq!(m.reg(1), 0xAABB_1234, "MOVW merges low word");
}

#[test]
fn tstb_sign_uses_byte_width() {
    let m = run_with("tstb r0\n halt", |m| m.set_reg(0, 0x80));
    let (n, z, _, _) = cc(&m);
    assert!(n, "0x80 is negative as a byte");
    assert!(!z);
}

#[test]
fn incb_decb_wrap_at_byte_width() {
    let m = run_with("incb r0\n halt", |m| m.set_reg(0, 0x11FF));
    assert_eq!(m.reg(0), 0x1100, "byte wraps, high bits preserved");
    let (_, z, _, c) = cc(&m);
    assert!(z && c);
}

#[test]
fn jsb_rsb_nest() {
    let m = run("
            jsb sub1
            bisl2 #8, r5
            halt
        sub1:
            bisl2 #1, r5
            jsb sub2
            bisl2 #4, r5
            rsb
        sub2:
            bisl2 #2, r5
            rsb
        ");
    assert_eq!(m.reg(5), 15, "all four phases in order");
}

#[test]
fn calls_preserves_masked_registers_and_pops_args() {
    let m = run("
            movl #0x11, r2
            movl #0x22, r3
            pushl #30
            pushl #12
            calls #2, sum
            halt
        sum:
            .word 0x000C        ; save R2, R3
            movl 4(ap), r2      ; 12
            movl 8(ap), r3      ; 30
            addl3 r2, r3, r0
            ret
        ");
    assert_eq!(m.reg(0), 42);
    assert_eq!(m.reg(2), 0x11, "R2 restored");
    assert_eq!(m.reg(3), 0x22, "R3 restored");
    assert_eq!(m.reg(14), 0x8000, "arguments popped");
}

#[test]
fn movc3_handles_forward_overlap() {
    let m = run("
        movl #0x11223344, @#0x3000
        movl #0x55667788, @#0x3004
        movc3 #8, @#0x3000, @#0x3002
        halt
        ");
    // Overlap does not affect the result (VAX SRM): the destination
    // holds the original eight bytes, not the forward loop's smear of
    // the first two (0x3344_3344).
    assert_eq!(m.mem().read_u16(0x3002).unwrap(), 0x3344);
    assert_eq!(m.mem().read_u32(0x3004).unwrap(), 0x7788_1122);
    assert_eq!(m.reg(0), 0);
    assert_eq!(m.reg(1), 0x3008);
    assert_eq!(m.reg(3), 0x300A);
    let (_, z, _, _) = cc(&m);
    assert!(z);
}

#[test]
fn movc3_onto_a_code_page_posts_one_notice_per_byte() {
    // Decoding this code marks page 8 as a code page. The page-run copy
    // stays off marked pages, so each of the 100 bytes stored there
    // still posts its self-modifying-code notice, as the byte loop does.
    let p = assemble_text("movc3 #100, @#0x3000, @#0x1100\n halt", 0x1000).expect("assembles");
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(0x1000);
    assert!(matches!(m.step(), StepEvent::Ok));
    assert_eq!(m.mem_mut().take_dirty_code_pages(), vec![8; 100]);
}

#[test]
fn mnegl_and_mcoml() {
    let m = run("movl #5, r0\n mnegl r0, r1\n mcoml r0, r2\n halt");
    assert_eq!(m.reg(1) as i32, -5);
    assert_eq!(m.reg(2), !5u32);
}

#[test]
fn bicl_clears_mask_bits() {
    let m = run("movl #0xFF, r0\n bicl2 #0x0F, r0\n halt");
    assert_eq!(m.reg(0), 0xF0);
}

#[test]
fn autoincrement_through_memory_scan() {
    let m = run("
        movl #10, @#0x3000
        movl #20, @#0x3004
        movl #30, @#0x3008
        movl #0x3000, r1
        clrl r2
        movl #3, r3
    top:
        addl2 (r1)+, r2
        sobgtr r3, top
        halt
        ");
    assert_eq!(m.reg(2), 60);
    assert_eq!(m.reg(1), 0x300C);
}

#[test]
fn integer_overflow_trap_when_iv_enabled() {
    // With PSL<IV> set, a signed overflow takes the arithmetic trap
    // *after* committing the result.
    let p = assemble_text("addl2 #1, r0\n halt", 0x1000).unwrap();
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    m.set_scbb(0x200);
    m.mem_mut()
        .write_u32(0x200 + ScbVector::Arithmetic.offset(), 0x2000)
        .unwrap();
    m.mem_mut().write_u8(0x2000, 0x00).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    psl.set_flag(Psl::IV, true);
    m.set_psl(psl);
    m.set_reg(0, 0x7FFF_FFFF);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    m.step();
    assert_eq!(m.pc(), 0x2000, "arithmetic trap taken");
    assert_eq!(m.reg(0), 0x8000_0000, "result committed before the trap");
    let sp = m.reg(14);
    assert_eq!(m.mem().read_u32(sp).unwrap(), 1, "integer overflow code");
}
