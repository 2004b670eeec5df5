//! Three-way differential fuzzing of the execution tiers: arbitrary
//! code — valid or garbage — must produce bit-identical architectural
//! state, cycle counts, and counters whether it runs through the
//! bytewise interpreter, the decode cache, or the translated-superblock
//! tier. The interpreter is the oracle; the other tiers must be
//! observationally invisible.

use proptest::prelude::*;
use vax_arch::{MachineVariant, Protection, Psl, Pte};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent};
use vax_vmm::{Monitor, MonitorConfig, VmConfig, VmStats};

/// Everything a bare machine can reveal after a bounded run.
#[derive(Debug, PartialEq)]
struct BareOutcome {
    regs: [u32; 16],
    psl_raw: u32,
    cycles: u64,
    counters: CpuCounters,
    halted: bool,
}

/// Runs `code` at 0x1000 on a bare machine for at most `max_steps`
/// steps under `tier`. Garbage code faults through a zeroed SCB and
/// usually halts; either way the observable end state must be
/// tier-independent.
fn run_bare(code: &[u8], tier: ExecTier, max_steps: u32) -> BareOutcome {
    let mut m = Machine::new(MachineVariant::Modified, 256 * 1024);
    m.set_exec_tier(tier);
    m.mem_mut().write_slice(0x1000, code).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    run_to_end(&mut m, max_steps)
}

/// Steps `m` until it stops or `max_steps` run out, and captures what
/// it reveals.
fn run_to_end(m: &mut Machine, max_steps: u32) -> BareOutcome {
    for _ in 0..max_steps {
        match m.step() {
            StepEvent::Ok => {}
            _ => break,
        }
    }
    BareOutcome {
        regs: std::array::from_fn(|i| m.reg(i)),
        psl_raw: m.psl().raw(),
        cycles: m.cycles(),
        counters: m.counters(),
        halted: m.halted(),
    }
}

const S_BASE: u32 = 0x8000_0000;
const P0_TABLE_PA: u32 = 0x2_0000;
const SPT_PA: u32 = 0x3_0000;

/// Runs `code` at VA 0x1000 under an identity P0/S map with memory
/// management enabled, so every fetch and operand reference goes through
/// address translation. Garbage code probes TLB misses, protection and
/// length faults, and the translated tier's fast-path bail protocol with
/// inputs no hand-written test would pick.
fn run_mapped(code: &[u8], tier: ExecTier, max_steps: u32) -> BareOutcome {
    let mut m = mapped_machine(code, tier);
    run_to_end(&mut m, max_steps)
}

/// A machine with `code` at VA 0x1000 under the identity P0/S map of
/// [`run_mapped`], ready to step.
fn mapped_machine(code: &[u8], tier: ExecTier) -> Machine {
    let mut m = Machine::new(MachineVariant::Modified, 256 * 1024);
    m.set_exec_tier(tier);
    m.mem_mut().write_slice(0x1000, code).unwrap();
    for vpn in 0..512u32 {
        let pte = Pte::build(vpn, Protection::Kw, true, true);
        m.mem_mut().write_u32(SPT_PA + 4 * vpn, pte.raw()).unwrap();
    }
    for vpn in 0..256u32 {
        let pte = Pte::build(vpn, Protection::Kw, true, true);
        m.mem_mut()
            .write_u32(P0_TABLE_PA + 4 * vpn, pte.raw())
            .unwrap();
    }
    let mmu = m.mmu_mut();
    mmu.set_sbr(SPT_PA);
    mmu.set_slr(512);
    mmu.set_p0br(S_BASE + P0_TABLE_PA);
    mmu.set_p0lr(256);
    mmu.set_mapen(true);
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    m
}

/// Runs `code` as a monitor guest (the monitor_fuzz corpus shape) under
/// `tier`, returning the guest-visible end state.
fn run_guest(code: &[u8], scb_junk: u32, tier: ExecTier) -> ([u32; 16], VmStats, Vec<u8>) {
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.set_exec_tier(tier);
    let vm = mon.create_vm("fuzz", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, code).unwrap();
    for off in (0..0x140u32).step_by(4) {
        mon.vm_write_phys(vm, 0x200 + off, &scb_junk.to_le_bytes())
            .unwrap();
    }
    mon.boot_vm(vm, 0x1000);
    mon.run(2_000_000);
    let out = mon.vm_console_output(vm);
    (mon.vm(vm).regs, mon.vm_stats(vm), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Raw random bytes on a bare machine: every tier must observe the
    /// same faults, retire the same instructions, and end in the same
    /// state. Random code occasionally forms real loops, so this also
    /// probes the hot path with inputs no hand-written test would pick.
    #[test]
    fn random_bytes_are_tier_invariant_bare(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let oracle = run_bare(&code, ExecTier::Interp, 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_bare(&code, tier, 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// Raw random bytes on a *mapped* machine: the translated tier's
    /// inline TLB fast path, pre-mutation bails, and TLB hit replay must
    /// leave architectural state, cycles, and MMU counters bit-identical
    /// with the interpreter walking the same page tables.
    #[test]
    fn random_bytes_are_tier_invariant_mapped(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let oracle = run_mapped(&code, ExecTier::Interp, 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_mapped(&code, tier, 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// The monitor_fuzz corpus run under all three tiers: no panics,
    /// and identical guest-visible outcomes.
    #[test]
    fn monitor_corpus_is_tier_invariant(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        scb_junk in any::<u32>(),
    ) {
        let oracle = run_guest(&code, scb_junk, ExecTier::Interp);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_guest(&code, scb_junk, tier);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }
}

/// A digest of every byte of physical memory.
fn mem_digest(m: &Machine) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in 0..m.mem().pages() {
        m.mem().page(p).hash(&mut h);
    }
    h.finish()
}

/// First P0 page of the MOVC3 data region, and its length in pages
/// (0x2000..0x7E00, below the stack page).
const DATA_FIRST: u32 = 0x10;
const DATA_PAGES: u32 = 0x2F;
/// P0 pages `ALIAS_FIRST + k` map the data page `DATA_FIRST + k`, in a
/// different TLB slot: physical overlap without virtual overlap.
const ALIAS_FIRST: u32 = 0x80;
/// A P0 page mapped onto the first page of I/O space.
const IO_VPN: u32 = 0xF0;
/// The subroutine called before and after the MOVC3, so its page is a
/// marked code page on the cached tiers when the copy runs.
const SUB_VA: u32 = 0x1600;
/// The modify-fault handler: sets `PTE<M>` on the page the case cleared
/// and restarts the MOVC3.
const HANDLER_PA: u32 = 0xE00;

/// One generated MOVC3: a length, a source in the data region, a
/// destination shaped relative to it, and a page whose `PTE<M>` is
/// cleared.
#[derive(Debug, Clone, Copy)]
struct Movc3Case {
    len: u32,
    src_page: u32,
    src_off: u32,
    /// 0: any data page; 1: overlap either way; 2: the source's TLB
    /// slot; 3: physical alias (mapped) or the end of memory (guest);
    /// 4: the code page; 5: I/O space.
    shape: u32,
    /// The shape's parameter: a page or offset, or a delta around 600.
    arg: u32,
    /// Exchange source and destination once placed.
    swap: bool,
    /// 0: no page; 1: the destination's first page; 2: its last page.
    clear_m: u32,
}

impl Movc3Case {
    /// Source and destination VAs, `io_base` being where the shape-5
    /// operand lands and `far` the shape-3 one.
    fn place(&self, slot_twin: u32, far: u32, io_base: u32) -> (u32, u32) {
        let src = (DATA_FIRST + self.src_page) * 512 + self.src_off;
        let dst = match self.shape {
            0 => (DATA_FIRST + self.arg % DATA_PAGES) * 512 + self.arg * 37 % 512,
            1 => src.wrapping_add(self.arg).wrapping_sub(600),
            2 => slot_twin + src,
            3 => far.wrapping_add(self.arg).wrapping_sub(600),
            4 => SUB_VA - 256 + self.arg % 512,
            _ => io_base + self.arg % 512,
        };
        if self.swap {
            (dst, src)
        } else {
            (src, dst)
        }
    }

    fn text(&self, src: u32, dst: u32) -> String {
        format!(
            "jsb @#{SUB_VA:#x}\n movc3 #{}, @#{src:#x}, @#{dst:#x}\n jsb @#{SUB_VA:#x}\n halt",
            self.len
        )
    }
}

/// Fills the data region and its TLB-slot twins with a byte pattern.
fn fill_data(mem: &mut impl FnMut(u32, &[u8])) {
    let pattern: Vec<u8> = (0..DATA_PAGES * 512)
        .map(|i| ((i * 29) ^ (i >> 9)) as u8)
        .collect();
    mem(DATA_FIRST * 512, &pattern);
    mem((DATA_FIRST + 256) * 512, &pattern);
}

/// Runs `case` on a mapped bare machine (the [`run_mapped`] layout plus
/// aliases, an I/O page, a code page and a modify-fault handler),
/// returning the end state and a digest of memory.
fn run_movc3_mapped(case: &Movc3Case, tier: ExecTier) -> (BareOutcome, u64) {
    let (src, dst) = case.place(
        S_BASE + 256 * 512,
        ALIAS_FIRST * 512 + (case.src_page * 512 + case.src_off),
        IO_VPN * 512,
    );
    let code = vax_asm::assemble_text(&case.text(src, dst), 0x1000).unwrap();
    let mut m = mapped_machine(&code.bytes, tier);
    let sub = vax_asm::assemble_text("incl r6\n rsb", SUB_VA).unwrap();
    m.mem_mut().write_slice(SUB_VA, &sub.bytes).unwrap();
    fill_data(&mut |pa, bytes| m.mem_mut().write_slice(pa, bytes).unwrap());
    let pte = |m: &mut Machine, pte_pa: u32, pfn: u32| {
        let pte = Pte::build(pfn, Protection::Kw, true, true);
        m.mem_mut().write_u32(pte_pa, pte.raw()).unwrap();
    };
    for k in 0..DATA_PAGES {
        pte(&mut m, P0_TABLE_PA + 4 * (ALIAS_FIRST + k), DATA_FIRST + k);
    }
    pte(&mut m, P0_TABLE_PA + 4 * IO_VPN, vax_cpu::IO_BASE_PA >> 9);
    // The page whose PTE<M> is cleared, when its PTE exists.
    let target = match case.clear_m {
        1 => Some(dst),
        2 => Some(dst.wrapping_add(case.len.max(1) - 1)),
        _ => None,
    };
    let pte_pa = target.and_then(|va| {
        let vpn = (va & !S_BASE) >> 9;
        match va & S_BASE {
            0 if vpn < 256 => Some(P0_TABLE_PA + 4 * vpn),
            S_BASE if vpn < 512 => Some(SPT_PA + 4 * vpn),
            _ => None,
        }
    });
    // The handler pops the fault VA, sets M and restarts the MOVC3,
    // which then refreshes the stale TLB entry from the PTE.
    let handler = format!(
        "addl2 #4, sp\n bisl2 #{:#x}, @#{:#x}\n rei",
        Pte::M,
        S_BASE + pte_pa.unwrap_or(HANDLER_PA + 0x100)
    );
    let handler = vax_asm::assemble_text(&handler, S_BASE + HANDLER_PA).unwrap();
    m.mem_mut().write_slice(HANDLER_PA, &handler.bytes).unwrap();
    m.mem_mut().write_u32(0x54, S_BASE + HANDLER_PA).unwrap();
    if let Some(pa) = pte_pa {
        let raw = m.mem().read_u32(pa).unwrap();
        m.mem_mut().write_u32(pa, raw & !Pte::M).unwrap();
    }
    let outcome = run_to_end(&mut m, 10_000);
    (outcome, mem_digest(&m))
}

/// Runs `case` as a monitor guest with translation off, so every guest
/// page starts with a clear shadow `PTE<M>` and the first write to it
/// exits to the monitor.
fn run_movc3_guest(case: &Movc3Case, tier: ExecTier) -> impl PartialEq + std::fmt::Debug {
    let (src, dst) = case.place(256 * 512, 512 * 512 - 256, vax_cpu::IO_BASE_PA);
    let text = format!("movl #0x8000, sp\n {}", case.text(src, dst));
    let code = vax_asm::assemble_text(&text, 0x1000).unwrap();
    let sub = vax_asm::assemble_text("incl r6\n rsb", SUB_VA).unwrap();
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.set_exec_tier(tier);
    let vm = mon.create_vm("movc3", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    mon.vm_write_phys(vm, SUB_VA, &sub.bytes).unwrap();
    fill_data(&mut |gpa, bytes| mon.vm_write_phys(vm, gpa, bytes).unwrap());
    mon.boot_vm(vm, 0x1000);
    mon.run(2_000_000);
    let m = mon.machine();
    let machine = (m.cycles(), m.counters(), mem_digest(m));
    (
        mon.vm(vm).regs,
        mon.vm_stats(vm),
        mon.vm_console_output(vm),
        machine,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MOVC3 strings of 0–1100 bytes crossing pages, overlapping either
    /// way (virtually, or only physically through an alias), sharing a
    /// TLB slot, hitting a clear `PTE<M>`, a marked code page or I/O
    /// space, on a mapped bare machine and as a guest under the
    /// monitor: the cached tiers' page-run copy must leave registers,
    /// memory, cycles and counters (TLB hits and misses included)
    /// exactly as the interpreter's byte loop does.
    #[test]
    fn movc3_is_tier_invariant(
        len in 0u32..1101,
        src_page in 0u32..DATA_PAGES,
        src_off in 0u32..512,
        shape in 0u32..6,
        arg in 0u32..1200,
        flags in 0u32..6,
    ) {
        let case = Movc3Case {
            len,
            src_page,
            src_off,
            shape,
            arg,
            swap: flags & 1 != 0,
            clear_m: flags / 2,
        };
        let oracle = run_movc3_mapped(&case, ExecTier::Interp);
        let guest_oracle = run_movc3_guest(&case, ExecTier::Interp);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_movc3_mapped(&case, tier);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter, mapped", tier);
            let got = run_movc3_guest(&case, tier);
            prop_assert_eq!(&got, &guest_oracle, "{:?} diverged from interpreter, guest", tier);
        }
    }
}

/// MOVC3 moves as if through a buffer on every tier: a destination
/// just above or below the source, page-crossing, ends up holding the
/// original bytes (VAX SRM: overlap does not affect the result).
#[test]
fn overlapping_movc3_moves_the_original_bytes_on_every_tier() {
    for (src, dst) in [
        (0x2000, 0x2001),
        (0x2001, 0x2000),
        (0x2100, 0x2300),
        (0x2300, 0x2100),
    ] {
        let len = 1000u32;
        let text = format!("movc3 #{len}, @#{src:#x}, @#{dst:#x}\n halt");
        let code = vax_asm::assemble_text(&text, 0x1000).unwrap();
        let mut want = Vec::new();
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            let mut m = mapped_machine(&code.bytes, tier);
            fill_data(&mut |pa, bytes| m.mem_mut().write_slice(pa, bytes).unwrap());
            let mut before = m.mem().read_slice(0x2000, 0x800).unwrap().into_owned();
            let outcome = run_to_end(&mut m, 10);
            assert!(outcome.halted, "{tier:?}");
            let (s, d) = ((src - 0x2000) as usize, (dst - 0x2000) as usize);
            before.copy_within(s..s + len as usize, d);
            assert_eq!(
                &*m.mem().read_slice(0x2000, 0x800).unwrap(),
                &before[..],
                "{tier:?}"
            );
            want.push(outcome);
        }
        assert!(
            want.windows(2).all(|w| w[0] == w[1]),
            "{src:#x} -> {dst:#x}"
        );
    }
}

/// Self-modifying code overwriting a *currently translated* superblock:
/// the loop body runs hot (so it is translated), then patches its own
/// ADDL2 into SUBL2 mid-loop. Every tier must observe the new bytes on
/// the next execution — the SMC page tracking drains into both the
/// decode cache and the translation cache.
#[test]
fn smc_overwriting_translated_superblock_is_tier_invariant() {
    // r3 accumulates; after 40 of 80 iterations, patch the opcode byte
    // of `addl2 #3, r3` (0xC0) to `subl2` (0xC2) via a store through r6.
    // The patch target address is discovered below and poked into the
    // immediate slot, keeping the program position-independent of
    // assembler encoding choices.
    let src = "
            movl #80, r2
            clrl r3
        top:
            addl2 #3, r3
            cmpl r2, #40
            bneq skip
            movb #0xC2, @#0x0
        skip:
            sobgtr r2, top
            halt
    ";
    let program = vax_asm::assemble_text(src, 0x1000).unwrap();
    let mut bytes = program.bytes.clone();
    // Locate `addl2 #3, r3` = C0 03 53 — the byte to patch — and the
    //`movb #C2, @#0` = 90 8F C2 9F 00 00 00 00 absolute slot to aim it.
    let addl_off = bytes
        .windows(3)
        .position(|w| w == [0xC0, 0x03, 0x53])
        .expect("addl2 #3, r3 in program");
    let movb_off = bytes
        .windows(8)
        .position(|w| w == [0x90, 0x8F, 0xC2, 0x9F, 0x00, 0x00, 0x00, 0x00])
        .expect("movb #C2, @#0 in program");
    let target = (0x1000 + addl_off as u32).to_le_bytes();
    bytes[movb_off + 4..movb_off + 8].copy_from_slice(&target);

    let oracle = run_bare(&bytes, ExecTier::Interp, 100_000);
    assert!(oracle.halted, "SMC program must halt");
    // 40 iterations of +3, then 40 of -3 (the patch lands before
    // iteration 40's decrement is re-fetched... the exact split is
    // whatever the interpreter says — the tiers must simply agree).
    for tier in [ExecTier::Cache, ExecTier::Trans] {
        let got = run_bare(&bytes, tier, 100_000);
        assert_eq!(got, oracle, "{tier:?} diverged on self-modifying code");
    }
    // The patch genuinely flipped the arithmetic: a pure-ADD run of the
    // same loop would end at 240.
    assert_ne!(oracle.regs[3], 240, "patch must have taken effect");
}
