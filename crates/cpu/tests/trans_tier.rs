//! Integration tests for the translated-superblock execution tier: the
//! three-way bit-identity contract on a hot compute loop, self-modifying
//! code that overwrites a currently translated superblock, cost-model
//! retuning, and the tier-selection API itself — plus the mapped-mode
//! contract: blocks keyed by (entry PA, entry VA, generation) running
//! through the inline TLB fast path with direct chaining, and every
//! invalidation edge (TBIS on a linked successor's page, MAPEN/TBIA
//! toggles, self-modifying stores landing mid-chain) severing links and
//! re-converging bit-identically with the interpreter.

use vax_arch::{CostModel, MachineVariant, Protection, Psl, Pte};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent};

/// S-space base virtual address.
const S_BASE: u32 = 0x8000_0000;
/// Physical home of the P0 (process) page table.
const P0_TABLE_PA: u32 = 0x2_0000;
/// Physical home of the system page table.
const SPT_PA: u32 = 0x3_0000;

/// Identity-maps P0 space (VA x → PA x, 256 pages) and S space
/// (VA `S_BASE + x` → PA x, 512 pages), then turns translation on. The
/// same code then runs at the same PC mapped or unmapped — which is what
/// lets a guest toggle MAPEN mid-run — while P0 references still walk
/// the real two-level path (P0 PTE fetches resolve through S space,
/// since P0BR holds a system virtual address).
fn enable_identity_maps(m: &mut Machine) {
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
}

fn mapped_machine_with(code: &[u8], tier: ExecTier) -> Machine {
    let mut m = machine_with(code, tier);
    enable_identity_maps(&mut m);
    m
}

/// Full observable outcome of a bare kernel-mode run.
#[derive(Debug, PartialEq)]
struct Outcome {
    regs: [u32; 16],
    psl_raw: u32,
    cycles: u64,
    counters: CpuCounters,
}

fn machine_with(code: &[u8], tier: ExecTier) -> Machine {
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

fn run_to_halt(m: &mut Machine) -> Outcome {
    for _ in 0..1_000_000 {
        match m.step() {
            StepEvent::Ok => {}
            StepEvent::Halted(_) => break,
            other => panic!("unexpected {other:?} at pc={:#x}", m.pc()),
        }
    }
    assert!(m.halted(), "program must halt");
    Outcome {
        regs: std::array::from_fn(|i| m.reg(i)),
        psl_raw: m.psl().raw(),
        cycles: m.cycles(),
        counters: m.counters(),
    }
}

fn compute_loop(iters: u32) -> Vec<u8> {
    vax_asm::assemble_text(
        &format!(
            "
                movl #{iters}, r2
                clrl r3
            top:
                addl3 #0x01010101, r3, r4
                bicl3 #0x0F0F0F0F, r4, r5
                xorl3 #0x55AA55AA, r5, r3
                addl2 #0x12345678, r3
                sobgtr r2, top
                halt
            "
        ),
        0x1000,
    )
    .unwrap()
    .bytes
}

#[test]
fn compute_loop_is_bit_identical_across_tiers_and_superblocks_run() {
    let code = compute_loop(500);
    let mut interp = machine_with(&code, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);
    assert_eq!(interp.trans_stats().blocks_executed, 0);

    let mut cached = machine_with(&code, ExecTier::Cache);
    assert_eq!(run_to_halt(&mut cached), oracle);
    assert_eq!(cached.trans_stats().blocks_executed, 0);

    let mut trans = machine_with(&code, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(ts.blocks_translated > 0, "loop must be translated");
    assert!(
        ts.blocks_executed > 400,
        "most iterations must run translated (got {})",
        ts.blocks_executed
    );
    assert!(ts.uops_executed >= 5 * ts.blocks_executed);
    // The superblock ends at its branch: 5 µops per full block.
    assert!(ts.len_hist[5] > 0, "expected 5-µop superblocks");
}

#[test]
fn smc_overwrite_of_translated_block_invalidates_and_stays_identical() {
    // 60-iteration loop; at iteration 30 it patches its own ADDL2 #3
    // (opcode 0xC0) into SUBL2 (0xC2). The block is long since hot and
    // translated when the store lands on its page.
    let src = "
            movl #60, r2
            clrl r3
        top:
            addl2 #3, r3
            cmpl r2, #30
            bneq skip
            movb #0xC2, @#0x0
        skip:
            sobgtr r2, top
            halt
    ";
    let program = vax_asm::assemble_text(src, 0x1000).unwrap();
    let mut bytes = program.bytes.clone();
    let addl_off = bytes
        .windows(3)
        .position(|w| w == [0xC0, 0x03, 0x53])
        .expect("addl2 #3, r3");
    let movb_off = bytes
        .windows(8)
        .position(|w| w == [0x90, 0x8F, 0xC2, 0x9F, 0x00, 0x00, 0x00, 0x00])
        .expect("movb #C2, @#0");
    let target = (0x1000 + addl_off as u32).to_le_bytes();
    bytes[movb_off + 4..movb_off + 8].copy_from_slice(&target);

    let mut interp = machine_with(&bytes, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);
    // The arithmetic genuinely flipped sign mid-run.
    assert_ne!(oracle.regs[3], 3 * 60);

    let mut trans = machine_with(&bytes, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(
        ts.blocks_translated >= 2,
        "block must be retranslated after the overwrite (translated {})",
        ts.blocks_translated
    );
    assert!(ts.blocks_executed > 0);
    assert!(
        ts.invalidations > 0,
        "the SMC store must invalidate the translation cache"
    );
}

#[test]
fn set_costs_drops_translations_and_stays_identical() {
    let code = compute_loop(200);
    let slow = CostModel {
        base_instruction: 7,
        memory_reference: 3,
        ..CostModel::default()
    };

    let mut interp = machine_with(&code, ExecTier::Interp);
    interp.set_costs(slow);
    let oracle = run_to_halt(&mut interp);

    let mut trans = machine_with(&code, ExecTier::Trans);
    trans.set_costs(slow);
    let got = run_to_halt(&mut trans);
    assert_eq!(
        got, oracle,
        "folded cycle charges must track the cost model"
    );
    assert!(trans.trans_stats().blocks_executed > 0);
}

#[test]
fn tier_api_round_trips() {
    let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
    assert_eq!(m.exec_tier(), ExecTier::Cache);
    for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
        m.set_exec_tier(tier);
        assert_eq!(m.exec_tier(), tier);
    }
    // Name round-trip for the CLI flag.
    for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
        assert_eq!(ExecTier::from_name(tier.name()), Some(tier));
    }
    assert_eq!(ExecTier::from_name("warp"), None);
}

#[test]
fn mapped_loop_is_bit_identical_and_chains_across_pages() {
    // A hot loop split across two code pages (the `.align 512` forces the
    // tail onto the next page) with a mapped data load, so every
    // iteration exercises the inline TLB fast path for both instruction
    // entry probes and operand references, plus cross-page chain follows.
    let src = "
            movl #400, r2
            clrl r3
        top:
            addl3 #0x01010101, r3, r4
            xorl2 r4, r3
            movl @#0x9000, r5
            brw far
            .align 512
        far:
            addl2 #3, r3
            addl2 r5, r3
            sobgtr r2, back
            halt
        back:
            brw top
    ";
    let bytes = vax_asm::assemble_text(src, 0x1000).unwrap().bytes;
    assert!(bytes.len() > 0x200, "loop must span two pages");

    let mut interp = mapped_machine_with(&bytes, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);
    assert!(
        interp.mmu().tlb().hits() > 0,
        "the mapped oracle must actually translate"
    );

    let mut cached = mapped_machine_with(&bytes, ExecTier::Cache);
    assert_eq!(run_to_halt(&mut cached), oracle);

    let mut trans = mapped_machine_with(&bytes, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(
        ts.blocks_executed > 300,
        "most iterations must run translated (got {})",
        ts.blocks_executed
    );
    assert!(
        ts.chain_hits > 300,
        "the page-crossing loop must chain directly (got {})",
        ts.chain_hits
    );
    assert_eq!(ts.side_exit_tlb_miss, 0, "identity map stays resident");
    assert_eq!(ts.side_exit_prot, 0);
}

#[test]
fn tbis_on_linked_successor_page_severs_chain_and_reconverges() {
    // The loop head lives on page 8, the tail on page 9, and the two
    // chain together once hot. At iteration 200 the guest issues
    // TBIS 0x1200, killing the TLB entry and translations for the tail
    // page while the head block (and its successor link) survive. The
    // next follow from the head must discover the stale edge, sever it,
    // and fall back to the interpreter until the tail re-heats.
    let src = "
            movl #400, r2
            clrl r3
        top:
            addl3 #7, r3, r4
            xorl2 r4, r3
            brw far
            .align 512
        far:
            addl2 #3, r3
            cmpl r2, #200
            bneq skip
            mtpr #0x1200, #58
        skip:
            sobgtr r2, back
            halt
        back:
            brw top
    ";
    let bytes = vax_asm::assemble_text(src, 0x1000).unwrap().bytes;
    // `far` must sit exactly at VA 0x1200 — the TBIS operand above.
    assert_eq!(bytes[0x200], 0xC0, "far: addl2 must land at 0x1200");

    let mut interp = mapped_machine_with(&bytes, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);

    let mut cached = mapped_machine_with(&bytes, ExecTier::Cache);
    assert_eq!(run_to_halt(&mut cached), oracle);

    let mut trans = mapped_machine_with(&bytes, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(ts.chain_hits > 0, "chain must form before the TBIS");
    assert!(
        ts.chain_links_severed >= 1,
        "TBIS on the successor page must sever the stale link (severed {})",
        ts.chain_links_severed
    );
    assert!(ts.invalidations >= 1);
    assert!(
        ts.blocks_translated > ts.invalidations,
        "the tail page must be retranslated after the TBIS"
    );
}

#[test]
fn mapen_toggles_and_tbia_mid_run_stay_bit_identical() {
    // Under an identity map the same PCs are valid mapped and unmapped,
    // so the guest can flip MAPEN off (iteration 220) and back on
    // (iteration 100), with a TBIA thrown in at iteration 150 while
    // running unmapped. Every toggle bumps the translation generation;
    // superblocks must re-form in each regime and the run must stay
    // bit-identical with the interpreter throughout.
    let src = "
            movl #300, r2
            clrl r3
        top:
            addl3 #0x1111, r3, r4
            xorl2 r4, r3
            cmpl r2, #220
            bneq skip1
            mtpr #0, #56
        skip1:
            cmpl r2, #150
            bneq skip2
            mtpr #0, #57
        skip2:
            cmpl r2, #100
            bneq skip3
            mtpr #1, #56
        skip3:
            sobgtr r2, top
            halt
    ";
    let bytes = vax_asm::assemble_text(src, 0x1000).unwrap().bytes;

    let mut interp = mapped_machine_with(&bytes, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);

    let mut cached = mapped_machine_with(&bytes, ExecTier::Cache);
    assert_eq!(run_to_halt(&mut cached), oracle);

    let mut trans = mapped_machine_with(&bytes, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(
        ts.invalidations >= 3,
        "each MAPEN write and the TBIA must invalidate (got {})",
        ts.invalidations
    );
    assert!(
        ts.blocks_executed > 100,
        "superblocks must re-form after every toggle (got {})",
        ts.blocks_executed
    );
}

#[test]
fn mapped_smc_store_mid_chain_side_exits_and_reconverges() {
    // The head block contains a store that rewrites a byte of the tail
    // block's ADDL3 with its own value every iteration — dirty-code
    // tracking is content-insensitive, so once the head is translated
    // each retired store forces an SMC side exit mid-chain and drains
    // the tail page's translations. At iteration 100 a second,
    // conditional store semantically patches that ADDL3 (0xC1) into
    // SUBL3 (0xC3); the interpreter oracle defines the merged behaviour
    // and every tier must re-converge on it bit-identically.
    let src = "
            movl #200, r2
            clrl r3
        top:
            addl2 #3, r3
            movb #0x53, @#0x0
            cmpl r2, #100
            bneq skip
            movb #0xC3, @#0x0
        skip:
            brw far
            .align 512
        far:
            addl3 #5, r3, r5
            addl2 r5, r3
            sobgtr r2, back
            halt
        back:
            brw top
    ";
    let program = vax_asm::assemble_text(src, 0x1000).unwrap();
    let mut bytes = program.bytes.clone();
    let addl3_off = bytes
        .windows(4)
        .position(|w| w == [0xC1, 0x05, 0x53, 0x55])
        .expect("addl3 #5, r3, r5");
    let same_off = bytes
        .windows(8)
        .position(|w| w == [0x90, 0x8F, 0x53, 0x9F, 0x00, 0x00, 0x00, 0x00])
        .expect("movb #0x53, @#0");
    let patch_off = bytes
        .windows(8)
        .position(|w| w == [0x90, 0x8F, 0xC3, 0x9F, 0x00, 0x00, 0x00, 0x00])
        .expect("movb #0xC3, @#0");
    // Same-value store targets the register byte of the tail ADDL3;
    // the semantic patch rewrites its opcode.
    let reg_byte = (0x1000 + addl3_off as u32 + 2).to_le_bytes();
    bytes[same_off + 4..same_off + 8].copy_from_slice(&reg_byte);
    let opcode_byte = (0x1000 + addl3_off as u32).to_le_bytes();
    bytes[patch_off + 4..patch_off + 8].copy_from_slice(&opcode_byte);

    let mut interp = mapped_machine_with(&bytes, ExecTier::Interp);
    let oracle = run_to_halt(&mut interp);

    let mut cached = mapped_machine_with(&bytes, ExecTier::Cache);
    assert_eq!(run_to_halt(&mut cached), oracle);

    let mut trans = mapped_machine_with(&bytes, ExecTier::Trans);
    assert_eq!(run_to_halt(&mut trans), oracle);
    let ts = trans.trans_stats();
    assert!(
        ts.side_exit_smc >= 1,
        "the hot same-value store must force SMC side exits (got {})",
        ts.side_exit_smc
    );
    assert!(ts.invalidations >= 1);
    assert!(ts.blocks_executed > 0);
}
