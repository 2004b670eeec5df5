//! Property-based tests on the memory subsystem.

use proptest::prelude::*;
use vax_arch::{AccessMode, CostModel, Protection, Pte, VirtAddr};
use vax_mem::{MemFault, Mmu, PhysMemory};

const SPT_PA: u32 = 0x1000;

/// Builds a machine-less MMU over `n` identity-mapped S pages with the
/// given protections.
fn setup(prots: &[(Protection, bool, bool)]) -> (PhysMemory, Mmu) {
    let mut mem = PhysMemory::new(512 * 1024);
    let mut mmu = Mmu::new();
    for (i, (p, v, m)) in prots.iter().enumerate() {
        // Map S page i to PFN 64+i so data never collides with the SPT.
        let pte = Pte::build(64 + i as u32, *p, *v, *m);
        mem.write_u32(SPT_PA + 4 * i as u32, pte.raw()).unwrap();
    }
    mmu.set_sbr(SPT_PA);
    mmu.set_slr(prots.len() as u32);
    mmu.set_mapen(true);
    (mem, mmu)
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    (0u32..4).prop_map(AccessMode::from_bits)
}

fn arb_prot() -> impl Strategy<Value = Protection> {
    (0usize..Protection::ALL.len()).prop_map(|i| Protection::ALL[i])
}

proptest! {
    /// The walker's outcome agrees with the protection table exactly:
    /// AV iff protection denies, TNV iff protection allows but invalid.
    #[test]
    fn translate_agrees_with_protection_table(
        p in arb_prot(),
        valid in any::<bool>(),
        mode in arb_mode(),
        write in any::<bool>(),
        offset in 0u32..512,
    ) {
        let (mut mem, mut mmu) = setup(&[(p, valid, true)]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000 + offset);
        let r = mmu.translate(&mut mem, va, mode, write, &costs);
        let allowed = p.allows(mode, write);
        match (allowed, valid) {
            (false, _) => prop_assert!(
                matches!(r, Err(MemFault::AccessViolation { length: false, .. })),
                "{p} {mode} w={write}: {r:?}"
            ),
            (true, false) => prop_assert!(
                matches!(r, Err(MemFault::TranslationNotValid { .. })),
                "{p} {mode}: {r:?}"
            ),
            (true, true) => {
                let t = r.unwrap();
                prop_assert_eq!(t.pa, (64 << 9) + offset);
            }
        }
    }

    /// A TLB hit returns the same translation as a cold walk.
    #[test]
    fn tlb_is_transparent(
        pages in proptest::collection::vec((arb_prot(), any::<bool>()), 1..16),
        accesses in proptest::collection::vec((0usize..16, 0u32..512, any::<bool>()), 1..40),
        mode in arb_mode(),
    ) {
        let prots: Vec<(Protection, bool, bool)> =
            pages.iter().map(|(p, v)| (*p, *v, true)).collect();
        let (mut mem, mut mmu) = setup(&prots);
        let (mut mem2, mut mmu2) = setup(&prots);
        let costs = CostModel::default();
        for (page, off, write) in accesses {
            let page = page % prots.len();
            let va = VirtAddr::new(0x8000_0000 + (page as u32) * 512 + off);
            let warm = mmu.translate(&mut mem, va, mode, write, &costs);
            // The cold MMU flushes before every access.
            mmu2.tlb_mut().invalidate_all();
            let cold = mmu2.translate(&mut mem2, va, mode, write, &costs);
            match (warm, cold) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.pa, b.pa),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "warm {a:?} vs cold {b:?}"),
            }
        }
    }

    /// Virtual read-back: what you write is what you read, including
    /// page-crossing unaligned accesses.
    #[test]
    fn virt_write_read_round_trip(
        offset in 0u32..1020,
        value in any::<u32>(),
        len in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let (mut mem, mut mmu) = setup(&[
            (Protection::Uw, true, true),
            (Protection::Uw, true, true),
        ]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000 + offset);
        mmu.write_virt(&mut mem, va, value, len, AccessMode::User, &costs)
            .unwrap();
        let (got, _) = mmu
            .read_virt(&mut mem, va, len, AccessMode::User, &costs)
            .unwrap();
        let mask = match len {
            1 => 0xff,
            2 => 0xffff,
            _ => u32::MAX,
        };
        prop_assert_eq!(got, value & mask);
    }

    /// PROBE never mutates state: no modify bits set, and a following
    /// translate behaves as if the probe never happened.
    #[test]
    fn probe_is_pure(
        p in arb_prot(),
        valid in any::<bool>(),
        mode in arb_mode(),
        write in any::<bool>(),
    ) {
        let (mem_orig, _) = setup(&[(p, valid, false)]);
        let (mem, mut mmu) = setup(&[(p, valid, false)]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000);
        let _ = mmu.probe(&mem, va, mode, write, &costs);
        prop_assert_eq!(
            mem.read_u32(SPT_PA).unwrap(),
            mem_orig.read_u32(SPT_PA).unwrap(),
            "probe must not touch the PTE"
        );
    }

    /// Physical memory round trip with mixed widths.
    #[test]
    fn phys_round_trip(pa in 0u32..4000, v in any::<u32>()) {
        let mut mem = PhysMemory::new(8192);
        mem.write_u32(pa, v).unwrap();
        prop_assert_eq!(mem.read_u32(pa).unwrap(), v);
        prop_assert_eq!(mem.read_u16(pa).unwrap(), v as u16);
        prop_assert_eq!(mem.read_u8(pa).unwrap(), v as u8);
    }

    /// A forked child is observably the dense memory it was forked from
    /// plus the same writes: every width reads back alike, range reads
    /// agree whether they borrow or copy, exactly the written pages are
    /// private, and the parent never sees the child's writes.
    #[test]
    fn forked_overlay_matches_dense_model(
        ops in proptest::collection::vec((0u32..5, 0u32..8180, any::<u32>()), 1..48),
    ) {
        let mut dense = PhysMemory::new(16 * 512);
        for p in 0..16u32 {
            dense.write_u32(p * 512 + 8, 0x1000 + p).unwrap();
        }
        let mut parent = dense.clone();
        let mut child = parent.fork();
        let mut written = std::collections::BTreeSet::new();
        for (kind, pa, v) in ops {
            let len = match kind {
                0 => { dense.write_u8(pa, v as u8).unwrap(); child.write_u8(pa, v as u8).unwrap(); 1 }
                1 => { dense.write_u16(pa, v as u16).unwrap(); child.write_u16(pa, v as u16).unwrap(); 2 }
                2 => { dense.write_u32(pa, v).unwrap(); child.write_u32(pa, v).unwrap(); 4 }
                3 => {
                    let data: Vec<u8> = (0..v % 700).map(|k| (k as u8) ^ (v as u8)).collect();
                    let data = &data[..data.len().min((8192 - pa) as usize)];
                    dense.write_slice(pa, data).unwrap();
                    child.write_slice(pa, data).unwrap();
                    data.len() as u32
                }
                _ => {
                    let len = (v % 1100).min(8192 - pa);
                    dense.zero_range(pa, len).unwrap();
                    child.zero_range(pa, len).unwrap();
                    len
                }
            };
            if len > 0 {
                written.extend(pa / 512..=(pa + len - 1) / 512);
            }
            let probe = v % 8188;
            prop_assert_eq!(child.read_u32(probe).unwrap(), dense.read_u32(probe).unwrap());
            prop_assert_eq!(child.read_u16(pa.min(8190)).unwrap(), dense.read_u16(pa.min(8190)).unwrap());
            let span = (v % 1500).min(8192 - pa);
            prop_assert_eq!(&*child.read_slice(pa, span).unwrap(), &*dense.read_slice(pa, span).unwrap());
        }
        prop_assert!(child == dense, "effective contents agree");
        prop_assert_eq!(child.resident_page_numbers(), written.into_iter().collect::<Vec<_>>());
        prop_assert!(parent.fork_frozen().is_some(), "the parent is still frozen");
        for p in 0..16u32 {
            prop_assert_eq!(parent.read_u32(p * 512 + 8).unwrap(), 0x1000 + p);
        }
    }

    /// One page-state table serves every write observer. Over random
    /// writes, code marks and interleaved drains, on a dense and on a
    /// forked memory: each dirty drain names exactly the pages that a
    /// fresh fork given the same writes makes resident, the touched set
    /// is the union of the drains, the event count is the sum of their
    /// sizes, and each marked page written appears exactly once in the
    /// next code drain.
    #[test]
    fn page_state_serves_dirty_touched_and_code_drains(
        forked in any::<bool>(),
        ops in proptest::collection::vec((0u32..8, 0u32..8192, any::<u32>()), 1..64),
    ) {
        const SIZE: u32 = 16 * 512;
        let mut parent = PhysMemory::new(SIZE);
        let child = parent.fork();
        let mut mem = if forked { child } else { PhysMemory::new(SIZE) };
        mem.enable_write_tracking();
        let fresh = || parent.fork_frozen().expect("the parent stays frozen");
        let mut witness = fresh();
        let mut marked = std::collections::BTreeSet::new();
        let mut posted = Vec::new();
        let mut union = std::collections::BTreeSet::new();
        let mut drained = 0u64;
        // Both sets are drained once more at the end.
        for (kind, pa, v) in ops.into_iter().chain([(6, 0, 0), (7, 0, 0)]) {
            let (dst, len) = match kind {
                0 => (pa, 1),
                1 => (pa.min(SIZE - 2), 2),
                2 => (pa.min(SIZE - 4), 4),
                3 | 4 => (pa, (v % 1100).min(SIZE - pa)),
                5 => {
                    let src = v % SIZE;
                    (pa, (v >> 16).min(SIZE - pa).min(SIZE - src))
                }
                6 => {
                    // A drain of the dirty set.
                    prop_assert_eq!(mem.dirty_page_count() as usize, witness.resident_page_numbers().len());
                    let dirty = mem.take_dirty_pages();
                    prop_assert_eq!(&dirty, &witness.resident_page_numbers());
                    drained += dirty.len() as u64;
                    union.extend(dirty);
                    witness = fresh();
                    continue;
                }
                _ => {
                    // A drain of the code notices, then fresh marks, as
                    // a machine marks pages when it decodes after one.
                    let mut code = mem.take_dirty_code_pages();
                    code.sort_unstable();
                    posted.sort_unstable();
                    prop_assert_eq!(&code, &posted, "each marked page written, once");
                    posted.clear();
                    for p in (0..16).filter(|p| v >> p & 1 != 0) {
                        mem.note_code_page(p);
                        marked.insert(p);
                    }
                    continue;
                }
            };
            for m in [&mut mem, &mut witness] {
                match kind {
                    0 => m.write_u8(dst, v as u8),
                    1 => m.write_u16(dst, v as u16),
                    2 => m.write_u32(dst, v),
                    3 => m.write_slice(dst, &vec![v as u8; len as usize]),
                    4 => m.zero_range(dst, len),
                    _ => m.copy_within(v % SIZE, dst, len),
                }
                .unwrap();
            }
            if len > 0 {
                for p in dst / 512..=(dst + len - 1) / 512 {
                    if marked.remove(&p) {
                        posted.push(p);
                    }
                }
            }
        }
        let union: Vec<u32> = union.into_iter().collect();
        prop_assert_eq!(mem.touched_pages(), union.clone());
        prop_assert_eq!(mem.touched_page_count() as usize, union.len());
        prop_assert_eq!(mem.dirty_page_events(), drained);
        if forked {
            prop_assert_eq!(mem.resident_page_numbers(), union);
        }
    }
}
