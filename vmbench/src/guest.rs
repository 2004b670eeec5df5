//! Running guest code on each layer the benchmark measures: the bare
//! core (`cpu`), a guest under the monitor (`core`), and the counters
//! both expose. Every run yields a fingerprint of its simulated outcome
//! so timed runs can be checked against a reference run.

use std::time::Instant;
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{CpuCounters, ExecTier, HaltReason, Machine, StepEvent};
use vax_os::layout::{kvar, KDATA_GPA};
use vax_os::KernelCounters;
use vax_vmm::{Monitor, RunExit, VmId, VmStats};

/// Reads the guest kernel's counter block through `read_u32` (a
/// guest-physical read), as the OS run drivers do.
pub(crate) fn kernel_counters(read_u32: impl Fn(u32) -> Option<u32>) -> KernelCounters {
    let rd = |off: u32| read_u32(KDATA_GPA + off).unwrap_or(0);
    KernelCounters {
        ticks: rd(kvar::TICKS),
        done: rd(kvar::DONE),
        page_faults: rd(kvar::PF_COUNT),
        modify_faults: rd(kvar::MF_COUNT),
        syscalls: rd(kvar::SYS_COUNT),
        disk_ops: rd(kvar::IO_COUNT),
    }
}

/// The simulated outcome of a bare run; equal across execution tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BareOutcome {
    /// The guest executed its final HALT.
    pub completed: bool,
    /// Simulated machine cycles.
    pub cycles: u64,
    /// Architectural counters.
    pub counters: CpuCounters,
    /// Console output.
    pub console: Vec<u8>,
    /// The guest kernel's own counters.
    pub kernel: KernelCounters,
}

/// Loads `segments` into a bare modified VAX with the simulated disk
/// the guest OS drives (the same machine `vax_os::run_bare` builds),
/// steps it at `tier` from `entry` in kernel mode at IPL 31 until it
/// halts or spends `max_cycles`, and returns the outcome with the host
/// seconds the step loop took.
pub fn run_bare(
    segments: &[(u32, Vec<u8>)],
    entry: u32,
    mem_bytes: u32,
    tier: ExecTier,
    max_cycles: u64,
) -> (BareOutcome, f64) {
    let mut m = Machine::new(MachineVariant::Modified, mem_bytes.max(256 * 1024));
    m.bus_mut().attach(
        vax_cpu::IO_BASE_PA,
        4096,
        Box::new(vax_dev::SimDisk::new(64, 2_000, 21, 0x100)),
    );
    for (pa, bytes) in segments {
        m.mem_mut()
            .write_slice(*pa, bytes)
            .expect("guest segment fits bare memory");
    }
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(entry);
    m.set_exec_tier(tier);
    let mut completed = false;
    let started = Instant::now();
    while m.cycles() < max_cycles {
        match m.step() {
            StepEvent::Ok => {}
            StepEvent::Halted(HaltReason::HaltInstruction) => {
                completed = true;
                break;
            }
            StepEvent::Halted(_) | StepEvent::VmExit(_) => break,
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let kernel = kernel_counters(|pa| m.mem().read_u32(pa).ok());
    let outcome = BareOutcome {
        completed,
        cycles: m.cycles(),
        counters: m.counters(),
        console: m.console_take_output(),
        kernel,
    };
    (outcome, secs)
}

/// The simulated outcome of a run under the monitor; equal across
/// execution tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VmOutcome {
    /// How `Monitor::run` returned.
    pub exit: RunExit,
    /// Simulated machine cycles.
    pub cycles: u64,
    /// Cycles spent in VMM paths.
    pub vmm_cycles: u64,
    /// Architectural counters of the real machine.
    pub counters: CpuCounters,
    /// The VM's event statistics.
    pub stats: VmStats,
    /// The guest kernel's own counters.
    pub kernel: KernelCounters,
    /// Console output.
    pub console: Vec<u8>,
}

impl VmOutcome {
    /// Reads the outcome of `vm` from `monitor` (draining its console).
    pub fn read(monitor: &mut Monitor, vm: VmId, exit: RunExit) -> VmOutcome {
        VmOutcome {
            exit,
            cycles: monitor.machine().cycles(),
            vmm_cycles: monitor.vmm_cycles(),
            counters: monitor.machine().counters(),
            stats: monitor.vm_stats(vm),
            kernel: kernel_counters(|gpa| monitor.vm_read_phys_u32(vm, gpa)),
            console: monitor.vm_console_output(vm),
        }
    }
}

/// Counters the per-layer report reads from a monitor; subtracting two
/// readings gives the work one call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VmCounts {
    /// Guest instructions retired.
    pub instructions: u64,
    /// VM exits of every kind.
    pub exits: u64,
    /// Sensitive instructions the VMM emulated.
    pub emulation_traps: u64,
    /// Shadow page-table fills.
    pub shadow_fills: u64,
    /// Shadow-table cache hits on guest context switches.
    pub shadow_cache_hits: u64,
    /// Shadow-table cache misses on guest context switches.
    pub shadow_cache_misses: u64,
    /// Modify faults the VMM handled.
    pub modify_faults: u64,
    /// World switches between VMs.
    pub world_switches: u64,
    /// Translated µops executed.
    pub trans_uops: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
}

impl VmCounts {
    /// A reading of `monitor`, summing per-VM statistics over its VMs.
    pub fn read(monitor: &Monitor) -> VmCounts {
        let c = monitor.machine().counters();
        let dc = monitor.machine().decode_cache_stats();
        let mut counts = VmCounts {
            instructions: c.instructions,
            exits: c.vm_exits(),
            emulation_traps: c.vm_emulation_traps,
            world_switches: monitor.world_switches(),
            trans_uops: monitor.machine().trans_stats().uops_executed,
            decode_hits: dc.hits,
            decode_misses: dc.misses,
            tlb_hits: c.tlb_hits,
            tlb_misses: c.tlb_misses,
            ..VmCounts::default()
        };
        for id in monitor.vm_ids() {
            let s = monitor.vm_stats(id);
            counts.shadow_fills += s.shadow_fills;
            counts.shadow_cache_hits += s.shadow_cache_hits;
            counts.shadow_cache_misses += s.shadow_cache_misses;
            counts.modify_faults += s.modify_faults;
        }
        counts
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &VmCounts) -> VmCounts {
        VmCounts {
            instructions: self.instructions - earlier.instructions,
            exits: self.exits - earlier.exits,
            emulation_traps: self.emulation_traps - earlier.emulation_traps,
            shadow_fills: self.shadow_fills - earlier.shadow_fills,
            shadow_cache_hits: self.shadow_cache_hits - earlier.shadow_cache_hits,
            shadow_cache_misses: self.shadow_cache_misses - earlier.shadow_cache_misses,
            modify_faults: self.modify_faults - earlier.modify_faults,
            world_switches: self.world_switches - earlier.world_switches,
            trans_uops: self.trans_uops - earlier.trans_uops,
            decode_hits: self.decode_hits - earlier.decode_hits,
            decode_misses: self.decode_misses - earlier.decode_misses,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
