//! Raw simulator throughput: simulated instructions per second of host
//! time, on a pure-compute guest (no VMM, no MMU churn after warmup).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{ExecTier, Machine, StepEvent};

fn bench(c: &mut Criterion) {
    let program = vax_asm::assemble_text(
        "
            movl #20000, r2
            clrl r3
        top:
            addl2 r2, r3
            xorl2 #0x55AA, r3
            sobgtr r2, top
            halt
        ",
        0x1000,
    )
    .unwrap();
    // 3 instructions per iteration + the 2-instruction prologue (HALT
    // does not retire).
    let instructions = 20_000u64 * 3 + 2;

    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(instructions));
    for (name, tier) in [
        ("compute_loop", ExecTier::Cache),
        ("compute_loop_nocache", ExecTier::Interp),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
                m.set_exec_tier(tier);
                m.mem_mut().write_slice(0x1000, &program.bytes).unwrap();
                let mut psl = Psl::new();
                psl.set_ipl(31);
                m.set_psl(psl);
                m.set_pc(0x1000);
                while m.step() == StepEvent::Ok {}
                assert_eq!(m.counters().instructions, instructions);
                m.reg(3)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
