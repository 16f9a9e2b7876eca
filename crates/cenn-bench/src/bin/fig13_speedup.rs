//! Fig. 13 — performance comparison on the six benchmark equations:
//! speedup of the CeNN-based solver (with DDR3) over the CPU and GPU
//! baselines. Paper averages: 46.48x over CPU, 13.52x over GPU.

use cenn::arch::{CycleModel, MemorySpec, PeArrayConfig};
use cenn::baselines::{gtx850_gpu, mobile_cpu, StencilWorkload};
use cenn::equations::all_benchmarks;
use cenn_bench::{geomean, measured_summary, probe_and_perf, rule, PERF_SIDE};

fn main() {
    println!(
        "Fig. 13 — speedup of the CeNN DE solver (DDR3) over CPU/GPU, {s}x{s} grids\n",
        s = PERF_SIDE
    );
    println!(
        "{:<20} {:>8} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "benchmark", "mr_L1", "mr_L2", "cenn us/st", "gpu us/st", "vs CPU", "vs GPU"
    );
    rule(86);

    let cycle = CycleModel::new(MemorySpec::ddr3(), PeArrayConfig::default());
    let (cpu, gpu) = (mobile_cpu(), gtx850_gpu());
    let mut sp_cpu = Vec::new();
    let mut sp_gpu = Vec::new();
    for sys in all_benchmarks() {
        let (probe, perf) = probe_and_perf(sys.as_ref());
        let probed = measured_summary(&probe, 5, 15, None);
        let mr = (probed.mr_l1, probed.mr_l2);
        let est = cycle.estimate(&perf.model, mr);
        let w = StencilWorkload::from_model(&perf.model);
        let t_cenn = est.time_per_step_s();
        let t_cpu = cpu.time_per_step(&w);
        let t_gpu = gpu.time_per_step(&w);
        sp_cpu.push(t_cpu / t_cenn);
        sp_gpu.push(t_gpu / t_cenn);
        println!(
            "{:<20} {:>8.3} {:>8.3} {:>12.2} {:>12.2} {:>9.1}x {:>9.1}x",
            sys.name(),
            mr.0,
            mr.1,
            t_cenn * 1e6,
            t_gpu * 1e6,
            t_cpu / t_cenn,
            t_gpu / t_cenn
        );
    }
    rule(86);
    println!(
        "{:<20} {:>62.1}x vs CPU (paper: 46.48x)",
        "geometric mean",
        geomean(&sp_cpu)
    );
    println!(
        "{:<20} {:>62.1}x vs GPU (paper: 13.52x)",
        "",
        geomean(&sp_gpu)
    );
    println!("\nnote: CPU/GPU times come from the documented roofline substitution");
    println!("(DESIGN.md); the comparison validates the *shape* — the solver wins,");
    println!("more over the CPU than the GPU, most on LUT-heavy systems.");
}
