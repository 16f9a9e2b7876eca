//! Fig. 14 — performance improvement from 3D-stacked memory: the CeNN
//! solver with HMC-INT and HMC-EXT vs the GPU baseline. Paper averages:
//! 23.67x (HMC-INT) and 77.37x (HMC-EXT) over GPU.

use cenn::arch::{CycleModel, MemorySpec, PeArrayConfig};
use cenn::baselines::{gtx850_gpu, StencilWorkload};
use cenn::equations::all_benchmarks;
use cenn::obs::{Event, RecorderHandle};
use cenn_bench::{geomean, measured_summary, probe_and_perf, rule, BenchObs, PERF_SIDE};

fn main() {
    let obs = BenchObs::from_cli();
    println!(
        "Fig. 14 — speedup over GPU with high-bandwidth memory, {s}x{s} grids\n",
        s = PERF_SIDE
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "benchmark", "ddr3 us/st", "int us/st", "ext us/st", "INT/GPU", "EXT/GPU"
    );
    rule(82);

    let pe = PeArrayConfig::default();
    let ddr = CycleModel::new(MemorySpec::ddr3(), pe.clone());
    let int = CycleModel::new(MemorySpec::hmc_int(), pe.clone());
    let ext = CycleModel::new(MemorySpec::hmc_ext(), pe);
    let gpu = gtx850_gpu();
    // Each cycle-model estimate is also captured as a mem_traffic event —
    // the same stream `--metrics-out` serializes.
    let (handle, reader) = RecorderHandle::in_memory(false);
    let mut sp_int = Vec::new();
    let mut sp_ext = Vec::new();
    for sys in all_benchmarks() {
        let (probe, perf) = probe_and_perf(sys.as_ref());
        // Miss rates come back through the recorded run_summary event.
        let summary = measured_summary(&probe, 5, 15, obs.tracer());
        obs.record(&Event::RunSummary(summary.clone()));
        let mr = (summary.mr_l1, summary.mr_l2);
        let est_ddr = ddr.estimate(&perf.model, mr);
        let est_int = int.estimate(&perf.model, mr);
        let est_ext = ext.estimate(&perf.model, mr);
        for (spec, est) in [
            ("ddr3", &est_ddr),
            ("hmc-int", &est_int),
            ("hmc-ext", &est_ext),
        ] {
            let label = format!("{}/{}", sys.name(), spec);
            let ev = Event::MemTraffic(est.to_mem_traffic(label, None));
            obs.record(&ev);
            handle.record(&ev);
        }
        let t_ddr = est_ddr.time_per_step_s();
        let t_int = est_int.time_per_step_s();
        let t_ext = est_ext.time_per_step_s();
        let t_gpu = gpu.time_per_step(&StencilWorkload::from_model(&perf.model));
        sp_int.push(t_gpu / t_int);
        sp_ext.push(t_gpu / t_ext);
        println!(
            "{:<20} {:>12.2} {:>12.2} {:>12.2} {:>9.1}x {:>9.1}x",
            sys.name(),
            t_ddr * 1e6,
            t_int * 1e6,
            t_ext * 1e6,
            t_gpu / t_int,
            t_gpu / t_ext
        );
    }
    rule(82);
    println!(
        "{:<20} {:>48.1}x HMC-INT vs GPU (paper: 23.67x)",
        "geometric mean",
        geomean(&sp_int)
    );
    println!(
        "{:<20} {:>48.1}x HMC-EXT vs GPU (paper: 77.37x)",
        "",
        geomean(&sp_ext)
    );
    let rec = reader.lock().expect("recorder lock");
    println!(
        "\nenergy per step off the recorded mem_traffic stream ({} events):",
        rec.events().len()
    );
    for ev in rec.events() {
        if let Event::MemTraffic(m) = ev {
            if m.label.ends_with("/hmc-ext") {
                println!("  {:<28} {:>8.3} mJ", m.label, m.energy_j * 1e3);
            }
        }
    }
    println!("\nshape checks: EXT > INT > DDR3 (more channels kill the L2-miss");
    println!("request queue of §6.3; the 10 GHz I/O clock over-drives the array).");
    drop(rec);
    obs.finish().expect("write observability artifacts");
}
