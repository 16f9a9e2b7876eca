//! Table 2 — overall power/area (PE array + L2 LUTs + global buffer) and
//! the §6.5 system-power comparison against the GPU.

use cenn::arch::{CycleModel, EnergyModel, MemorySpec, PeArrayConfig, GPU_POWER_W};
use cenn::equations::{DynamicalSystem, Izhikevich};
use cenn_bench::{measured_summary, rule};

fn main() {
    let m = EnergyModel::default();
    let p = m.power_breakdown();
    println!("Table 2 — overall on-chip power/area\n");
    println!(
        "{:<16} {:>12} {:>12}",
        "system", "power (mW)", "area (mm^2)"
    );
    rule(42);
    println!(
        "{:<16} {:>12.2} {:>12.3}",
        "PE array",
        p.pe_array_mw,
        m.pe_array_area_mm2()
    );
    println!(
        "{:<16} {:>12.2} {:>12.5}",
        "L2 LUT", p.l2_mw, m.l2_total_mm2
    );
    println!(
        "{:<16} {:>12.2} {:>12.3}",
        "Global buffer", p.global_buffer_mw, m.global_buffer_mm2
    );
    println!(
        "{:<16} {:>12.2} {:>12.3}",
        "Total",
        p.total_mw,
        m.area_mm2()
    );
    rule(42);
    println!("paper: 199.68 / 63.61 / 260.16 / 523.45 mW; 0.450 / 0.00627 / 0.625 / 1.082 mm^2");

    // §6.5 worked example: Izhikevich with HMC-INT.
    println!("\nSystem power with HMC-INT (Izhikevich workload, §6.5):");
    let setup = Izhikevich::default().build(128, 128).unwrap();
    let probe = Izhikevich::default().build(32, 32).unwrap();
    let probed = measured_summary(&probe, 5, 20, None);
    let mr = (probed.mr_l1, probed.mr_l2);
    let est =
        CycleModel::new(MemorySpec::hmc_int(), PeArrayConfig::default()).estimate(&setup.model, mr);
    let activity = est.dram_activity().min(1.0);
    let mem_power = MemorySpec::hmc_int().power_at_activity(activity);
    println!("  measured DRAM activity ratio: {activity:.2}  (paper: 0.22)");
    println!("  memory power @3.7 pJ/bit:     {mem_power:.2} W (paper: ~1.04 W)");
    println!(
        "  total system power:           {:.2} W (paper: 1.56 W)",
        est.system_power_w()
    );
    println!(
        "  vs GPU ({GPU_POWER_W:.0} W):               {:.0}x less (paper: 32x)",
        GPU_POWER_W / est.system_power_w()
    );
}
