//! Table 3 — comparison of the DE solver against prior CeNN hardware
//! platforms. The prior rows are the paper's published numbers; "this
//! work" is produced live from the energy and cycle models.

use cenn::arch::{prior_platforms, CycleModel, EnergyModel, MemorySpec, PeArrayConfig};
use cenn::equations::{DynamicalSystem, ReactionDiffusion};
use cenn_bench::{measured_summary, rule};

fn main() {
    println!("Table 3 — CeNN hardware platforms\n");
    println!(
        "{:<10} {:<22} {:<8} {:>7} {:>9} {:>9} {:>10} {:>8} {:>10}",
        "platform",
        "type",
        "tech",
        "#PEs",
        "power W",
        "area mm2",
        "peak GOPS",
        "GOPS/W",
        "nonlinear"
    );
    rule(102);
    for p in prior_platforms() {
        println!(
            "{:<10} {:<22} {:<8} {:>7} {:>9.3} {:>9} {:>10.1} {:>8.2} {:>10}",
            p.name,
            p.kind,
            p.technology,
            p.n_pes,
            p.power_w,
            p.area_mm2.map_or("-".to_string(), |a| format!("{a:.1}")),
            p.peak_gops,
            p.gops_per_w,
            if p.nonlinear_weight_update {
                "yes"
            } else {
                "no"
            }
        );
    }

    // This work: achieved GOPS on the Fig. 3 reaction-diffusion workload
    // with HMC-INT at the 600 MHz synthesis point.
    let energy = EnergyModel::default();
    let setup = ReactionDiffusion::default().build(128, 128).unwrap();
    let probe = ReactionDiffusion::default().build(32, 32).unwrap();
    let probed = measured_summary(&probe, 5, 20, None);
    let mr = (probed.mr_l1, probed.mr_l2);
    let est =
        CycleModel::new(MemorySpec::hmc_int(), PeArrayConfig::default()).estimate(&setup.model, mr);
    let gops = est.achieved_gops();
    println!(
        "{:<10} {:<22} {:<8} {:>7} {:>9.3} {:>9.1} {:>10.1} {:>8.2} {:>10}",
        "this work",
        "digital",
        "15nm",
        64,
        energy.on_chip_power_w(),
        energy.area_mm2(),
        gops,
        energy.gops_per_watt(gops),
        "yes"
    );
    rule(102);
    println!("paper's row: 64 PEs, 0.523 W, ~1 mm^2, 54 peak GOPS, 103.26 GOPS/W,");
    println!("and uniquely supports nonlinear real-time weight update.");
}
