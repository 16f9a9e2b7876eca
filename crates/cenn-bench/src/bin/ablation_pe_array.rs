//! Ablation B — PE-array geometry: how the conv/stall balance and the
//! eq. (12) 1/#PEs weight-update advantage scale from 4×4 to 16×16 PEs.

use cenn::arch::{CycleModel, MemorySpec, PeArrayConfig};
use cenn::equations::{DynamicalSystem, HodgkinHuxley, ReactionDiffusion};
use cenn_bench::{measured_summary, rule};

fn main() {
    println!("Ablation B — PE-array geometry sweep (HMC-INT, 128x128 grids)\n");
    for (name, setup, probe) in [
        (
            "reaction-diffusion",
            ReactionDiffusion::default().build(128, 128).unwrap(),
            ReactionDiffusion::default().build(32, 32).unwrap(),
        ),
        (
            "hodgkin-huxley",
            HodgkinHuxley::default().build(128, 128).unwrap(),
            HodgkinHuxley::default().build(32, 32).unwrap(),
        ),
    ] {
        let probed = measured_summary(&probe, 5, 10, None);
        let mr = (probed.mr_l1, probed.mr_l2);
        println!(
            "benchmark: {name} (mr_L1 = {:.3}, mr_L2 = {:.3})",
            mr.0, mr.1
        );
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            "PEs", "conv cyc", "stall cyc", "us/step", "speedup"
        );
        rule(60);
        let mut base_time = None;
        for dim in [4usize, 8, 12, 16] {
            let pe = PeArrayConfig {
                rows: dim,
                cols: dim,
                n_l2: (dim * dim / 4).max(1),
                ..PeArrayConfig::default()
            };
            let model = CycleModel::new(MemorySpec::hmc_int(), pe);
            let t = model.step_timing(&setup.model, mr);
            let us = t.total_s() * 1e6;
            let base = *base_time.get_or_insert(us);
            println!(
                "{:>8} {:>12.0} {:>12.0} {:>12.2} {:>11.2}x",
                dim * dim,
                t.conv_cycles,
                t.stall_cycles,
                us,
                base / us
            );
        }
        println!();
    }
    println!("notes: conv cycles scale ~1/#PEs (more sub-blocks in flight);");
    println!("the paper's 8x8 choice balances the 64-cell sub-block (Fig. 9)");
    println!("against the L2 fan-in of 4 PEs per LUT (§6.3).");
}
