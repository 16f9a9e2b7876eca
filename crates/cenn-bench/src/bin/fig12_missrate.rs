//! Fig. 12 — LUT miss rate vs on-chip LUT capacity for the two
//! representative systems (reaction–diffusion and Navier–Stokes).
//!
//! The paper reports mr_L1 ≈ 0.7 at 4 L1 blocks and a combined rate
//! dropping to 0.15–0.3 with a larger L2; this harness replays each
//! system's real access trace through the swept hierarchy.

use cenn::core::LutConfig;
use cenn::equations::{DynamicalSystem, NavierStokes, ReactionDiffusion, SystemSetup};
use cenn::obs::Event;
use cenn_bench::{measured_summary, rule, BenchObs};

fn measure(setup: &SystemSetup, l1: usize, l2: usize, obs: &BenchObs) -> (f64, f64, f64) {
    let cfg = LutConfig {
        l1_blocks: l1,
        l2_capacity: l2,
        ..setup.model.lut_config().clone()
    };
    let mut s = setup.clone();
    s.model = setup.model.clone_with_lut_config(cfg);
    // The rates come back through the observability layer's run_summary
    // event (5-step warm-up, stats reset, 25 measured steps) — tested
    // bit-identical to the direct LutStats counters.
    let summary = measured_summary(&s, 5, 25, obs.tracer());
    obs.record(&Event::RunSummary(summary.clone()));
    (summary.mr_l1, summary.mr_l2, summary.mr_combined)
}

fn main() {
    let obs = BenchObs::from_cli();
    println!("Fig. 12 — miss rate vs on-chip LUT size (measured on access traces)\n");
    for sys in [
        &ReactionDiffusion::default() as &dyn DynamicalSystem,
        &NavierStokes::default(),
    ] {
        let setup = sys
            .build(32, 32)
            .unwrap_or_else(|_| panic!("{}", sys.name()));
        println!("benchmark: {}", sys.name());
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12}",
            "L1 blocks", "L2 blocks", "mr_L1", "mr_L2", "mr_L1*mr_L2"
        );
        rule(58);
        // L1 sweep at the paper's L2 = 32.
        for l1 in [2usize, 4, 8, 16, 32] {
            let (mr1, mr2, comb) = measure(&setup, l1, 32, &obs);
            println!("{l1:>10} {:>10} {mr1:>10.3} {mr2:>10.3} {comb:>12.3}", 32);
        }
        // L2 sweep at the paper's L1 = 4.
        for l2 in [8usize, 16, 64, 128] {
            let (mr1, mr2, comb) = measure(&setup, 4, l2, &obs);
            println!("{:>10} {l2:>10} {mr1:>10.3} {mr2:>10.3} {comb:>12.3}", 4);
        }
        println!();
    }
    println!("paper anchors: mr_L1 ~ 0.7 at 4 blocks; combined drops to 0.15-0.3");
    println!("with the L2 behind it; the paper selects L1 = 4, L2 = 32 (§6.2).");
    obs.finish().expect("write observability artifacts");
}
