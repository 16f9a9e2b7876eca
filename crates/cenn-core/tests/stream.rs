//! Property tests for the streamed out-of-core engine: bit-identity with
//! the in-core simulator across window sizes and thread counts, canonical
//! per-step observability equality, and mid-sweep kill/restart recovery
//! from spilled chunks.

use std::path::PathBuf;

use cenn_core::{
    mapping, Boundary, CennModelBuilder, CennSim, Factor, FuncEval, Grid, Integrator, LayerId,
    StreamConfig, StreamSim, Template, WeightExpr,
};
use proptest::prelude::*;

fn spool_dir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cenn_stream_prop_{tag}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Fisher-style Euler model: one dynamic layer, zero-flux boundary, a
/// logistic LUT offset — the canonical single-LUT-layer case where the
/// streamed engine must match the in-core one on every counter.
fn fisher_sim(rows: usize, cols: usize, init: &Grid<f64>) -> CennSim {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let sq = b.register_func(cenn_lut::funcs::square());
    let mut stencil = mapping::laplacian(0.25, 1.0);
    stencil.set(0, 0, stencil.get(0, 0) + 1.0);
    b.state_template(u, u, stencil.into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(-1.0, vec![Factor { func: sq, layer: u }]),
    );
    let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
    sim.set_state_f64(u, init).unwrap();
    sim
}

/// Two-layer Heun model with mixed boundaries: `u` (zero-flux) carries
/// the only dynamic LUT sites; `v` (periodic) is pure linear coupling
/// plus an external input drive. Periodic `v` makes halo resolution wrap
/// across the window set; the input template exercises the `in` chunk
/// stream.
fn heun_sim(rows: usize, cols: usize, init: &Grid<f64>) -> CennSim {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let v = b.dynamic_layer("v", Boundary::Periodic);
    let sq = b.register_func(cenn_lut::funcs::square());
    let mut stencil = mapping::laplacian(0.2, 1.0);
    stencil.set(0, 0, stencil.get(0, 0) + 0.5);
    b.state_template(u, u, stencil.into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(-0.5, vec![Factor { func: sq, layer: u }]),
    );
    b.state_template(v, v, mapping::laplacian(0.15, 1.0).into_state_template());
    b.state_template(v, u, Template::from_constants(&[0.1]));
    b.input_template(v, v, Template::from_constants(&[0.3]));
    b.integrator(Integrator::Heun);
    let mut sim = CennSim::new(b.build(0.04).unwrap()).unwrap();
    sim.set_state_f64(u, init).unwrap();
    sim.set_state_f64(v, &init.map(|x| 0.5 - 0.25 * x)).unwrap();
    sim.set_input_f64(
        v,
        &Grid::from_fn(rows, cols, |r, c| 0.1 * ((r + 2 * c) % 5) as f64),
    )
    .unwrap();
    sim
}

fn grid_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Grid<f64>> {
    prop::collection::vec(0.02f64..0.9, rows * cols)
        .prop_map(move |v| Grid::from_fn(rows, cols, |r, c| v[r * cols + c]))
}

/// Canonical per-step observability: sweeps labels, cell counts,
/// residual, and per-shard LUT deltas. Wall-clock fields excluded.
fn step_fingerprint(s: &cenn_core::StepStats) -> (Vec<String>, u64, u64, Vec<cenn_lut::LutStats>) {
    (
        s.sweeps.iter().map(|(l, _)| l.clone()).collect(),
        s.cells,
        (s.residual * 65536.0).round() as u64,
        s.shard_lut.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn euler_streamed_is_bit_identical_across_windows_and_threads(
        init in grid_strategy(13, 9),
        chunk in 1usize..16,
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut in_core = fisher_sim(13, 9, &init);
        in_core.set_threads(threads);
        let dir = spool_dir("euler", case);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(&dir).with_chunk_rows(chunk),
        ).unwrap();
        streamed.set_threads(threads);
        streamed.set_residual_tracking(true);
        in_core.set_residual_tracking(true);
        for _ in 0..6 {
            in_core.step();
            streamed.step().unwrap();
            prop_assert_eq!(
                step_fingerprint(in_core.step_stats()),
                step_fingerprint(streamed.step_stats())
            );
        }
        let snap = streamed.snapshot().unwrap();
        prop_assert_eq!(&snap.states, &in_core.snapshot().states);
        prop_assert_eq!(snap.steps, 6);
        prop_assert_eq!(snap.time.to_bits(), in_core.snapshot().time.to_bits());
        // Single LUT-bearing layer: cache counters match exactly too.
        prop_assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heun_streamed_is_bit_identical_with_mixed_boundaries_and_inputs(
        init in grid_strategy(11, 7),
        chunk in 1usize..14,
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut in_core = heun_sim(11, 7, &init);
        in_core.set_threads(threads);
        let dir = spool_dir("heun", case);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(&dir).with_chunk_rows(chunk),
        ).unwrap();
        streamed.set_threads(threads);
        streamed.set_residual_tracking(true);
        in_core.set_residual_tracking(true);
        for _ in 0..5 {
            in_core.step();
            streamed.step().unwrap();
            prop_assert_eq!(
                step_fingerprint(in_core.step_stats()),
                step_fingerprint(streamed.step_stats())
            );
        }
        prop_assert_eq!(&streamed.snapshot().unwrap().states, &in_core.snapshot().states);
        prop_assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        for layer in [LayerId::from_index(0), LayerId::from_index(1)] {
            let a = streamed.state_f64(layer).unwrap();
            let b = in_core.state_f64(layer);
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_sweep_kill_and_recover_is_bit_identical(
        init in grid_strategy(12, 6),
        chunk in 1usize..8,
        kill_windows in 1usize..12,
        heun in any::<bool>(),
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut reference = if heun {
            heun_sim(12, 6, &init)
        } else {
            fisher_sim(12, 6, &init)
        };
        let dir = spool_dir("kill", case);
        let cfg = StreamConfig::new(&dir).with_chunk_rows(chunk);
        let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
        streamed.set_threads(threads);
        reference.run(5);
        streamed.run(2).unwrap();
        // "Kill" the process mid-step after an arbitrary number of window
        // executions (possibly crossing pass or step boundaries), then
        // recover from the journal + spilled chunks alone.
        let windows_per_step =
            streamed.n_windows() * if heun { 2 } else { 1 };
        streamed.step_windows(kill_windows % windows_per_step.max(1)).unwrap();
        let model = reference.model().clone();
        drop(streamed);
        let mut recovered = StreamSim::recover(model, cfg).unwrap();
        recovered.set_threads(threads);
        let done = recovered.steps();
        prop_assert!(done >= 2);
        recovered.run(5 - done).unwrap();
        let snap = recovered.snapshot().unwrap();
        let want = reference.snapshot();
        prop_assert_eq!(&snap.states, &want.states);
        prop_assert_eq!(snap.steps, want.steps);
        prop_assert_eq!(snap.time.to_bits(), want.time.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn window_spanning_the_whole_grid_still_streams() {
    let init = Grid::from_fn(9, 5, |r, c| 0.1 + 0.05 * ((r * 5 + c) % 7) as f64);
    let mut in_core = fisher_sim(9, 5, &init);
    let dir = spool_dir("whole", 0);
    // chunk_rows beyond the grid clamps to one full-grid window.
    let mut streamed =
        StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_chunk_rows(64)).unwrap();
    assert_eq!(streamed.n_windows(), 1);
    assert_eq!(streamed.chunk_rows(), 9);
    in_core.run(8);
    streamed.run(8).unwrap();
    assert_eq!(
        streamed.snapshot().unwrap().states,
        in_core.snapshot().states
    );
    assert!(streamed.spill_bytes() > 0, "single window still spools");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_bounds_the_resident_window() {
    let init = Grid::from_fn(64, 32, |r, c| 0.1 + 0.01 * ((r + c) % 11) as f64);
    let in_core = fisher_sim(64, 32, &init);
    let dir = spool_dir("budget", 0);
    let budget = 24 * 1024;
    let mut streamed =
        StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_memory_budget(budget)).unwrap();
    assert!(streamed.n_windows() > 1, "budget must force windowing");
    streamed.run(3).unwrap();
    assert!(
        streamed.peak_resident_bytes() <= budget,
        "peak resident {} exceeds budget {budget}",
        streamed.peak_resident_bytes()
    );
    let mut reference = fisher_sim(64, 32, &init);
    reference.run(3);
    assert_eq!(
        streamed.snapshot().unwrap().states,
        reference.snapshot().states
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tanh-damped model whose LUT evaluation visibly differs from exact
/// evaluation, so a resume on the wrong mode shows in the states.
fn tanh_sim(rows: usize, cols: usize, eval: FuncEval) -> CennSim {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let th = b.register_func(cenn_lut::funcs::tanh());
    b.state_template(u, u, mapping::laplacian(0.2, 1.0).into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(0.8, vec![Factor { func: th, layer: u }]),
    );
    let mut sim = CennSim::with_eval(b.build(0.05).unwrap(), eval).unwrap();
    sim.set_state_f64(
        u,
        &Grid::from_fn(rows, cols, |r, c| 0.37 * ((r * cols + c) % 7) as f64 - 1.1),
    )
    .unwrap();
    sim
}

#[test]
fn exact_mode_spool_recovers_in_exact_mode() {
    let (rows, cols) = (10, 6);
    let mut lut = tanh_sim(rows, cols, FuncEval::Lut);
    let mut reference = tanh_sim(rows, cols, FuncEval::Exact);
    let dir = spool_dir("exact", 0);
    let cfg = StreamConfig::new(&dir).with_chunk_rows(3);
    let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
    assert_eq!(streamed.eval_mode(), FuncEval::Exact);
    lut.run(6);
    reference.run(6);
    assert_ne!(
        lut.snapshot().states,
        reference.snapshot().states,
        "the model must tell LUT from exact evaluation"
    );
    streamed.run(2).unwrap();
    // Kill mid-step: 2 of 4 windows into step 3.
    streamed.step_windows(2).unwrap();
    let model = reference.model().clone();
    drop(streamed);
    let mut recovered = StreamSim::recover(model, cfg).unwrap();
    assert_eq!(recovered.eval_mode(), FuncEval::Exact);
    recovered.run(4).unwrap();
    assert_eq!(
        recovered.snapshot().unwrap().states,
        reference.snapshot().states
    );
    let _ = std::fs::remove_dir_all(&dir);
}
