//! Executes a benchmark setup on the fixed-point functional simulator.

use cenn_core::{
    AnySim, CennSim, FuncEval, Grid, LayerId, ModelError, StreamConfig, StreamError, StreamSim,
};
use cenn_lut::LutStats;

use crate::system::{PostStepRule, SystemSetup};

/// Drives a [`SystemSetup`] on the hardware-accurate fixed-point simulator,
/// applying initial conditions, external inputs, and the post-step rule
/// (spike resets) every step.
///
/// # Examples
///
/// ```
/// use cenn_equations::{DynamicalSystem, FixedRunner, Fisher};
///
/// let setup = Fisher::default().build(8, 16).unwrap();
/// let mut runner = FixedRunner::new(setup).unwrap();
/// runner.run(20);
/// assert_eq!(runner.steps(), 20);
/// ```
#[derive(Debug)]
pub struct FixedRunner {
    sim: CennSim,
    setup: SystemSetup,
    /// Streamed out-of-core engine, active once a memory budget is set.
    /// When present, it owns the live state; `sim` keeps the seeding
    /// state it was spooled from.
    stream: Option<StreamSim>,
}

impl FixedRunner {
    /// Creates a runner with LUT-based function evaluation (the hardware
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from simulator construction or from
    /// loading initial grids.
    pub fn new(setup: SystemSetup) -> Result<Self, ModelError> {
        Self::with_eval(setup, FuncEval::Lut)
    }

    /// Creates a runner with the chosen evaluation mode ([`FuncEval::Exact`]
    /// isolates fixed-point error for the §6.1 breakdown).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from simulator construction or from
    /// loading initial grids.
    pub fn with_eval(setup: SystemSetup, eval: FuncEval) -> Result<Self, ModelError> {
        let mut sim = CennSim::with_eval(setup.model.clone(), eval)?;
        for (layer, grid) in &setup.initial {
            sim.set_state_f64(*layer, grid)?;
        }
        for (layer, grid) in &setup.inputs {
            sim.set_input_f64(*layer, grid)?;
        }
        Ok(Self {
            sim,
            setup,
            stream: None,
        })
    }

    /// Switches the runner to streamed out-of-core execution under a
    /// resident-memory budget: the current state is spooled to
    /// `spool_dir` and every subsequent step sweeps the grid in bounded
    /// windows with halo exchange through the spool (see
    /// [`StreamSim`]). Results stay bit-identical to in-core execution
    /// at every thread count. The attached recorder/tracer and thread
    /// count carry over.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] for systems with a post-step rule
    /// (spike resets need whole-grid scans each step) or non-dynamic
    /// layers; [`StreamError::Io`] on spool failures.
    pub fn set_memory_budget(
        &mut self,
        bytes: u64,
        spool_dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), StreamError> {
        if self.setup.post_step.is_some() {
            return Err(StreamError::Unsupported(
                "post-step rules (spike resets) need in-core execution".into(),
            ));
        }
        let cfg = StreamConfig::new(spool_dir).with_memory_budget(bytes);
        let mut stream = StreamSim::from_sim(&self.sim, cfg)?;
        stream.set_threads(self.sim.threads());
        if let Some(rec) = self.sim.recorder() {
            stream.set_recorder(rec.clone());
        }
        if let Some(tr) = self.sim.tracer() {
            stream.set_tracer(tr.clone());
        }
        self.stream = Some(stream);
        Ok(())
    }

    /// The streamed engine, when a memory budget is active.
    pub fn stream(&self) -> Option<&StreamSim> {
        self.stream.as_ref()
    }

    /// The underlying in-core simulator. Once a memory budget is set it
    /// keeps the state the streamed engine was spooled from.
    pub fn sim(&self) -> &CennSim {
        &self.sim
    }

    /// Mutable access to the underlying in-core simulator (fault
    /// injection, mid-run state edits).
    pub fn sim_mut(&mut self) -> &mut CennSim {
        &mut self.sim
    }

    /// The engine holding the live state: the streamed one once a memory
    /// budget is set, the in-core one otherwise.
    pub fn live(&self) -> &AnySim {
        match &self.stream {
            Some(s) => s,
            None => &self.sim,
        }
    }

    fn live_mut(&mut self) -> &mut AnySim {
        match &mut self.stream {
            Some(s) => s,
            None => &mut self.sim,
        }
    }

    /// The setup this runner executes.
    pub fn setup(&self) -> &SystemSetup {
        &self.setup
    }

    /// Sets the worker-thread count of the simulator's tile sweeps.
    /// Results are bit-identical for any count.
    pub fn set_threads(&mut self, threads: usize) {
        self.sim.set_threads(threads);
        self.live_mut().set_threads(threads);
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.live().steps()
    }

    /// Advances one step and applies the post-step rule; returns the number
    /// of cells the rule fired on (spikes), or 0 when there is no rule.
    ///
    /// # Panics
    ///
    /// In streamed mode, on spool I/O failure (the journal still reflects
    /// the last completed window, so the spool remains recoverable).
    pub fn step(&mut self) -> usize {
        self.live_mut()
            .try_step()
            .expect("streamed step: spool I/O failed");
        // Post-step rules are rejected in streamed mode, so a rule always
        // applies to the in-core state.
        let Some(rule) = self.setup.post_step else {
            return 0;
        };
        apply_rule(rule, &mut self.sim)
    }

    /// Runs `n` steps; returns total fired cells.
    pub fn run(&mut self, n: u64) -> usize {
        (0..n).map(|_| self.step()).sum()
    }

    /// Runs `n` steps under a [`cenn_guard::Guard`]: the guard scrubs and
    /// checkpoints on its cadence, injects any scheduled faults, and
    /// recovers per its policy, while the setup's post-step rule (spike
    /// resets) is applied after every step exactly as [`step`](Self::step)
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates [`cenn_guard::GuardError`] when the guard aborts or
    /// cannot recover.
    pub fn run_guarded(
        &mut self,
        guard: &mut cenn_guard::Guard,
        n: u64,
    ) -> Result<cenn_guard::GuardReport, cenn_guard::GuardError> {
        assert!(
            self.stream.is_none(),
            "guarded execution is in-core only; streamed mode has its own \
             journal/spool recovery path"
        );
        let Self { sim, setup, .. } = self;
        guard.run_with(sim, n, |sim| {
            if let Some(rule) = setup.post_step {
                apply_rule(rule, sim);
            }
        })
    }

    /// A layer's state as `f64`.
    ///
    /// # Panics
    ///
    /// In streamed mode, on spool read failure.
    pub fn state_f64(&self, layer: LayerId) -> Grid<f64> {
        self.live()
            .try_state_f64(layer)
            .expect("streamed state: spool read")
    }

    /// The observed layers' states with their display names (the maps the
    /// Fig. 11 accuracy study compares).
    pub fn observed_states(&self) -> Vec<(&'static str, Grid<f64>)> {
        self.setup
            .observed
            .iter()
            .map(|(id, name)| (*name, self.state_f64(*id)))
            .collect()
    }

    /// Cumulative LUT statistics.
    pub fn lut_stats(&self) -> LutStats {
        self.live().lut_stats()
    }

    /// Measured `(mr_L1, mr_L2)`.
    pub fn miss_rates(&self) -> (f64, f64) {
        self.live().miss_rates()
    }

    /// Resets LUT statistics (after warm-up).
    pub fn reset_lut_stats(&mut self) {
        self.live_mut().reset_lut_stats();
    }

    /// Attaches a metric recorder to the simulator: every step emits a
    /// [`cenn_obs::StepMetrics`] event through it.
    pub fn set_recorder(&mut self, recorder: cenn_obs::RecorderHandle) {
        self.sim.set_recorder(recorder.clone());
        self.live_mut().set_recorder(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&cenn_obs::RecorderHandle> {
        self.sim.recorder()
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder). In streamed mode the summary carries the
    /// measured `peak_resident_bytes` / `spill_bytes` of the window
    /// engine.
    pub fn record_summary(&self) {
        self.live().record_summary();
    }

    /// Attaches a span tracer to the simulator: sweeps record
    /// phase-attributed spans (`lut_lookup`, `template_apply`,
    /// `integrate`, `halo_sync`) into its histograms.
    pub fn set_tracer(&mut self, tracer: cenn_obs::TraceHandle) {
        self.sim.set_tracer(tracer.clone());
        self.live_mut().set_tracer(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&cenn_obs::TraceHandle> {
        self.sim.tracer()
    }

    /// Emits one `span_summary` event per active phase (no-op without
    /// both a tracer and an enabled recorder).
    pub fn record_span_summaries(&self) {
        self.live().record_span_summaries();
    }
}

/// Applies a post-step rule to the in-core fixed-point states — read,
/// clip, write back, as the hardware comparator does in place; returns
/// the cells it fired on.
fn apply_rule(rule: PostStepRule, sim: &mut CennSim) -> usize {
    let n = sim.model().n_layers();
    let mut states: Vec<Grid<f64>> = (0..n)
        .map(|i| sim.state_f64(LayerId::from_index(i)))
        .collect();
    let fired = rule.apply_f64(&mut states);
    if fired > 0 {
        for (i, g) in states.iter().enumerate() {
            sim.set_state_f64(LayerId::from_index(i), g)
                .expect("shape preserved");
        }
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DynamicalSystem;
    use crate::{Heat, Izhikevich};

    #[test]
    fn runner_loads_initial_conditions() {
        let setup = Heat::default().build(9, 9).unwrap();
        let expected_peak = setup.initial[0].1.get(4, 4);
        let runner = FixedRunner::new(setup).unwrap();
        let (name, phi) = &runner.observed_states()[0];
        assert_eq!(*name, "phi");
        assert!((phi.get(4, 4) - expected_peak).abs() < 1e-4);
    }

    #[test]
    fn step_counts_spikes_only_for_hybrid_systems() {
        let setup = Heat::default().build(8, 8).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        assert_eq!(runner.step(), 0, "heat never 'fires'");

        let setup = Izhikevich::default().build(2, 2).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let fired = runner.run(1200);
        assert!(fired > 0, "izhikevich grid fired {fired} spikes");
    }

    #[test]
    fn memory_budget_mode_matches_in_core_states() {
        use crate::Fisher;
        let sys = Fisher::default();
        let mut in_core = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let mut streamed = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let spool = std::env::temp_dir().join(format!("cenn_runner_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        // Budget far below the full state slab forces several windows.
        streamed.set_memory_budget(8 * 1024, &spool).unwrap();
        let s = streamed.stream().unwrap();
        assert!(s.n_windows() > 1, "budget forces windowing");
        in_core.run(10);
        streamed.run(10);
        assert_eq!(streamed.steps(), 10);
        let a = in_core.state_f64(LayerId::from_index(0));
        let b = streamed.state_f64(LayerId::from_index(0));
        for r in 0..24 {
            for c in 0..16 {
                assert_eq!(a.get(r, c).to_bits(), b.get(r, c).to_bits());
            }
        }
        assert_eq!(in_core.lut_stats(), streamed.lut_stats());
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn reset_lut_stats_acts_on_the_streamed_engine() {
        use crate::Fisher;
        let sys = Fisher::default();
        let mut in_core = FixedRunner::new(sys.build(16, 12).unwrap()).unwrap();
        let mut streamed = FixedRunner::new(sys.build(16, 12).unwrap()).unwrap();
        let spool = std::env::temp_dir().join(format!("cenn_runner_reset_{}", std::process::id()));
        streamed.set_memory_budget(8 * 1024, &spool).unwrap();
        in_core.run(4);
        streamed.run(4);
        assert!(streamed.lut_stats().accesses > 0);
        streamed.reset_lut_stats();
        assert_eq!(streamed.lut_stats(), LutStats::default());
        in_core.reset_lut_stats();
        let bits = |r: &FixedRunner| -> Vec<u64> {
            let g = r.state_f64(LayerId::from_index(0));
            g.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&in_core),
            bits(&streamed),
            "the reset leaves states alone"
        );
        in_core.run(3);
        streamed.run(3);
        assert_eq!(bits(&in_core), bits(&streamed));
        assert_eq!(in_core.lut_stats(), streamed.lut_stats());
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn memory_budget_rejects_post_step_systems() {
        let setup = Izhikevich::default().build(4, 4).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let spool = std::env::temp_dir().join("cenn_runner_reject");
        assert!(runner.set_memory_budget(1 << 20, &spool).is_err());
        assert!(runner.stream().is_none());
    }

    #[test]
    fn eval_modes_produce_different_trajectories_for_lut_heavy_systems() {
        use crate::HodgkinHuxley;
        let sys = HodgkinHuxley {
            coupling: 0.0,
            ..Default::default()
        };
        let a = FixedRunner::with_eval(sys.build(1, 1).unwrap(), FuncEval::Lut).unwrap();
        let b = FixedRunner::with_eval(sys.build(1, 1).unwrap(), FuncEval::Exact).unwrap();
        let (mut a, mut b) = (a, b);
        a.run(500);
        b.run(500);
        let va = a.observed_states()[0].1.get(0, 0);
        let vb = b.observed_states()[0].1.get(0, 0);
        // Exp-based rate LUTs introduce a visible (but bounded) deviation.
        assert!(va != vb, "LUT error must be visible for HH");
        assert!((va - vb).abs() < 30.0, "but bounded: {va} vs {vb}");
    }
}
