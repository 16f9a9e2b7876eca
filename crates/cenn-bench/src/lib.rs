//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig8_dataflow` | §5.1 dataflow comparison, eqs. (11)–(12) |
//! | `fig11_accuracy` | Fig. 11 accuracy table + error breakdown |
//! | `fig12_missrate` | Fig. 12 miss rate vs LUT capacity |
//! | `fig13_speedup` | Fig. 13 speedup vs CPU/GPU with DDR3 |
//! | `fig14_hmc` | Fig. 14 HMC-EXT / HMC-INT speedups |
//! | `table1_pe_power` | Table 1 PE-array power/area |
//! | `table2_system_power` | Table 2 system power/area + GPU comparison |
//! | `table3_comparison` | Table 3 cross-platform comparison |

use cenn::equations::{DynamicalSystem, FixedRunner, SystemSetup};
use cenn::obs::{Event, InMemoryRecorder, RecorderHandle, RunSummary, TraceHandle};
use std::sync::{Arc, Mutex};

/// Default grid side for the performance experiments (kept at a size the
/// functional simulator sweeps quickly; the cycle model scales exactly
/// with cell count).
pub const PERF_SIDE: usize = 128;

/// Default grid side for miss-rate probes (state distribution, not grid
/// size, drives LUT locality).
pub const PROBE_SIDE: usize = 32;

/// Runs the functional simulator for `warmup` steps, resets the LUT
/// statistics, runs `steps` more and returns the `run_summary` event the
/// solver recorded for them. Its `mr_l1`/`mr_l2` are the measured miss
/// rates — the paper's "extracted from \[functional\] simulation and fed
/// to the simulator" step (§6.3) — bit-identical to the runner's own
/// counters. An optional span tracer rides along, so figure binaries
/// invoked with `--trace-out` capture real sweep/LUT spans.
pub fn measured_summary(
    setup: &SystemSetup,
    warmup: u64,
    steps: u64,
    tracer: Option<TraceHandle>,
) -> RunSummary {
    let mut runner = FixedRunner::new(setup.clone()).expect("runner");
    if let Some(tr) = tracer {
        runner.set_tracer(tr);
    }
    runner.run(warmup);
    runner.reset_lut_stats();
    let (handle, reader) = RecorderHandle::in_memory(true);
    runner.set_recorder(handle);
    runner.run(steps);
    runner.record_summary();
    let rec = reader.lock().expect("recorder lock");
    rec.summary().expect("run_summary event").clone()
}

/// Observability plumbing shared by the figure binaries: parses the
/// `--metrics-out FILE` / `--trace-out FILE` flags (the same names the
/// `cenn run` CLI uses), exposes an optional [`TraceHandle`] and event
/// recorder while the experiment runs, and writes the JSONL metrics
/// stream plus a Chrome trace-event file when the binary finishes.
pub struct BenchObs {
    metrics_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    tracer: Option<TraceHandle>,
    reader: Option<Arc<Mutex<InMemoryRecorder>>>,
    handle: Option<RecorderHandle>,
}

impl BenchObs {
    /// Parses the binary's command line. Unknown flags abort with a usage
    /// message so a typo never silently drops an artifact.
    pub fn from_cli() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(obs) => obs,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: <figure-binary> [--metrics-out FILE] [--trace-out FILE]");
                std::process::exit(2);
            }
        }
    }

    /// Flag parsing behind [`BenchObs::from_cli`], split out for tests.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut metrics_out = None;
        let mut trace_out = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let slot = match arg.as_str() {
                "--metrics-out" => &mut metrics_out,
                "--trace-out" => &mut trace_out,
                other => return Err(format!("unknown argument `{other}`")),
            };
            let value = it.next().ok_or_else(|| format!("{arg} needs a FILE"))?;
            *slot = Some(std::path::PathBuf::from(value));
        }
        let tracer = trace_out.as_ref().map(|_| TraceHandle::full());
        let (handle, reader) = match metrics_out {
            Some(_) => {
                let (h, r) = RecorderHandle::in_memory(false);
                (Some(h), Some(r))
            }
            None => (None, None),
        };
        Ok(Self {
            metrics_out,
            trace_out,
            tracer,
            reader,
            handle,
        })
    }

    /// Span tracer to attach to solver runs; `Some` iff `--trace-out`.
    pub fn tracer(&self) -> Option<TraceHandle> {
        self.tracer.clone()
    }

    /// Records an event into the metrics stream (no-op without
    /// `--metrics-out`).
    pub fn record(&self, event: &Event) {
        if let Some(handle) = &self.handle {
            handle.record(event);
        }
    }

    /// Writes the requested artifacts and prints where they went. Call
    /// once at the end of `main`.
    pub fn finish(self) -> std::io::Result<()> {
        if let (Some(tracer), Some(handle)) = (&self.tracer, &self.handle) {
            // Fold the aggregated per-phase histograms into the JSONL
            // stream as span_summary events before serializing.
            tracer.record_summaries(handle);
        }
        if let (Some(path), Some(reader)) = (&self.metrics_out, &self.reader) {
            let rec = reader.lock().expect("recorder lock");
            std::fs::write(path, rec.to_jsonl())?;
            eprintln!(
                "wrote {} metrics events to {}",
                rec.events().len(),
                path.display()
            );
        }
        if let (Some(path), Some(tracer)) = (&self.trace_out, &self.tracer) {
            tracer.write_chrome_trace(path)?;
            eprintln!("wrote Chrome trace to {}", path.display());
        }
        Ok(())
    }
}

/// Geometric mean (the paper's "on average" for speedups).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Builds a probe (small) and a perf (large) setup for a benchmark.
pub fn probe_and_perf(sys: &dyn DynamicalSystem) -> (SystemSetup, SystemSetup) {
    (
        sys.build(PROBE_SIDE, PROBE_SIDE).expect("probe build"),
        sys.build(PERF_SIDE, PERF_SIDE).expect("perf build"),
    )
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn::equations::Fisher;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_probe_returns_valid_rates() {
        let setup = Fisher::default().build(16, 16).unwrap();
        let s = measured_summary(&setup, 2, 5, None);
        assert!((0.0..=1.0).contains(&s.mr_l1));
        assert!((0.0..=1.0).contains(&s.mr_l2));
        assert!((0.0..=1.0).contains(&s.mr_combined));
    }

    #[test]
    fn recorder_path_matches_direct_counters_exactly() {
        let setup = Fisher::default().build(16, 16).unwrap();
        let mut runner = FixedRunner::new(setup.clone()).unwrap();
        runner.run(2);
        runner.reset_lut_stats();
        runner.run(5);
        let (mr1, mr2) = runner.miss_rates();
        let s = measured_summary(&setup, 2, 5, None);
        assert_eq!(
            mr1.to_bits(),
            s.mr_l1.to_bits(),
            "mr_L1 must be bit-identical"
        );
        assert_eq!(
            mr2.to_bits(),
            s.mr_l2.to_bits(),
            "mr_L2 must be bit-identical"
        );
        assert_eq!(s.steps, 7, "warmup + measured steps");
        assert!(s.accesses > 0);
    }

    #[test]
    fn bench_obs_rejects_unknown_flags() {
        assert!(BenchObs::parse(["--bogus".to_string()]).is_err());
        assert!(BenchObs::parse(["--metrics-out".to_string()]).is_err());
    }

    #[test]
    fn bench_obs_writes_metrics_and_chrome_trace() {
        let dir = std::env::temp_dir().join("cenn_bench_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.jsonl");
        let trace = dir.join("t.json");
        let obs = BenchObs::parse([
            "--metrics-out".to_string(),
            metrics.display().to_string(),
            "--trace-out".to_string(),
            trace.display().to_string(),
        ])
        .unwrap();
        let setup = Fisher::default().build(12, 12).unwrap();
        let summary = measured_summary(&setup, 1, 3, obs.tracer());
        obs.record(&Event::RunSummary(summary));
        obs.finish().unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("run_summary"), "summary event in stream");
        assert!(text.contains("span_summary"), "tracer folded into stream");
        for line in text.lines() {
            cenn::obs::validate_jsonl_line(line).expect("valid JSONL event");
        }
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_and_perf_sizes() {
        let sys = Fisher::default();
        let (probe, perf) = probe_and_perf(&sys);
        assert_eq!(probe.model.rows(), PROBE_SIDE);
        assert_eq!(perf.model.rows(), PERF_SIDE);
    }
}
