//! Metric names, the per-run outcome, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds this table to `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`). Timings
/// are CPU time of the whole process (see [`crate::host::cpu_s`]).
pub const END_TO_END: &[Metric] = &[
    m("cell_steps_per_cpu_s", "1/s", "higher"),
    m("op_cpu_ms_p50", "ms", "lower"),
    m("op_cpu_ms_p90", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, measured by a separate traced run (`--trace 1`).
/// Every workload measures every layer (see README.md).
pub const PER_LAYER: &[Metric] = &[
    m("host.available_parallelism", "count", "higher"),
    m("host.calibration_ms", "ms", "lower"),
    m("fixedpt.mac_lanes_ns_per_lane", "ns", "lower"),
    m("fixedpt.resolve_lanes_ns_per_lane", "ns", "lower"),
    m("lut.lookup_row_ns_per_cell", "ns", "lower"),
    m("lut.accesses_per_step", "count", "lower"),
    m("lut.l1_miss_rate", "ratio", "lower"),
    m("lut.l2_miss_rate", "ratio", "lower"),
    m("core.lut_lookup_ms_per_step", "ms", "lower"),
    m("core.template_apply_ms_per_step", "ms", "lower"),
    m("core.integrate_ms_per_step", "ms", "lower"),
    m("core.halo_sync_ms_per_step", "ms", "lower"),
    m("core.unattributed_frac", "ratio", "lower"),
    m("core.spans_per_step", "count", "lower"),
    m("exec.speedup_2t", "ratio", "higher"),
    m("stream.window_ms_p50", "ms", "lower"),
    m("stream.windows_per_step", "count", "lower"),
    m("stream.spill_bytes_per_step", "bytes", "lower"),
    m("stream.fill_bytes_per_step", "bytes", "lower"),
    m("stream.peak_resident_bytes", "bytes", "lower"),
    m("stream.write_syscalls_per_step", "count", "lower"),
    m("stream.sys_cpu_frac", "ratio", "lower"),
    m("stream.slowdown_vs_incore", "ratio", "lower"),
    m("serve.frame_roundtrip_ns", "ns", "lower"),
    m("serve.quantum_ms_p50", "ms", "lower"),
    m("serve.quanta", "count", "lower"),
    m("serve.compute_frac", "ratio", "higher"),
    m("serve.submit_ms_p50", "ms", "lower"),
    m("serve.suspend_ms_p50", "ms", "lower"),
    m("serve.resume_ms_p50", "ms", "lower"),
    m("arch.model_step_us", "us", "lower"),
    m("arch.stall_frac", "ratio", "lower"),
    m("arch.host_over_model", "ratio", "lower"),
    m("equations.build_ms", "ms", "lower"),
    m("core.runner_new_ms", "ms", "lower"),
    m("stream.spool_init_ms", "ms", "lower"),
    m("obs.trace_overhead_frac", "ratio", "lower"),
];

/// What one run produced: its op count, every check it failed, and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a measured value (the last write of a name wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A recorded value.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed check. Any failure fails every op of the run.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Failed ops: a typed error reply, a client error, a digest mismatch
    /// or a count drift anywhere in the run fails all of them.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            0
        } else {
            self.attempted()
        }
    }

    /// Attempted ops, at least 1 (a run that failed before its first op
    /// still attempted the workload).
    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    /// `failed / attempted`.
    pub fn ops_failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted() as f64
    }

    /// The final stdout line. A failed run reports no metrics, so a
    /// mismatch is never read as a timing. Every metric of the mode's
    /// table must have been measured, as a finite number.
    pub fn result_line(&mut self, table: &[Metric]) -> String {
        if self.correct() {
            for metric in table {
                match self.metrics.get(metric.name) {
                    Some(v) if v.is_finite() => {}
                    Some(v) => self.fail(format!("metric {} is not finite: {v}", metric.name)),
                    None => self.fail(format!("metric {} was not measured", metric.name)),
                }
            }
        }
        let metrics: Vec<String> = if self.correct() {
            table
                .iter()
                .map(|metric| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        metric.name, self.metrics[metric.name], metric.unit
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Op latencies in a fixed-size histogram of 128 log-spaced buckets per
/// octave (about 0.5% wide), so the run's memory does not grow with its
/// op count. A quantile interpolates within its bucket.
#[derive(Debug, Clone)]
pub struct Latencies {
    counts: Vec<u64>,
    n: u64,
    sum: f64,
}

/// Buckets per octave of nanoseconds.
const PER_OCTAVE: f64 = 128.0;
/// Octaves covered, from 1 ns.
const OCTAVES: usize = 44;

impl Default for Latencies {
    fn default() -> Self {
        Self {
            counts: vec![0; OCTAVES * PER_OCTAVE as usize],
            n: 0,
            sum: 0.0,
        }
    }
}

impl Latencies {
    /// Records one latency in seconds.
    pub fn record(&mut self, seconds: f64) {
        let ns = (seconds * 1e9).max(1.0);
        let last = self.counts.len() - 1;
        self.counts[((ns.log2() * PER_OCTAVE) as usize).min(last)] += 1;
        self.n += 1;
        self.sum += seconds;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of the recorded latencies, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile in seconds (nearest rank, interpolated inside its
    /// bucket); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0;
        for (bucket, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let frac = ((rank - below) as f64 - 0.5) / c as f64;
                return ((bucket as f64 + frac) / PER_OCTAVE).exp2() / 1e9;
            }
            below += c;
        }
        unreachable!("rank is at most the count")
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn latency_quantiles_are_within_half_a_percent() {
        let mut lat = Latencies::default();
        for i in 1..=1000 {
            lat.record(f64::from(i) * 1e-6);
        }
        assert_eq!(lat.count(), 1000);
        assert!((lat.sum() - 0.5005).abs() < 1e-9);
        for (q, exact) in [(0.5, 500e-6), (0.9, 900e-6), (0.99, 990e-6)] {
            let got = lat.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.005, "q{q}: {got} vs {exact}");
        }
        assert_eq!(Latencies::default().quantile(0.5), 0.0);
    }

    #[test]
    fn a_failed_check_fails_every_op_and_reports_no_metrics() {
        let mut out = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        for metric in END_TO_END {
            out.set(metric.name, 1.5);
        }
        assert_eq!(out.ops_failed_frac(), 0.0);
        assert!(out.result_line(END_TO_END).contains("\"op_cpu_ms_p50\""));
        out.fail("digest mismatch");
        assert_eq!(out.failed(), 40);
        assert_eq!(out.ops_failed_frac(), 1.0);
        assert_eq!(
            out.result_line(END_TO_END),
            "{\"correct\": false, \"attempted\": 40, \"failed\": 40, \"metrics\": {}}"
        );
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        let line = out.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
