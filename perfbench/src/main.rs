//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, pinned to
//! one CPU and timed by the process CPU clock; `--trace 1` is the separate
//! traced run that reports the per-layer metrics. The
//! last stdout line is the result object; the line before it is the host
//! fingerprint. See README.md for the workloads and the metric map.

mod host;
mod pins;
mod probes;
mod report;
mod serve;
mod solve;

use std::path::PathBuf;

use report::{END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["streamed-fisher1024", "streamed-grayscott512"];

/// What one run is asked to do.
#[derive(Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed ops run.
    pub seconds: f64,
    /// Scratch directory (spools) inside the working directory.
    pub tmp: PathBuf,
}

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| bad(&format!("not one of {WORKLOADS:?}")))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let scratch = Scratch(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        tmp: scratch.0.clone(),
    };
    let mut host = host::Fingerprint::measure();
    if !args.trace {
        // The end-to-end run only: the traced run times two sweep threads
        // and serves a session from a server with two workers.
        host.pinned_cpu = host::pin_to_one_cpu();
    }
    println!("{}", host.json());

    let (spec, pins) = match args.workload {
        "streamed-fisher1024" => (solve::FISHER1024, pins::FISHER1024),
        _ => (solve::GRAYSCOTT512, pins::GRAYSCOTT512),
    };
    let mut out = if args.trace {
        solve::trace(spec, &cfg, pins)
    } else {
        solve::run(spec, &cfg, pins)
    };
    drop(scratch);
    if args.trace {
        out.set(
            "host.available_parallelism",
            host.available_parallelism as f64,
        );
        out.set("host.calibration_ms", host.calibration_ms);
    }
    let line = out.result_line(if args.trace { PER_LAYER } else { END_TO_END });
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops attempted, {} failed (ops_failed_frac {})",
        args.workload,
        args.seed,
        out.attempted(),
        out.failed(),
        out.ops_failed_frac()
    );
    println!("{line}");
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_obs::JsonValue;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(list: &JsonValue) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_unique_and_match_the_manifest() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");

        let manifest =
            cenn_obs::parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let workloads = names(manifest.get("workloads").unwrap());
        assert_eq!(workloads, WORKLOADS);
        let e2e = manifest.get("end_to_end").unwrap();
        assert_eq!(
            names(e2e),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let layers = manifest.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (list, table) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
            for (entry, metric) in list.as_array().unwrap().iter().zip(table) {
                assert_eq!(
                    entry.get("unit").and_then(JsonValue::as_str),
                    Some(metric.unit)
                );
                assert_eq!(
                    entry.get("better").and_then(JsonValue::as_str),
                    Some(metric.better)
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload streamed-grayscott512 --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("streamed-grayscott512", 3, 2.5, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload streamed-grayscott512").is_err());
        assert!(args("--workload streamed-grayscott512 --seed 1 --trace 2").is_err());
        assert!(args("--workload streamed-grayscott512 --seed 1 --seconds 0").is_err());
    }
}
