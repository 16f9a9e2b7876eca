//! The workloads: `streamed-fisher1024` and `streamed-grayscott512`.
//!
//! Fisher's equation on a 1024² grid under a 4 MiB resident-memory
//! budget, or Gray-Scott on a 512² grid under 2 MiB, streamed through a
//! spool. A run repeats *episodes*: the runner
//! spools the seeded initial state afresh and advances a fixed number of
//! steps, each step one timed op. Every episode ends on the same state,
//! so every episode's digest is checked. Every episode also starts a fresh
//! streamed engine, so its exact counts (LUT accesses, hits and misses,
//! spill and fill bytes) must repeat from one episode to the next.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cenn_core::{SimSnapshot, StreamConfig, StreamSim};
use cenn_equations::{DynamicalSystem, Fisher, FixedRunner, GrayScott, SystemSetup};
use cenn_lut::LutStats;
use cenn_obs::{Phase, TraceHandle};
use cenn_serve::{snapshot_digest, state_digest};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::host;
use crate::probes;
use crate::report::{median, secs, Latencies, Outcome};
use crate::RunCfg;

/// The workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    /// The system, by its menu name.
    pub system: &'static str,
    /// Square grid side.
    pub side: usize,
    /// Steps per episode.
    pub episode: u64,
    /// Set-up repetitions of the traced run, which give the set-up parts.
    /// (The timed run sets up afresh for every episode.)
    pub setups: usize,
    /// Resident-memory budget in bytes.
    pub budget: u64,
}

/// `streamed-fisher1024`: 48 chunk rows × 22 windows.
pub const FISHER1024: SolveSpec = SolveSpec {
    system: "fisher",
    side: 1024,
    episode: 8,
    setups: 12,
    budget: 4 << 20,
};

/// `streamed-grayscott512`: 29 chunk rows × 18 windows.
pub const GRAYSCOTT512: SolveSpec = SolveSpec {
    system: "gray-scott",
    side: 512,
    episode: 8,
    setups: 12,
    budget: 2 << 20,
};

/// The seeded inputs of `system` on a `side`² grid.
pub fn setup_for(system: &str, side: usize, seed: u64) -> Result<SystemSetup, String> {
    match system {
        "fisher" => fisher_setup(side, seed),
        "gray-scott" => GrayScott {
            seed,
            ..GrayScott::default()
        }
        .build(side, side)
        .map_err(|e| format!("building gray-scott: {e}")),
        _ => Err(format!("no seeded inputs for {system}")),
    }
}

/// Fisher's invasion front with a seeded ragged edge and seeded dents
/// behind it.
fn fisher_setup(side: usize, seed: u64) -> Result<SystemSetup, String> {
    let mut setup = Fisher::default()
        .build(side, side)
        .map_err(|e| format!("building fisher: {e}"))?;
    let front = &mut setup.initial[0].1;
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, cols) = (front.rows(), front.cols());
    let jitter = (cols / 64).max(1) as i64;
    for r in 0..rows {
        let edge = (cols / 8 + 1) as i64 + rng.gen_range(-jitter..=jitter);
        for c in 0..cols {
            let v = if (c as i64) < edge {
                1.0 - rng.gen_range(0.0..0.05)
            } else {
                0.0
            };
            front.set(r, c, v);
        }
    }
    Ok(setup)
}

/// Exact counts of one episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    lut: LutStats,
    spill: u64,
    fill: u64,
    /// Spans recorded; 0 for an untraced episode.
    spans: u64,
}

impl Counts {
    fn since(&self, before: &Counts) -> Counts {
        Counts {
            lut: self.lut.since(&before.lut),
            spill: self.spill - before.spill,
            fill: self.fill - before.fill,
            spans: self.spans - before.spans,
        }
    }
}

struct Episode {
    digest: u64,
    counts: Counts,
    /// Sum of the steps' wall times.
    wall: f64,
    /// Write syscalls and `(utime, stime)` ticks of the step loop alone.
    write_calls: u64,
    ticks: (u64, u64),
}

/// A built workload: the runner plus what resetting it needs.
struct Engine {
    spec: SolveSpec,
    runner: FixedRunner,
    spool: PathBuf,
    initial: SimSnapshot,
    tracer: Option<TraceHandle>,
}

/// Set-up times of one repetition, in CPU seconds (see [`host::cpu_s`]).
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    build: f64,
    runner_new: f64,
    spool_init: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build + self.runner_new + self.spool_init
    }
}

impl Engine {
    /// Builds the system and the runner, and spools the seed state.
    fn set_up(spec: SolveSpec, seed: u64, spool: &Path) -> Result<(Self, SetupTimes), String> {
        let _ = std::fs::remove_dir_all(spool);
        let t = host::cpu_s();
        let setup = setup_for(spec.system, spec.side, seed)?;
        let build = host::cpu_s() - t;
        let t = host::cpu_s();
        let mut runner = FixedRunner::new(setup).map_err(|e| format!("runner: {e}"))?;
        runner.set_threads(1);
        let runner_new = host::cpu_s() - t;
        let t = host::cpu_s();
        runner
            .set_memory_budget(spec.budget, spool)
            .map_err(|e| format!("memory budget: {e}"))?;
        let spool_init = host::cpu_s() - t;
        let initial = runner.sim().snapshot();
        let engine = Self {
            spec,
            runner,
            spool: spool.to_path_buf(),
            initial,
            tracer: None,
        };
        Ok((
            engine,
            SetupTimes {
                build,
                runner_new,
                spool_init,
            },
        ))
    }

    /// Times `n` set-ups, dropping each engine.
    fn time_setups(
        n: usize,
        spec: SolveSpec,
        seed: u64,
        spool: &Path,
        times: &mut Vec<SetupTimes>,
    ) -> Result<(), String> {
        for _ in 0..n {
            times.push(Self::set_up(spec, seed, spool)?.1);
        }
        Ok(())
    }

    fn stream(&self) -> &StreamSim {
        self.runner
            .stream()
            .expect("set-up gives the runner a memory budget")
    }

    fn counts(&self) -> Counts {
        let spans = self.tracer.as_ref().map_or(0, |t| {
            t.with(|c| Phase::ALL.iter().map(|&p| c.phase_count(p)).sum())
        });
        Counts {
            lut: self.runner.lut_stats(),
            spill: self.stream().spill_bytes(),
            fill: self.stream().fill_bytes(),
            spans,
        }
    }

    /// Spools the seed state afresh, on a fresh streamed engine.
    fn respool(&mut self) -> Result<(), String> {
        self.runner
            .set_memory_budget(self.spec.budget, &self.spool)
            .map_err(|e| format!("re-spool: {e}"))
    }

    /// One episode from the seed state, which the spool must hold (after
    /// a set-up or [`respool`](Self::respool)); each step's CPU time is
    /// recorded in `lat`.
    fn episode(&mut self, lat: &mut Latencies) -> Result<Episode, String> {
        let before = self.counts();
        let (calls, ticks) = (host::write_syscalls(), host::cpu_ticks());
        let mut wall = 0.0;
        for _ in 0..self.spec.episode {
            let (t, cpu) = (Instant::now(), host::cpu_s());
            self.runner.step();
            lat.record(host::cpu_s() - cpu);
            wall += secs(t.elapsed());
        }
        let ticks_after = host::cpu_ticks();
        let write_calls = host::write_syscalls() - calls;
        let snap = self
            .stream()
            .snapshot()
            .map_err(|e| format!("spool snapshot: {e}"))?;
        Ok(Episode {
            counts: self.counts().since(&before),
            digest: snapshot_digest(&snap),
            wall,
            write_calls,
            ticks: (ticks_after.0 - ticks.0, ticks_after.1 - ticks.1),
        })
    }

    /// The digest an episode must end on, with the time it took in core:
    /// the runner's in-core simulator steps one episode from the seed
    /// state. That consumes the seed state the episodes spool from, so it
    /// runs last. Held to the seed's pin, when `pins` has one.
    fn in_core_reference(
        &mut self,
        seed: u64,
        pins: &[(u64, u64)],
        out: &mut Outcome,
    ) -> Result<(u64, f64), String> {
        let sim = self.runner.sim_mut();
        sim.clear_tracer();
        sim.restore(&self.initial)
            .map_err(|e| format!("restore: {e}"))?;
        let t = Instant::now();
        for _ in 0..self.spec.episode {
            sim.step();
        }
        let wall = secs(t.elapsed());
        let digest = state_digest(sim);
        match pins.iter().find(|(s, _)| *s == seed) {
            Some(&(_, pin)) => {
                if pin != digest {
                    out.fail(format!(
                        "seed {seed}: the in-core run ended on {digest:016x}, expected the pinned {pin:016x}"
                    ));
                }
                Ok((pin, wall))
            }
            None => Ok((digest, wall)),
        }
    }
}

fn check_digests(out: &mut Outcome, digests: &[u64], expected: u64) {
    for (i, d) in digests.iter().enumerate() {
        if *d != expected {
            out.fail(format!(
                "episode {i} ended on digest {d:016x}, expected {expected:016x}"
            ));
        }
    }
}

fn check_repeat(out: &mut Outcome, first: &Counts, again: &Counts) {
    if first != again {
        out.fail(format!(
            "exact counts drifted between episodes: {first:?} then {again:?}"
        ));
    }
}

/// The timed run sets up afresh every `FRESH_EVERY` episodes, timing
/// `SETUPS_EACH` set-ups each time.
const FRESH_EVERY: usize = 4;
const SETUPS_EACH: usize = 3;

/// Rounds of the traced run (untraced, two-thread, traced episodes).
const TRACED_ROUNDS: usize = 3;

/// The timed run: end-to-end metrics.
pub fn run(spec: SolveSpec, cfg: &RunCfg, pins: &[(u64, u64)]) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(spec, cfg, pins, &mut out) {
        out.fail(e);
    }
    out
}

fn measure(
    spec: SolveSpec,
    cfg: &RunCfg,
    pins: &[(u64, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let spool = cfg.tmp.join("spool");
    let (mut engine, times) = Engine::set_up(spec, cfg.seed, &spool)?;
    let mut setups = vec![times];
    let warm = engine.episode(&mut Latencies::default())?;
    let mut digests = vec![warm.digest];
    let mut lat = Latencies::default();
    let start = Instant::now();
    for n in 1.. {
        if lat.count() > 0 && secs(start.elapsed()) >= cfg.seconds {
            break;
        }
        if n % FRESH_EVERY == 0 {
            // Set-ups spread over the run, under the same host load as the
            // timed ops; the last one's engine runs the next episodes.
            drop(engine);
            Engine::time_setups(SETUPS_EACH - 1, spec, cfg.seed, &spool, &mut setups)?;
            let (fresh, times) = Engine::set_up(spec, cfg.seed, &spool)?;
            engine = fresh;
            setups.push(times);
        } else {
            engine.respool()?;
        }
        let ep = engine.episode(&mut lat)?;
        out.attempted = lat.count();
        digests.push(ep.digest);
        check_repeat(out, &warm.counts, &ep.counts);
    }
    let (expected, _) = engine.in_core_reference(cfg.seed, pins, out)?;
    check_digests(out, &digests, expected);

    let cells = (spec.side * spec.side) as f64;
    out.set(
        "cell_steps_per_cpu_s",
        cells * lat.count() as f64 / lat.sum(),
    );
    out.set("op_cpu_ms_p50", lat.quantile(0.50) * 1e3);
    out.set("op_cpu_ms_p90", lat.quantile(0.90) * 1e3);
    out.set(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
    );
    out.set("peak_rss_mb", host::peak_rss_mb());
    Ok(())
}

/// The traced run: per-layer metrics.
pub fn trace(spec: SolveSpec, cfg: &RunCfg, pins: &[(u64, u64)]) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure_layers(spec, cfg, pins, &mut out) {
        out.fail(e);
    }
    out
}

fn measure_layers(
    spec: SolveSpec,
    cfg: &RunCfg,
    pins: &[(u64, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let spool = cfg.tmp.join("spool");
    let mut setups = Vec::new();
    Engine::time_setups(spec.setups, spec, cfg.seed, &spool, &mut setups)?;
    let (mut engine, times) = Engine::set_up(spec, cfg.seed, &spool)?;
    setups.push(times);
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("equations.build_ms", med(|t| t.build) * 1e3);
    out.set("core.runner_new_ms", med(|t| t.runner_new) * 1e3);
    out.set("stream.spool_init_ms", med(|t| t.spool_init) * 1e3);
    let k = spec.episode as f64;
    let mut lat = Latencies::default();
    let first = engine.episode(&mut lat)?;
    let mut digests = vec![first.digest];

    // Kernel probes on a captured mid-grid state row.
    let snap = engine
        .stream()
        .snapshot()
        .map_err(|e| format!("spool snapshot: {e}"))?;
    let row = spec.side / 2;
    let cols = spec.side;
    let (mac, resolve) = probes::lane_kernels(&snap.states[0][row * cols..(row + 1) * cols]);
    out.set("fixedpt.mac_lanes_ns_per_lane", mac);
    out.set("fixedpt.resolve_lanes_ns_per_lane", resolve);
    let model = engine.runner.sim().model().clone();
    out.set(
        "lut.lookup_row_ns_per_cell",
        probes::lookup_row(&model, &snap, row).unwrap_or(0.0),
    );

    // Window probe on an engine of its own, so the runner's spool and
    // counters stay as the episodes left them.
    let dir = cfg.tmp.join("window-probe");
    let mut probe = StreamSim::from_sim(
        engine.runner.sim(),
        StreamConfig::new(&dir).with_memory_budget(spec.budget),
    )
    .map_err(|e| e.to_string())?;
    let windows = probe.n_windows() * model.integrator().passes() as usize;
    let mut times = Vec::with_capacity(2 * windows);
    for _ in 0..2 * windows {
        let t = Instant::now();
        probe.step_windows(1).map_err(|e| e.to_string())?;
        times.push(secs(t.elapsed()));
    }
    drop(probe);
    let _ = std::fs::remove_dir_all(&dir);
    out.set("stream.window_ms_p50", median(&times) * 1e3);
    out.set("stream.windows_per_step", windows as f64);

    // Rounds of an untraced episode, a two-thread episode and a traced
    // episode, so that each ratio compares episodes run under the same
    // host load; the ratios use medians over the rounds. Every episode
    // repeats the first one's counts (thread count changes none of them),
    // and the traced ones repeat their span counts.
    let tracer = TraceHandle::histograms_only();
    let (mut plain, mut two, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write_calls, mut utime, mut stime) = (0, 0, 0);
    let mut spans = None;
    for _ in 0..TRACED_ROUNDS {
        engine.respool()?;
        let ep = engine.episode(&mut lat)?;
        check_repeat(out, &first.counts, &ep.counts);
        digests.push(ep.digest);
        plain.push(ep.wall);
        engine.runner.set_threads(2);
        engine.respool()?;
        let ep = engine.episode(&mut lat)?;
        engine.runner.set_threads(1);
        check_repeat(out, &first.counts, &ep.counts);
        digests.push(ep.digest);
        two.push(ep.wall);
        engine.runner.set_tracer(tracer.clone());
        engine.tracer = Some(tracer.clone());
        engine.respool()?;
        let ep = engine.episode(&mut lat)?;
        write_calls += ep.write_calls;
        utime += ep.ticks.0;
        stime += ep.ticks.1;
        // Each episode's fresh engine takes the tracer from the in-core
        // simulator, so clearing it there detaches both.
        engine.runner.sim_mut().clear_tracer();
        engine.tracer = None;
        let untraced = Counts {
            spans: 0,
            ..ep.counts
        };
        check_repeat(out, &first.counts, &untraced);
        if *spans.get_or_insert(ep.counts.spans) != ep.counts.spans {
            out.fail(format!(
                "span counts drifted between traced episodes: {spans:?} then {}",
                ep.counts.spans
            ));
        }
        digests.push(ep.digest);
        traced.push(ep.wall);
    }
    let untraced_wall = median(&plain);
    out.set("exec.speedup_2t", untraced_wall / median(&two));
    let traced_steps = TRACED_ROUNDS as f64 * k;
    probes::phase_metrics(
        &tracer,
        traced.iter().sum(),
        TRACED_ROUNDS as u64 * spec.episode,
        out,
    );
    out.set(
        "obs.trace_overhead_frac",
        median(&traced) / untraced_wall - 1.0,
    );

    let lut = first.counts.lut;
    out.set("lut.accesses_per_step", lut.accesses as f64 / k);
    out.set("lut.l1_miss_rate", lut.l1_miss_rate());
    out.set("lut.l2_miss_rate", lut.l2_miss_rate());
    let (model_us, stall) = probes::arch_model(&model, (lut.l1_miss_rate(), lut.l2_miss_rate()));
    out.set("arch.model_step_us", model_us);
    out.set("arch.stall_frac", stall);
    out.set(
        "arch.host_over_model",
        untraced_wall / k / (model_us * 1e-6),
    );

    out.set("stream.spill_bytes_per_step", first.counts.spill as f64 / k);
    out.set("stream.fill_bytes_per_step", first.counts.fill as f64 / k);
    out.set(
        "stream.peak_resident_bytes",
        engine.stream().peak_resident_bytes() as f64,
    );
    out.set(
        "stream.write_syscalls_per_step",
        write_calls as f64 / traced_steps,
    );
    out.set(
        "stream.sys_cpu_frac",
        stime as f64 / (utime + stime).max(1) as f64,
    );

    let (expected, in_core_wall) = engine.in_core_reference(cfg.seed, pins, out)?;
    check_digests(out, &digests, expected);
    out.set("stream.slowdown_vs_incore", untraced_wall / in_core_wall);
    out.attempted = lat.count();

    // The service layer, serving the workload's system at its size.
    crate::serve::session_probe(spec.system, spec.side as u32, &cfg.tmp, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: SolveSpec = SolveSpec {
        system: "fisher",
        side: 32,
        episode: 3,
        setups: 2,
        budget: 8 * 1024,
    };

    fn cfg(name: &str, seed: u64) -> RunCfg {
        RunCfg {
            seed,
            seconds: 0.2,
            tmp: std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id())),
        }
    }

    fn in_core_digest(spec: SolveSpec, seed: u64) -> u64 {
        let mut runner =
            FixedRunner::new(setup_for(spec.system, spec.side, seed).unwrap()).unwrap();
        runner.run(spec.episode);
        state_digest(runner.sim())
    }

    #[test]
    fn a_run_passes_its_checks_and_reports_every_end_to_end_metric() {
        let c = cfg("run", 5);
        let mut out = run(TINY, &c, &[]);
        let _ = std::fs::remove_dir_all(&c.tmp);
        assert!(out.correct(), "{:?}", out.errors);
        assert!(out.attempted >= TINY.episode);
        assert_eq!(out.ops_failed_frac(), 0.0);
        let line = out.result_line(crate::report::END_TO_END);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
    }

    #[test]
    fn a_corrupted_expected_digest_fails_the_run() {
        let c = cfg("corrupt", 9);
        let good = in_core_digest(TINY, 9);
        assert!(run(TINY, &c, &[(9, good)]).correct());
        let mut out = run(TINY, &c, &[(9, good ^ 1)]);
        let _ = std::fs::remove_dir_all(&c.tmp);
        assert!(!out.correct());
        assert!(
            out.errors.iter().all(|e| e.contains("expected")),
            "{:?}",
            out.errors
        );
        assert_eq!(out.failed(), out.attempted());
        assert!(out
            .result_line(crate::report::END_TO_END)
            .ends_with("\"metrics\": {}}"));
    }

    #[test]
    fn another_seed_gives_other_inputs_that_still_pass() {
        for system in ["fisher", "gray-scott"] {
            let grid = |seed| {
                setup_for(system, 32, seed)
                    .unwrap()
                    .initial
                    .iter()
                    .flat_map(|(_, g)| g.as_slice().to_vec())
                    .collect::<Vec<f64>>()
            };
            assert_eq!(grid(1), grid(1), "{system}: same seed, same inputs");
            assert_ne!(grid(1), grid(2), "{system}: other seed, other inputs");
            for seed in [1, 2] {
                let c = cfg("seeds", seed);
                let out = run(SolveSpec { system, ..TINY }, &c, &[]);
                let _ = std::fs::remove_dir_all(&c.tmp);
                assert!(out.correct(), "{system} seed {seed}: {:?}", out.errors);
            }
        }
    }

    #[test]
    fn count_drift_fails_the_run() {
        let mut out = Outcome::default();
        let first = Counts::default();
        check_repeat(&mut out, &first, &first);
        assert!(out.correct());
        let drifted = Counts { spill: 1, ..first };
        check_repeat(&mut out, &first, &drifted);
        assert!(!out.correct());
    }

    #[test]
    fn traced_runs_repeat_their_exact_counts() {
        let c = cfg("trace", 4);
        let a = trace(TINY, &c, &[]);
        let b = trace(TINY, &c, &[]);
        let _ = std::fs::remove_dir_all(&c.tmp);
        assert!(a.correct(), "{:?}", a.errors);
        for metric in [
            "lut.accesses_per_step",
            "lut.l1_miss_rate",
            "lut.l2_miss_rate",
            "core.spans_per_step",
            "stream.spill_bytes_per_step",
            "stream.fill_bytes_per_step",
        ] {
            assert_eq!(a.get(metric), b.get(metric), "{metric} repeats");
            assert!(a.get(metric).unwrap() > 0.0, "{metric}");
        }
        assert!(a.get("stream.windows_per_step").unwrap() > 1.0);
        assert!(a.get("exec.speedup_2t").unwrap() > 0.0);
        assert_eq!(a.get("serve.quanta"), Some(6.0), "the session probe ran");
    }

    #[test]
    fn the_first_pins_match_fresh_in_core_runs() {
        for (spec, pins) in [
            (FISHER1024, crate::pins::FISHER1024),
            (GRAYSCOTT512, crate::pins::GRAYSCOTT512),
        ] {
            let &(seed, pin) = pins.first().expect("pins");
            assert_eq!(in_core_digest(spec, seed), pin, "{}", spec.system);
        }
    }

    /// Regenerates `src/pins.rs`:
    /// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture print_pins`
    #[test]
    #[ignore]
    fn print_pins() {
        for spec in [FISHER1024, GRAYSCOTT512] {
            println!("{} {}:", spec.system, spec.side);
            for seed in 0..64 {
                println!("    ({seed}, 0x{:016x}),", in_core_digest(spec, seed));
            }
        }
    }
}
