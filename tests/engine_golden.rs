//! Golden table for the sweep engine: every benchmark system, under both
//! integrators, at one and four worker threads, must end a short run on
//! pinned state digests and LUT counters.
//!
//! The pins cover the whole stepping path — algebraic layers
//! (Navier–Stokes), post-step rules (Izhikevich) and
//! Heun's two-pass update — bit for bit. For systems the streamed engine
//! accepts (every layer dynamic, no post-step rule), the same run under
//! two memory budgets, which pick two different chunk heights, must end on
//! the in-core digest.
//!
//! The pinned values are the behaviour to preserve: a change to the
//! engine that moves any of them changes the simulator's results.

use cenn::core::{Integrator, LayerKind};
use cenn::equations::{all_benchmarks, extended_benchmarks, DynamicalSystem, FixedRunner};
use cenn::lut::LutStats;
use cenn::serve::{snapshot_digest, state_digest};

const ROWS: usize = 16;
const COLS: usize = 12;
const STEPS: u64 = 24;
/// Two resident-memory budgets that give every streamable system two
/// different chunk heights (pinned per row below).
const BUDGETS: [u64; 2] = [3 * 1024, 12 * 1024];

/// One pinned run: system, integrator, final in-core state digest, the
/// cumulative LUT counters `[accesses, l1_hits, l2_hits, dram_fetches,
/// dram_points, exact_hits]`, and — for streamable systems — the chunk
/// height each of [`BUDGETS`] selects.
struct Golden {
    system: &'static str,
    integrator: Integrator,
    digest: u64,
    lut: [u64; 6],
    chunk_rows: Option<[usize; 2]>,
}

const fn g(
    system: &'static str,
    integrator: Integrator,
    digest: u64,
    lut: [u64; 6],
    chunk_rows: Option<[usize; 2]>,
) -> Golden {
    Golden {
        system,
        integrator,
        digest,
        lut,
        chunk_rows,
    }
}

use Integrator::{Euler, Heun};

const TABLE: &[Golden] = &[
    g(
        "heat",
        Euler,
        0x96ae_f1bf_5f3b_74cb,
        [0, 0, 0, 0, 0, 0],
        Some([3, 13]),
    ),
    g(
        "heat",
        Heun,
        0x0955_b6e9_05db_e46a,
        [0, 0, 0, 0, 0, 0],
        Some([2, 12]),
    ),
    g(
        "navier-stokes",
        Euler,
        0xffa1_9806_46de_f723,
        [18432, 12773, 4056, 1603, 12824, 1418],
        None,
    ),
    g(
        "navier-stokes",
        Heun,
        0xaa7a_1bce_088b_77c5,
        [36864, 26446, 8149, 2269, 18152, 2484],
        None,
    ),
    g(
        "fisher",
        Euler,
        0xc350_f337_1a2e_f731,
        [4608, 3960, 592, 56, 448, 1456],
        Some([2, 11]),
    ),
    g(
        "fisher",
        Heun,
        0x102f_e604_b7fd_4b43,
        [9216, 8472, 688, 56, 448, 2064],
        Some([2, 10]),
    ),
    g(
        "reaction-diffusion",
        Euler,
        0x8de0_ea8f_b077_cd99,
        [4608, 2666, 1862, 80, 640, 0],
        Some([1, 7]),
    ),
    g(
        "reaction-diffusion",
        Heun,
        0xeeb0_0aff_d339_3f42,
        [9216, 6927, 2193, 96, 768, 3],
        Some([1, 6]),
    ),
    g(
        "hodgkin-huxley",
        Euler,
        0x3557_3ddd_4e74_cb15,
        [55296, 18984, 30137, 6175, 49400, 1536],
        Some([1, 3]),
    ),
    g(
        "hodgkin-huxley",
        Heun,
        0x2bbe_fd93_b4a1_be18,
        [110592, 37656, 60373, 12563, 100504, 1536],
        Some([1, 3]),
    ),
    g(
        "izhikevich",
        Euler,
        0xab45_4b24_5ee3_e9cd,
        [4608, 2151, 1919, 538, 4304, 384],
        None,
    ),
    g(
        "izhikevich",
        Heun,
        0xd689_9fd5_bdda_d5b2,
        [9216, 5761, 2511, 944, 7552, 384],
        None,
    ),
    g(
        "wave",
        Euler,
        0xa516_3c04_c324_5dfe,
        [0, 0, 0, 0, 0, 0],
        Some([1, 7]),
    ),
    g(
        "wave",
        Heun,
        0xded0_1bde_6c85_ba77,
        [0, 0, 0, 0, 0, 0],
        Some([1, 6]),
    ),
    g(
        "burgers",
        Euler,
        0x8ff5_2efa_4cc5_aae5,
        [18432, 16067, 969, 1396, 11168, 680],
        Some([1, 7]),
    ),
    g(
        "burgers",
        Heun,
        0x02cc_b186_4f6a_2857,
        [36864, 34190, 1160, 1514, 12112, 1064],
        Some([1, 6]),
    ),
    g(
        "gray-scott",
        Euler,
        0xd640_2d5a_143b_becd,
        [18432, 17099, 847, 486, 3888, 3864],
        Some([1, 6]),
    ),
    g(
        "gray-scott",
        Heun,
        0x4624_c0a4_41d1_37e9,
        [36864, 34924, 1149, 791, 6328, 6238],
        Some([1, 6]),
    ),
];

fn counters(s: LutStats) -> [u64; 6] {
    [
        s.accesses,
        s.l1_hits,
        s.l2_hits,
        s.dram_fetches,
        s.dram_points,
        s.exact_hits,
    ]
}

fn runner(sys: &dyn DynamicalSystem, integrator: Integrator, threads: usize) -> FixedRunner {
    let mut setup = sys.build(ROWS, COLS).unwrap();
    setup.model = setup.model.clone_with_integrator(integrator);
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_threads(threads);
    runner
}

fn streamable(runner: &FixedRunner) -> bool {
    let model = &runner.setup().model;
    runner.setup().post_step.is_none()
        && model
            .layer_ids()
            .all(|id| model.layer(id).kind() == LayerKind::Dynamic)
}

#[test]
fn the_table_covers_every_system_under_both_integrators() {
    let mut names: Vec<_> = all_benchmarks()
        .into_iter()
        .chain(extended_benchmarks())
        .map(|s| s.name())
        .collect();
    names.sort_unstable();
    for integrator in [Euler, Heun] {
        let mut pinned: Vec<_> = TABLE
            .iter()
            .filter(|g| g.integrator == integrator)
            .map(|g| g.system)
            .collect();
        pinned.sort_unstable();
        assert_eq!(pinned, names, "{integrator:?}");
    }
}

#[test]
fn in_core_runs_end_on_the_pinned_digests_and_counters() {
    let mut failures = Vec::new();
    for sys in all_benchmarks().into_iter().chain(extended_benchmarks()) {
        for integrator in [Euler, Heun] {
            let want = TABLE
                .iter()
                .find(|g| g.system == sys.name() && g.integrator == integrator)
                .expect("table row");
            for threads in [1, 4] {
                let mut r = runner(sys.as_ref(), integrator, threads);
                r.run(STEPS);
                let (digest, lut) = (state_digest(r.sim()), counters(r.lut_stats()));
                if (digest, lut) != (want.digest, want.lut) {
                    failures.push(format!(
                        "{} {integrator:?} threads={threads}: got digest {digest:#018x}, lut {lut:?}",
                        sys.name()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn streamed_runs_at_two_chunk_heights_end_on_the_in_core_digest() {
    let spool = std::env::temp_dir().join(format!("cenn_engine_golden_{}", std::process::id()));
    let mut failures = Vec::new();
    for sys in all_benchmarks().into_iter().chain(extended_benchmarks()) {
        for integrator in [Euler, Heun] {
            let want = TABLE
                .iter()
                .find(|g| g.system == sys.name() && g.integrator == integrator)
                .expect("table row");
            let streams = streamable(&runner(sys.as_ref(), integrator, 1));
            assert_eq!(
                streams,
                want.chunk_rows.is_some(),
                "{} {integrator:?}: streamability changed",
                sys.name()
            );
            let Some(chunks) = want.chunk_rows else {
                continue;
            };
            for threads in [1, 4] {
                for (budget, want_rows) in BUDGETS.iter().zip(chunks) {
                    let mut r = runner(sys.as_ref(), integrator, threads);
                    r.set_memory_budget(*budget, &spool).unwrap();
                    let rows = r.stream().unwrap().chunk_rows();
                    r.run(STEPS);
                    let snap = r.stream().unwrap().snapshot().unwrap();
                    let digest = snapshot_digest(&snap);
                    if (rows, digest) != (want_rows, want.digest) {
                        failures.push(format!(
                            "{} {integrator:?} threads={threads} budget={budget}: \
                             got {rows} chunk rows, digest {digest:#018x}",
                            sys.name()
                        ));
                    }
                }
            }
            assert_ne!(chunks[0], chunks[1], "budgets must pick two heights");
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
