//! Layer probes: the benchmark times single calls into a layer's public
//! functions on inputs captured from the workload.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use cenn_arch::{CycleModel, MemorySpec, PeArrayConfig};
use cenn_core::{CennModel, LayerId, SimSnapshot, TemplateKind, TilePlan, WeightExpr};
use cenn_lut::{LutHierarchy, LutShard, RowCtx};
use cenn_obs::{Phase, TraceHandle};
use cenn_serve::{read_frame, write_frame, Request, Response};

use crate::report::{median, Outcome};

/// Rounds each probe repeats its timed batch; the median is reported.
const ROUNDS: usize = 7;

/// `(mac_lanes, resolve_lanes)` ns per lane on lanes one grid row wide,
/// fed a captured state row.
pub fn lane_kernels(row: &[i32]) -> (f64, f64) {
    let lanes = row.len().max(1);
    let reps = (2_000_000 / lanes).max(1);
    let mut accs = vec![0i64; lanes];
    let mut out = vec![0i32; lanes];
    let mac = per_item_ns(reps * lanes, || {
        for i in 0..reps {
            fixedpt::lanes::mac_lanes(black_box(&mut accs), black_box(i as i32 & 0xFFFF), row);
        }
    });
    let resolve = per_item_ns(reps * lanes, || {
        for _ in 0..reps {
            fixedpt::lanes::resolve_lanes::<16>(black_box(&accs), black_box(&mut out));
        }
    });
    (mac, resolve)
}

/// Median over [`ROUNDS`] of one batch's time per item.
fn per_item_ns(items: usize, mut batch: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&times)
}

/// Every `(function, source layer)` pair the model's dynamic weights look
/// up — the row contexts its sweeps build.
fn lut_factors(model: &CennModel) -> Vec<(cenn_lut::FuncId, LayerId)> {
    let mut out = Vec::new();
    let mut add = |w: &WeightExpr| {
        if let WeightExpr::Dyn { factors, .. } = w {
            for f in factors {
                if !out.contains(&(f.func, f.layer)) {
                    out.push((f.func, f.layer));
                }
            }
        }
    };
    for dest in model.layer_ids() {
        model.offsets(dest).for_each(&mut add);
    }
    for kind in [
        TemplateKind::State,
        TemplateKind::Output,
        TemplateKind::Input,
    ] {
        for (_, _, t) in model.all_templates(kind) {
            t.iter().for_each(|(_, _, w)| add(w));
        }
    }
    out
}

/// `LutShard::lookup_row` ns per cell: for each LUT factor of the model,
/// the cells of state row `row` that each shard owns are looked up with
/// the workload's row context, on a hierarchy built as the simulator
/// builds it. `None` when the model has no LUT factor.
pub fn lookup_row(model: &CennModel, snap: &SimSnapshot, row: usize) -> Option<f64> {
    let factors = lut_factors(model);
    if factors.is_empty() {
        return None;
    }
    let cfg = model.lut_config();
    let specs: Vec<_> = model
        .library()
        .iter()
        .map(|(id, _)| cfg.spec_for(id))
        .collect();
    let mut hierarchy = LutHierarchy::build_with_specs(
        model.library(),
        &specs,
        cfg.l1_blocks,
        cfg.l2_capacity,
        cfg.n_pes(),
    )
    .ok()?;
    // The row's per-shard tiles, as the windowed sweep builds them; a
    // one-row window puts each cell's flat index at its column.
    let tiles = TilePlan::new(model.rows(), model.cols(), cfg.pe_rows, cfg.pe_cols).window(
        row,
        row + 1,
        |_| 0,
    );
    let cols = model.cols();
    // (shard, row context, pes, xs) batches in sweep order.
    let mut batches: Vec<(usize, RowCtx, &[u32], Vec<i32>)> = Vec::new();
    for &(func, layer) in &factors {
        let ctx = RowCtx::from_spec(func, cfg.spec_for(func));
        let states = &snap.states[layer.index()][row * cols..(row + 1) * cols];
        for tile in tiles.iter().filter(|t| !t.is_empty()) {
            let xs = tile.flats().iter().map(|&f| states[f as usize]).collect();
            batches.push((tile.shard(), ctx, tile.pes(), xs));
        }
    }
    let cells_per_pass: usize = batches.iter().map(|b| b.3.len()).sum();
    let reps = (500_000 / cells_per_pass.max(1)).max(1);
    let mut out: Vec<Vec<i32>> = batches.iter().map(|b| vec![0; b.3.len()]).collect();
    let (tables, shards): (_, &mut [LutShard]) = hierarchy.split();
    Some(per_item_ns(reps * cells_per_pass, || {
        for _ in 0..reps {
            for ((shard, ctx, pes, xs), o) in batches.iter().zip(out.iter_mut()) {
                shards[*shard].lookup_row(tables, ctx, pes, black_box(xs), o);
            }
        }
        black_box(&out);
    }))
}

/// One Step request and its reply through the wire codec and framing:
/// `encode_with_id` → `write_frame` → `read_frame` → `decode_with_id`,
/// both ways. ns per round trip.
pub fn frame_roundtrip() -> f64 {
    let reps = 20_000;
    let mut wire = Vec::with_capacity(256);
    let mut checksum = 0u64;
    let ns = per_item_ns(reps, || {
        for i in 0..reps as u64 {
            let req = Request::Step {
                session: 7,
                n: black_box(4),
            };
            wire.clear();
            write_frame(&mut wire, &req.encode_with_id(i + 1)).expect("write to a Vec");
            let payload = read_frame(&mut Cursor::new(&wire))
                .expect("read a whole frame")
                .expect("frame present");
            let (id, req) = Request::decode_with_id(&payload).expect("own encoding decodes");
            let Request::Step { session, n } = req else {
                unreachable!("decoded a different request")
            };
            let resp = Response::Stepped {
                session,
                steps: n * i,
                fired: 0,
            };
            wire.clear();
            write_frame(&mut wire, &resp.encode_with_id(id)).expect("write to a Vec");
            let payload = read_frame(&mut Cursor::new(&wire))
                .expect("read a whole frame")
                .expect("frame present");
            let (id, _) = Response::decode_with_id(&payload).expect("own encoding decodes");
            checksum = checksum.wrapping_add(id);
        }
    });
    black_box(checksum);
    ns
}

/// The sweep-phase metrics of `steps` steps that took `wall_s` seconds
/// with `tracer` attached: each phase's time per step, the share of wall
/// time in no phase, and spans per step.
pub fn phase_metrics(tracer: &TraceHandle, wall_s: f64, steps: u64, out: &mut Outcome) {
    let steps = steps.max(1) as f64;
    let nanos: Vec<f64> = tracer.with(|c| {
        Phase::ALL
            .iter()
            .map(|&p| c.phase_total_nanos(p) as f64)
            .collect()
    });
    let spans: u64 = tracer.with(|c| Phase::ALL.iter().map(|&p| c.phase_count(p)).sum());
    let per_step_ms = |p: Phase| nanos[p.index()] / steps / 1e6;
    out.set("core.lut_lookup_ms_per_step", per_step_ms(Phase::LutLookup));
    out.set(
        "core.template_apply_ms_per_step",
        per_step_ms(Phase::TemplateApply),
    );
    out.set("core.integrate_ms_per_step", per_step_ms(Phase::Integrate));
    out.set("core.halo_sync_ms_per_step", per_step_ms(Phase::HaloSync));
    out.set(
        "core.unattributed_frac",
        1.0 - nanos.iter().sum::<f64>() / 1e9 / wall_s,
    );
    out.set("core.spans_per_step", spans as f64 / steps);
}

/// The cycle model's estimate for `model` at the measured miss rates:
/// `(modelled step µs, stall fraction)`. Modelled accelerator time, not
/// validated against silicon.
pub fn arch_model(model: &CennModel, miss_rates: (f64, f64)) -> (f64, f64) {
    let est =
        CycleModel::new(MemorySpec::ddr3(), PeArrayConfig::default()).estimate(model, miss_rates);
    (est.time_per_step_s() * 1e6, est.timing().stall_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_equations::{DynamicalSystem, FixedRunner, GrayScott, Heat};

    #[test]
    fn probes_measure_positive_times() {
        let setup = GrayScott::default().build(16, 16).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(2);
        let snap = runner.sim().snapshot();
        let (mac, resolve) = lane_kernels(&snap.states[0][..16]);
        assert!(mac > 0.0 && resolve > 0.0);
        assert!(lookup_row(runner.sim().model(), &snap, 8).unwrap() > 0.0);
        assert!(frame_roundtrip() > 0.0);
        let (us, stall) = arch_model(runner.sim().model(), runner.miss_rates());
        assert!(us > 0.0 && (0.0..=1.0).contains(&stall));
    }

    #[test]
    fn a_model_without_luts_has_no_lookup_probe() {
        let runner = FixedRunner::new(Heat::default().build(8, 8).unwrap()).unwrap();
        let snap = runner.sim().snapshot();
        assert!(lookup_row(runner.sim().model(), &snap, 0).is_none());
    }
}
