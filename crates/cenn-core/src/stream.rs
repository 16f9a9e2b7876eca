//! Streamed out-of-core execution: the shared windowed pass over rows
//! spilled to disk.
//!
//! [`StreamSim`] runs the same windowed integrator pass as [`CennSim`]
//! (see [`crate::sim`]), over a different row store. The grid's rows are
//! split into fixed-height **chunks**; each integrator pass sweeps the
//! chunks in ascending row order as **windows**, where a window keeps
//! resident only its chunk rows plus the halo rows its templates read
//! (boundary-resolved, so periodic wrap rows are included). State chunks
//! are filled from and spilled to an on-disk **spool** whose chunk files
//! reuse the `CENNCKPT` v1 framing of `cenn-guard` checkpoints, and a
//! text **journal** records every completed window so a partially swept
//! step is restartable via [`StreamSim::recover`].
//!
//! # Determinism
//!
//! Per window the pass runs the same lane lowering, batched LUT weight
//! pass and unrolled MAC template pass as the in-core engine, over tiles
//! produced by [`TilePlan::window`](crate::TilePlan::window), whose cells
//! and PE ids stay global. Windows in ascending row order therefore
//! concatenate to exactly the serial row-major per-shard cell sequence of
//! the in-core sweep, so **states are bit-identical to [`CennSim`] at
//! every thread count and every window size**. LUT hit/miss counters are
//! additionally bit-identical whenever a single layer carries dynamic
//! weight sites (the per-shard lookup sequence is then the in-core
//! sequence split at window boundaries, and the batched row path only
//! memoizes provable L1 hits per call); with several LUT-bearing layers
//! the windowed interleaving differs, and only access *totals* are
//! preserved.
//!
//! # Restart semantics
//!
//! Chunk writes are atomic (temp file + rename) and journaled after the
//! rename, so a killed process loses at most the window it was executing.
//! [`StreamSim::recover`] replays the journal, resumes at the first
//! unjournaled window with the evaluation mode the spool was written
//! under, and reconstructs the in-flight step's cell and residual
//! accounting from the spooled chunks. As with
//! [`SimSnapshot`] restore, LUT cache *statistics* are not restored —
//! replayed look-ups are real look-ups — so counters after a restart
//! differ from an uninterrupted run while states do not.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cenn_obs::Phase;
use fixedpt::Q16_16;

use crate::error::ModelError;
use crate::grid::{Grid, SoaGrid};
use crate::layer::{LayerId, LayerKind};
use crate::model::{CennModel, Integrator};
use crate::sim::{CennSim, Core, FuncEval, RowStore, Sim, SimSnapshot, StepReport, WindowBufs};

/// Chunk-file magic — byte-compatible with `cenn-guard`'s `CENNCKPT`
/// checkpoint format, so spooled chunks parse as ordinary checkpoints.
const MAGIC: &[u8; 8] = b"CENNCKPT";
/// Chunk-file format version (`CENNCKPT` v1).
const VERSION: u32 = 1;
/// Journal header tag and version.
const JOURNAL_MAGIC: &str = "CENNJRNL 1";

/// Configuration for the streamed engine: where to spool, and how much
/// memory the resident window may use.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Directory holding the chunk spool and journal (created if absent).
    pub spool_dir: PathBuf,
    /// Byte budget for the resident working set. The engine solves for the
    /// largest chunk height whose window (chunk + halo + scratch + gather
    /// tables + I/O staging) fits the budget; a budget smaller than a
    /// single-row window degrades to one-row chunks (best effort).
    pub memory_budget: Option<u64>,
    /// Explicit chunk height in rows (overrides `memory_budget`; clamped
    /// to `[1, rows]`). Mostly for tests that pin window geometry.
    pub chunk_rows: Option<usize>,
}

impl StreamConfig {
    /// A config spooling to `dir` with no memory budget (one window spans
    /// the whole grid until a budget or chunk height is set).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            spool_dir: dir.into(),
            memory_budget: None,
            chunk_rows: None,
        }
    }

    /// Sets the resident-memory budget in bytes.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Pins the chunk height in rows.
    #[must_use]
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = Some(rows);
        self
    }
}

/// Why the streamed engine could not be constructed or advanced.
#[derive(Debug)]
pub enum StreamError {
    /// The model uses a feature the streamed engine does not support
    /// (e.g. algebraic layers, which need whole-grid sequencing).
    Unsupported(String),
    /// Model construction failed (LUT generation, shape checks).
    Model(ModelError),
    /// Spool or journal I/O failed.
    Io(std::io::Error),
    /// A spooled chunk or the journal is malformed or inconsistent with
    /// the model.
    Corrupt(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported(m) => write!(f, "streamed execution unsupported: {m}"),
            Self::Model(e) => write!(f, "streamed engine model error: {e}"),
            Self::Io(e) => write!(f, "spool I/O failed: {e}"),
            Self::Corrupt(m) => write!(f, "spool corrupt: {m}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

/// The on-disk chunk spool: one `CENNCKPT`-framed file per (stream, chunk)
/// pair, written atomically via temp file + rename.
#[derive(Debug, Clone)]
struct Spool {
    dir: PathBuf,
}

impl Spool {
    fn chunk_path(&self, stream: &str, idx: usize) -> PathBuf {
        self.dir.join(format!("{stream}_{idx:05}.ckpt"))
    }

    /// Serializes and atomically writes one chunk; returns bytes written.
    #[allow(clippy::too_many_arguments)]
    fn write_chunk(
        &self,
        stream: &str,
        idx: usize,
        steps: u64,
        time: f64,
        cells: usize,
        layers: &[ChunkSrc<'_>],
        stage: &mut Vec<u8>,
    ) -> Result<u64, StreamError> {
        stage.clear();
        stage.extend_from_slice(MAGIC);
        stage.extend_from_slice(&VERSION.to_le_bytes());
        stage.extend_from_slice(&steps.to_le_bytes());
        stage.extend_from_slice(&time.to_bits().to_le_bytes());
        stage.extend_from_slice(&0u64.to_le_bytes()); // run_cells (unused)
        for _ in 0..6 {
            stage.extend_from_slice(&0u64.to_le_bytes()); // LutStats (unused)
        }
        stage.extend_from_slice(&(layers.len() as u32).to_le_bytes());
        for src in layers {
            stage.extend_from_slice(&(cells as u32).to_le_bytes());
            match src {
                ChunkSrc::Bits(bits) => {
                    debug_assert_eq!(bits.len(), cells);
                    for b in *bits {
                        stage.extend_from_slice(&b.to_le_bytes());
                    }
                }
                ChunkSrc::Fx(vals) => {
                    debug_assert_eq!(vals.len(), cells);
                    for v in *vals {
                        stage.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        let path = self.chunk_path(stream, idx);
        let tmp = path.with_extension("ckpt.tmp");
        fs::write(&tmp, &stage)?;
        fs::rename(&tmp, &path)?;
        Ok(stage.len() as u64)
    }

    /// Reads one chunk into `stage` and returns the byte offset of each
    /// layer's payload (`cells × 4` bytes of little-endian `i32`).
    fn read_chunk(
        &self,
        stream: &str,
        idx: usize,
        n_layers: usize,
        cells: usize,
        stage: &mut Vec<u8>,
    ) -> Result<Vec<usize>, StreamError> {
        let path = self.chunk_path(stream, idx);
        *stage = fs::read(&path)?;
        let err = |m: &str| StreamError::Corrupt(format!("{}: {m}", path.display()));
        let header = 8 + 4 + 8 + 8 + 8 + 6 * 8 + 4;
        if stage.len() < header {
            return Err(err("truncated header"));
        }
        if &stage[..8] != MAGIC {
            return Err(err("bad magic"));
        }
        if u32::from_le_bytes(stage[8..12].try_into().unwrap()) != VERSION {
            return Err(err("unsupported version"));
        }
        let got_layers = u32::from_le_bytes(stage[header - 4..header].try_into().unwrap()) as usize;
        if got_layers != n_layers {
            return Err(err("layer count mismatch"));
        }
        let mut offsets = Vec::with_capacity(n_layers);
        let mut pos = header;
        for _ in 0..n_layers {
            if pos + 4 > stage.len() {
                return Err(err("truncated layer header"));
            }
            let len = u32::from_le_bytes(stage[pos..pos + 4].try_into().unwrap()) as usize;
            if len != cells {
                return Err(err("cell count mismatch"));
            }
            pos += 4;
            if pos + cells * 4 > stage.len() {
                return Err(err("truncated layer payload"));
            }
            offsets.push(pos);
            pos += cells * 4;
        }
        if pos != stage.len() {
            return Err(err("trailing bytes"));
        }
        Ok(offsets)
    }
}

/// A layer payload source for [`Spool::write_chunk`].
enum ChunkSrc<'a> {
    /// Raw Q16.16 bits (seed path from a [`SimSnapshot`]).
    Bits(&'a [i32]),
    /// Fixed-point values (hot path from the window buffers).
    Fx(&'a [Q16_16]),
}

/// Reads a little-endian `i32` at `off` from a chunk payload.
#[inline]
fn read_i32(stage: &[u8], off: usize) -> i32 {
    i32::from_le_bytes(stage[off..off + 4].try_into().unwrap())
}

/// Append-only recovery journal (one line per completed window / step).
#[derive(Debug, Clone)]
struct Journal {
    path: PathBuf,
}

impl Journal {
    fn append(&self, line: &str) -> Result<(), StreamError> {
        let mut f = fs::OpenOptions::new().append(true).open(&self.path)?;
        writeln!(f, "{line}")?;
        f.flush()?;
        Ok(())
    }
}

fn integrator_tag(i: Integrator) -> &'static str {
    match i {
        Integrator::Euler => "euler",
        Integrator::Heun => "heun",
    }
}

fn eval_tag(e: FuncEval) -> &'static str {
    match e {
        FuncEval::Lut => "lut",
        FuncEval::Exact => "exact",
    }
}

/// The streamed out-of-core simulator: the shared windowed pass over a
/// [`SpoolStore`]. See the module docs for the execution model and
/// determinism contract; construction is via
/// [`from_sim`](StreamSim::from_sim) (spooling an in-core sim's state) or
/// [`recover`](StreamSim::recover) (resuming an existing spool).
///
/// Scope: every layer must be [`LayerKind::Dynamic`] — algebraic layers
/// form declaration-order chains that need whole-grid barriers between
/// layers, which defeats windowed residency. Both integrators are
/// supported (Heun spills its predictor and `k₁` streams).
pub type StreamSim = Sim<SpoolStore>;

/// The streamed row store: a chunk spool and journal on disk, plus the
/// one window's resident buffers.
#[derive(Debug)]
pub struct SpoolStore {
    spool: Spool,
    journal: Journal,
    /// Resident state window (chunk + halo rows), local row-major.
    resident: SoaGrid<Q16_16>,
    /// Resident input window (1 row when no layer gathers inputs).
    resident_in: SoaGrid<Q16_16>,
    /// RHS / update output for the chunk rows of the current window.
    out_buf: SoaGrid<Q16_16>,
    /// Heun-only chunk-row scratch: predictor out, then x₀ / k₁ re-reads.
    heun_buf: Option<(SoaGrid<Q16_16>, SoaGrid<Q16_16>)>,
    /// Read staging (chunk fills).
    stage: Vec<u8>,
    /// Write staging (chunk spills).
    wstage: Vec<u8>,
    /// LUT-bearing layer count — decides `lut_counters` fidelity (module
    /// docs: >1 and windowed interleaving preserves only access totals).
    lut_layers: usize,
    peak_resident: u64,
    spill_bytes: u64,
    fill_bytes: u64,
}

impl RowStore for SpoolStore {
    /// Halo fill: reads the window's resident rows of the source stream
    /// (and of the inputs) from the spool, then — for Heun's corrector —
    /// the chunk's pre-step state and `k₁`.
    fn fill(&mut self, core: &Core, pass: usize, w: usize) -> Result<(), StreamError> {
        let t_fill = Instant::now();
        let src = if pass == 0 {
            parity_stream(core.steps)
        } else {
            "pred"
        };
        debug_assert!(core.resident().len() <= self.resident.rows());
        self.fill_bytes +=
            fill_resident(&self.spool, src, core, &mut self.resident, &mut self.stage)?;
        if core.uses_inputs {
            self.fill_bytes += fill_resident(
                &self.spool,
                "in",
                core,
                &mut self.resident_in,
                &mut self.stage,
            )?;
        }
        if let Some(tr) = &core.tracer {
            let start = t_fill.saturating_duration_since(tr.epoch()).as_nanos() as u64;
            tr.record(
                Phase::HaloSync,
                0,
                start,
                t_fill.elapsed().as_nanos() as u64,
            );
        }
        // Resident-footprint watermark (geometry-derived, deterministic).
        let word = std::mem::size_of::<Q16_16>() as u64;
        let mut slabs = self.resident.slab().len() + self.resident_in.slab().len();
        slabs += self.out_buf.slab().len();
        if let Some((a, b)) = &self.heun_buf {
            slabs += a.slab().len() + b.slab().len();
        }
        let staging = (self.stage.capacity() + self.wstage.capacity()) as u64;
        self.peak_resident = self
            .peak_resident
            .max(slabs as u64 * word + staging + core.window_bytes());
        if pass == 1 {
            let (x0, k1) = self.heun_buf.as_mut().expect("heun buffers allocated");
            let (spool, stage) = (&self.spool, &mut self.stage);
            self.fill_bytes += read_window(spool, stage, core, parity_stream(core.steps), w, x0)?;
            self.fill_bytes += read_window(spool, stage, core, "k1", w, k1)?;
        }
        Ok(())
    }

    fn bufs(&mut self, _pass: usize) -> WindowBufs<'_> {
        WindowBufs {
            states: &self.resident,
            inputs: &self.resident_in,
            out: &mut self.out_buf,
            heun: self.heun_buf.as_mut().map(|(a, b)| (a, b)),
        }
    }

    /// Spills the window's updated rows — Heun's predictor pass spills
    /// `k₁` and the predictor, every final pass spills the next-parity
    /// state — and journals the window.
    fn commit(&mut self, core: &Core, pass: usize, w: usize) -> Result<(), StreamError> {
        let (spool, wstage) = (&self.spool, &mut self.wstage);
        let now = (core.steps, core.time);
        self.spill_bytes += if pass + 1 < core.passes() {
            let (pred, _) = self.heun_buf.as_ref().expect("heun buffers allocated");
            write_window(spool, wstage, core, "k1", w, now, &self.out_buf)?
                + write_window(spool, wstage, core, "pred", w, now, pred)?
        } else {
            let next = (core.steps + 1, core.time + core.model.dt());
            let stream = parity_stream(core.steps + 1);
            write_window(spool, wstage, core, stream, w, next, &self.out_buf)?
        };
        self.journal.append(&format!("win {pass} {w}"))
    }

    fn end_step(&mut self, core: &Core) -> Result<(), StreamError> {
        self.journal.append(&format!(
            "step {} {:016x} {}",
            core.steps,
            core.time.to_bits(),
            core.run_cells
        ))
    }

    /// Assembles a bit-exact snapshot from the current-parity chunks.
    /// Always consistent: mid-step, the current parity still holds the
    /// last completed step's state (updates write the other parity).
    fn snapshot(&self, core: &Core) -> Result<SimSnapshot, StreamError> {
        let (n, cols) = (core.model.n_layers(), core.model.cols());
        let mut states = vec![vec![0i32; core.model.rows() * cols]; n];
        let mut stage = Vec::new();
        for w in 0..core.n_windows {
            let (r0, r1) = core.window_bounds(w);
            let cells = (r1 - r0) * cols;
            let offs = self
                .spool
                .read_chunk(parity_stream(core.steps), w, n, cells, &mut stage)?;
            for (l, &off) in offs.iter().enumerate() {
                for j in 0..cells {
                    states[l][r0 * cols + j] = read_i32(&stage, off + j * 4);
                }
            }
        }
        Ok(SimSnapshot {
            steps: core.steps,
            time: core.time,
            run_cells: core.run_cells,
            states,
        })
    }

    fn resident_bytes(&self) -> u64 {
        self.peak_resident
    }

    fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    fn lut_counters(&self) -> &'static str {
        if self.lut_layers > 1 {
            "totals-only"
        } else {
            "exact"
        }
    }
}

impl StreamSim {
    /// Spools an in-core sim's current state (and inputs) to a fresh
    /// chunk spool and returns a streamed engine positioned at the same
    /// step/time counters, with the same evaluation mode. The spool
    /// directory is created if absent; an existing journal there is
    /// truncated (use [`recover`](Self::recover) to resume instead).
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] if the model has non-dynamic layers,
    /// [`StreamError::Io`] on spool I/O failure.
    pub fn from_sim(sim: &CennSim, cfg: StreamConfig) -> Result<Self, StreamError> {
        let mut s = Self::build(sim.model().clone(), cfg, false, sim.eval_mode())?;
        let snap = sim.snapshot();
        s.core.steps = snap.steps;
        s.core.time = snap.time;
        s.core.run_cells = snap.run_cells;
        // Seed the spool: state chunks on the current parity, inputs once.
        let cols = s.core.model.cols();
        let (core, store) = (&s.core, &mut s.store);
        for w in 0..core.n_windows {
            let (r0, r1) = core.window_bounds(w);
            let cells = (r1 - r0) * cols;
            let state_layers: Vec<ChunkSrc<'_>> = snap
                .states
                .iter()
                .map(|l| ChunkSrc::Bits(&l[r0 * cols..r1 * cols]))
                .collect();
            store.spill_bytes += store.spool.write_chunk(
                parity_stream(core.steps),
                w,
                core.steps,
                core.time,
                cells,
                &state_layers,
                &mut store.wstage,
            )?;
            let input_layers: Vec<ChunkSrc<'_>> = (0..sim.inputs().n_layers())
                .map(|l| ChunkSrc::Fx(&sim.inputs().layer_slice(l)[r0 * cols..r1 * cols]))
                .collect();
            store.spill_bytes += store.spool.write_chunk(
                "in",
                w,
                core.steps,
                core.time,
                cells,
                &input_layers,
                &mut store.wstage,
            )?;
        }
        store.end_step(core)?;
        Ok(s)
    }

    /// Resumes a spool left by a previous (possibly killed) run: replays
    /// the journal, restores the step/time counters and the evaluation
    /// mode, and positions the cursor at the first window the journal
    /// does not record as complete. Cell and residual accounting for the
    /// in-flight step is rebuilt from the spooled chunks; LUT statistics
    /// start from zero (see the module docs on restart semantics).
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] if the journal is missing, malformed, or
    /// disagrees with `model`.
    pub fn recover(model: CennModel, cfg: StreamConfig) -> Result<Self, StreamError> {
        let journal_path = cfg.spool_dir.join("journal.txt");
        let text = fs::read_to_string(&journal_path)
            .map_err(|e| StreamError::Corrupt(format!("journal unreadable: {e}")))?;
        let mut lines = text.lines().enumerate().peekable();
        let corrupt = |n: usize, m: &str| StreamError::Corrupt(format!("journal line {n}: {m}"));
        let (_, first) = lines.next().ok_or_else(|| corrupt(1, "empty journal"))?;
        if first.trim() != JOURNAL_MAGIC {
            return Err(corrupt(1, "bad journal header"));
        }
        let (_, grid_line) = lines
            .next()
            .ok_or_else(|| corrupt(2, "missing grid line"))?;
        let parts: Vec<&str> = grid_line.split_whitespace().collect();
        if !matches!(parts.len(), 7 | 8) || parts[0] != "grid" {
            return Err(corrupt(2, "bad grid line"));
        }
        let parse = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| corrupt(2, "bad grid number"))
        };
        let (rows, cols, layers, chunk_rows) = (
            parse(parts[1])?,
            parse(parts[2])?,
            parse(parts[3])?,
            parse(parts[4])?,
        );
        if rows != model.rows()
            || cols != model.cols()
            || layers != model.n_layers()
            || parts[5] != integrator_tag(model.integrator())
            || parts[6] != format!("{:016x}", model.dt().to_bits())
        {
            return Err(corrupt(2, "journal does not match the model"));
        }
        // A spool written before the eval mode was journaled ran on LUTs.
        let eval = match parts.get(7).copied() {
            None | Some("lut") => FuncEval::Lut,
            Some("exact") => FuncEval::Exact,
            Some(_) => return Err(corrupt(2, "unknown evaluation mode")),
        };
        // Fold the completion records. A torn final line (killed mid-append)
        // is tolerated; malformed interior lines are not.
        let mut baseline: Option<(u64, f64, u64)> = None;
        let mut wins: Vec<(usize, usize)> = Vec::new();
        while let Some((n, line)) = lines.next() {
            let last = lines.peek().is_none();
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                ["step", s, t, c] => match (
                    s.parse::<u64>(),
                    u64::from_str_radix(t, 16),
                    c.parse::<u64>(),
                ) {
                    (Ok(s), Ok(t), Ok(c)) => {
                        baseline = Some((s, f64::from_bits(t), c));
                        wins.clear();
                        true
                    }
                    _ => false,
                },
                ["win", p, w] => match (p.parse::<usize>(), w.parse::<usize>()) {
                    (Ok(p), Ok(w)) => {
                        wins.push((p, w));
                        true
                    }
                    _ => false,
                },
                _ => false,
            };
            if !parsed {
                if last {
                    break; // torn tail from a mid-append kill
                }
                return Err(corrupt(n + 1, "unrecognized record"));
            }
        }
        let (steps, time, run_cells) =
            baseline.ok_or_else(|| StreamError::Corrupt("journal has no step baseline".into()))?;

        let cfg = StreamConfig {
            chunk_rows: Some(chunk_rows),
            ..cfg
        };
        let mut s = Self::build(model, cfg, true, eval)?;
        s.core.steps = steps;
        s.core.time = time;
        s.core.run_cells = run_cells;
        // Validate the window sequence and rebuild the in-flight cursor.
        let (n_windows, passes) = (s.core.n_windows, s.core.passes());
        for (k, &(p, w)) in wins.iter().enumerate() {
            if (p, w) != (k / n_windows, k % n_windows) {
                return Err(StreamError::Corrupt(format!(
                    "journal window sequence broken at ({p}, {w})"
                )));
            }
        }
        if wins.len() >= passes * n_windows {
            return Err(StreamError::Corrupt(
                "journal records more windows than a step has".into(),
            ));
        }
        s.core.pass = wins.len() / n_windows;
        s.core.window = wins.len() % n_windows;
        if !wins.is_empty() {
            s.core.begin_step();
            let row_cells = (s.core.model.n_layers() * s.core.model.cols()) as u64;
            for &(p, w) in &wins {
                let (r0, r1) = s.core.window_bounds(w);
                s.core.pending.cells += row_cells * (r1 - r0) as u64;
                if p + 1 == passes {
                    s.fold_recovered_residual(w)?;
                }
            }
            for _ in 0..s.core.pass {
                s.core.pending.sweeps.push(("dynamic".into(), 0));
                s.core.pending.sweeps.push(("update".into(), 0));
            }
        }
        Ok(s)
    }

    /// Shared construction: model checks, window geometry, resident
    /// buffers. `recovering` keeps the existing journal.
    fn build(
        model: CennModel,
        cfg: StreamConfig,
        recovering: bool,
        eval: FuncEval,
    ) -> Result<Self, StreamError> {
        for id in model.layer_ids() {
            if model.layer(id).kind() != LayerKind::Dynamic {
                return Err(StreamError::Unsupported(format!(
                    "layer {} is not dynamic (algebraic layers need whole-grid sequencing)",
                    id.index()
                )));
            }
        }
        let mut core = Core::new(model, eval)?;
        if core.lut_layers > 1 {
            eprintln!(
                "cenn: streamed run has {} LUT-bearing layers; per-PE LUT \
                 counters are totals-only under windowed interleaving (states stay exact)",
                core.lut_layers
            );
        }
        let heun = core.model.integrator() == Integrator::Heun;
        let (rows, cols, n) = (core.model.rows(), core.model.cols(), core.model.n_layers());
        let chunk_rows = match (cfg.chunk_rows, cfg.memory_budget) {
            (Some(g), _) => g,
            (None, Some(b)) => solve_chunk_rows(
                &core.model,
                core.halo,
                core.n_taps,
                core.max_sites,
                core.max_factors,
                heun,
                b,
            ),
            (None, None) => rows,
        };
        core.set_chunk_rows(chunk_rows);
        let chunk_rows = core.chunk_rows;
        let r_max = rows.min(chunk_rows + 2 * core.halo);
        let chunk = || SoaGrid::new(n, chunk_rows, cols, Q16_16::ZERO);
        let spool = Spool {
            dir: cfg.spool_dir.clone(),
        };
        fs::create_dir_all(&spool.dir)?;
        let journal = Journal {
            path: spool.dir.join("journal.txt"),
        };
        if !recovering {
            fs::write(&journal.path, String::new())?;
            journal.append(JOURNAL_MAGIC)?;
            journal.append(&format!(
                "grid {} {} {} {} {} {:016x} {}",
                rows,
                cols,
                n,
                chunk_rows,
                integrator_tag(core.model.integrator()),
                core.model.dt().to_bits(),
                eval_tag(eval)
            ))?;
        }
        let store = SpoolStore {
            spool,
            journal,
            resident: SoaGrid::new(n, r_max, cols, Q16_16::ZERO),
            resident_in: SoaGrid::new(
                n,
                if core.uses_inputs { r_max } else { 1 },
                cols,
                Q16_16::ZERO,
            ),
            out_buf: chunk(),
            heun_buf: heun.then(|| (chunk(), chunk())),
            stage: Vec::new(),
            wstage: Vec::new(),
            lut_layers: core.lut_layers,
            peak_resident: 0,
            spill_bytes: 0,
            fill_bytes: 0,
        };
        Ok(Self { core, store })
    }

    /// The spool directory.
    pub fn spool_dir(&self) -> &Path {
        &self.store.spool.dir
    }

    /// Cumulative bytes filled (read back) from the chunk spool: halo
    /// fills plus the Heun corrector's `x₀`/`k₁` re-reads.
    pub fn fill_bytes(&self) -> u64 {
        self.store.fill_bytes
    }

    /// Assembles a bit-exact [`SimSnapshot`] from the current-parity
    /// chunks (see [`Sim::try_snapshot`]).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] / [`StreamError::Corrupt`] on spool problems.
    pub fn snapshot(&self) -> Result<SimSnapshot, StreamError> {
        self.try_snapshot()
    }

    /// One layer's current state as `f64` (assembled from the spool).
    ///
    /// # Errors
    ///
    /// Propagates spool read failures.
    pub fn state_f64(&self, layer: LayerId) -> Result<Grid<f64>, StreamError> {
        self.try_state_f64(layer)
    }

    /// Advances one full time step (all windows of all passes).
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures; the journal then still reflects the
    /// last completed window, so [`recover`](Self::recover) can resume.
    pub fn step(&mut self) -> Result<StepReport, StreamError> {
        self.try_step()
    }

    /// Runs `n` full steps.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn run(&mut self, n: u64) -> Result<StepReport, StreamError> {
        let mut report = self.core.report();
        for _ in 0..n {
            report = self.step()?;
        }
        Ok(report)
    }

    /// Advances exactly `n` window executions — the restartability hook:
    /// tests kill a sweep mid-step by advancing a few windows, dropping
    /// the engine, and [`recover`](Self::recover)ing from the spool.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn step_windows(&mut self, n: usize) -> Result<(), StreamError> {
        for _ in 0..n {
            self.core.advance_window(&mut self.store)?;
        }
        Ok(())
    }

    /// Recovery helper: folds `max |Δx|` between the old- and new-parity
    /// chunks of a final-pass window completed before a kill, so the
    /// resumed step's residual matches an uninterrupted run.
    fn fold_recovered_residual(&mut self, w: usize) -> Result<(), StreamError> {
        let (core, store) = (&mut self.core, &mut self.store);
        let old = parity_stream(core.steps);
        read_window(
            &store.spool,
            &mut store.stage,
            core,
            old,
            w,
            &mut store.out_buf,
        )?;
        let (r0, r1) = core.window_bounds(w);
        let cells = (r1 - r0) * core.model.cols();
        let n = core.model.n_layers();
        let offs =
            store
                .spool
                .read_chunk(parity_stream(core.steps + 1), w, n, cells, &mut store.stage)?;
        for (l, &off) in offs.iter().enumerate() {
            for (j, o) in store.out_buf.layer_slice(l)[..cells].iter().enumerate() {
                let nv = read_i32(&store.stage, off + j * 4);
                let d = (i64::from(nv) - i64::from(o.to_bits())).abs();
                core.residual_raw = core.residual_raw.max(d);
            }
        }
        Ok(())
    }
}

/// Reads window `w`'s chunk of `stream` into the first chunk rows of
/// `grid`; returns bytes read.
fn read_window(
    spool: &Spool,
    stage: &mut Vec<u8>,
    core: &Core,
    stream: &str,
    w: usize,
    grid: &mut SoaGrid<Q16_16>,
) -> Result<u64, StreamError> {
    let (r0, r1) = core.window_bounds(w);
    let cells = (r1 - r0) * core.model.cols();
    let offs = spool.read_chunk(stream, w, grid.n_layers(), cells, stage)?;
    for (l, &off) in offs.iter().enumerate() {
        for (j, slot) in grid.layer_mut(l)[..cells].iter_mut().enumerate() {
            *slot = Q16_16::from_bits(read_i32(stage, off + j * 4));
        }
    }
    Ok(stage.len() as u64)
}

/// Spills the first chunk rows of `grid` as window `w`'s chunk of
/// `stream`, stamped with the `(steps, time)` counters; returns bytes
/// written.
fn write_window(
    spool: &Spool,
    wstage: &mut Vec<u8>,
    core: &Core,
    stream: &str,
    w: usize,
    (steps, time): (u64, f64),
    grid: &SoaGrid<Q16_16>,
) -> Result<u64, StreamError> {
    let (r0, r1) = core.window_bounds(w);
    let cells = (r1 - r0) * core.model.cols();
    let layers: Vec<ChunkSrc<'_>> = (0..grid.n_layers())
        .map(|l| ChunkSrc::Fx(&grid.layer_slice(l)[..cells]))
        .collect();
    spool.write_chunk(stream, w, steps, time, cells, &layers, wstage)
}

/// Fills the core's prepared window's resident rows of `grid` from a
/// chunk stream; returns bytes read.
fn fill_resident(
    spool: &Spool,
    stream: &str,
    core: &Core,
    grid: &mut SoaGrid<Q16_16>,
    stage: &mut Vec<u8>,
) -> Result<u64, StreamError> {
    let (n, cols, chunk_rows) = (grid.n_layers(), core.model.cols(), core.chunk_rows);
    let resident = core.resident();
    let mut bytes = 0u64;
    let mut i = 0;
    while i < resident.len() {
        let chunk = resident[i] / chunk_rows;
        let (c0, c1) = core.window_bounds(chunk);
        let offs = spool.read_chunk(stream, chunk, n, (c1 - c0) * cols, stage)?;
        while i < resident.len() && resident[i] / chunk_rows == chunk {
            let r = resident[i];
            let local = core.row_map[r] as usize;
            for (l, &off) in offs.iter().enumerate() {
                let src = off + (r - c0) * cols * 4;
                let dst = &mut grid.layer_mut(l)[local * cols..(local + 1) * cols];
                for (j, slot) in dst.iter_mut().enumerate() {
                    *slot = Q16_16::from_bits(read_i32(stage, src + j * 4));
                }
            }
            i += 1;
        }
        bytes += stage.len() as u64;
    }
    Ok(bytes)
}

/// The state stream for a given step parity: step `s` reads `x{s%2}` and
/// writes `x{(s+1)%2}` — two alternating on-disk state generations.
fn parity_stream(steps: u64) -> &'static str {
    if steps.is_multiple_of(2) {
        "x0"
    } else {
        "x1"
    }
}

/// Solves for the largest chunk height whose resident window fits
/// `budget` bytes. The linear model charges, per chunk row: the resident
/// state and input rows, the RHS/update buffers, the gather tables, the
/// per-shard lane scratch, tile bookkeeping, and chunk I/O staging; plus
/// a fixed charge for the `2·halo` halo rows. Degrades to one-row chunks
/// when the budget is smaller than a single-row window.
fn solve_chunk_rows(
    model: &CennModel,
    halo: usize,
    n_taps: usize,
    max_sites: usize,
    max_factors: usize,
    heun: bool,
    budget: u64,
) -> usize {
    let word = std::mem::size_of::<Q16_16>() as u64;
    let cols = model.cols() as u64;
    let n = model.n_layers() as u64;
    let resident_row = 2 * n * cols * word; // states + inputs
    let scratch_cell = n * 4 + 8 + 4 + max_sites as u64 * 4 + max_factors as u64 * 8;
    let mut chunk_row = n * cols * word // out_buf
        + n_taps as u64 * cols * 4 // gather tables
        + cols * scratch_cell // shard lane scratch
        + cols * 16 // tile cells/flats/pes
        + 2 * n * cols * word; // read + write staging
    if heun {
        chunk_row += 2 * n * cols * word; // pred / x0+k1 chunk buffers
    }
    let base = 2 * halo as u64 * resident_row + 256;
    let per_row = resident_row + chunk_row;
    let g = budget.saturating_sub(base) / per_row.max(1);
    (g as usize).clamp(1, model.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::grid::Grid;
    use crate::mapping;
    use crate::model::CennModelBuilder;

    fn fisher_sim(rows: usize, cols: usize) -> CennSim {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        let sq = b.register_func(cenn_lut::funcs::square());
        let mut stencil = mapping::laplacian(0.25, 1.0);
        stencil.set(0, 0, stencil.get(0, 0) + 1.0);
        b.state_template(u, u, stencil.into_state_template());
        b.offset_expr(
            u,
            crate::template::WeightExpr::product(
                -1.0,
                vec![crate::template::Factor { func: sq, layer: u }],
            ),
        );
        let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
        sim.set_state_f64(
            crate::layer::LayerId(0),
            &Grid::from_fn(rows, cols, |r, c| {
                0.05 + 0.9 * f64::from(u32::from(r == rows / 2 && c == cols / 2))
            }),
        )
        .unwrap();
        sim
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cenn_stream_unit_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn streamed_matches_in_core_states_and_counters() {
        let mut in_core = fisher_sim(12, 9);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(tmp_dir("euler")).with_chunk_rows(5),
        )
        .unwrap();
        assert_eq!(streamed.n_windows(), 3);
        in_core.run(7);
        streamed.run(7).unwrap();
        let snap = streamed.snapshot().unwrap();
        assert_eq!(snap.states, in_core.snapshot().states);
        assert_eq!(snap.steps, 7);
        assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        assert!(streamed.spill_bytes() > 0);
        assert!(streamed.peak_resident_bytes() > 0);
        let _ = fs::remove_dir_all(streamed.spool_dir());
    }

    #[test]
    fn kill_and_recover_resumes_bit_identically() {
        let mut reference = fisher_sim(10, 6);
        let dir = tmp_dir("recover");
        let cfg = StreamConfig::new(&dir).with_chunk_rows(3);
        let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
        reference.run(4);
        streamed.run(2).unwrap();
        // Kill mid-step: 2 of 4 windows into step 3.
        streamed.step_windows(2).unwrap();
        let model = reference.model().clone();
        drop(streamed);
        let mut recovered = StreamSim::recover(model, cfg).unwrap();
        assert_eq!(recovered.steps(), 2);
        recovered.run(2).unwrap();
        assert_eq!(
            recovered.snapshot().unwrap().states,
            reference.snapshot().states
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn algebraic_layers_are_rejected() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let w = b.algebraic_layer("w", Boundary::Zero);
        b.state_template(w, u, mapping::center(2.0).into_template());
        let sim = CennSim::new(b.build(0.1).unwrap()).unwrap();
        assert!(matches!(
            StreamSim::from_sim(&sim, StreamConfig::new(tmp_dir("alg"))),
            Err(StreamError::Unsupported(_))
        ));
    }

    #[test]
    fn budget_solver_is_monotone_and_clamped() {
        let mut b = CennModelBuilder::new(64, 64);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::laplacian(0.1, 1.0).into_state_template());
        let model = b.build(0.1).unwrap();
        let g_small = solve_chunk_rows(&model, 1, 9, 0, 0, false, 1);
        let g_mid = solve_chunk_rows(&model, 1, 9, 0, 0, false, 64 * 1024);
        let g_big = solve_chunk_rows(&model, 1, 9, 0, 0, false, u64::MAX);
        assert_eq!(g_small, 1, "tiny budget degrades to one-row chunks");
        assert!(g_small <= g_mid && g_mid <= g_big, "monotone in budget");
        assert_eq!(g_big, 64, "huge budget clamps to the grid");
        assert!((1..64).contains(&g_mid), "mid budget lands between");
    }

    #[test]
    fn chunk_files_round_trip_and_keep_ckpt_framing() {
        let dir = tmp_dir("ckpt");
        fs::create_dir_all(&dir).unwrap();
        let spool = Spool { dir: dir.clone() };
        let vals: Vec<Q16_16> = (0..12).map(|i| Q16_16::from_f64(i as f64 * 0.5)).collect();
        let mut stage = Vec::new();
        spool
            .write_chunk("x0", 3, 7, 0.35, 12, &[ChunkSrc::Fx(&vals)], &mut stage)
            .unwrap();
        let bytes = fs::read(spool.chunk_path("x0", 3)).unwrap();
        assert_eq!(&bytes[..8], b"CENNCKPT", "guard-compatible magic");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let offs = spool.read_chunk("x0", 3, 1, 12, &mut stage).unwrap();
        for (j, v) in vals.iter().enumerate() {
            assert_eq!(read_i32(&stage, offs[0] + j * 4), v.to_bits());
        }
        assert!(spool.read_chunk("x0", 3, 2, 12, &mut stage).is_err());
        assert!(spool.read_chunk("x0", 3, 1, 11, &mut stage).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
