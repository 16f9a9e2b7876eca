//! Reference solvers and baseline performance models for the CeNN DE
//! solver evaluation.
//!
//! Two roles, mirroring the paper's methodology:
//!
//! * **Accuracy reference (Fig. 11).** [`FloatRunner`] evolves the *same*
//!   [`cenn_core::CennModel`] in floating point — [`Precision::F32`] plays
//!   the paper's "GPU (32bit floating-point)" comparator, and
//!   [`Precision::F64`] is the ground truth used to split total error into
//!   its fixed-point and LUT components ([`accuracy`]).
//! * **Performance baselines (Fig. 13–14).** The paper measures a GTX 850
//!   GPU and a CPU; we substitute parameterized roofline models
//!   ([`ComputeDevice`]) whose constants are documented in DESIGN.md. The
//!   speedup *shape* (who wins, scaling with grid size and nonlinearity
//!   count) is governed by arithmetic intensity, bandwidth, and per-step
//!   launch overhead, which the model captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
mod float_sim;
mod perf_model;

pub use float_sim::{FloatRunner, Precision};
pub use perf_model::{gtx850_gpu, mobile_cpu, ComputeDevice, StencilWorkload};
