//! # quantize
//!
//! 8-bit post-training quantization (PTQ) and the quantized-model IR shared
//! by every inference engine in the workspace.
//!
//! The paper's models are "trained on the CIFAR-10 dataset with 8-bit
//! post-training quantization" (Section II-A). This crate reproduces the
//! TFLite/CMSIS-NN int8 scheme:
//!
//! * activations: per-tensor **affine** (`scale`, `zero_point`), ranges from
//!   a calibration subset;
//! * weights: per-tensor **symmetric** int8 (`zero_point = 0`);
//! * bias: int32 at scale `s_in · s_w`;
//! * output stage: fixed-point requantize (`arm_nn_requantize` semantics,
//!   implemented in [`tinytensor::quant`]) + saturation, with ReLU *fused*
//!   into the output clamp (`max(zero_point, ·)`).
//!
//! [`QuantModel::forward`] is the bit-exact *reference* interpretation of a
//! quantized model. It is deliberately free of any cycle accounting — the
//! DSE evaluates thousands of approximate configurations against it — and it
//! accepts optional per-conv-layer [`SkipMaskSet`]s that omit individual
//! products exactly like the generated approximate code does (Eq. (3) of the
//! paper). The cycle-accounted engines (`cmsisnn`, `unpackgen`, `xcubeai`)
//! must agree with this reference bit-for-bit; integration tests enforce it.

//!
//! For the DSE and serving hot paths, [`compiled::CompiledMasks`] lowers a
//! [`SkipMaskSet`] into branch-free per-channel retained-product streams
//! executed over pair-interleaved columns (broadcast-weight kernels; the
//! MCU-side SMLAD-pair shape stays in [`tinytensor::simd`] as the codegen
//! model). [`batch`] is the one compiled host engine that runs them —
//! per-image inference is its `batch = 1` — bit-exactly against the
//! reference path, monolithically
//! ([`QuantModel::predict_compiled_batch_scratch`]) or resumably from
//! [`BatchCheckpoint`]s, optionally reusing cached first-conv columns.

// The workspace denies `unsafe_code`; the three modules implementing the
// parallel batch path (lifetime-erased pool dispatch, shared-arena cells,
// SIMD intrinsics) are the only ones allowed back in, and every site must
// carry a `SAFETY:` comment (enforced by `repo_lint`).
#[allow(unsafe_code)]
pub mod batch;
pub mod calib;
#[allow(unsafe_code)]
pub mod compiled;
pub mod forward;
pub mod plan;
#[allow(unsafe_code)]
pub mod pool;
pub mod qmodel;

pub use batch::{BatchCheckpoint, BatchScratch};
pub use calib::calibrate_ranges;
pub use compiled::{simd_level_name, CompiledConv, CompiledMasks};
pub use forward::{argmax_i8, SkipMaskSet};
pub use plan::{
    AddSegment, ConvSegment, DenseSegment, ExecBackend, ExecPlan, GapSegment, LogitsSegment,
    PlanError, PoolSegment, Segment,
};
pub use pool::BatchPool;
pub use qmodel::{
    quantize_model, QAdd, QConv, QDense, QGlobalAvgPool, QLayer, QPool, QStash, QuantModel,
};
