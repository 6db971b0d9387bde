//! QoZ and HPEZ: the interpolation engine behind an online (α, β) tuner. A
//! [`Preset`] is the only place the two differ; [`Tuned`] is the one
//! compressor both are.
//!
//! **QoZ** (paper ref \[8\]) extends SZ3's interpolation pipeline with a
//! lossless **anchor grid** (every 64th point per axis stored raw),
//! **per-level error bounds** `eb_l = max(eb/α^(l−1), eb/β)` — coarse levels,
//! whose errors propagate down the hierarchy, are coded more precisely — and
//! an **auto-tuner** that picks (α, β) by trial-compressing a sample block.
//! Unlike SZ3 it never leaves interpolation (the paper: "the compression
//! overhead of QP is much more steady on QoZ because QoZ does not make the
//! Lorenzo switch").
//!
//! **HPEZ** (paper ref \[9\]), the paper's strongest interpolation baseline,
//! adds **multi-dimensional interpolation** — parity-class passes (edge
//! midpoints → face centers → cube centers), each point predicted from
//! *every* odd-parity axis, which is why the paper sees the weakest index
//! clustering and the smallest QP gains there — and **per-level re-tuning**
//! of spline family and of the axes each pass averages over ("dynamic
//! dimension freezing") from sampled prediction error, standing in for
//! HPEZ's block-wise tuning (see DESIGN.md §5).

use crate::{EngineConfig, InterpEngine, QuantCapture};
use qip_core::{CompressCtx, CompressError, Compressor, ErrorBound, QpConfig};
use qip_tensor::{Field, Scalar};
use std::borrow::Cow;

/// Everything that tells one tuned-engine compressor from the other.
#[derive(Debug)]
pub struct Preset {
    /// Registry name ("QoZ"); [`Compressor::name`] appends "+QP".
    pub name: &'static str,
    /// Lowercase stream kind ("qoz"): the inspect kind and the prefix of the
    /// `{kind}.alpha` / `{kind}.beta` notes.
    pub kind: &'static str,
    /// Stream magic.
    pub magic: u8,
    /// The engine configuration behind that magic.
    pub config: fn(u8) -> EngineConfig,
    /// (α, β) pairs the tuner tries, in order (α = 1 reproduces the uniform
    /// SZ3 bounds; larger α spends more bits on coarse levels).
    pub candidates: &'static [(f64, f64)],
    /// Index of the candidate used when nothing was tuned.
    pub fallback: usize,
}

/// The QoZ preset.
pub static QOZ: Preset = Preset {
    name: "QoZ",
    kind: "qoz",
    magic: 0x30,
    config: EngineConfig::qoz_like,
    candidates: &[(1.0, 1.0), (1.25, 2.0), (1.5, 2.0), (2.0, 4.0)],
    fallback: 1,
};

/// The HPEZ preset.
pub static HPEZ: Preset = Preset {
    name: "HPEZ",
    kind: "hpez",
    magic: 0x40,
    config: EngineConfig::hpez_like,
    candidates: &[(1.25, 2.0), (1.5, 2.0), (2.0, 4.0)],
    fallback: 0,
};

impl Preset {
    /// The preset whose streams start with `magic`.
    pub fn by_magic(magic: u8) -> Option<&'static Preset> {
        [&QOZ, &HPEZ].into_iter().find(|p| p.magic == magic)
    }

    /// The engine of this preset at its default (α, β) — what decodes any of
    /// its streams, since (α, β) and the QP configuration travel in them.
    pub fn engine(&self) -> InterpEngine {
        InterpEngine::new((self.config)(self.magic))
    }

    /// The tuner's decision over the candidates' trial stream lengths (`None`
    /// = the trial failed): the first strictly smallest stream wins — same
    /// bound, so same worst-case quality — and the fallback stands when every
    /// trial failed.
    fn pick(&self, trial_lens: impl IntoIterator<Item = Option<usize>>) -> (f64, f64) {
        let mut best = (self.candidates[self.fallback], usize::MAX);
        for (&ab, len) in self.candidates.iter().zip(trial_lens) {
            if let Some(len) = len.filter(|&len| len < best.1) {
                best = (ab, len);
            }
        }
        best.0
    }
}

/// The central block of at most `edge` points per axis that a tuning trial
/// compresses; a field that already fits is borrowed, not copied.
pub fn sample_block<T: Scalar>(field: &Field<T>, edge: usize) -> Cow<'_, Field<T>> {
    let dims = field.shape().dims();
    if dims.iter().all(|&d| d <= edge) {
        return Cow::Borrowed(field);
    }
    let origin: Vec<usize> = dims.iter().map(|&d| d.saturating_sub(edge) / 2).collect();
    Cow::Owned(field.subregion(&origin, &vec![edge; dims.len()]))
}

/// The guard a compressor holds around its trial compressions. They run
/// capture-paused: the tuning *cost* stays visible as the span `name`, but
/// trial-stream stats never pollute the trace counters or telemetry of the
/// run actually kept.
#[must_use]
pub fn trial_scope(name: &'static str) -> impl Sized {
    (qip_telemetry::span(name), qip_telemetry::pause())
}

/// QoZ or HPEZ, as its [`Preset`] says.
#[derive(Debug, Clone)]
pub struct Tuned {
    preset: &'static Preset,
    qp: QpConfig,
}

impl Tuned {
    /// QoZ with QP disabled and auto-tuning on.
    pub fn qoz() -> Self {
        Tuned { preset: &QOZ, qp: QpConfig::off() }
    }

    /// HPEZ with QP disabled and auto-tuning on.
    pub fn hpez() -> Self {
        Tuned { preset: &HPEZ, ..Self::qoz() }
    }

    /// Enable/replace the QP configuration (builder style).
    pub fn with_qp(mut self, qp: QpConfig) -> Self {
        self.qp = qp;
        self
    }

    /// Capture the quantization index arrays (characterization API).
    pub fn quant_capture<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Result<QuantCapture, CompressError> {
        let ab = self.tune(field, bound, &mut CompressCtx::new(), &mut Vec::new());
        Ok(self.engine(ab, self.qp).compress_capturing(field, bound)?.1)
    }

    fn engine(&self, (alpha, beta): (f64, f64), qp: QpConfig) -> InterpEngine {
        let p = self.preset;
        InterpEngine::new(EngineConfig { alpha, beta, qp, ..(p.config)(p.magic) })
    }

    /// Pick (α, β) by trial compression of a central sample block, with all
    /// scratch — `scratch` holds the trial streams — from the caller. The
    /// trials run QP-blind, so QP never shifts (α, β) and therefore never
    /// changes the decompressed data (the paper's invariant).
    fn tune<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        scratch: &mut Vec<u8>,
    ) -> (f64, f64) {
        let p = self.preset;
        if field.len() < 8192 {
            return p.candidates[p.fallback];
        }
        let _trial = trial_scope("tune");
        let block = sample_block(field, 48);
        // Resolved against the full field: trials quantize as the real run.
        let abs = bound.resolve(field).as_abs();
        p.pick(p.candidates.iter().map(|&ab| {
            scratch.clear();
            let trial = self.engine(ab, QpConfig::off()).compress_append(&block, abs, ctx, scratch);
            trial.ok().map(|()| scratch.len())
        }))
    }

    /// Record the (α, β) pair the tuner settled on.
    fn note_tuned(&self, (alpha, beta): (f64, f64)) {
        if qip_telemetry::capturing() {
            let kind = self.preset.kind;
            qip_telemetry::note(&format!("{kind}.alpha"), qip_telemetry::Label::None, alpha);
            qip_telemetry::note(&format!("{kind}.beta"), qip_telemetry::Label::None, beta);
        }
    }
}

impl<T: Scalar> Compressor<T> for Tuned {
    fn name(&self) -> String {
        let qp = if self.qp.is_enabled() { "+QP" } else { "" };
        format!("{}{qp}", self.preset.name)
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        // `out` doubles as the trial-stream scratch; it is rebuilt below.
        let ab = self.tune(field, bound, ctx, out);
        self.note_tuned(ab);
        out.clear();
        self.engine(ab, self.qp).compress_append(field, bound, ctx, out)?;
        let _t = qip_telemetry::span("seal");
        qip_core::integrity::seal_in_place(out);
        Ok(())
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let bytes = qip_core::integrity::check(bytes)?;
        self.preset.engine().decompress_with(bytes, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_metrics::max_abs_error;
    use qip_tensor::Shape;

    fn presets() -> [Tuned; 2] {
        [Tuned::qoz(), Tuned::hpez()]
    }

    fn smooth<T: Scalar>(dims: &[usize]) -> Field<T> {
        Field::from_fn(Shape::new(dims), |c| {
            let x = c[0] as f64;
            let y = c.get(1).copied().unwrap_or(0) as f64;
            let z = c.get(2).copied().unwrap_or(0) as f64;
            T::from_f64((0.08 * x).sin() + (0.06 * y).cos() * 0.7 + 0.02 * z + 0.1 * (0.02 * x * y).cos())
        })
    }

    #[test]
    fn default_instance_decodes_any_alpha_beta() {
        // α/β travel in the stream, so a default-configured instance decodes.
        let f = smooth::<f32>(&[40, 40, 12]);
        for base in presets() {
            let enc = base.engine((2.0, 4.0), QpConfig::best_fit());
            let bytes = qip_core::integrity::seal(enc.compress(&f, ErrorBound::Abs(1e-3)).unwrap());
            let out: Field<f32> = base.decompress(&bytes).unwrap();
            assert!(max_abs_error(&f, &out) <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn name_reflects_qp() {
        for (base, name) in presets().into_iter().zip(["QoZ", "HPEZ"]) {
            assert_eq!(Compressor::<f32>::name(&base), name);
            let qp = base.with_qp(QpConfig::best_fit());
            assert_eq!(Compressor::<f32>::name(&qp), format!("{name}+QP"));
        }
    }

    #[test]
    fn rejects_foreign_magic() {
        let f = smooth::<f32>(&[16, 16, 8]);
        let [qoz, hpez] = presets();
        let foreign = qip_core::integrity::seal(
            InterpEngine::new(EngineConfig::sz3_like(0x21)).compress(&f, ErrorBound::Abs(1e-3)).unwrap(),
        );
        let own = qoz.compress(&f, ErrorBound::Abs(1e-3)).unwrap();
        assert!(Compressor::<f32>::decompress(&qoz, &foreign).is_err());
        assert!(Compressor::<f32>::decompress(&hpez, &foreign).is_err());
        assert!(Compressor::<f32>::decompress(&hpez, &own).is_err());
        assert!(Compressor::<f32>::decompress(&qoz, &own).is_ok());
    }

    #[test]
    fn ties_keep_the_earlier_candidate() {
        for p in [&QOZ, &HPEZ] {
            assert_eq!(p.pick(p.candidates.iter().map(|_| Some(100))), p.candidates[0]);
            // A later candidate must be strictly smaller to win.
            assert_eq!(p.pick([Some(100), Some(100), Some(99)]), p.candidates[2]);
            assert_eq!(p.pick([None, Some(7), Some(7)]), p.candidates[1]);
        }
    }

    #[test]
    fn every_trial_failing_returns_the_preset_fallback() {
        assert_eq!(QOZ.pick([None; 4]), (1.25, 2.0));
        assert_eq!(HPEZ.pick([None; 3]), (1.25, 2.0));
        // ... which is also what an untuned (small) field gets.
        let small = smooth::<f32>(&[16, 16, 8]);
        for base in presets() {
            let ab = base.tune(&small, ErrorBound::Abs(1e-3), &mut CompressCtx::new(), &mut Vec::new());
            assert_eq!(ab, (1.25, 2.0));
        }
    }
}
