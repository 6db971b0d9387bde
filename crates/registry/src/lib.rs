//! Unified compressor registry: one constructor surface for every compressor
//! in the evaluation.
//!
//! Historically each consumer (the `qip` CLI, the benchmark runner, the fault
//! harness) grew its own name→compressor table; this crate is the single home
//! for that mapping. [`AnyCompressor`] implements [`Compressor`] for both
//! `f32` and `f64`, one instrumented body per direction around the backend's
//! own, so a registry entry can be used anywhere a concrete compressor could.

#![warn(missing_docs)]

use qip_core::{
    CompressCtx, CompressError, Compressor, ErrorBound, ProgressiveDecompress, QpConfig,
};
use qip_interp::{QuantCapture, Tuned};
use qip_mgard::Mgard;
use qip_sperr::Sperr;
use qip_sz3::Sz3;
use qip_telemetry::TraceReport;
use qip_tensor::{Field, Scalar};
use qip_tthresh::Tthresh;
use qip_zfp::Zfp;

/// The canonical registry names, in reporting order. [`AnyCompressor::by_name`]
/// accepts exactly these (case-insensitively), and [`LookupError`]'s messages
/// list them, so every layer names the same eleven compressors.
pub const CANONICAL_NAMES: [&str; 11] = [
    "MGARD", "SZ3", "QoZ", "HPEZ", "MGARD+QP", "SZ3+QP", "QoZ+QP", "HPEZ+QP", "ZFP", "TTHRESH",
    "SPERR",
];

/// A typed [`AnyCompressor::by_name`] rejection.
///
/// The `Display` form is the user-facing CLI/serve/bench error message and
/// always lists the canonical eleven names, so a typo'd compressor name gets
/// the same self-correcting hint everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupError {
    /// The name matches no registry entry.
    UnknownName {
        /// The name as the caller spelled it.
        name: String,
    },
    /// A `+QP` suffix was applied to a transform-based comparator, which has
    /// no QP mode; rejected rather than silently ignored so that a resolved
    /// compressor's `name()` always round-trips the requested name.
    ComparatorWithQp {
        /// The comparator's canonical base name ("ZFP", "TTHRESH", "SPERR").
        base: String,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::UnknownName { name } => {
                write!(f, "unknown compressor '{name}'; known: {}", CANONICAL_NAMES.join(", "))
            }
            LookupError::ComparatorWithQp { base } => {
                write!(
                    f,
                    "'{base}' is a transform-based comparator with no QP mode; \
                     drop the '+QP' suffix (known: {})",
                    CANONICAL_NAMES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// Classify a stream by its magic byte: the canonical lowercase stream-kind
/// name for every format the workspace emits, or `None` for foreign bytes.
/// This is the single home for the magic→name table the CLI `qip info` and
/// the serve compressor hint both used to duplicate.
pub fn detect_stream(bytes: &[u8]) -> Option<&'static str> {
    match bytes.first()? {
        0x20..=0x22 => Some("sz3"),
        0x30 => Some("qoz"),
        0x40 => Some("hpez"),
        0x50 => Some("mgard"),
        0x60 => Some("zfp"),
        0x70 => Some("sperr"),
        0x80 => Some("tthresh"),
        0xB0 => Some("tiled"),
        _ => None,
    }
}

/// Any compressor in the evaluation (paper Table IV rows).
#[derive(Debug, Clone)]
pub enum AnyCompressor {
    /// MGARD (optionally +QP).
    Mgard(Mgard),
    /// SZ3 (optionally +QP).
    Sz3(Sz3),
    /// QoZ (optionally +QP).
    Qoz(Tuned),
    /// HPEZ (optionally +QP).
    Hpez(Tuned),
    /// ZFP (transform-based comparator).
    Zfp(Zfp),
    /// SPERR (transform-based comparator).
    Sperr(Sperr),
    /// TTHRESH (transform-based comparator).
    Tthresh(Tthresh),
}

impl AnyCompressor {
    /// The four interpolation-based base compressors with the given QP
    /// configuration (paper's evaluation order: MGARD, SZ3, QoZ, HPEZ).
    pub fn base_four(qp: QpConfig) -> Vec<AnyCompressor> {
        vec![
            AnyCompressor::Mgard(Mgard::new().with_qp(qp)),
            AnyCompressor::Sz3(Sz3::new().with_qp(qp)),
            AnyCompressor::Qoz(Tuned::qoz().with_qp(qp)),
            AnyCompressor::Hpez(Tuned::hpez().with_qp(qp)),
        ]
    }

    /// One compressor by canonical registry name (case-insensitive): the
    /// eleven names [`AnyCompressor::registry`] reports — `"MGARD"`, `"SZ3"`,
    /// `"QoZ"`, `"HPEZ"`, their `"+QP"` variants, `"ZFP"`, `"TTHRESH"`,
    /// `"SPERR"`. A `+QP` suffix selects [`QpConfig::best_fit`]; without it
    /// QP is off. Rejections are typed: an unrecognized name is
    /// [`LookupError::UnknownName`], and `+QP` on a transform-based
    /// comparator is [`LookupError::ComparatorWithQp`] rather than silently
    /// ignored — so a name round-trips exactly:
    /// `by_name(n).unwrap().name() == n` for every registry entry.
    pub fn by_name(name: &str) -> Result<AnyCompressor, LookupError> {
        let lower = name.to_ascii_lowercase();
        let (base, qp) = match lower.strip_suffix("+qp") {
            Some(base) => (base, QpConfig::best_fit()),
            None => (lower.as_str(), QpConfig::off()),
        };
        let comp = match base {
            "mgard" => AnyCompressor::Mgard(Mgard::new().with_qp(qp)),
            "sz3" => AnyCompressor::Sz3(Sz3::new().with_qp(qp)),
            "qoz" => AnyCompressor::Qoz(Tuned::qoz().with_qp(qp)),
            "hpez" => AnyCompressor::Hpez(Tuned::hpez().with_qp(qp)),
            "zfp" => AnyCompressor::Zfp(Zfp::new()),
            "sperr" => AnyCompressor::Sperr(Sperr::new()),
            "tthresh" => AnyCompressor::Tthresh(Tthresh::new()),
            _ => return Err(LookupError::UnknownName { name: name.to_string() }),
        };
        if lower.ends_with("+qp") {
            if let AnyCompressor::Zfp(_) | AnyCompressor::Sperr(_) | AnyCompressor::Tthresh(_) =
                comp
            {
                return Err(LookupError::ComparatorWithQp {
                    base: Compressor::<f32>::name(&comp),
                });
            }
        }
        Ok(comp)
    }

    /// The full evaluation registry: the base four with QP off, the base four
    /// with QP on, and the three transform-based comparators — eleven entries,
    /// in the order every experiment and suite reports them. The bench
    /// harness, the fault corruption suite, and the conformance suite all
    /// iterate this list, so "every registry compressor" means one thing.
    pub fn registry() -> Vec<AnyCompressor> {
        let mut all = AnyCompressor::base_four(QpConfig::off());
        all.extend(AnyCompressor::base_four(QpConfig::best_fit()));
        all.extend(AnyCompressor::comparators());
        all
    }

    /// The transform-based comparators (paper Table IV's bottom rows).
    pub fn comparators() -> Vec<AnyCompressor> {
        vec![
            AnyCompressor::Zfp(Zfp::new()),
            AnyCompressor::Tthresh(Tthresh::new()),
            AnyCompressor::Sperr(Sperr::new()),
        ]
    }

    /// The wrapped compressor as a trait object, for callers that want plain
    /// dynamic dispatch (and for the blanket [`Compressor`] impl below, which
    /// routes every trait method — including the reusable-buffer paths —
    /// through this single match).
    pub fn as_dyn<T: Scalar>(&self) -> &dyn Compressor<T> {
        match self {
            AnyCompressor::Mgard(c) => c,
            AnyCompressor::Sz3(c) => c,
            AnyCompressor::Qoz(c) | AnyCompressor::Hpez(c) => c,
            AnyCompressor::Zfp(c) => c,
            AnyCompressor::Sperr(c) => c,
            AnyCompressor::Tthresh(c) => c,
        }
    }

    /// The wrapped compressor's progressive-decode capability, if it has one
    /// (today: MGARD, with or without QP). Callers that used to special-case
    /// the name "MGARD" to reach `decompress_reduced` downcast here instead.
    pub fn as_progressive<T: Scalar>(&self) -> Option<&dyn ProgressiveDecompress<T>> {
        match self {
            AnyCompressor::Mgard(c) => Some(c),
            _ => None,
        }
    }

    /// Capture the quantization index arrays (interpolation-based compressors
    /// only; `None` for the transform-based comparators).
    pub fn quant_capture<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> Option<Result<QuantCapture, CompressError>> {
        match self {
            AnyCompressor::Mgard(c) => Some(c.quant_capture(field, bound)),
            AnyCompressor::Sz3(c) => Some(c.quant_capture(field, bound)),
            AnyCompressor::Qoz(c) | AnyCompressor::Hpez(c) => Some(c.quant_capture(field, bound)),
            _ => None,
        }
    }

    /// [`Compressor::compress`] inside a fresh trace session, returning the
    /// stream together with the run's [`TraceReport`].
    pub fn compress_traced<T: Scalar>(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
    ) -> (Result<Vec<u8>, CompressError>, TraceReport) {
        qip_telemetry::with_session(|| self.compress(field, bound))
    }

    /// [`Compressor::decompress`] inside a fresh trace session.
    pub fn decompress_traced<T: Scalar>(
        &self,
        bytes: &[u8],
    ) -> (Result<Field<T>, CompressError>, TraceReport) {
        qip_telemetry::with_session(|| self.decompress(bytes))
    }
}

/// Low-cardinality outcome class for telemetry counter labels.
fn outcome_kind(result: &Result<(), &CompressError>) -> &'static str {
    match result {
        Ok(()) => "ok",
        Err(CompressError::Corrupt(_)) => "corrupt",
        Err(CompressError::Codec(_)) => "codec",
        Err(CompressError::Tensor(_)) => "tensor",
        Err(CompressError::WrongFormat(_)) => "wrong_format",
        Err(CompressError::Unsupported(_)) => "unsupported",
    }
}

/// The raw epsilon as requested (`Abs`/`Rel` both carry one); resolving a
/// relative bound would mean scanning the field, which telemetry must not do.
fn bound_epsilon(bound: ErrorBound) -> f64 {
    match bound {
        ErrorBound::Abs(e) | ErrorBound::Rel(e) => e,
    }
}

/// Finish one instrumented compress call: metrics + flight record.
fn record_compress<T: Scalar>(
    scope: Option<qip_telemetry::CallScope>,
    name: &str,
    field: &Field<T>,
    bound: ErrorBound,
    started: std::time::Instant,
    result: Result<usize, &CompressError>,
) {
    let duration_ns = started.elapsed().as_nanos() as u64;
    let status = result.map(|_| ());
    qip_telemetry::record_call(
        scope,
        qip_telemetry::CallReport {
            op: "compress",
            compressor: name,
            dims: field.shape().dims(),
            dtype: std::any::type_name::<T>(),
            error_bound: bound_epsilon(bound),
            raw_bytes: (field.len() * T::BYTES) as u64,
            stream_bytes: result.unwrap_or(0) as u64,
            duration_ns,
            outcome_kind: outcome_kind(&status),
            outcome: match result {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            },
        },
    );
}

/// Finish one instrumented decompress call. The error bound is whatever the
/// stream encodes, so the record carries 0 there; dims come from the decoded
/// field (empty when the stream was rejected).
fn record_decompress<T: Scalar>(
    scope: Option<qip_telemetry::CallScope>,
    name: &str,
    stream_bytes: usize,
    started: std::time::Instant,
    result: Result<&Field<T>, &CompressError>,
) {
    let duration_ns = started.elapsed().as_nanos() as u64;
    let status = result.map(|_| ());
    let dims: Vec<usize> = result.map(|f| f.shape().dims().to_vec()).unwrap_or_default();
    qip_telemetry::record_call(
        scope,
        qip_telemetry::CallReport {
            op: "decompress",
            compressor: name,
            dims: &dims,
            dtype: std::any::type_name::<T>(),
            error_bound: 0.0,
            raw_bytes: result.map(|f| f.len() * T::BYTES).unwrap_or(0) as u64,
            stream_bytes: stream_bytes as u64,
            duration_ns,
            outcome_kind: outcome_kind(&status),
            outcome: match result {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            },
        },
    );
}

impl<T: Scalar> Compressor<T> for AnyCompressor {
    fn name(&self) -> String {
        self.as_dyn::<T>().name()
    }

    fn compress_into(
        &self,
        field: &Field<T>,
        bound: ErrorBound,
        ctx: &mut CompressCtx,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let _t = qip_telemetry::span_with(|| format!("compress[{}]", Compressor::<T>::name(self)));
        if !qip_telemetry::active() {
            return self.as_dyn::<T>().compress_into(field, bound, ctx, out);
        }
        let scope = qip_telemetry::CallScope::begin();
        let started = std::time::Instant::now();
        let result = self.as_dyn::<T>().compress_into(field, bound, ctx, out);
        let name = Compressor::<T>::name(self);
        record_compress(scope, &name, field, bound, started, result.as_ref().map(|()| out.len()));
        result
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        ctx: &mut CompressCtx,
    ) -> Result<Field<T>, CompressError> {
        let _t = qip_telemetry::span_with(|| format!("decompress[{}]", Compressor::<T>::name(self)));
        if !qip_telemetry::active() {
            return self.as_dyn::<T>().decompress_into(bytes, ctx);
        }
        let scope = qip_telemetry::CallScope::begin();
        let started = std::time::Instant::now();
        let result = self.as_dyn::<T>().decompress_into(bytes, ctx);
        let name = Compressor::<T>::name(self);
        record_decompress(scope, &name, bytes.len(), started, result.as_ref());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_tensor::Shape;
    use std::sync::{Mutex, MutexGuard};

    /// A trace session is process-global: tests that run a registry
    /// compressor serialize, so a traced test sees only its own root spans.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn base_four_names() {
        let names: Vec<String> = AnyCompressor::base_four(QpConfig::off())
            .iter()
            .map(Compressor::<f32>::name)
            .collect();
        assert_eq!(names, vec!["MGARD", "SZ3", "QoZ", "HPEZ"]);
        let qp_names: Vec<String> = AnyCompressor::base_four(QpConfig::best_fit())
            .iter()
            .map(Compressor::<f32>::name)
            .collect();
        assert_eq!(qp_names, vec!["MGARD+QP", "SZ3+QP", "QoZ+QP", "HPEZ+QP"]);
    }

    #[test]
    fn registry_is_the_canonical_eleven() {
        let names: Vec<String> =
            AnyCompressor::registry().iter().map(Compressor::<f32>::name).collect();
        assert_eq!(
            names,
            vec![
                "MGARD", "SZ3", "QoZ", "HPEZ", "MGARD+QP", "SZ3+QP", "QoZ+QP", "HPEZ+QP",
                "ZFP", "TTHRESH", "SPERR"
            ]
        );
    }

    #[test]
    fn canonical_by_name_round_trips_every_registry_entry() {
        for c in AnyCompressor::registry() {
            let name = Compressor::<f32>::name(&c);
            let looked = AnyCompressor::by_name(&name)
                .unwrap_or_else(|e| panic!("by_name missed canonical '{name}': {e}"));
            assert_eq!(Compressor::<f32>::name(&looked), name);
            // Case-insensitive: the lowercase spelling resolves identically.
            let lower = AnyCompressor::by_name(&name.to_ascii_lowercase()).unwrap();
            assert_eq!(Compressor::<f32>::name(&lower), name);
        }
    }

    #[test]
    fn canonical_names_match_registry_order() {
        let names: Vec<String> =
            AnyCompressor::registry().iter().map(Compressor::<f32>::name).collect();
        assert_eq!(names, CANONICAL_NAMES.to_vec());
    }

    #[test]
    fn by_name_rejects_qp_on_comparators_and_unknowns() {
        for bad in ["zfp+qp", "TTHRESH+QP", "sperr+qp"] {
            assert!(
                matches!(
                    AnyCompressor::by_name(bad),
                    Err(LookupError::ComparatorWithQp { .. })
                ),
                "{bad}"
            );
        }
        for bad in ["nope", "", "+qp"] {
            assert!(
                matches!(AnyCompressor::by_name(bad), Err(LookupError::UnknownName { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn lookup_error_messages_list_the_canonical_eleven() {
        let unknown = AnyCompressor::by_name("zstd").unwrap_err();
        assert_eq!(
            unknown.to_string(),
            "unknown compressor 'zstd'; known: MGARD, SZ3, QoZ, HPEZ, MGARD+QP, SZ3+QP, \
             QoZ+QP, HPEZ+QP, ZFP, TTHRESH, SPERR"
        );
        let comparator = AnyCompressor::by_name("zfp+qp").unwrap_err();
        assert_eq!(
            comparator.to_string(),
            "'ZFP' is a transform-based comparator with no QP mode; drop the '+QP' suffix \
             (known: MGARD, SZ3, QoZ, HPEZ, MGARD+QP, SZ3+QP, QoZ+QP, HPEZ+QP, ZFP, TTHRESH, \
             SPERR)"
        );
    }

    #[test]
    fn progressive_capability_is_mgard_only() {
        for c in AnyCompressor::registry() {
            let name = Compressor::<f32>::name(&c);
            let has = c.as_progressive::<f32>().is_some();
            assert_eq!(has, name.starts_with("MGARD"), "{name}");
            assert_eq!(c.as_progressive::<f64>().is_some(), has, "{name}");
        }
    }

    #[test]
    fn progressive_downcast_matches_inherent_reduced_decode() {
        let _s = serial();
        let field = Field::<f32>::from_fn(Shape::d3(17, 15, 13), |c| {
            (c[0] as f32 * 0.2).sin() + (c[1] as f32 * 0.15).cos() + c[2] as f32 * 0.01
        });
        let comp = AnyCompressor::by_name("MGARD").unwrap();
        let bytes = comp.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let prog = comp.as_progressive::<f32>().expect("MGARD is progressive");
        let coarse = prog.decompress_reduced(&bytes, 1).unwrap();
        assert_eq!(coarse.shape().dims(), &[9, 8, 7]);
        let full = prog.decompress_reduced(&bytes, 0).unwrap();
        let direct: Field<f32> = comp.decompress(&bytes).unwrap();
        assert_eq!(full.as_slice(), direct.as_slice());
    }

    #[test]
    fn detect_stream_classifies_every_workspace_magic() {
        let cases: [(u8, &str); 9] = [
            (0x20, "sz3"),
            (0x22, "sz3"),
            (0x30, "qoz"),
            (0x40, "hpez"),
            (0x50, "mgard"),
            (0x60, "zfp"),
            (0x70, "sperr"),
            (0x80, "tthresh"),
            (0xB0, "tiled"),
        ];
        for (magic, kind) in cases {
            assert_eq!(detect_stream(&[magic]), Some(kind), "{magic:#x}");
        }
        assert_eq!(detect_stream(&[0xFF]), None);
        assert_eq!(detect_stream(&[]), None);
    }

    #[test]
    fn all_seven_roundtrip() {
        let _s = serial();
        let field = Field::<f32>::from_fn(Shape::d3(14, 13, 12), |c| {
            (c[0] as f32 * 0.2).sin() + (c[1] as f32 * 0.15).cos() + c[2] as f32 * 0.01
        });
        let mut all = AnyCompressor::base_four(QpConfig::best_fit());
        all.extend(AnyCompressor::comparators());
        for c in &all {
            let bytes = c.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let out: Field<f32> = c.decompress(&bytes).unwrap();
            let err = qip_metrics::max_abs_error(&field, &out);
            assert!(err <= 1e-3 + 1e-9, "{}: err {err}", Compressor::<f32>::name(c));
        }
    }

    #[test]
    fn capture_available_only_for_base_four() {
        let field = Field::<f32>::from_fn(Shape::d3(12, 12, 12), |c| c[0] as f32 * 0.1);
        for c in AnyCompressor::base_four(QpConfig::off()) {
            assert!(c.quant_capture(&field, ErrorBound::Abs(1e-3)).is_some());
        }
        for c in AnyCompressor::comparators() {
            assert!(c.quant_capture(&field, ErrorBound::Abs(1e-3)).is_none());
        }
    }

    #[test]
    fn traced_run_reports_root_span_per_compressor() {
        let _s = serial();
        let field = Field::<f32>::from_fn(Shape::d3(14, 13, 12), |c| {
            (c[0] as f32 * 0.2).sin() + (c[1] as f32 * 0.15).cos() + c[2] as f32 * 0.01
        });
        let mut all = AnyCompressor::base_four(QpConfig::best_fit());
        all.extend(AnyCompressor::comparators());
        for c in &all {
            let name = Compressor::<f32>::name(c);
            let (bytes, creport) = c.compress_traced(&field, ErrorBound::Abs(1e-3));
            let bytes = bytes.unwrap();
            let (out, dreport) = c.decompress_traced::<f32>(&bytes);
            out.unwrap();
            let root = creport
                .span(&format!("compress[{name}]"))
                .unwrap_or_else(|| panic!("{name}: missing compress root span"));
            assert_eq!(root.calls, 1, "{name}");
            assert!(dreport.span(&format!("decompress[{name}]")).is_some(), "{name}");
        }
    }
}
