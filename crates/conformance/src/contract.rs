//! The bound property: every decompressed point honours the bound.
//!
//! The workspace's core invariant (paper Sec. III: `|d_i − d'_i| ≤ ε` for the
//! resolved absolute ε) is checked over the [case matrix](mod@crate::matrix)
//! through all three compress entry points — `compress`, `compress_into` on
//! one context left dirty by every earlier case, and the tiled container.
//! The check is qip-metrics' [`BoundCheck`], the one definition of the
//! bound: a finite error meets `ε` with no slack, and a non-finite sample
//! must come back with the same bits. MGARD and ZFP, whose transforms have
//! no lossless channel, may refuse a planted field with
//! `Unsupported("non-finite sample")` instead, and ZFP, SPERR and TTHRESH a
//! rank-4 field with their typed "supports 1-3 dimensions". And QP never
//! changes the decoded bits: every QP-on stream decodes exactly like its
//! QP-off twin's through the same entry point.
//!
//! A broken bound or a failed round trip is **minimized** (greedy axis
//! shrinking while it reproduces) and reported with its case and a stage
//! trace of the failing run, so the counterexample a CI artifact carries is
//! the smallest one the minimizer could find, not the random one it hit.

use crate::matrix::{minimize, Case};
use crate::tiles::tile_edge;
use qip_container::TiledCompressor;
use qip_core::{CompressCtx, CompressError, Compressor};
use qip_metrics::BoundCheck;
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Scalar};
use std::collections::HashMap;

/// The three compress entry points the property runs through.
pub const ENTRIES: [&str; 3] = ["compress", "compress_into", "tiled"];

/// One minimized contract violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Compressor name.
    pub compressor: String,
    /// The entry point, one of [`ENTRIES`].
    pub entry: &'static str,
    /// The case as drawn.
    pub case: Case,
    /// Dimensions after minimization (the failure still reproduces there).
    pub minimized_dims: Vec<usize>,
    /// What went wrong at the drawn dims.
    pub problem: String,
    /// Stage trace of the minimized failing run.
    pub trace: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Violation { compressor, entry, case, minimized_dims, problem, trace } = self;
        write!(f, "{compressor} through {entry} on {case}: {problem}; minimized to {minimized_dims:?}\n{trace}")
    }
}

/// One compressor's run over the matrix.
#[derive(Debug, Clone, Default)]
pub struct ContractStats {
    /// Compressor name.
    pub compressor: String,
    /// Entry-point runs that refused the field with an allowed typed error.
    pub refused: usize,
    /// Entry-point runs whose decode was compared with the QP-off twin's.
    pub twins: usize,
    /// Worst error-to-bound ratio ([`BoundCheck::max_ratio`]) over every
    /// run that held (1.0 would sit exactly on the bound).
    pub worst_ratio: f64,
    /// Every violation (empty = the contract held).
    pub violations: Vec<Violation>,
}

/// Round-trip `field` through one entry point.
fn roundtrip<T: Scalar>(
    comp: &AnyCompressor,
    entry: &str,
    case: &Case,
    field: &Field<T>,
    ctx: &mut CompressCtx,
    into: &mut Vec<u8>,
) -> Result<Field<T>, CompressError> {
    match entry {
        "compress" => comp.decompress(&comp.compress(field, case.bound)?),
        "compress_into" => {
            comp.compress_into(field, case.bound, ctx, into)?;
            comp.decompress(into)
        }
        _ => {
            let tiled = TiledCompressor::new(comp.clone(), tile_edge(&case.dims))?;
            tiled.decompress(&tiled.compress(field, case.bound)?)
        }
    }
}

/// The worst finite error over `abs`, or what breaks the contract: a shape
/// drift, or the first sample qip-metrics' [`BoundCheck`] finds outside the
/// bound.
fn check<T: Scalar>(field: &Field<T>, out: &Field<T>, abs: f64) -> Result<f64, String> {
    if out.shape() != field.shape() {
        return Err(format!("shape drift: {:?} -> {:?}", field.shape(), out.shape()));
    }
    let verdict = BoundCheck::of(field.as_slice(), out.as_slice(), abs);
    match verdict.first_violation {
        None => Ok(verdict.max_ratio),
        Some(i) => {
            let (a, b) = (field.as_slice()[i].to_f64(), out.as_slice()[i].to_f64());
            Err(format!("sample {i}: {a:e} came back as {b:e} (abs {abs:.3e})"))
        }
    }
}

/// The typed refusals the contract allows: MGARD and ZFP have no lossless
/// channel for non-finite samples, and the transform-based comparators take
/// 1–3 dimensions.
fn may_refuse(comp: &AnyCompressor, case: &Case, e: &CompressError) -> bool {
    use AnyCompressor::{Mgard, Sperr, Tthresh, Zfp};
    match e {
        CompressError::Unsupported("non-finite sample") => {
            case.plant.is_some() && matches!(comp, Mgard(_) | Zfp(_))
        }
        CompressError::Unsupported(m) if m.ends_with("supports 1-3 dimensions") => {
            case.dims.len() == 4 && matches!(comp, Zfp(_) | Sperr(_) | Tthresh(_))
        }
        _ => false,
    }
}

/// One entry point on one case: the decode and its worst error ratio, `None`
/// for an allowed refusal, or what broke.
fn run<T: Scalar>(
    comp: &AnyCompressor,
    entry: &str,
    case: &Case,
    field: &Field<T>,
    ctx: &mut CompressCtx,
    into: &mut Vec<u8>,
) -> Result<Option<(Field<T>, f64)>, String> {
    match roundtrip(comp, entry, case, field, ctx, into) {
        Ok(out) => check(field, &out, case.bound.resolve(field).abs).map(|w| Some((out, w))),
        Err(e) if may_refuse(comp, case, &e) => Ok(None),
        Err(e) => Err(format!("round-trip failed: {e}")),
    }
}

/// Shrink the case while `entry` still breaks it (on a fresh context; a twin
/// mismatch is reported at its drawn dims) and replay the smallest under a
/// stage trace.
fn violation<T: Scalar>(
    comp: &AnyCompressor,
    entry: &'static str,
    case: &Case,
    problem: String,
) -> Violation {
    let fails = |case: &Case| {
        let (mut ctx, mut into) = (CompressCtx::new(), Vec::new());
        run(comp, entry, case, &case.field::<T>(), &mut ctx, &mut into).is_err()
    };
    let minimized_dims = minimize(&case.dims, |dims| fails(&case.at(dims)));
    let trace = qip_fault::trace_replay(|| {
        fails(&case.at(&minimized_dims));
    });
    let compressor = Compressor::<T>::name(comp);
    Violation { compressor, entry, case: case.clone(), minimized_dims, problem, trace }
}

fn run_case<T: Scalar>(
    comps: &[AnyCompressor],
    case: &Case,
    stats: &mut [ContractStats],
    ctx: &mut CompressCtx,
    into: &mut Vec<u8>,
) {
    let field: Field<T> = case.field();
    // Decoded bits per (QP-off compressor, entry point); the first
    // compressor of a name is the twin.
    let mut qp_off: HashMap<(String, &str), Vec<u8>> = HashMap::new();
    for (comp, st) in comps.iter().zip(stats) {
        let name = Compressor::<T>::name(comp);
        for entry in ENTRIES {
            let problem = match run(comp, entry, case, &field, ctx, into) {
                Ok(Some((out, worst))) => {
                    st.worst_ratio = st.worst_ratio.max(worst);
                    let bits = out.to_le_bytes();
                    let Some(base) = name.strip_suffix("+QP") else {
                        qp_off.entry((name.clone(), entry)).or_insert(bits);
                        continue;
                    };
                    match qp_off.get(&(base.to_string(), entry)) {
                        Some(want) if *want == bits => {
                            st.twins += 1;
                            continue;
                        }
                        Some(_) => format!("decodes unlike {base}'s stream"),
                        None => format!("{base} left no decode to compare"),
                    }
                }
                Ok(None) => {
                    st.refused += 1;
                    continue;
                }
                Err(problem) => problem,
            };
            st.violations.push(violation::<T>(comp, entry, case, problem));
        }
    }
}

/// Run the bound property for `comps` over `cases`, one context shared by
/// every case, dtype and compressor. A QP-on compressor's twin (its name
/// without `+QP`) must come before it in `comps`.
pub fn contract_suite(comps: &[AnyCompressor], cases: &[Case]) -> Vec<ContractStats> {
    let mut stats: Vec<ContractStats> = comps
        .iter()
        .map(|c| ContractStats { compressor: Compressor::<f32>::name(c), ..Default::default() })
        .collect();
    let (mut ctx, mut into) = (CompressCtx::new(), Vec::new());
    for case in cases {
        match case.dtype {
            "f64" => run_case::<f64>(comps, case, &mut stats, &mut ctx, &mut into),
            _ => run_case::<f32>(comps, case, &mut stats, &mut ctx, &mut into),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{synth, FieldFamily};

    #[test]
    fn quick_contract_run_holds_for_a_twin_pair_and_zfp() {
        // The full matrix runs in the root `error_bound_property` tests and
        // `repro conformance`; a twin pair and ZFP over 24 draws keep the
        // unit cycle fast while exercising draw, check and twin comparison.
        let comps = ["sz3", "sz3+qp", "zfp"].map(|n| AnyCompressor::by_name(n).unwrap());
        let cases: Vec<Case> = (0..24).map(Case::drawn).collect();
        let stats = contract_suite(&comps, &cases);
        for st in &stats {
            assert!(st.violations.is_empty(), "{}: {:?}", st.compressor, st.violations);
        }
        assert_eq!(stats[1].twins, cases.len() * ENTRIES.len());
    }

    #[test]
    fn check_catches_a_broken_or_a_lost_non_finite_sample() {
        let (field, abs): (Field<f64>, _) = (synth(FieldFamily::Smooth, 3, &[6, 5]), 1e-3);
        let (mut off, mut nan) = (field.clone(), field.clone());
        off.as_mut_slice()[0] += 3.0 * abs;
        nan.as_mut_slice()[1] = f64::NAN;
        assert!(check(&field, &field, abs).is_ok() && check(&nan, &nan, abs).is_ok());
        assert!(check(&field, &off, abs).unwrap_err().starts_with("sample 0"));
        assert!(check(&nan, &field, abs).is_err());
    }
}
