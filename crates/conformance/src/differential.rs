//! Path identity: the serial, reusable-context and traced paths are the same
//! transform.
//!
//! Every compressor runs three ways — the allocating `compress`/`decompress`,
//! the reusable-buffer `compress_into`/`decompress_into`, and the traced
//! `compress_traced`/`decompress_traced`. The paper's reversibility argument
//! (Sec. III/V) only holds if they are all the *same* transform, so over the
//! [case matrix](mod@crate::matrix) the three streams must be byte-identical and
//! the three decodes bit-identical (or all three must fail with the same
//! error), with **one** context reused across every case, shape, dtype and
//! compressor, so state leaking from an earlier use shows as a divergence.
//! The tiled container's identities live in [`crate::tiles`].
//!
//! Oracles return findings instead of panicking so the `repro conformance`
//! experiment can tabulate every divergence in one run.

use crate::matrix::Case;
use qip_core::{CompressCtx, CompressError, Compressor};
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Scalar};

/// One observed divergence between execution paths.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Compressor name.
    pub compressor: String,
    /// The case (and, for tiled checks, the worker count and tile).
    pub case: String,
    /// What disagreed with what.
    pub problem: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.compressor, self.case, self.problem)
    }
}

/// A run's output reduced to what must agree: bytes, or the error's text.
fn outcome(r: Result<Vec<u8>, CompressError>) -> Result<Vec<u8>, String> {
    r.map_err(|e| e.to_string())
}

fn path_identity_one<T: Scalar>(
    comp: &AnyCompressor,
    case: &Case,
    field: &Field<T>,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Vec<Divergence> {
    let diverged = |problem: String| Divergence {
        compressor: Compressor::<T>::name(comp),
        case: case.to_string(),
        problem,
    };
    let mut findings = Vec::new();
    let serial = outcome(comp.compress(field, case.bound));
    let into = outcome(comp.compress_into(field, case.bound, ctx, out).map(|()| out.clone()));
    let traced = outcome(comp.compress_traced(field, case.bound).0);
    for (path, got) in [("compress_into", into), ("compress_traced", traced)] {
        if got != serial {
            findings.push(diverged(format!("{path} diverged from compress")));
        }
    }
    let Ok(stream) = serial else { return findings };

    let bits = |f: Result<Field<T>, CompressError>| outcome(f.map(|f| f.to_le_bytes()));
    let plain = bits(comp.decompress(&stream));
    let into = bits(comp.decompress_into(&stream, ctx));
    let traced = bits(comp.decompress_traced::<T>(&stream).0);
    for (path, got) in [("decompress_into", into), ("decompress_traced", traced)] {
        if got != plain {
            findings.push(diverged(format!("{path} bits diverged from decompress")));
        }
    }
    findings
}

fn path_identity_case<T: Scalar>(
    comps: &[AnyCompressor],
    case: &Case,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Vec<Divergence> {
    let field: Field<T> = case.field();
    comps.iter().flat_map(|comp| path_identity_one(comp, case, &field, ctx, out)).collect()
}

/// Run the path-identity oracle for `comps` over `cases`, reusing **one**
/// context across the whole sweep. Empty result = all paths byte/bit
/// identical.
pub fn path_identity_suite(comps: &[AnyCompressor], cases: &[Case]) -> Vec<Divergence> {
    let (mut ctx, mut out) = (CompressCtx::new(), Vec::new());
    let mut findings = Vec::new();
    for case in cases {
        findings.extend(match case.dtype {
            "f64" => path_identity_case::<f64>(comps, case, &mut ctx, &mut out),
            _ => path_identity_case::<f32>(comps, case, &mut ctx, &mut out),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_compressor_paths_agree() {
        // The full matrix runs in the root `path_identity` test and the
        // repro experiment; one compressor over a few draws keeps the unit
        // cycle fast.
        let comps = [AnyCompressor::by_name("sz3+qp").unwrap()];
        let cases: Vec<Case> = (0..12).map(Case::drawn).collect();
        let f = path_identity_suite(&comps, &cases);
        assert!(f.is_empty(), "{f:?}");
    }
}
