//! Differential oracles: the four execution paths must agree exactly.
//!
//! The workspace now ships four ways to run every compressor — the allocating
//! serial path, the reusable-buffer `compress_into`/`decompress_into` context
//! path, the traced path (`compress_traced`), and the tiled container.
//! The paper's reversibility argument (Sec. III/V) only holds if they are all
//! the *same* transform, so these oracles assert:
//!
//! - **byte identity** of serial vs fresh-ctx vs dirty-ctx vs traced
//!   compression, and bit identity of the three decompression paths, over
//!   every seeded field family;
//! - **thread-count invariance** of [`TiledCompressor`]: compressed bytes and
//!   decompressed bits must not change when `RAYON_NUM_THREADS` does.
//!
//! Oracles return findings instead of panicking so the `repro conformance`
//! experiment can tabulate every divergence in one run.

use crate::fields::{synth, FieldFamily};
use qip_container::TiledCompressor;
use qip_core::{CompressCtx, Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Scalar};

/// One observed divergence between execution paths.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Compressor name.
    pub compressor: String,
    /// Case label (family, dtype, and for thread sweeps the thread counts).
    pub case: String,
    /// What disagreed with what.
    pub problem: String,
}

/// The field shape the path-identity oracle runs at (small but 3-D, with
/// edge remainders against the interpolation strides).
const PATH_DIMS: [usize; 3] = [13, 11, 9];
/// The field shape the thread-sweep oracle runs at (large enough for a
/// multi-tile grid with clipped edge tiles).
const SWEEP_DIMS: [usize; 3] = [40, 36, 24];
/// Tile edge for the thread sweep (3×3×2 grid, remainders on every axis).
const SWEEP_TILE: usize = 16;
/// The thread counts the sweep pins (the acceptance criteria's 1/2/8).
pub const SWEEP_THREADS: [usize; 3] = [1, 2, 8];

fn path_identity_one<T: Scalar>(
    comp: &AnyCompressor,
    family: FieldFamily,
    dtype: &'static str,
    ctx: &mut CompressCtx,
    out: &mut Vec<u8>,
) -> Vec<Divergence> {
    let name = Compressor::<T>::name(comp);
    let case = format!("{} {dtype} {:?}", family.name(), PATH_DIMS);
    let field: Field<T> = synth(family, 0xD1FF ^ family as u64, &PATH_DIMS);
    let bound = ErrorBound::Rel(1e-3);
    let mut findings = Vec::new();
    let diverged = |problem: String| Divergence {
        compressor: name.clone(),
        case: case.clone(),
        problem,
    };

    let serial = match comp.compress(&field, bound) {
        Ok(b) => b,
        Err(e) => return vec![diverged(format!("serial compress failed: {e}"))],
    };
    // The ctx arrives dirty from whatever compressor ran before this one —
    // state leakage across reuses is exactly what this oracle must catch.
    match comp.compress_into(&field, bound, ctx, out) {
        Ok(()) => {
            if *out != serial {
                let pos =
                    out.iter().zip(&serial).position(|(a, b)| a != b).unwrap_or(out.len());
                findings.push(diverged(format!(
                    "compress_into diverged from compress at byte {pos} ({} vs {} bytes)",
                    out.len(),
                    serial.len()
                )));
            }
        }
        Err(e) => findings.push(diverged(format!("compress_into failed: {e}"))),
    }
    let (traced, _report) = comp.compress_traced(&field, bound);
    match traced {
        Ok(b) if b == serial => {}
        Ok(b) => findings.push(diverged(format!(
            "compress_traced diverged from compress ({} vs {} bytes)",
            b.len(),
            serial.len()
        ))),
        Err(e) => findings.push(diverged(format!("compress_traced failed: {e}"))),
    }

    let plain: Field<T> = match comp.decompress(&serial) {
        Ok(f) => f,
        Err(e) => {
            findings.push(diverged(format!("decompress failed: {e}")));
            return findings;
        }
    };
    match comp.decompress_into(&serial, ctx) {
        Ok(f) => {
            let f: Field<T> = f;
            if f.to_le_bytes() != plain.to_le_bytes() {
                findings.push(diverged("decompress_into bits diverged from decompress".into()));
            }
        }
        Err(e) => findings.push(diverged(format!("decompress_into failed: {e}"))),
    }
    let (traced_out, _report) = comp.decompress_traced::<T>(&serial);
    match traced_out {
        Ok(f) => {
            if f.to_le_bytes() != plain.to_le_bytes() {
                findings.push(diverged("decompress_traced bits diverged from decompress".into()));
            }
        }
        Err(e) => findings.push(diverged(format!("decompress_traced failed: {e}"))),
    }
    findings
}

/// Run the path-identity oracle for every registry compressor over every
/// field family, in both precisions, reusing **one** context across the whole
/// sweep (so cross-compressor state leakage is also exercised). Empty result
/// = all paths byte/bit identical.
pub fn path_identity_suite() -> Vec<Divergence> {
    let mut findings = Vec::new();
    let mut ctx = CompressCtx::new();
    let mut out = Vec::new();
    for comp in AnyCompressor::registry() {
        for family in FieldFamily::ALL {
            findings.extend(path_identity_one::<f32>(&comp, family, "f32", &mut ctx, &mut out));
            findings.extend(path_identity_one::<f64>(&comp, family, "f64", &mut ctx, &mut out));
        }
    }
    findings
}

/// Set `RAYON_NUM_THREADS`, run `f`, restore the previous value.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let r = f();
    match prev {
        Some(p) => std::env::set_var("RAYON_NUM_THREADS", p),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    r
}

/// Thread-count invariance of the tiled container, for one inner
/// compressor: compress and decompress a turbulent field at each count in
/// [`SWEEP_THREADS`]; streams and decompressed bits must be identical.
fn thread_sweep_one(comp: AnyCompressor) -> Vec<Divergence> {
    let name = Compressor::<f32>::name(&comp);
    let field: Field<f32> = synth(FieldFamily::Turbulent, 0x7423, &SWEEP_DIMS);
    let bound = ErrorBound::Rel(1e-3);
    let par = TiledCompressor::new(comp, SWEEP_TILE).expect("SWEEP_TILE is a valid tile edge");
    let mut findings = Vec::new();
    let mut pinned: Option<(Vec<u8>, Vec<u8>)> = None; // (stream, decoded bits) at threads=1
    for threads in SWEEP_THREADS {
        let case = format!("threads={threads} vs threads={}", SWEEP_THREADS[0]);
        let result = with_threads(threads, || {
            let bytes = par.compress(&field, bound)?;
            let out: Field<f32> = par.decompress(&bytes)?;
            Ok::<_, qip_core::CompressError>((bytes, out.to_le_bytes()))
        });
        let (bytes, bits) = match result {
            Ok(v) => v,
            Err(e) => {
                findings.push(Divergence {
                    compressor: name.clone(),
                    case,
                    problem: format!("round-trip failed: {e}"),
                });
                continue;
            }
        };
        match &pinned {
            None => pinned = Some((bytes, bits)),
            Some((s0, b0)) => {
                if bytes != *s0 {
                    findings.push(Divergence {
                        compressor: name.clone(),
                        case: case.clone(),
                        problem: "compressed stream changed with thread count".into(),
                    });
                }
                if bits != *b0 {
                    findings.push(Divergence {
                        compressor: name.clone(),
                        case,
                        problem: "decompressed bits changed with thread count".into(),
                    });
                }
            }
        }
    }
    findings
}

/// Run the thread sweep with every registry compressor as the wrapped inner.
/// Empty result = container output independent of worker count.
pub fn thread_sweep_suite() -> Vec<Divergence> {
    AnyCompressor::registry().into_iter().flat_map(thread_sweep_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_compressor_paths_agree() {
        // The full grid runs in the conformance suite / repro experiment;
        // here one representative compressor keeps the unit cycle fast.
        let comp = AnyCompressor::by_name("sz3+qp").unwrap();
        let mut ctx = CompressCtx::new();
        let mut out = Vec::new();
        for family in FieldFamily::ALL {
            let f =
                path_identity_one::<f32>(&comp, family, "f32", &mut ctx, &mut out);
            assert!(f.is_empty(), "{f:?}");
        }
    }

    #[test]
    fn one_inner_thread_sweep_is_invariant() {
        let comp = AnyCompressor::by_name("qoz+qp").unwrap();
        let f = thread_sweep_one(comp);
        assert!(f.is_empty(), "{f:?}");
    }
}
