//! The region-vs-full differential oracle of the tiled container: seeded
//! random valid regions, where for every grid cell
//! [`qip_container::read_region`] must be byte-identical to slicing the full
//! [`qip_container::decompress_full`] output, across the
//! [`TILED_COMPRESSORS`] × both precisions × 1-D/2-D/3-D shapes. This is the
//! property behind the container's whole random-access contract: partial
//! reads are a pure optimization, never a different decode. The tiled golden
//! containers are the second grid of [`crate::golden`].

use crate::fields::{synth, FieldFamily};
use crate::golden::{GOLDEN_BOUND, TILED_COMPRESSORS, TILE_EDGE};
use qip_container::{decompress_full, read_region, TiledCompressor};
use qip_core::{CompressError, Compressor};
use qip_fault::XorShift64;
use qip_registry::AnyCompressor;
use qip_tensor::{Field, Region, Scalar};

/// Seeded random regions per (compressor, dtype, shape) cell in the oracle.
pub const REGION_CASES: usize = 24;

fn tiled_for(name: &str) -> Result<TiledCompressor, CompressError> {
    let inner = AnyCompressor::by_name(name)
        .map_err(|_| CompressError::Unsupported("spec names an unknown compressor"))?;
    TiledCompressor::new(inner, TILE_EDGE)
}

/// One observed region-oracle divergence.
#[derive(Debug, Clone)]
pub struct RegionDivergence {
    /// Compressor name.
    pub compressor: String,
    /// Case label: dtype, dims, and the failing region.
    pub case: String,
    /// What disagreed with what.
    pub problem: String,
}

impl std::fmt::Display for RegionDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.compressor, self.case, self.problem)
    }
}

/// The shapes the region oracle sweeps: one per dimensionality, each with
/// remainder tiles against [`TILE_EDGE`].
const ORACLE_SHAPES: [(&[usize], FieldFamily); 3] = [
    (&[37], FieldFamily::Smooth),
    (&[13, 11], FieldFamily::Banded),
    (&[17, 10, 9], FieldFamily::Turbulent),
];

/// Draw a uniformly random valid region inside `dims` (every extent ≥ 1 and
/// in bounds, so [`Region::validate`] always accepts it).
fn random_region(rng: &mut XorShift64, dims: &[usize]) -> Region {
    let mut origin = Vec::with_capacity(dims.len());
    let mut extent = Vec::with_capacity(dims.len());
    for &d in dims {
        let e = 1 + rng.below(d);
        let o = rng.below(d - e + 1);
        origin.push(o);
        extent.push(e);
    }
    Region::new(&origin, &extent)
}

fn region_oracle_one<T: Scalar>(
    name: &str,
    dtype: &'static str,
    dims: &[usize],
    family: FieldFamily,
    cases: usize,
    seed: u64,
) -> Vec<RegionDivergence> {
    let case_base = format!("{dtype} {dims:?}");
    let diverged = |case: String, problem: String| RegionDivergence {
        compressor: name.to_string(),
        case,
        problem,
    };
    let tiled = match tiled_for(name) {
        Ok(t) => t,
        Err(e) => {
            return vec![diverged(case_base, format!("TiledCompressor::new failed: {e}"))]
        }
    };
    let field: Field<T> = synth(family, seed ^ 0x7153, dims);
    let bytes = match tiled.compress(&field, GOLDEN_BOUND) {
        Ok(b) => b,
        Err(e) => return vec![diverged(case_base, format!("compress failed: {e}"))],
    };
    let full: Field<T> = match decompress_full(&bytes) {
        Ok(f) => f,
        Err(e) => return vec![diverged(case_base, format!("decompress_full failed: {e}"))],
    };

    let mut rng = XorShift64::new(seed);
    let mut findings = Vec::new();
    for _ in 0..cases {
        let region = random_region(&mut rng, dims);
        let case = format!(
            "{case_base} region {:?}+{:?}",
            region.origin(),
            region.extent()
        );
        let got: Field<T> = match read_region(&bytes, &region) {
            Ok(f) => f,
            Err(e) => {
                findings.push(diverged(case, format!("read_region failed: {e}")));
                continue;
            }
        };
        if got.shape().dims() != region.extent() {
            findings.push(diverged(
                case,
                format!("read_region returned shape {:?}", got.shape().dims()),
            ));
            continue;
        }
        let expect = full.subregion(region.origin(), region.extent());
        if got.to_le_bytes() != expect.to_le_bytes() {
            findings.push(diverged(
                case,
                "read_region bits diverged from slicing the full decode".into(),
            ));
        }
    }
    findings
}

/// Run the region oracle over [`TILED_COMPRESSORS`] × {f32, f64} ×
/// the three `ORACLE_SHAPES` (1-D/2-D/3-D), `cases` seeded random regions per cell. Empty result =
/// every partial read is byte-identical to slicing the full decode.
pub fn region_oracle_suite(cases: usize, seed: u64) -> Vec<RegionDivergence> {
    let mut findings = Vec::new();
    for (ci, name) in TILED_COMPRESSORS.iter().enumerate() {
        for (si, (dims, family)) in ORACLE_SHAPES.iter().enumerate() {
            let cell = seed ^ ((ci as u64) << 32) ^ ((si as u64) << 16);
            findings.extend(region_oracle_one::<f32>(name, "f32", dims, *family, cases, cell));
            findings.extend(region_oracle_one::<f64>(
                name,
                "f64",
                dims,
                *family,
                cases,
                cell ^ 0x64,
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_region_oracle_agrees() {
        // The full grid runs in the conformance integration test / repro
        // experiment; one representative cell keeps the unit cycle fast.
        let f = region_oracle_one::<f32>(
            "SZ3+QP",
            "f32",
            &[13, 11],
            FieldFamily::Banded,
            8,
            0x7153,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn random_regions_are_always_valid() {
        let mut rng = XorShift64::new(9);
        for dims in [&[1usize][..], &[37], &[13, 11], &[17, 10, 9]] {
            for _ in 0..200 {
                let r = random_region(&mut rng, dims);
                r.validate(dims).expect("generated region must validate");
            }
        }
    }
}
