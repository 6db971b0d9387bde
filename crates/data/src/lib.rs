//! Synthetic scientific datasets (the paper-dataset substitution layer).
//!
//! The paper evaluates on seven real datasets (Table III) totalling >600 GB
//! that are not available offline. This crate generates deterministic fields
//! reproducing the *statistical structure* each compressor responds to — the
//! spectra, fronts, layers and vortices that determine interpolation residual
//! behaviour — at paper shapes or scaled-down versions of them. See
//! DESIGN.md §5 for the substitution rationale.
//!
//! | dataset | structure reproduced |
//! |---|---|
//! | Miranda | k^−5/3 spectral turbulence (hydrodynamics) |
//! | Hurricane | vortex flow with an eye and vertical shear (weather) |
//! | SegSalt | layered geology + salt dome + seismic wavefield (the source of the paper's clustering regions) |
//! | SCALE | convective plumes over smooth synoptic gradients (weather) |
//! | S3D | wrinkled flame fronts, double precision (combustion) |
//! | CESM | thin lat/lon climate slabs (climate) |
//! | RTM | 4-D propagating wavefront time series (seismic imaging) |

#![warn(missing_docs)]

mod generators;
mod noise;

pub use generators::{
    cesm_like, hurricane_like, miranda_like, rtm_like, s3d_like, scale_like, segsalt_like,
};
pub use noise::SpectralNoise;

use qip_tensor::Field;

/// The benchmark datasets of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Large turbulence simulation (LLNL), 7 fields, f32.
    Miranda,
    /// Hurricane Isabel weather simulation, 13 fields, f32.
    Hurricane,
    /// SEG/EAGE salt and overthrust models, 3 fields, f32.
    SegSalt,
    /// SCALE-RM weather model, 12 fields, f32.
    Scale,
    /// Direct numerical combustion simulation, 11 fields, f64.
    S3d,
    /// CESM-ATM climate model, 33 fields, f32.
    Cesm,
    /// Reverse-time-migration seismic wavefields, 1 field, 4-D f32.
    Rtm,
}

/// All generic-comparison datasets (paper Figures 10–15 order).
pub const RD_DATASETS: [Dataset; 6] = [
    Dataset::Miranda,
    Dataset::SegSalt,
    Dataset::Scale,
    Dataset::Cesm,
    Dataset::S3d,
    Dataset::Hurricane,
];

impl Dataset {
    /// Dataset name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Miranda => "Miranda",
            Dataset::Hurricane => "Hurricane",
            Dataset::SegSalt => "SegSalt",
            Dataset::Scale => "SCALE",
            Dataset::S3d => "S3D",
            Dataset::Cesm => "CESM-3D",
            Dataset::Rtm => "RTM",
        }
    }

    /// Paper dimensions (Table III).
    pub fn paper_dims(&self) -> Vec<usize> {
        match self {
            Dataset::Miranda => vec![256, 384, 384],
            Dataset::Hurricane => vec![100, 500, 500],
            Dataset::SegSalt => vec![1008, 1008, 352],
            Dataset::Scale => vec![98, 1200, 1200],
            Dataset::S3d => vec![500, 500, 500],
            Dataset::Cesm => vec![26, 1800, 3600],
            Dataset::Rtm => vec![3600, 449, 449, 235],
        }
    }

    /// Number of fields (Table III).
    pub fn n_fields(&self) -> usize {
        match self {
            Dataset::Miranda => 7,
            Dataset::Hurricane => 13,
            Dataset::SegSalt => 3,
            Dataset::Scale => 12,
            Dataset::S3d => 11,
            Dataset::Cesm => 33,
            Dataset::Rtm => 1,
        }
    }

    /// True for the double-precision dataset (S3D).
    pub fn is_double(&self) -> bool {
        matches!(self, Dataset::S3d)
    }

    /// Paper dims divided by `factor` per axis (clamped to ≥ 16), the default
    /// experiment scale. `factor = 1` restores paper shapes.
    pub fn scaled_dims(&self, factor: usize) -> Vec<usize> {
        self.paper_dims()
            .iter()
            .map(|&d| (d / factor.max(1)).max(16.min(d)))
            .collect()
    }

    /// Physically-flavored name of field `index` (cycles past the catalog).
    pub fn field_name(&self, index: usize) -> String {
        let catalog: &[&str] = match self {
            Dataset::Miranda => {
                &["velocityx", "velocityy", "velocityz", "density", "pressure", "energy", "viscocity"]
            }
            Dataset::Hurricane => {
                &["U", "V", "W", "TC", "P", "QVAPOR", "QCLOUD", "QICE", "QRAIN", "QSNOW", "QGRAUP", "CLOUD", "PRECIP"]
            }
            Dataset::SegSalt => &["Pressure2000", "Pressure3000", "Velocity"],
            Dataset::Scale => {
                &["T", "U", "V", "W", "QV", "QC", "QR", "QI", "QS", "QG", "RH", "PRES"]
            }
            Dataset::S3d => {
                &["T", "OH", "H2O", "CO2", "CO", "H2", "O2", "CH4", "HO2", "N2", "pressure"]
            }
            Dataset::Cesm => &["TS", "T850", "PSL", "U850", "V850", "Q850"],
            Dataset::Rtm => &["snapshot"],
        };
        if index < self.n_fields() {
            catalog.get(index % catalog.len()).unwrap_or(&"field").to_string()
        } else {
            format!("field{index}")
        }
    }

    /// Generate field `index` of this dataset at the given 3-D dims as `f32`
    /// (valid for every dataset but S3D; RTM yields time-slice `index`).
    pub fn generate_f32(&self, index: usize, dims: &[usize]) -> Field<f32> {
        let seed = (index as u64) * 7919 + 17;
        match self {
            // Miranda: velocity components are signed and zero-mean, density
            // and pressure positive with an offset — the same split the real
            // dataset shows across its seven fields.
            Dataset::Miranda => {
                let f = miranda_like(seed, dims);
                let shape = f.shape().clone();
                if index < 3 {
                    let data: Vec<f32> =
                        f.as_slice().iter().map(|&v| (v - 1.0) * 2.0).collect();
                    Field::from_vec(shape, data).expect("shape preserved")
                } else {
                    // Density/pressure/energy are strictly positive in the
                    // real dataset; an exponential remap keeps the turbulent
                    // structure smooth while pinning the field above zero
                    // regardless of how deep the spectral noise swings.
                    let data: Vec<f32> =
                        f.as_slice().iter().map(|&v| (v - 1.0).exp()).collect();
                    Field::from_vec(shape, data).expect("shape preserved")
                }
            }
            Dataset::Hurricane => hurricane_like(seed, dims),
            Dataset::SegSalt => segsalt_like(seed, dims),
            Dataset::Scale => scale_like(seed, dims),
            Dataset::Cesm => cesm_like(seed, dims),
            Dataset::Rtm => rtm_like(seed, index, dims),
            Dataset::S3d => {
                let f = s3d_like(seed, dims);
                let shape = f.shape().clone();
                let data: Vec<f32> = f.as_slice().iter().map(|&v| v as f32).collect();
                Field::from_vec(shape, data).expect("shape preserved")
            }
        }
    }

    /// Generate field `index` as `f64` (the native type for S3D).
    pub fn generate_f64(&self, index: usize, dims: &[usize]) -> Field<f64> {
        match self {
            Dataset::S3d => s3d_like((index as u64) * 7919 + 17, dims),
            _ => {
                let f = self.generate_f32(index, dims);
                let shape = f.shape().clone();
                let data: Vec<f64> = f.as_slice().iter().map(|&v| v as f64).collect();
                Field::from_vec(shape, data).expect("shape preserved")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_table3() {
        assert_eq!(Dataset::SegSalt.paper_dims(), vec![1008, 1008, 352]);
        assert_eq!(Dataset::Rtm.paper_dims().len(), 4);
        assert_eq!(Dataset::Miranda.n_fields(), 7);
        assert_eq!(Dataset::Cesm.n_fields(), 33);
        assert!(Dataset::S3d.is_double());
        assert!(!Dataset::Miranda.is_double());
    }

    #[test]
    fn scaled_dims_clamped() {
        let d = Dataset::Cesm.scaled_dims(4);
        assert_eq!(d, vec![16, 450, 900]);
        assert_eq!(Dataset::Miranda.scaled_dims(1), Dataset::Miranda.paper_dims());
    }

    #[test]
    fn generation_deterministic() {
        for ds in RD_DATASETS {
            let dims = [24usize, 20, 18];
            let a = ds.generate_f32(0, &dims);
            let b = ds.generate_f32(0, &dims);
            assert_eq!(a.as_slice(), b.as_slice(), "{}", ds.name());
        }
    }

    #[test]
    fn fields_differ_by_index() {
        let dims = [20usize, 20, 20];
        let a = Dataset::Miranda.generate_f32(0, &dims);
        let b = Dataset::Miranda.generate_f32(1, &dims);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn fields_are_finite_and_nonconstant() {
        let dims = [20usize, 18, 16];
        for ds in RD_DATASETS {
            for idx in 0..2 {
                let f = ds.generate_f32(idx, &dims);
                assert!(f.as_slice().iter().all(|v| v.is_finite()), "{}", ds.name());
                assert!(f.value_range() > 0.0, "{} field {idx} constant", ds.name());
            }
        }
    }

    #[test]
    fn s3d_native_double() {
        let f = Dataset::S3d.generate_f64(0, &[16, 16, 16]);
        assert!(f.value_range() > 0.0);
    }

    #[test]
    fn field_names_follow_table3_counts() {
        assert_eq!(Dataset::SegSalt.field_name(0), "Pressure2000");
        assert_eq!(Dataset::Miranda.field_name(0), "velocityx");
        assert_eq!(Dataset::Miranda.field_name(3), "density");
        assert_eq!(Dataset::Rtm.field_name(0), "snapshot");
        // Beyond the catalog: synthetic names, never a panic.
        assert_eq!(Dataset::Rtm.field_name(99), "field99");
    }

    #[test]
    fn miranda_velocity_signed_density_positive() {
        let dims = [24usize, 24, 24];
        let vel = Dataset::Miranda.generate_f32(0, &dims);
        let den = Dataset::Miranda.generate_f32(3, &dims);
        let (vlo, _) = vel.min_max().unwrap();
        let (dlo, _) = den.min_max().unwrap();
        assert!(vlo < 0.0, "velocity should be signed, min {vlo}");
        assert!(dlo > -0.5, "density should be near-positive, min {dlo}");
    }

    #[test]
    fn rtm_time_slices_evolve() {
        let dims = [32usize, 32, 24];
        let t0 = Dataset::Rtm.generate_f32(0, &dims);
        let t5 = Dataset::Rtm.generate_f32(5, &dims);
        assert_ne!(t0.as_slice(), t5.as_slice());
    }
}
