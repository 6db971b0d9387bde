//! Pricing the pipeline trial never moves a flat stream.
//!
//! SZ3 picks interpolation or Lorenzo from a trial on a central 32³ sample
//! block. The trial prices its two candidate streams instead of coding them,
//! which narrows the decision's margin; pinned here: the `SZ3` and `SZ3+QP`
//! streams of the four benchmark workloads' generators (seed 1, at their dims
//! and relative bounds) hash to what they hashed to when the trial still
//! coded both streams. Each decision's margin — the Lorenzo/interpolation
//! length ratio, coded and priced — is printed (`--nocapture`) and checked to
//! fall on the side of the threshold the stream's pipeline tag says.

use qip_core::{CompressCtx, Compressor, ErrorBound, QpConfig};
use qip_interp::sample_block;
use qip_sz3::{lorenzo, Pipeline, Sz3};
use qip_tensor::{Field, Scalar};

/// The trial picks Lorenzo when its stream is below this share of the
/// interpolation stream's length.
const LORENZO_BELOW: f64 = 0.92;

/// FNV-1a over the stream's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Lorenzo/interpolation length ratio of the trial on `field`'s sample
/// block: both streams coded, and both priced.
fn margins<T: Scalar>(field: &Field<T>, bound: ErrorBound) -> (f64, f64) {
    let block = &sample_block(field, 32);
    let abs = bound.resolve(field).as_abs();
    let engine = Sz3::new().engine();
    let (ctx, out) = (&mut CompressCtx::new(), &mut Vec::new());
    let mut len = |run: &mut dyn FnMut(&mut CompressCtx, &mut Vec<u8>)| {
        out.clear();
        run(ctx, out);
        out.len() as f64
    };
    let coded_interp = len(&mut |c, o| engine.compress_append(block, abs, c, o).unwrap());
    let coded_lorenzo = len(&mut |c, o| lorenzo::compress_append(block, abs, c, o).unwrap());
    let priced_interp = len(&mut |c, o| engine.price_append(block, abs, c, o).unwrap());
    let priced_lorenzo = len(&mut |c, o| lorenzo::price_append(block, abs, c, o).unwrap());
    (coded_lorenzo / coded_interp, priced_lorenzo / priced_interp)
}

/// Check `SZ3` and `SZ3+QP` on one workload against their pinned hashes.
fn check<T: Scalar>(what: &str, field: &Field<T>, bound: ErrorBound, want: [u64; 2]) {
    let (coded, priced) = margins(field, bound);
    for (qp, want) in [QpConfig::off(), QpConfig::best_fit()].into_iter().zip(want) {
        let sz3 = Sz3::new().with_qp(qp);
        let stream = sz3.compress(field, bound).unwrap();
        let name = Compressor::<T>::name(&sz3);
        let pipeline = Sz3::parse(&stream).unwrap().pipeline;
        println!(
            "{what} {name}: {pipeline:?}, {} bytes, Lorenzo/interp {coded:.3} coded, {priced:.3} priced \
             (Lorenzo below {LORENZO_BELOW})",
            stream.len()
        );
        assert_eq!(
            pipeline == Pipeline::Lorenzo,
            priced < LORENZO_BELOW,
            "{what} {name}: the pipeline tag disagrees with the priced margin"
        );
        assert_eq!(fnv1a(&stream), want, "{what} {name}: the flat stream moved");
    }
}

#[test]
fn flat_streams_of_the_benchmark_workloads_are_pinned() {
    let rel = ErrorBound::Rel;
    check("miranda", &qip_data::miranda_like(1, &[64, 96, 96]), rel(1e-3), [0xa588_0a58_a839_28fe, 0xa35a_4cfe_0609_0c74]);
    check("segsalt", &qip_data::segsalt_like(1, &[96, 96, 64]), rel(1e-5), [0x84df_9801_ce93_95fc, 0x292a_cde7_23ae_4124]);
    check("s3d", &qip_data::s3d_like(1, &[96, 96, 64]), rel(1e-2), [0x94d0_cbdd_4fe5_8f13, 0x8ca6_e2a4_e408_a205]);
    check("hurricane", &qip_data::hurricane_like(1, &[32, 48, 48]), rel(1e-3), [0x6a3c_3944_0eef_a6e8, 0x6a3c_3944_0eef_a6e8]);
}
