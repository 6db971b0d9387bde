//! Seismic survey archival: the paper's motivating SegSalt scenario.
//!
//! Compares the four interpolation-based compressors with and without QP on a
//! SegSalt-like pressure field, and demonstrates the characterization API —
//! the clustering effect in the quantization indices that makes QP work.
//!
//! Run with: `cargo run --release --example seismic_survey`

use qip::prelude::*;
use qip::metrics::{entropy, entropy_region};
use qip::registry::AnyCompressor;

fn main() {
    let dims = [252usize, 252, 88]; // SegSalt at quarter scale
    let field = qip::data::segsalt_like(17, &dims);
    let bound = ErrorBound::Rel(1e-4);
    println!("SegSalt-like pressure field {dims:?}, relative bound 1e-4\n");

    println!("{:<10} {:>10} {:>10} {:>8}", "compressor", "CR", "CR+QP", "QP gain");
    let with_qp = AnyCompressor::base_four(QpConfig::best_fit());
    for (plain, with_qp) in AnyCompressor::base_four(QpConfig::off()).iter().zip(&with_qp) {
        run_pair(plain, with_qp, &field, bound);
    }

    // Characterization: why does QP help? The quantization index array keeps
    // spatial correlation ("clustering") that the entropy stage can't see.
    let sz3 = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
    let cap = sz3.quant_capture(&field, bound).expect("capture");
    let h_q = entropy(&cap.q);
    let h_qp = entropy(&cap.q_prime);
    println!("\nSZ3 index entropy:   H(Q) = {h_q:.3} bits -> H(Q') = {h_qp:.3} bits after QP");

    // Regional entropy near the salt-dome boundary (high-activity region).
    let dome = entropy_region(&cap.q, &dims, &[100, 100, 55], &[60, 60, 20], &[2, 2, 2]);
    let dome_qp = entropy_region(&cap.q_prime, &dims, &[100, 100, 55], &[60, 60, 20], &[2, 2, 2]);
    println!("near the salt dome:  H(Q) = {dome:.3} bits -> H(Q') = {dome_qp:.3} bits");
}

fn run_pair(plain: &AnyCompressor, with_qp: &AnyCompressor, field: &Field<f32>, bound: ErrorBound) {
    let name = Compressor::<f32>::name(plain);
    let a = plain.compress(field, bound).expect("compress").len();
    let b = with_qp.compress(field, bound).expect("compress").len();
    let raw = (field.len() * 4) as f64;
    println!(
        "{name:<10} {:>10.2} {:>10.2} {:>+7.1}%",
        raw / a as f64,
        raw / b as f64,
        (a as f64 / b as f64 - 1.0) * 100.0
    );
}
