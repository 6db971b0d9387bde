//! Choosing a compressor for a climate archive.
//!
//! Sweeps the whole registry (the four interpolation-based compressors ± QP,
//! plus the transform-based ZFP/TTHRESH/SPERR) over a CESM-like temperature
//! slab at two quality levels, the decision a data-center operator actually
//! faces.
//!
//! Run with: `cargo run --release --example climate_archive`

use qip::prelude::*;

fn main() {
    let dims = [16usize, 225, 450]; // CESM-3D at one-eighth scale
    let field = qip::data::cesm_like(3, &dims);
    println!("CESM-like temperature slab {dims:?}\n");

    let compressors = qip::registry::AnyCompressor::registry();

    for rel_eb in [1e-3, 1e-5] {
        println!("--- relative bound {rel_eb:.0e} ---");
        println!("{:<10} {:>8} {:>9} {:>12}", "compressor", "CR", "PSNR", "max rel err");
        let mut best = (String::new(), 0.0f64);
        for comp in &compressors {
            let name = Compressor::<f32>::name(comp);
            let bytes = comp.compress(&field, ErrorBound::Rel(rel_eb)).expect("compress");
            let out: Field<f32> = comp.decompress(&bytes).expect("decompress");
            let cr = (field.len() * 4) as f64 / bytes.len() as f64;
            let psnr = qip::metrics::psnr(&field, &out);
            let max_rel = qip::metrics::max_rel_error(&field, &out);
            assert!(max_rel <= rel_eb * 1.0000001, "{name} violated the bound");
            println!("{name:<10} {cr:>8.2} {psnr:>9.2} {max_rel:>12.3e}");
            if cr > best.1 {
                best = (name, cr);
            }
        }
        println!("best ratio at this bound: {} (CR {:.2})\n", best.0, best.1);
    }
}
