//! Parallel wide-area transfer of a 4-D seismic time series (paper Sec. VI-E).
//!
//! Compresses RTM-like wavefield slices one by one, then models the
//! end-to-end pipeline — compress, write, WAN transfer, read, decompress — at
//! the paper's strong-scaling core counts.
//!
//! Run with: `cargo run --release --example parallel_transfer`

use qip::prelude::*;
use qip::transfer::{measure_slice_stats, model_pipeline, vanilla_transfer_s, FsModel, LinkModel};

fn main() {
    // Scaled RTM workload: 90 slices of the quarter-size spatial grid stand
    // in for the paper's 3600 × (449×449×235).
    let slice_dims = [112usize, 112, 58];
    let n_slices_modeled = 900usize;
    let sample: Vec<Field<f32>> = (0..6)
        .map(|i| qip::data::rtm_like(0, i * 600, &slice_dims))
        .collect();
    let bound = ErrorBound::Rel(1e-3);

    // Real compression of the sample, one independent stream per slice.
    let sz3_qp = qip::sz3::Sz3::new().with_qp(QpConfig::best_fit());
    let sizes: Vec<usize> =
        sample.iter().map(|s| sz3_qp.compress(s, bound).expect("compress").len()).collect();
    println!("compressed {} sample slices; sizes: {sizes:?}", sizes.len());

    // Model the full pipeline for SZ3 vs SZ3+QP.
    let link = LinkModel::paper_globus();
    let fs = FsModel::default();
    let raw_total = (sample[0].len() * 4) as f64 * n_slices_modeled as f64;
    println!(
        "\nworkload: {n_slices_modeled} slices, {:.2} GB raw; vanilla transfer {:.0} s",
        raw_total / 1e9,
        vanilla_transfer_s(raw_total, link)
    );

    for (name, comp) in [
        ("SZ3", qip::sz3::Sz3::new()),
        ("SZ3+QP", qip::sz3::Sz3::new().with_qp(QpConfig::best_fit())),
    ] {
        let stats = measure_slice_stats(&comp, &sample, bound);
        println!("\n{name}: CR {:.2}, PSNR {:.2} dB", stats.cr(), stats.psnr);
        println!("{:>6}  {:>9} {:>8} {:>9} {:>8} {:>10} {:>9}", "cores", "compress", "write", "transfer", "read", "decompress", "total");
        for cores in [225, 450, 900, 1800] {
            let r = model_pipeline(&stats, n_slices_modeled, cores, link, fs);
            println!(
                "{:>6}  {:>8.1}s {:>7.1}s {:>8.1}s {:>7.1}s {:>9.1}s {:>8.1}s",
                cores, r.compress_s, r.write_s, r.transfer_s, r.read_s, r.decompress_s, r.total_s
            );
        }
    }
}
