//! Quantization-index characterization: paper Table II and Figs. 3–5.

use super::Opts;
use crate::report::{fmt, print_table, write_jsonl};
use crate::runner::{find_eb_for_psnr, run_once};
use qip_core::{Compressor, ErrorBound, QpConfig};
use qip_data::Dataset;
use qip_interp::QuantCapture;
use qip_metrics::{entropy_by_slice, entropy_region};
use qip_quant::UNPRED;
use qip_registry::AnyCompressor;
use qip_tensor::Field;
use serde::Serialize;
use std::io::Write;

/// The paper's SegSalt characterization setup, scaled: slice indices and
/// region boxes are given as fractions of the paper dims (1008×1008×352).
struct Geometry {
    dims: Vec<usize>,
    /// (axis, slice index) for the xy / xz / yz planes.
    slices: [(usize, usize); 3],
    /// (plane axes, origin, extent, stride) per region 0..2.
    regions: [Region; 3],
}

struct Region {
    /// Axis held fixed (the slicing axis).
    fixed_axis: usize,
    fixed_index: usize,
    /// In-plane origin/extent over the remaining two axes (row-major order).
    origin: [usize; 2],
    extent: [usize; 2],
    stride: [usize; 2],
}

fn geometry(dims: &[usize]) -> Geometry {
    let sc = |paper: usize, paper_dim: usize, dim: usize| -> usize {
        ((paper as f64 / paper_dim as f64) * dim as f64) as usize
    };
    let (dx, dy, dz) = (dims[0], dims[1], dims[2]);
    Geometry {
        dims: dims.to_vec(),
        slices: [
            (2, sc(211, 352, dz)), // xy plane: fix depth
            (1, sc(221, 1008, dy)), // xz plane: fix y
            (0, sc(51, 1008, dx)),  // yz plane: fix x
        ],
        regions: [
            // Region 0 on the xy plane: paper [450:550, 50:150], stride 2×2.
            Region {
                fixed_axis: 2,
                fixed_index: sc(211, 352, dz),
                origin: [sc(450, 1008, dx), sc(50, 1008, dy)],
                extent: [sc(100, 1008, dx).max(8), sc(100, 1008, dy).max(8)],
                stride: [2, 2],
            },
            // Region 1 on the xz plane: paper [400:600, 50:150], stride 1×2.
            Region {
                fixed_axis: 1,
                fixed_index: sc(221, 1008, dy),
                origin: [sc(400, 1008, dx), sc(50, 352, dz)],
                extent: [sc(200, 1008, dx).max(8), sc(100, 352, dz).max(8)],
                stride: [1, 2],
            },
            // Region 2 on the yz plane: paper [320:420, 500:600], stride 2×2.
            Region {
                fixed_axis: 0,
                fixed_index: sc(51, 1008, dx),
                origin: [sc(320, 1008, dy), sc(500, 352, dz).min(dz.saturating_sub(9))],
                extent: [sc(100, 1008, dy).max(8), sc(100, 352, dz).max(8)],
                stride: [2, 2],
            },
        ],
    }
}

/// Regional entropy of a captured (3-D) index array over a [`Region`].
fn region_entropy(q: &[i32], dims: &[usize], r: &Region) -> f64 {
    let plane_axes: Vec<usize> = (0..3).filter(|&a| a != r.fixed_axis).collect();
    let mut origin = vec![0usize; 3];
    let mut extent = vec![1usize; 3];
    let mut stride = vec![1usize; 3];
    origin[r.fixed_axis] = r.fixed_index.min(dims[r.fixed_axis].saturating_sub(1));
    for (k, &a) in plane_axes.iter().enumerate() {
        origin[a] = r.origin[k].min(dims[a].saturating_sub(1));
        extent[a] = r.extent[k];
        stride[a] = r.stride[k];
    }
    entropy_region(q, dims, &origin, &extent, &stride)
}

/// Write a PGM visualization of one slice of an index array, clamping to
/// `[-range, range]` (paper Fig. 3 uses ±8, Fig. 5 uses ±4).
fn write_pgm(
    path: &std::path::Path,
    q: &[i32],
    dims: &[usize],
    axis: usize,
    index: usize,
    range: i32,
) -> std::io::Result<()> {
    let shape = qip_tensor::Shape::new(dims);
    let plane_axes: Vec<usize> = (0..3).filter(|&a| a != axis).collect();
    let (h, w) = (dims[plane_axes[0]], dims[plane_axes[1]]);
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P2\n{w} {h}\n255")?;
    for i in 0..h {
        let mut row = String::with_capacity(w * 4);
        for j in 0..w {
            let mut coords = [0usize; 3];
            coords[axis] = index;
            coords[plane_axes[0]] = i;
            coords[plane_axes[1]] = j;
            let v = q[shape.flat(&coords)];
            let v = if v == UNPRED { -range } else { v.clamp(-range, range) };
            let gray = ((v + range) as f64 / (2 * range) as f64 * 255.0) as u8;
            row.push_str(&format!("{gray} "));
        }
        writeln!(f, "{}", row.trim_end())?;
    }
    Ok(())
}

#[derive(Serialize)]
struct EntropyRecord {
    compressor: String,
    region: usize,
    entropy_q: f64,
    entropy_q_prime: f64,
}

/// The relative bound the index figures run at: PSNR ≈ 75 on SegSalt. The
/// figures only need an operating point, so a miss is reported and its
/// closest bound used; Table II fails instead.
fn eb_near_75<C: Compressor<f32>>(comp: &C, field: &Field<f32>, tol: f64) -> f64 {
    match find_eb_for_psnr(comp, "SegSalt", 0, field, 75.0, tol) {
        Ok((eb, _)) => eb,
        Err(miss) => {
            eprintln!("[{miss}]");
            miss.closest.0
        }
    }
}

/// Paper Table II: compression statistics on SegSalt Pressure2000 with all
/// four base compressors, PSNR aligned to 75 ± 0.8, with and without QP. The
/// PSNR column is the achieved one; a row outside the tolerance, or a +QP run
/// that decodes to a different PSNR than its base, is an `Err`.
pub fn table2(opts: &Opts) -> Result<(), String> {
    let dims = Dataset::SegSalt.scaled_dims(opts.scale);
    let field = Dataset::SegSalt.generate_f32(0, &dims);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for base in AnyCompressor::base_four(QpConfig::off()) {
        let name = Compressor::<f32>::name(&base);
        let (eb, rec) =
            find_eb_for_psnr(&base, "SegSalt", 0, &field, 75.0, 0.8).unwrap_or_else(|miss| {
                failures.push(miss.to_string());
                *miss.closest
            });
        let qp = AnyCompressor::by_name(&format!("{name}+QP")).expect("known name");
        let rec_qp = run_once(&qp, "SegSalt", 0, &field, eb);
        // QP only re-codes the indices, so both runs decode the same samples.
        if rec_qp.psnr != rec.psnr {
            failures.push(format!("{name}: PSNR {} but {} with QP", rec.psnr, rec_qp.psnr));
        }
        rows.push(vec![
            name.clone(),
            fmt(rec.max_rel),
            fmt(rec.psnr),
            fmt(rec.cr),
            fmt(rec_qp.cr),
            format!("{:+.1}%", (rec_qp.cr / rec.cr - 1.0) * 100.0),
        ]);
        records.push(rec);
        records.push(rec_qp);
    }
    print_table(
        "Table II: SegSalt Pressure2000, PSNR aligned to 75",
        &["Compressor", "MaxRelErr", "PSNR", "CR (original)", "CR with QP", "QP gain"],
        &rows,
    );
    let _ = write_jsonl(&opts.out, "table2", &records);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Paper Fig. 3: slice visualizations of SZ3's quantization indices on
/// SegSalt (PGM dumps) plus the selected slice indices.
pub fn fig3(opts: &Opts) {
    let dims = Dataset::SegSalt.scaled_dims(opts.scale);
    let field = Dataset::SegSalt.generate_f32(0, &dims);
    let sz3 = qip_sz3::Sz3::new();
    let eb = eb_near_75(&sz3, &field, 0.8);
    let cap = sz3.quant_capture(&field, ErrorBound::Rel(eb)).expect("capture");
    let geo = geometry(&dims);
    std::fs::create_dir_all(&opts.out).ok();
    let names = ["xy", "xz", "yz"];
    let mut rows = Vec::new();
    for ((axis, index), plane) in geo.slices.iter().zip(names) {
        let path = opts.out.join(format!("fig3_sz3_{plane}_slice{index}.pgm"));
        write_pgm(&path, &cap.q, &dims, *axis, *index, 8).expect("pgm");
        rows.push(vec![
            plane.to_string(),
            index.to_string(),
            path.display().to_string(),
        ]);
    }
    print_table(
        &format!("Fig. 3: SZ3 index slices on SegSalt (dims {dims:?}, rel eb {eb:.2e})"),
        &["plane", "slice", "pgm"],
        &rows,
    );
}

/// Paper Fig. 4: per-slice entropy of SZ3's indices along the three planes,
/// sampled at stride 2 (the last interpolation level).
pub fn fig4(opts: &Opts) {
    let dims = Dataset::SegSalt.scaled_dims(opts.scale);
    let field = Dataset::SegSalt.generate_f32(0, &dims);
    let sz3 = qip_sz3::Sz3::new();
    let eb = eb_near_75(&sz3, &field, 0.8);
    let cap = sz3.quant_capture(&field, ErrorBound::Rel(eb)).expect("capture");
    let d3 = [dims[0], dims[1], dims[2]];

    #[derive(Serialize)]
    struct SliceEntropy {
        plane: &'static str,
        slice: usize,
        entropy: f64,
    }
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for (axis, plane) in [(2usize, "xy"), (1, "xz"), (0, "yz")] {
        let h = entropy_by_slice(&cap.q, &d3, axis, 2);
        let (lo, hi, mean) = (
            h.iter().cloned().fold(f64::INFINITY, f64::min),
            h.iter().cloned().fold(0.0, f64::max),
            h.iter().sum::<f64>() / h.len() as f64,
        );
        rows.push(vec![plane.into(), fmt(lo), fmt(mean), fmt(hi)]);
        for (i, e) in h.iter().enumerate() {
            records.push(SliceEntropy { plane, slice: i, entropy: *e });
        }
    }
    print_table(
        "Fig. 4: per-slice entropy of SZ3 indices (stride 2), summary",
        &["plane", "min H", "mean H", "max H"],
        &rows,
    );
    let _ = write_jsonl(&opts.out, "fig4_slice_entropy", &records);
}

/// Paper Fig. 5: regional entropy of the index arrays for all four base
/// compressors, before (Q) and after (Q') quantization index prediction.
pub fn fig5(opts: &Opts) {
    let dims = Dataset::SegSalt.scaled_dims(opts.scale);
    let field = Dataset::SegSalt.generate_f32(0, &dims);
    let geo = geometry(&dims);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    std::fs::create_dir_all(&opts.out).ok();
    for base in AnyCompressor::base_four(QpConfig::off()) {
        let name = Compressor::<f32>::name(&base);
        let eb = eb_near_75(&base, &field, 1.2);
        let plain: QuantCapture =
            base.quant_capture(&field, ErrorBound::Rel(eb)).expect("base").expect("capture");
        let with = AnyCompressor::by_name(&format!("{name}+QP")).expect("name");
        let qp: QuantCapture =
            with.quant_capture(&field, ErrorBound::Rel(eb)).expect("base").expect("capture");
        for (ri, region) in geo.regions.iter().enumerate() {
            let hq = region_entropy(&plain.q, &geo.dims, region);
            let hqp = region_entropy(&qp.q_prime, &geo.dims, region);
            rows.push(vec![name.clone(), ri.to_string(), fmt(hq), fmt(hqp)]);
            records.push(EntropyRecord {
                compressor: name.clone(),
                region: ri,
                entropy_q: hq,
                entropy_q_prime: hqp,
            });
        }
        // Fig. 5 panel dumps (±4 range as in the paper).
        for ((axis, index), plane) in geo.slices.iter().zip(["xy", "xz", "yz"]) {
            let p = opts.out.join(format!(
                "fig5_{}_{plane}_q.pgm",
                name.to_ascii_lowercase().replace('+', "_")
            ));
            let _ = write_pgm(&p, &plain.q, &dims, *axis, *index, 4);
            let p2 = opts.out.join(format!(
                "fig5_{}_{plane}_qprime.pgm",
                name.to_ascii_lowercase().replace('+', "_")
            ));
            let _ = write_pgm(&p2, &qp.q_prime, &dims, *axis, *index, 4);
        }
    }
    print_table(
        "Fig. 5: regional entropy of quantization indices, original vs +QP",
        &["Compressor", "Region", "H(Q)", "H(Q') with QP"],
        &rows,
    );
    let _ = write_jsonl(&opts.out, "fig5_region_entropy", &records);
}
