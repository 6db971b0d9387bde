//! qip-inspect: decode-time stream forensics.
//!
//! Given any stream the registry can decode, [`inspect_bytes`] produces an
//! [`InspectReport`] with three sections:
//!
//! * an **exact bit-accounting ledger** — every byte of the stream attributed
//!   to a named component (integrity seal, header, entropy tables, payload,
//!   side channels, container index, …). The ledger is a by-name rollup of
//!   the byte spans the stream's own decoder parse read off its cursor
//!   ([`InspectReport::spans`]), so it sums to the stream length by
//!   construction; no layout is described in this crate.
//! * **QP decision maps** — per-level gate-fired / accepted / rejected
//!   counters recovered from the decode itself, plus an optional coarse
//!   spatial heatmap of accept rates.
//! * **error-budget analytics** — when the original field is available,
//!   pointwise `|err| / bound` margin histograms, per-level PSNR, and the
//!   worst-case margin ([`inspect_bytes_with_original`]).
//!
//! Every stream is decoded by its decoder's own parse → decode, so a stream
//! inspects exactly when it decompresses. Inspection is strictly read-only:
//! it never changes compressed bytes, and the reconstructed field is
//! bit-identical to a plain decompress (both are pinned by this crate's
//! test suite). The forensic decode of an
//! interpolation-engine stream is the production tile walk with a per-tile
//! probe; reports are byte-identical across runs and thread counts.

mod render;

use qip_codec::{inspect_index_block, IndexForensics, Span};
use qip_container::ContainerInfo;
use qip_core::{CompressCtx, CompressError};
use qip_interp::{EngineForensics, LevelForensics, Preset, QuantCapture};
use qip_mgard::Mgard;
use qip_metrics::BoundCheck;
use qip_quant::UNPRED;
use qip_sz3::{lorenzo, Pipeline, Sz3};
use qip_tensor::{Field, Scalar};
use serde::Serialize;

/// Largest heatmap extent per axis; real extents smaller than this map 1:1.
pub const HEATMAP_MAX_EDGE: usize = 16;

/// Number of buckets in the `|err| / bound` margin histogram (over `[0, 1]`).
pub use qip_metrics::MARGIN_BUCKETS;

/// Every ledger component, in the order a ledger lists them (a format uses
/// the subset its parser names).
#[rustfmt::skip]
const LEDGER_ORDER: [&str; 19] = [
    "container.header", "container.index", "seal", "wrapper", "header", "config", "level_tags",
    "choice_bits", "coeffs", "framing", "factors", "anchors", "unpred",
    "index.framing", "index.tables", "index.payload", "payload", "raw", "corrections",
];

// ---------------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------------

/// One ledger line: `bytes` of the stream attributed to `component`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LedgerEntry {
    /// Component name (`seal`, `header`, `index.tables`, `container.index`, …).
    pub component: String,
    /// Exact byte count attributed to the component.
    pub bytes: u64,
}

/// Per-level QP decision counters plus the level's entropy cost.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LevelReport {
    /// Interpolation / multigrid level (1 = finest).
    pub level: usize,
    /// Points processed on this level.
    pub points: u64,
    /// Points where the QP gate was open (transform applied).
    pub accepted: u64,
    /// Points where the gate stayed closed.
    pub rejected: u64,
    /// Points where the transform actually changed the index (`Q' ≠ Q`).
    pub fired: u64,
    /// `accepted / points` (0 when the level is empty).
    pub accept_rate: f64,
    /// `fired / points`.
    pub fire_rate: f64,
    /// Entropy bits this level's indices cost in the index block.
    pub index_bits: f64,
    /// Whether `index_bits` is exact stream bits (plain Huffman chunks) or a
    /// model-based estimate (range-coded / LZ-wrapped chunks).
    pub bits_exact: bool,
}

/// QP decision summary for one stream (or a tiled rollup).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QpReport {
    /// Whether the stream's config enables the QP transform at all.
    pub enabled: bool,
    /// The level prefix QP covers in the stream — the `max_level` its
    /// encoder chose, up to the configured ceiling (0 when QP is off; a
    /// tiled rollup reports the highest of its tiles).
    pub max_level: usize,
    /// Per-level counters, coarsest first.
    pub levels: Vec<LevelReport>,
    /// Anchor-grid / coarse-node point count (not gated).
    pub anchors: u64,
    /// Unpredictable (escaped) point count.
    pub unpredictable: u64,
}

/// Coarse spatial accept-rate grid (downsampled to ≤ [`HEATMAP_MAX_EDGE`]
/// cells per axis, row-major).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Heatmap {
    /// Grid extents, one per field axis.
    pub grid: Vec<usize>,
    /// Interpolated points per cell.
    pub points: Vec<u64>,
    /// Gate-open points per cell.
    pub accepted: Vec<u64>,
    /// Transform-fired points per cell.
    pub fired: Vec<u64>,
}

/// One compressor's share of a tiled container.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CompressorTiles {
    /// Compressor name.
    pub compressor: String,
    /// Tiles it compressed.
    pub tiles: usize,
    /// Total bytes of those tile streams.
    pub bytes: u64,
}

/// Per-tile ledger rollup for tiled containers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TileRollup {
    /// Tile count.
    pub tiles: usize,
    /// Smallest tile stream in bytes.
    pub min_tile_bytes: u64,
    /// Median tile stream in bytes.
    pub median_tile_bytes: u64,
    /// Largest tile stream in bytes.
    pub max_tile_bytes: u64,
    /// Per-compressor breakdown.
    pub by_compressor: Vec<CompressorTiles>,
}

/// PSNR over the points decoded at one level.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LevelPsnr {
    /// Level (0 = anchors / coarse nodes).
    pub level: usize,
    /// PSNR in dB (NaN when undefined).
    pub psnr: f64,
}

/// Error-budget analytics against the original field. The budget (maximum,
/// margins, violations, histogram) is one [`qip_metrics::BoundCheck`], the
/// workspace's one definition of the bound.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorBudget {
    /// Absolute error bound the stream was quantized at.
    pub bound: f64,
    /// Largest finite pointwise absolute error.
    pub max_abs_error: f64,
    /// Largest `|err| / bound` margin over the finite errors.
    pub max_margin: f64,
    /// Mean `|err| / bound` margin over the finite errors.
    pub mean_margin: f64,
    /// Points that break the bound (must be 0 for a correct stream).
    pub violations: u64,
    /// Points whose error is not finite: either side is NaN or ±Inf. Left
    /// out of the JSON when 0, so reports of finite fields keep their bytes.
    #[serde(skip_serializing_if = "is_zero")]
    pub nonfinite: u64,
    /// Histogram of margins over `[0, 1]` in [`MARGIN_BUCKETS`] buckets.
    pub margin_histogram: Vec<u64>,
    /// Whole-field PSNR in dB (NaN when undefined).
    pub psnr: f64,
    /// Per-level PSNR; only for forensically decoded streams.
    pub level_psnr: Vec<LevelPsnr>,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

/// The full forensic report for one compressed stream; its JSON has the
/// fields in declaration order, `spans` left out.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InspectReport {
    /// Stream kind: `sz3-interp`, `sz3-lorenzo`, `qoz`, `hpez`, `mgard`,
    /// `zfp`, `sperr`, `tthresh`, or `tiled`.
    pub kind: &'static str,
    /// Compressor family name (for tiled containers, the per-tile name).
    pub compressor: String,
    /// Scalar width of the stored field (32 or 64).
    pub scalar_bits: u32,
    /// Field dims.
    pub dims: Vec<usize>,
    /// Total compressed stream length.
    pub stream_bytes: u64,
    /// Uncompressed field size in bytes.
    pub raw_bytes: u64,
    /// `raw_bytes / stream_bytes`.
    pub ratio: f64,
    /// Absolute error bound from the stream header.
    pub abs_bound: f64,
    /// The named byte spans the stream's decoder parse read, in stream
    /// order; they tile `0..stream_bytes` (tiles' spans in place of a
    /// container's payload, an index block's sections in place of it).
    #[serde(skip)]
    pub spans: Vec<Span>,
    /// Exact byte ledger: the spans summed by name; entries sum to
    /// `stream_bytes`.
    pub ledger: Vec<LedgerEntry>,
    /// QP decision counters (absent for comparators without a QP path).
    pub qp: Option<QpReport>,
    /// Coarse spatial accept map (forensically decoded flat streams only).
    pub heatmap: Option<Heatmap>,
    /// Per-tile rollup (tiled containers only).
    pub tiles: Option<TileRollup>,
    /// Error-budget analytics (only with the original field).
    pub error_budget: Option<ErrorBudget>,
}

impl InspectReport {
    /// Sum of all ledger entries; equals `stream_bytes` by construction.
    pub fn ledger_total(&self) -> u64 {
        self.ledger.iter().map(|e| e.bytes).sum()
    }

    /// Bytes attributed to `component` (0 if absent).
    pub fn component_bytes(&self, component: &str) -> u64 {
        self.ledger
            .iter()
            .filter(|e| e.component == component)
            .map(|e| e.bytes)
            .sum()
    }

    /// Deterministic JSON rendering (fixed key order, shortest-roundtrip
    /// floats, non-finite values as `null`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("the stub serializer is infallible")
    }

    /// Human-readable table for the CLI.
    pub fn render_table(&self) -> String {
        render::render_table(self)
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Inspect a compressed stream without the original field.
pub fn inspect_bytes(bytes: &[u8]) -> Result<InspectReport, CompressError> {
    if bytes.first() == Some(&0xB0) {
        return inspect_tiled(bytes);
    }
    // Every flat format's header parse names the width it did not expect.
    match inspect_flat::<f32>(bytes, None) {
        Err(CompressError::WrongFormat("scalar width mismatch")) => inspect_flat::<f64>(bytes, None),
        report => report,
    }
}

/// Inspect a compressed stream and fill in [`ErrorBudget`] analytics against
/// `original`. The original's scalar width must match the stream's.
pub fn inspect_bytes_with_original<T: Scalar>(
    bytes: &[u8],
    original: &Field<T>,
) -> Result<InspectReport, CompressError> {
    if bytes.first() != Some(&0xB0) {
        return inspect_flat::<T>(bytes, Some(original));
    }
    let recon = qip_container::decompress_full::<T>(bytes)?;
    let mut report = inspect_tiled(bytes)?;
    report.error_budget = Some(error_budget(original, &recon, report.abs_bound, &[], &[]));
    Ok(report)
}

// ---------------------------------------------------------------------------
// Flat single-compressor streams
// ---------------------------------------------------------------------------

/// `inner`'s spans, shifted to where the span called `name` starts, in its
/// place (`outer` unchanged when it has no such span).
fn splice(mut outer: Vec<Span>, name: &str, inner: Vec<Span>) -> Vec<Span> {
    if let Some(at) = outer.iter().position(|s| s.name == name) {
        let base = outer[at].start;
        let shifted = inner.into_iter().map(|s| Span { start: s.start + base, end: s.end + base, ..s });
        outer.splice(at..=at, shifted);
    }
    outer
}

/// The ledger of a span list: bytes summed by name, in [`LEDGER_ORDER`].
fn ledger_of(spans: &[Span]) -> Vec<LedgerEntry> {
    let mut ledger: Vec<LedgerEntry> = Vec::new();
    for s in spans.iter().filter(|s| s.end > s.start) {
        let bytes = (s.end - s.start) as u64;
        match ledger.iter_mut().find(|e| e.component == s.name) {
            Some(e) => e.bytes += bytes,
            None => ledger.push(LedgerEntry { component: s.name.into(), bytes }),
        }
    }
    ledger.sort_by_key(|e| LEDGER_ORDER.iter().position(|n| *n == e.component));
    ledger
}

/// What a flat stream decodes to.
enum Decoded<T: Scalar> {
    /// A reconstruction and the bound it was quantized at.
    Plain(Field<T>, f64),
    /// An engine or MGARD decode with its QP record; its spans stand in
    /// place of the `body` span of what wraps it.
    Forensic(Box<EngineForensics<T>>),
}

/// Decode one flat stream through its own decoder's parse → decode and
/// report on it.
fn inspect_flat<T: Scalar>(
    bytes: &[u8],
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    use Decoded::{Forensic, Plain};
    let body = |end| Span { name: "body", start: 0, end };
    let (kind, compressor, outer, decoded): (&'static str, &str, _, _) = match bytes.first() {
        Some(0x20) => {
            let sz3 = Sz3::parse(bytes)?;
            match sz3.pipeline {
                Pipeline::Interpolation => {
                    let fx = Sz3::new().engine().decompress_forensic(sz3.body)?;
                    ("sz3-interp", "SZ3", sz3.spans, Forensic(Box::new(fx)))
                }
                Pipeline::Lorenzo => {
                    let p = lorenzo::parse::<T>(sz3.body)?;
                    let decoded = Plain(lorenzo::decode(&p, &mut CompressCtx::new())?, p.header.abs_eb);
                    ("sz3-lorenzo", "SZ3", splice(sz3.spans, "body", p.spans), decoded)
                }
            }
        }
        Some(0x50) => {
            let fx = Mgard::new().decompress_forensic(bytes)?;
            ("mgard", "MGARD", vec![body(bytes.len())], Forensic(Box::new(fx)))
        }
        Some(0x60) => {
            let p = qip_zfp::parse::<T>(bytes)?;
            let decoded = Plain(qip_zfp::decode(&p)?, p.header.abs_eb);
            ("zfp", "ZFP", p.spans, decoded)
        }
        Some(0x70) => {
            let p = qip_sperr::parse::<T>(bytes)?;
            let decoded = Plain(qip_sperr::decode(&p)?, p.header.abs_eb);
            ("sperr", "SPERR", p.spans, decoded)
        }
        Some(0x80) => {
            let p = qip_tthresh::parse::<T>(bytes)?;
            let decoded = Plain(qip_tthresh::decode(&p)?, p.header.abs_eb);
            ("tthresh", "TTHRESH", p.spans, decoded)
        }
        // What is left is a tuned-engine stream (QoZ, HPEZ) or foreign.
        magic => {
            let preset = magic
                .and_then(|&m| Preset::by_magic(m))
                .ok_or(CompressError::WrongFormat("unknown stream magic"))?;
            let unsealed = qip_core::integrity::check(bytes)?;
            let seal = Span { name: "seal", start: unsealed.len(), end: bytes.len() };
            let fx = preset.engine().decompress_forensic(unsealed)?;
            (preset.kind, preset.name, vec![body(unsealed.len()), seal], Forensic(Box::new(fx)))
        }
    };
    let (spans, abs_bound, recon, fx) = match &decoded {
        Plain(recon, abs_eb) => (outer, *abs_eb, recon, None),
        Forensic(fx) => (splice(outer, "body", fx.spans.clone()), fx.abs_eb, &fx.field, Some(&**fx)),
    };

    let dims = recon.shape().dims().to_vec();
    // The index block's own sections in place of it.
    let index_fx = match spans.iter().find(|s| s.name == "index") {
        Some(ix) => Some(inspect_index_block(&bytes[ix.start..ix.end], recon.len())?),
        None => None,
    };
    let spans = splice(spans, "index", index_fx.as_ref().map_or(Vec::new(), |f| f.spans.clone()));
    let raw_bytes = (recon.len() * T::BYTES) as u64;
    let level_of = fx.map_or(&[][..], |fx| &fx.probe.capture.level);
    Ok(InspectReport {
        kind,
        compressor: compressor.to_string(),
        scalar_bits: T::BITS,
        stream_bytes: bytes.len() as u64,
        raw_bytes,
        ratio: raw_bytes as f64 / bytes.len() as f64,
        abs_bound,
        ledger: ledger_of(&spans),
        spans,
        qp: fx.map(|fx| QpReport {
            enabled: fx.qp.is_enabled(),
            max_level: fx.qp.prefix(),
            levels: level_reports(&fx.probe.levels, &fx.qprime, index_fx.as_ref()),
            anchors: fx.probe.anchors,
            unpredictable: fx.probe.unpredictable,
        }),
        heatmap: fx.and_then(|fx| heatmap(&dims, &fx.probe.capture, &fx.probe.accepted)),
        tiles: None,
        error_budget: original
            .map(|orig| error_budget(orig, recon, abs_bound, level_of, &levels_present(level_of))),
        dims,
    })
}

/// Per-level counters → report rows, pricing each level's slice of the
/// transformed index stream against the entropy-block forensics.
fn level_reports(
    levels: &[LevelForensics],
    qprime: &[i32],
    index_fx: Option<&IndexForensics>,
) -> Vec<LevelReport> {
    levels
        .iter()
        .map(|ls| {
            let (index_bits, bits_exact) = index_fx
                .map_or((0.0, false), |fx| fx.price(qprime, ls.qprime_start, ls.qprime_end));
            let pts = ls.points.max(1) as f64;
            LevelReport {
                level: ls.level,
                points: ls.points,
                accepted: ls.accepted,
                rejected: ls.points - ls.accepted,
                fired: ls.fired,
                accept_rate: ls.accepted as f64 / pts,
                fire_rate: ls.fired as f64 / pts,
                index_bits,
                bits_exact,
            }
        })
        .collect()
}

/// Downsample the per-point decision maps to a coarse accept-rate grid.
fn heatmap(dims: &[usize], capture: &QuantCapture, accepted: &[u8]) -> Option<Heatmap> {
    let n: usize = dims.iter().product();
    if n == 0 || capture.q.len() != n || accepted.len() != n {
        return None;
    }
    let grid: Vec<usize> = dims.iter().map(|&d| d.clamp(1, HEATMAP_MAX_EDGE)).collect();
    let cells: usize = grid.iter().product();
    let mut map = Heatmap {
        grid: grid.clone(),
        points: vec![0; cells],
        accepted: vec![0; cells],
        fired: vec![0; cells],
    };
    for (flat, &acc) in accepted.iter().enumerate() {
        if acc == 0 {
            continue; // anchor / coarse node: not a gated point
        }
        // Row-major coordinate decomposition, then per-axis downsample.
        let mut rem = flat;
        let mut cell = 0usize;
        for k in (0..dims.len()).rev() {
            let c = rem % dims[k];
            rem /= dims[k];
            let g = c * grid[k] / dims[k];
            // Rebuild the cell index most-significant-axis first.
            cell += g * grid[k + 1..].iter().product::<usize>();
        }
        map.points[cell] += 1;
        if acc == 2 {
            map.accepted[cell] += 1;
        }
        if capture.q[flat] != capture.q_prime[flat] && capture.q[flat] != UNPRED {
            map.fired[cell] += 1;
        }
    }
    Some(map)
}

/// Error-budget analytics: the budget is qip-metrics' [`BoundCheck`];
/// `level_of` (spatial per-point levels) and `levels_present` drive the
/// per-level PSNR (pass empty slices to skip it), whose range is the
/// original's over the points with a finite error.
fn error_budget<T: Scalar>(
    original: &Field<T>,
    recon: &Field<T>,
    bound: f64,
    level_of: &[u8],
    levels_present: &[usize],
) -> ErrorBudget {
    let (orig, rec) = (original.as_slice(), recon.as_slice());
    let check = BoundCheck::of(orig, rec, bound);
    let mut level_psnr = Vec::new();
    if level_of.len() == check.len as usize {
        let (mut se, mut count) = ([0.0f64; 256], [0u64; 256]);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for ((o, r), &lvl) in orig.iter().zip(rec).zip(level_of) {
            let (o, d) = (o.to_f64(), o.to_f64() - r.to_f64());
            if d.is_finite() {
                (lo, hi) = (lo.min(o), hi.max(o));
                se[lvl as usize] += d * d;
                count[lvl as usize] += 1;
            }
        }
        let range = hi - lo;
        for &lvl in levels_present.iter().filter(|&&l| count[l] > 0) {
            let mse = se[lvl] / count[lvl] as f64;
            let psnr = match mse > 0.0 && range > 0.0 {
                true => 20.0 * range.log10() - 10.0 * mse.log10(),
                false => f64::NAN,
            };
            level_psnr.push(LevelPsnr { level: lvl, psnr });
        }
    }
    ErrorBudget {
        bound,
        max_abs_error: check.max_abs,
        max_margin: check.max_ratio,
        mean_margin: check.mean_ratio(),
        violations: check.violations,
        nonfinite: check.nonfinite,
        margin_histogram: check.histogram.to_vec(),
        psnr: qip_metrics::psnr(original, recon),
        level_psnr,
    }
}

/// Distinct levels in a capture, anchors (0) first.
fn levels_present(level_of: &[u8]) -> Vec<usize> {
    let mut seen = [false; 256];
    for &l in level_of {
        seen[l as usize] = true;
    }
    (0..256).filter(|&l| seen[l]).collect()
}

// ---------------------------------------------------------------------------
// Tiled containers
// ---------------------------------------------------------------------------

fn inspect_tiled(bytes: &[u8]) -> Result<InspectReport, CompressError> {
    let (info, payload) = ContainerInfo::parse(bytes)?;

    // Per-tile forensics, rolled up: every tile's spans go in place of the
    // payload, ledger components aggregate by name behind the container's
    // own (in first-seen order), QP level counters merge by level.
    let mut ledger = ledger_of(&info.spans);
    ledger.retain(|e| e.component != "payload");
    let mut tile_spans: Vec<Span> = Vec::new();
    let mut tile_sizes: Vec<u64> = Vec::with_capacity(info.tiles.len());
    let mut qp_rollup: Option<QpReport> = None;
    for (i, entry) in info.tiles.iter().enumerate() {
        let tile = info
            .tile_payload(payload, i)
            .ok_or(CompressError::Corrupt("tile payload out of range"))?;
        tile_sizes.push(tile.len() as u64);
        let sub = match info.bits {
            32 => inspect_flat::<f32>(tile, None)?,
            _ => inspect_flat::<f64>(tile, None)?,
        };
        let at = entry.offset;
        tile_spans.extend(sub.spans.iter().map(|s| Span { start: s.start + at, end: s.end + at, ..*s }));
        for e in sub.ledger {
            match ledger.iter_mut().find(|a| a.component == e.component) {
                Some(a) => a.bytes += e.bytes,
                None => ledger.push(e),
            }
        }
        if let Some(qp) = sub.qp {
            qp_rollup = Some(merge_qp(qp_rollup.take(), qp));
        }
    }
    let mut sorted = tile_sizes.clone();
    sorted.sort_unstable();
    let raw_bytes = info.dims.iter().product::<usize>() as u64 * (info.bits as u64 / 8);
    Ok(InspectReport {
        kind: "tiled",
        compressor: info.compressor.clone(),
        scalar_bits: info.bits,
        dims: info.dims.clone(),
        stream_bytes: bytes.len() as u64,
        raw_bytes,
        ratio: raw_bytes as f64 / bytes.len() as f64,
        abs_bound: info.abs_bound,
        ledger,
        spans: splice(info.spans.clone(), "payload", tile_spans),
        qp: qp_rollup,
        heatmap: None,
        tiles: Some(TileRollup {
            tiles: info.tiles.len(),
            min_tile_bytes: sorted.first().copied().unwrap_or(0),
            median_tile_bytes: sorted.get(sorted.len() / 2).copied().unwrap_or(0),
            max_tile_bytes: sorted.last().copied().unwrap_or(0),
            by_compressor: vec![CompressorTiles {
                compressor: info.compressor,
                tiles: info.tiles.len(),
                bytes: tile_sizes.iter().sum(),
            }],
        }),
        error_budget: None,
    })
}

/// Merge one tile's QP report into the rollup: counters add per level,
/// per-level bits add, exactness ANDs, rates are recomputed from the sums.
fn merge_qp(acc: Option<QpReport>, next: QpReport) -> QpReport {
    let mut acc = match acc {
        None => return next,
        Some(a) => a,
    };
    acc.enabled |= next.enabled;
    acc.max_level = acc.max_level.max(next.max_level);
    acc.anchors += next.anchors;
    acc.unpredictable += next.unpredictable;
    for lr in next.levels {
        match acc.levels.iter_mut().find(|a| a.level == lr.level) {
            Some(a) => {
                a.points += lr.points;
                a.accepted += lr.accepted;
                a.rejected += lr.rejected;
                a.fired += lr.fired;
                a.index_bits += lr.index_bits;
                a.bits_exact &= lr.bits_exact;
                let pts = a.points.max(1) as f64;
                a.accept_rate = a.accepted as f64 / pts;
                a.fire_rate = a.fired as f64 / pts;
            }
            None => acc.levels.push(lr),
        }
    }
    acc.levels.sort_by_key(|l| std::cmp::Reverse(l.level));
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use qip_core::ErrorBound;
    use qip_registry::AnyCompressor;
    use qip_conformance::fields::{synth, FieldFamily};

    #[test]
    fn ledger_sums_for_every_registry_compressor() {
        let field = synth::<f32>(FieldFamily::Banded, 0, &[20, 15]);
        for comp in AnyCompressor::registry() {
            let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let report = inspect_bytes(&bytes).unwrap();
            let name = comp.as_dyn::<f32>().name();
            assert_eq!(report.ledger_total(), bytes.len() as u64, "{name}");
            assert_eq!(report.scalar_bits, 32);
            assert_eq!(report.dims, vec![20, 15]);
            // The spans tile the stream, and `LEDGER_ORDER` lists every name.
            let end = report.spans.iter().try_fold(0, |at, s| (s.start == at).then_some(s.end));
            assert_eq!(end, Some(bytes.len()), "{name}: {:?}", report.spans);
            assert!(report.spans.iter().all(|s| LEDGER_ORDER.contains(&s.name)), "{name}");
        }
    }

    #[test]
    fn error_budget_respects_bound() {
        let field = synth::<f32>(FieldFamily::Banded, 0, &[18, 14]);
        let comp = AnyCompressor::by_name("SZ3+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let report = inspect_bytes_with_original(&bytes, &field).unwrap();
        let eb = report.error_budget.as_ref().unwrap();
        assert_eq!(eb.violations, 0);
        assert!(eb.max_margin <= 1.0 + 1e-9, "max margin {}", eb.max_margin);
        assert!(eb.margin_histogram.iter().sum::<u64>() == field.len() as u64);
        assert!(!eb.level_psnr.is_empty());
    }

    #[test]
    fn error_budget_counts_nonfinite_samples_and_stays_finite() {
        // NaN, ±Inf and a subnormal planted in a field. Kept bit-exact, all
        // four meet the bound; any other pairing with a non-finite side is a
        // violation, and no statistic turns non-finite.
        let mut original = synth::<f32>(FieldFamily::Banded, 0, &[8, 6]);
        let planted = [(3, f32::NAN), (10, f32::INFINITY), (20, f32::NEG_INFINITY), (30, 1e-40)];
        for (i, v) in planted {
            original.as_mut_slice()[i] = v;
        }
        let exact = error_budget(&original, &original.clone(), 1e-3, &[], &[]);
        assert_eq!((exact.violations, exact.nonfinite), (0, 3));
        assert_eq!((exact.max_margin, exact.mean_margin, exact.max_abs_error), (0.0, 0.0, 0.0));
        assert_eq!(exact.margin_histogram.iter().sum::<u64>(), 48);

        let mut recon = original.clone();
        recon.as_mut_slice()[3] = 0.0; // NaN came back finite
        recon.as_mut_slice()[10] = f32::NEG_INFINITY; // +Inf came back as -Inf
        recon.as_mut_slice()[25] = f32::NAN; // a finite sample came back NaN
        recon.as_mut_slice()[30] = 0.0; // the subnormal flushed: within the bound
        recon.as_mut_slice()[40] += 5e-4; // half the bound
        let e = error_budget(&original, &recon, 1e-3, &[], &[]);
        assert_eq!((e.violations, e.nonfinite), (3, 4));
        assert!((e.max_margin - 0.5).abs() < 1e-3 && e.max_abs_error < 1e-3, "{e:?}");
        assert!(e.mean_margin.is_finite() && e.mean_margin < 0.5 / 40.0);
        assert_eq!(e.margin_histogram.iter().sum::<u64>() + e.violations, 48);

        // Neither rendering of such a budget prints a non-finite number.
        let zfp = AnyCompressor::by_name("ZFP").unwrap();
        let field = synth::<f32>(FieldFamily::Banded, 0, &[8, 6]);
        let bytes = zfp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let mut report = inspect_bytes(&bytes).unwrap();
        report.error_budget = Some(e);
        for text in [report.to_json(), report.render_table()] {
            assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        }
        let json: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(json["error_budget"]["nonfinite"].as_u64(), Some(4));
    }

    #[test]
    fn qp_counters_nonzero_when_enabled() {
        // Layered data, where the encoder keeps QP on level 1 at least.
        let field: Field<f32> = synth(FieldFamily::Banded, 5, &[24, 20, 16]);
        let comp = AnyCompressor::by_name("QoZ+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let report = inspect_bytes(&bytes).unwrap();
        let qp = report.qp.unwrap();
        assert!(qp.enabled && (1..=2).contains(&qp.max_level), "max_level {}", qp.max_level);
        assert!(qp.levels.iter().any(|l| l.fired > 0));
        let total: u64 = qp.levels.iter().map(|l| l.points).sum();
        assert_eq!(total + qp.anchors, field.len() as u64);
        assert!(report.heatmap.is_some());
    }

    #[test]
    fn json_is_deterministic() {
        let field = synth::<f32>(FieldFamily::Banded, 0, &[16, 11]);
        let comp = AnyCompressor::by_name("HPEZ+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let a = inspect_bytes(&bytes).unwrap().to_json();
        let b = inspect_bytes(&bytes).unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
    }
}
