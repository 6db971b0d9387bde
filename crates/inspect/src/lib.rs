//! qip-inspect: decode-time stream forensics.
//!
//! Given any stream the registry can decode, [`inspect_bytes`] produces an
//! [`InspectReport`] with three sections:
//!
//! * an **exact bit-accounting ledger** — every byte of the stream attributed
//!   to a named component (integrity seal, header, entropy tables, payload,
//!   side channels, container index, …). The components always sum to the
//!   stream length *exactly*; a stream whose layout does not sum is rejected
//!   as corrupt rather than reported approximately.
//! * **QP decision maps** — per-level gate-fired / accepted / rejected
//!   counters recovered from the decode itself, plus an optional coarse
//!   spatial heatmap of accept rates.
//! * **error-budget analytics** — when the original field is available,
//!   pointwise `|err| / bound` margin histograms, per-level PSNR, and the
//!   worst-case margin ([`inspect_bytes_with_original`]).
//!
//! Inspection is strictly read-only: it never changes compressed bytes, and
//! the reconstructed field is bit-identical to a plain decompress (both are
//! pinned by this crate's test suite). The forensic decode of an
//! interpolation-engine stream is the production tile walk with a per-tile
//! probe; reports are byte-identical across runs and thread counts.

mod json;
mod render;

use qip_codec::varint::uvarint_len;
use qip_codec::{inspect_index_block, price_symbol_range, ByteReader, IndexForensics};
use qip_container::ContainerInfo;
use qip_core::{CompressError, Compressor, StreamHeader};
use qip_interp::{EngineConfig, EngineForensics, EngineLayout, InterpEngine, LevelForensics, QuantCapture};
use qip_mgard::Mgard;
use qip_quant::{LinearQuantizer, UNPRED};
use qip_registry::AnyCompressor;
use qip_sz3::Sz3;
use qip_tensor::{Field, Scalar};

/// Largest heatmap extent per axis; real extents smaller than this map 1:1.
pub const HEATMAP_MAX_EDGE: usize = 16;

/// Number of buckets in the `|err| / bound` margin histogram (over `[0, 1]`).
pub const MARGIN_BUCKETS: usize = 10;

// ---------------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------------

/// One ledger line: `bytes` of the stream attributed to `component`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Component name (`seal`, `header`, `index.tables`, `container.index`, …).
    pub component: String,
    /// Exact byte count attributed to the component.
    pub bytes: u64,
}

/// Per-level QP decision counters plus the level's entropy cost.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct QpReport {
    /// Whether the stream's config enables the QP transform at all.
    pub enabled: bool,
    /// Per-level counters, coarsest first.
    pub levels: Vec<LevelReport>,
    /// Anchor-grid / coarse-node point count (not gated).
    pub anchors: u64,
    /// Unpredictable (escaped) point count.
    pub unpredictable: u64,
}

/// Coarse spatial accept-rate grid (downsampled to ≤ [`HEATMAP_MAX_EDGE`]
/// cells per axis, row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Per-tile ledger rollup for tiled containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRollup {
    /// Tile count.
    pub tiles: usize,
    /// Smallest tile stream in bytes.
    pub min_tile_bytes: u64,
    /// Median tile stream in bytes.
    pub median_tile_bytes: u64,
    /// Largest tile stream in bytes.
    pub max_tile_bytes: u64,
    /// `(compressor, tiles, total bytes)` breakdown.
    pub by_compressor: Vec<(String, usize, u64)>,
}

/// Error-budget analytics against the original field.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBudget {
    /// Absolute error bound the stream was quantized at.
    pub bound: f64,
    /// Largest pointwise absolute error.
    pub max_abs_error: f64,
    /// Largest `|err| / bound` margin.
    pub max_margin: f64,
    /// Mean `|err| / bound` margin.
    pub mean_margin: f64,
    /// Points whose error exceeds the bound (must be 0 for a correct stream).
    pub violations: u64,
    /// Histogram of margins over `[0, 1]` in [`MARGIN_BUCKETS`] buckets.
    pub margin_histogram: Vec<u64>,
    /// Whole-field PSNR in dB (NaN when undefined).
    pub psnr: f64,
    /// `(level, PSNR)` over the points decoded at each level (level 0 =
    /// anchors / coarse nodes); only for forensically decoded streams.
    pub level_psnr: Vec<(usize, f64)>,
}

/// The full forensic report for one compressed stream.
#[derive(Debug, Clone, PartialEq)]
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
    /// Exact byte ledger; entries sum to `stream_bytes`.
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
        json::report_to_json(self)
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
    match bytes.first() {
        None => Err(CompressError::WrongFormat("empty stream")),
        Some(0xB0) => inspect_tiled(bytes),
        Some(0x90) => Err(CompressError::Unsupported(
            "block-parallel wrapper streams are not inspectable; inspect the tiled container or per-shard streams instead",
        )),
        Some(_) => match scalar_bits_of(bytes)? {
            32 => inspect_sealed::<f32>(bytes, None),
            _ => inspect_sealed::<f64>(bytes, None),
        },
    }
}

/// Inspect a compressed stream and fill in [`ErrorBudget`] analytics against
/// `original`. The original's scalar width must match the stream's.
pub fn inspect_bytes_with_original<T: Scalar>(
    bytes: &[u8],
    original: &Field<T>,
) -> Result<InspectReport, CompressError> {
    match bytes.first() {
        None => Err(CompressError::WrongFormat("empty stream")),
        Some(0xB0) => {
            let (info, _) = ContainerInfo::parse(bytes)?;
            if info.bits != T::BITS {
                return Err(CompressError::WrongFormat("original scalar width disagrees with the stream"));
            }
            let recon = qip_container::decompress_full::<T>(bytes)?;
            let mut report = inspect_tiled(bytes)?;
            report.error_budget =
                Some(error_budget(original, &recon, info.abs_bound, &[], &[]));
            Ok(report)
        }
        Some(0x90) => Err(CompressError::Unsupported(
            "block-parallel wrapper streams are not inspectable; inspect the tiled container or per-shard streams instead",
        )),
        Some(_) => {
            if scalar_bits_of(bytes)? != T::BITS {
                return Err(CompressError::WrongFormat("original scalar width disagrees with the stream"));
            }
            inspect_sealed::<T>(bytes, Some(original))
        }
    }
}

/// Registry-level sugar: inspect via an [`AnyCompressor`] handle.
pub trait InspectExt {
    /// Forensically inspect `bytes` (must be a stream this registry decodes).
    fn inspect(&self, bytes: &[u8]) -> Result<InspectReport, CompressError>;
    /// Inspect with error-budget analytics against `original`.
    fn inspect_with_original<T: Scalar>(
        &self,
        bytes: &[u8],
        original: &Field<T>,
    ) -> Result<InspectReport, CompressError>;
}

impl InspectExt for AnyCompressor {
    fn inspect(&self, bytes: &[u8]) -> Result<InspectReport, CompressError> {
        inspect_bytes(bytes)
    }

    fn inspect_with_original<T: Scalar>(
        &self,
        bytes: &[u8],
        original: &Field<T>,
    ) -> Result<InspectReport, CompressError> {
        inspect_bytes_with_original(bytes, original)
    }
}

/// Scalar width recorded at a fixed offset in every sealed stream header.
/// The SZ3 wrapper interposes a pipeline tag before its inner header, so the
/// width byte sits two bytes deeper there.
fn scalar_bits_of(bytes: &[u8]) -> Result<u32, CompressError> {
    let offset = if bytes.first() == Some(&0x20) { 3 } else { 1 };
    match bytes.get(offset) {
        Some(32) => Ok(32),
        Some(64) => Ok(64),
        _ => Err(CompressError::WrongFormat("unknown scalar width")),
    }
}

// ---------------------------------------------------------------------------
// Sealed single-compressor streams
// ---------------------------------------------------------------------------

fn inspect_sealed<T: Scalar>(
    bytes: &[u8],
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    let magic = bytes[0];
    let mut report = match magic {
        0x20 => {
            let inner = qip_core::integrity::check(bytes)?;
            let seal = (bytes.len() - inner.len()) as u64;
            let tag = *inner.get(1).ok_or(CompressError::Corrupt("truncated SZ3 wrapper"))?;
            let body = &inner[2..];
            let mut head = vec![
                LedgerEntry { component: "seal".into(), bytes: seal },
                LedgerEntry { component: "wrapper".into(), bytes: 2 },
            ];
            match tag {
                0 => {
                    let mut r = engine_report::<T>(
                        body,
                        EngineConfig::sz3_like(0x21),
                        "sz3-interp",
                        "SZ3",
                        original,
                    )?;
                    head.append(&mut r.ledger);
                    r.ledger = head;
                    r
                }
                1 => {
                    let mut r = lorenzo_report::<T>(body, bytes, original)?;
                    head.append(&mut r.ledger);
                    r.ledger = head;
                    r
                }
                _ => return Err(CompressError::WrongFormat("bad SZ3 pipeline tag")),
            }
        }
        0x30 | 0x40 => {
            let inner = qip_core::integrity::check(bytes)?;
            let seal = (bytes.len() - inner.len()) as u64;
            let (cfg, kind, name) = if magic == 0x30 {
                (EngineConfig::qoz_like(0x30), "qoz", "QoZ")
            } else {
                (EngineConfig::hpez_like(0x40), "hpez", "HPEZ")
            };
            let mut r = engine_report::<T>(inner, cfg, kind, name, original)?;
            r.ledger.insert(0, LedgerEntry { component: "seal".into(), bytes: seal });
            r
        }
        0x50 => mgard_report::<T>(bytes, original)?,
        0x60 | 0x70 | 0x80 => comparator_report::<T>(bytes, original)?,
        _ => return Err(CompressError::WrongFormat("unknown stream magic")),
    };

    report.stream_bytes = bytes.len() as u64;
    report.raw_bytes =
        report.dims.iter().product::<usize>() as u64 * (report.scalar_bits as u64 / 8);
    report.ratio = if report.stream_bytes > 0 {
        report.raw_bytes as f64 / report.stream_bytes as f64
    } else {
        0.0
    };
    if report.ledger_total() != report.stream_bytes {
        return Err(CompressError::Corrupt("forensic ledger does not sum to the stream length"));
    }
    Ok(report)
}

/// Skeleton report with the sizing fields left for [`inspect_sealed`] to fill.
fn blank_report(kind: &'static str, compressor: &str, bits: u32, dims: Vec<usize>, abs_eb: f64) -> InspectReport {
    InspectReport {
        kind,
        compressor: compressor.to_string(),
        scalar_bits: bits,
        dims,
        stream_bytes: 0,
        raw_bytes: 0,
        ratio: 0.0,
        abs_bound: abs_eb,
        ledger: Vec::new(),
        qp: None,
        heatmap: None,
        tiles: None,
        error_budget: None,
    }
}

fn push_nonzero(ledger: &mut Vec<LedgerEntry>, component: &str, bytes: u64) {
    if bytes > 0 {
        ledger.push(LedgerEntry { component: component.into(), bytes });
    }
}

/// Append the three-way `index.framing` / `index.tables` / `index.payload`
/// split for an entropy-coded index block, falling back to a single opaque
/// `index` line if the block defies sub-parsing.
fn push_index_split(
    ledger: &mut Vec<LedgerEntry>,
    block: &[u8],
    n: usize,
) -> Option<IndexForensics> {
    if block.is_empty() {
        return None;
    }
    match inspect_index_block(block, n) {
        Ok(fx) if fx.total_bytes == block.len() as u64 => {
            push_nonzero(ledger, "index.framing", fx.framing_bytes);
            push_nonzero(ledger, "index.tables", fx.table_bytes);
            push_nonzero(ledger, "index.payload", fx.payload_bytes);
            Some(fx)
        }
        _ => {
            push_nonzero(ledger, "index", block.len() as u64);
            None
        }
    }
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
            let (index_bits, bits_exact) = match index_fx {
                Some(fx) => price_symbol_range(fx, qprime, ls.qprime_start, ls.qprime_end),
                None => (0.0, false),
            };
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

/// Error-budget analytics. `level_of` (spatial per-point levels) and `range`
/// of the original drive the per-level PSNR; pass an empty slice to skip it.
fn error_budget<T: Scalar>(
    original: &Field<T>,
    recon: &Field<T>,
    bound: f64,
    level_of: &[u8],
    levels_present: &[usize],
) -> ErrorBudget {
    let quant = LinearQuantizer::new(bound);
    let orig = original.as_slice();
    let rec = recon.as_slice();
    let n = orig.len().min(rec.len());
    let mut hist = vec![0u64; MARGIN_BUCKETS];
    let (mut max_err, mut max_margin, mut sum_margin, mut violations) = (0.0f64, 0.0f64, 0.0f64, 0u64);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let o = orig[i].to_f64();
        lo = lo.min(o);
        hi = hi.max(o);
        let err = (o - rec[i].to_f64()).abs();
        let m = quant.margin_fraction(err);
        max_err = max_err.max(err);
        max_margin = max_margin.max(m);
        sum_margin += m;
        if m > 1.0 {
            violations += 1;
        } else {
            hist[((m * MARGIN_BUCKETS as f64) as usize).min(MARGIN_BUCKETS - 1)] += 1;
        }
    }
    let range = hi - lo;
    let psnr_of = |mse: f64| {
        if mse > 0.0 && range > 0.0 {
            20.0 * range.log10() - 10.0 * mse.log10()
        } else {
            f64::NAN
        }
    };
    let mut level_psnr = Vec::new();
    if level_of.len() == n {
        for &lvl in levels_present {
            let (mut se, mut count) = (0.0f64, 0u64);
            for i in 0..n {
                if level_of[i] as usize == lvl {
                    let d = orig[i].to_f64() - rec[i].to_f64();
                    se += d * d;
                    count += 1;
                }
            }
            if count > 0 {
                level_psnr.push((lvl, psnr_of(se / count as f64)));
            }
        }
    }
    ErrorBudget {
        bound,
        max_abs_error: max_err,
        max_margin,
        mean_margin: if n > 0 { sum_margin / n as f64 } else { 0.0 },
        violations,
        margin_histogram: hist,
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

fn engine_layout_ledger(ledger: &mut Vec<LedgerEntry>, layout: &EngineLayout) {
    push_nonzero(ledger, "header", layout.header_bytes);
    push_nonzero(ledger, "config", layout.config_bytes);
    push_nonzero(ledger, "level_tags", layout.level_tag_bytes);
    push_nonzero(ledger, "framing", layout.framing_bytes);
    push_nonzero(ledger, "anchors", layout.anchor_bytes);
    push_nonzero(ledger, "unpred", layout.unpred_bytes);
}

/// Shared report builder for unsealed interpolation-engine streams
/// (SZ3-interp inner, QoZ, HPEZ).
fn engine_report<T: Scalar>(
    inner: &[u8],
    cfg: EngineConfig,
    kind: &'static str,
    name: &str,
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    let fx: EngineForensics<T> = InterpEngine::new(cfg).decompress_forensic(inner)?;
    let dims = fx.field.shape().dims().to_vec();
    let mut report = blank_report(kind, name, T::BITS, dims.clone(), fx.abs_eb);
    engine_layout_ledger(&mut report.ledger, &fx.layout);
    let n: usize = dims.iter().product();
    let index_fx = push_index_split(&mut report.ledger, &fx.index_block, n);
    report.qp = Some(QpReport {
        enabled: fx.qp_enabled,
        levels: level_reports(&fx.levels, &fx.qprime, index_fx.as_ref()),
        anchors: fx.anchors,
        unpredictable: fx.unpredictable,
    });
    report.heatmap = heatmap(&dims, &fx.capture, &fx.accepted);
    if let Some(orig) = original {
        report.error_budget = Some(error_budget(
            orig,
            &fx.field,
            fx.abs_eb,
            &fx.capture.level,
            &levels_present(&fx.capture.level),
        ));
    }
    Ok(report)
}

fn mgard_report<T: Scalar>(
    bytes: &[u8],
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    let fx = Mgard::new().decompress_forensic::<T>(bytes)?;
    let dims = fx.field.shape().dims().to_vec();
    let mut report = blank_report("mgard", "MGARD", T::BITS, dims.clone(), fx.abs_eb);
    report.ledger.push(LedgerEntry { component: "seal".into(), bytes: fx.seal_bytes });
    engine_layout_ledger(&mut report.ledger, &fx.layout);
    let n: usize = dims.iter().product();
    let index_fx = push_index_split(&mut report.ledger, &fx.index_block, n);
    report.qp = Some(QpReport {
        enabled: fx.qp_enabled,
        levels: level_reports(&fx.levels, &fx.qprime, index_fx.as_ref()),
        anchors: fx.anchors,
        unpredictable: fx.unpredictable,
    });
    report.heatmap = heatmap(&dims, &fx.capture, &fx.accepted);
    if let Some(orig) = original {
        report.error_budget = Some(error_budget(
            orig,
            &fx.field,
            fx.abs_eb,
            &fx.capture.level,
            &levels_present(&fx.capture.level),
        ));
    }
    Ok(report)
}

/// Lorenzo inner stream (SZ3's alternate pipeline): layout walk plus an
/// ordinary decode for the error budget. `sealed` is the full outer stream
/// the [`Sz3`] decoder accepts.
fn lorenzo_report<T: Scalar>(
    inner: &[u8],
    sealed: &[u8],
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    let mut r = ByteReader::new(inner);
    let header = StreamHeader::read(&mut r, 0x22, T::BITS as u8)?;
    let dims = header.shape.dims().to_vec();
    let n: usize = dims.iter().product();
    let mut report =
        blank_report("sz3-lorenzo", "SZ3", T::BITS, dims.clone(), header.abs_eb);
    let header_bytes =
        3 + dims.iter().map(|&d| uvarint_len(d as u64)).sum::<u64>() + 8;
    push_nonzero(&mut report.ledger, "header", header_bytes);
    let mut framing = 0u64;
    if n > 0 {
        let blockwise = r.get_u8()? != 0;
        push_nonzero(&mut report.ledger, "config", 1);
        if blockwise {
            let bits = r.get_block()?;
            let coeffs = r.get_block()?;
            framing += uvarint_len(bits.len() as u64) + uvarint_len(coeffs.len() as u64);
            push_nonzero(&mut report.ledger, "choice_bits", bits.len() as u64);
            push_nonzero(&mut report.ledger, "coeffs", coeffs.len() as u64);
        }
        let unpred = r.get_block()?;
        let index = r.get_block()?;
        framing += uvarint_len(unpred.len() as u64) + uvarint_len(index.len() as u64);
        push_nonzero(&mut report.ledger, "framing", framing);
        push_nonzero(&mut report.ledger, "unpred", unpred.len() as u64);
        push_index_split(&mut report.ledger, index, n);
    }
    if r.remaining() != 0 {
        return Err(CompressError::Corrupt("trailing bytes after the Lorenzo stream"));
    }
    if let Some(orig) = original {
        let recon: Field<T> = Sz3::new().decompress(sealed)?;
        report.error_budget = Some(error_budget(orig, &recon, header.abs_eb, &[], &[]));
    }
    Ok(report)
}

/// ZFP / SPERR / TTHRESH: pure layout walks (these comparators have no QP
/// path), with an ordinary decode for the error budget.
fn comparator_report<T: Scalar>(
    bytes: &[u8],
    original: Option<&Field<T>>,
) -> Result<InspectReport, CompressError> {
    let magic = bytes[0];
    let inner = qip_core::integrity::check(bytes)?;
    let seal = (bytes.len() - inner.len()) as u64;
    let mut r = ByteReader::new(inner);
    let header = StreamHeader::read(&mut r, magic, T::BITS as u8)?;
    let dims = header.shape.dims().to_vec();
    let n: usize = dims.iter().product();
    let (kind, name): (&'static str, &str) = match magic {
        0x60 => ("zfp", "ZFP"),
        0x70 => ("sperr", "SPERR"),
        _ => ("tthresh", "TTHRESH"),
    };
    let mut report = blank_report(kind, name, T::BITS, dims.clone(), header.abs_eb);
    report.ledger.push(LedgerEntry { component: "seal".into(), bytes: seal });
    let header_bytes =
        3 + dims.iter().map(|&d| uvarint_len(d as u64)).sum::<u64>() + 8;
    push_nonzero(&mut report.ledger, "header", header_bytes);
    if n > 0 {
        let mut framing = 0u64;
        match magic {
            0x60 => {
                let payload = r.get_block()?;
                framing += uvarint_len(payload.len() as u64);
                push_nonzero(&mut report.ledger, "framing", framing);
                push_nonzero(&mut report.ledger, "payload", payload.len() as u64);
            }
            _ => {
                let mut factors = 0u64;
                if magic == 0x80 {
                    for _ in 0..dims.len() {
                        let f = r.get_block()?;
                        framing += uvarint_len(f.len() as u64);
                        factors += f.len() as u64;
                    }
                }
                let index = r.get_block()?;
                let raw = r.get_block()?;
                let n_corr = r.get_uvarint()?;
                let corr = r.get_block()?;
                framing += uvarint_len(index.len() as u64)
                    + uvarint_len(raw.len() as u64)
                    + uvarint_len(n_corr)
                    + uvarint_len(corr.len() as u64);
                push_nonzero(&mut report.ledger, "framing", framing);
                push_nonzero(&mut report.ledger, "factors", factors);
                push_index_split(&mut report.ledger, index, n);
                push_nonzero(&mut report.ledger, "raw", raw.len() as u64);
                push_nonzero(&mut report.ledger, "corrections", corr.len() as u64);
            }
        }
    }
    if r.remaining() != 0 {
        return Err(CompressError::Corrupt("trailing bytes after the stream payload"));
    }
    if let Some(orig) = original {
        let recon: Field<T> = match magic {
            0x60 => qip_zfp_decode::<T>(bytes)?,
            0x70 => qip_sperr_decode::<T>(bytes)?,
            _ => qip_tthresh_decode::<T>(bytes)?,
        };
        report.error_budget = Some(error_budget(orig, &recon, header.abs_eb, &[], &[]));
    }
    Ok(report)
}

// Comparator decodes go through the registry so this crate needs no direct
// dependency on the three comparator crates.
fn qip_zfp_decode<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
    registry_decode::<T>("zfp", bytes)
}
fn qip_sperr_decode<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
    registry_decode::<T>("sperr", bytes)
}
fn qip_tthresh_decode<T: Scalar>(bytes: &[u8]) -> Result<Field<T>, CompressError> {
    registry_decode::<T>("tthresh", bytes)
}
fn registry_decode<T: Scalar>(base: &str, bytes: &[u8]) -> Result<Field<T>, CompressError> {
    let comp = AnyCompressor::by_base_name(base, qip_core::QpConfig::off())
        .ok_or(CompressError::WrongFormat("unknown comparator"))?;
    comp.as_dyn::<T>().decompress(bytes)
}

// ---------------------------------------------------------------------------
// Tiled containers
// ---------------------------------------------------------------------------

fn inspect_tiled(bytes: &[u8]) -> Result<InspectReport, CompressError> {
    let (info, payload) = ContainerInfo::parse(bytes)?;
    // Header: magic + version + u32 index length. Index: the sealed blob.
    let index_bytes = bytes.len() - payload.len() - 6;
    let mut report = blank_report("tiled", &info.compressor, info.bits, info.dims.clone(), info.abs_bound);
    report.stream_bytes = bytes.len() as u64;
    report.raw_bytes = info.dims.iter().product::<usize>() as u64 * (info.bits as u64 / 8);
    report.ratio = if bytes.is_empty() { 0.0 } else { report.raw_bytes as f64 / bytes.len() as f64 };
    report.ledger.push(LedgerEntry { component: "container.header".into(), bytes: 6 });
    report.ledger.push(LedgerEntry { component: "container.index".into(), bytes: index_bytes as u64 });

    // Per-tile forensics, rolled up: ledger components aggregate by name (in
    // first-seen order), QP level counters merge by level.
    let mut agg: Vec<LedgerEntry> = Vec::new();
    let mut tile_sizes: Vec<u64> = Vec::with_capacity(info.tiles.len());
    let mut qp_rollup: Option<QpReport> = None;
    for i in 0..info.tiles.len() {
        let tile = info
            .tile_payload(payload, i)
            .ok_or(CompressError::Corrupt("tile payload out of range"))?;
        tile_sizes.push(tile.len() as u64);
        let sub = match info.bits {
            32 => inspect_sealed::<f32>(tile, None)?,
            _ => inspect_sealed::<f64>(tile, None)?,
        };
        for e in sub.ledger {
            match agg.iter_mut().find(|a| a.component == e.component) {
                Some(a) => a.bytes += e.bytes,
                None => agg.push(e),
            }
        }
        if let Some(qp) = sub.qp {
            qp_rollup = Some(merge_qp(qp_rollup.take(), qp));
        }
    }
    report.ledger.append(&mut agg);
    report.qp = qp_rollup;

    let mut sorted = tile_sizes.clone();
    sorted.sort_unstable();
    report.tiles = Some(TileRollup {
        tiles: info.tiles.len(),
        min_tile_bytes: sorted.first().copied().unwrap_or(0),
        median_tile_bytes: sorted.get(sorted.len() / 2).copied().unwrap_or(0),
        max_tile_bytes: sorted.last().copied().unwrap_or(0),
        by_compressor: vec![(
            info.compressor.clone(),
            info.tiles.len(),
            tile_sizes.iter().sum(),
        )],
    });
    if report.ledger_total() != report.stream_bytes {
        return Err(CompressError::Corrupt("forensic ledger does not sum to the stream length"));
    }
    Ok(report)
}

/// Merge one tile's QP report into the rollup: counters add per level,
/// per-level bits add, exactness ANDs, rates are recomputed from the sums.
fn merge_qp(acc: Option<QpReport>, next: QpReport) -> QpReport {
    let mut acc = match acc {
        None => return next,
        Some(a) => a,
    };
    acc.enabled |= next.enabled;
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
    use qip_tensor::Shape;

    fn banded(dims: &[usize]) -> Field<f32> {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|i| ((i % 37) as f32 * 0.11).sin() + (i / 41) as f32 * 0.01)
            .collect();
        Field::from_vec(Shape::new(dims), data).unwrap()
    }

    #[test]
    fn ledger_sums_for_every_registry_compressor() {
        let field = banded(&[20, 15]);
        for comp in AnyCompressor::registry() {
            let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
            let report = inspect_bytes(&bytes).unwrap();
            let name = comp.as_dyn::<f32>().name();
            assert_eq!(report.ledger_total(), bytes.len() as u64, "{name}");
            assert_eq!(report.scalar_bits, 32);
            assert_eq!(report.dims, vec![20, 15]);
        }
    }

    #[test]
    fn error_budget_respects_bound() {
        let field = banded(&[18, 14]);
        let comp = AnyCompressor::by_name("SZ3+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let report = comp.inspect_with_original(&bytes, &field).unwrap();
        let eb = report.error_budget.as_ref().unwrap();
        assert_eq!(eb.violations, 0);
        assert!(eb.max_margin <= 1.0 + 1e-9, "max margin {}", eb.max_margin);
        assert!(eb.margin_histogram.iter().sum::<u64>() == field.len() as u64);
        assert!(!eb.level_psnr.is_empty());
    }

    #[test]
    fn qp_counters_nonzero_when_enabled() {
        let field = banded(&[17, 13]);
        let comp = AnyCompressor::by_name("QoZ+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let report = inspect_bytes(&bytes).unwrap();
        let qp = report.qp.unwrap();
        assert!(qp.enabled);
        let total: u64 = qp.levels.iter().map(|l| l.points).sum();
        assert_eq!(total + qp.anchors, field.len() as u64);
        assert!(report.heatmap.is_some());
    }

    #[test]
    fn block_parallel_streams_rejected_clearly() {
        let err = inspect_bytes(&[0x90, 1, 2, 3]).unwrap_err();
        assert!(matches!(err, CompressError::Unsupported(_)));
    }

    #[test]
    fn json_is_deterministic() {
        let field = banded(&[16, 11]);
        let comp = AnyCompressor::by_name("HPEZ+QP").unwrap();
        let bytes = comp.as_dyn::<f32>().compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let a = inspect_bytes(&bytes).unwrap().to_json();
        let b = inspect_bytes(&bytes).unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
    }
}
