//! Golden stream vectors: committed fixtures that pin the byte format.
//!
//! Two grids share one pipeline ([`Grid`]). The flat grid ([`Grid::flat`],
//! `manifest.tsv`) holds, for every registry compressor × {f32, f64} ×
//! {1-D, 2-D, 3-D}, one compressed stream; the tiled grid ([`Grid::tiled`],
//! `tiled_manifest.tsv`) holds one tiled container per
//! [`TILED_COMPRESSORS`] entry × {f32, f64}, pinning the container layout
//! (sealed index, per-tile CRC table, payload framing). The two manifests
//! stay separate so the flat grid keeps its pinned size. Each fixture is
//! `golden/<stem>.bin` plus a manifest row recording its length, its CRC32,
//! and the CRC32 of the decompressed output's little-endian bytes.
//! [`Grid::verify`] fails loudly on three kinds of drift:
//!
//! - **encoder drift** — recompressing the pinned input no longer reproduces
//!   the committed bytes (an FMT_VERSION bump, framing change, or tuner
//!   behaviour change);
//! - **decoder drift** — the committed stream no longer decodes to the
//!   pinned output checksum (a reconstruction change);
//! - **fixture rot** — manifest and `.bin` files disagree, or specs were
//!   added/removed without re-blessing.
//!
//! Intentional format changes run `repro conformance --bless`, which
//! regenerates every fixture deterministically (the input fields use
//! arithmetic-only generators — see [`crate::fields`]) so the diff shows up
//! in review as changed binary fixtures, never as silent drift.

use crate::fields::{synth, FieldFamily};
use qip_container::TiledCompressor;
use qip_core::integrity::crc32;
use qip_core::{CompressError, Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use std::path::{Path, PathBuf};

/// The error bound every golden vector is compressed under.
pub const GOLDEN_BOUND: ErrorBound = ErrorBound::Abs(1e-3);

/// Tile edge of the tiled golden containers (clipped edge tiles on every
/// tiled spec, so remainder geometry is always exercised).
pub const TILE_EDGE: usize = 8;

/// The compressor slice the tiled grid runs over: the
/// four QP-enabled interpolation compressors plus a transform-based
/// comparator, so the container is pinned over both stream families it can
/// embed.
pub const TILED_COMPRESSORS: [&str; 5] = ["SZ3+QP", "QoZ+QP", "HPEZ+QP", "MGARD", "ZFP"];

/// One golden-vector specification (what to compress).
#[derive(Debug, Clone)]
pub struct VectorSpec {
    /// Registry compressor name ("SZ3+QP", …); of each tile for a tiled spec.
    pub compressor: String,
    /// `"f32"` or `"f64"`.
    pub dtype: &'static str,
    /// Field dimensions (1–3 axes).
    pub dims: Vec<usize>,
    /// Input field family.
    pub family: FieldFamily,
    /// Input field seed.
    pub seed: u64,
    /// The fixture is a tiled container (an entry of [`tiled_specs`]).
    pub tiled: bool,
}

impl VectorSpec {
    /// Filesystem-safe fixture stem, e.g. `sz3_qp_f32_3d`, or
    /// `tiled_sz3_qp_f32` for a tiled container.
    pub fn stem(&self) -> String {
        let name = self.compressor.to_ascii_lowercase().replace('+', "_");
        match self.tiled {
            false => format!("{name}_{}_{}d", self.dtype, self.dims.len()),
            true => format!("tiled_{name}_{}", self.dtype),
        }
    }
}

/// One verified/blessed fixture (a manifest row).
#[derive(Debug, Clone)]
pub struct GoldenEntry {
    /// Fixture stem (also the `.bin` file name).
    pub name: String,
    /// Compressed stream length in bytes.
    pub stream_len: usize,
    /// CRC32 of the compressed stream.
    pub stream_crc32: u32,
    /// CRC32 of the decompressed field's little-endian bytes.
    pub decomp_crc32: u32,
}

/// One verification failure.
#[derive(Debug, Clone)]
pub struct GoldenFinding {
    /// Fixture stem (or the manifest's name, e.g. `"manifest"`, for
    /// structural problems).
    pub name: String,
    /// Human-readable description of the drift.
    pub problem: String,
}

impl std::fmt::Display for GoldenFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.problem)
    }
}

/// Stable per-compressor seed, salted per grid so re-ordering the registry
/// cannot silently change fixture contents and the grids never alias inputs.
fn seed_of(name: &str, salt: u64) -> u64 {
    name.bytes().fold(salt, |h, b| h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64))
}

/// The flat grid: per registry compressor, both scalar types at one
/// representative shape per dimensionality. Families differ per ndim so the
/// vectors pin a smooth, a banded, and a turbulent regime at once.
pub fn vector_specs() -> Vec<(AnyCompressor, VectorSpec)> {
    let grid: [(&[usize], FieldFamily); 3] = [
        (&[64], FieldFamily::Smooth),
        (&[16, 12], FieldFamily::Banded),
        (&[10, 9, 8], FieldFamily::Turbulent),
    ];
    let mut specs = Vec::new();
    for comp in AnyCompressor::registry() {
        let name = Compressor::<f32>::name(&comp);
        let seed = seed_of(&name, 0x5EED);
        for (dims, family) in grid {
            for dtype in ["f32", "f64"] {
                let (compressor, dims) = (name.clone(), dims.to_vec());
                let spec = VectorSpec { compressor, dtype, dims, family, seed, tiled: false };
                specs.push((comp.clone(), spec));
            }
        }
    }
    specs
}

/// The tiled grid: each compressor in [`TILED_COMPRESSORS`] × both
/// precisions, as a [`TiledCompressor`] at [`TILE_EDGE`] over one banded 2-D
/// field whose 21×17 extent clips the 8-tile grid on both axes (3×3 tiles,
/// four of them partial).
pub fn tiled_specs() -> Vec<(TiledCompressor, VectorSpec)> {
    let mut specs = Vec::new();
    for name in TILED_COMPRESSORS {
        let inner = AnyCompressor::by_name(name).expect("a registry name");
        let tiled = TiledCompressor::new(inner, TILE_EDGE).expect("a valid tile edge");
        let seed = seed_of(name, 0x0007_11ED);
        for dtype in ["f32", "f64"] {
            let (compressor, family, dims) = (name.into(), FieldFamily::Banded, vec![21, 17]);
            let spec = VectorSpec { compressor, dtype, dims, family, seed, tiled: true };
            specs.push((tiled.clone(), spec));
        }
    }
    specs
}

/// The committed fixture directory (`crates/conformance/golden`).
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// A compressor a grid pins, at both precisions: a registry entry or a
/// [`TiledCompressor`] (whose `decompress` is `decompress_full`).
pub trait Pinned: Compressor<f32> + Compressor<f64> {}

impl<C: Compressor<f32> + Compressor<f64>> Pinned for C {}

/// One committed fixture grid: its manifest and its specs, each with the
/// compressor that produces it. [`Grid::bless`] and [`Grid::verify`] are the
/// one golden pipeline of both grids.
pub struct Grid {
    /// Manifest file name in the fixture directory.
    pub manifest: &'static str,
    /// What the manifest's header calls its fixtures.
    title: &'static str,
    /// The fixtures, in manifest order.
    pub specs: Vec<(Box<dyn Pinned>, VectorSpec)>,
}

impl Grid {
    /// The flat-stream grid ([`vector_specs`], `manifest.tsv`).
    pub fn flat() -> Grid {
        Grid::new("manifest.tsv", "Golden stream vectors", vector_specs())
    }

    /// The tiled-container grid ([`tiled_specs`], `tiled_manifest.tsv`).
    pub fn tiled() -> Grid {
        Grid::new("tiled_manifest.tsv", "Tiled golden containers", tiled_specs())
    }

    fn new<C: Pinned + 'static>(
        manifest: &'static str,
        title: &'static str,
        specs: Vec<(C, VectorSpec)>,
    ) -> Grid {
        let specs = specs.into_iter().map(|(c, s)| (Box::new(c) as Box<dyn Pinned>, s)).collect();
        Grid { manifest, title, specs }
    }

    /// The manifest's name in findings (`"manifest"`, `"tiled_manifest"`).
    fn manifest_name(&self) -> String {
        self.manifest.trim_end_matches(".tsv").to_string()
    }

    /// Regenerate every fixture of the grid under `dir` (creating it if
    /// needed) and rewrite its manifest. Returns the entries in spec order.
    pub fn bless(&self, dir: &Path) -> std::io::Result<Vec<GoldenEntry>> {
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        let mut manifest = format!(
            "# {} — regenerate with `repro conformance --bless`.\n\
             # stem\tstream_len\tstream_crc32\tdecomp_crc32\n",
            self.title
        );
        for (comp, spec) in &self.specs {
            let (bytes, decomp) = produce(&**comp, spec)
                .map_err(|e| std::io::Error::other(format!("{}: {e}", spec.stem())))?;
            let entry = GoldenEntry {
                name: spec.stem(),
                stream_len: bytes.len(),
                stream_crc32: crc32(&bytes),
                decomp_crc32: decomp,
            };
            std::fs::write(dir.join(format!("{}.bin", entry.name)), &bytes)?;
            manifest.push_str(&manifest_line(&entry));
            manifest.push('\n');
            entries.push(entry);
        }
        std::fs::write(dir.join(self.manifest), manifest)?;
        Ok(entries)
    }

    /// Verify every committed fixture of the grid under `dir` against the
    /// current code. Returns an empty list when everything is pinned and
    /// reproducible.
    pub fn verify(&self, dir: &Path) -> Vec<GoldenFinding> {
        let path = dir.join(self.manifest);
        let manifest = match std::fs::read_to_string(&path).map(|text| parse_manifest(&text)) {
            Ok(Ok(entries)) => entries,
            Ok(Err(problem)) => return vec![GoldenFinding { name: self.manifest_name(), problem }],
            Err(e) => {
                let problem = format!(
                    "cannot read {}: {e}; run `repro conformance --bless`",
                    path.display()
                );
                return vec![GoldenFinding { name: self.manifest_name(), problem }];
            }
        };

        let mut findings = Vec::new();
        if manifest.len() != self.specs.len() {
            findings.push(GoldenFinding {
                name: self.manifest_name(),
                problem: format!(
                    "manifest has {} entries but the grid has {}; re-bless",
                    manifest.len(),
                    self.specs.len()
                ),
            });
        }
        for (comp, spec) in &self.specs {
            let problems = verify_one(&**comp, spec, &manifest, dir);
            findings.extend(problems.into_iter().map(|problem| GoldenFinding {
                name: spec.stem(),
                problem,
            }));
        }
        findings
    }
}

/// Check one fixture against its manifest row and the current code: every
/// problem found (empty when it is pinned and reproducible).
fn verify_one(
    comp: &dyn Pinned,
    spec: &VectorSpec,
    manifest: &[GoldenEntry],
    dir: &Path,
) -> Vec<String> {
    let stem = spec.stem();
    let Some(entry) = manifest.iter().find(|e| e.name == stem) else {
        return vec!["missing from manifest (new spec?); re-bless".into()];
    };
    let committed = match std::fs::read(dir.join(format!("{stem}.bin"))) {
        Ok(b) => b,
        Err(e) => return vec![format!("cannot read fixture: {e}")],
    };
    if committed.len() != entry.stream_len || crc32(&committed) != entry.stream_crc32 {
        return vec![format!(
            "fixture file disagrees with manifest ({} bytes, crc {:08x}; \
             manifest says {} bytes, crc {:08x})",
            committed.len(),
            crc32(&committed),
            entry.stream_len,
            entry.stream_crc32
        )];
    }

    let mut problems = Vec::new();
    // Decoder drift: the committed stream must still decode to the pinned
    // output bits.
    match decode_checksum(comp, spec.dtype, &committed) {
        Ok(crc) if crc == entry.decomp_crc32 => {}
        Ok(crc) => problems.push(format!(
            "decoder drift: committed stream decodes to crc {crc:08x}, pinned {:08x}",
            entry.decomp_crc32
        )),
        Err(e) => problems.push(format!("committed stream no longer decodes: {e}")),
    }

    // Encoder drift: recompressing the pinned input must reproduce the
    // committed bytes exactly.
    match produce(comp, spec) {
        Ok((bytes, _)) if bytes == committed => {}
        Ok((bytes, _)) => {
            let diverge = bytes
                .iter()
                .zip(&committed)
                .position(|(a, b)| a != b)
                .unwrap_or(bytes.len().min(committed.len()));
            problems.push(format!(
                "encoder drift: {} bytes vs committed {}, first divergence at offset {diverge}; \
                 if intentional, run `repro conformance --bless`",
                bytes.len(),
                committed.len()
            ));
        }
        Err(e) => problems.push(format!("compress failed: {e}")),
    }
    problems
}

/// Compress + decompress one spec, returning the stream and the decompressed
/// checksum.
fn produce(comp: &dyn Pinned, spec: &VectorSpec) -> Result<(Vec<u8>, u32), CompressError> {
    let (family, seed, dims) = (spec.family, spec.seed, &spec.dims);
    let bytes = match spec.dtype {
        "f64" => Compressor::<f64>::compress(comp, &synth(family, seed, dims), GOLDEN_BOUND)?,
        _ => Compressor::<f32>::compress(comp, &synth(family, seed, dims), GOLDEN_BOUND)?,
    };
    let decomp = decode_checksum(comp, spec.dtype, &bytes)?;
    Ok((bytes, decomp))
}

/// Decode a committed stream and return the decompressed checksum.
fn decode_checksum(comp: &dyn Pinned, dtype: &str, bytes: &[u8]) -> Result<u32, CompressError> {
    match dtype {
        "f64" => Ok(crc32(&Compressor::<f64>::decompress(comp, bytes)?.to_le_bytes())),
        _ => Ok(crc32(&Compressor::<f32>::decompress(comp, bytes)?.to_le_bytes())),
    }
}

fn manifest_line(e: &GoldenEntry) -> String {
    format!(
        "{}\t{}\t{:08x}\t{:08x}",
        e.name, e.stream_len, e.stream_crc32, e.decomp_crc32
    )
}

fn parse_manifest(text: &str) -> Result<Vec<GoldenEntry>, String> {
    let mut entries = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split('\t').collect();
        if parts.len() != 4 {
            return Err(format!("manifest line {}: expected 4 fields", ln + 1));
        }
        entries.push(GoldenEntry {
            name: parts[0].to_string(),
            stream_len: parts[1].parse().map_err(|e| format!("line {}: {e}", ln + 1))?,
            stream_crc32: u32::from_str_radix(parts[2], 16)
                .map_err(|e| format!("line {}: {e}", ln + 1))?,
            decomp_crc32: u32::from_str_radix(parts[3], 16)
                .map_err(|e| format!("line {}: {e}", ln + 1))?,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qip-golden-{tag}-{}", std::process::id()))
    }

    #[test]
    fn grids_are_eleven_by_two_by_three_and_five_by_two() {
        let (flat, tiled) = (Grid::flat(), Grid::tiled());
        assert_eq!((flat.specs.len(), tiled.specs.len()), (11 * 2 * 3, 5 * 2));
        let stems: std::collections::BTreeSet<String> =
            flat.specs.iter().chain(&tiled.specs).map(|(_, s)| s.stem()).collect();
        assert_eq!(stems.len(), 66 + 10, "stems must be unique across both grids");
        assert!(stems.contains("sz3_qp_f32_3d"));
        assert!(stems.contains("tthresh_f64_1d"));
        assert!(stems.contains("tiled_sz3_qp_f32"));
    }

    #[test]
    fn bless_into_temp_dir_is_deterministic_and_verifies() {
        for grid in [Grid::flat(), Grid::tiled()] {
            let (dir_a, dir_b) = (temp_dir("bless-a"), temp_dir("bless-b"));
            let a = grid.bless(&dir_a).expect("bless a");
            let b = grid.bless(&dir_b).expect("bless b");
            assert_eq!(a.len(), grid.specs.len());
            for (ea, eb) in a.iter().zip(&b) {
                assert_eq!(ea.name, eb.name);
                assert_eq!(ea.stream_crc32, eb.stream_crc32, "{}", ea.name);
                assert_eq!(ea.decomp_crc32, eb.decomp_crc32, "{}", ea.name);
            }
            // And verification of a freshly blessed dir is clean.
            let findings = grid.verify(&dir_a);
            assert!(findings.is_empty(), "{findings:?}");
            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }

    #[test]
    fn verify_detects_a_tampered_fixture() {
        for grid in [Grid::flat(), Grid::tiled()] {
            let dir = temp_dir("tamper");
            let entries = grid.bless(&dir).expect("bless");
            let victim = dir.join(format!("{}.bin", entries[0].name));
            let mut bytes = std::fs::read(&victim).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&victim, &bytes).unwrap();
            let findings = grid.verify(&dir);
            assert!(
                findings.iter().any(|f| f.name == entries[0].name),
                "tampering not detected: {findings:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn verify_reports_missing_manifest_with_bless_hint() {
        let dir = temp_dir("missing");
        let _ = std::fs::remove_dir_all(&dir);
        let findings = Grid::tiled().verify(&dir);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].name, "tiled_manifest");
        assert!(findings[0].problem.contains("--bless"), "{}", findings[0].problem);
    }
}
