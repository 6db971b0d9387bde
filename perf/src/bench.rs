//! One workload, set up and measured: the four phases (A library, B tiled,
//! C serve, D cli), every operation verified, and the end-to-end metrics.

use crate::alloc;
use crate::spec::{Generator, WorkloadSpec, BASES, SLOWDOWN_BASES};
use crate::stats::{fastest, geomean, percentile, tail_percentile};
use crate::trace::Tracer;
use qip::container::{ContainerInfo, TiledCompressor};
use qip::core::{CompressCtx, Compressor, ErrorBound};
use qip::metrics::max_abs_error;
use qip::registry::AnyCompressor;
use qip::serve::wire::{Status, WireBound};
use qip::serve::{Client, ServeConfig, Server, ServerHandle};
use qip::tensor::{Field, Region, Scalar};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The compressor every wrapped surface (tiles, serve, CLI) uses.
pub const WRAPPED: &str = "SZ3+QP";

/// Seed of the `qip_data` generators. It is fixed so that a workload keeps its
/// operating point (compression ratio, entropy share): realisations of one
/// generator differ by 10-20% in CR, which would drown the 0.5% bound on `cr`.
const GENERATOR_SEED: u64 = 1;

/// `--seed` picks one sample in `DITHER_ONE_IN` and moves it by up to this
/// share of the error bound. No stream repeats between seeds, yet the
/// compressors' trial-based choices (SZ3's pipeline per tile, the QoZ/HPEZ
/// level tuning) almost never flip. Those choices are chaotic in the input: a
/// dither of 1% of the bound on *every* sample moved `region_read_ms` on
/// `segsalt-tight` between 26.7 and 32 ms from seed to seed, and `qp_cr_gain`
/// on `miranda-mid` by 0.7%.
const DITHER: f64 = 0.05;
const DITHER_ONE_IN: u64 = 1024;

/// A scalar type the harness can generate workload fields of.
pub trait Sample: Scalar {
    /// The workload's fixed field, before the seeded dither.
    fn base_field(spec: &WorkloadSpec) -> Field<Self>;

    /// The workload's input for `seed`: the same seed gives the same field.
    fn generate(spec: &WorkloadSpec, seed: u64) -> Field<Self> {
        let mut field = Self::base_field(spec);
        let amplitude = DITHER * spec.rel_bound * field.value_range();
        // splitmix64: one multiply-xorshift chain per sample, no dependency.
        let mut state = seed;
        for x in field.as_mut_slice() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z.is_multiple_of(DITHER_ONE_IN) {
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                *x = Self::from_f64(x.to_f64() + (2.0 * unit - 1.0) * amplitude);
            }
        }
        field
    }
}

impl Sample for f32 {
    fn base_field(spec: &WorkloadSpec) -> Field<f32> {
        match spec.generator {
            Generator::Miranda => qip::data::miranda_like(GENERATOR_SEED, &spec.dims),
            Generator::SegSalt => qip::data::segsalt_like(GENERATOR_SEED, &spec.dims),
            Generator::Hurricane => qip::data::hurricane_like(GENERATOR_SEED, &spec.dims),
            Generator::S3d => unreachable!("S3D fields are f64"),
        }
    }
}

impl Sample for f64 {
    fn base_field(spec: &WorkloadSpec) -> Field<f64> {
        match spec.generator {
            Generator::S3d => qip::data::s3d_like(GENERATOR_SEED, &spec.dims),
            _ => unreachable!("only S3D fields are f64"),
        }
    }
}

/// The error-bound contract every decode is held to: same shape and
/// `|x - x'| <= eps` at every point (a relative 1e-9 absorbs the rounding of
/// the comparison itself, as the workspace's own bound tests do).
pub fn within_bound<T: Scalar>(original: &Field<T>, decoded: &Field<T>, abs_eb: f64) -> bool {
    decoded.shape() == original.shape() && max_abs_error(original, decoded) <= abs_eb * (1.0 + 1e-9)
}

/// Operations attempted and failed. An operation fails when it returns an
/// error, is refused, or its output fails verification.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count one operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }
}

/// How many rounds a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub min_rounds: usize,
    pub max_rounds: usize,
    pub seconds: Option<f64>,
}

impl Budget {
    pub fn rounds(n: usize) -> Budget {
        Budget {
            min_rounds: n,
            max_rounds: n,
            seconds: None,
        }
    }

    /// As many rounds as fit in `seconds`, at least three (a minimum over
    /// fewer is not an estimate).
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            min_rounds: 3,
            max_rounds: usize::MAX,
            seconds: Some(seconds),
        }
    }

    pub fn capped(self, max_rounds: usize) -> Budget {
        Budget {
            min_rounds: self.min_rounds.min(max_rounds),
            max_rounds: self.max_rounds.min(max_rounds),
            ..self
        }
    }

    pub fn more(&self, done: usize, started: Instant) -> bool {
        done < self.min_rounds
            || (done < self.max_rounds
                && self
                    .seconds
                    .is_none_or(|s| started.elapsed().as_secs_f64() < s))
    }
}

/// Per-cell timing samples (seconds), one per round.
#[derive(Debug, Default, Clone)]
pub struct Cells(Vec<(String, Vec<f64>)>);

impl Cells {
    pub fn push(&mut self, name: &str, secs: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(secs),
            None => self.0.push((name.to_string(), vec![secs])),
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("no samples for cell '{name}'"))
    }

    pub fn fastest(&self, name: &str) -> f64 {
        fastest(self.samples(name))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }

    /// `(n, fastest, p50, tail percentile and its value)` of one cell.
    pub fn summary(samples: &[f64]) -> (usize, f64, f64, Option<(f64, f64)>) {
        let tail = tail_percentile(samples.len()).map(|p| (p, percentile(samples, p)));
        (
            samples.len(),
            fastest(samples),
            percentile(samples, 50.0),
            tail,
        )
    }
}

/// Where a round records: spans, per-cell samples and operation verdicts.
pub struct Recorder<'a> {
    pub tracer: &'a mut Tracer,
    pub cells: &'a mut Cells,
    pub ledger: &'a mut Ledger,
}

impl Recorder<'_> {
    /// Run `op` inside a span named `cell` and record its wall time as one
    /// sample of that cell.
    pub fn time<R>(&mut self, cell: &str, round: u32, op: impl FnOnce() -> R) -> R {
        let span = self.tracer.begin(cell, round);
        let t = Instant::now();
        let r = op();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.end(span);
        self.cells.push(cell, secs);
        r
    }

    /// Count one operation, checking its output inside a `verify` span.
    pub fn verify(&mut self, round: u32, ok: impl FnOnce() -> bool, what: impl FnOnce() -> String) {
        let span = self.tracer.begin("verify", round);
        self.ledger.check(ok(), what);
        self.tracer.end(span);
    }
}

pub fn compress_cell(variant: &str) -> String {
    format!("compress[{variant}]")
}

pub fn decompress_cell(variant: &str) -> String {
    format!("decompress[{variant}]")
}

/// One of the eight phase-A compressors with its reference stream.
pub struct Variant {
    pub name: String,
    /// Index into [`BASES`].
    pub base: usize,
    pub qp: bool,
    pub comp: AnyCompressor,
    pub stream: Vec<u8>,
    compress_cell: String,
    decompress_cell: String,
}

/// Paths and arguments of the CLI phase.
pub struct Cli {
    pub bin: PathBuf,
    pub dir: PathBuf,
    raw: PathBuf,
    stream: PathBuf,
    restored: PathBuf,
    dims_arg: String,
    eb_arg: String,
    f64_flag: bool,
}

impl Cli {
    fn run(&self, args: &[&str]) -> bool {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args);
        if self.f64_flag {
            cmd.arg("--f64");
        }
        cmd.env("RAYON_NUM_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd.status().map(|s| s.success()).unwrap_or(false)
    }

    fn compress(&self) -> bool {
        let _ = std::fs::remove_file(&self.stream);
        self.run(&[
            "compress",
            "-i",
            path_str(&self.raw),
            "-o",
            path_str(&self.stream),
            "-d",
            &self.dims_arg,
            "-m",
            "sz3",
            "--eb",
            &self.eb_arg,
            "--qp",
        ])
    }

    fn decompress(&self) -> bool {
        let _ = std::fs::remove_file(&self.restored);
        self.run(&[
            "decompress",
            "-i",
            path_str(&self.stream),
            "-o",
            path_str(&self.restored),
        ])
    }

    /// Start `qip` with nothing to do (it prints usage and exits).
    pub fn startup(&self) -> f64 {
        let mut cmd = Command::new(&self.bin);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let t = Instant::now();
        let _ = cmd.status();
        t.elapsed().as_secs_f64()
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("harness paths are UTF-8")
}

/// Where set-up time went.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub total_s: f64,
}

/// Where the harness runs: the `qip` binary and a scratch directory.
#[derive(Debug, Clone)]
pub struct Env {
    pub qip_bin: PathBuf,
    pub tmp_dir: PathBuf,
}

/// A fully set-up workload: inputs generated, every surface warm and verified.
pub struct Bench<T: Sample> {
    pub spec: &'static WorkloadSpec,
    pub field: Field<T>,
    pub bound: ErrorBound,
    pub abs_eb: f64,
    pub variants: Vec<Variant>,
    /// Reference decode per base (QP never changes the decoded values).
    pub decoded: Vec<Field<T>>,
    pub ctx: CompressCtx,
    pub out: Vec<u8>,
    pub tiled: TiledCompressor,
    pub tiled_stream: Vec<u8>,
    pub tiled_decoded: Field<T>,
    pub region: Region,
    pub region_ref: Field<T>,
    server: Option<ServerHandle>,
    pub client: Client,
    /// The field as little-endian bytes (the serve and CLI input).
    pub raw: Vec<u8>,
    /// The [`WRAPPED`] decode as little-endian bytes (the serve and CLI output).
    pub decoded_raw: Vec<u8>,
    pub cli: Cli,
    /// Heap the warm phase-A state holds beyond the harness's own buffers.
    persistent_heap: isize,
    pub setup: SetupTimes,
    /// Served requests answered with a status other than OK.
    pub refused: u64,
}

impl<T: Sample> Bench<T> {
    /// Generate the inputs from `seed` and bring every phase to its warm,
    /// verified state. A missing `qip` binary or an unusable socket is a hard
    /// error; a wrong output is counted in `ledger` and the run goes on.
    pub fn setup(
        spec: &'static WorkloadSpec,
        seed: u64,
        env: &Env,
        ledger: &mut Ledger,
    ) -> Result<Bench<T>, String> {
        let started = Instant::now();
        let field = T::generate(spec, seed);
        let generate_s = started.elapsed().as_secs_f64();
        let bound = ErrorBound::Rel(spec.rel_bound);
        let abs_eb = bound.resolve(&field).abs;
        let within = |decoded: &Field<T>| within_bound(&field, decoded, abs_eb);

        // Phase A: the eight variants, one shared warm context.
        let live_before = alloc::live_bytes();
        let mut ctx = CompressCtx::new();
        let mut out = Vec::new();
        let mut variants = Vec::new();
        let mut decoded: Vec<Field<T>> = Vec::new();
        let mut owned = 0isize;
        // Each base's QP-off and QP-on variants sit next to each other, so the
        // two cells of a slowdown ratio see the same machine state.
        for (base, base_name) in BASES.iter().enumerate() {
            for qp in [false, true] {
                let name = if qp {
                    format!("{base_name}+QP")
                } else {
                    base_name.to_string()
                };
                let comp = AnyCompressor::by_name(&name).map_err(|e| e.to_string())?;
                let dynamic = comp.as_dyn::<T>();
                let into = dynamic.compress_into(&field, bound, &mut ctx, &mut out);
                let plain = dynamic.compress(&field, bound);
                let same = matches!((&into, &plain), (Ok(()), Ok(p)) if *p == out);
                ledger.check(same, || format!("{name}: compress_into != compress"));
                let stream = plain.map_err(|e| format!("{name}: compress: {e}"))?;
                let back = dynamic
                    .decompress_into(&stream, &mut ctx)
                    .map_err(|e| format!("{name}: decompress: {e}"))?;
                if qp {
                    let same = back.as_slice() == decoded[base].as_slice();
                    ledger.check(same && within(&back), || {
                        format!("{name}: decode differs from {base_name} or breaks the bound")
                    });
                } else {
                    ledger.check(within(&back), || format!("{name}: |x - x'| > eps"));
                    owned += std::mem::size_of_val(back.as_slice()) as isize;
                    decoded.push(back);
                }
                owned += stream.capacity() as isize;
                variants.push(Variant {
                    compress_cell: compress_cell(&name),
                    decompress_cell: decompress_cell(&name),
                    name,
                    base,
                    qp,
                    comp,
                    stream,
                });
            }
        }
        owned += out.capacity() as isize;
        let persistent_heap = alloc::live_bytes() - live_before - owned;
        let wrapped = variants
            .iter()
            .position(|v| v.name == WRAPPED)
            .expect("SZ3+QP is a variant");
        let wrapped_base = variants[wrapped].base;

        // Phase B: tiled container over SZ3+QP tiles.
        let inner = AnyCompressor::by_name(WRAPPED).map_err(|e| e.to_string())?;
        let tiled = TiledCompressor::new(inner.clone(), spec.tile).map_err(|e| e.to_string())?;
        let tiled_stream = Compressor::<T>::compress(&tiled, &field, bound)
            .map_err(|e| format!("tiled compress: {e}"))?;
        {
            let (info, payload) =
                ContainerInfo::parse(&tiled_stream).map_err(|e| format!("tiled index: {e}"))?;
            let extent = [spec.tile; 3];
            let mut same = true;
            for (i, origin) in info.grid().origins().enumerate() {
                let tile = field.subregion(&origin, &extent);
                let lib = Compressor::<T>::compress(&inner, &tile, ErrorBound::Abs(info.abs_bound));
                same &=
                    matches!(&lib, Ok(s) if info.tile_payload(payload, i) == Some(s.as_slice()));
            }
            ledger.check(same, || {
                "tiled: a tile stream != the library stream it wraps".into()
            });
        }
        let tiled_decoded = qip::container::decompress_full::<T>(&tiled_stream)
            .map_err(|e| format!("decompress_full: {e}"))?;
        ledger.check(within(&tiled_decoded), || {
            "decompress_full: |x - x'| > eps".into()
        });
        let half = spec.tile / 2;
        let region = Region::new(&[half; 3], &[spec.tile; 3]);
        let region_ref = tiled_decoded.subregion(region.origin(), region.extent());
        let got = qip::container::read_region::<T>(&tiled_stream, &region);
        ledger.check(
            matches!(&got, Ok(f) if f.as_slice() == region_ref.as_slice()),
            || "read_region != the same box of decompress_full".into(),
        );

        // Phase C: in-process server, one worker, one connection.
        // The connection idles while other phases run; the default 30 s read
        // timeout would close it under a long round.
        let config = ServeConfig {
            workers: 1,
            read_timeout: Duration::from_secs(3600),
            ..ServeConfig::default()
        };
        let max_frame = config.max_frame_bytes;
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(server.addr(), Duration::from_secs(60), max_frame)
            .map_err(|e| format!("client connect: {e}"))?;
        let raw = field.to_le_bytes();
        let decoded_raw = decoded[wrapped_base].to_le_bytes();

        // Phase D: stage the input file.
        std::fs::create_dir_all(&env.tmp_dir)
            .map_err(|e| format!("create {}: {e}", env.tmp_dir.display()))?;
        if !env.qip_bin.is_file() {
            return Err(format!(
                "{} not found: build it first (cargo build --release --bin qip)",
                env.qip_bin.display()
            ));
        }
        let cli = Cli {
            bin: env.qip_bin.clone(),
            raw: env.tmp_dir.join("input.raw"),
            stream: env.tmp_dir.join("stream.qip"),
            restored: env.tmp_dir.join("restored.raw"),
            dir: env.tmp_dir.clone(),
            dims_arg: spec.dims.map(|d| d.to_string()).join("x"),
            eb_arg: format!("rel:{:e}", spec.rel_bound),
            f64_flag: spec.is_f64(),
        };
        std::fs::write(&cli.raw, &raw).map_err(|e| format!("write {}: {e}", cli.raw.display()))?;

        let mut bench = Bench {
            spec,
            field,
            bound,
            abs_eb,
            variants,
            decoded,
            ctx,
            out,
            tiled,
            tiled_stream,
            tiled_decoded,
            region,
            region_ref,
            server: Some(server),
            client,
            raw,
            decoded_raw,
            cli,
            persistent_heap,
            setup: SetupTimes {
                generate_s,
                total_s: 0.0,
            },
            refused: 0,
        };
        // Warm the served and CLI paths with one verified round each; their
        // samples are discarded.
        let mut warm = Recorder {
            tracer: &mut Tracer::new(spec.name, false),
            cells: &mut Cells::default(),
            ledger,
        };
        bench.round_c(0, false, &mut warm)?;
        bench.round_d(0, &mut warm);
        bench.setup.total_s = started.elapsed().as_secs_f64();
        Ok(bench)
    }

    pub fn wrapped(&self) -> &Variant {
        self.variants
            .iter()
            .find(|v| v.name == WRAPPED)
            .expect("SZ3+QP is a variant")
    }

    pub fn variant(&self, name: &str) -> &Variant {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no variant {name}"))
    }

    /// One round: every cell of phases A, B, C, D once, in fixed order. The
    /// phases are interleaved rather than run one after the other because the
    /// VM's slow spells last seconds: a cell sampled across the whole run gets
    /// its fastest round from a quiet spell, a cell sampled in one block may
    /// not. Returns the peak heap phase A reached above its starting point.
    pub fn round(
        &mut self,
        round: u32,
        offline: bool,
        rec: &mut Recorder,
    ) -> Result<isize, String> {
        let live_start = alloc::live_bytes();
        alloc::reset_peak();
        self.round_a(round, rec);
        let transient = alloc::peak_bytes() - live_start;
        self.round_b(round, rec);
        self.round_c(round, offline, rec)?;
        self.round_d(round, rec);
        Ok(transient)
    }

    /// Phase A: warm `compress_into` / `decompress_into` through `as_dyn`,
    /// every variant once per round in fixed order. Every round's stream must
    /// equal the reference stream and every decode the reference decode.
    pub fn round_a(&mut self, round: u32, rec: &mut Recorder) {
        let phase = rec.tracer.begin("A.library", round);
        for v in &self.variants {
            let dynamic = v.comp.as_dyn::<T>();
            let r = rec.time(&v.compress_cell, round, || {
                dynamic.compress_into(&self.field, self.bound, &mut self.ctx, &mut self.out)
            });
            rec.verify(
                round,
                || r.is_ok() && self.out == v.stream,
                || format!("{}: round {round} stream differs from the first", v.name),
            );
            let r = rec.time(&v.decompress_cell, round, || {
                dynamic.decompress_into(&v.stream, &mut self.ctx)
            });
            let reference = self.decoded[v.base].as_slice();
            rec.verify(
                round,
                || matches!(&r, Ok(f) if f.as_slice() == reference),
                || {
                    format!(
                        "{}: round {round} decode differs from the reference",
                        v.name
                    )
                },
            );
        }
        rec.tracer.end(phase);
    }

    /// Phase B: tiled compress, full decode and the 8-of-18-tile region read.
    pub fn round_b(&mut self, round: u32, rec: &mut Recorder) {
        let phase = rec.tracer.begin("B.tiled", round);
        let r = rec.time("tiled.compress", round, || {
            Compressor::<T>::compress(&self.tiled, &self.field, self.bound)
        });
        rec.verify(
            round,
            || matches!(&r, Ok(s) if *s == self.tiled_stream),
            || format!("tiled compress: round {round} stream differs from the first"),
        );
        let r = rec.time("tiled.decompress_full", round, || {
            qip::container::decompress_full::<T>(&self.tiled_stream)
        });
        rec.verify(
            round,
            || matches!(&r, Ok(f) if f.as_slice() == self.tiled_decoded.as_slice()),
            || format!("decompress_full: round {round} differs from the reference"),
        );
        let r = rec.time("tiled.read_region", round, || {
            qip::container::read_region::<T>(&self.tiled_stream, &self.region)
        });
        rec.verify(
            round,
            || matches!(&r, Ok(f) if f.as_slice() == self.region_ref.as_slice()),
            || format!("read_region: round {round} != the same box of decompress_full"),
        );
        rec.tracer.end(phase);
    }

    /// Phase C: served compress then decompress of SZ3+QP, closed loop. With
    /// `offline`, the identical library calls are timed in the same round
    /// (cells `serve.offline_*`), so overhead = round trip − offline call.
    pub fn round_c(&mut self, round: u32, offline: bool, rec: &mut Recorder) -> Result<(), String> {
        let phase = rec.tracer.begin("C.serve", round);
        let dims = self.spec.dims.map(|d| d as u32);
        let bits = T::BITS as u8;
        let wire_bound = WireBound::Rel(self.spec.rel_bound);
        let wrapped = self
            .variants
            .iter()
            .position(|v| v.name == WRAPPED)
            .expect("SZ3+QP");

        // The client takes its payload by value: the copies are staged
        // outside the timed calls.
        let span = rec.tracer.begin("stage", round);
        let raw = self.raw.clone();
        let stream = self.variants[wrapped].stream.clone();
        rec.tracer.end(span);
        let resp = rec
            .time("serve.compress", round, || {
                self.client
                    .compress(WRAPPED, bits, &dims, wire_bound, raw, 0)
            })
            .map_err(|e| format!("serve compress: {e}"))?;
        self.refused += (resp.status != Status::Ok) as u64;
        rec.verify(
            round,
            || resp.status == Status::Ok && resp.payload == self.variants[wrapped].stream,
            || {
                format!(
                    "serve compress: status {:?} or stream != library stream",
                    resp.status
                )
            },
        );
        let resp = rec
            .time("serve.decompress", round, || {
                self.client.decompress(bits, stream, 0)
            })
            .map_err(|e| format!("serve decompress: {e}"))?;
        self.refused += (resp.status != Status::Ok) as u64;
        rec.verify(
            round,
            || resp.status == Status::Ok && resp.payload == self.decoded_raw,
            || {
                format!(
                    "serve decompress: status {:?} or bytes != library decode",
                    resp.status
                )
            },
        );

        if offline {
            let v = &self.variants[wrapped];
            let dynamic = v.comp.as_dyn::<T>();
            let r = rec.time("serve.offline_compress", round, || {
                dynamic.compress_into(&self.field, self.bound, &mut self.ctx, &mut self.out)
            });
            rec.verify(
                round,
                || r.is_ok() && self.out == v.stream,
                || "offline compress differs".into(),
            );
            let r = rec.time("serve.offline_decompress", round, || {
                dynamic.decompress_into(&v.stream, &mut self.ctx)
            });
            rec.verify(round, || r.is_ok(), || "offline decompress failed".into());
        }
        rec.tracer.end(phase);
        Ok(())
    }

    /// Phase D: `qip compress` then `qip decompress`, file to file. A cold
    /// context, file I/O and process start are included: CLI users pay them
    /// on every call.
    pub fn round_d(&mut self, round: u32, rec: &mut Recorder) {
        let phase = rec.tracer.begin("D.cli", round);
        let ok = rec.time("cli.compress", round, || self.cli.compress());
        rec.verify(
            round,
            || ok && std::fs::read(&self.cli.stream).is_ok_and(|b| b == self.wrapped().stream),
            || "qip compress: failed or stream != library stream".into(),
        );
        let ok = rec.time("cli.decompress", round, || self.cli.decompress());
        rec.verify(
            round,
            || ok && std::fs::read(&self.cli.restored).is_ok_and(|b| b == self.decoded_raw),
            || "qip decompress: failed or bytes != library decode".into(),
        );
        rec.tracer.end(phase);
    }

    /// Heap allocation requests of one warm `compress_into` per variant, in a
    /// round shaped like phase A (same order, decompress in between) so the
    /// context pools are in their steady state. The output buffer is fresh:
    /// its allocation is the caller's and is counted.
    pub fn count_allocs(&mut self, ledger: &mut Ledger) -> Vec<u64> {
        let mut counts = Vec::with_capacity(self.variants.len());
        for v in &self.variants {
            let dynamic = v.comp.as_dyn::<T>();
            let ((r, out), n) = alloc::count_requests(|| {
                let mut out = Vec::with_capacity(v.stream.len());
                let r = dynamic.compress_into(&self.field, self.bound, &mut self.ctx, &mut out);
                (r, out)
            });
            ledger.check(r.is_ok() && out == v.stream, || {
                format!("{}: counted compress differs", v.name)
            });
            counts.push(n);
            let r = dynamic.decompress_into(&v.stream, &mut self.ctx);
            ledger.check(r.is_ok(), || format!("{}: decompress failed", v.name));
        }
        counts
    }

    pub fn cr(&self, v: &Variant) -> f64 {
        self.spec.raw_bytes() as f64 / v.stream.len() as f64
    }

    /// Stop the server (the connection closes first, so the drain is quick)
    /// and remove the scratch files.
    pub fn teardown(mut self) {
        let server = self.server.take();
        let dir = self.cli.dir.clone();
        drop(self);
        if let Some(server) = server {
            server.join();
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The shared parent goes too once the last run's directory has.
        if let Some(parent) = dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything the untraced pass measured on one workload.
pub struct EndToEndRun {
    pub metrics: Vec<(&'static str, f64)>,
    pub cells: Cells,
    pub rounds: usize,
}

/// The untraced pass: rounds of phases A-D and the thirteen end-to-end
/// metrics. `setup_s` is the median set-up time the caller measured.
pub fn end_to_end<T: Sample>(
    bench: &mut Bench<T>,
    budget: Budget,
    setup_s: f64,
    ledger: &mut Ledger,
) -> Result<EndToEndRun, String> {
    let spec = bench.spec;
    let mut cells = Cells::default();

    let allocs = bench.count_allocs(ledger);
    let mut rec = Recorder {
        tracer: &mut Tracer::new(spec.name, false),
        cells: &mut cells,
        ledger,
    };
    let started = Instant::now();
    let mut rounds = 0;
    let mut transient = 0;
    while budget.more(rounds, started) {
        rounds += 1;
        transient = transient.max(bench.round(rounds as u32, false, &mut rec)?);
    }

    let mb = spec.raw_mb();
    let qp_on: Vec<&Variant> = bench.variants.iter().filter(|v| v.qp).collect();
    let rate = |cell: &dyn Fn(&str) -> String| -> f64 {
        geomean(
            &qp_on
                .iter()
                .map(|v| mb / cells.fastest(&cell(&v.name)))
                .collect::<Vec<_>>(),
        )
    };
    // Paired per round, then the median: on and off run back to back, so a
    // slow spell scales both and cancels, where fastest/fastest needs both
    // cells to have met a quiet spell (12% spread on `segsalt-tight`'s ten
    // rounds per run).
    let slowdown = |cell: &dyn Fn(&str) -> String| -> f64 {
        let ratios: Vec<f64> = SLOWDOWN_BASES
            .iter()
            .map(|b| {
                let on = cells.samples(&cell(&format!("{b}+QP")));
                let off = cells.samples(&cell(b));
                let paired: Vec<f64> = on.iter().zip(off).map(|(on, off)| on / off).collect();
                percentile(&paired, 50.0)
            })
            .collect();
        geomean(&ratios)
    };
    let cr = geomean(&qp_on.iter().map(|v| bench.cr(v)).collect::<Vec<_>>());
    let cr_gain = geomean(
        &BASES
            .iter()
            .map(|b| bench.cr(bench.variant(&format!("{b}+QP"))) / bench.cr(bench.variant(b)))
            .collect::<Vec<_>>(),
    );
    let allocs_on: u64 = bench
        .variants
        .iter()
        .zip(&allocs)
        .filter(|(v, _)| v.qp)
        .map(|(_, n)| n)
        .sum();
    let tiled_s = cells.fastest("tiled.compress") + cells.fastest("tiled.decompress_full");
    let metrics = vec![
        ("setup_s", setup_s),
        ("compress_mbs", rate(&compress_cell)),
        ("decompress_mbs", rate(&decompress_cell)),
        ("qp_compress_slowdown", slowdown(&compress_cell)),
        ("qp_decompress_slowdown", slowdown(&decompress_cell)),
        ("cr", cr),
        ("qp_cr_gain", cr_gain),
        ("allocs_per_compress", allocs_on as f64),
        (
            "peak_heap_mb",
            (bench.persistent_heap + transient) as f64 / 1e6,
        ),
        ("tiled_roundtrip_mbs", 2.0 * mb / tiled_s),
        ("region_read_ms", cells.fastest("tiled.read_region") * 1e3),
        (
            "serve_roundtrip_ms",
            (cells.fastest("serve.compress") + cells.fastest("serve.decompress")) * 1e3,
        ),
        (
            "cli_roundtrip_ms",
            (cells.fastest("cli.compress") + cells.fastest("cli.decompress")) * 1e3,
        ),
    ];
    let names: Vec<&str> = metrics.iter().map(|(name, _)| *name).collect();
    let table: Vec<&str> = crate::spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(
        names, table,
        "end-to-end metrics out of step with the table"
    );
    Ok(EndToEndRun {
        metrics,
        cells,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use qip::tensor::Shape;

    #[test]
    fn bound_violating_decode_is_counted_as_failed() {
        let field = Field::<f32>::from_fn(Shape::d3(16, 16, 16), |c| {
            (c[0] as f32 * 0.2).sin() + (c[1] as f32 * 0.1).cos() + c[2] as f32 * 0.01
        });
        let bound = ErrorBound::Rel(1e-3);
        let abs_eb = bound.resolve(&field).abs;
        let comp = AnyCompressor::by_name(WRAPPED).unwrap();
        let stream = comp.as_dyn::<f32>().compress(&field, bound).unwrap();
        let mut decoded: Field<f32> = comp.as_dyn::<f32>().decompress(&stream).unwrap();

        let mut ledger = Ledger::default();
        ledger.check(within_bound(&field, &decoded, abs_eb), || {
            "honest decode".into()
        });
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));

        // One sample pushed three bounds away: the operation must fail.
        decoded.as_mut_slice()[777] += 3.0 * abs_eb as f32;
        ledger.check(within_bound(&field, &decoded, abs_eb), || {
            "violating decode".into()
        });
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(ledger.failures, vec!["violating decode".to_string()]);

        // A decode of the wrong shape fails too.
        let wrong = Field::<f32>::zeros(Shape::d3(16, 16, 15));
        ledger.check(within_bound(&field, &wrong, abs_eb), || {
            "wrong shape".into()
        });
        assert_eq!(ledger.failed, 2);
    }

    #[test]
    fn same_seed_same_field_and_other_seed_other_field() {
        let spec = WORKLOADS
            .iter()
            .find(|w| w.name == "hurricane-small")
            .unwrap();
        let a = f32::generate(spec, 7);
        let b = f32::generate(spec, 7);
        let c = f32::generate(spec, 8);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        // The dither stays far inside the error bound.
        let eb = spec.rel_bound * a.value_range();
        assert!(max_abs_error(&a, &c) <= 2.0 * DITHER * eb * 1.01);
    }

    #[test]
    fn budget_runs_minimum_then_stops_on_time_or_cap() {
        let started = Instant::now();
        let fixed = Budget::rounds(4);
        assert!(fixed.more(3, started) && !fixed.more(4, started));
        let timed = Budget::seconds(0.0);
        assert!(timed.more(2, started) && !timed.more(3, started));
        let capped = Budget::seconds(1e9).capped(5);
        assert!(capped.more(4, started) && !capped.more(5, started));
    }

    #[test]
    fn cells_keep_samples_per_name() {
        let mut cells = Cells::default();
        cells.push("a", 2.0);
        cells.push("b", 5.0);
        cells.push("a", 1.0);
        assert_eq!(cells.samples("a"), &[2.0, 1.0]);
        assert_eq!(cells.fastest("a"), 1.0);
        assert_eq!(cells.iter().count(), 2);
        let (n, fastest, p50, tail) = Cells::summary(cells.samples("a"));
        assert_eq!((n, fastest, p50, tail), (2, 1.0, 1.5, None));
    }
}
