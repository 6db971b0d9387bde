//! `qip` — command-line error-bounded compression for raw binary fields.
//!
//! ```text
//! qip compress   -i data.f32 -d 256x384x384 -m sz3 --eb rel:1e-3 [--qp] [--f64] -o data.qip
//! qip decompress -i data.qip -o restored.f32 [--f64]
//! qip tile       -i data.f32 -d 256x384x384 -m sz3 [--tile 64] [--qp] [--f64] -o data.qtc
//! qip read       -i data.qtc -o out.f32 [--region 0:16,32:64,32:64 | --coarse 2] [--f64]
//! qip info       -i data.qip
//! qip inspect    -i data.qip [--original data.f32 -d 256x384x384] [--json report.json]
//! qip gen        --dataset miranda -d 64x96x96 [--field 0] -o data.f32
//! qip serve      [--listen 127.0.0.1:9314] [--workers N] [--queue N] [--duration-s S]
//! ```
//!
//! Raw files are little-endian f32 (or f64 with `--f64`), row-major, matching
//! the SZ3 command-line conventions. Decompression auto-detects the
//! compressor from the stream magic. `compress`, `tile`, `decompress` and
//! `read` (except `--coarse`) build a wire op and run it through
//! `qip::serve::execute`, the function serve's workers run, so a refusal
//! reads the same and an output equals the served response byte for byte.

use qip::core::CompressCtx;
use qip::prelude::*;
use qip::registry::AnyCompressor;
use qip::serve::execute;
use qip::serve::wire::{Op, WireBound};
use qip::telemetry::StageTimer;
use std::collections::HashMap;
use std::process::ExitCode;

/// Parse `NxNxN`. Axes are `u32`, the width a wire op carries them in.
fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> =
        s.split(['x', 'X', ',']).map(|p| p.parse::<u32>().map(|d| d as usize)).collect();
    let dims = dims.map_err(|e| format!("bad dims '{s}': {e}"))?;
    if dims.is_empty() || dims.len() > 4 {
        return Err(
            "dims must have 1-4 axes (4-D works with sz3/qoz/hpez/mgard only)".into()
        );
    }
    if dims.contains(&0) {
        return Err(format!("bad dims '{s}': every axis must be nonzero"));
    }
    Ok(dims)
}

/// Parse `rel:V` / `abs:V`. Whether V is usable (positive and finite) is
/// `execute`'s check, the same one serve makes.
fn parse_eb(s: &str) -> Result<WireBound, String> {
    if let Some(v) = s.strip_prefix("rel:") {
        return v.parse().map(WireBound::Rel).map_err(|e| format!("bad bound: {e}"));
    }
    if let Some(v) = s.strip_prefix("abs:") {
        return v.parse().map(WireBound::Abs).map_err(|e| format!("bad bound: {e}"));
    }
    Err("error bound must be rel:<v> or abs:<v>".into())
}

fn u32s(v: &[usize]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

/// The registry compressor `-m NAME [--qp]` asks for, whose `name()` is the
/// canonical spelling the op carries and the stderr line prints. Lookup
/// failures render the registry's typed [`qip::registry::LookupError`], which
/// lists the canonical names.
fn compressor_by_name(name: &str, qp: bool) -> Result<AnyCompressor, String> {
    let canonical = if qp { format!("{name}+qp") } else { name.to_string() };
    AnyCompressor::by_name(&canonical).map_err(|e| e.to_string())
}

/// Parse `--region o:e,o:e,...` — per-axis `origin:extent` pairs.
fn parse_region(s: &str) -> Result<qip::tensor::Region, String> {
    let mut origin = Vec::new();
    let mut extent = Vec::new();
    for part in s.split(',') {
        let (o, e) = part
            .split_once(':')
            .ok_or_else(|| format!("bad region '{s}': each axis must be origin:extent"))?;
        let axis = |v: &str, what| {
            let n = v.parse::<u32>().map_err(|e| format!("bad region {what} '{v}': {e}"))?;
            Ok::<_, String>(n as usize)
        };
        origin.push(axis(o, "origin")?);
        extent.push(axis(e, "extent")?);
    }
    if origin.is_empty() || origin.len() > 4 {
        return Err(format!("bad region '{s}': 1-4 axes"));
    }
    Ok(qip::tensor::Region::new(&origin, &extent))
}

/// Observability outputs requested on the command line.
struct CliObs<'a> {
    /// `--trace FILE`: span/counter report as JSON.
    trace_path: Option<&'a String>,
    /// `--flame FILE`: the same report as collapsed stacks for flamegraph
    /// tooling.
    flame_path: Option<&'a String>,
    /// `--stats`: render the report to stderr.
    stats: bool,
    /// `--metrics-out FILE`: telemetry JSON snapshot (always available).
    metrics_out: Option<&'a String>,
    /// `--prom FILE`: telemetry in Prometheus text exposition format.
    prom_path: Option<&'a String>,
    /// `--flight FILE`: flight-recorder dump as JSON Lines.
    flight_path: Option<&'a String>,
}

impl<'a> CliObs<'a> {
    fn from_cli(opts: &'a HashMap<String, String>, flags: &[String]) -> CliObs<'a> {
        CliObs {
            trace_path: opts.get("trace"),
            flame_path: opts.get("flame"),
            stats: flags.iter().any(|f| f == "stats"),
            metrics_out: opts.get("metrics-out"),
            prom_path: opts.get("prom"),
            flight_path: opts.get("flight"),
        }
    }

    fn wants_trace(&self) -> bool {
        self.trace_path.is_some() || self.flame_path.is_some() || self.stats
    }

    fn wants_telemetry(&self) -> bool {
        self.metrics_out.is_some() || self.prom_path.is_some() || self.flight_path.is_some()
    }
}

/// Run `f` with whatever observability the flags ask for: a trace session
/// (`--trace`/`--flame`/`--stats`) and/or an attached metrics hub
/// (`--metrics-out`/`--prom`/`--flight`).
/// Without any of those options `f` runs bare and pays only the dormant
/// relaxed-load checks.
fn with_cli_obs<R>(obs: CliObs, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    let hub = if obs.wants_telemetry() {
        let hub = std::sync::Arc::new(qip::telemetry::MetricsHub::new());
        qip::telemetry::attach(std::sync::Arc::clone(&hub));
        Some(hub)
    } else {
        None
    };

    let result = if obs.wants_trace() {
        let (result, report) = qip::telemetry::with_session(f);
        if let Some(path) = obs.trace_path {
            std::fs::write(path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = obs.flame_path {
            std::fs::write(path, qip::telemetry::flame::collapsed_stacks(&report))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if obs.stats {
            eprintln!("{}", report.render());
        }
        result
    } else {
        f()
    };

    if let Some(hub) = hub {
        qip::telemetry::detach();
        if let Some(path) = obs.metrics_out {
            std::fs::write(path, qip::telemetry::export::json_snapshot(&hub))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = obs.prom_path {
            std::fs::write(path, qip::telemetry::export::prometheus_text(&hub))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = obs.flight_path {
            std::fs::write(path, hub.recorder.dump_jsonl())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    result
}

/// Run one data operation through `qip::serve::execute`, the path serve's
/// workers take, under whatever observability the flags ask for. A refusal
/// renders as its reason alone.
fn run_op(opts: &HashMap<String, String>, flags: &[String], op: &Op) -> Result<Vec<u8>, String> {
    with_cli_obs(CliObs::from_cli(opts, flags), || {
        let (ctx, stages) = (&mut CompressCtx::new(), &mut StageTimer::start());
        execute(op, ctx, stages, None).map_err(|(_, reason)| reason)
    })
}

/// Every valued option (`-k V` / `--key V`) some subcommand reads. Anything
/// else is a usage error: a misspelt `--trace` must not run and write nothing.
const KNOWN_OPTS: [&str; 25] = [
    "i", "o", "d", "m", "eb", "tile", "region", "coarse", "original", "json", "dataset", "field",
    "listen", "workers", "queue", "max-conns", "deadline-ms", "duration-s", "tails", "events",
    "metrics-out", "prom", "flight", "trace", "flame",
];

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(usage)?;
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut flags: Vec<String> = Vec::new();
    let mut key: Option<String> = None;
    let known = |f: &str, arg: &str| {
        if KNOWN_OPTS.contains(&f) {
            Ok(f.to_string())
        } else {
            Err(format!("unknown option {arg}"))
        }
    };
    for a in args {
        if let Some(k) = key.take() {
            opts.insert(k, a);
        } else if let Some(f) = a.strip_prefix("--") {
            if matches!(f, "qp" | "f64" | "stats") {
                flags.push(f.into());
            } else {
                key = Some(known(f, &a)?);
            }
        } else if let Some(f) = a.strip_prefix('-') {
            key = Some(known(f, &a)?);
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    if key.is_some() {
        return Err("dangling option".into());
    }
    let need = |k: &str| -> Result<&String, String> {
        opts.get(k).ok_or(format!("missing required option -{k}"))
    };
    let is_f64 = flags.iter().any(|f| f == "f64");
    let dtype_bits = if is_f64 { 64 } else { 32 };

    match cmd.as_str() {
        "compress" | "tile" => {
            // `tile` writes a tiled container: random-access region reads and
            // (for MGARD tiles) progressive decode via `qip read`.
            let input = need("i")?;
            let output = need("o")?;
            let dims = u32s(&parse_dims(need("d")?)?);
            let method = opts.get("m").map(String::as_str).unwrap_or("sz3");
            let bound = parse_eb(opts.get("eb").map(String::as_str).unwrap_or("rel:1e-3"))?;
            let qp = flags.iter().any(|f| f == "qp");
            let payload = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let n = payload.len();
            // Names do not depend on the scalar type.
            let compressor = Compressor::<f32>::name(&compressor_by_name(method, qp)?);
            let (name, op) = if cmd == "tile" {
                let tile: u32 = match opts.get("tile") {
                    Some(v) => v.parse().map_err(|e| format!("bad --tile '{v}': {e}"))?,
                    None => 64,
                };
                // Named the way `TiledCompressor` names itself.
                let name = format!("{compressor}⊞{tile}");
                (name, Op::CompressTiled { compressor, dtype_bits, dims, tile, bound, payload })
            } else {
                (compressor.clone(), Op::Compress { compressor, dtype_bits, dims, bound, payload })
            };
            let bytes = run_op(&opts, &flags, &op)?;
            std::fs::write(output, &bytes).map_err(|e| format!("write {output}: {e}"))?;
            eprintln!(
                "{name}: {} -> {} bytes (CR {:.2})",
                n,
                bytes.len(),
                n as f64 / bytes.len() as f64
            );
            Ok(())
        }
        "decompress" => {
            let input = need("i")?;
            let output = need("o")?;
            let payload = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let (method, n) = (qip::registry::detect_stream(&payload), payload.len());
            let out = run_op(&opts, &flags, &Op::Decompress { dtype_bits, payload })?;
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            eprintln!("{}: {n} -> {} bytes", method.unwrap_or_default(), out.len());
            Ok(())
        }
        "info" => {
            let input = need("i")?;
            let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let method =
                qip::registry::detect_stream(&bytes).ok_or("unrecognized stream magic")?;
            println!("compressor: {method}");
            println!("stream bytes: {}", bytes.len());
            if method == "tiled" {
                let (info, _) = qip::container::ContainerInfo::parse(&bytes)
                    .map_err(|e| e.to_string())?;
                println!("tile compressor: {}", info.compressor);
                println!("dims: {:?}", info.dims);
                println!("tile edge: {}", info.tile);
                println!("tiles: {}", info.tiles.len());
                println!("abs bound: {}", info.abs_bound);
                println!("scalar bits: {}", info.bits);
                // Per-tile ledger rollup: every byte of the container attributed
                // to a component, aggregated across tiles (see qip-inspect).
                let report =
                    qip::inspect::inspect_bytes(&bytes).map_err(|e| e.to_string())?;
                if let Some(t) = &report.tiles {
                    println!(
                        "tile bytes min/median/max: {} / {} / {}",
                        t.min_tile_bytes, t.median_tile_bytes, t.max_tile_bytes
                    );
                    for c in &t.by_compressor {
                        println!("  {}: {} tiles, {} bytes", c.compressor, c.tiles, c.bytes);
                    }
                }
                println!("ledger ({} bytes accounted):", report.ledger_total());
                for e in &report.ledger {
                    println!("  {:<18} {:>10}", e.component, e.bytes);
                }
            }
            Ok(())
        }
        "inspect" => {
            // Decode-time stream forensics: exact bit-accounting ledger, QP
            // decision maps, and (with --original) error-budget analytics.
            let input = need("i")?;
            let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let report = with_cli_obs(CliObs::from_cli(&opts, &flags), || {
                match opts.get("original") {
                    Some(orig) => {
                        let dims = parse_dims(need("d")?)?;
                        let raw =
                            std::fs::read(orig).map_err(|e| format!("read {orig}: {e}"))?;
                        let shape = Shape::new(&dims);
                        if is_f64 {
                            let field = Field::<f64>::from_le_bytes(shape, &raw)
                                .map_err(|e| format!("{orig}: {e}"))?;
                            qip::inspect::inspect_bytes_with_original(&bytes, &field)
                                .map_err(|e| e.to_string())
                        } else {
                            let field = Field::<f32>::from_le_bytes(shape, &raw)
                                .map_err(|e| format!("{orig}: {e}"))?;
                            qip::inspect::inspect_bytes_with_original(&bytes, &field)
                                .map_err(|e| e.to_string())
                        }
                    }
                    None => qip::inspect::inspect_bytes(&bytes).map_err(|e| e.to_string()),
                }
            })?;
            if let Some(path) = opts.get("json") {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("[report written to {path}]");
            }
            println!("{}", report.render_table());
            if let Some(n) = report.error_budget.map(|e| e.violations).filter(|&n| n > 0) {
                eprintln!("error bound violated at {n} samples");
                std::process::exit(1);
            }
            Ok(())
        }
        "read" => {
            // Random-access read from a tiled container: a region decodes only
            // the tiles it intersects; --coarse L decodes the whole field on
            // the stride-2^L lattice (MGARD tiles).
            let input = need("i")?;
            let output = need("o")?;
            let payload = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let region = opts.get("region").map(|s| parse_region(s)).transpose()?;
            let coarse: Option<usize> = opts
                .get("coarse")
                .map(|v| v.parse().map_err(|e| format!("bad --coarse '{v}': {e}")))
                .transpose()?;
            let (out, what) = match (region, coarse) {
                (Some(_), Some(_)) => {
                    return Err("--region and --coarse are mutually exclusive".into())
                }
                (Some(r), None) => {
                    let (origin, extent) = (u32s(r.origin()), u32s(r.extent()));
                    let op = Op::ReadRegion { dtype_bits, origin, extent, payload };
                    (run_op(&opts, &flags, &op)?, format!("region {r}"))
                }
                (None, Some(level)) => {
                    let out = with_cli_obs(CliObs::from_cli(&opts, &flags), || {
                        use qip::container::decompress_reduced;
                        if is_f64 {
                            decompress_reduced::<f64>(&payload, level).map(|f| f.to_le_bytes())
                        } else {
                            decompress_reduced::<f32>(&payload, level).map(|f| f.to_le_bytes())
                        }
                        .map_err(|e| e.to_string())
                    })?;
                    (out, format!("coarse level {level}"))
                }
                (None, None) => {
                    if payload.first() != Some(&qip::container::MAGIC_TILED) {
                        return Err("wrong format: not a tiled container".into());
                    }
                    let op = Op::Decompress { dtype_bits, payload };
                    (run_op(&opts, &flags, &op)?, "full field".to_string())
                }
            };
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            eprintln!("{what}: {} bytes", out.len());
            Ok(())
        }
        "gen" => {
            let output = need("o")?;
            let dims = parse_dims(need("d")?)?;
            let dataset = opts.get("dataset").map(String::as_str).unwrap_or("miranda");
            let field_idx: usize = match opts.get("field") {
                None => 0,
                Some(v) => v.parse().map_err(|e| format!("bad --field '{v}': {e}"))?,
            };
            use qip::data::Dataset;
            let ds = match dataset.to_ascii_lowercase().as_str() {
                "miranda" => Dataset::Miranda,
                "hurricane" => Dataset::Hurricane,
                "segsalt" => Dataset::SegSalt,
                "scale" => Dataset::Scale,
                "s3d" => Dataset::S3d,
                "cesm" => Dataset::Cesm,
                "rtm" => Dataset::Rtm,
                other => return Err(format!("unknown dataset '{other}'")),
            };
            let out = if is_f64 {
                ds.generate_f64(field_idx, &dims).to_le_bytes()
            } else {
                ds.generate_f32(field_idx, &dims).to_le_bytes()
            };
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            eprintln!("{dataset} field {field_idx} {dims:?}: {} bytes", out.len());
            Ok(())
        }
        "serve" => {
            let parse_num = |k: &str, default: usize| -> Result<usize, String> {
                match opts.get(k) {
                    Some(v) => v.parse().map_err(|e| format!("bad --{k} '{v}': {e}")),
                    None => Ok(default),
                }
            };
            let defaults = qip::serve::ServeConfig::default();
            let config = qip::serve::ServeConfig {
                addr: opts
                    .get("listen")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:9314".into()),
                workers: parse_num("workers", defaults.workers)?,
                queue_depth: parse_num("queue", defaults.queue_depth)?,
                max_conns: parse_num("max-conns", defaults.max_conns)?,
                default_deadline: std::time::Duration::from_millis(
                    parse_num("deadline-ms", defaults.default_deadline.as_millis() as usize)?
                        as u64,
                ),
                ..defaults
            };
            let duration_s = match opts.get("duration-s") {
                Some(v) => {
                    Some(v.parse::<u64>().map_err(|e| format!("bad --duration-s '{v}': {e}"))?)
                }
                None => None,
            };

            // Attach a metrics hub so the wire `metrics` op serves real data
            // (queue depth, requests by op and status, latency histograms),
            // with the default availability/latency SLOs and the always-on
            // tail sampler feeding the `flight` op and `--tails`.
            let hub = std::sync::Arc::new(qip::telemetry::MetricsHub::new());
            qip::telemetry::attach(std::sync::Arc::clone(&hub));

            let handle =
                qip::serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
            eprintln!(
                "qip-serve listening on {} ({} workers, queue depth {})",
                handle.addr(),
                parse_num("workers", defaults.workers)?,
                parse_num("queue", defaults.queue_depth)?,
            );
            match duration_s {
                Some(secs) => {
                    // Timed run: serve for the window, then drain gracefully
                    // (in-flight requests finish, new connections refused).
                    std::thread::sleep(std::time::Duration::from_secs(secs));
                    eprintln!("qip-serve: draining after {secs}s");
                    let events = handle.events_jsonl();
                    let stats = handle.join();
                    use std::sync::atomic::Ordering;
                    eprintln!(
                        "qip-serve: {} requests ({} ok, {} shed, {} deadline misses, {} panics isolated), {} connections",
                        stats.requests.load(Ordering::SeqCst),
                        stats.ok.load(Ordering::SeqCst),
                        stats.shed.load(Ordering::SeqCst),
                        stats.deadline_miss.load(Ordering::SeqCst),
                        stats.panics.load(Ordering::SeqCst),
                        stats.conns_accepted.load(Ordering::SeqCst),
                    );
                    if let Some(path) = opts.get("prom") {
                        hub.slo.publish(&hub);
                        std::fs::write(path, qip::telemetry::export::prometheus_text(&hub))
                            .map_err(|e| format!("write {path}: {e}"))?;
                    }
                    if let Some(path) = opts.get("tails") {
                        std::fs::write(path, hub.tail.dump_jsonl())
                            .map_err(|e| format!("write {path}: {e}"))?;
                    }
                    if let Some(path) = opts.get("events") {
                        std::fs::write(path, events)
                            .map_err(|e| format!("write {path}: {e}"))?;
                    }
                    Ok(())
                }
                None => {
                    // Run until killed; the handle keeps the server alive.
                    loop {
                        std::thread::park();
                    }
                }
            }
        }
        _ => Err(usage()),
    }
}

fn usage() -> String {
    "usage:\n  \
     qip compress   -i IN -o OUT -d NxNxN [-m sz3|qoz|hpez|mgard|zfp|sperr|tthresh] [--eb rel:1e-3|abs:0.5] [--qp] [--f64] [OBSERVABILITY]\n  \
     qip decompress -i IN -o OUT [--f64] [OBSERVABILITY]\n  \
     qip tile       -i IN -o OUT -d NxNxN [-m NAME] [--tile 64] [--eb rel:1e-3] [--qp] [--f64]   (tiled container, random access)\n  \
     qip read       -i IN.qip -o OUT [--region o:e,o:e,...] [--coarse L] [--f64]   (region = only intersecting tiles decode)\n  \
     qip info       -i IN   (tiled containers also print the per-tile ledger rollup)\n  \
     qip inspect    -i IN [--original RAW -d NxNxN [--f64]] [--json R.json] [OBSERVABILITY]\n                 \
     (stream forensics: exact byte ledger, QP decision maps, error budget; see docs/observability.md)\n  \
     qip gen        -o OUT -d NxNxN [--dataset miranda|hurricane|segsalt|scale|s3d|cesm|rtm] [--field K] [--f64]\n  \
     qip serve      [--listen ADDR] [--workers N] [--queue N] [--max-conns N] [--deadline-ms MS]\n                 \
     [--duration-s S] [--prom M.prom] [--tails T.jsonl] [--events E.jsonl]\n                 \
     (see docs/serving.md; FORMAT.md for the wire protocol; --tails dumps the\n                 \
     tail-sampler reservoir and --events the per-request event log at drain)\n\n\
     OBSERVABILITY (compress/decompress/inspect):\n  \
     --metrics-out M.json   telemetry snapshot (counters, gauges, latency histograms) as JSON\n  \
     --prom M.prom          the same snapshot in Prometheus text exposition format\n  \
     --flight F.jsonl       flight-recorder dump, one JSON record per compress/decompress call\n  \
     --trace T.json         span/counter report as JSON\n  \
     --flame F.folded       span tree as collapsed stacks for flamegraph tools\n  \
     --stats                render the span report to stderr"
        .into()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
