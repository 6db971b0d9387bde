//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, the per-layer metrics, and the table of which
//! layer metric should move which end-to-end metric. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--emit-benchmark-json`)
//! and a test keeps the two equal.

use crate::json::Json;

/// Seconds one driver run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 20;

/// Which `qip_data` generator a workload draws its field from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    Miranda,
    SegSalt,
    S3d,
    Hurricane,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub generator: Generator,
    pub dims: [usize; 3],
    /// Value-range-relative error bound.
    pub rel_bound: f64,
    /// Tile edge of the container phase (every workload has 18 tiles).
    pub tile: usize,
    /// Rounds per phase when the run is sized by rounds, not by `--seconds`.
    pub rounds: usize,
    pub why: &'static str,
}

impl WorkloadSpec {
    pub fn is_f64(&self) -> bool {
        self.generator == Generator::S3d
    }

    pub fn points(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn raw_bytes(&self) -> usize {
        self.points() * if self.is_f64() { 8 } else { 4 }
    }

    pub fn raw_mb(&self) -> f64 {
        self.raw_bytes() as f64 / 1e6
    }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "miranda-mid",
        generator: Generator::Miranda,
        dims: [64, 96, 96],
        rel_bound: 1e-3,
        tile: 32,
        rounds: 31,
        why: "Paper's reference point (f32 2.4 MB, rel 1e-3, fits L2): predict+quantize+QP is ~75% of compress, entropy ~20-25%.",
    },
    WorkloadSpec {
        name: "segsalt-tight",
        generator: Generator::SegSalt,
        dims: [96, 96, 64],
        rel_bound: 1e-5,
        tile: 32,
        rounds: 31,
        why: "High bit-rate (rel 1e-5, sharp edges, CR ~4): entropy coding is 40-70% of compress, so codec work shows and QP cost nearly vanishes.",
    },
    WorkloadSpec {
        name: "s3d-f64-loose",
        generator: Generator::S3d,
        dims: [96, 96, 64],
        rel_bound: 1e-2,
        tile: 32,
        rounds: 31,
        why: "Low bit-rate f64 (4.7 MB, exceeds L2, rel 1e-2): entropy is ~10% of compress, so predict/quantize/QP kernels do the work; QP loses CR here.",
    },
    WorkloadSpec {
        name: "hurricane-small",
        generator: Generator::Hurricane,
        dims: [32, 48, 48],
        rel_bound: 1e-3,
        tile: 16,
        rounds: 101,
        why: "Fixed-cost regime (0.29 MB): allocations, table builds, tuning trials, wire framing and process start-up dominate; kernels do little.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The four base compressors every workload runs, QP off and QP on.
pub const BASES: [&str; 4] = ["SZ3", "QoZ", "HPEZ", "MGARD"];
/// The bases whose QP slowdown is gated (the interpolation family proper).
pub const SLOWDOWN_BASES: [&str; 3] = ["SZ3", "QoZ", "HPEZ"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        definition: "field generation + compressor/context construction + verified warm-up round of every phase + server start + file staging (median of the set-ups in a run)",
    },
    EndToEnd {
        name: "compress_mbs",
        unit: "MB/s",
        better: Higher,
        bound: 0.20,
        definition: "geomean over SZ3+QP, QoZ+QP, HPEZ+QP, MGARD+QP of raw MB / fastest warm compress_into",
    },
    EndToEnd {
        name: "decompress_mbs",
        unit: "MB/s",
        better: Higher,
        bound: 0.20,
        definition: "same set, raw MB / fastest warm decompress_into",
    },
    EndToEnd {
        name: "qp_compress_slowdown",
        unit: "ratio",
        better: Lower,
        bound: 0.15,
        definition: "geomean over SZ3, QoZ, HPEZ of the median over rounds of t(QP on) / t(QP off), compress (the two run back to back in a round); the paper's band is 1.15-1.25",
    },
    EndToEnd {
        name: "qp_decompress_slowdown",
        unit: "ratio",
        better: Lower,
        bound: 0.15,
        definition: "same, decompress",
    },
    EndToEnd {
        name: "cr",
        unit: "ratio",
        better: Higher,
        bound: 0.005,
        definition: "geomean of raw bytes / stream bytes over the QP-on set (exact)",
    },
    EndToEnd {
        name: "qp_cr_gain",
        unit: "ratio",
        better: Higher,
        bound: 0.005,
        definition: "geomean over the four bases of CR(QP on) / CR(QP off) (exact; the paper's headline)",
    },
    EndToEnd {
        name: "allocs_per_compress",
        unit: "count",
        better: Lower,
        bound: 0.01,
        definition: "heap allocation requests of one warm compress_into into a freshly allocated output buffer, summed over the QP-on set (exact at 1 thread; the four output buffers keep it above zero)",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Lower,
        bound: 0.03,
        definition: "peak live heap during phase A above the input field and the harness's own buffers: warm context state + transient allocations",
    },
    EndToEnd {
        name: "tiled_roundtrip_mbs",
        unit: "MB/s",
        better: Higher,
        bound: 0.20,
        definition: "2 x raw MB / (fastest tiled compress + fastest decompress_full), SZ3+QP tiles, 1 thread",
    },
    EndToEnd {
        name: "region_read_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "fastest read_region of the 8-of-18-tile box",
    },
    EndToEnd {
        name: "serve_roundtrip_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "fastest served compress round trip + fastest served decompress round trip (SZ3+QP, one worker, one connection, closed loop)",
    },
    EndToEnd {
        name: "cli_roundtrip_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "fastest `qip compress` wall + fastest `qip decompress` wall, file to file (process start, I/O and a cold context included)",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

impl PerLayer {
    /// The layer (crate) a metric belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 104] = [
    // harness
    pl("mem.copy_mbs", "MB/s", Higher),
    pl("bench.trace_overhead_pct", "%", Lower),
    pl("bench.steal_pct", "%", Lower),
    pl("bench.rounds", "count", Higher),
    pl("bench.wall_s", "s", Lower),
    pl("data.generate_s", "s", Lower),
    pl("tensor.subregion_mbs", "MB/s", Higher),
    // quant
    pl("quant.quantize_mpts", "Mpts/s", Higher),
    pl("quant.recover_mpts", "Mpts/s", Higher),
    // codec, on SZ3+QP's Q'
    pl("codec.encode_mbs", "MB/s", Higher),
    pl("codec.decode_mbs", "MB/s", Higher),
    pl("codec.huffman_encode_mbs", "MB/s", Higher),
    pl("codec.huffman_decode_mbs", "MB/s", Higher),
    pl("codec.lz_compress_mbs", "MB/s", Higher),
    pl("codec.lz_decompress_mbs", "MB/s", Higher),
    pl("codec.range_encode_mbs", "MB/s", Higher),
    pl("codec.range_decode_mbs", "MB/s", Higher),
    pl("codec.bits_per_symbol", "bits", Lower),
    pl("codec.lz_gain", "ratio", Lower),
    // core
    pl("core.crc32_mbs", "MB/s", Higher),
    pl("core.seal_check_us", "us", Lower),
    pl("core.qp_fire_rate_l1", "ratio", Higher),
    pl("core.qp_fire_rate_l2", "ratio", Higher),
    pl("core.qp_entropy_delta_bits", "bits", Lower),
    pl("core.qp_forward_ns_pt.sz3", "ns/pt", Lower),
    pl("core.qp_forward_ns_pt.qoz", "ns/pt", Lower),
    pl("core.qp_forward_ns_pt.hpez", "ns/pt", Lower),
    pl("core.qp_forward_ns_pt.mgard", "ns/pt", Lower),
    pl("core.qp_inverse_ns_pt.sz3", "ns/pt", Lower),
    pl("core.qp_inverse_ns_pt.qoz", "ns/pt", Lower),
    pl("core.qp_inverse_ns_pt.hpez", "ns/pt", Lower),
    pl("core.qp_inverse_ns_pt.mgard", "ns/pt", Lower),
    // interp (bare engine, QP off)
    pl("interp.compress_mbs", "MB/s", Higher),
    pl("interp.decompress_mbs", "MB/s", Higher),
    pl("interp.predict_quantize_ns_pt", "ns/pt", Lower),
    pl("interp.reconstruct_ns_pt", "ns/pt", Lower),
    pl("interp.entropy_share_compress", "ratio", Lower),
    pl("interp.entropy_share_decompress", "ratio", Lower),
    // the four base compressors
    pl("sz3.compress_mbs", "MB/s", Higher),
    pl("sz3.decompress_mbs", "MB/s", Higher),
    pl("sz3.qp_compress_mbs", "MB/s", Higher),
    pl("sz3.qp_decompress_mbs", "MB/s", Higher),
    pl("sz3.cr", "ratio", Higher),
    pl("sz3.qp_cr", "ratio", Higher),
    pl("sz3.qp_allocs", "count", Lower),
    pl("sz3.wrapper_ratio", "ratio", Lower),
    pl("qoz.compress_mbs", "MB/s", Higher),
    pl("qoz.decompress_mbs", "MB/s", Higher),
    pl("qoz.qp_compress_mbs", "MB/s", Higher),
    pl("qoz.qp_decompress_mbs", "MB/s", Higher),
    pl("qoz.cr", "ratio", Higher),
    pl("qoz.qp_cr", "ratio", Higher),
    pl("qoz.qp_allocs", "count", Lower),
    pl("qoz.wrapper_ratio", "ratio", Lower),
    pl("hpez.compress_mbs", "MB/s", Higher),
    pl("hpez.decompress_mbs", "MB/s", Higher),
    pl("hpez.qp_compress_mbs", "MB/s", Higher),
    pl("hpez.qp_decompress_mbs", "MB/s", Higher),
    pl("hpez.cr", "ratio", Higher),
    pl("hpez.qp_cr", "ratio", Higher),
    pl("hpez.qp_allocs", "count", Lower),
    pl("hpez.wrapper_ratio", "ratio", Lower),
    pl("mgard.compress_mbs", "MB/s", Higher),
    pl("mgard.decompress_mbs", "MB/s", Higher),
    pl("mgard.qp_compress_mbs", "MB/s", Higher),
    pl("mgard.qp_decompress_mbs", "MB/s", Higher),
    pl("mgard.cr", "ratio", Higher),
    pl("mgard.qp_cr", "ratio", Higher),
    pl("mgard.qp_allocs", "count", Lower),
    // bypass control: transform coders share no interp/QP/Huffman code
    pl("zfp.compress_mbs", "MB/s", Higher),
    pl("zfp.decompress_mbs", "MB/s", Higher),
    pl("sperr.compress_mbs", "MB/s", Higher),
    pl("sperr.decompress_mbs", "MB/s", Higher),
    // registry / parallel / telemetry
    pl("registry.dispatch_ratio", "ratio", Lower),
    pl("registry.detect_stream_ns", "ns", Lower),
    pl("parallel.block_compress_mbs", "MB/s", Higher),
    pl("telemetry.attached_ratio", "ratio", Lower),
    // container
    pl("container.compress_mbs_1t", "MB/s", Higher),
    pl("container.compress_mbs_2t", "MB/s", Higher),
    pl("container.full_decode_mbs_1t", "MB/s", Higher),
    pl("container.full_decode_mbs_2t", "MB/s", Higher),
    pl("container.scaling_eff_2t", "ratio", Higher),
    pl("container.tile_penalty", "ratio", Lower),
    pl("container.cr_ratio", "ratio", Higher),
    pl("container.region_read_ms", "ms", Lower),
    pl("container.region_tiles_touched", "count", Lower),
    pl("container.region_vs_full", "ratio", Lower),
    pl("container.single_tile_us", "us", Lower),
    pl("container.index_parse_us", "us", Lower),
    pl("container.writer_append_mbs", "MB/s", Higher),
    // serve
    pl("serve.ping_us", "us", Lower),
    pl("serve.compress_p50_ms", "ms", Lower),
    pl("serve.compress_p90_ms", "ms", Lower),
    pl("serve.decompress_p50_ms", "ms", Lower),
    pl("serve.decompress_p90_ms", "ms", Lower),
    pl("serve.overhead_compress_ms", "ms", Lower),
    pl("serve.overhead_decompress_ms", "ms", Lower),
    pl("serve.region_rt_ms", "ms", Lower),
    pl("serve.refused", "count", Lower),
    // cli
    pl("cli.startup_ms", "ms", Lower),
    pl("cli.compress_ms", "ms", Lower),
    pl("cli.decompress_ms", "ms", Lower),
    pl("cli.cold_lib_compress_ms", "ms", Lower),
    pl("cli.io_overhead_ms", "ms", Lower),
];

/// One row of the interaction table: which end-to-end metric a group of
/// layer metrics should move, on which workloads, and where the prediction is
/// "no change". Written down before the first baseline was measured.
#[derive(Debug, Clone, Copy)]
pub struct Interaction {
    pub layer_metrics: &'static str,
    pub should_move: &'static str,
    pub on: &'static str,
    pub flat_on: &'static str,
}

pub const INTERACTIONS: [Interaction; 9] = [
    Interaction {
        layer_metrics: "codec.*",
        should_move: "compress_mbs, decompress_mbs",
        on: "segsalt-tight",
        flat_on: "s3d-f64-loose",
    },
    Interaction {
        layer_metrics: "core.qp_forward_ns_pt.*",
        should_move: "qp_compress_slowdown, compress_mbs",
        on: "miranda-mid, s3d-f64-loose",
        flat_on: "segsalt-tight",
    },
    Interaction {
        layer_metrics: "core.qp_inverse_ns_pt.*",
        should_move: "qp_decompress_slowdown, decompress_mbs",
        on: "s3d-f64-loose (largest), all",
        flat_on: "-",
    },
    Interaction {
        layer_metrics: "interp.predict_quantize_ns_pt, quant.*",
        should_move: "compress_mbs",
        on: "s3d-f64-loose, miranda-mid",
        flat_on: "segsalt-tight (small share)",
    },
    Interaction {
        layer_metrics: "*.qp_allocs, *.wrapper_ratio",
        should_move: "allocs_per_compress, compress_mbs, tiled_roundtrip_mbs",
        on: "hurricane-small",
        flat_on: "segsalt-tight",
    },
    Interaction {
        layer_metrics: "container.tile_penalty, container.region_*",
        should_move: "tiled_roundtrip_mbs, region_read_ms",
        on: "all",
        flat_on: "phase A metrics",
    },
    Interaction {
        layer_metrics: "serve.ping_us, serve.overhead_*, core.crc32_mbs",
        should_move: "serve_roundtrip_ms",
        on: "hurricane-small",
        flat_on: "segsalt-tight (work >> wire)",
    },
    Interaction {
        layer_metrics: "cli.startup_ms, cli.io_overhead_ms",
        should_move: "cli_roundtrip_ms",
        on: "hurricane-small",
        flat_on: "segsalt-tight",
    },
    Interaction {
        layer_metrics: "zfp.*, sperr.*",
        should_move: "nothing",
        on: "-",
        flat_on: "every interp/QP/Huffman change",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The exact contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("perf/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn schema_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn setup_s_is_gated_with_the_largest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_workload_has_18_tiles_and_an_8_tile_region() {
        for w in &WORKLOADS {
            let tiles: usize = w.dims.iter().map(|d| d.div_ceil(w.tile)).product();
            assert_eq!(tiles, 18, "{}", w.name);
            // origin = tile/2, extent = tile straddles one seam per axis.
            assert!(
                w.dims.iter().all(|&d| w.tile / 2 + w.tile <= d),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read ../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
