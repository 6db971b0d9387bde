//! One producer per quantity, checked against everything that observes it.
//!
//! * **Hub vs. stream.** After one compress with a hub attached, the hub's
//!   `qip.qp.{points,accept,fired}{level}` and `qip.qp.accept_rate` equal the
//!   `qp.levels[]` `qip-inspect` recovers from the stream on the decode side,
//!   `qip.qp.max_level` the stream's `qp.max_level`,
//!   `qip.quant.*` its point counts, and `qip.interp.bytes.*` the ledger's
//!   `anchors`, `unpred` and Σ`index.*` components — for SZ3, QoZ, HPEZ and
//!   MGARD with and without QP over the conformance fields (f32 and f64,
//!   1-D to 3-D) plus fields that run the trial compressions.
//! * **Trace vs. hub.** The same call runs inside a trace session, and every
//!   pipeline statistic the session holds is the hub's under the naming rule:
//!   `qip.name{key="v"}` is `name.v`.
//! * **Docs vs. scrape.** The `qip_*` families of a scrape after every kind
//!   of call are exactly the pipeline families docs/telemetry.md lists; the
//!   rejected decode among those calls records no ratio and no bitrate.
//!
//! The hub slot and the trace session are process-global, so the tests
//! serialize on one lock.

use qip::container::{read_region, TiledCompressor};
use qip::core::CompressError;
use qip::prelude::*;
use qip::registry::AnyCompressor;
use qip::telemetry::{MetricKey, MetricsHub, Snapshot, TraceReport};
use qip_conformance::fields::{synth, FieldFamily};
use qip_conformance::golden::vector_specs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

static GLOBAL_SINKS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL_SINKS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The compressors whose statistics the interpolation engine or MGARD produce.
const PRODUCERS: [&str; 8] = [
    "SZ3", "SZ3+QP", "QoZ", "QoZ+QP", "HPEZ", "HPEZ+QP", "MGARD", "MGARD+QP",
];

/// What both sinks saw of one compress + decompress.
struct Observed {
    stream: Vec<u8>,
    hub: Snapshot,
    trace: TraceReport,
}

/// Compress and decompress `field` with a fresh hub attached, inside one
/// trace session.
fn observe<T: Scalar>(comp: &AnyCompressor, field: &Field<T>) -> Observed {
    let hub = Arc::new(MetricsHub::new());
    qip::telemetry::attach(Arc::clone(&hub));
    let (stream, trace) = qip::telemetry::with_session(|| {
        let stream = comp.compress(field, ErrorBound::Abs(1e-3)).unwrap();
        let _: Field<T> = comp.decompress(&stream).unwrap();
        stream
    });
    qip::telemetry::detach();
    Observed { stream, hub: hub.snapshot(), trace }
}

/// The hub's pipeline series under their trace spellings: `qip.` dropped and
/// every label but `compressor` appended as `.value`. The registry's per-call
/// families (`qip.compress.*`, `qip.decompress.*`) have no trace spelling —
/// the session has the `compress[…]` span instead.
fn by_trace_spelling<V: Copy>(series: &[(MetricKey, V)]) -> BTreeMap<String, V> {
    let per_call = |n: &str| n.starts_with("qip.compress.") || n.starts_with("qip.decompress.");
    let spelled = |k: &MetricKey| {
        let labels = k.labels.iter().filter(|(key, _)| key != "compressor");
        labels.fold(k.name["qip.".len()..].to_string(), |n, (_, v)| format!("{n}.{v}"))
    };
    series.iter().filter(|(k, _)| !per_call(&k.name)).map(|(k, v)| (spelled(k), *v)).collect()
}

/// One hub family's series by their `level` label.
fn by_level<V: Copy>(series: &[(MetricKey, V)], name: &str) -> BTreeMap<String, V> {
    let level = |k: &MetricKey| k.labels.iter().find(|(key, _)| key == "level").unwrap().1.clone();
    series.iter().filter(|(k, _)| k.name == name).map(|(k, v)| (level(k), *v)).collect()
}

/// Hub vs. the stream's inspect report, and trace vs. hub, for one
/// compressor on one field.
fn reconcile<T: Scalar>(comp: &AnyCompressor, field: &Field<T>, case: &str) {
    let name = Compressor::<T>::name(comp);
    let at = format!("{name} {case}");
    let seen = observe(comp, field);
    let report = qip::inspect::inspect_bytes(&seen.stream).unwrap();
    let qp = report.qp.as_ref();

    let counters = &seen.hub.counters;
    let (points, accept, fired) = (
        by_level(counters, "qip.qp.points"),
        by_level(counters, "qip.qp.accept"),
        by_level(counters, "qip.qp.fired"),
    );
    let rates = by_level(&seen.hub.gauges, "qip.qp.accept_rate");
    let labelled = |k: &MetricKey| k.labels.contains(&("compressor".into(), name.clone()));
    assert!(seen.hub.gauges.iter().all(|(k, _)| labelled(k)), "{at}: notes carry the compressor");
    let got: BTreeMap<_, _> =
        points.iter().map(|(l, &p)| (l.clone(), (p, accept[l], fired[l], rates[l]))).collect();
    assert_eq!((accept.len(), fired.len(), rates.len()), (got.len(), got.len(), got.len()), "{at}");
    let levels = qp.map_or(&[][..], |qp| &qp.levels);
    let want: BTreeMap<_, _> = levels
        .iter()
        .map(|l| (format!("l{}", l.level), (l.points, l.accepted, l.fired, l.accept_rate)))
        .collect();
    assert_eq!(got, want, "{at}: hub qip.qp.* vs inspect qp.levels[]");

    // The level prefix the encoder chose is the one the stream holds.
    if let Some(qp) = qp {
        let note = seen.hub.gauges.iter().find(|(k, _)| k.name == "qip.qp.max_level");
        let want = Some(qp.max_level as f64);
        assert_eq!(note.map(|g| g.1), want, "{at}: qp.max_level note vs inspect");
    }

    let channels = ["in", "anchors", "unpred", "index"]
        .map(|c| format!("qip.interp.bytes.{c}"))
        .into_iter()
        .chain(["qip.quant.predictable".into(), "qip.quant.unpredictable".into()])
        .map(|c| counters.iter().find(|(k, _)| k.name == c).map(|s| s.1))
        .collect::<Vec<_>>();
    let want = qp.map(|qp| {
        let index = report.ledger.iter().filter(|e| e.component.starts_with("index."));
        let interpolated: u64 = qp.levels.iter().map(|l| l.points).sum();
        [
            report.raw_bytes,
            report.component_bytes("anchors"),
            report.component_bytes("unpred"),
            index.map(|e| e.bytes).sum(),
            interpolated - qp.unpredictable,
            qp.unpredictable,
        ]
    });
    let want = want.map_or(vec![None; 6], |w| w.map(Some).to_vec());
    assert_eq!(channels, want, "{at}: hub channel counters vs inspect ledger");

    trace_matches_hub(&seen, &at);
}

/// Every trace counter and value is the hub's series of the same quantity
/// under the naming rule; the one trace-only family is the per-level index
/// entropy profile, present for exactly the levels the hub counted.
fn trace_matches_hub(seen: &Observed, at: &str) {
    let counters: BTreeMap<_, _> =
        seen.trace.counters.iter().map(|c| (c.name.clone(), c.value)).collect();
    assert!(counters.contains_key("codec.decode_symbols"), "{at}: the session saw the call");
    assert_eq!(counters, by_trace_spelling(&seen.hub.counters), "{at}: trace vs hub counters");

    let (entropy, values): (BTreeMap<_, _>, BTreeMap<_, _>) = seen
        .trace
        .values
        .iter()
        .map(|v| (v.name.clone(), v.value))
        .partition(|(name, _)| name.starts_with("interp.entropy."));
    assert_eq!(values, by_trace_spelling(&seen.hub.gauges), "{at}: trace values vs hub gauges");
    let profiled: BTreeSet<_> =
        entropy.keys().map(|k| k["interp.entropy.".len()..].to_string()).collect();
    let counted: BTreeSet<_> = by_level(&seen.hub.counters, "qip.qp.points").into_keys().collect();
    assert_eq!(profiled, counted, "{at}: entropy profile levels");
}

#[test]
fn hub_counters_equal_the_stream_and_the_trace_on_the_conformance_fields() {
    let _l = lock();
    for (comp, spec) in vector_specs() {
        if !PRODUCERS.contains(&spec.compressor.as_str()) {
            continue;
        }
        let case = format!("{} {:?}", spec.dtype, spec.dims);
        match spec.dtype {
            "f32" => reconcile(&comp, &synth::<f32>(spec.family, spec.seed, &spec.dims), &case),
            _ => reconcile(&comp, &synth::<f64>(spec.family, spec.seed, &spec.dims), &case),
        }
    }
}

#[test]
fn hub_counters_equal_the_stream_and_the_trace_when_trials_run() {
    // 24×20×16: SZ3's pipeline trial prices the whole field before the
    // real run; 40×36×30: SZ3 trials a 32³ block and QoZ / HPEZ tune on the
    // whole field before the real run.
    let _l = lock();
    for dims in [[24, 20, 16], [40, 36, 30]] {
        let f32s = synth::<f32>(FieldFamily::Turbulent, 11, &dims);
        let f64s = synth::<f64>(FieldFamily::Banded, 12, &dims);
        for comp in PRODUCERS.map(|n| AnyCompressor::by_name(n).unwrap()) {
            reconcile(&comp, &f32s, &format!("f32 {dims:?}"));
            reconcile(&comp, &f64s, &format!("f64 {dims:?}"));
        }
    }
}

/// Pipeline families are every `qip_` family but the serving and SLO ones,
/// which `crates/telemetry/tests/docs_families.rs` pins against the
/// exporter's validators.
fn pipeline_family(f: &str) -> bool {
    f.starts_with("qip_") && !f.starts_with("qip_serve_") && !f.starts_with("qip_slo_")
}

/// Backticked pipeline family names in docs/telemetry.md.
fn documented_pipeline_families() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/telemetry.md"));
    let name = |t: &str| t.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let doc = doc.unwrap();
    let tokens = doc.split('`').skip(1).step_by(2);
    tokens.filter(|t| pipeline_family(t) && name(t)).map(str::to_string).collect()
}

/// The pipeline `# TYPE` families of a scrape, each summary's `_max`
/// companion gauge folded into its summary.
fn scraped_pipeline_families(text: &str) -> BTreeSet<String> {
    let typed: BTreeMap<&str, &str> =
        text.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' ')).collect();
    let companion = |f: &str| f.strip_suffix("_max").is_some_and(|s| typed.get(s) == Some(&"summary"));
    typed.keys().filter(|f| pipeline_family(f) && !companion(f)).map(|f| f.to_string()).collect()
}

#[test]
fn documented_pipeline_families_are_exactly_the_scraped_ones() {
    let _l = lock();
    let hub = Arc::new(MetricsHub::new());
    qip::telemetry::attach(Arc::clone(&hub));
    let field = synth::<f32>(FieldFamily::Turbulent, 3, &[40, 36, 30]);
    for comp in AnyCompressor::registry() {
        let stream = comp.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
        let _: Field<f32> = comp.decompress(&stream).unwrap();
    }
    let tiled = TiledCompressor::new(AnyCompressor::by_name("HPEZ+QP").unwrap(), 16).unwrap();
    let container = tiled.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
    let _: Field<f32> = read_region(&container, &Region::new(&[3, 5, 7], &[20, 9, 8])).unwrap();
    // A rejected decode: the stream names no field, so its flight record has
    // empty dims and reports 0 for both ratio and bitrate (the empty product
    // of the dims is no value to divide by).
    let garbage = [0x20u8, 0, 1, 2, 3, 4, 5, 6, 7, 8];
    let sz3 = AnyCompressor::by_name("SZ3").unwrap();
    let rejected: Result<Field<f32>, CompressError> = sz3.decompress(&garbage);
    assert!(rejected.is_err());
    let record = hub.recorder.records().pop().unwrap();
    assert_eq!((record.outcome == "ok", record.dims.len(), record.stream_bytes), (false, 0, 10));
    assert_eq!((record.cr, record.bitrate_bits_per_value), (0.0, 0.0));
    let (_, fault) = qip_fault::corrupt(&container, 7);
    qip_fault::record_rejection(&fault, "tiled", "corrupt stream: CRC32 mismatch");
    qip::telemetry::detach();

    let scraped = scraped_pipeline_families(&qip::telemetry::export::prometheus_text(&hub));
    let documented = documented_pipeline_families();
    let undocumented: Vec<_> = scraped.difference(&documented).collect();
    assert!(undocumented.is_empty(), "scraped but not in docs/telemetry.md: {undocumented:?}");
    let unseen: Vec<_> = documented.difference(&scraped).collect();
    assert!(unseen.is_empty(), "in docs/telemetry.md but never scraped: {unseen:?}");
}
