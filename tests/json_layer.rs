//! The one JSON layer: what every writer emits — trace report, metrics
//! snapshot, SLO report, flight / tail / event JSONL, inspect report — reads
//! back through the one reader, `serde_json::from_str`, with NaN and ±Inf as
//! `null`, an integral float still a float, and every other float exact.

use qip::core::{Compressor, ErrorBound};
use qip::serve::{Client, ServeConfig, Server};
use qip::telemetry::{MetricsHub, RequestEvent, Stages};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLANT: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0];

fn parse(text: &str) -> Value {
    serde_json::from_str(text.trim_end()).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// `PLANT` as written and read back.
fn assert_planted(read: [&Value; 4]) {
    assert!(read[..3].iter().all(|v| v.is_null()), "{read:?}");
    assert_eq!((read[3].as_f64(), read[3].as_u64()), (Some(2.0), None), "2.0 stays a float");
}

#[test]
fn every_writer_reads_back_through_the_one_parser() {
    let names = ["a", "b", "c", "d"];
    let values = names.map(String::from).into_iter().zip(PLANT).collect();
    let trace = qip::telemetry::TraceReport::from_maps(Default::default(), Default::default(), values);
    let json = parse(&trace.to_json());
    assert_planted([0, 1, 2, 3].map(|i| &json["values"][i]["value"]));

    // One attached hub: metrics snapshot, SLO report, flight and tail rings.
    let hub = Arc::new(MetricsHub::new());
    names.iter().zip(PLANT).for_each(|(name, v)| hub.gauge_set(name, &[], v));
    let field = qip::data::miranda_like(0, &[16, 12, 8]);
    let qoz = qip::registry::AnyCompressor::by_name("QoZ+QP").unwrap();
    qip::telemetry::attach(Arc::clone(&hub));
    let stream = qoz.compress(&field, ErrorBound::Abs(1e-3)).unwrap();
    qip::telemetry::detach();
    let json = parse(&qip::telemetry::export::json_snapshot(&hub));
    assert_planted([0, 1, 2, 3].map(|i| &json["gauges"][i]["value"]));

    hub.slo.record("compress", false, 1_000);
    let json = parse(&hub.slo.snapshot().to_json());
    let compliance = &json["objectives"][0]["compliance"];
    assert_eq!((compliance.as_f64(), compliance.as_u64()), (Some(1.0), None), "1.0 stays a float");

    let (flight, record) = (parse(&hub.recorder.dump_jsonl()), &hub.recorder.records()[0]);
    let floats = (flight["cr"].as_f64(), flight["qp_accept_rates"][0]["rate"].as_f64());
    assert_eq!(floats, (Some(record.cr), Some(record.qp_accept_rates[0].rate)), "exact floats");
    assert_eq!(flight["compressor"].as_str(), Some("QoZ+QP"));

    // A tail sample is `{sampled, over_p99, p99_estimate_ns, request}`, and
    // its `request` is the event-log line. The first request is always in
    // the sample.
    let event = RequestEvent {
        trace_id: "ab".into(),
        op: "read_region",
        status: "BAD_REGION",
        queue_wait_ns: 55,
        stages: Stages(vec![("dequeue", 1), ("parse", 2)]),
        total_ns: 777,
    };
    hub.tail.finish(&event);
    let line = serde_json::to_string(&event).unwrap();
    let head = r#"{"sampled":true,"over_p99":false,"p99_estimate_ns":0,"request":"#;
    assert_eq!(hub.tail.dump_jsonl(), format!("{head}{line}}}\n"));
    let request = &parse(&hub.tail.dump_jsonl())["request"];
    let ids = (request["trace_id"].as_str(), request["op"].as_str(), request["status"].as_str());
    assert_eq!(ids, (Some("ab"), Some("read_region"), Some("BAD_REGION")));
    let times = (request["total_ns"].as_u64(), request["queue_wait_ns"].as_u64());
    assert_eq!((times, request["stages"]["parse"].as_u64()), ((Some(777), Some(55)), Some(2)));

    let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    let server = Server::start(config).unwrap();
    Client::connect(server.addr(), Duration::from_secs(10), 1 << 20).unwrap().ping().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.events_jsonl().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let event = parse(&server.events_jsonl());
    assert_eq!(event["op"].as_str(), Some("ping"));
    assert!(event["stages"]["inline"].as_u64().is_some(), "{event:?}");
    server.join();

    let mut report = qip::inspect::inspect_bytes_with_original(&stream, &field).unwrap();
    let budget = report.error_budget.as_mut().unwrap();
    [budget.psnr, budget.max_margin, budget.mean_margin, budget.bound] = PLANT;
    let json = parse(&report.to_json());
    let b = &json["error_budget"];
    assert_planted([&b["psnr"], &b["max_margin"], &b["mean_margin"], &b["bound"]]);
    let ledger = json["ledger"].as_array().unwrap().iter().map(|e| e["bytes"].as_u64().unwrap());
    assert_eq!(ledger.sum::<u64>(), stream.len() as u64);
}
