//! Exit-code contract of the `repro` binary: gate failures must surface as a
//! nonzero process exit (CI keys off the code, not the log), usage errors as
//! exit 2, and clean runs as exit 0.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_command_exits_2() {
    let status = repro().arg("no-such-command").status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn missing_option_value_exits_2() {
    let status = repro().args(["table1", "--scale"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn removed_timing_commands_and_baseline_option_exit_2() {
    for cmd in ["throughput", "speed", "profile"] {
        let status = repro().args([cmd, "--scale", "32"]).status().unwrap();
        assert_eq!(status.code(), Some(2), "{cmd} is measured by perf/ now");
    }
    let status = repro().args(["table1", "--baseline", "x"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn table1_exits_0() {
    let status = repro().arg("table1").status().unwrap();
    assert_eq!(status.code(), Some(0));
}

#[test]
fn failed_gate_exits_1() {
    // Scale 32 keeps the monitor grid tiny; no ratio can clear a gate of -1
    // (it asks for attached throughput above 2x detached), so the gate fails
    // AFTER the measurement — this exercises the propagation path rather
    // than argument validation.
    let out = std::env::temp_dir().join("qip_exit_code_test");
    let status = repro()
        .args(["monitor", "--scale", "32", "--gate", "-1"])
        .arg("--out")
        .arg(&out)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn inspect_healthy_run_exits_0_and_writes_artifacts() {
    let out = std::env::temp_dir().join("qip_exit_code_inspect_test");
    let _ = std::fs::remove_dir_all(&out);
    let status = repro()
        .args(["inspect", "--scale", "16", "--fields", "1"])
        .arg("--out")
        .arg(&out)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "healthy inspect run must exit 0");
    let text = std::fs::read_to_string(out.join("BENCH_inspect.json")).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    // 11 registry compressors + the tiled container, every gate green.
    let records = doc["records"].as_array().unwrap();
    assert_eq!(records.len(), 12);
    for r in records {
        let gates = (r["ledger_exact"].as_bool(), r["byte_identical"].as_bool());
        assert_eq!(gates, (Some(true), Some(true)), "{r:?}");
        assert_eq!(r["error_budget"]["violations"].as_u64(), Some(0), "{r:?}");
    }
    let qoz = records.iter().find(|r| r["compressor"].as_str() == Some("QoZ+QP")).unwrap();
    assert!(qoz["qp"]["levels"][0]["accept_rate"].as_f64().is_some(), "{qoz:?}");
    assert!(doc["dormant"]["ratio"].as_f64().is_some());
}

#[test]
fn kernel_option_is_unknown_and_exits_2() {
    let status = repro().args(["table1", "--kernel", "scalar"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn slo_healthy_run_exits_0_and_writes_artifacts() {
    let out = std::env::temp_dir().join("qip_exit_code_slo_test");
    let _ = std::fs::remove_dir_all(&out);
    let status = repro()
        .args(["slo", "--scale", "16", "--fields", "1"])
        .arg("--out")
        .arg(&out)
        .env("QIP_BENCH_HISTORY", out.join("BENCH_history.jsonl"))
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "healthy slo run must exit 0");
    let slo = std::fs::read_to_string(out.join("BENCH_slo.json")).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&slo).unwrap();
    let window = &doc["snapshot"]["objectives"][0]["windows"][0];
    assert!(window["burn_rate"].as_f64().is_some(), "{slo}");
    assert!(out.join("BENCH_tails.jsonl").exists());
    assert!(out.join("BENCH_events.jsonl").exists());
}
