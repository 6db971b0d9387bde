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
fn removed_commands_and_baseline_option_exit_2() {
    // Speed is measured by perf/; the serve, slo, tiles and inspect gates are
    // tests of qip-serve, qip-container and qip-inspect.
    for cmd in ["throughput", "speed", "profile", "serve", "slo", "tiles", "inspect"] {
        let status = repro().args([cmd, "--scale", "32"]).status().unwrap();
        assert_eq!(status.code(), Some(2), "{cmd} is not a repro command");
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
fn kernel_option_is_unknown_and_exits_2() {
    let status = repro().args(["table1", "--kernel", "scalar"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}
