//! End-to-end tests of the `qip` command-line binary.

use std::process::Command;

fn qip() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qip"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qip_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_compress_decompress_roundtrip() {
    let raw = tmp("field.f32");
    let packed = tmp("field.qip");
    let restored = tmp("restored.f32");

    let st = qip()
        .args(["gen", "-o", raw.to_str().unwrap(), "-d", "24x32x20", "--dataset", "segsalt"])
        .status()
        .unwrap();
    assert!(st.success());
    let raw_len = std::fs::metadata(&raw).unwrap().len();
    assert_eq!(raw_len, 24 * 32 * 20 * 4);

    let st = qip()
        .args([
            "compress",
            "-i",
            raw.to_str().unwrap(),
            "-o",
            packed.to_str().unwrap(),
            "-d",
            "24x32x20",
            "-m",
            "sz3",
            "--eb",
            "rel:1e-3",
            "--qp",
        ])
        .status()
        .unwrap();
    assert!(st.success());
    assert!(std::fs::metadata(&packed).unwrap().len() < raw_len);

    let st = qip()
        .args(["decompress", "-i", packed.to_str().unwrap(), "-o", restored.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(st.success());

    // Verify the bound on the raw bytes.
    let a = std::fs::read(&raw).unwrap();
    let b = std::fs::read(&restored).unwrap();
    assert_eq!(a.len(), b.len());
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    let vals: Vec<(f32, f32)> = a
        .chunks_exact(4)
        .zip(b.chunks_exact(4))
        .map(|(x, y)| {
            let xv = f32::from_le_bytes(x.try_into().unwrap());
            lo = lo.min(xv);
            hi = hi.max(xv);
            (xv, f32::from_le_bytes(y.try_into().unwrap()))
        })
        .collect();
    let eb = 1e-3 * (hi - lo) as f64;
    for (x, y) in vals {
        assert!(((x - y) as f64).abs() <= eb * (1.0 + 1e-6), "{x} vs {y}");
    }
}

#[test]
fn info_detects_compressor() {
    let raw = tmp("info.f32");
    let packed = tmp("info.qip");
    assert!(qip()
        .args(["gen", "-o", raw.to_str().unwrap(), "-d", "16x16x16"])
        .status()
        .unwrap()
        .success());
    assert!(qip()
        .args([
            "compress",
            "-i",
            raw.to_str().unwrap(),
            "-o",
            packed.to_str().unwrap(),
            "-d",
            "16x16x16",
            "-m",
            "zfp",
        ])
        .status()
        .unwrap()
        .success());
    let out = qip().args(["info", "-i", packed.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("zfp"), "info said: {text}");
}

#[test]
fn f64_roundtrip() {
    let raw = tmp("field.f64");
    let packed = tmp("field64.qip");
    let restored = tmp("restored.f64");
    assert!(qip()
        .args(["gen", "-o", raw.to_str().unwrap(), "-d", "20x20x12", "--dataset", "s3d", "--f64"])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::metadata(&raw).unwrap().len(), 20 * 20 * 12 * 8);
    assert!(qip()
        .args([
            "compress",
            "-i",
            raw.to_str().unwrap(),
            "-o",
            packed.to_str().unwrap(),
            "-d",
            "20x20x12",
            "-m",
            "hpez",
            "--qp",
            "--f64",
        ])
        .status()
        .unwrap()
        .success());
    assert!(qip()
        .args([
            "decompress",
            "-i",
            packed.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
            "--f64",
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::metadata(&restored).unwrap().len(),
        std::fs::metadata(&raw).unwrap().len()
    );
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown subcommand.
    assert!(!qip().args(["frobnicate"]).status().unwrap().success());
    // Missing required options.
    assert!(!qip().args(["compress"]).status().unwrap().success());
    // Wrong dims format.
    let raw = tmp("bad.f32");
    std::fs::write(&raw, [0u8; 64]).unwrap();
    assert!(!qip()
        .args(["compress", "-i", raw.to_str().unwrap(), "-o", "/dev/null", "-d", "nope"])
        .status()
        .unwrap()
        .success());
    // Length mismatch between file and dims.
    assert!(!qip()
        .args(["compress", "-i", raw.to_str().unwrap(), "-o", "/dev/null", "-d", "100x100"])
        .status()
        .unwrap()
        .success());
}

#[test]
fn unknown_options_are_rejected_not_ignored() {
    // A misspelt `--trace` must not compress happily and write no trace, and
    // `--kernel` (no such option) must not quietly run the one path there is.
    let raw = tmp("unknown_opt.f32");
    std::fs::write(&raw, [0u8; 64]).unwrap();
    for (opt, value) in [("--trce", "t.json"), ("--kernel", "scalar"), ("-x", "1")] {
        let out = qip()
            .args(["compress", "-i", raw.to_str().unwrap(), "-o", "/dev/null", "-d", "4x4"])
            .args([opt, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{opt} must be a usage error");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(&format!("unknown option {opt}")), "{opt}: {msg}");
    }
}

#[test]
fn bad_field_index_is_a_usage_error() {
    // `gen --field` is parsed like `--tile`, `--coarse` and `--workers`: a
    // value that is not an index must not quietly generate field 0.
    for value in ["abc", "-1", ""] {
        let out = qip().args(["gen", "-o", "/dev/null", "-d", "8x8", "--field", value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "--field '{value}' must be a usage error");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains(&format!("bad --field '{value}': ")), "--field '{value}': {msg}");
    }
}

#[test]
fn zero_sized_axes_rejected_with_clear_error() {
    let raw = tmp("zero.f32");
    std::fs::write(&raw, [0u8; 64]).unwrap();
    for dims in ["0x64x64", "16x0", "0"] {
        let out = qip()
            .args(["compress", "-i", raw.to_str().unwrap(), "-o", "/dev/null", "-d", dims])
            .output()
            .unwrap();
        assert!(!out.status.success(), "dims {dims} must be rejected");
        let msg = String::from_utf8_lossy(&out.stderr);
        assert!(msg.contains("nonzero"), "dims {dims}: unclear error: {msg}");
    }
    // `gen` goes through the same parser.
    assert!(!qip()
        .args(["gen", "-o", "/dev/null", "-d", "0x8"])
        .status()
        .unwrap()
        .success());
}

#[test]
fn decompress_rejects_garbage() {
    let junk = tmp("junk.qip");
    std::fs::write(&junk, b"this is not a qip stream").unwrap();
    assert!(!qip()
        .args(["decompress", "-i", junk.to_str().unwrap(), "-o", "/dev/null"])
        .status()
        .unwrap()
        .success());
}

#[test]
fn retired_stream_magic_is_a_foreign_byte() {
    // 0x90 is a retired stream tag (docs/FORMAT.md), never reassigned.
    let old = tmp("retired.qip");
    std::fs::write(&old, [0x90, 1, 32, 1, 8, 8, 0]).unwrap();
    let out =
        qip().args(["decompress", "-i", old.to_str().unwrap(), "-o", "/dev/null"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecognized stream magic"), "{err}");
}

#[test]
fn mgard_refuses_a_non_finite_field_instead_of_breaking_the_bound() {
    let raw = tmp("nan.f32");
    let packed = tmp("nan.qip");
    let (raw_s, packed_s) = (raw.to_str().unwrap(), packed.to_str().unwrap());
    assert!(qip().args(["gen", "-o", raw_s, "-d", "24x20x16"]).status().unwrap().success());
    let mut bytes = std::fs::read(&raw).unwrap();
    bytes[400..404].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(&raw, bytes).unwrap();
    let compress =
        ["compress", "-i", raw_s, "-o", packed_s, "-d", "24x20x16", "-m", "mgard", "--eb", "abs:1e-3"];
    let out = qip().args(compress).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("non-finite sample"), "{err}");
}

/// ROADMAP item 1's CLI rows of the non-finite contract: NaN and ±Inf planted
/// in a file come back bit for bit through `compress` / `tile` → `decompress`,
/// and `inspect --original` exits 0 with the samples counted, none violated.
#[test]
fn planted_non_finite_samples_survive_the_cli() {
    let raw = tmp("plant.f32");
    let raw_s = raw.to_str().unwrap();
    assert!(qip().args(["gen", "-o", raw_s, "-d", "24x20x16"]).status().unwrap().success());
    let mut bytes = std::fs::read(&raw).unwrap();
    let plant = [(3000, f32::NAN), (4117, f32::INFINITY), (5234, f32::NEG_INFINITY)];
    for (i, v) in plant {
        bytes[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    std::fs::write(&raw, bytes).unwrap();
    let ok = |args: &[&str]| {
        let out = qip().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    };
    let packs = [("compress", "sz3"), ("compress", "qoz"), ("compress", "hpez"), ("tile", "sz3")];
    for (cmd, method) in packs {
        let [packed, report, restored] =
            ["qip", "json", "f32"].map(|ext| tmp(&format!("plant-{cmd}-{method}.{ext}")));
        let [packed, report, restored] = [&packed, &report, &restored].map(|p| p.to_str().unwrap());
        let mut pack = vec![cmd, "-i", raw_s, "-o", packed, "-d", "24x20x16", "-m", method];
        pack.extend(["--eb", "abs:1e-3"]);
        if cmd == "tile" {
            pack.extend(["--tile", "8"]);
        }
        ok(&pack);
        ok(&["inspect", "-i", packed, "--original", raw_s, "-d", "24x20x16", "--json", report]);
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(report).unwrap()).unwrap();
        let count = |k: &str| json["error_budget"][k].as_u64();
        assert_eq!((count("violations"), count("nonfinite")), (Some(0), Some(3)));
        ok(&["decompress", "-i", packed, "-o", restored]);
        let back = std::fs::read(restored).unwrap();
        for (i, v) in plant {
            assert_eq!(back[4 * i..4 * i + 4], v.to_le_bytes(), "{cmd} -m {method}: sample {i}");
        }
    }
}

#[test]
fn inspect_exits_1_when_the_original_shows_a_bound_violation() {
    let raw = tmp("budget.f32");
    let packed = tmp("budget.qip");
    let (raw_s, packed_s) = (raw.to_str().unwrap(), packed.to_str().unwrap());
    assert!(qip().args(["gen", "-o", raw_s, "-d", "20x18x16"]).status().unwrap().success());
    let compress = ["compress", "-i", raw_s, "-o", packed_s, "-d", "20x18x16", "-m", "qoz"];
    assert!(qip().args(compress).status().unwrap().success());
    let inspect = ["inspect", "-i", packed_s, "--original", raw_s, "-d", "20x18x16"];
    let clean = qip().args(inspect).output().unwrap();
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));

    // Not the stream's original: one sample far off, one NaN decoded finite.
    let mut bytes = std::fs::read(&raw).unwrap();
    bytes[400..404].copy_from_slice(&1.0e6f32.to_le_bytes());
    bytes[800..804].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(&raw, bytes).unwrap();
    let out = qip().args(inspect).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("violations 2"), "{table}");
    assert!(table.contains("1 non-finite samples"), "{table}");
    assert!(!table.contains("inf") && !table.contains("NaN"), "{table}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error bound violated at 2 samples"));
}

/// The bound check is `execute`'s, so the CLI refuses what serve refuses,
/// with the same reason.
#[test]
fn unusable_bounds_are_refused_as_serve_refuses_them() {
    let raw = tmp("bounds.f32");
    let raw_s = raw.to_str().unwrap();
    assert!(qip().args(["gen", "-o", raw_s, "-d", "16x16x16"]).status().unwrap().success());
    for eb in ["abs:-1", "abs:nan", "abs:0", "rel:inf"] {
        let out = qip()
            .args(["compress", "-i", raw_s, "-o", "/dev/null", "-d", "16x16x16", "--eb", eb])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--eb {eb} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error bound must be positive and finite"), "--eb {eb}: {err}");
    }
}

/// `qip compress` / `qip tile` write exactly the bytes an in-process server
/// answers for the same op, for both scalar types.
#[test]
fn cli_output_equals_the_served_response() {
    use qip::serve::wire::{Status, WireBound};
    use qip::serve::{Client, ServeConfig, Server};
    let handle = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let mut client =
        Client::connect(handle.addr(), std::time::Duration::from_secs(30), 64 << 20).unwrap();
    for (dtype_bits, f64_flag) in [(32u8, None), (64, Some("--f64"))] {
        let raw = tmp(&format!("served{dtype_bits}.raw"));
        let packed = tmp(&format!("served{dtype_bits}.qip"));
        let (raw_s, packed_s) = (raw.to_str().unwrap(), packed.to_str().unwrap());
        let gen = ["gen", "-o", raw_s, "-d", "20x18x16", "--dataset", "hurricane"];
        assert!(qip().args(gen).args(f64_flag).status().unwrap().success());
        let field = std::fs::read(&raw).unwrap();
        let (dims, bound) = ([20, 18, 16], WireBound::Rel(1e-3));
        for cmd in ["compress", "tile"] {
            let mut args = vec![cmd, "-i", raw_s, "-o", packed_s, "-d", "20x18x16", "-m", "sz3"];
            args.extend(["--eb", "rel:1e-3", "--qp"]);
            if cmd == "tile" {
                args.extend(["--tile", "8"]);
            }
            let out = qip().args(&args).args(f64_flag).output().unwrap();
            assert!(out.status.success(), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
            let resp = match cmd {
                "compress" => client.compress("SZ3+QP", dtype_bits, &dims, bound, field.clone(), 0),
                _ => client.compress_tiled("SZ3+QP", dtype_bits, &dims, 8, bound, field.clone(), 0),
            }
            .unwrap();
            assert_eq!(resp.status, Status::Ok, "{}", resp.reason());
            assert!(std::fs::read(&packed).unwrap() == resp.payload, "{cmd} f{dtype_bits}");
        }
    }
    drop(client);
    handle.join();
}
