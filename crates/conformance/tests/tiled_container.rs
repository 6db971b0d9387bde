//! The committed tiled golden containers must match what today's container
//! encoder and decoder produce (region reads against the full decode are
//! the `tile_identity` test's). A golden failure means the
//! container layout changed — either fix the regression or, for an
//! intentional format change, rerun
//! `cargo run --release -p qip-bench --bin repro -- conformance --bless`
//! and commit the refreshed fixtures with the change that caused them.

use qip_conformance::golden::{self, Grid};

#[test]
fn committed_tiled_fixtures_match_current_container_codec() {
    let findings = Grid::tiled().verify(&golden::default_dir());
    assert!(
        findings.is_empty(),
        "{} tiled golden finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn tiled_blessing_is_deterministic() {
    let base =
        std::env::temp_dir().join(format!("qip-tiled-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    let grid = Grid::tiled();
    let (ea, eb) = (grid.bless(&a).expect("bless a"), grid.bless(&b).expect("bless b"));
    assert_eq!(ea.len(), eb.len());
    for (x, y) in ea.iter().zip(&eb) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.stream_crc32, y.stream_crc32, "{}", x.name);
        assert_eq!(x.decomp_crc32, y.decomp_crc32, "{}", x.name);
    }
    let _ = std::fs::remove_dir_all(&base);
}
