//! Tiled identity over the case matrix's shape rows and 16 draws, for every
//! registry compressor at 1, 2 and 8 workers: every tile stream is the
//! inner compressor's own stream, the writer writes the parallel path's
//! bytes, and every read path (seeded random regions included) equals
//! slicing the full decode.
//!
//! One test function in its own binary: the sweep sets `RAYON_NUM_THREADS`,
//! which is process-global.

#[test]
fn tile_streams_and_read_paths_are_identical_at_every_worker_count() {
    let findings = qip_conformance::tile_identity_suite(&qip_conformance::matrix(16, 0x711E_0000));
    assert!(
        findings.is_empty(),
        "{} divergence(s):\n{}",
        findings.len(),
        findings.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
