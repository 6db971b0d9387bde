//! Tiled-container thread-count invariance, isolated in its own test binary:
//! the sweep mutates the process-global `RAYON_NUM_THREADS`, so it must not
//! share a process with tests that read it concurrently.

#[test]
fn tiled_output_is_invariant_across_thread_counts() {
    let findings = qip_conformance::thread_sweep_suite();
    assert!(
        findings.is_empty(),
        "{} divergence(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|d| format!("{} [{}]: {}", d.compressor, d.case, d.problem))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
