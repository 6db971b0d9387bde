//! Smoke tests for the `repro` experiment harness: every table/figure
//! generator runs end-to-end at a tiny scale and leaves its artifacts.

use qip_bench::experiments::{self, Opts};

fn tiny_opts(tag: &str) -> Opts {
    Opts {
        scale: 16,
        fields: 1,
        out: std::env::temp_dir().join(format!("qip_smoke_{tag}")),
    }
}

#[test]
fn table2_runs() {
    experiments::characterize::table2(&tiny_opts("table2")).unwrap();
}

#[test]
fn fig3_writes_pgms() {
    let opts = tiny_opts("fig3");
    experiments::characterize::fig3(&opts);
    let entries: Vec<_> = std::fs::read_dir(&opts.out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "pgm"))
        .collect();
    assert!(entries.len() >= 3, "expected 3 plane dumps, got {}", entries.len());
}

#[test]
fn fig4_runs() {
    experiments::characterize::fig4(&tiny_opts("fig4"));
}

#[test]
fn fig5_runs() {
    experiments::characterize::fig5(&tiny_opts("fig5"));
}

#[test]
fn fig7_8_9_run() {
    let opts = tiny_opts("cfg");
    experiments::config_explore::fig7(&opts);
    experiments::config_explore::fig8(&opts);
    experiments::config_explore::fig9(&opts);
    assert!(opts.out.join("fig7_dims.jsonl").exists());
    assert!(opts.out.join("fig8_conditions.jsonl").exists());
    assert!(opts.out.join("fig9_levels.jsonl").exists());
}

#[test]
fn rd_runs_on_two_datasets() {
    let opts = tiny_opts("rd");
    experiments::rd::run_dataset(qip_data::Dataset::Miranda, &opts);
    experiments::rd::run_dataset(qip_data::Dataset::S3d, &opts);
    assert!(opts.out.join("rd_miranda.jsonl").exists());
    assert!(opts.out.join("rd_s3d.jsonl").exists());
}

#[test]
fn table4_runs() {
    let opts = tiny_opts("table4");
    experiments::sota::run(&opts);
    assert!(opts.out.join("table4.jsonl").exists());
}

#[test]
fn fig18_runs() {
    let opts = tiny_opts("fig18");
    experiments::transfer::run(&opts);
    assert!(opts.out.join("fig18_transfer.jsonl").exists());
}

#[test]
fn ablations_run() {
    experiments::ablate::run(&tiny_opts("ablate"));
}
