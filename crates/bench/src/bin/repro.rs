//! `repro` — regenerate every table and figure of the paper, and run the two
//! gates that need the whole registry: `conformance` and `monitor`.
//!
//! ```text
//! repro <command> [--scale N] [--fields K] [--out DIR] [--full]
//!                 [--dataset NAME] [--gate PCT] [--bless]
//!
//! commands:
//!   table1     qualitative compressor-traits table (paper Table I)
//!   table2     SegSalt Pressure2000 statistics, PSNR aligned to 75
//!   fig3       SZ3 index-slice visualizations (PGM dumps)
//!   fig4       per-slice index entropy, stride 2
//!   fig5       regional entropy, 4 compressors, Q vs Q'
//!   fig7       CR increase by prediction dimension
//!   fig8       CR increase by condition case
//!   fig9       CR increase by start level
//!   rd         rate-distortion (Figs. 10-15); --dataset selects one
//!              (the per-cell MB/s columns are single shots; the tracked
//!              speed numbers of Figs. 16-17 come from `bash perf/run.sh`)
//!   monitor    production-telemetry run: every registry compressor with a live
//!              metrics hub attached; asserts byte-identity vs the dormant path
//!              and emits BENCH_telemetry.json (latency p50/p90/p99, CR,
//!              per-level QP accept rates), BENCH_telemetry.prom, a flight dump,
//!              and BENCH_flame.folded. `--gate 0.02` exits 1 when attached
//!              throughput drops >2% (geomean of paired ratios) below detached
//!   conformance  golden-vector verification, execution-path differential
//!              oracles, and the error-bound contract suite; exits 1 on any
//!              failure. `--bless` regenerates the committed golden fixtures
//!              (crates/conformance/golden) after an intentional format change
//!   table4     comparison with ZFP/TTHRESH/SPERR
//!   fig18      end-to-end parallel transfer
//!   ablate     ablation studies (DESIGN.md §8)
//!   all        everything above in order (failures are aggregated; the exit
//!              code is nonzero if any gated experiment failed)
//! ```
//!
//! `--scale N` divides every paper dimension by N (default 4); `--full` is
//! `--scale 1` (paper sizes — hours of runtime and tens of GB of memory).
//!
//! Speed is timed by `perf/` only. The serving, tiled-container and forensics
//! gates are workspace tests (`cargo test -p qip-serve -p qip-container -p
//! qip-inspect`).

use qip_bench::experiments::{self, Opts};
use qip_data::{Dataset, RD_DATASETS};
use std::path::PathBuf;

fn print_table1() {
    qip_bench::print_table(
        "Table I: state-of-the-art interpolation-based compressors",
        &["Compressor", "Speed", "Ratios", "Resol. reduction", "GPU", "QoI", "Quality oriented"],
        &[
            vec!["MGARD".into(), "Low".into(), "Low".into(), "yes".into(), "yes".into(), "yes".into(), "no".into()],
            vec!["SZ3".into(), "High".into(), "Medium".into(), "no".into(), "no".into(), "yes".into(), "no".into()],
            vec!["QoZ".into(), "High".into(), "Medium".into(), "no".into(), "yes".into(), "no".into(), "yes".into()],
            vec!["HPEZ".into(), "Medium".into(), "High".into(), "no".into(), "no".into(), "no".into(), "yes".into()],
        ],
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|table2|fig3|fig4|fig5|fig7|fig8|fig9|rd|monitor|conformance|table4|fig18|ablate|all> \
         [--scale N] [--fields K] [--out DIR] [--full] [--dataset NAME] [--gate PCT] [--bless]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].clone();
    let mut opts = Opts::default();
    let mut dataset: Option<String> = None;
    let mut gate: Option<f64> = None;
    let mut bless = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--fields" => {
                i += 1;
                opts.fields = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--full" => opts.scale = 1,
            "--bless" => bless = true,
            "--dataset" => {
                i += 1;
                dataset = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--gate" => {
                i += 1;
                gate = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
        i += 1;
    }

    let rd_one = |ds: Dataset| experiments::rd::run_dataset(ds, &opts);
    let rd_all = || {
        for ds in RD_DATASETS {
            rd_one(ds);
        }
    };
    let pick_dataset = |name: &str| -> Dataset {
        RD_DATASETS
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
            .unwrap_or_else(|| {
                eprintln!("unknown dataset {name}; choose from Miranda/SegSalt/SCALE/CESM-3D/S3D/Hurricane");
                std::process::exit(2);
            })
    };

    match cmd.as_str() {
        "table1" => print_table1(),
        "table2" => {
            if let Err(msg) = experiments::characterize::table2(&opts) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        "fig3" => experiments::characterize::fig3(&opts),
        "fig4" => experiments::characterize::fig4(&opts),
        "fig5" => experiments::characterize::fig5(&opts),
        "fig7" => experiments::config_explore::fig7(&opts),
        "fig8" => experiments::config_explore::fig8(&opts),
        "fig9" => experiments::config_explore::fig9(&opts),
        "rd" => match &dataset {
            Some(name) => rd_one(pick_dataset(name)),
            None => rd_all(),
        },
        "monitor" => {
            if let Err(msg) = experiments::monitor::run(&opts, gate) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        "conformance" => {
            if !experiments::conformance::run(&opts, bless) {
                std::process::exit(1);
            }
        }
        "table4" => experiments::sota::run(&opts),
        "fig18" => experiments::transfer::run(&opts),
        "ablate" => experiments::ablate::run(&opts),
        "all" => {
            // Gated experiments append to `failures` instead of exiting on
            // the spot, so one bad gate never masks the others — but the
            // process still exits nonzero at the end if anything failed.
            let mut failures: Vec<String> = Vec::new();
            print_table1();
            if let Err(msg) = experiments::characterize::table2(&opts) {
                failures.push(format!("table2: {msg}"));
            }
            experiments::characterize::fig3(&opts);
            experiments::characterize::fig4(&opts);
            experiments::characterize::fig5(&opts);
            experiments::config_explore::fig7(&opts);
            experiments::config_explore::fig8(&opts);
            experiments::config_explore::fig9(&opts);
            rd_all();
            if let Err(msg) = experiments::monitor::run(&opts, gate) {
                failures.push(format!("monitor: {msg}"));
            }
            if !experiments::conformance::run(&opts, false) {
                failures.push("conformance: suite reported failures (see log above)".into());
            }
            experiments::sota::run(&opts);
            experiments::transfer::run(&opts);
            experiments::ablate::run(&opts);
            if !failures.is_empty() {
                eprintln!("repro all: {} gated experiment(s) failed:", failures.len());
                for f in &failures {
                    eprintln!("  - {f}");
                }
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
