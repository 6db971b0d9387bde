//! `qip-perf` — the repository's benchmark. See perf/README.md.
//!
//! Two ways to run it:
//!
//! * the driver contract named in `BENCHMARK.json`:
//!   `--workload NAME --seed N --seconds S --trace 0|1` measures one workload
//!   for `S` seconds and prints one JSON object as the last line of stdout
//!   (`--trace 0`: the end-to-end metrics, `--trace 1`: the per-layer ones);
//! * the full report: `--seed N --out DIR [--quick] [--repeat-check]` runs
//!   every workload at its own round count, untraced then traced, and writes
//!   `results.json` and `trace.json`.

mod alloc;
mod bench;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;

use bench::{Bench, Budget, Cells, Env, Ledger, Sample};
use json::Json;
use spec::{Better, WorkloadSpec, END_TO_END, INTERACTIONS, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    quick: bool,
    repeat_check: bool,
    emit_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: PathBuf::from("out"),
        quick: false,
        repeat_check: false,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}': expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The `qip` binary is built into the same directory as this executable.
fn env_for(out: &Path) -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(Env {
        qip_bin: dir.join("qip"),
        tmp_dir: out.join("tmp").join(std::process::id().to_string()),
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    stats::percentile(values, 50.0)
}

/// What one workload produced, in either mode.
#[derive(Default)]
struct WorkloadReport {
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    cells: Option<Cells>,
    rounds: usize,
    spans: Vec<Json>,
    coverage: Vec<(String, f64)>,
}

/// What to do with one workload.
#[derive(Clone, Copy)]
struct Plan {
    seed: u64,
    /// Set-ups before measuring; the last one is measured.
    setups: usize,
    /// Run the untraced pass for this long.
    untraced: Option<Budget>,
    /// Run the traced pass.
    traced: bool,
    /// Time the traced pass may scale itself to (`None`: fixed repetitions).
    traced_seconds: Option<f64>,
}

/// Set up, then run the untraced pass, the traced pass, or both.
fn run_workload<T: Sample>(
    spec: &'static WorkloadSpec,
    env: &Env,
    plan: Plan,
    ledger: &mut Ledger,
) -> Result<WorkloadReport, String> {
    let Plan {
        seed,
        setups,
        untraced,
        traced,
        traced_seconds,
    } = plan;
    let mut setup_times = Vec::with_capacity(setups);
    let mut bench: Option<Bench<T>> = None;
    for _ in 0..setups {
        if let Some(previous) = bench.take() {
            previous.teardown();
        }
        let b = Bench::<T>::setup(spec, seed, env, ledger)?;
        setup_times.push(b.setup.total_s);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let mut report = WorkloadReport::default();
    let result = (|| -> Result<(), String> {
        if let Some(budget) = untraced {
            let run = bench::end_to_end(&mut bench, budget, median(&mut setup_times), ledger)?;
            report.end_to_end = run.metrics;
            report.rounds = run.rounds;
            report.cells = Some(run.cells);
        }
        if traced {
            let run = layers::run(&mut bench, traced_seconds, ledger)?;
            run.tracer.check().map_err(|e| format!("trace: {e}"))?;
            report.per_layer = run.metrics;
            report.spans = run.tracer.to_json();
            report.coverage = run.tracer.phase_coverage();
            report.cells.get_or_insert(run.cells);
        }
        Ok(())
    })();
    bench.teardown();
    result.map(|()| report)
}

fn run_spec(
    spec: &'static WorkloadSpec,
    env: &Env,
    plan: Plan,
    ledger: &mut Ledger,
) -> Result<WorkloadReport, String> {
    if spec.is_f64() {
        run_workload::<f64>(spec, env, plan, ledger)
    } else {
        run_workload::<f32>(spec, env, plan, ledger)
    }
}

fn print_metric(
    workload: &str,
    name: &str,
    value: f64,
    unit: &str,
    better: Better,
    bound: Option<f64>,
) {
    let bound = bound.map_or(String::new(), |b| format!(", may worsen {:.1}%", b * 100.0));
    println!(
        "{workload:<16} {name:<36} {value:>14.6} {unit:<7} ({} is better{bound})",
        better.as_str()
    );
}

fn print_report(workload: &str, report: &WorkloadReport) {
    for (name, value) in &report.end_to_end {
        let m = spec::end_to_end(name).expect("end-to-end metric in the table");
        print_metric(workload, name, *value, m.unit, m.better, Some(m.bound));
    }
    for (name, value) in &report.per_layer {
        let m = spec::per_layer(name).expect("per-layer metric in the table");
        print_metric(workload, name, *value, m.unit, m.better, None);
    }
}

fn metrics_json(metrics: &[(&'static str, f64)], unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::obj(metrics.iter().map(|(name, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

/// The driver contract: one workload, one pass, one JSON line.
fn driver_run(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; known: {}", known.join(", "))
    })?;
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    let env = env_for(&args.out)?;
    let mut ledger = Ledger::default();
    // A traced run sets up once; an untraced one reports the median set-up.
    let plan = Plan {
        seed: args.seed,
        setups: if args.trace { 1 } else { SETUPS_PER_RUN },
        untraced: (!args.trace).then(|| Budget::seconds(seconds)),
        traced: args.trace,
        traced_seconds: Some(seconds),
    };
    let report = run_spec(spec, &env, plan, &mut ledger)?;
    print_report(spec.name, &report);
    if !args.trace {
        println!("{:<16} rounds {}", spec.name, report.rounds);
    }
    for failure in &ledger.failures {
        eprintln!("FAILED: {failure}");
    }
    if args.trace {
        write_file(
            &args.out.join("trace.json"),
            &Json::Arr(report.spans.clone()).render(),
        )?;
    }
    let metrics = if args.trace {
        metrics_json(&report.per_layer, |n| {
            spec::per_layer(n).expect("known metric").unit
        })
    } else {
        metrics_json(&report.end_to_end, |n| {
            spec::end_to_end(n).expect("known metric").unit
        })
    };
    let line = Json::obj([
        ("correct", Json::Bool(ledger.failed == 0)),
        ("attempted", Json::Int(ledger.attempted as i64)),
        ("failed", Json::Int(ledger.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a result was measured on.
fn environment(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let caches: Vec<Json> = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}"))
                    .ok()
                    .map(|s| s.trim().to_string())
            };
            Some(Json::str(format!(
                "L{} {} {}",
                read("level")?,
                read("type")?,
                read("size")?
            )))
        })
        .collect();
    Json::obj([
        ("seed", Json::Int(seed as i64)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        ("cpu_model", Json::str(model)),
        ("caches", Json::Arr(caches)),
        (
            "rayon_num_threads",
            Json::str(std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        ),
        ("serve_workers", Json::Int(1)),
        (
            "load_generator",
            Json::str("one process, one client connection, closed loop"),
        ),
    ])
}

fn cells_json(cells: &Cells) -> Json {
    Json::obj(cells.iter().map(|(name, samples)| {
        let (n, fastest, p50, tail) = Cells::summary(samples);
        let mut row = vec![
            ("n".to_string(), Json::Int(n as i64)),
            ("fastest_s".to_string(), Json::Num(fastest)),
            ("p50_s".to_string(), Json::Num(p50)),
        ];
        if let Some((p, value)) = tail {
            row.push((format!("p{p}_s"), Json::Num(value)));
        }
        (name, Json::Obj(row))
    }))
}

/// One full set: every selected workload, untraced then (optionally) traced.
fn full_set(
    args: &Args,
    env: &Env,
    traced: bool,
    ledgers: &mut Vec<(&'static str, Ledger)>,
) -> Result<Vec<(&'static str, WorkloadReport)>, String> {
    let selected: Vec<&'static WorkloadSpec> = WORKLOADS
        .iter()
        .filter(|w| !args.quick || w.name == "hurricane-small")
        .collect();
    let mut reports = Vec::new();
    for spec in selected {
        eprintln!(
            "[{}: {:?}, rel {:e}, tile {}]",
            spec.name, spec.dims, spec.rel_bound, spec.tile
        );
        let mut ledger = Ledger::default();
        let plan = Plan {
            seed: args.seed,
            setups: if args.quick { 1 } else { SETUPS_PER_RUN },
            untraced: Some(match args.seconds {
                Some(s) => Budget::seconds(s),
                None => Budget::rounds(if args.quick { 3 } else { spec.rounds }),
            }),
            traced,
            traced_seconds: args.seconds,
        };
        let report = run_spec(spec, env, plan, &mut ledger)?;
        print_report(spec.name, &report);
        println!(
            "{:<16} ops_attempted {} ops_failed {} rounds {}",
            spec.name, ledger.attempted, ledger.failed, report.rounds
        );
        for failure in &ledger.failures {
            eprintln!("FAILED: {failure}");
        }
        ledgers.push((spec.name, ledger));
        reports.push((spec.name, report));
    }
    Ok(reports)
}

fn lookup(reports: &[(&'static str, WorkloadReport)], workload: &str, metric: &str) -> Option<f64> {
    let (_, report) = reports.iter().find(|(w, _)| *w == workload)?;
    report
        .per_layer
        .iter()
        .chain(&report.end_to_end)
        .find(|(n, _)| *n == metric)
        .map(|(_, v)| *v)
}

/// The interaction predictions that can be checked against one baseline.
/// A failed prediction is reported, not hidden.
fn predictions(reports: &[(&'static str, WorkloadReport)]) -> Vec<(String, Option<bool>, String)> {
    let get = |w: &str, m: &str| lookup(reports, w, m);
    let mut rows = Vec::new();
    let mut row = |claim: &str, verdict: Option<bool>, seen: String| {
        rows.push((claim.to_string(), verdict, seen))
    };
    let v = get("segsalt-tight", "interp.entropy_share_compress");
    row(
        "interp.entropy_share_compress >= 0.35 on segsalt-tight",
        v.map(|v| v >= 0.35),
        format!("{v:?}"),
    );
    let v = get("s3d-f64-loose", "interp.entropy_share_compress");
    row(
        "interp.entropy_share_compress <= 0.15 on s3d-f64-loose",
        v.map(|v| v <= 0.15),
        format!("{v:?}"),
    );
    let small = get("hurricane-small", "sz3.qp_compress_mbs");
    let mid = get("miranda-mid", "sz3.qp_compress_mbs");
    row(
        "sz3.qp_compress_mbs on hurricane-small < half of miranda-mid",
        small.zip(mid).map(|(s, m)| s < m / 2.0),
        format!("{small:?} vs {mid:?}"),
    );
    for (name, _) in reports {
        let v = get(name, "container.region_tiles_touched");
        row(
            &format!("container.region_tiles_touched == 8 on {name}"),
            v.map(|v| v == 8.0),
            format!("{v:?}"),
        );
    }
    rows
}

/// Phase-A `compress_mbs` with the allocator's bookkeeping on and then off.
/// Runs last: live/peak figures are meaningless once tracking was off.
fn allocator_cost(args: &Args, env: &Env) -> Result<Json, String> {
    let spec = spec::workload("hurricane-small").expect("hurricane-small is a workload");
    let mut rates = Vec::new();
    for tracking in [true, false] {
        alloc::set_tracking(tracking);
        let mut ledger = Ledger::default();
        let plan = Plan {
            seed: args.seed,
            setups: 1,
            untraced: Some(Budget::rounds(31)),
            traced: false,
            traced_seconds: None,
        };
        let report = run_spec(spec, env, plan, &mut ledger)?;
        let rate = report
            .end_to_end
            .iter()
            .find(|(n, _)| *n == "compress_mbs")
            .map(|(_, v)| *v);
        rates.push(rate.expect("compress_mbs measured"));
    }
    let cost = 1.0 - rates[0] / rates[1];
    println!(
        "allocator cost: hurricane-small compress_mbs {:.3} MB/s counting, {:.3} MB/s pass-through ({:+.2}%)",
        rates[0],
        rates[1],
        cost * 100.0
    );
    Ok(Json::obj([
        ("workload", Json::str(spec.name)),
        ("compress_mbs_counting", Json::Num(rates[0])),
        ("compress_mbs_pass_through", Json::Num(rates[1])),
        ("cost_share", Json::Num(cost)),
    ]))
}

/// `--repeat-check`: compare two sets metric by metric against the bounds.
fn repeatability(
    first: &[(&'static str, WorkloadReport)],
    second: &[(&'static str, WorkloadReport)],
) -> (Json, usize) {
    let mut rows = Vec::new();
    let mut breaches = 0;
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        for ((name, va), (_, vb)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let m = spec::end_to_end(name).expect("known metric");
            // Either set may be the worse one; the bound applies both ways.
            let diff = stats::worsening(*va, *vb, m.better == Better::Higher).abs();
            let breach = diff > m.bound;
            breaches += breach as usize;
            println!(
                "{workload:<16} {name:<24} {va:>14.6} {vb:>14.6}  diff {:>6.2}% of bound {:>5.1}%{}",
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(*workload)),
                ("metric", Json::str(*name)),
                ("first", Json::Num(*va)),
                ("second", Json::Num(*vb)),
                ("relative_difference", Json::Num(diff)),
                ("bound", Json::Num(m.bound)),
                ("breach", Json::Bool(breach)),
            ]));
        }
    }
    (Json::Arr(rows), breaches)
}

/// The full report: results.json, trace.json and, on request,
/// repeatability.json.
fn full_run(args: &Args) -> Result<ExitCode, String> {
    let env = env_for(&args.out)?;
    let mut ledgers = Vec::new();
    let reports = full_set(args, &env, true, &mut ledgers)?;

    let mut spans = Vec::new();
    let mut workloads = Vec::new();
    let mut coverage_ok = true;
    for ((name, report), (_, ledger)) in reports.iter().zip(&ledgers) {
        spans.extend(report.spans.iter().cloned());
        for (phase, share) in &report.coverage {
            println!("{name:<16} trace coverage {phase:<12} {:.4}", share);
            coverage_ok &= *share >= 0.98;
        }
        let spec = spec::workload(name).expect("known workload");
        workloads.push((
            *name,
            Json::obj([
                ("why", Json::str(spec.why)),
                (
                    "dims",
                    Json::Arr(spec.dims.iter().map(|&d| Json::Int(d as i64)).collect()),
                ),
                ("rel_bound", Json::Num(spec.rel_bound)),
                ("tile", Json::Int(spec.tile as i64)),
                ("rounds", Json::Int(report.rounds as i64)),
                ("ops_attempted", Json::Int(ledger.attempted as i64)),
                ("ops_failed", Json::Int(ledger.failed as i64)),
                (
                    "failures",
                    Json::Arr(ledger.failures.iter().map(Json::str).collect()),
                ),
                (
                    "end_to_end",
                    Json::obj(report.end_to_end.iter().map(|(n, v)| {
                        let m = spec::end_to_end(n).expect("known metric");
                        (
                            *n,
                            Json::obj([
                                ("value", Json::Num(*v)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.as_str())),
                                ("bound", Json::Num(m.bound)),
                                ("definition", Json::str(m.definition)),
                            ]),
                        )
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(report.per_layer.iter().map(|(n, v)| {
                        let m = spec::per_layer(n).expect("known metric");
                        (
                            *n,
                            Json::obj([
                                ("value", Json::Num(*v)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.as_str())),
                                ("layer", Json::str(m.layer())),
                            ]),
                        )
                    })),
                ),
                (
                    "cells",
                    report.cells.as_ref().map_or(Json::Null, cells_json),
                ),
                (
                    "trace_phase_coverage",
                    Json::obj(
                        report
                            .coverage
                            .iter()
                            .map(|(p, s)| (p.as_str(), Json::Num(*s))),
                    ),
                ),
            ]),
        ));
    }

    let checked = predictions(&reports);
    for (claim, verdict, seen) in &checked {
        let verdict = match verdict {
            Some(true) => "held",
            Some(false) => "FAILED",
            None => "not measured",
        };
        println!("prediction {verdict:<12} {claim} (saw {seen})");
    }
    println!("trace: every phase covered >= 98% by its children: {coverage_ok}");

    let mut repeat_breaches = 0;
    if args.repeat_check {
        println!("-- second set --");
        let second = full_set(args, &env, false, &mut ledgers)?;
        let (rows, breaches) = repeatability(&reports, &second);
        repeat_breaches = breaches;
        write_file(&args.out.join("repeatability.json"), &rows.render_pretty())?;
        println!("repeat-check: {breaches} breach(es)");
    }

    let allocator = if args.quick {
        Json::Null
    } else {
        allocator_cost(args, &env)?
    };
    let results = Json::obj([
        ("environment", environment(args.seed)),
        ("workloads", Json::obj(workloads)),
        (
            "interactions",
            Json::Arr(
                INTERACTIONS
                    .iter()
                    .map(|i| {
                        Json::obj([
                            ("layer_metrics", Json::str(i.layer_metrics)),
                            ("should_move", Json::str(i.should_move)),
                            ("on", Json::str(i.on)),
                            ("flat_on", Json::str(i.flat_on)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "predictions",
            Json::Arr(
                checked
                    .iter()
                    .map(|(claim, verdict, seen)| {
                        Json::obj([
                            ("claim", Json::str(claim)),
                            ("held", verdict.map_or(Json::Null, Json::Bool)),
                            ("saw", Json::str(seen)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("allocator_cost", allocator),
    ]);
    write_file(&args.out.join("results.json"), &results.render_pretty())?;
    write_file(&args.out.join("trace.json"), &Json::Arr(spans).render())?;

    let failed: u64 = ledgers.iter().map(|(_, l)| l.failed).sum();
    let attempted: u64 = ledgers.iter().map(|(_, l)| l.attempted).sum();
    println!("ops_attempted {attempted} ops_failed {failed}");
    Ok(if failed == 0 && repeat_breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qip-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Every gated number is single-threaded; the rayon stand-in reads this
    // per call. Two-thread figures are per-layer only and set it themselves.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    debug_assert_eq!(END_TO_END.len(), 13);
    debug_assert_eq!(PER_LAYER.len(), 104);
    let result = match &args.workload {
        Some(name) => driver_run(&args, name),
        None => full_run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qip-perf: {e}");
            ExitCode::from(2)
        }
    }
}
