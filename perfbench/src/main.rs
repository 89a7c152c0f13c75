//! The repository's benchmark: seeded search-to-serve workloads of the PIT
//! stack, measured end to end, with a separate traced run for the layers.
//!
//! ```text
//! perfbench --workload <saturate|search> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seconds <s> --trace <0|1> --repeat <runs> [--seed <first>]
//! ```
//!
//! A run prints every metric as `name value unit`, then, as the last line,
//! one JSON object: `correct`, `attempted`, `failed` and the metrics, the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! It exits 1 when an operation failed: a correctness check, or a refused,
//! missing or extra reply that stopped the run. `--repeat` runs the workload
//! once per seed in child processes and prints each metric's median,
//! quartiles and spread. For steadiness on a shared host, a run keeps an
//! idle-class busy loop on every CPU and runs the `pit_tensor` worker pool
//! on one thread. See `README.md` beside this crate.

mod inputs;
mod measure;
mod search;
mod serving;

use measure::{median, quartiles, CountingAlloc, Sheet, Spinners, Tracer};
use pit_tensor::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// End-to-end metrics, printed with `--trace 0` (see `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_step", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// run reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("boot.artifact_ms", "ms"),
    ("boot.bind_ms", "ms"),
    ("boot.open_ms", "ms"),
    ("boot.warmup_ms", "ms"),
    ("client.encode_ns_per_step", "ns"),
    ("client.decode_ns_per_emit", "ns"),
    ("client.send_lag_p50_us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("client.send_lag_samples", "count"),
    ("client.latency_p99_us", "us"),
    ("client.latency_p999_us", "us"),
    ("client.latency_samples", "count"),
    ("edge.busy_ns_per_step", "ns"),
    ("edge.wait_s", "s"),
    ("edge.loops", "count"),
    ("edge.frames_rejected", "count"),
    ("edge.replies_dropped", "count"),
    ("edge.outbuf_hwm_bytes", "B"),
    ("protocol.decode_ns_per_frame", "ns"),
    ("protocol.encode_ns_per_emit", "ns"),
    ("shard.waves", "count"),
    ("shard.steps_per_wave", "count"),
    ("shard.occupancy.f32", "count"),
    ("shard.occupancy.i8", "count"),
    ("shard.flush_ns_per_step", "ns"),
    ("shard.busy_share", "ratio"),
    ("infer.f32.flush_ns_per_step", "ns"),
    ("infer.i8.flush_ns_per_step", "ns"),
    ("infer.f32.solo_ns_per_step", "ns"),
    ("infer.i8.solo_ns_per_step", "ns"),
    ("infer.push_ns_per_step", "ns"),
    ("infer.flush_allocs_per_emit", "count"),
    ("telemetry.scrape_us", "us"),
    ("telemetry.scrape_bytes", "B"),
    ("process.allocs_per_step", "count"),
    ("data.synth_ms", "ms"),
    ("nas.warmup_s", "s"),
    ("nas.search_s", "s"),
    ("nas.finetune_s", "s"),
    ("nas.effective_params", "count"),
    ("train.forward_ms", "ms"),
    ("train.loss_ms", "ms"),
    ("train.regularizer_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("export.compile_ms", "ms"),
    ("export.quantize_ms", "ms"),
    ("export.artifact_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.request_self_us", "us"),
    ("trace.spans", "count"),
];

const WORKLOADS: &[&str] = &["saturate", "search"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Writes a traced run's spans beside its artifacts and prints each span
/// name's self time on stderr.
fn report_spans(tracer: &Tracer, work: &Path, workload: &str, seed: u64) {
    let path = work.join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    eprintln!("self time by span ({}):", path.display());
    for (name, (count, self_ns)) in tracer.self_times() {
        eprintln!(
            "  {name:<20} {count:>8} spans {:>12.3} ms total {:>12.3} us mean",
            self_ns as f64 / 1e6,
            self_ns as f64 / 1e3 / count.max(1) as f64
        );
    }
}

fn run_once(args: &Args) -> ExitCode {
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::from(3);
    }
    let mut sheet = Sheet::default();
    let result = Spinners::start().and_then(|_spinners| match args.workload.as_str() {
        "saturate" => serving::run(args.seed, args.seconds, args.trace, &work, &mut sheet),
        _ => search::run(args.seed, args.seconds, args.trace, &work, &mut sheet),
    });
    // A run that cannot go on, such as a refused frame, a reply missing past
    // the stall timeout or an emission nobody asked for, is one failed
    // operation; the result is still printed.
    if let Err(e) = result {
        sheet.check(false, || format!("{} stopped: {e}", args.workload));
    }
    sheet.print(if args.trace { PER_LAYER } else { END_TO_END });
    if sheet.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload once per seed in a child process and prints each
/// metric's median, quartiles and spread (quartile distance over median).
fn repeat(args: &Args, runs: u64) -> ExitCode {
    let exe: PathBuf = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(3);
        }
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_runs = 0;
    for i in 0..runs {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("seed {seed}: exited with {}", out.status);
                failed_runs += 1;
                continue;
            }
            Err(e) => {
                eprintln!("seed {seed}: cannot run: {e}");
                failed_runs += 1;
                continue;
            }
        };
        let Some(doc) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            eprintln!("seed {seed}: no result line");
            failed_runs += 1;
            continue;
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some(entry) => entry.2.push(value),
                None => values.push((name.clone(), unit, vec![value])),
            }
        }
        eprintln!("seed {seed}: done");
    }
    println!(
        "{} x{runs} at {} s{}: {failed_runs} failed runs",
        args.workload,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>8} unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, unit, v) in &values {
        let med = median(v);
        let (q1, q3) = if v.len() >= 2 {
            let q = quartiles(v);
            (q[0], q[2])
        } else {
            (med, med)
        };
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{name:<34} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {unit}",
            spread * 100.0
        );
        let listed: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!("    values: {}", listed.join(" "));
    }
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The `pit_tensor` worker pool runs every kernel on the calling thread.
    // With a second worker, each of the search's many small dispatches
    // wakes a parked thread, and on a shared host the search's deployment
    // latency spread about twice as wide between seeds (see README.md).
    // Set before the pool first reads it, while this process has one thread.
    std::env::set_var("PIT_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(runs) => repeat(&args, runs),
        None => run_once(&args),
    }
}
