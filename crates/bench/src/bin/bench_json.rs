//! Machine-readable benchmark runner and regression gate.
//!
//! ```text
//! bench_json [--quick | --full] [--suites LIST] [--out PATH]
//!     Runs benchmark suites and writes the JSON report (stdout when --out
//!     is omitted). --suites is a comma-separated subset of
//!     conv,masking,search,infer,quant,serve,scale; the default
//!     (conv,masking,search) is the committed BENCH_conv.json record set,
//!     `--suites infer` is BENCH_infer.json, `--suites quant` is
//!     BENCH_int8.json, `--suites serve` is BENCH_serve.json and
//!     `--suites scale` is BENCH_scale.json. --quick is the default and
//!     what CI and all committed baselines use.
//!
//! bench_json median [--out PATH] <run.json>...
//!     Per-record medians of several runs of the same suites: for each
//!     record, the whole record of the run with the median ns_per_iter
//!     (stdout when --out is omitted). Refuses runs whose modes or record
//!     sets differ. Committed baselines are written this way.
//!
//! bench_json compare <baseline.json> <current.json>
//!            [--tolerance F] [--normalize]
//!     Diffs a fresh run against a committed baseline. Fails (exit 1) when a
//!     baseline record is missing or slower than tolerance × its baseline
//!     time. --normalize divides out the median machine-speed ratio first,
//!     which is what CI uses to compare runner hardware against the
//!     baseline-recording machine.
//! ```
//!
//! Refresh the baseline with `scripts/bench-baseline.sh` (never by hand).

use pit_bench::json::Json;
use pit_bench::perf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_json [--quick|--full] [--suites conv,masking,search,infer,quant,serve,scale] [--out PATH]\n\
         \u{20}      bench_json compare <baseline.json> <current.json> [--tolerance F] [--normalize]\n\
         \u{20}      bench_json median [--out PATH] <run.json>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("median") => run_median(&args[1..]),
        _ => run_suites(&args),
    }
}

/// A report's records and the mode it was recorded with.
type Loaded = (Vec<perf::BenchRecord>, Option<String>);

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mode = perf::document_mode(&doc).map(str::to_string);
    let records = perf::records_from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok((records, mode))
}

/// Writes a report to `out_path`, or to stdout when there is none.
fn write_report(records: &[perf::BenchRecord], mode: &str, out_path: Option<&str>) -> ExitCode {
    let text = perf::records_to_json(records, mode).render();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("bench_json: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {path} ({} records)", records.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn run_suites(args: &[String]) -> ExitCode {
    let mut quick = true;
    let mut out_path: Option<String> = None;
    let mut suites: Vec<String> = ["conv", "masking", "search"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--suites" => match it.next() {
                Some(list) => {
                    suites = list.split(',').map(|s| s.trim().to_string()).collect();
                }
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let mode = if quick { "quick" } else { "full" };
    eprintln!("running {mode} suites ({})...", suites.join(", "));
    let records = match perf::run_named_suites(&suites, quick) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench_json: {e}");
            return usage();
        }
    };
    for r in &records {
        eprintln!(
            "  {:<28} {:<28} {:>12.0} ns/iter  {:>8.2} {}",
            r.op, r.shape, r.ns_per_iter, r.throughput, r.throughput_unit
        );
    }
    write_report(&records, mode, out_path.as_deref())
}

fn run_median(args: &[String]) -> ExitCode {
    let mut out_path: Option<&str> = None;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(p),
                None => return usage(),
            },
            _ if !arg.starts_with('-') => paths.push(arg),
            _ => return usage(),
        }
    }
    let runs = match paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>() {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("bench_json: {e}");
            return ExitCode::from(2);
        }
    };
    match perf::median_records(&runs) {
        Ok(records) => {
            let mode = runs[0].1.as_deref().unwrap_or("quick");
            eprintln!("per-record medians of {} runs", runs.len());
            write_report(&records, mode, out_path)
        }
        Err(e) => {
            eprintln!("bench_json: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut tolerance = 2.0f64;
    let mut normalize = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t > 0.0 => tolerance = t,
                _ => return usage(),
            },
            "--normalize" => normalize = true,
            _ if !arg.starts_with('-') => paths.push(arg),
            _ => return usage(),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return usage();
    };
    let ((baseline, base_mode), (current, cur_mode)) =
        match (load(baseline_path), load(current_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_json: {e}");
                return ExitCode::from(2);
            }
        };
    // A quick-mode run can never match a full-mode baseline's record keys
    // (different shapes); fail with a diagnosis instead of a wall of MISSING.
    if let (Some(bm), Some(cm)) = (&base_mode, &cur_mode) {
        if bm != cm {
            eprintln!(
                "bench_json: mode mismatch: baseline {baseline_path} was recorded with \
                 --{bm} but {current_path} ran --{cm}; regenerate the baseline with the \
                 matching mode (scripts/bench-baseline.sh)"
            );
            return ExitCode::from(2);
        }
    }
    let report = perf::compare(&baseline, &current, tolerance, normalize);
    print!("{}", report.render());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
