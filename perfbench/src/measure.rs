//! Measurement plumbing shared by every workload: exact percentiles, process
//! CPU and peak memory from `/proc`, idle-class CPU spinners, a counting
//! allocator, in-memory spans and the metric sheet the benchmark prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every call that hands out memory
/// (`alloc`, `alloc_zeroed`, `realloc`) while counting is switched on. The
/// traced run switches it on; end-to-end runs leave it off, where the only
/// added cost is one relaxed load per call.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is the one
// place this benchmark needs it. Every method forwards its arguments to
// `System` unchanged, so the allocator keeps `System`'s guarantees.
#[allow(unsafe_code)]
// SAFETY: each method delegates to `System` with the caller's arguments, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; counting
// touches only an atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller guarantees `layout` has a non-zero size, as
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is non-zero, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far (only while counting was on).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Process readings
// ---------------------------------------------------------------------------

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread, live or exited) in
/// seconds, at `/proc`'s 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Idle-class busy loops, one per CPU, for as long as this value lives.
///
/// A vCPU with nothing to run halts, and a thread woken on it then waits
/// until the hypervisor schedules that vCPU again, time the guest counts as
/// steal. The daemon's threads wake each other thousands of times a second,
/// so on a shared host that wait took up to a third of a serving window and
/// changed from minute to minute. A `SCHED_IDLE` loop runs only when its CPU
/// has nothing else to run and yields at once to any woken thread, so no
/// vCPU halts. The loops are child processes, outside the process CPU time
/// the benchmark reports, and each ends by itself once this process is gone.
pub struct Spinners(Vec<Child>);

impl Spinners {
    /// Starts one loop per available CPU.
    ///
    /// # Errors
    ///
    /// Returns a message when a loop cannot be started; those already
    /// started are stopped.
    pub fn start() -> Result<Self, String> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let script = format!(
            "while kill -0 {} 2>/dev/null; do :; done",
            std::process::id()
        );
        let mut spinners = Self(Vec::with_capacity(cpus));
        for _ in 0..cpus {
            let child = Command::new("chrt")
                .args(["--idle", "0", "sh", "-c", &script])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start an idle-class loop with chrt: {e}"))?;
            spinners.0.push(child);
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Exact nearest-rank percentile `p` (0..=1) of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Exact nearest-rank percentile `p` (0..=1) of samples given as ascending
/// `(value, count)` pairs, each value standing for `count` equal samples.
pub fn weighted_percentile(sorted: &[(u64, u64)], p: f64) -> u64 {
    let total: u64 = sorted.iter().map(|&(_, n)| n).sum();
    assert!(total > 0, "percentile of no samples");
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(value, n) in sorted {
        seen += n;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("rank is at most the total count")
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval recorded by the benchmark around a call into a layer.
/// A root span stands for a whole request (one round or search
/// iteration); every other span of the same `request` is its child.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `client.encode`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Whether this is the request's root span.
    pub root: bool,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// In-memory span recorder. Disabled tracers record nothing.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, on: bool) -> Self {
        Self {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`.
    pub fn span(
        &mut self,
        name: &'static str,
        request: u64,
        root: bool,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                request,
                root,
                start_ns,
                end_ns,
            });
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The self time of every root span, in recording order: its duration
    /// minus the part its children cover.
    fn root_self_ns(&self) -> Vec<(&'static str, u64)> {
        let bounds: BTreeMap<u64, (u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.root)
            .map(|s| (s.request, (s.start_ns, s.end_ns)))
            .collect();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.root) {
            if let Some(&(lo, hi)) = bounds.get(&s.request) {
                *covered.entry(s.request).or_default() +=
                    s.end_ns.min(hi).saturating_sub(s.start_ns.max(lo));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.root)
            .map(|s| {
                let child = covered.get(&s.request).copied().unwrap_or(0);
                (
                    s.name,
                    (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(child),
                )
            })
            .collect()
    }

    /// Per span name: (spans, total self time in ns). A child span's self
    /// time is its whole duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let children = self
            .spans
            .iter()
            .filter(|s| !s.root)
            .map(|s| (s.name, s.end_ns.saturating_sub(s.start_ns)));
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (name, ns) in children.chain(self.root_self_ns()) {
            let e = out.entry(name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        out
    }

    /// Median self time (ns) of the root spans named `name`; 0 without any.
    pub fn median_root_self_ns(&self, name: &str) -> f64 {
        let selfs: Vec<f64> = self
            .root_self_ns()
            .into_iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns as f64)
            .collect();
        if selfs.is_empty() {
            0.0
        } else {
            median(&selfs)
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.root { "null" } else { "\"request\"" };
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

// ---------------------------------------------------------------------------
// The metric sheet
// ---------------------------------------------------------------------------

/// Every metric of one run, in insertion order, plus the operation books.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (rounds or search iterations, plus
    /// every correctness check).
    pub attempted: u64,
    /// Operations that failed: refused or ERROR-answered frames, missing,
    /// extra or wrong emissions, failed checks.
    pub failed: u64,
    /// Why each failure was counted, for the report on stderr.
    pub failures: Vec<String>,
}

impl Sheet {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one attempted check, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Prints one `name value unit` line per recorded metric, then, as the
    /// last line of standard output, the result JSON carrying the metrics
    /// named in `declared`. A declared metric the run did not record reads 0:
    /// its layer did no work on this workload. A non-finite value fails the
    /// run.
    pub fn print(&mut self, declared: &[(&str, &'static str)]) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let mut picked = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            if !value.is_finite() {
                self.fail(format!("{name} is not finite"));
            }
            picked.push((name, if value.is_finite() { value } else { 0.0 }, unit));
        }
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in picked.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}
