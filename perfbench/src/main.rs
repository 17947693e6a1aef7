//! Benchmark of the SDP optimizer and its plan service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dp-exhaustive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one client thread, one enumeration thread. Prints one
//! line per metric (name, value, unit, samples), then as its last line
//! a JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero, without the JSON line, when an output
//! check fails or an operation errors. See `perfbench/README.md`.

mod host;
mod layers;
mod optimizer;
mod service;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use stats::median;

#[global_allocator]
static ALLOCATOR: host::BenchAllocator = host::BenchAllocator;

/// End-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("opt_ms_gm", "ms"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("plans_costed", "plans/call"),
    ("memo_peak_mb", "MB"),
    ("heap_peak_mb", "MB"),
    ("plan_cost_gm", "cost"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a
/// layer a workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.opt_ms_gm", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.alloc_probe_ms", "ms"),
    ("enumerate.pairs", "pairs/call"),
    ("enumerate.ms", "ms"),
    ("enumerate.ns_per_pair", "ns"),
    ("enumerate.share", "share"),
    ("costing.ms", "ms"),
    ("costing.plans", "plans/call"),
    ("costing.ns_per_plan", "ns"),
    ("costing.allocs_per_plan", "allocs"),
    ("costing.share", "share"),
    ("prune.ms", "ms"),
    ("prune.partitions", "count/call"),
    ("prune.survivors", "count/call"),
    ("prune.keep_ratio", "share"),
    ("prune.order_rescued", "count/call"),
    ("prune.sort_enforcers", "count/call"),
    ("prune.share", "share"),
    ("memo.groups_peak", "count"),
    ("memo.model_mb", "MB"),
    ("finalize.ms", "ms"),
    ("finalize.share", "share"),
    ("sql.parse_us", "us"),
    ("sql.bytes_per_req", "bytes"),
    ("fingerprint.us", "us"),
    ("cache.probe_us", "us"),
    ("cache.hit_ratio", "share"),
    ("cache.evicted", "count/replay"),
    ("cache.stale_evicted", "count/replay"),
    ("governor.miss_ms", "ms"),
    ("governor.plans_per_miss", "plans"),
    ("governor.degradations", "count/replay"),
    ("store.writes", "count/replay"),
    ("store.write_errors", "count/replay"),
    ("store.bytes", "bytes/replay"),
    ("store.flush_ms", "ms"),
    ("singleflight.coalesced", "count/replay"),
];

/// Set-ups per run, spread evenly over the measured interval;
/// `setup_s` is their median, so a slow phase of the host that covers
/// part of the run does not decide it.
pub const SETUPS: usize = 15;

const WORKLOADS: &[&str] = &["dp-exhaustive", "sdp-large", "service-sql"];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    fn parse(args: &[String]) -> Result<Run, String> {
        let mut run = Run {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => run.workload = value.clone(),
                "--seed" => run.seed = number()?,
                "--seconds" => run.seconds = number()?,
                "--trace" => run.trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(1..=600).contains(&run.seconds) {
            return Err("--seconds must be between 1 and 600".into());
        }
        Ok(run)
    }
}

/// Why a run stopped early: an operation returned an error, or an
/// output failed a check.
#[derive(Debug)]
pub enum Stop {
    Failed(String),
    Incorrect(String),
}

/// Metrics and notes a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// `(name, unit, value, samples)`.
    metrics: Vec<(&'static str, &'static str, f64, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Record metric `name` (which must be declared above) with a
    /// description of its samples.
    pub fn metric(&mut self, name: &str, value: f64, samples: &str) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.push((name, unit, value, samples.to_string()));
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup_metric(&mut self, seconds: &[f64]) {
        let samples = format!("median of {} set-ups", seconds.len());
        self.metric("setup_s", median(seconds), &samples);
        self.note(format!("set-ups (s): {seconds:?}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Small deterministic generator (SplitMix64) for schedules.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x05ee_d0fb_e7c4_a110)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// The result line. It is printed only for a run in which every output
/// check passed and no operation failed; any failure exits early.
fn json_result(attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match Run::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        host::environment()
    );
    println!("settings: 1 client thread, parallelism 1, enumerator levelscan");
    if run.trace {
        host::count_alloc_calls();
    }
    let probe_start = host::alloc_probe_ms();
    let mut report = Report::default();
    let result = match run.workload.as_str() {
        "dp-exhaustive" => optimizer::run(
            optimizer::Kind::DpExhaustive,
            &run,
            process_start,
            &mut report,
        ),
        "sdp-large" => optimizer::run(optimizer::Kind::SdpLarge, &run, process_start, &mut report),
        _ => service::run(&run, process_start, &mut report),
    };
    let probe_end = host::alloc_probe_ms();
    println!("host.alloc_probe_ms start={probe_start:.4} end={probe_end:.4}");
    match result {
        Ok(()) => {}
        Err(Stop::Failed(e)) => {
            eprintln!("perfbench: operation failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(Stop::Incorrect(e)) => {
            eprintln!("perfbench: output check failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if run.trace {
        report.metric(
            "host.alloc_probe_ms",
            (probe_start + probe_end) / 2.0,
            "mean of start and end probes",
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit, value, samples) in &report.metrics {
        println!("{name:<26} {value:>16.6} {unit:<12} ({samples})");
    }
    let selected = if run.trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<(&str, f64, &str)> = selected
        .iter()
        // A layer this workload does not reach reads 0.
        .map(|&(name, unit)| (name, report.value(name).unwrap_or(0.0), unit))
        .collect();
    println!("{}", json_result(report.attempted, &printed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = Rng::new(3).permutation(10);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, Rng::new(3).permutation(10));
        assert_ne!(a, Rng::new(4).permutation(10));
    }

    #[test]
    fn every_metric_is_declared_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = json_result(3, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
