//! The repository's benchmark: four workloads driven through the crates'
//! public functions, one result line per run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that produces the per-layer metrics (and the cross-checks that
//! need an oracle twin). `--smoke` shrinks every workload to a few
//! milliseconds for the self-test; `--corrupt` feeds a deliberately wrong
//! value into one output check, which must surface as a failed op.
//!
//! Standard output carries two JSON lines: a `record` (provenance, sample
//! counts, check details) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `run.py` wraps this
//! binary, adds build provenance to the record and validates the result.

mod control;
mod federated;
mod lastmile;

use std::fmt::Write as _;
use std::time::Instant;

/// Command-line options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt: bool,
}

/// What one benchmark run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra record fields, already JSON-encoded.
    pub record: Vec<(&'static str, String)>,
    /// Names of the output checks that failed (empty on a clean run).
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, json: String) {
        self.record.push((key, json));
    }

    /// Record the 10th, 50th and 90th percentiles of the op walls `ms`.
    pub fn note_op_percentiles(&mut self, ms: &[f64]) {
        self.note("op_ms_p10", format!("{:?}", percentile(ms, 10.0)));
        self.note("op_ms_p50", format!("{:?}", median(ms)));
        self.note("op_ms_p90", format!("{:?}", percentile(ms, 90.0)));
    }

    /// Count one op; a failed check fails it and is named in the record.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }
}

/// Per-stage metric name → the span the audit records for that kernel.
pub const STAGE_SPANS: [(&str, &str); 5] = [
    ("toposense.stage1_ms", "stage1_congestion"),
    ("toposense.stage2_ms", "stage2_capacity"),
    ("toposense.stage3_ms", "stage3_bottleneck"),
    ("toposense.stage4_ms", "stage4_sharing"),
    ("toposense.stage5_ms", "stage5_subscription"),
];

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// splitmix64 fold: the benchmark's fingerprint and seed-derivation mix.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Keeps running ops until the time budget is spent: the next op starts
/// only if its expected length (the mean so far) still fits, and at least
/// `min_ops` run regardless.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Budget { start: Instant::now(), seconds, min_ops, done: 0 }
    }

    pub fn another(&mut self) -> bool {
        let go = if self.done < self.min_ops {
            true
        } else {
            let spent = secs(self.start);
            spent + spent / self.done as f64 <= self.seconds
        };
        if go {
            self.done += 1;
        }
        go
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

const WORKLOADS: [&str; 4] =
    ["lastmile_closed_loop", "federated_sharded", "controller_steady", "controller_churn"];

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut smoke, mut corrupt) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let opts = Opts { seed, seconds, trace, smoke, corrupt };
    let mut out = match workload.as_str() {
        "lastmile_closed_loop" => lastmile::run(&opts),
        "federated_sharded" => federated::run(&opts),
        "controller_steady" => control::run(&opts, control::Membership::Steady),
        "controller_churn" => control::run(&opts, control::Membership::Churn),
        _ => usage(),
    };
    if !trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rec = String::new();
    write!(
        rec,
        "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"smoke\": {smoke}, \"available_parallelism\": {available}, \
         \"rayon_threads\": {}",
        trace as u8,
        rayon::current_num_threads()
    )
    .unwrap();
    for (k, v) in &out.record {
        write!(rec, ", \"{k}\": {v}").unwrap();
    }
    let failures: Vec<String> = out.check_failures.iter().map(|f| format!("{f:?}")).collect();
    write!(rec, ", \"check_failures\": [{}]}}}}", failures.join(", ")).unwrap();
    println!("{rec}");

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}").unwrap();
    }
    line.push_str("}}");
    println!("{line}");
}
