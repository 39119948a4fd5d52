//! `lopbench` — the repository benchmark.
//!
//! One invocation runs one workload against the release `lopacify` /
//! `lopacityd` binaries, checks every output, and prints a readable report
//! on stderr and one JSON result line on stdout:
//!
//! ```text
//! lopbench --workload oneshot|service|churn --seed N --seconds S --trace 0|1
//!          --bin-dir DIR --work DIR [--scale full|toy]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` repeats the
//! workload untraced and then traced, and reports the per-layer metrics.
//! `--seconds` sizes each workload's fixed op list to about that much work
//! on a 2-vCPU box; the window ends when the list is done, so a faster
//! program finishes sooner instead of doing different work. `NOTES.md`
//! documents the workloads, metrics and layer table.

mod churn;
mod net;
mod oneshot;
mod report;
mod service;
mod sys;
mod trace;

use report::Outcome;
use std::collections::HashMap;
use std::path::PathBuf;

const USAGE: &str = "usage: lopbench --workload oneshot|service|churn --seed N --seconds S \
                     --trace 0|1 --bin-dir DIR --work DIR [--scale full|toy]";

/// Command-line options shared by every workload.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the smoke test.
    pub toy: bool,
    /// Where the release `lopacify` and `lopacityd` live.
    pub bin_dir: PathBuf,
    /// This run's private scratch directory (removed at the end).
    pub dir: PathBuf,
    /// Where span dumps are kept after the run.
    pub keep_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    let seed = get("seed")?.parse().map_err(|_| "--seed: not an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let toy = match map.get("scale").copied().unwrap_or("full") {
        "full" => false,
        "toy" => true,
        other => return Err(format!("--scale: expected full or toy, got {other:?}")),
    };
    let keep_dir = PathBuf::from(get("work")?);
    let dir = keep_dir.join(format!("{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        toy,
        bin_dir: PathBuf::from(get("bin-dir")?),
        dir,
        keep_dir,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("lopbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for bin in ["lopacify", "lopacityd"] {
        if !opts.bin_dir.join(bin).is_file() {
            eprintln!("lopbench: {bin} not found in {}", opts.bin_dir.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("lopbench: {}: {e}", opts.dir.display());
        std::process::exit(1);
    }
    let result = match opts.workload.as_str() {
        "oneshot" => oneshot::run(&opts),
        "service" => service::run(&opts),
        "churn" => churn::run(&opts),
        other => Err(format!(
            "unknown workload {other:?} (oneshot, service, churn)"
        )),
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    match result {
        Ok(outcome) => {
            outcome.print_readable();
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("lopbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Mixes the run seed with a stream index (SplitMix64 finalizer), so every
/// input the benchmark generates is a pure function of `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x0063_2be5_9bd9_b4e5);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small deterministic PRNG for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a digest of an op list, printed so runs with one seed can be
/// compared for identical inputs.
pub fn digest(parts: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(0)) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// How many times set-up runs per invocation; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The traced run times a no-op exchange (`http.rtt`) after every this
/// many ops, so probing adds little load of its own.
pub const PROBE_EVERY: usize = 4;

/// What one timed window produced, reduced to the end-to-end metrics.
pub struct Window {
    pub setup_s: Vec<f64>,
    /// Per-op latency, seconds (successful and failed ops alike).
    pub latencies: Vec<f64>,
    pub wall_s: f64,
    /// CPU seconds of the program under test during the window.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub edits: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Pushes the end-to-end metrics (the `--trace 0` result).
pub fn end_to_end(out: &mut Outcome, w: &Window) {
    let ops = w.latencies.len() as f64;
    out.attempted = w.attempted;
    out.failed = w.failed;
    let (label, tail, beyond) = report::tail(&w.latencies);
    out.push("setup_s", report::median(&w.setup_s), "s");
    out.push("latency_p50_s", report::median(&w.latencies), "s");
    out.push("latency_tail_s", tail, "s");
    out.push("ops_per_s", report::ratio(ops, w.wall_s), "1/s");
    out.push("cpu_s_per_op", report::ratio(w.cpu_s, ops), "s");
    out.push("peak_rss_mb", w.peak_rss_mb, "MB");
    out.push("edits_mean", report::mean(&w.edits), "edits");
    if label == "max" {
        out.note(format!(
            "latency_tail_s is the maximum of {} ops (too few for a percentile with 10 samples beyond it)",
            w.latencies.len()
        ));
    } else {
        out.note(format!(
            "latency_tail_s is {label} of {} ops ({beyond} samples beyond it)",
            w.latencies.len()
        ));
    }
    out.note(format!(
        "setup_s samples {:?}; window {:.3} s",
        w.setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>(),
        w.wall_s
    ));
}

/// Every per-layer metric, in report order, with its unit. Each traced run
/// prints all of them; a layer the workload never enters reads 0 and is
/// named in a note.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.render_s", "s"),
    ("types.build_s", "s"),
    ("apsp.build_s", "s"),
    ("apsp.dense_frac", "fraction"),
    ("apsp.store_mb", "MB"),
    ("session.steps", "count"),
    ("session.step_s", "s"),
    ("evaluator.trials", "count"),
    ("evaluator.trials_per_edit", "ratio"),
    ("evaluator.trial_remove_us", "us"),
    ("evaluator.trial_insert_us", "us"),
    ("evaluator.apply_remove_us", "us"),
    ("evaluator.replay_us", "us"),
    ("evaluator.scan_parallel_x", "x"),
    ("metrics.geodesic_s", "s"),
    ("metrics.spectral_s", "s"),
    ("metrics.utility_s", "s"),
    ("oneshot.unaccounted_frac", "fraction"),
    ("http.rtt_s", "s"),
    ("http.requests_per_op", "count"),
    ("http.retries_per_op", "count"),
    ("job.parse_s", "s"),
    ("job.resolve_s", "s"),
    ("state.queue_wait_s", "s"),
    ("state.run_s", "s"),
    ("state.cache_hit_ratio", "fraction"),
    ("state.trials_per_op", "count"),
    ("journal.append_p50_s", "s"),
    ("journal.append_p99_s", "s"),
    ("journal.bytes_per_op", "bytes"),
    ("journal.records_per_op", "count"),
    ("result.fetch_s", "s"),
    ("churn.apply_us_per_event", "us"),
    ("churn.changed_cells_per_batch", "count"),
    ("churn.skipped_frac", "fraction"),
    ("churn.repairs", "count"),
    ("churn.repair_s", "s"),
    ("churn.server_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Pushes every per-layer metric (the `--trace 1` result), 0 for those the
/// workload does not exercise, and the traced-vs-untraced deltas.
pub fn per_layer(
    out: &mut Outcome,
    layers: &HashMap<&'static str, f64>,
    untraced: &Window,
    traced: &Window,
) {
    let p50 = |w: &Window| report::median(&w.latencies);
    let rate = |w: &Window| report::ratio(w.latencies.len() as f64, w.wall_s);
    let overhead = report::ratio(p50(traced), p50(untraced)) - 1.0;
    let mut absent = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = match name {
            "trace.overhead_frac" => overhead,
            _ => match layers.get(name) {
                Some(&v) => v,
                None => {
                    absent.push(name);
                    0.0
                }
            },
        };
        out.push(name, value, unit);
    }
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    out.note(format!(
        "tracing overhead: latency_p50_s {:.6} -> {:.6} s ({:+.2}%), ops_per_s {:.4} -> {:.4}",
        p50(untraced),
        p50(traced),
        100.0 * overhead,
        rate(untraced),
        rate(traced)
    ));
    if !absent.is_empty() {
        out.note(format!(
            "not exercised by {} (reported as 0): {}",
            out.workload,
            absent.join(", ")
        ));
    }
}
