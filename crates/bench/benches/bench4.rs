//! The machine-readable companion of the `par_scan` / `heuristics`
//! benches: measures the three quantities issue 4 changed — APSP build
//! time (sequential vs sharded), per-step candidate-scan time (with
//! trials/sec), and distance-matrix bytes (nibble-packed vs byte layout) —
//! and writes them as `BENCH_4.json` so the repo accumulates a perf
//! trajectory instead of scrollback folklore.
//!
//! ```text
//! cargo bench -p lopacity-bench --bench bench4 -- \
//!     [--scale smoke|full] [--out DIR] [--check BASELINE.json]
//! ```
//!
//! With `--check`, the run exits non-zero when the **calibrated** scan
//! cost regresses more than 20% against the checked-in baseline. Raw
//! wall-clock is useless as a cross-machine gate, so the gated metric is
//! `scan_per_trial / calibration_unit`: the sequential scan's per-trial
//! cost divided by the runtime of a fixed synthetic kernel (pure
//! arithmetic + pointer-free memory walk, no lopacity code) measured in
//! the same process. CPU speed cancels; algorithmic regressions — say, a
//! reintroduced per-step `O(|V|²)` clone — do not.

use lopacity::{AnonymizeConfig, Anonymizer, Parallelism, Removal, TypeSpec};
use lopacity_apsp::{ApspEngine, DistanceMatrix};
use lopacity_bench::harness::{calibration_unit_secs, json_f, min_secs, BenchArgs};
use lopacity_gen::er::gnm;
use lopacity_graph::Graph;
use std::hint::black_box;

struct Scale {
    name: &'static str,
    n: usize,
    m: usize,
    l: u8,
    steps: usize,
    repeats: usize,
}

const SMOKE: Scale = Scale { name: "smoke", n: 500, m: 1500, l: 2, steps: 2, repeats: 5 };
const FULL: Scale = Scale { name: "full", n: 2000, m: 6000, l: 2, steps: 2, repeats: 3 };

struct ScanMeasurement {
    secs: f64,
    trials: u64,
    steps: usize,
    fork_clones: u64,
}

/// Runs `steps` greedy removal steps (θ pinned far below the instance's
/// maxLO so every step really scans) and reports wall-clock + counters.
/// The session build happens outside the timed region — this measures the
/// scan path, not the APSP build.
fn measure_scan(g: &Graph, scale: &Scale, parallelism: Parallelism) -> ScanMeasurement {
    let config = AnonymizeConfig::new(scale.l, 0.05)
        .with_seed(7)
        .with_max_steps(scale.steps)
        .with_parallelism(parallelism);
    let mut session = Anonymizer::new(g, &TypeSpec::DegreePairs).config(config);
    session.initial_assessment(); // force the cached build eagerly
    let mut out = None;
    let secs = min_secs(scale.repeats, || {
        out = Some(session.run(Removal));
    });
    let out = out.expect("at least one repeat ran");
    ScanMeasurement { secs, trials: out.trials, steps: out.steps, fork_clones: out.fork_clones }
}

fn main() {
    let args = BenchArgs::from_env(&["smoke", "full"], "smoke");
    let scale = if args.scale == "full" { &FULL } else { &SMOKE };

    let workers_detected = Parallelism::Auto.workers();
    eprintln!(
        "bench4: scale={} (n={}, m={}, L={}), {} detected core(s)",
        scale.name, scale.n, scale.m, scale.l, workers_detected
    );

    let g = gnm(scale.n, scale.m, 9);
    let calib = calibration_unit_secs();
    eprintln!("bench4: calibration unit {:.1} ms", calib * 1e3);

    // --- APSP build: sequential vs sharded --------------------------------
    let build_seq = min_secs(scale.repeats, || {
        black_box(ApspEngine::TruncatedBfs.compute_with(&g, scale.l, Parallelism::Off));
    });
    let build_par = min_secs(scale.repeats, || {
        black_box(ApspEngine::TruncatedBfs.compute_with(
            &g,
            scale.l,
            Parallelism::Fixed(workers_detected),
        ));
    });
    eprintln!(
        "bench4: build seq {:.1} ms, sharded({workers_detected}) {:.1} ms",
        build_seq * 1e3,
        build_par * 1e3
    );

    // --- Candidate scan: Off / Auto / Fixed(2) / Fixed(4) -----------------
    let seq = measure_scan(&g, scale, Parallelism::Off);
    assert!(seq.steps > 0 && seq.trials > 0, "scan instance must actually step");
    let per_trial_seq = seq.secs / seq.trials as f64;
    let mut scan_rows = vec![(
        "off".to_string(),
        seq.secs,
        seq.trials,
        seq.fork_clones,
    )];
    for parallelism in
        [Parallelism::Auto, Parallelism::Fixed(2), Parallelism::Fixed(4)]
    {
        let m = measure_scan(&g, scale, parallelism);
        assert_eq!(m.trials, seq.trials, "trial counts are parallelism-invariant");
        scan_rows.push((parallelism.to_string(), m.secs, m.trials, m.fork_clones));
    }
    for (label, secs, trials, clones) in &scan_rows {
        eprintln!(
            "bench4: scan {label}: {:.1} ms, {:.0} trials/s, {clones} fork clone(s)",
            secs * 1e3,
            *trials as f64 / secs
        );
    }

    // --- Matrix footprint -------------------------------------------------
    let packed = DistanceMatrix::new(scale.n, scale.l);
    let byte = DistanceMatrix::new_byte(scale.n);
    let ratio = packed.storage_bytes() as f64 / byte.storage_bytes() as f64;
    assert!(packed.is_packed() && ratio <= 0.55, "packed layout must stay under 0.55x");

    let normalized_scan = per_trial_seq / calib;
    let scan_json: Vec<String> = scan_rows
        .iter()
        .map(|(label, secs, trials, clones)| {
            format!(
                "    {{\"parallelism\": \"{label}\", \"secs\": {}, \"trials\": {trials}, \
                 \"trials_per_sec\": {}, \"fork_clones\": {clones}}}",
                json_f(*secs),
                json_f(*trials as f64 / secs)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"lopacity-bench4/v1\",\n  \"scale\": \"{}\",\n  \"n\": {},\n  \
         \"m\": {},\n  \"l\": {},\n  \"workers_detected\": {},\n  \"calibration_unit_secs\": {},\n  \
         \"build\": {{\"seq_secs\": {}, \"sharded_secs\": {}, \"speedup\": {}}},\n  \
         \"scan\": [\n{}\n  ],\n  \"scan_steps\": {},\n  \"scan_per_trial_secs_seq\": {},\n  \
         \"normalized_scan_per_trial\": {},\n  \
         \"matrix\": {{\"pairs\": {}, \"packed_bytes\": {}, \"byte_bytes\": {}, \"ratio\": {}}}\n}}\n",
        scale.name,
        scale.n,
        scale.m,
        scale.l,
        workers_detected,
        json_f(calib),
        json_f(build_seq),
        json_f(build_par),
        json_f(build_seq / build_par),
        scan_json.join(",\n"),
        seq.steps,
        json_f(per_trial_seq),
        json_f(normalized_scan),
        packed.num_pairs(),
        packed.storage_bytes(),
        byte.storage_bytes(),
        json_f(ratio),
    );

    args.write("bench4", "BENCH_4.json", &json);
    let gate = Some(normalized_scan);
    args.check("bench4", "calibrated scan cost", "normalized_scan_per_trial", gate);
}
