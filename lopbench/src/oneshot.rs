//! `oneshot` — the publisher's path: sequential `lopacify anonymize` runs,
//! one child process per op. Each op reads the edge list, runs the greedy
//! session, writes the result and computes the utility report the CLI
//! always prints. No HTTP, queue, cache or journal is involved.
//!
//! The traced run repeats every op in-process through the same public
//! calls the CLI makes, with a span around each layer, and then re-drives
//! each committed trajectory sequentially to time single trials, commits
//! and fork replays.

use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{mix, sys, Opts, Window};
use lopacity::opacity::opacity_report_against_original;
use lopacity::{
    AnonymizationOutcome, AnonymizeConfig, Anonymizer, OpacityEvaluator, Parallelism,
    ProgressObserver, Removal, RemovalInsertion, RunInfo, StepEvent, StoreBackend, TypeSpec,
    TypeSystem,
};
use lopacity_apsp::ApspEngine;
use lopacity_gen::Dataset::{self, AcmDl, Enron, Gnutella};
use lopacity_graph::{io as gio, Edge, Graph};
use lopacity_metrics::{
    distortion, edge_edit_counts, emd_1d, geodesic_distribution, mean_cc_difference, GraphStats,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One fixed anonymization case. θ is 0.8 × the case's initial maxLO;
/// `cap` is the `--max-steps` that keeps slow cases to a few steps.
struct Case {
    label: &'static str,
    dataset: Dataset,
    n: usize,
    l: u8,
    method: &'static str,
    cap: usize,
    /// `--parallelism`: the CLI default `auto`, or `off`.
    parallelism: &'static str,
}

/// A case run with the CLI's default parallelism.
const fn case(
    label: &'static str,
    dataset: Dataset,
    n: usize,
    l: u8,
    method: &'static str,
    cap: usize,
) -> Case {
    Case {
        label,
        dataset,
        n,
        l,
        method,
        cap,
        parallelism: "auto",
    }
}

/// A single-threaded case: its wall time does not depend on whether the
/// host's second CPU happens to be free.
const fn sequential(
    label: &'static str,
    dataset: Dataset,
    n: usize,
    l: u8,
    method: &'static str,
    cap: usize,
) -> Case {
    Case {
        parallelism: "off",
        ..case(label, dataset, n, l, method, cap)
    }
}

/// Both sides of `StoreBackend::Auto`'s 4096-vertex floor (n < 4096 is
/// dense), flat and heavy-tailed degrees, an L = 3 case and an
/// Algorithm 5 case. Caps are set so nearly every seed runs into them: the
/// step count, and with it each op's work and `edits_mean`, then barely
/// depends on the seed (θ at 0.8 × maxLO is often one edit away on flat
/// graphs). The small cases appear more than once, each time on another
/// graph: with 5 ops below and 5 above them, the median op is the middle
/// of five single-threaded dense Gnutella n=2000 runs, spread over the
/// pass so that no short slow spell of the host decides it. With one op
/// per case, the median of 8 very different ops fell on whichever
/// heavy-tailed case landed in the middle.
const FULL: &[Case] = &[
    sequential("gnutella-2k", Gnutella, 2000, 2, "rem", 1),
    case("gnutella-500-l3", Gnutella, 500, 3, "rem", 1),
    case("acm-2k", AcmDl, 2000, 2, "rem", 2),
    sequential("gnutella-2k", Gnutella, 2000, 2, "rem", 1),
    case("gnutella-300-rem-ins", Gnutella, 300, 2, "rem-ins", 1),
    case("gnutella-6k", Gnutella, 6000, 2, "rem", 1),
    sequential("gnutella-2k", Gnutella, 2000, 2, "rem", 1),
    case("gnutella-300-rem-ins", Gnutella, 300, 2, "rem-ins", 1),
    case("enron-500", Enron, 500, 2, "rem", 1),
    sequential("gnutella-2k", Gnutella, 2000, 2, "rem", 1),
    case("gnutella-500-l3", Gnutella, 500, 3, "rem", 1),
    case("acm-5k", AcmDl, 5000, 2, "rem", 2),
    sequential("gnutella-2k", Gnutella, 2000, 2, "rem", 1),
    case("gnutella-300-rem-ins", Gnutella, 300, 2, "rem-ins", 1),
    case("gnutella-10k", Gnutella, 10_000, 2, "rem", 1),
];

const TOY: &[Case] = &[
    case("gnutella-150", Gnutella, 150, 2, "rem", 3),
    sequential("acm-200", AcmDl, 200, 2, "rem", 2),
    case("gnutella-120-rem-ins", Gnutella, 120, 2, "rem-ins", 2),
];

/// Seconds one pass over `FULL` takes on the reference box; `--seconds`
/// is rounded to a whole number of passes (at least one).
const PASS_SECONDS: f64 = 30.0;

/// A case with its generated input and threshold.
struct Input {
    case: &'static Case,
    graph: Graph,
    path: PathBuf,
    theta: f64,
    seed: u64,
}

/// Generates every input, writes it, and computes θ.
fn setup(opts: &Opts, cases: &'static [Case]) -> Result<Vec<Input>, String> {
    cases
        .iter()
        .enumerate()
        .map(|(k, case)| {
            let generated = case.dataset.generate(case.n, mix(opts.seed, k as u64));
            let path = opts.dir.join(format!("in_{k}.txt"));
            let io_err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
            gio::write_edge_list_file(&generated, &path).map_err(|e| io_err(&e))?;
            // The graph as `lopacify` reads it: its loader ignores the
            // vertex-count header, so trailing isolated vertices drop out.
            let graph = gio::read_edge_list_file(&path).map_err(|e| io_err(&e))?;
            let config = AnonymizeConfig::new(case.l, 0.5).with_parallelism(Parallelism::Auto);
            let max_lo = Anonymizer::new(&graph, &TypeSpec::DegreePairs)
                .config(config)
                .initial_assessment();
            let theta = 0.8 * max_lo.as_f64();
            Ok(Input {
                case,
                graph,
                path,
                theta,
                seed: mix(opts.seed, 100 + k as u64) % 1000,
            })
        })
        .collect()
}

/// One child-process op and what the CLI reported.
struct Op {
    input: usize,
    out: PathBuf,
    err: PathBuf,
    latency: f64,
    exit: sys::Exit,
}

/// The fields of the CLI's outcome line
/// (`achieved in K steps (T trials): -R +I edges, maxLO X (×N)`).
struct Reported {
    line: String,
    achieved: bool,
    steps: usize,
    removed: usize,
    inserted: usize,
    max_lo: f64,
}

fn parse_reported(stderr: &str) -> Option<Reported> {
    let line = stderr.lines().next()?.to_string();
    let achieved = !line.starts_with("NOT ");
    let steps = line.split(" in ").nth(1)?.split(' ').next()?.parse().ok()?;
    let edits = line.split(": -").nth(1)?;
    let removed = edits.split(' ').next()?.parse().ok()?;
    let inserted = edits.split(" +").nth(1)?.split(' ').next()?.parse().ok()?;
    let max_lo = line
        .split("maxLO ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    Some(Reported {
        line,
        achieved,
        steps,
        removed,
        inserted,
        max_lo,
    })
}

fn cli_args(input: &Input, out: &Path) -> Vec<String> {
    let c = input.case;
    vec![
        "anonymize".into(),
        "--in".into(),
        input.path.display().to_string(),
        "--out".into(),
        out.display().to_string(),
        "--l".into(),
        c.l.to_string(),
        "--theta".into(),
        format!("{}", input.theta),
        "--method".into(),
        c.method.into(),
        "--max-steps".into(),
        c.cap.to_string(),
        "--seed".into(),
        input.seed.to_string(),
        "--parallelism".into(),
        c.parallelism.into(),
    ]
}

/// The timed window: every op, sequentially, one child each.
fn window(opts: &Opts, inputs: &[Input], passes: usize) -> Result<(Vec<Op>, f64), String> {
    let lopacify = opts.bin_dir.join("lopacify");
    let mut ops = Vec::with_capacity(passes * inputs.len());
    let start = Instant::now();
    for pass in 0..passes {
        for (k, input) in inputs.iter().enumerate() {
            let out = opts.dir.join(format!("out_{pass}_{k}.txt"));
            let err = opts.dir.join(format!("err_{pass}_{k}.txt"));
            let stderr =
                std::fs::File::create(&err).map_err(|e| format!("{}: {e}", err.display()))?;
            let t = Instant::now();
            let child = Command::new(&lopacify)
                .args(cli_args(input, &out))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawning lopacify: {e}"))?;
            let exit = sys::wait_sampled(&child)?;
            ops.push(Op {
                input: k,
                out,
                err,
                latency: t.elapsed().as_secs_f64(),
                exit,
            });
        }
    }
    Ok((ops, start.elapsed().as_secs_f64()))
}

/// Checks one op's output; returns what the CLI reported.
fn check(op: &Op, input: &Input) -> Result<Reported, String> {
    let stderr = std::fs::read_to_string(&op.err).map_err(|e| format!("reading stderr: {e}"))?;
    let rep = parse_reported(&stderr).ok_or_else(|| format!("unparsable report {stderr:?}"))?;
    let capped = !rep.achieved && rep.steps == input.case.cap;
    match op.exit.code {
        Some(0) if rep.achieved => {}
        Some(3) if capped => {}
        code => return Err(format!("exit {code:?} with report {:?}", rep.line)),
    }
    let file = std::fs::File::open(&op.out).map_err(|e| format!("output: {e}"))?;
    let published = gio::read_edge_list_with_header(file).map_err(|e| format!("output: {e}"))?;
    if published.num_vertices() != input.graph.num_vertices() {
        return Err("output changed the vertex set".into());
    }
    let alg1 = opacity_report_against_original(
        &input.graph,
        &published,
        &TypeSpec::DegreePairs,
        input.case.l,
    );
    if (alg1.max_lo.as_f64() - rep.max_lo).abs() > 5.1e-5 {
        return Err(format!(
            "Algorithm 1 gives maxLO {} but the CLI reported {}",
            alg1.max_lo, rep.max_lo
        ));
    }
    if edge_edit_counts(&input.graph, &published) != (rep.removed, rep.inserted) {
        return Err(format!(
            "output differs from input by {:?}, reported -{} +{}",
            edge_edit_counts(&input.graph, &published),
            rep.removed,
            rep.inserted
        ));
    }
    Ok(rep)
}

/// The window, the inputs, and what the CLI reported per op (`None` when
/// the op failed its checks).
type Measured = (Window, Vec<Input>, Vec<Option<Reported>>);

/// Runs set-up `SETUP_REPEATS` times (keeping the last) and the window,
/// then checks every output.
fn measured(opts: &Opts, out: &mut Outcome) -> Result<Measured, String> {
    let cases = if opts.toy { TOY } else { FULL };
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        inputs = setup(opts, cases)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let passes = ((opts.seconds / PASS_SECONDS).round() as usize).max(1);
    let (ops, wall_s) = window(opts, &inputs, passes)?;
    let mut reports = Vec::with_capacity(ops.len());
    let mut failed = 0;
    for op in &ops {
        match check(op, &inputs[op.input]) {
            Ok(rep) => reports.push(Some(rep)),
            Err(e) => {
                failed += 1;
                out.fail_check(format!("{}: {e}", inputs[op.input].case.label));
                reports.push(None);
            }
        }
    }
    let w = Window {
        setup_s,
        latencies: ops.iter().map(|op| op.latency).collect(),
        wall_s,
        cpu_s: ops.iter().map(|op| op.exit.cpu_s).sum(),
        peak_rss_mb: ops.iter().map(|op| op.exit.peak_rss_mb).fold(0.0, f64::max),
        edits: reports
            .iter()
            .flatten()
            .map(|r| (r.removed + r.inserted) as f64)
            .collect(),
        attempted: ops.len() as u64,
        failed,
    };
    // Paths name this run's scratch directory, so the digest covers what
    // the op is instead: case, θ, seed and the input graph.
    let ops_digest = crate::digest(inputs.iter().map(|i| {
        let graph = lopacity_daemon::job::graph_hash(&i.graph);
        format!("{} {} {} {graph:016x}", i.case.label, i.theta, i.seed)
    }));
    out.note(format!(
        "{} cases x {passes} pass(es); op-list digest {ops_digest:016x}",
        inputs.len()
    ));
    for (op, rep) in ops.iter().zip(&reports) {
        let label = inputs[op.input].case.label;
        let line = rep.as_ref().map_or("-", |r| r.line.as_str());
        out.note(format!(
            "{label}: {:.3} s, {:.2} cpu-s, {:.1} MB: {line}",
            op.latency, op.exit.cpu_s, op.exit.peak_rss_mb
        ));
    }
    Ok((w, inputs, reports))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("oneshot");
    let (untraced, inputs, reports) = measured(opts, &mut out)?;
    if !opts.trace {
        crate::end_to_end(&mut out, &untraced);
        return Ok(out);
    }
    let (traced, layers) = traced(opts, &inputs, &reports, &mut out)?;
    crate::per_layer(&mut out, &layers, &untraced, &traced);
    Ok(out)
}

/// Progress observer that timestamps the run start and every step.
#[derive(Default)]
struct StepClock {
    start: Option<Instant>,
    /// `(when, cumulative removed, cumulative inserted)` per step.
    steps: Vec<(Instant, usize, usize)>,
}

impl ProgressObserver for StepClock {
    fn on_run_start(&mut self, _info: &RunInfo<'_>) {
        self.start = Some(Instant::now());
    }

    fn on_step(&mut self, event: &StepEvent) {
        self.steps
            .push((Instant::now(), event.removed, event.inserted));
    }
}

/// One op in-process, through the calls `lopacify anonymize` makes, with a
/// span per layer. Returns the outcome, the step clock and the store kind.
fn traced_op(
    input: &Input,
    out_path: &PathBuf,
    tr: &mut Tracer,
) -> Result<(AnonymizationOutcome, StepClock, bool, usize), String> {
    let c = input.case;
    let spec = TypeSpec::DegreePairs;
    let parallelism: Parallelism = c.parallelism.parse().expect("case parallelism parses");
    let op = tr.enter("op");
    let graph = tr
        .span("io.parse", || gio::read_edge_list_file(&input.path))
        .map_err(|e| e.to_string())?;
    let types = tr.span("types.build", || TypeSystem::build(&graph, &spec));
    let ev = tr.span("apsp.build", || {
        OpacityEvaluator::with_type_system(
            graph.clone(),
            types,
            c.l,
            ApspEngine::default(),
            parallelism,
            StoreBackend::Auto,
        )
    });
    let (sparse, store_bytes) = (ev.dist_store().is_sparse(), ev.dist_store().storage_bytes());
    let config = AnonymizeConfig::new(c.l, input.theta)
        .with_lookahead(1)
        .with_seed(input.seed)
        .with_parallelism(parallelism)
        .with_store(StoreBackend::Auto)
        .with_max_steps(c.cap);
    let mut clock = StepClock::default();
    let run = tr.enter("session.run");
    let outcome = {
        let mut session = Anonymizer::new(&graph, &spec)
            .config(config)
            .observer(&mut clock);
        session.adopt_prepared(ev);
        match c.method {
            "rem-ins" => session.run_once(RemovalInsertion::default()),
            _ => session.run_once(Removal),
        }
    };
    let mut prev = clock.start.unwrap_or_else(Instant::now);
    for &(at, _, _) in &clock.steps {
        tr.record("session.step", prev, at);
        prev = at;
    }
    tr.exit(run);
    tr.span("io.render", || {
        gio::write_edge_list_file(&outcome.graph, out_path)
    })
    .map_err(|e| e.to_string())?;
    utility_report(&graph, &outcome.graph, tr);
    tr.exit(op);
    Ok((outcome, clock, sparse, store_bytes))
}

/// `UtilityReport::compute`, call for call, with the geodesic and
/// spectral parts in their own spans.
fn utility_report(original: &Graph, published: &Graph, tr: &mut Tracer) {
    let id = tr.enter("metrics.utility");
    let counts = edge_edit_counts(original, published);
    let deg = (
        GraphStats::degree_histogram(original),
        GraphStats::degree_histogram(published),
    );
    let geo = tr.span("metrics.geodesic", || {
        (
            geodesic_distribution(original),
            geodesic_distribution(published),
        )
    });
    let d = distortion(original, published);
    let emd = (emd_1d(&deg.0, &deg.1), emd_1d(&(geo.0).0, &(geo.1).0));
    let cc = mean_cc_difference(original, published);
    let lambda = tr.span("metrics.spectral", || {
        (lopacity_metrics::spectral::spectral_summary(original).lambda1
            - lopacity_metrics::spectral::spectral_summary(published).lambda1)
            .abs()
    });
    std::hint::black_box((counts, d, emd, cc, lambda));
    tr.exit(id);
}

/// Counts and seconds of the sequential re-drives (scan time is
/// `remove_s + insert_s`).
#[derive(Default)]
struct Redrive {
    remove_trials: u64,
    remove_s: f64,
    insert_trials: u64,
    insert_s: f64,
    applies: u64,
    apply_s: f64,
    replays: u64,
    replay_s: f64,
}

/// Re-runs every step's candidate scan sequentially (`trial_remove` /
/// `trial_insert` on one evaluator), then commits the step's recorded
/// moves with `apply_*` and replays each `commit_delta` onto a fork,
/// adding the counts and times to `r`.
fn redrive(input: &Input, outcome: &AnonymizationOutcome, clock: &StepClock, r: &mut Redrive) {
    let c = input.case;
    let spec = TypeSpec::DegreePairs;
    let mut ev = OpacityEvaluator::with_options(
        input.graph.clone(),
        &spec,
        c.l,
        ApspEngine::default(),
        Parallelism::Off,
        StoreBackend::Auto,
    );
    let mut fork = ev.clone();
    let (mut removed_set, mut inserted_set) = (HashSet::new(), HashSet::new());
    let (mut prev_r, mut prev_i) = (0, 0);
    for &(_, cum_r, cum_i) in &clock.steps {
        let cands: Vec<Edge> = ev
            .graph()
            .edges()
            .filter(|e| !inserted_set.contains(e))
            .collect();
        let t = Instant::now();
        for &e in &cands {
            std::hint::black_box(ev.trial_remove(e));
        }
        r.remove_s += t.elapsed().as_secs_f64();
        r.remove_trials += cands.len() as u64;
        for &e in &outcome.removed[prev_r..cum_r] {
            let t = Instant::now();
            let token = ev.apply_remove(e);
            r.apply_s += t.elapsed().as_secs_f64();
            r.applies += 1;
            let t = Instant::now();
            fork.replay_commit(&ev.commit_delta(&token));
            r.replay_s += t.elapsed().as_secs_f64();
            r.replays += 1;
            removed_set.insert(e);
        }
        if c.method == "rem-ins" {
            let cands: Vec<Edge> = ev
                .graph()
                .non_edges()
                .filter(|e| !removed_set.contains(e))
                .collect();
            let t = Instant::now();
            for &e in &cands {
                std::hint::black_box(ev.trial_insert(e));
            }
            r.insert_s += t.elapsed().as_secs_f64();
            r.insert_trials += cands.len() as u64;
            for &e in &outcome.inserted[prev_i..cum_i] {
                let token = ev.apply_insert(e);
                let t = Instant::now();
                fork.replay_commit(&ev.commit_delta(&token));
                r.replay_s += t.elapsed().as_secs_f64();
                r.replays += 1;
                inserted_set.insert(e);
            }
        }
        (prev_r, prev_i) = (cum_r, cum_i);
    }
}

/// The traced run: every op in-process with spans, then the re-drives.
fn traced(
    opts: &Opts,
    inputs: &[Input],
    reports: &[Option<Reported>],
    out: &mut Outcome,
) -> Result<(Window, HashMap<&'static str, f64>), String> {
    let passes = reports.len() / inputs.len();
    let mut tr = Tracer::new(true, Instant::now());
    let mut latencies = Vec::new();
    let mut runs = Vec::new();
    let start = Instant::now();
    for pass in 0..passes {
        for (k, input) in inputs.iter().enumerate() {
            tr.set_op((pass * inputs.len() + k) as u64);
            let path = opts.dir.join(format!("traced_{pass}_{k}.txt"));
            let t = Instant::now();
            let run = traced_op(input, &path, &mut tr)?;
            latencies.push(t.elapsed().as_secs_f64());
            runs.push((k, run));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut redrives = Redrive::default();
    let (mut steps, mut observed_step_s, mut trials, mut edits, mut dense, mut store_mb) =
        (0, 0.0, 0u64, 0usize, 0, 0.0f64);
    for (op, (k, (outcome, clock, sparse, store_bytes))) in runs.iter().enumerate() {
        // The in-process replica must reproduce what the CLI reported.
        if let Some(rep) = &reports[op] {
            let mine = outcome.to_string();
            if mine != rep.line {
                out.fail_check(format!(
                    "{}: in-process replica reported {mine:?}, CLI {:?}",
                    inputs[*k].case.label, rep.line
                ));
            }
        }
        let before = redrives.remove_trials + redrives.insert_trials;
        redrive(&inputs[*k], outcome, clock, &mut redrives);
        let made = redrives.remove_trials + redrives.insert_trials - before;
        if made != outcome.trials {
            out.note(format!(
                "{}: re-drive made {made} trials, run {}",
                inputs[*k].case.label, outcome.trials
            ));
        }
        let mut prev = clock.start.unwrap_or_else(Instant::now);
        for &(at, _, _) in &clock.steps {
            observed_step_s += at.duration_since(prev).as_secs_f64();
            prev = at;
        }
        steps += outcome.steps;
        trials += outcome.trials;
        edits += outcome.edits();
        dense += usize::from(!sparse);
        store_mb = store_mb.max(*store_bytes as f64 / (1024.0 * 1024.0));
    }
    let ops = runs.len() as f64;
    let (op_wall, _) = tr.totals("op");
    let times = tr.self_times();
    let per_op = |name: &str| report::ratio(times.get(name).map_or(0.0, |e| e.0), ops);
    let us = 1e6;
    let layers: HashMap<&'static str, f64> = HashMap::from([
        ("io.parse_s", per_op("io.parse")),
        ("io.render_s", per_op("io.render")),
        ("types.build_s", per_op("types.build")),
        ("apsp.build_s", per_op("apsp.build")),
        ("apsp.dense_frac", report::ratio(dense as f64, ops)),
        ("apsp.store_mb", store_mb),
        ("session.steps", report::ratio(steps as f64, ops)),
        (
            "session.step_s",
            report::ratio(observed_step_s, steps as f64),
        ),
        ("evaluator.trials", report::ratio(trials as f64, ops)),
        (
            "evaluator.trials_per_edit",
            report::ratio(trials as f64, edits as f64),
        ),
        (
            "evaluator.trial_remove_us",
            us * report::ratio(redrives.remove_s, redrives.remove_trials as f64),
        ),
        (
            "evaluator.trial_insert_us",
            us * report::ratio(redrives.insert_s, redrives.insert_trials as f64),
        ),
        (
            "evaluator.apply_remove_us",
            us * report::ratio(redrives.apply_s, redrives.applies as f64),
        ),
        (
            "evaluator.replay_us",
            us * report::ratio(redrives.replay_s, redrives.replays as f64),
        ),
        (
            "evaluator.scan_parallel_x",
            report::ratio(redrives.remove_s + redrives.insert_s, observed_step_s),
        ),
        ("metrics.geodesic_s", per_op("metrics.geodesic")),
        ("metrics.spectral_s", per_op("metrics.spectral")),
        ("metrics.utility_s", per_op("metrics.utility")),
        (
            "oneshot.unaccounted_frac",
            report::ratio(times.get("op").map_or(0.0, |e| e.0), op_wall),
        ),
    ]);
    let session_self = per_op("session.run");
    out.note(format!(
        "session.run self time (set-up and tail outside steps) {session_self:.6} s per op"
    ));
    let path = opts
        .keep_dir
        .join(format!("trace-oneshot-seed{}.tsv", opts.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    let w = Window {
        setup_s: Vec::new(),
        latencies,
        wall_s,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        edits: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    Ok((w, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_outcome_line() {
        let r = parse_reported(
            "NOT achieved in 4 steps (19122 trials): -3 +1 edges, maxLO 0.5000 (×1)\n",
        )
        .unwrap();
        assert!(!r.achieved);
        assert_eq!((r.steps, r.removed, r.inserted), (4, 3, 1));
        assert_eq!(r.max_lo, 0.5);
        let r =
            parse_reported("achieved in 2 steps (38881 trials): -2 +0 edges, maxLO 0.0600 (×1)")
                .unwrap();
        assert!(r.achieved);
    }
}
