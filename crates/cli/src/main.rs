//! `lopacify` — command-line L-opacity anonymization.
//!
//! ```text
//! lopacify anonymize --in graph.txt --out anon.txt --l 2 --theta 0.5
//!          [--method rem|rem-ins|exact|gaded-rand|gaded-max|gades
//!                   |k-degree|kl-adjacency] [--k N] [--ell N]
//!          [--lookahead N] [--seed N] [--max-steps N] [--max-edits N]
//!          [--parallelism auto|off|N] [--store auto|dense|sparse]
//!          [--sweep-mode resume|independent]
//! lopacify compare   --in graph.txt [--json COMPARE.json] [--csv FILE]
//!          --l 2 --theta 0.5 [--k N] [--ell N] [--budget N]
//!          [--ls 1,2,3] [--seed N] [--store auto|dense|sparse]
//! lopacify churn     --in graph.txt --events events.txt --out live.txt
//!          --l 2 --theta 0.5 [--method ...] [--batch N] [--seed N]
//!          [--parallelism auto|off|N] [--store auto|dense|sparse]
//! lopacify opacity   --in graph.txt --l 2 [--original orig.txt]
//! lopacify stats     --in graph.txt
//! lopacify generate  --dataset google --n 500 --out graph.txt [--seed N]
//! lopacify serve     [lopacityd OPTIONS]   (the table: lopacify serve --help)
//! lopacify submit    --spec FILE [--addr HOST:PORT] [--ikey KEY] [--wait] [--out FILE]
//!          [--retries N] [--seed N]
//! ```
//!
//! A flag the subcommand does not take is a usage error (exit 1).
//!
//! Graphs are whitespace-separated edge lists (SNAP format); `#`/`%` lines
//! are comments. `anonymize` prints the run report to stderr and writes the
//! anonymized edge list; `opacity` prints the per-type opacity matrix.
//!
//! `--theta` accepts a comma-separated list (e.g. `--theta 0.9,0.66,0.5`):
//! the θ values run as one [`lopacity::Anonymizer::sweep`] over a shared
//! evaluator build, one CSV row per θ on stdout, with the strictest θ's
//! graph written to `--out`. Under the default resume mode the final graph
//! is byte-identical to a single-θ run at the strictest value.
//!
//! `churn` replays an external edge-event stream (`+ u v` / `- u v`, one
//! per line) against a live [`lopacity::ChurnSession`]: events apply as
//! incremental deltas, each `--batch`-sized window re-reads certification,
//! and violations trigger an in-place repair — one CSV row per batch on
//! stdout, the final graph to `--out`, exit status 3 if the stream ends
//! uncertified.

use lopacity::opacity::{opacity_report, opacity_report_against_original};
use lopacity::{
    AnonymizeConfig, Anonymizer, ChurnSession, EdgeEvent, ExactMinRemovals, Parallelism,
    RepairPatch, Removal, RemovalInsertion, StoreBackend, SweepMode, TypeSpec,
};
use lopacity_baselines::{gaded_max, gaded_rand, gades, Gades, GadedMax, GadedRand};
use lopacity_models::{run_comparison, CompareSpec, KDegreeAnonymity, KLAdjacencyAnonymity};
use lopacity_daemon::config::usage;
use lopacity_daemon::server::boot_and_serve;
use lopacity_daemon::DaemonConfig;
use lopacity_gen::Dataset;
use lopacity_graph::{io as gio, Graph, GraphError};
use lopacity_metrics::{GraphStats, UtilityReport};
use lopacity_util::Args;

/// A CLI failure with its exit status. The exit-code contract (documented
/// in the usage text and README):
///
/// * `1` — I/O failures and usage errors,
/// * `2` — input parse errors (edge lists, event streams),
/// * `3` — θ lost: the run/stream ended with `maxLO > θ` (raised at the
///   `exit(3)` sites in `anonymize`/`churn`, not through this type).
struct CliError {
    code: i32,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError { code: 1, message: message.to_string() }
    }
}

fn main() {
    let args = Args::from_env();
    let command = args.positional(0).unwrap_or("").to_string();
    if args.has_flag("help") {
        match command.as_str() {
            "serve" => print!("{}", usage("lopacify serve")),
            _ => eprint!("{USAGE}"),
        }
        return;
    }
    let result = check_flags(&args, &command).and_then(|()| match command.as_str() {
        "anonymize" => anonymize(&args).map_err(CliError::from),
        "compare" => compare(&args),
        "churn" => churn(&args),
        "serve" => DaemonConfig::from_args(&args)
            .and_then(|config| boot_and_serve(&config))
            .map_err(CliError::from),
        "submit" => submit(&args),
        "opacity" => opacity(&args).map_err(CliError::from),
        "stats" => stats(&args).map_err(CliError::from),
        "generate" => generate(&args).map_err(CliError::from),
        "" | "help" => {
            eprint!("{}", USAGE);
            Ok(())
        }
        other => Err(CliError::from(format!("unknown command {other:?}\n{USAGE}"))),
    });
    if let Err(e) = result {
        eprintln!("error: {}", e.message);
        std::process::exit(e.code);
    }
}

/// Rejects a flag `command` does not take (`serve` checks its own, in
/// [`DaemonConfig::from_args`]).
fn check_flags(args: &Args, command: &str) -> Result<(), CliError> {
    let known: &[&str] = match command {
        "anonymize" => &[
            "in", "out", "l", "theta", "method", "k", "ell", "lookahead", "seed", "max-steps",
            "max-edits", "parallelism", "store", "sweep-mode",
        ],
        "compare" => {
            &["in", "json", "csv", "l", "theta", "k", "ell", "budget", "ls", "seed", "store"]
        }
        "churn" => &[
            "in", "events", "out", "l", "theta", "method", "batch", "seed", "parallelism", "store",
        ],
        "opacity" => &["in", "l", "original", "theta"],
        "stats" => &["in"],
        "generate" => &["dataset", "n", "out", "seed"],
        "submit" => &["spec", "addr", "ikey", "wait", "out", "retries", "seed"],
        _ => return Ok(()),
    };
    match args.unknown_keys(known).first() {
        Some(flag) => Err(format!("unknown option --{flag} for {command} (see --help)").into()),
        None => Ok(()),
    }
}

const USAGE: &str = "\
lopacify — linkage-aware graph anonymization (L-opacity, EDBT 2014)

commands:
  anonymize --in FILE --out FILE --l N --theta X[,X2,...] [--method M]
            [--k N] [--ell N] [--lookahead N] [--seed N] [--max-steps N]
            [--max-edits N] [--parallelism auto|off|N]
            [--store auto|dense|sparse] [--sweep-mode resume|independent]
            methods: rem (default), rem-ins, exact (<= 25 edges),
                     gaded-rand, gaded-max, gades,
                     k-degree, kl-adjacency
            k-degree and kl-adjacency repair toward the rival anonymity
            models (degree-sequence k-anonymity; (k,l)-adjacency
            anonymity) through the same session; they take --k (default
            2) and --ell (default 1), ignore theta for their verdict, and
            exit 3 when their own certifier is not satisfied
            max-edits caps the total edge edits (matched-budget runs)
            parallelism shards the candidate scan and the initial APSP
            build across worker threads; results are identical for every
            setting (default: auto)
            store picks the distance representation: dense O(V^2) matrix,
            sparse within-L lists (unlocks very large graphs), or an
            adaptive choice from the measured within-L density (default:
            auto); results are identical for every setting
            a comma-separated theta list runs a descending sweep over one
            shared evaluator build (methods rem/rem-ins/exact): one CSV row
            per theta on stdout, the strictest theta's graph in --out
            sweep-mode defaults to resume (exact: independent, so every
            theta stays globally minimal)
  churn     --in FILE --events FILE --out FILE --l N --theta X
            [--method M] [--batch N] [--seed N]
            [--parallelism auto|off|N] [--store auto|dense|sparse]
            methods: rem (default), rem-ins, gaded-rand, gaded-max, gades
                     (baselines only at --l 1)
            replays an external edge-event stream (one `+ u v` or `- u v`
            per line; #/% comments) as incremental deltas against a live
            session: every --batch events (default 1) certification is
            re-read and a violation triggers an in-place repair; one CSV
            row per batch on stdout, the final graph in --out, exit 3 if
            the stream ends uncertified
  compare   --in FILE [--json FILE] [--csv FILE] --l N --theta X
            [--k N] [--ell N] [--budget N] [--ls L1,L2,...] [--seed N]
            [--store auto|dense|sparse]
            runs every privacy model (L-opacity removal and
            removal/insertion, k-degree, (k,l)-adjacency) on one graph at
            a matched edit budget — taken from the unbudgeted L-opacity
            removal run unless --budget overrides it — scores every
            output with every model's certifier plus the utility suite,
            writes COMPARE.json (default) and optionally --csv, and
            prints a summary table on stdout; --ls adds budget-matched
            L-opacity rows and certifier columns at extra L values
  opacity   --in FILE --l N [--original FILE] [--theta X]
  stats     --in FILE
  generate  --dataset D --n N --out FILE [--seed N]
            datasets: google, berkeley-stanford, epinions, enron, gnutella,
                      acm, wikipedia
  serve     [lopacityd OPTIONS]
            starts lopacityd, the anonymization daemon, in-process: jobs
            over HTTP with progress streaming, cooperative cancellation,
            per-job budgets, a shared evaluator cache, held churn sessions
            and a durable journal (SIGTERM drains and exits 0); takes
            exactly lopacityd's flags with the same defaults, listed by
            `lopacify serve --help`
  submit    --spec FILE [--addr HOST:PORT] [--ikey KEY] [--wait]
            [--out FILE] [--retries N] [--seed N]
            submits a job spec file (see the lopacity-daemon crate docs
            for the format) to a running daemon, retrying 429/503 and
            transport errors with capped, seeded exponential backoff;
            prints `id N`; --ikey sends an Idempotency-Key so retries
            (even across a daemon restart) cannot enqueue duplicates;
            --wait polls until the job finishes, prints the result
            summary, writes the anonymized graph to --out if given, and
            exits 3 when the run ended with theta lost

exit codes:
  0  success
  1  I/O failures (unreadable/unwritable files) and usage errors; for
     submit: connect failures and retry budgets exhausted
  2  input parse errors (malformed edge lists or event streams); for
     submit: the daemon rejected the spec (400) or its predicted
     footprint (413)
  3  theta lost: anonymize ended with maxLO > theta (for the k-degree and
     kl-adjacency methods: ended with their own certifier unsatisfied),
     a churn stream ended uncertified after repair, or a submit --wait
     job finished without achieving theta
";

fn load(args: &Args, key: &str) -> Result<Graph, String> {
    let path = args.get(key).ok_or(format!("missing --{key} FILE"))?;
    gio::read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Like [`load`], but classifying the failure for the exit-code contract:
/// an unreadable file is an I/O failure (exit 1), malformed content is a
/// parse error (exit 2).
fn load_classified(args: &Args, key: &str) -> Result<Graph, CliError> {
    let path = args.get(key).ok_or_else(|| format!("missing --{key} FILE"))?;
    gio::read_edge_list_file(path).map_err(|e| CliError {
        code: if matches!(e, GraphError::Io(_)) { 1 } else { 2 },
        message: format!("reading {path}: {e}"),
    })
}

/// The `--theta` list: one or more values in [0, 1], comma-separated.
fn parse_thetas(args: &Args) -> Result<Vec<f64>, String> {
    let raw = args.get("theta").unwrap_or("0.5");
    let mut thetas = Vec::new();
    for part in raw.split(',') {
        let theta: f64 = part
            .trim()
            .parse()
            .map_err(|_| format!("--theta: {part:?} is not a number"))?;
        if !(0.0..=1.0).contains(&theta) {
            return Err(format!("theta {theta} out of [0, 1]"));
        }
        thetas.push(theta);
    }
    Ok(thetas)
}

fn anonymize(args: &Args) -> Result<(), String> {
    let graph = load(args, "in")?;
    let out_path = args.get("out").ok_or("missing --out FILE")?;
    let l: u8 = args.get_or("l", 1)?;
    let thetas = parse_thetas(args)?;
    // The strictest θ decides the exit status and names the written graph.
    let theta = thetas.iter().copied().fold(f64::INFINITY, f64::min);
    let lookahead: usize = args.get_or("lookahead", 1)?;
    let seed: u64 = args.get_or("seed", lopacity::config::DEFAULT_SEED)?;
    let method = args.get("method").unwrap_or("rem");
    if l == 0 {
        return Err("L must be at least 1".into());
    }
    let session_method = matches!(method, "rem" | "rem-ins" | "exact");
    // The rival models run through the session but never read distances,
    // so any L is fine; baselines are pinned to L = 1.
    let model_method = matches!(method, "k-degree" | "kl-adjacency");
    if !session_method && !model_method && l != 1 {
        return Err("baseline methods support only --l 1".into());
    }
    if !session_method && thetas.len() > 1 {
        return Err("theta sweeps support only the rem, rem-ins and exact methods".into());
    }
    let exact_cap = ExactMinRemovals::default().max_edges;
    if method == "exact" && graph.num_edges() > exact_cap {
        return Err(format!(
            "the exact method is exponential; it accepts at most {exact_cap} edges \
             (graph has {})",
            graph.num_edges()
        ));
    }
    // Parsed by hand (not `get_or`) so the valid-values hint in the
    // `Parallelism` parse error reaches the user.
    let parallelism: Parallelism = match args.get("parallelism") {
        None => Parallelism::Auto,
        Some(raw) => raw.parse().map_err(|e| format!("--parallelism: {e}"))?,
    };
    let store: StoreBackend = match args.get("store") {
        None => StoreBackend::Auto,
        Some(raw) => raw.parse().map_err(|e| format!("--store: {e}"))?,
    };
    let sweep_mode = match args.get("sweep-mode") {
        // The exact strategy's search depends on θ, so resuming yields
        // increment-minimal (not globally minimal) sets; exact sweeps
        // therefore default to independent per-θ runs. The greedy
        // trajectories are θ-independent and default to resume.
        None => {
            if method == "exact" {
                SweepMode::Independent
            } else {
                SweepMode::Resume
            }
        }
        Some("resume") => SweepMode::Resume,
        Some("independent") => SweepMode::Independent,
        Some(other) => {
            return Err(format!("--sweep-mode: unknown mode {other:?} (resume, independent)"))
        }
    };
    let mut config = AnonymizeConfig::new(l, theta)
        .with_lookahead(lookahead)
        .with_seed(seed)
        .with_parallelism(parallelism)
        .with_store(store);
    let cap: usize = args.get_or("max-steps", 0)?;
    if cap > 0 {
        config = config.with_max_steps(cap);
    }
    let edit_cap: usize = args.get_or("max-edits", 0)?;
    if edit_cap > 0 {
        config = config.with_max_edits(edit_cap);
    }

    let spec = TypeSpec::DegreePairs;
    let mut session =
        Anonymizer::new(&graph, &spec).config(config).sweep_mode(sweep_mode);
    let outcome = if thetas.len() > 1 {
        // Multi-θ sweep: one shared evaluator build, one CSV row per θ on
        // stdout (descending), the strictest θ's graph to --out.
        let runs = match method {
            "rem" => session.sweep(&thetas, Removal),
            "rem-ins" => session.sweep(&thetas, RemovalInsertion::default()),
            "exact" => session.sweep(&thetas, ExactMinRemovals::default()),
            other => return Err(format!("unknown method {other:?}")),
        };
        println!("theta,achieved,steps,trials,new_trials,removed,inserted,max_lo,distortion");
        for run in &runs {
            println!(
                "{},{},{},{},{},{},{},{:.6},{:.6}",
                run.theta,
                run.outcome.achieved,
                run.outcome.steps,
                run.outcome.trials,
                run.new_trials,
                run.outcome.removed.len(),
                run.outcome.inserted.len(),
                run.outcome.final_lo,
                run.outcome.distortion(&graph),
            );
        }
        runs.into_iter().last().expect("sweep returns one run per theta").outcome
    } else {
        // One-shot: consume the session (`run_once`) — no defensive
        // evaluator clone, the historical free-function cost profile.
        match method {
            "rem" => session.run_once(Removal),
            "rem-ins" => session.run_once(RemovalInsertion::default()),
            "exact" => session.run_once(ExactMinRemovals::default()),
            "gaded-rand" => gaded_rand(&graph, theta, seed),
            "gaded-max" => gaded_max(&graph, theta),
            "gades" => gades(&graph, theta),
            "k-degree" => session.run_once(KDegreeAnonymity::new(parse_k(args)?)),
            "kl-adjacency" => {
                session.run_once(KLAdjacencyAnonymity::new(parse_k(args)?, parse_ell(args)?))
            }
            other => return Err(format!("unknown method {other:?}")),
        }
    };
    gio::write_edge_list_file(&outcome.graph, out_path)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!("{outcome}");
    eprintln!("distortion: {:.2}%", 100.0 * outcome.distortion(&graph));
    let utility = UtilityReport::compute(&graph, &outcome.graph);
    eprintln!("utility: {utility}");
    if !outcome.achieved {
        if model_method {
            eprintln!("warning: {method} anonymity was NOT reached");
        } else {
            eprintln!("warning: θ = {theta} was NOT reached (maxLO = {:.4})", outcome.final_lo);
        }
        std::process::exit(3);
    }
    Ok(())
}

/// `--k` for the k-degree / (k,ℓ)-adjacency methods (default 2).
fn parse_k(args: &Args) -> Result<usize, String> {
    let k: usize = args.get_or("k", 2)?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    Ok(k)
}

/// `--ell` for the (k,ℓ)-adjacency method (default 1; patterns are
/// tracked as 64-bit masks, and certification is O(|V|^ell)).
fn parse_ell(args: &Args) -> Result<usize, String> {
    let ell: usize = args.get_or("ell", 1)?;
    if !(1..=64).contains(&ell) {
        return Err("--ell must be in 1..=64".into());
    }
    Ok(ell)
}

/// `lopacify compare` — every privacy model on one graph at a matched
/// edit budget; COMPARE.json (+ optional CSV) out, summary table on
/// stdout. A comparison is a report, so it exits 0 even when some model
/// fails to certify within the budget.
fn compare(args: &Args) -> Result<(), CliError> {
    let graph = load_classified(args, "in")?;
    let l: u8 = args.get_or("l", 2)?;
    if l == 0 {
        return Err("L must be at least 1".into());
    }
    let theta: f64 = args.get_or("theta", 0.5)?;
    if !(0.0..=1.0).contains(&theta) {
        return Err(format!("theta {theta} out of [0, 1]").into());
    }
    let seed: u64 = args.get_or("seed", lopacity::config::DEFAULT_SEED)?;
    let store: StoreBackend = match args.get("store") {
        None => StoreBackend::Auto,
        Some(raw) => raw.parse().map_err(|e| format!("--store: {e}"))?,
    };
    let mut spec = CompareSpec::new(l, theta, parse_k(args)?, parse_ell(args)?)
        .with_seed(seed)
        .with_store(store);
    let budget: usize = args.get_or("budget", 0)?;
    if budget > 0 {
        spec = spec.with_budget(budget);
    }
    if let Some(raw) = args.get("ls") {
        let mut ls = Vec::new();
        for part in raw.split(',') {
            let lx: u8 = part
                .trim()
                .parse()
                .map_err(|_| format!("--ls: {part:?} is not an L value"))?;
            if lx == 0 {
                return Err("--ls: L values must be at least 1".into());
            }
            ls.push(lx);
        }
        spec = spec.with_ls(&ls);
    }

    let report = run_comparison(&graph, &spec);

    let json_path = args.get("json").unwrap_or("COMPARE.json");
    std::fs::write(json_path, report.to_json())
        .map_err(|e| format!("writing {json_path}: {e}"))?;
    let mut written = json_path.to_string();
    if let Some(csv_path) = args.get("csv") {
        let mut csv = report.csv_header();
        csv.push('\n');
        for row in report.csv_rows() {
            csv.push_str(&row);
            csv.push('\n');
        }
        std::fs::write(csv_path, csv).map_err(|e| format!("writing {csv_path}: {e}"))?;
        written.push_str(", ");
        written.push_str(csv_path);
    }

    eprintln!(
        "compared {} models on |V| = {} |E| = {} at budget {} -> {written}",
        report.rows.len(),
        report.vertices,
        report.edges,
        report.budget,
    );
    let leak_cols: Vec<String> =
        report.certifiers.iter().map(|c| format!("leak[{c}]")).collect();
    println!("model,achieved,removed,inserted,distortion,{}", leak_cols.join(","));
    for row in &report.rows {
        let leaks: Vec<String> =
            row.cells.iter().map(|c| format!("{:.4}", c.leakage)).collect();
        println!(
            "{},{},{},{},{:.4},{}",
            row.model,
            row.achieved,
            row.removed,
            row.inserted,
            row.utility.distortion,
            leaks.join(","),
        );
    }
    Ok(())
}

/// Runs one repair under the named method. A match per call (rather than a
/// boxed strategy held across the loop) keeps `ChurnSession::repair`'s
/// fresh-per-repair semantics obvious: each repair builds its own strategy
/// value, RNG, and edit bookkeeping.
fn repair_with(session: &mut ChurnSession, method: &str) -> Result<RepairPatch, String> {
    Ok(match method {
        "rem" => session.repair(Removal),
        "rem-ins" => session.repair(RemovalInsertion::default()),
        "gaded-rand" => session.repair(GadedRand),
        "gaded-max" => session.repair(GadedMax),
        "gades" => session.repair(Gades::default()),
        other => return Err(format!("unknown method {other:?}")),
    })
}

fn churn(args: &Args) -> Result<(), CliError> {
    let graph = load_classified(args, "in")?;
    let out_path = args.get("out").ok_or("missing --out FILE")?;
    let events_path = args.get("events").ok_or("missing --events FILE")?;
    // I/O failure (exit 1) vs. malformed stream (exit 2) — the two files
    // are read and parsed as separate steps so the codes stay distinct.
    let text = std::fs::read_to_string(events_path)
        .map_err(|e| CliError { code: 1, message: format!("reading {events_path}: {e}") })?;
    let events = EdgeEvent::parse_stream(&text)
        .map_err(|e| CliError { code: 2, message: format!("{events_path}: {e}") })?;
    let l: u8 = args.get_or("l", 1)?;
    if l == 0 {
        return Err("L must be at least 1".into());
    }
    let thetas = parse_thetas(args)?;
    let [theta] = thetas[..] else {
        return Err("churn certifies one theta (no sweeps)".into());
    };
    let batch: usize = args.get_or("batch", 1)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let seed: u64 = args.get_or("seed", lopacity::config::DEFAULT_SEED)?;
    let method = args.get("method").unwrap_or("rem");
    if !matches!(method, "rem" | "rem-ins") && l != 1 {
        return Err("baseline methods support only --l 1".into());
    }
    let parallelism: Parallelism = match args.get("parallelism") {
        None => Parallelism::Auto,
        Some(raw) => raw.parse().map_err(|e| format!("--parallelism: {e}"))?,
    };
    let store: StoreBackend = match args.get("store") {
        None => StoreBackend::Auto,
        Some(raw) => raw.parse().map_err(|e| format!("--store: {e}"))?,
    };
    let config = AnonymizeConfig::new(l, theta)
        .with_seed(seed)
        .with_parallelism(parallelism)
        .with_store(store);
    let spec = TypeSpec::DegreePairs;
    let mut session = ChurnSession::new(Anonymizer::new(&graph, &spec).config(config));

    // If the input graph is not yet (θ, L)-certified, repair before the
    // stream starts — the session then maintains that certificate.
    if !session.is_certified() {
        let initial = repair_with(&mut session, method)?;
        eprintln!(
            "initial repair: -{} +{} edges in {} steps, maxLO = {:.4}{}",
            initial.removed.len(),
            initial.inserted.len(),
            initial.steps,
            initial.max_lo,
            if initial.achieved { "" } else { " (NOT certified)" },
        );
    }

    println!("batch,applied,skipped,changed_cells,max_lo,violated,repair_removed,repair_inserted,repair_steps,repair_max_lo");
    for (b, window) in events.chunks(batch).enumerate() {
        let report = session.apply_batch(window);
        let repair = if report.violated {
            Some(repair_with(&mut session, method)?)
        } else {
            None
        };
        println!(
            "{},{},{},{},{:.6},{},{},{},{},{}",
            b,
            report.applied,
            report.skipped,
            report.changed_cells,
            report.max_lo,
            report.violated,
            repair.as_ref().map_or(0, |p| p.removed.len()),
            repair.as_ref().map_or(0, |p| p.inserted.len()),
            repair.as_ref().map_or(0, |p| p.steps),
            repair.as_ref().map_or_else(String::new, |p| format!("{:.6}", p.max_lo)),
        );
    }

    session.certify().map_err(|e| format!("incremental state failed certification: {e}"))?;
    let certified = session.is_certified();
    let final_a = session.assessment();
    eprintln!(
        "stream done: {} applied, {} skipped, {} repairs, maxLO = {:.4}",
        session.events_applied(),
        session.events_skipped(),
        session.repairs(),
        final_a.as_f64(),
    );
    let final_graph = session.into_graph();
    gio::write_edge_list_file(&final_graph, out_path)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    if !certified {
        eprintln!("warning: θ = {theta} NOT held at end of stream");
        std::process::exit(3);
    }
    Ok(())
}

fn opacity(args: &Args) -> Result<(), String> {
    let graph = load(args, "in")?;
    let l: u8 = args.get_or("l", 1)?;
    if l == 0 {
        return Err("L must be at least 1".into());
    }
    let report = match args.get("original") {
        Some(path) => {
            let original =
                gio::read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))?;
            opacity_report_against_original(&original, &graph, &TypeSpec::DegreePairs, l)
        }
        None => opacity_report(&graph, &TypeSpec::DegreePairs, l),
    };
    println!("type\twithin_L\ttotal\tLO");
    for row in &report.per_type {
        println!("{}\t{}\t{}\t{:.4}", row.label, row.within_l, row.total, row.lo);
    }
    println!("maxLO = {} over {} non-empty types", report.max_lo, report.per_type.len());
    let theta: f64 = args.get_or("theta", f64::NAN)?;
    if !theta.is_nan() {
        let ok = report.max_lo.satisfies(theta);
        println!("{l}-opaque wrt θ = {theta}: {}", if ok { "YES" } else { "NO" });
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let graph = load(args, "in")?;
    let stats = GraphStats::compute(&graph);
    println!("{stats}");
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let dataset: Dataset = args
        .get("dataset")
        .ok_or("missing --dataset NAME")?
        .parse()?;
    let n: usize = args.get_or("n", 100)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out_path = args.get("out").ok_or("missing --out FILE")?;
    let graph = dataset.generate(n, seed);
    gio::write_edge_list_file(&graph, out_path).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "generated {dataset} stand-in: n={} m={} -> {out_path}",
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

/// Remote submission through `lopacity-client`: retries `429`/`503` and
/// transport errors with capped seeded backoff, dedupes via `--ikey`, and
/// with `--wait` maps the finished job onto the standard exit codes.
fn submit(args: &Args) -> Result<(), CliError> {
    use lopacity_client::{Client, ClientConfig, ClientError};
    let io = |message: String| CliError { code: 1, message };
    let spec_path = args.get("spec").ok_or(CliError::from("missing --spec FILE"))?;
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| io(format!("reading {spec_path}: {e}")))?;
    let defaults = ClientConfig::default();
    let config = ClientConfig {
        addr: args.get("addr").unwrap_or(&defaults.addr).to_string(),
        max_retries: args.get_or("retries", defaults.max_retries)?,
        seed: args.get_or("seed", defaults.seed)?,
        ..defaults
    };
    let mut client = Client::new(config);
    let submitted = match args.get("ikey") {
        Some(key) => client.submit_idempotent(&spec, key),
        None => client.submit(&spec),
    };
    let id = match submitted {
        Ok(id) => id,
        // 400 (spec did not parse) and 413 (predicted footprint refused)
        // are data problems — the daemon's reply names the line or the
        // estimate; retrying cannot help.
        Err(ClientError::Rejected { status: status @ (400 | 413), body }) => {
            return Err(CliError { code: 2, message: format!("{status}: {}", body.trim_end()) })
        }
        Err(e) => return Err(io(format!("submit to {}: {e}", client.addr()))),
    };
    println!("id {id}");
    if !args.has_flag("wait") {
        return Ok(());
    }
    let summary = client
        .wait(id, std::time::Duration::from_millis(200))
        .map_err(|e| io(format!("waiting on job {id}: {e}")))?;
    print!("{summary}");
    if let Some(out) = args.get("out") {
        let graph = client
            .get(&format!("/jobs/{id}/graph"))
            .map_err(|e| io(format!("fetching job {id} graph: {e}")))?;
        std::fs::write(out, graph.body_str().unwrap_or(""))
            .map_err(|e| io(format!("writing {out}: {e}")))?;
    }
    let failed = summary.lines().any(|l| l.starts_with("phase failed"));
    let lost = summary.lines().any(|l| l == "achieved false")
        || summary.lines().any(|l| l == "certified false");
    if failed {
        return Err(CliError { code: 1, message: format!("job {id} failed") });
    }
    if lost {
        return Err(CliError { code: 3, message: format!("job {id} finished with theta lost") });
    }
    Ok(())
}
