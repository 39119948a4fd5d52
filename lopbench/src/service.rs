//! `service` — the operator's path: release `lopacityd` with `--state-dir`
//! (journal and per-step checkpoints on) and 2 workers, under a closed loop
//! of 2 client threads with one keep-alive connection each. Each client
//! keeps 2 jobs outstanding, so 4 jobs share the 2 workers. An op is
//! submit → poll until finished → fetch the graph.
//!
//! The job list is fixed per seed: repeat graphs (warmed in set-up, so
//! cache hits), fresh generator seeds (cache misses, so builds) and inline
//! uploads of a 2k-vertex edge list. Its length is fixed too, so the
//! never-evicting evaluator cache holds the same graphs whatever the speed.

use crate::net::{self, Conn, Daemon};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{mix, Opts, Rng, Window};
use lopacity::opacity::opacity_report_against_original;
use lopacity::{OpacityEvaluator, Parallelism, TypeSpec, TypeSystem};
use lopacity_daemon::job::resolve_graph;
use lopacity_daemon::{GraphSource, JobSpec};
use lopacity_gen::Dataset;
use lopacity_graph::{io as gio, Graph};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per second of `--seconds` (the reference box completes about 5).
const JOBS_PER_SECOND: f64 = 4.5;
/// Distinct graphs behind the repeat and the inline classes: enough that
/// the mix's mean cost varies little between seeds.
const REPEAT_GRAPHS: usize = 6;
const INLINE_GRAPHS: usize = 6;
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 2;
const POLL: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Repeat,
    Fresh,
    Inline,
}

/// Sizes of the job classes' graphs.
struct Sizes {
    generated_n: usize,
    inline_n: usize,
    max_steps: u64,
}

const FULL: Sizes = Sizes {
    generated_n: 1500,
    inline_n: 2000,
    max_steps: 1,
};
const TOY: Sizes = Sizes {
    generated_n: 150,
    inline_n: 200,
    max_steps: 1,
};

struct Job {
    class: Class,
    spec: String,
}

fn spec_text(seed: u64, max_steps: u64, graph: &str) -> String {
    format!("mode anonymize\nmethod rem\nl 2\ntheta 0.01\nseed {seed}\nmax_steps {max_steps}\ngraph {graph}")
}

fn dataset_spec(seed: u64, sizes: &Sizes, graph_seed: u64) -> String {
    spec_text(
        seed,
        sizes.max_steps,
        &format!("dataset gnutella {} {graph_seed}\n", sizes.generated_n),
    )
}

fn inline_spec(seed: u64, sizes: &Sizes, graph: &Graph) -> String {
    let mut text = Vec::new();
    gio::write_edge_list(graph, &mut text).expect("writing to a Vec cannot fail");
    spec_text(
        seed,
        sizes.max_steps,
        &format!("inline\n\n{}", String::from_utf8(text).expect("ASCII")),
    )
}

/// The seed's job list (repeat : fresh : inline = 2 : 1 : 1, shuffled)
/// and the repeat specs to warm.
fn job_list(opts: &Opts, sizes: &Sizes) -> (Vec<Job>, Vec<String>) {
    let count = if opts.toy {
        12
    } else {
        (opts.seconds * JOBS_PER_SECOND).round().max(8.0) as usize
    };
    let mut rng = Rng::new(mix(opts.seed, 1));
    let repeats: Vec<String> = (0..REPEAT_GRAPHS)
        .map(|r| dataset_spec(r as u64, sizes, mix(opts.seed, 10 + r as u64) % 1_000_000))
        .collect();
    let inlines: Vec<String> = (0..INLINE_GRAPHS)
        .map(|i| {
            inline_spec(
                i as u64,
                sizes,
                &Dataset::Gnutella.generate(sizes.inline_n, mix(opts.seed, 20 + i as u64)),
            )
        })
        .collect();
    let mut jobs: Vec<Job> = (0..count)
        .map(|k| match k % 4 {
            0 | 1 => Job {
                class: Class::Repeat,
                spec: repeats[rng.below(REPEAT_GRAPHS)].clone(),
            },
            // Generator seeds above every repeat seed: never a cache hit.
            2 => Job {
                class: Class::Fresh,
                spec: dataset_spec(
                    k as u64,
                    sizes,
                    1_000_000 + mix(opts.seed, 1000 + k as u64) % 1_000_000,
                ),
            },
            _ => Job {
                class: Class::Inline,
                spec: inlines[rng.below(INLINE_GRAPHS)].clone(),
            },
        })
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i + 1));
    }
    (jobs, repeats)
}

/// Boots a daemon and warms the repeat graphs (one job each, all queued
/// at once).
fn setup(opts: &Opts, repeats: &[String], attempt: usize) -> Result<Daemon, String> {
    let daemon = Daemon::boot(&opts.bin_dir, &opts.dir.join(format!("daemon{attempt}")))?;
    let mut conn = Conn::new(&daemon.addr, 0);
    let ids: Vec<u64> = repeats
        .iter()
        .map(|spec| net::submit(&mut conn, spec))
        .collect::<Result<_, _>>()?;
    for id in ids {
        let status = net::wait_finished(&mut conn, id)?;
        if net::field(&status, "phase") != Some("done") {
            return Err(format!("warm-up job {id} ended {status:?}"));
        }
    }
    Ok(daemon)
}

/// One finished op as the client saw it.
struct Op {
    job: usize,
    latency: f64,
    status: String,
    graph: String,
    /// Submit acknowledged → first poll seeing `running` (or later).
    queue_wait: f64,
    /// First poll seeing `running` → first poll seeing a terminal phase.
    run: f64,
    error: Option<String>,
}

struct InFlight {
    job: usize,
    id: u64,
    start: Instant,
    acked: Instant,
    running: Option<Instant>,
}

/// One client thread: keeps `OUTSTANDING` jobs in flight, pulling the next
/// job from the shared list as each finishes.
fn client(
    addr: &str,
    seed: u64,
    jobs: &[Job],
    next: &AtomicUsize,
    tr: &mut Tracer,
) -> (Vec<Op>, Conn, u64) {
    let mut conn = Conn::new(addr, seed);
    let mut ops = Vec::new();
    let mut flights: Vec<InFlight> = Vec::new();
    let mut probes = 0;
    let mut exhausted = false;
    loop {
        while !exhausted && flights.len() < OUTSTANDING {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= jobs.len() {
                exhausted = true;
                break;
            }
            tr.set_op(k as u64);
            let start = Instant::now();
            let id = tr.enter("http.submit");
            let submitted = net::submit(&mut conn, &jobs[k].spec);
            tr.exit(id);
            match submitted {
                Ok(id) => flights.push(InFlight {
                    job: k,
                    id,
                    start,
                    acked: Instant::now(),
                    running: None,
                }),
                Err(e) => ops.push(failed_op(k, start, e)),
            }
        }
        if flights.is_empty() {
            break;
        }
        let mut i = 0;
        while i < flights.len() {
            let f = &mut flights[i];
            tr.set_op(f.job as u64);
            let span = tr.enter("http.poll");
            let polled = conn.text("GET", &format!("/jobs/{}", f.id), b"");
            tr.exit(span);
            let status = match polled {
                Ok(status) => status,
                Err(e) => {
                    let f = flights.swap_remove(i);
                    ops.push(failed_op(f.job, f.start, e));
                    continue;
                }
            };
            let now = Instant::now();
            match net::field(&status, "phase") {
                Some("queued") => {}
                Some("running") => {
                    f.running.get_or_insert(now);
                }
                _ => {
                    let f = flights.swap_remove(i);
                    let span = tr.enter("result.fetch");
                    let fetched = conn.text("GET", &format!("/jobs/{}/graph", f.id), b"");
                    tr.exit(span);
                    let running = f.running.unwrap_or(now);
                    let (graph, error) = match fetched {
                        Ok(g) => (g, None),
                        Err(e) => (String::new(), Some(e)),
                    };
                    ops.push(Op {
                        job: f.job,
                        latency: f.start.elapsed().as_secs_f64(),
                        status,
                        graph,
                        queue_wait: running.duration_since(f.acked).as_secs_f64(),
                        run: now.duration_since(running).as_secs_f64(),
                        error,
                    });
                    if tr.enabled() && f.job.is_multiple_of(crate::PROBE_EVERY) {
                        let span = tr.enter("http.rtt");
                        let _ = conn.call("GET", "/healthz", b"");
                        tr.exit(span);
                        probes += 1;
                    }
                    continue;
                }
            }
            i += 1;
        }
        std::thread::sleep(POLL);
    }
    (ops, conn, probes)
}

fn failed_op(job: usize, start: Instant, error: String) -> Op {
    Op {
        job,
        latency: start.elapsed().as_secs_f64(),
        status: String::new(),
        graph: String::new(),
        queue_wait: 0.0,
        run: 0.0,
        error: Some(error),
    }
}

/// Everything one window measured.
struct Measured {
    window: Window,
    ops: Vec<Op>,
    requests: u64,
    retries: u64,
    probes: u64,
    metrics_before: HashMap<String, u64>,
    metrics_after: HashMap<String, u64>,
    journal: Option<net::JournalReplay>,
    tracer: Tracer,
}

/// Runs the window against a set-up daemon, stops it, and checks outputs.
fn window(
    opts: &Opts,
    daemon: Daemon,
    jobs: &[Job],
    traced: bool,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let metrics_before = net::scrape_metrics(&daemon.addr)?;
    let journal_from = daemon.journal_len();
    let cpu_before = daemon.cpu_seconds()?;
    let epoch = Instant::now();
    let next = Arc::new(AtomicUsize::new(0));
    let results: Vec<(Vec<Op>, Conn, u64, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, next) = (daemon.addr.clone(), Arc::clone(&next));
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let (ops, conn, probes) =
                        client(&addr, mix(opts.seed, 50 + c as u64), jobs, &next, &mut tr);
                    (ops, conn, probes, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = daemon.cpu_seconds()? - cpu_before;
    let metrics_after = net::scrape_metrics(&daemon.addr)?;
    let journal_to = daemon.journal_len();
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let state_dir = daemon.state_dir.clone();
    daemon.stop()?;
    let journal = if traced {
        Some(net::replay_journal(
            &state_dir,
            journal_from,
            journal_to,
            &opts.dir.join("journal-replay"),
        )?)
    } else {
        None
    };
    let mut tracer = Tracer::new(traced, epoch);
    let (mut ops, mut requests, mut retries, mut probes) = (Vec::new(), 0, 0, 0);
    for (o, conn, p, tr) in results {
        ops.extend(o);
        requests += conn.requests;
        retries += conn.retries;
        probes += p;
        tracer.absorb(tr);
    }
    ops.sort_by_key(|op| op.job);
    let failed = check(&ops, jobs, out);
    let edits = ops
        .iter()
        .filter_map(|op| {
            let r: f64 = net::field(&op.status, "removed")?.parse().ok()?;
            let i: f64 = net::field(&op.status, "inserted")?.parse().ok()?;
            Some(r + i)
        })
        .collect();
    let window = Window {
        setup_s: Vec::new(),
        latencies: ops.iter().map(|op| op.latency).collect(),
        wall_s,
        cpu_s,
        peak_rss_mb,
        edits,
        attempted: ops.len() as u64,
        failed,
    };
    Ok(Measured {
        window,
        ops,
        requests,
        retries,
        probes,
        metrics_before,
        metrics_after,
        journal,
        tracer,
    })
}

/// Every job must end `done`, and Algorithm 1 on its fetched graph must
/// match the summary's `final_lo`. Identical specs must return identical
/// graphs. Returns the number of failed ops.
fn check(ops: &[Op], jobs: &[Job], out: &mut Outcome) -> u64 {
    let mut verified: HashMap<&str, Result<String, String>> = HashMap::new();
    let mut failed = 0;
    for op in ops {
        let spec = jobs[op.job].spec.as_str();
        let result = match &op.error {
            Some(e) => Err(e.clone()),
            None if net::field(&op.status, "phase") != Some("done") => {
                Err(format!("job ended {:?}", op.status))
            }
            None => match verified.get(spec) {
                Some(Ok(graph)) if *graph == op.graph => Ok(()),
                Some(Ok(_)) => Err("same spec returned a different graph".into()),
                Some(Err(e)) => Err(e.clone()),
                None => {
                    let first = verify(spec, &op.status, &op.graph).map(|()| op.graph.clone());
                    let r = first.as_ref().map(|_| ()).map_err(String::clone);
                    verified.insert(spec, first);
                    r
                }
            },
        };
        if let Err(e) = result {
            failed += 1;
            out.fail_check(format!("job {} ({:?}): {e}", op.job, jobs[op.job].class));
        }
    }
    failed
}

fn verify(spec: &str, status: &str, graph: &str) -> Result<(), String> {
    let spec = JobSpec::parse(spec)?;
    let original = resolve_graph(&spec.source)?;
    let published = gio::read_edge_list_with_header(graph.as_bytes())
        .map_err(|e| format!("fetched graph: {e}"))?;
    if published.num_vertices() != original.num_vertices() {
        return Err("fetched graph changed the vertex set".into());
    }
    let final_lo: f64 = net::field(status, "final_lo")
        .and_then(|v| v.parse().ok())
        .ok_or("summary without final_lo")?;
    let alg1 =
        opacity_report_against_original(&original, &published, &TypeSpec::DegreePairs, spec.l);
    if (alg1.max_lo.as_f64() - final_lo).abs() > 5.1e-7 {
        return Err(format!(
            "Algorithm 1 gives maxLO {} but the job reported {final_lo}",
            alg1.max_lo
        ));
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("service");
    let sizes = if opts.toy { &TOY } else { &FULL };
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut jobs = Vec::new();
    let repeats = if opts.trace { 1 } else { crate::SETUP_REPEATS };
    for attempt in 0..repeats {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        let (list, warm) = job_list(opts, sizes);
        jobs = list;
        daemon = Some(setup(opts, &warm, attempt)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let digest = crate::digest(jobs.iter().map(|j| j.spec.clone()));
    let classes = |c: Class| jobs.iter().filter(|j| j.class == c).count();
    out.note(format!(
        "{} jobs: {} repeat, {} fresh, {} inline; op-list digest {digest:016x}",
        jobs.len(),
        classes(Class::Repeat),
        classes(Class::Fresh),
        classes(Class::Inline)
    ));
    let mut untraced = window(opts, daemon.expect("set-up ran"), &jobs, false, &mut out)?;
    untraced.window.setup_s = setup_s;
    if !opts.trace {
        crate::end_to_end(&mut out, &untraced.window);
        return Ok(out);
    }
    let (_, warm) = job_list(opts, sizes);
    let daemon = setup(opts, &warm, repeats)?;
    let traced = window(opts, daemon, &jobs, true, &mut out)?;
    let layers = layers(opts, &jobs, &traced, &mut out)?;
    crate::per_layer(&mut out, &layers, &untraced.window, &traced.window);
    Ok(out)
}

/// Per-layer numbers of the traced window, plus in-process replicas of the
/// daemon's parse / resolve / build / render calls on the same job list.
fn layers(
    opts: &Opts,
    jobs: &[Job],
    m: &Measured,
    out: &mut Outcome,
) -> Result<HashMap<&'static str, f64>, String> {
    let ops = m.ops.len() as f64;
    let mut replica = Tracer::new(true, Instant::now());
    let mut built = HashSet::new();
    let (mut inline_parse_s, mut inline_ops, mut dense, mut builds, mut store_mb) =
        (0.0, 0, 0, 0, 0.0f64);
    for op in &m.ops {
        let job = &jobs[op.job];
        let spec = replica.span("job.parse", || JobSpec::parse(&job.spec))?;
        let t = Instant::now();
        let graph = replica.span("job.resolve", || resolve_graph(&spec.source))?;
        if matches!(spec.source, GraphSource::Inline(_)) {
            inline_parse_s += t.elapsed().as_secs_f64();
            inline_ops += 1;
        }
        let key = spec.cache_key(lopacity_daemon::job::graph_hash(&graph));
        if built.insert(key) {
            let types = replica.span("types.build", || {
                TypeSystem::build(&graph, &TypeSpec::DegreePairs)
            });
            let ev = replica.span("apsp.build", || {
                OpacityEvaluator::with_type_system(
                    graph.clone(),
                    types,
                    spec.l,
                    spec.engine,
                    Parallelism::Auto,
                    spec.store,
                )
            });
            dense += usize::from(!ev.dist_store().is_sparse());
            builds += 1;
            store_mb = store_mb.max(ev.dist_store().storage_bytes() as f64 / (1024.0 * 1024.0));
        }
        if let Ok(published) = gio::read_edge_list_with_header(op.graph.as_bytes()) {
            let mut sink = Vec::new();
            replica
                .span("io.render", || gio::write_edge_list(&published, &mut sink))
                .map_err(|e| e.to_string())?;
        }
    }
    let field_sum = |key: &str| -> f64 {
        m.ops
            .iter()
            .filter_map(|op| net::field(&op.status, key)?.parse::<f64>().ok())
            .sum()
    };
    let (steps, trials) = (field_sum("steps"), field_sum("trials"));
    let edits = field_sum("removed") + field_sum("inserted");
    let run_s: f64 = m.ops.iter().map(|op| op.run).sum();
    let delta = |key: &str| {
        m.metrics_after.get(key).copied().unwrap_or(0) as f64
            - m.metrics_before.get(key).copied().unwrap_or(0) as f64
    };
    let (hits, misses) = (
        delta("lopacityd_cache_hits"),
        delta("lopacityd_cache_builds"),
    );
    let journal = m
        .journal
        .as_ref()
        .ok_or("traced window without a journal replay")?;
    let (p50, p99) = (
        report::median(&journal.append_s),
        report::percentile(&journal.append_s, 0.99),
    );
    let (rtt_s, rtt_n) = m.tracer.totals("http.rtt");
    let (fetch_s, fetch_n) = m.tracer.totals("result.fetch");
    let workload_requests = m.requests as f64 - m.probes as f64;
    out.note(format!(
        "{hits} cache hits / {misses} builds in the window; journal {} records, {} bytes",
        journal.records, journal.bytes
    ));
    let path = opts
        .keep_dir
        .join(format!("trace-service-seed{}.tsv", opts.seed));
    m.tracer
        .write_tsv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    let per = |name: &str, n: f64| replica.self_per(name, n);
    Ok(HashMap::from([
        (
            "io.parse_s",
            report::ratio(inline_parse_s, inline_ops as f64),
        ),
        ("io.render_s", per("io.render", ops)),
        ("types.build_s", per("types.build", builds as f64)),
        ("apsp.build_s", per("apsp.build", builds as f64)),
        (
            "apsp.dense_frac",
            report::ratio(dense as f64, builds as f64),
        ),
        ("apsp.store_mb", store_mb),
        ("session.steps", report::ratio(steps, ops)),
        ("session.step_s", report::ratio(run_s, steps)),
        ("evaluator.trials", report::ratio(trials, ops)),
        ("evaluator.trials_per_edit", report::ratio(trials, edits)),
        ("http.rtt_s", report::ratio(rtt_s, rtt_n as f64)),
        (
            "http.requests_per_op",
            report::ratio(workload_requests, ops),
        ),
        ("http.retries_per_op", report::ratio(m.retries as f64, ops)),
        ("job.parse_s", per("job.parse", ops)),
        ("job.resolve_s", per("job.resolve", ops)),
        (
            "state.queue_wait_s",
            report::mean(&m.ops.iter().map(|op| op.queue_wait).collect::<Vec<_>>()),
        ),
        ("state.run_s", report::ratio(run_s, ops)),
        ("state.cache_hit_ratio", report::ratio(hits, hits + misses)),
        (
            "state.trials_per_op",
            report::ratio(delta("lopacityd_trials_total"), ops),
        ),
        ("journal.append_p50_s", p50),
        ("journal.append_p99_s", p99),
        (
            "journal.bytes_per_op",
            report::ratio(journal.bytes as f64, ops),
        ),
        (
            "journal.records_per_op",
            report::ratio(journal.records as f64, ops),
        ),
        ("result.fetch_s", report::ratio(fetch_s, fetch_n as f64)),
    ]))
}
