//! `churn` — the evaluator's write path: two held churn sessions on
//! sparse-side Gnutella stand-ins (n ≥ 4096), one client thread each,
//! streaming small `+ u v` / `- u v` batches over a persistent keep-alive
//! connection. An op is one batch POST → report.
//!
//! Random churn almost never breaks certification, so every
//! `craft_every`-th batch is crafted to: it inserts a far-apart pair whose
//! type would exceed θ with one more linked pair, found through
//! `types()` / `dist_store()` on an in-process replica of the session.
//! Every other insert is checked with `trial_insert` on the replica and
//! kept only if it leaves the session certified, so exactly the crafted
//! batches force a repair. The replica applies the same batches (and
//! repairs) in set-up, which also yields the report every batch must
//! return.

use crate::net::{self, Conn, Daemon};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{mix, Opts, Rng, Window};
use lopacity::{
    AnonymizeConfig, Anonymizer, ChurnSession, EdgeEvent, OpacityEvaluator, Removal, TypeSpec,
};
use lopacity_daemon::JobSpec;
use lopacity_gen::Dataset;
use lopacity_graph::{Edge, Graph, VertexId};
use std::collections::HashMap;
use std::time::Instant;

/// Batches per session per second of `--seconds`.
const BATCHES_PER_SECOND: f64 = 9.0;
const BATCH_EVENTS: usize = 4;
const SESSIONS: usize = 2;
const L: u8 = 2;

struct Sizes {
    n: usize,
    /// One batch in this many is crafted to force a repair.
    craft_every: usize,
}

const FULL: Sizes = Sizes {
    n: 4500,
    craft_every: 25,
};
const TOY: Sizes = Sizes {
    n: 300,
    craft_every: 4,
};

/// One session's spec and its precomputed stream.
struct Stream {
    spec: String,
    /// Batch bodies (`+ u v` / `- u v` lines).
    batches: Vec<String>,
    /// The report the daemon must return for each batch.
    expected: Vec<String>,
    crafted: usize,
    /// Replica accounting (all batches): events, skipped events, changed
    /// cells, repairs, repair trials and edits.
    events: usize,
    skipped: usize,
    changed_cells: usize,
    repairs: usize,
    repair_trials: u64,
    repair_edits: usize,
    tracer: Tracer,
}

/// The daemon's churn-session config for `spec`, on the replica.
fn replica(spec: &JobSpec, graph: &Graph) -> ChurnSession {
    ChurnSession::new(Anonymizer::new(graph, &TypeSpec::DegreePairs).config(spec.config()))
}

/// Picks a generator seed whose graph has maxLO < 1 (so a far pair can
/// still raise a type's opacity) and builds the session spec with θ at the
/// initial maxLO, so the session starts certified without a repair.
fn session_spec(opts: &Opts, sizes: &Sizes, session: usize) -> Result<(String, Graph), String> {
    for attempt in 0..16u64 {
        let graph_seed = mix(opts.seed, 200 + 100 * session as u64 + attempt) % 1_000_000;
        let graph = Dataset::Gnutella.generate(sizes.n, graph_seed);
        let config = AnonymizeConfig::new(L, 0.5).with_parallelism(lopacity::Parallelism::Auto);
        let max_lo = Anonymizer::new(&graph, &TypeSpec::DegreePairs)
            .config(config)
            .initial_assessment()
            .as_f64();
        if max_lo < 1.0 {
            let spec = format!(
                "mode churn\nmethod rem\nl {L}\ntheta {max_lo}\nseed {session}\ngraph dataset gnutella {} {graph_seed}\n",
                sizes.n
            );
            return Ok((spec, graph));
        }
    }
    Err("no generator seed gave maxLO < 1".into())
}

/// Vertex lists by original degree.
fn by_degree(ev: &OpacityEvaluator) -> HashMap<u32, Vec<VertexId>> {
    let mut map: HashMap<u32, Vec<VertexId>> = HashMap::new();
    for v in 0..ev.graph().num_vertices() as VertexId {
        if let Some(d) = ev.types().original_degree(v) {
            map.entry(d).or_default().push(v);
        }
    }
    map
}

/// A far-apart non-adjacent pair whose type would exceed θ with one more
/// pair within L, confirmed with `trial_insert`.
fn violating_pair(
    ev: &mut OpacityEvaluator,
    theta: f64,
    classes: &HashMap<u32, Vec<VertexId>>,
    rng: &mut Rng,
) -> Option<Edge> {
    let denominators = ev.types().denominators();
    let mut candidates: Vec<usize> = (0..denominators.len())
        .filter(|&t| {
            let (c, d) = (ev.counts()[t], denominators[t]);
            d > 0 && c < d && (c + 1) as f64 > theta * d as f64 + 1e-9
        })
        .collect();
    while !candidates.is_empty() {
        let t = candidates.swap_remove(rng.below(candidates.len()));
        let label = ev.types().label(t as u32).to_string();
        let (g, h) = label
            .strip_prefix("P{")?
            .strip_suffix('}')?
            .split_once(',')?;
        let (a, b) = (
            classes.get(&g.parse().ok()?)?,
            classes.get(&h.parse().ok()?)?,
        );
        for _ in 0..64 {
            let (u, v) = (a[rng.below(a.len())], b[rng.below(b.len())]);
            if u != v && !ev.graph().has_edge(u, v) && ev.dist_store().get(u, v) > L {
                let e = Edge::new(u, v);
                if !ev.trial_insert(e).satisfies(theta) {
                    return Some(e);
                }
            }
        }
    }
    None
}

/// A random existing edge (a vertex's random neighbor).
fn random_edge(graph: &Graph, rng: &mut Rng) -> Option<Edge> {
    for _ in 0..64 {
        let u = rng.below(graph.num_vertices()) as VertexId;
        let nbrs = graph.neighbors(u);
        if !nbrs.is_empty() {
            return Some(Edge::new(u, nbrs[rng.below(nbrs.len())]));
        }
    }
    None
}

/// A triadic-closure insert (`u`'s neighbor's neighbor `v`, not yet
/// linked) that leaves the session certified.
fn closing_pair(ev: &mut OpacityEvaluator, theta: f64, rng: &mut Rng) -> Option<Edge> {
    for _ in 0..64 {
        let (u, w) = random_edge(ev.graph(), rng)?.endpoints();
        let nbrs = ev.graph().neighbors(w);
        let v = nbrs[rng.below(nbrs.len())];
        if v != u && !ev.graph().has_edge(u, v) {
            let e = Edge::new(u, v);
            if ev.trial_insert(e).satisfies(theta) {
                return Some(e);
            }
        }
    }
    None
}

/// The next batch's events, applied to `shadow` (a copy of the replica's
/// evaluator) as they are chosen. A crafted batch is inserts only, the
/// last one violating, so nothing in it can lower the violation. Returns
/// the events and whether the batch is crafted.
fn next_batch(
    shadow: &mut OpacityEvaluator,
    theta: f64,
    classes: &HashMap<u32, Vec<VertexId>>,
    craft: bool,
    rng: &mut Rng,
) -> (Vec<EdgeEvent>, bool) {
    let mut events = Vec::with_capacity(BATCH_EVENTS);
    for k in 0..BATCH_EVENTS {
        let last = k + 1 == BATCH_EVENTS;
        let event = if craft && last {
            violating_pair(shadow, theta, classes, rng).map(EdgeEvent::Insert)
        } else if !craft && k % 2 == 0 {
            random_edge(shadow.graph(), rng).map(EdgeEvent::Delete)
        } else {
            closing_pair(shadow, theta, rng).map(EdgeEvent::Insert)
        };
        match event {
            Some(event) => {
                shadow.apply_external(event.edge(), event.is_insert());
                events.push(event);
            }
            None if craft && last => return (events, false),
            None => {}
        }
    }
    (events, craft)
}

/// Builds one session's stream by applying it to the replica batch by
/// batch (repairing like the daemon), recording each expected report.
fn build_stream(
    spec_text: String,
    graph: Graph,
    sizes: &Sizes,
    batches: usize,
    seed: u64,
    traced: bool,
) -> Result<Stream, String> {
    let spec = JobSpec::parse(&spec_text)?;
    let mut tracer = Tracer::new(traced, Instant::now());
    let mut session = replica(&spec, &graph);
    drop(graph);
    let mut shadow = session.evaluator().clone();
    let classes = by_degree(&shadow);
    let mut rng = Rng::new(seed);
    let mut s = Stream {
        spec: spec_text,
        batches: Vec::with_capacity(batches),
        expected: Vec::with_capacity(batches),
        crafted: 0,
        events: 0,
        skipped: 0,
        changed_cells: 0,
        repairs: 0,
        repair_trials: 0,
        repair_edits: 0,
        tracer: Tracer::new(false, Instant::now()),
    };
    for b in 0..batches {
        let craft = b % sizes.craft_every == sizes.craft_every - 1;
        let (events, crafted) = next_batch(&mut shadow, spec.theta, &classes, craft, &mut rng);
        tracer.set_op(b as u64);
        let report = tracer.span("churn.apply", || session.apply_batch(&events));
        if report.violated != crafted {
            return Err(format!(
                "replica batch {b}: violated {} but crafted {crafted}",
                report.violated
            ));
        }
        let mut expected = format!(
            "applied {}\nskipped {}\nchanged_cells {}\nmax_lo {:.6}\nviolated {}\n",
            report.applied, report.skipped, report.changed_cells, report.max_lo, report.violated
        );
        s.crafted += usize::from(crafted);
        s.events += events.len();
        s.skipped += report.skipped;
        s.changed_cells += report.changed_cells;
        if report.violated {
            let patch = tracer.span("churn.repair", || session.repair(Removal));
            expected.push_str(&format!(
                "repair_achieved {}\nrepair_steps {}\nrepair_trials {}\nrepair_removed {}\nrepair_inserted {}\nrepair_max_lo {:.6}\n",
                patch.achieved, patch.steps, patch.trials, patch.removed.len(), patch.inserted.len(), patch.max_lo
            ));
            if !patch.achieved {
                return Err(format!("replica repair of batch {b} did not restore θ"));
            }
            for &e in &patch.removed {
                shadow.apply_external(e, false);
            }
            for &e in &patch.inserted {
                shadow.apply_external(e, true);
            }
            s.repairs += 1;
            s.repair_trials += patch.trials;
            s.repair_edits += patch.edits();
        }
        s.batches
            .push(events.iter().map(|e| format!("{e}\n")).collect());
        s.expected.push(expected);
    }
    s.tracer = tracer;
    Ok(s)
}

/// Set-up: boot the daemon, open both sessions, and build both streams on
/// replicas (one thread per session) while the daemon builds its own.
fn setup(
    opts: &Opts,
    sizes: &Sizes,
    attempt: usize,
    traced: bool,
) -> Result<(Daemon, Vec<u64>, Vec<Stream>), String> {
    let daemon = Daemon::boot(&opts.bin_dir, &opts.dir.join(format!("daemon{attempt}")))?;
    let batches = if opts.toy {
        12
    } else {
        (opts.seconds * BATCHES_PER_SECOND)
            .round()
            .max(sizes.craft_every as f64) as usize
    };
    let specs: Vec<(String, Graph)> = (0..SESSIONS)
        .map(|s| session_spec(opts, sizes, s))
        .collect::<Result<_, _>>()?;
    let mut conn = Conn::new(&daemon.addr, 0);
    let ids: Vec<u64> = specs
        .iter()
        .map(|(spec, _)| net::submit(&mut conn, spec))
        .collect::<Result<_, _>>()?;
    let streams: Vec<Result<Stream, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .into_iter()
            .enumerate()
            .map(|(k, (spec, graph))| {
                s.spawn(move || {
                    build_stream(
                        spec,
                        graph,
                        sizes,
                        batches,
                        mix(opts.seed, 300 + k as u64),
                        traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    let streams: Vec<Stream> = streams.into_iter().collect::<Result<_, _>>()?;
    for &id in &ids {
        open_session(&mut conn, id)?;
    }
    Ok((daemon, ids, streams))
}

/// Waits for a churn job to hold its certified session.
fn open_session(conn: &mut Conn, id: u64) -> Result<(), String> {
    let status = net::wait_finished(conn, id)?;
    if net::field(&status, "phase") == Some("done")
        && net::field(&status, "certified") == Some("true")
    {
        Ok(())
    } else {
        Err(format!("churn job {id} ended {status:?}"))
    }
}

/// Reboots a daemon for a second window over the same streams.
fn reopen(opts: &Opts, streams: &[Stream], attempt: usize) -> Result<(Daemon, Vec<u64>), String> {
    let daemon = Daemon::boot(&opts.bin_dir, &opts.dir.join(format!("daemon{attempt}")))?;
    let mut conn = Conn::new(&daemon.addr, 0);
    let ids: Vec<u64> = streams
        .iter()
        .map(|s| net::submit(&mut conn, &s.spec))
        .collect::<Result<_, _>>()?;
    for &id in &ids {
        open_session(&mut conn, id)?;
    }
    Ok((daemon, ids))
}

struct Batch {
    latency: f64,
    body: Result<String, String>,
}

struct Measured {
    window: Window,
    /// Per session, per batch.
    batches: Vec<Vec<Batch>>,
    requests: u64,
    retries: u64,
    probes: u64,
    trials: f64,
    journal: Option<net::JournalReplay>,
    tracer: Tracer,
}

fn window(
    opts: &Opts,
    daemon: Daemon,
    ids: &[u64],
    streams: &[Stream],
    traced: bool,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let before = net::scrape_metrics(&daemon.addr)?;
    let journal_from = daemon.journal_len();
    let cpu_before = daemon.cpu_seconds()?;
    let epoch = Instant::now();
    let results: Vec<(Vec<Batch>, Conn, u64, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .zip(streams)
            .enumerate()
            .map(|(k, (&id, stream))| {
                let addr = daemon.addr.clone();
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let mut conn = Conn::new(&addr, mix(opts.seed, 400 + k as u64));
                    let path = format!("/jobs/{id}/events");
                    let mut probes = 0;
                    let batches = stream
                        .batches
                        .iter()
                        .enumerate()
                        .map(|(b, body)| {
                            tr.set_op((k * stream.batches.len() + b) as u64);
                            let t = Instant::now();
                            let span = tr.enter("http.batch");
                            let reply = conn.text("POST", &path, body.as_bytes());
                            tr.exit(span);
                            let latency = t.elapsed().as_secs_f64();
                            if tr.enabled() && b.is_multiple_of(crate::PROBE_EVERY) {
                                // The same POST to a job that does not
                                // exist: the daemon answers 404 before any
                                // lock, journal or apply, so this is the
                                // exchange's own cost.
                                let span = tr.enter("http.rtt");
                                let _ =
                                    conn.call("POST", "/jobs/999999999/events", body.as_bytes());
                                tr.exit(span);
                                probes += 1;
                            }
                            Batch {
                                latency,
                                body: reply,
                            }
                        })
                        .collect();
                    (batches, conn, probes, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn client panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = daemon.cpu_seconds()? - cpu_before;
    let after = net::scrape_metrics(&daemon.addr)?;
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
    let (mut batches, mut requests, mut retries, mut probes) = (Vec::new(), 0, 0, 0);
    for (b, conn, p, tr) in results {
        batches.push(b);
        requests += conn.requests;
        retries += conn.retries;
        probes += p;
        tracer.absorb(tr);
    }
    let (mut failed, mut edits, mut latencies) = (0, Vec::new(), Vec::new());
    for (k, (session, stream)) in batches.iter().zip(streams).enumerate() {
        for (b, (batch, expected)) in session.iter().zip(&stream.expected).enumerate() {
            latencies.push(batch.latency);
            let verdict = match &batch.body {
                Err(e) => Err(e.clone()),
                Ok(body) if body != expected => {
                    Err(format!("report {body:?} != replica {expected:?}"))
                }
                Ok(body) => {
                    let certified = net::field(body, "violated") == Some("false")
                        || net::field(body, "repair_achieved") == Some("true");
                    let field = |key| {
                        net::field(body, key)
                            .and_then(|v| v.parse::<f64>().ok())
                            .unwrap_or(0.0)
                    };
                    edits.push(field("repair_removed") + field("repair_inserted"));
                    if certified {
                        Ok(())
                    } else {
                        Err("batch ended uncertified".to_string())
                    }
                }
            };
            if let Err(e) = verdict {
                failed += 1;
                out.fail_check(format!("session {k} batch {b}: {e}"));
            }
        }
    }
    let delta = |key: &str| {
        after.get(key).copied().unwrap_or(0) as f64 - before.get(key).copied().unwrap_or(0) as f64
    };
    let window = Window {
        setup_s: Vec::new(),
        attempted: latencies.len() as u64,
        latencies,
        wall_s,
        cpu_s,
        peak_rss_mb,
        edits,
        failed,
    };
    Ok(Measured {
        window,
        batches,
        requests,
        retries,
        probes,
        trials: delta("lopacityd_trials_total"),
        journal,
        tracer,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new("churn");
    let sizes = if opts.toy { &TOY } else { &FULL };
    let repeats = if opts.trace { 1 } else { crate::SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut current = None;
    for attempt in 0..repeats {
        if let Some((d, _, _)) = current.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        current = Some(setup(opts, sizes, attempt, opts.trace)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, ids, streams) = current.expect("set-up ran");
    let digest = crate::digest(
        streams
            .iter()
            .flat_map(|s| std::iter::once(s.spec.clone()).chain(s.batches.iter().cloned())),
    );
    out.note(format!(
        "{} sessions x {} batches of {BATCH_EVENTS} events, {} crafted, {} replica repairs; op-list digest {digest:016x}",
        streams.len(),
        streams[0].batches.len(),
        streams.iter().map(|s| s.crafted).sum::<usize>(),
        streams.iter().map(|s| s.repairs).sum::<usize>()
    ));
    let mut untraced = window(opts, daemon, &ids, &streams, false, &mut out)?;
    untraced.window.setup_s = setup_s;
    if !opts.trace {
        crate::end_to_end(&mut out, &untraced.window);
        return Ok(out);
    }
    let (daemon, ids) = reopen(opts, &streams, repeats)?;
    let traced = window(opts, daemon, &ids, &streams, true, &mut out)?;
    let layers = layers(opts, &streams, &traced, &mut out)?;
    crate::per_layer(&mut out, &layers, &untraced.window, &traced.window);
    Ok(out)
}

fn layers(
    opts: &Opts,
    streams: &[Stream],
    m: &Measured,
    out: &mut Outcome,
) -> Result<HashMap<&'static str, f64>, String> {
    let ops = m.window.latencies.len() as f64;
    let sum = |f: &dyn Fn(&Stream) -> f64| streams.iter().map(f).sum::<f64>();
    let (events, skipped, cells) = (
        sum(&|s| s.events as f64),
        sum(&|s| s.skipped as f64),
        sum(&|s| s.changed_cells as f64),
    );
    let (repairs, repair_trials, repair_edits) = (
        sum(&|s| s.repairs as f64),
        sum(&|s| s.repair_trials as f64),
        sum(&|s| s.repair_edits as f64),
    );
    let replica_total = |name: &str| streams.iter().map(|s| s.tracer.totals(name).0).sum::<f64>();
    let (rtt_s, rtt_n) = m.tracer.totals("http.rtt");
    let rtt = report::ratio(rtt_s, rtt_n as f64);
    let journal = m
        .journal
        .as_ref()
        .ok_or("traced window without a journal replay")?;
    let path = opts
        .keep_dir
        .join(format!("trace-churn-seed{}.tsv", opts.seed));
    m.tracer
        .write_tsv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    let served: usize = m.batches.iter().map(Vec::len).sum();
    out.note(format!(
        "{served} batches served; journal {} records, {} bytes",
        journal.records, journal.bytes
    ));
    Ok(HashMap::from([
        ("evaluator.trials", report::ratio(repair_trials, ops)),
        (
            "evaluator.trials_per_edit",
            report::ratio(repair_trials, repair_edits),
        ),
        ("http.rtt_s", rtt),
        (
            "http.requests_per_op",
            report::ratio(m.requests as f64 - m.probes as f64, ops),
        ),
        ("http.retries_per_op", report::ratio(m.retries as f64, ops)),
        ("state.trials_per_op", report::ratio(m.trials, ops)),
        ("journal.append_p50_s", report::median(&journal.append_s)),
        (
            "journal.append_p99_s",
            report::percentile(&journal.append_s, 0.99),
        ),
        (
            "journal.bytes_per_op",
            report::ratio(journal.bytes as f64, ops),
        ),
        (
            "journal.records_per_op",
            report::ratio(journal.records as f64, ops),
        ),
        (
            "churn.apply_us_per_event",
            1e6 * report::ratio(replica_total("churn.apply"), events),
        ),
        ("churn.changed_cells_per_batch", report::ratio(cells, ops)),
        ("churn.skipped_frac", report::ratio(skipped, events)),
        ("churn.repairs", repairs),
        (
            "churn.repair_s",
            report::ratio(replica_total("churn.repair"), repairs),
        ),
        ("churn.server_s", report::mean(&m.window.latencies) - rtt),
    ]))
}
