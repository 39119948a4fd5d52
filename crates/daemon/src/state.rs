//! Shared daemon state: the job table, the bounded work queue, the worker
//! pool loop, the prepared-evaluator session cache, and the metrics
//! counters surfaced on `/metrics`.
//!
//! Concurrency design, in one paragraph: HTTP handler threads only ever
//! touch short-lived locks (submit, status snapshots, cancel) or the
//! per-job [`RunControl`] (lock-free atomics), so a long anonymization run
//! never blocks the front end. Workers pull from a [`Condvar`]-guarded
//! queue; a submission that would overflow the queue is rejected at the
//! door (`429`) rather than buffered without bound. The session cache maps
//! a [`JobSpec::cache_key`] to an `Arc<OnceLock<OpacityEvaluator>>`:
//! `OnceLock::get_or_init` blocks every concurrent worker wanting the same
//! key behind the single builder, so N simultaneous submissions over the
//! same graph pay exactly one APSP build — the losers record cache hits.
//!
//! Held churn sessions each sit behind their own lock, taken in the order
//! map → session → journal. The map lock covers only the lookup; the
//! journal append, the apply and any repair run under the session lock,
//! so one session's repair never delays another session's batch. Each
//! session's `events` records thus reach the journal in apply order.
//! Different sessions' records may interleave, and replay re-applies each
//! session's batches in that session's own order.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lopacity::{
    AnonymizationOutcome, Anonymizer, ChurnSession, EdgeEvent, ExactMinRemovals,
    OpacityEvaluator, ProgressObserver, Removal, RemovalInsertion, RepairPatch, RunCheckpoint,
    RunControl, RunInfo, StepEvent, TypeSpec,
};
use lopacity_util::FaultPlan;

use crate::config::DaemonConfig;
use crate::job::{graph_hash, resolve_graph, JobMode, JobSpec};
use crate::journal::{Journal, Record};

/// Monotonic counters for `/metrics` (plus two gauges computed at render
/// time). Relaxed ordering everywhere: these are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Metrics {
    pub jobs_submitted: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub jobs_failed: AtomicU64,
    /// Submissions bounced off a full queue (`429`).
    pub jobs_rejected: AtomicU64,
    /// Prepared-evaluator cache: jobs that reused an existing build.
    pub cache_hits: AtomicU64,
    /// Prepared-evaluator cache: jobs that paid for the build.
    pub cache_builds: AtomicU64,
    /// Candidate evaluations across all finished runs and repairs.
    pub trials_total: AtomicU64,
    /// Full evaluator clones for scan-worker warmup, across all jobs.
    pub fork_clones_total: AtomicU64,
    /// Churn events that changed a held session's graph.
    pub churn_events_applied: AtomicU64,
    /// Repairs triggered by churn batches that broke certification.
    pub churn_repairs: AtomicU64,
    /// Finished jobs garbage-collected after outliving the job TTL.
    pub jobs_expired: AtomicU64,
    /// Workers currently inside a job (gauge).
    pub workers_busy: AtomicU64,
    /// Jobs re-queued or rebuilt from the journal at boot.
    pub jobs_recovered: AtomicU64,
    /// Jobs failed after exhausting their panic-retry budget.
    pub jobs_quarantined: AtomicU64,
    /// Queued jobs dropped by load-shedding admission control.
    pub shed_total: AtomicU64,
    /// Submissions refused by memory admission control: predicted
    /// footprint over the per-job budget (`413`) or over the global
    /// budget across queued+running jobs (`429`).
    pub jobs_rejected_mem: AtomicU64,
    /// Jobs stopped at a cooperative checkpoint by their wall-clock
    /// deadline (finished `cancelled` with `interrupted deadline`).
    pub deadline_cancels: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// Job lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Queued,
    Running,
    /// Finished normally (including budget-interrupted partial outcomes —
    /// those are deterministic results, not failures).
    Done,
    /// Stopped by an explicit cancel; the summary still carries the
    /// partial outcome committed before the stop.
    Cancelled,
    Failed,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal phase (has a result).
    pub fn finished(self) -> bool {
        matches!(self, Phase::Done | Phase::Cancelled | Phase::Failed)
    }
}

/// Snapshot of where a job is and what it produced.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub phase: Phase,
    /// `key value` lines; the job's result once finished, an error
    /// message for failed jobs, empty while queued.
    pub summary: String,
}

/// One submitted job. Shared between the worker that runs it and the
/// handler threads that poll or cancel it.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    /// Cancellation + dynamic budgets, honored cooperatively inside the
    /// greedy driver (`RunContext` checkpoints).
    pub control: RunControl,
    status: Mutex<JobStatus>,
    /// Progress lines appended live by the run's observer; clients poll
    /// `GET /jobs/<id>/progress?since=K`.
    progress: Mutex<Vec<String>>,
    /// When the job reached a terminal phase — the GC clock for the job
    /// TTL ([`ServerState::gc_expired`]). `None` while queued/running.
    finished_at: Mutex<Option<Instant>>,
    /// The newest durable [`RunCheckpoint`] (journaled, or replayed at
    /// boot). A worker picking the job up resumes from it.
    checkpoint: Mutex<Option<RunCheckpoint>>,
    /// Times a worker has panicked inside this job; at
    /// `max_attempts` the job is quarantined instead of re-queued.
    attempts: AtomicU64,
    /// Canonical spec size — the unit of backlog accounting for
    /// load-shedding admission.
    spec_bytes: usize,
    /// Predicted peak distance-store bytes ([`JobSpec::estimated_footprint`])
    /// — the unit of memory-budget accounting. Computed once at admission
    /// from the spec alone, never from a built graph.
    pub footprint: u64,
    /// Rendered final graph (canonical edge-list text), served on
    /// `GET /jobs/<id>/graph` once the job is done.
    result_graph: Mutex<Option<String>>,
}

impl Job {
    fn new(id: u64, spec: JobSpec, spec_bytes: usize) -> Job {
        let footprint = spec.estimated_footprint();
        Job {
            id,
            spec,
            footprint,
            control: RunControl::new(),
            status: Mutex::new(JobStatus { phase: Phase::Queued, summary: String::new() }),
            progress: Mutex::new(Vec::new()),
            finished_at: Mutex::new(None),
            checkpoint: Mutex::new(None),
            attempts: AtomicU64::new(0),
            spec_bytes,
            result_graph: Mutex::new(None),
        }
    }

    pub fn snapshot(&self) -> JobStatus {
        self.status.lock().expect("job status lock").clone()
    }

    /// The rendered final graph, if the job produced one.
    pub fn result_graph(&self) -> Option<String> {
        self.result_graph.lock().expect("job result lock").clone()
    }

    /// The newest durable checkpoint (the resume point).
    pub fn latest_checkpoint(&self) -> Option<RunCheckpoint> {
        self.checkpoint.lock().expect("job checkpoint lock").clone()
    }

    fn store_checkpoint(&self, ck: RunCheckpoint) {
        *self.checkpoint.lock().expect("job checkpoint lock") = Some(ck);
    }

    /// Progress lines from `since` on, plus the new cursor.
    pub fn progress_since(&self, since: usize) -> (usize, Vec<String>) {
        let lines = self.progress.lock().expect("job progress lock");
        let since = since.min(lines.len());
        (lines.len(), lines[since..].to_vec())
    }

    fn set_phase(&self, phase: Phase, summary: String) {
        let mut status = self.status.lock().expect("job status lock");
        status.phase = phase;
        status.summary = summary;
        drop(status);
        if phase.finished() {
            *self.finished_at.lock().expect("job finished_at lock") = Some(Instant::now());
        }
    }

    /// Whether the job finished more than `ttl` ago.
    fn expired(&self, ttl: Duration) -> bool {
        self.finished_at
            .lock()
            .expect("job finished_at lock")
            .is_some_and(|at| at.elapsed() >= ttl)
    }

    fn push_progress(&self, line: String) {
        self.progress.lock().expect("job progress lock").push(line);
    }
}

/// Rejection reasons for [`ServerState::submit`].
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The daemon is shutting down (or draining).
    ShuttingDown,
    /// The checkpointed backlog byte budget cannot admit this spec even
    /// after shedding — retry later (`503` + `Retry-After`).
    Overloaded,
    /// The spec's predicted footprint alone exceeds the per-job memory
    /// budget — no retry will help (`413`, estimate in the body).
    TooLarge { estimate: u64, budget: u64 },
    /// Admitting this spec would push the summed footprint of queued and
    /// running jobs over the global memory budget — retry once running
    /// work drains (`429` + `Retry-After`).
    MemFull { estimate: u64, in_flight: u64, budget: u64 },
    /// The durable journal could not record the submission; the job was
    /// not admitted (crash safety over availability).
    Journal(String),
}

/// Failure modes of `POST /jobs/<id>/events`.
#[derive(Debug)]
pub enum ChurnError {
    /// No job with that id.
    UnknownJob,
    /// The job exists but holds no live churn session (wrong mode, not
    /// finished preparing, or setup failed).
    NoSession,
    /// The event stream did not parse; the message names the line.
    Parse(String),
}

/// Observer that streams step events into the job's progress log as they
/// commit. Only parallelism-invariant fields go into the lines, so a
/// cancelled job's log is comparable (prefix-wise) to an uncancelled run
/// of the same spec regardless of pool sizing.
///
/// It is also the journaling hook: the greedy driver publishes a
/// [`RunCheckpoint`] into the control just before emitting each step
/// event, so draining the slot here makes every logged step's snapshot
/// durable *synchronously* on the worker thread — a crash after step `k`
/// always recovers to a checkpoint at step `k` or later... never earlier
/// than the last fsync'd one.
struct ProgressLog<'a> {
    job: &'a Job,
    state: &'a ServerState,
}

impl ProgressObserver for ProgressLog<'_> {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.job.push_progress(format!(
            "start strategy={} l={} theta={} initial_lo={:.6}",
            info.strategy, info.l, info.theta, info.initial_lo
        ));
    }

    fn on_step(&mut self, event: &StepEvent) {
        match self.state.faults.check("worker.panic") {
            Some(lopacity_util::FaultAction::Error) => {
                panic!("injected fault at worker.panic (step {})", event.step)
            }
            Some(lopacity_util::FaultAction::Crash) => self.state.faults.abort_now("worker.panic"),
            None => {}
        }
        self.job.push_progress(format!(
            "step {} trials={} removed={} inserted={} max_lo={:.6} n_at_max={}",
            event.step, event.trials, event.removed, event.inserted, event.max_lo, event.n_at_max
        ));
        if let Some(ck) = self.job.control.take_checkpoint() {
            if let Err(e) = self
                .state
                .journal_append(&Record::Checkpoint { id: self.job.id, checkpoint: ck.clone() })
            {
                // Degraded, not fatal: the run continues; recovery just
                // resumes from an older durable checkpoint.
                self.job.push_progress(format!("journal write failed for checkpoint: {e}"));
            }
            self.job.store_checkpoint(ck);
        }
    }

    fn on_run_end(&mut self, outcome: &AnonymizationOutcome) {
        self.job.push_progress(format!(
            "end achieved={} steps={} trials={} final_lo={:.6}",
            outcome.achieved, outcome.steps, outcome.trials, outcome.final_lo
        ));
    }
}

/// Everything the daemon's threads share.
pub struct ServerState {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    shutdown: AtomicBool,
    /// Drain mode: stop admitting, suppress terminal journaling so
    /// running and queued jobs recover on the next boot.
    draining: AtomicBool,
    /// Set during boot-time journal replay to suppress re-journaling of
    /// the records being replayed.
    recovering: AtomicBool,
    /// The durable journal, once attached ([`ServerState::attach_journal`]).
    journal: OnceLock<Arc<Journal>>,
    /// Deterministic fault plan (inert by default).
    pub(crate) faults: Arc<FaultPlan>,
    checkpoint_every: u64,
    max_attempts: u64,
    backlog_bytes: Option<usize>,
    job_mem_budget: Option<u64>,
    mem_budget: Option<u64>,
    job_deadline: Option<Duration>,
    /// `Idempotency-Key -> job id` for dedupe of client resubmissions.
    /// Rebuilt from the journal at boot (keys live inside canonical
    /// specs), so a retry across a daemon crash still finds its job.
    /// Leaf lock: never held while taking another lock.
    ikeys: Mutex<HashMap<String, u64>>,
    /// `cache_key -> once-built prepared evaluator`. Grows with distinct
    /// keys for the daemon's lifetime — acceptable for a session daemon;
    /// restart to flush.
    cache: Mutex<HashMap<String, Arc<OnceLock<OpacityEvaluator>>>>,
    /// Live churn sessions by job id, each behind its own lock. The map
    /// lock is held only to look up, insert or remove a session; a batch
    /// journals, applies and repairs under its session's lock (lock order
    /// map → session → journal; see the module docs).
    churn: Mutex<HashMap<u64, Arc<Mutex<ChurnSession>>>>,
    /// Keep finished jobs (results, progress logs, held churn sessions)
    /// this long after they finish; `None` keeps them for the daemon's
    /// lifetime. Swept opportunistically on submit and after every run.
    job_ttl: Option<Duration>,
    pub metrics: Metrics,
}

impl ServerState {
    /// The state for `config`'s queue, budgets, retention and checkpoint
    /// knobs; `faults` is shared with every injection site (the journal's
    /// too, see [`crate::Daemon::bind`]).
    pub fn new(config: &DaemonConfig, faults: Arc<FaultPlan>) -> Arc<ServerState> {
        Arc::new(ServerState {
            next_id: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            recovering: AtomicBool::new(false),
            journal: OnceLock::new(),
            faults,
            checkpoint_every: config.checkpoint_every,
            max_attempts: config.max_attempts.max(1),
            backlog_bytes: config.backlog_bytes,
            job_mem_budget: config.job_mem_budget,
            mem_budget: config.mem_budget,
            job_deadline: config.job_deadline_secs.map(Duration::from_secs),
            ikeys: Mutex::new(HashMap::new()),
            cache: Mutex::new(HashMap::new()),
            churn: Mutex::new(HashMap::new()),
            job_ttl: config.job_ttl_secs.map(Duration::from_secs),
            metrics: Metrics::default(),
        })
    }

    /// Appends to the journal if one is attached and the state is not
    /// replaying it. Failures on this path are reported to the caller
    /// only where admission depends on them (submit); elsewhere the
    /// record is dropped with a progress note — the in-memory result
    /// stays valid, recovery just re-runs more.
    fn journal_append(&self, record: &Record) -> std::io::Result<()> {
        if self.recovering.load(Ordering::SeqCst) {
            return Ok(());
        }
        match self.journal.get() {
            Some(journal) => journal.append(record),
            None => Ok(()),
        }
    }

    /// Attaches the durable journal and replays its records: finished
    /// jobs are restored in place (status, summary, result graph, with a
    /// fresh TTL clock), `done` churn jobs get their held session rebuilt
    /// deterministically (re-run setup, re-apply every journaled event
    /// batch), and interrupted jobs are re-queued carrying their newest
    /// checkpoint so the worker resumes instead of restarting. Must run
    /// before the worker pool starts. Returns the number of jobs
    /// recovered (re-queued or rebuilt), also counted in
    /// `lopacityd_jobs_recovered`.
    pub fn attach_journal(
        self: &Arc<ServerState>,
        journal: Arc<Journal>,
        records: Vec<Record>,
    ) -> usize {
        self.journal.set(journal).expect("journal attached once");

        #[derive(Default)]
        struct Replay {
            spec: Option<String>,
            checkpoint: Option<RunCheckpoint>,
            events: Vec<String>,
            terminal: Option<(String, String)>,
            result: Option<String>,
        }
        let mut replay: BTreeMap<u64, Replay> = BTreeMap::new();
        for record in records {
            let entry = replay.entry(record.id()).or_default();
            match record {
                Record::Submit { spec, .. } => entry.spec = Some(spec),
                Record::Checkpoint { checkpoint, .. } => entry.checkpoint = Some(checkpoint),
                Record::Events { batch, .. } => entry.events.push(batch),
                Record::Phase { phase, summary, .. } => entry.terminal = Some((phase, summary)),
                Record::Result { graph, .. } => entry.result = Some(graph),
            }
        }

        self.recovering.store(true, Ordering::SeqCst);
        let mut recovered = 0;
        for (&id, entry) in &replay {
            self.next_id.fetch_max(id, Ordering::Relaxed);
            let Some(spec_text) = &entry.spec else { continue };
            let spec = match JobSpec::parse(spec_text) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("lopacityd: journal replay: job {id} spec rejected: {e}");
                    continue;
                }
            };
            let job = Arc::new(Job::new(id, spec, spec_text.len()));
            self.jobs.lock().expect("jobs lock").insert(id, Arc::clone(&job));
            // Idempotency keys ride inside the journaled canonical spec,
            // so the dedupe map rebuilds for free — a client retrying
            // across a daemon crash still lands on its original job.
            if let Some(key) = &job.spec.idempotency_key {
                self.ikeys.lock().expect("ikeys lock").insert(key.clone(), id);
            }
            match &entry.terminal {
                Some((phase, summary)) => {
                    // A `done` churn job still owes its clients a live
                    // session: rebuild it by re-running the (deterministic)
                    // setup and re-applying the journaled batches.
                    if job.spec.mode == JobMode::Churn && phase == "done" {
                        self.run_job(&job);
                        for batch in &entry.events {
                            if let Err(e) = self.apply_churn_events(id, batch) {
                                eprintln!(
                                    "lopacityd: journal replay: job {id} event batch failed: {e:?}"
                                );
                            }
                        }
                        recovered += 1;
                    }
                    *job.result_graph.lock().expect("job result lock") = entry.result.clone();
                    let restored = match phase.as_str() {
                        "done" => Phase::Done,
                        "cancelled" => Phase::Cancelled,
                        _ => Phase::Failed,
                    };
                    job.set_phase(restored, summary.clone());
                    job.push_progress("restored from journal".to_string());
                }
                None => {
                    // Interrupted mid-flight (crash or drain): requeue,
                    // resuming from the newest durable checkpoint.
                    if let Some(ck) = &entry.checkpoint {
                        job.push_progress(format!("recovered checkpoint at step {}", ck.steps));
                        job.store_checkpoint(ck.clone());
                    }
                    self.queue.lock().expect("queue lock").push_back(Arc::clone(&job));
                    self.queue_cv.notify_one();
                    recovered += 1;
                }
            }
        }
        self.recovering.store(false, Ordering::SeqCst);
        bump(&self.metrics.jobs_recovered, recovered);
        recovered as usize
    }

    /// Enters drain mode: stop admitting (`503`), cancel running jobs so
    /// they stop at their next cooperative checkpoint, and suppress
    /// terminal journaling — drained jobs keep their Submit + Checkpoint
    /// records only, so the next boot re-queues and resumes them. The
    /// worker pool exits once current jobs reach their stop.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.cancel_all();
        self.request_shutdown();
    }

    /// Whether drain mode is active.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Drops every finished job that outlived the TTL — its status,
    /// progress log, and any held churn session — and counts it in
    /// `jobs_expired`. A no-op without a TTL; running and queued jobs are
    /// never collected. Returns how many jobs were dropped.
    pub fn gc_expired(&self) -> usize {
        let Some(ttl) = self.job_ttl else { return 0 };
        let mut jobs = self.jobs.lock().expect("jobs lock");
        let expired: Vec<u64> = jobs
            .iter()
            .filter(|(_, job)| job.snapshot().phase.finished() && job.expired(ttl))
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            jobs.remove(id);
        }
        drop(jobs);
        if !expired.is_empty() {
            let mut sessions = self.churn.lock().expect("churn lock");
            for id in &expired {
                sessions.remove(id);
            }
            drop(sessions);
            self.ikeys.lock().expect("ikeys lock").retain(|_, id| !expired.contains(id));
            bump(&self.metrics.jobs_expired, expired.len() as u64);
        }
        expired.len()
    }

    /// Registers and enqueues a job, or rejects it: shutting down or
    /// draining (`503`), queue at capacity (`429`), backlog byte budget
    /// exceeded even after shedding (`503` + `Retry-After`), or journal
    /// write failure (`503` — an unjournaled job must not be admitted).
    ///
    /// Load shedding: when a backlog budget is set and admitting this
    /// spec would push the queued-spec bytes over it, the *oldest* queued
    /// jobs are shed (failed with a `shed under load` summary, counted in
    /// `lopacityd_shed_total`) until the newcomer fits — freshest work
    /// wins, matching the recovery bias toward recent submissions. A spec
    /// that cannot fit in an empty queue is refused outright.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, SubmitError> {
        if self.is_shutdown() || self.is_draining() {
            return Err(SubmitError::ShuttingDown);
        }
        self.gc_expired();
        // Idempotent resubmission: a spec carrying a known key is the
        // same logical job — hand back the original instead of admitting
        // a duplicate. Stale mappings (job GC'd) are dropped and the
        // submission proceeds as new.
        if let Some(key) = &spec.idempotency_key {
            let existing = self.ikeys.lock().expect("ikeys lock").get(key).copied();
            if let Some(id) = existing {
                match self.job(id) {
                    Some(job) => return Ok(job),
                    None => {
                        self.ikeys.lock().expect("ikeys lock").remove(key);
                    }
                }
            }
        }
        // Memory admission, from the spec alone (no graph is built): a
        // spec whose predicted footprint exceeds the per-job budget can
        // never run here, so refuse it outright.
        let footprint = spec.estimated_footprint();
        if let Some(budget) = self.job_mem_budget {
            if footprint > budget {
                bump(&self.metrics.jobs_rejected_mem, 1);
                return Err(SubmitError::TooLarge { estimate: footprint, budget });
            }
        }
        let canonical = spec.canonical_body();
        let spec_bytes = canonical.len();
        let mut queue = self.queue.lock().expect("queue lock");
        if queue.len() >= self.queue_capacity {
            bump(&self.metrics.jobs_rejected, 1);
            return Err(SubmitError::QueueFull);
        }
        let mut shed: Vec<Arc<Job>> = Vec::new();
        if let Some(budget) = self.backlog_bytes {
            if spec_bytes > budget {
                bump(&self.metrics.jobs_rejected, 1);
                return Err(SubmitError::Overloaded);
            }
            let mut queued_bytes: usize = queue.iter().map(|j| j.spec_bytes).sum();
            while queued_bytes + spec_bytes > budget {
                let oldest = queue.pop_front().expect("over budget implies non-empty queue");
                queued_bytes -= oldest.spec_bytes;
                shed.push(oldest);
            }
        }
        // Global memory budget: the predicted footprints of everything
        // queued or running, plus the newcomer, must fit. Checked under
        // the queue lock so concurrent submits serialize their accounting.
        if let Some(budget) = self.mem_budget {
            let shed_ids: Vec<u64> = shed.iter().map(|j| j.id).collect();
            let in_flight: u64 = self
                .jobs
                .lock()
                .expect("jobs lock")
                .values()
                .filter(|j| !j.snapshot().phase.finished() && !shed_ids.contains(&j.id))
                .map(|j| j.footprint)
                .sum();
            if in_flight.saturating_add(footprint) > budget {
                bump(&self.metrics.jobs_rejected_mem, 1);
                drop(queue);
                self.fail_shed(shed);
                return Err(SubmitError::MemFull { estimate: footprint, in_flight, budget });
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Arc::new(Job::new(id, spec, spec_bytes));
        if let Err(e) = self.journal_append(&Record::Submit { id, spec: canonical }) {
            // Shed jobs stay shed (they were already past the budget with
            // the newcomer; without it the door stays closed anyway).
            drop(queue);
            self.fail_shed(shed);
            return Err(SubmitError::Journal(e.to_string()));
        }
        self.jobs.lock().expect("jobs lock").insert(id, Arc::clone(&job));
        queue.push_back(Arc::clone(&job));
        drop(queue);
        if let Some(key) = &job.spec.idempotency_key {
            self.ikeys.lock().expect("ikeys lock").insert(key.clone(), id);
        }
        self.fail_shed(shed);
        self.queue_cv.notify_one();
        bump(&self.metrics.jobs_submitted, 1);
        Ok(job)
    }

    /// Marks load-shed jobs failed (durably, when journaled).
    fn fail_shed(&self, shed: Vec<Arc<Job>>) {
        for job in shed {
            bump(&self.metrics.shed_total, 1);
            let summary = "error shed under load (backlog byte budget exceeded)\n".to_string();
            let _ = self.journal_append(&Record::Phase {
                id: job.id,
                phase: Phase::Failed.name().to_string(),
                summary: summary.clone(),
            });
            job.set_phase(Phase::Failed, summary);
        }
    }

    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs lock").get(&id).cloned()
    }

    /// Requests cancellation. Running jobs stop at their next cooperative
    /// checkpoint; queued jobs are skipped when a worker dequeues them.
    /// Returns false for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        match self.job(id) {
            Some(job) => {
                job.control.cancel();
                true
            }
            None => false,
        }
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }

    pub fn churn_sessions(&self) -> usize {
        self.churn.lock().expect("churn lock").len()
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Cancels every registered job — used at shutdown so workers reach
    /// their next checkpoint promptly.
    pub fn cancel_all(&self) {
        for job in self.jobs.lock().expect("jobs lock").values() {
            job.control.cancel();
        }
    }

    /// Plain-text metrics exposition (one `name value` per line).
    pub fn render_metrics(&self) -> String {
        let m = &self.metrics;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        for (name, value) in [
            ("lopacityd_jobs_submitted", get(&m.jobs_submitted)),
            ("lopacityd_jobs_completed", get(&m.jobs_completed)),
            ("lopacityd_jobs_cancelled", get(&m.jobs_cancelled)),
            ("lopacityd_jobs_failed", get(&m.jobs_failed)),
            ("lopacityd_jobs_rejected", get(&m.jobs_rejected)),
            ("lopacityd_cache_hits", get(&m.cache_hits)),
            ("lopacityd_cache_builds", get(&m.cache_builds)),
            ("lopacityd_trials_total", get(&m.trials_total)),
            ("lopacityd_fork_clones_total", get(&m.fork_clones_total)),
            ("lopacityd_churn_events_applied", get(&m.churn_events_applied)),
            ("lopacityd_churn_repairs", get(&m.churn_repairs)),
            ("lopacityd_jobs_expired", get(&m.jobs_expired)),
            ("lopacityd_workers_busy", get(&m.workers_busy)),
            ("lopacityd_jobs_recovered", get(&m.jobs_recovered)),
            ("lopacityd_jobs_quarantined", get(&m.jobs_quarantined)),
            ("lopacityd_shed_total", get(&m.shed_total)),
            ("lopacityd_jobs_rejected_mem", get(&m.jobs_rejected_mem)),
            ("lopacityd_deadline_cancels", get(&m.deadline_cancels)),
            ("lopacityd_faults_injected", self.faults.fired()),
            ("lopacityd_queue_depth", self.queue_depth() as u64),
            ("lopacityd_churn_sessions", self.churn_sessions() as u64),
        ] {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// The worker-pool loop: block on the queue, skip pre-cancelled jobs,
    /// run the rest. Returns when shutdown is requested.
    pub fn worker_loop(self: &Arc<ServerState>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.is_shutdown() {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue lock");
                }
            };
            if job.control.is_cancelled() {
                self.finish_job(&job, Phase::Cancelled, "cancelled before start\n".to_string());
                continue;
            }
            bump(&self.metrics.workers_busy, 1);
            // A panicking job must not take its worker down with it. A
            // panicked job is re-queued (it resumes from its last durable
            // checkpoint) until its attempts budget runs out, then
            // quarantined: failed with the captured panic, so one
            // poisoned spec cannot wedge the pool in a retry loop.
            let run = catch_unwind(AssertUnwindSafe(|| self.run_job(&job)));
            if let Err(panic) = run {
                let what = panic_message(panic.as_ref());
                let attempts = job.attempts.fetch_add(1, Ordering::Relaxed) + 1;
                if attempts < self.max_attempts && !self.is_shutdown() {
                    job.push_progress(format!(
                        "panic caught (attempt {attempts}/{}): {what}; re-queued",
                        self.max_attempts
                    ));
                    let mut status = job.status.lock().expect("job status lock");
                    status.phase = Phase::Queued;
                    status.summary = String::new();
                    drop(status);
                    self.queue.lock().expect("queue lock").push_back(Arc::clone(&job));
                    self.queue_cv.notify_one();
                } else {
                    bump(&self.metrics.jobs_quarantined, 1);
                    bump(&self.metrics.jobs_failed, 1);
                    self.finish_job(
                        &job,
                        Phase::Failed,
                        format!("error quarantined after {attempts} panics: {what}\n"),
                    );
                }
            }
            self.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
            self.gc_expired();
        }
    }

    /// Moves a job to a terminal phase, journaling the transition unless
    /// the daemon is draining — a drain-interrupted job must recover, so
    /// it gets no terminal record.
    fn finish_job(&self, job: &Job, phase: Phase, summary: String) {
        if phase == Phase::Cancelled {
            bump(&self.metrics.jobs_cancelled, 1);
        }
        if self.is_draining() {
            job.set_phase(phase, summary);
            return;
        }
        if let Err(e) = self.journal_append(&Record::Phase {
            id: job.id,
            phase: phase.name().to_string(),
            summary: summary.clone(),
        }) {
            job.push_progress(format!("journal write failed for terminal phase: {e}"));
        }
        job.set_phase(phase, summary);
    }

    /// Fetches (building at most once per key, daemon-wide) the prepared
    /// evaluator for a spec over its resolved graph.
    fn cached_evaluator(&self, spec: &JobSpec, graph: &lopacity_graph::Graph) -> OpacityEvaluator {
        let key = spec.cache_key(graph_hash(graph));
        // Degradation, not failure: if the cache cannot store the build
        // (injected `cache.insert` fault), the job pays for a private
        // build and completes anyway — results never depend on the cache.
        if self.faults.check_io("cache.insert").is_err() {
            bump(&self.metrics.cache_builds, 1);
            return OpacityEvaluator::with_options(
                graph.clone(),
                &TypeSpec::DegreePairs,
                spec.l,
                spec.engine,
                lopacity::Parallelism::Auto,
                spec.store,
            );
        }
        let slot = {
            let mut cache = self.cache.lock().expect("cache lock");
            Arc::clone(cache.entry(key).or_default())
        };
        let mut built = false;
        let ev = slot.get_or_init(|| {
            built = true;
            OpacityEvaluator::with_options(
                graph.clone(),
                &TypeSpec::DegreePairs,
                spec.l,
                spec.engine,
                lopacity::Parallelism::Auto,
                spec.store,
            )
        });
        if built {
            bump(&self.metrics.cache_builds, 1);
        } else {
            bump(&self.metrics.cache_hits, 1);
        }
        ev.clone()
    }

    fn run_job(&self, job: &Job) {
        job.set_phase(Phase::Running, String::new());
        let graph = match resolve_graph(&job.spec.source) {
            Ok(g) => g,
            Err(e) => {
                bump(&self.metrics.jobs_failed, 1);
                self.finish_job(job, Phase::Failed, format!("graph error: {e}\n"));
                return;
            }
        };
        let exact_cap = ExactMinRemovals::default().max_edges;
        if job.spec.method == "exact" && graph.num_edges() > exact_cap {
            bump(&self.metrics.jobs_failed, 1);
            self.finish_job(
                job,
                Phase::Failed,
                format!(
                    "graph error: exact method caps at {exact_cap} edges, graph has {}\n",
                    graph.num_edges()
                ),
            );
            return;
        }
        let ev = self.cached_evaluator(&job.spec, &graph);
        job.control.set_max_trials(job.spec.max_trials);
        job.control.set_max_steps(job.spec.max_steps);
        // Arm the wall-clock deadline per attempt (re-arming clears a
        // stale expiry latch from a panicked earlier attempt). Expiry is
        // observed at the same cooperative checkpoints as cancellation,
        // so a deadline-stopped job still commits a certified prefix.
        if let Some(deadline) = self.job_deadline {
            job.control.set_deadline(Some(Instant::now() + deadline));
        }
        match job.spec.mode {
            JobMode::Anonymize => self.run_anonymize(job, &graph, ev),
            JobMode::Churn => self.run_churn_setup(job, &graph, ev),
        }
    }

    fn run_anonymize(&self, job: &Job, graph: &lopacity_graph::Graph, ev: OpacityEvaluator) {
        // Arm checkpoint capture (the observer journals each snapshot) —
        // but only for the greedy strategies: a checkpoint of the exact
        // search would be a lie (its tree is not in the snapshot), so an
        // interrupted exact job simply reruns from scratch, which is
        // equally deterministic (exact graphs are capped at `max_edges`).
        let resumable = matches!(job.spec.method.as_str(), "rem" | "rem-ins");
        if resumable && self.checkpoint_every > 0 {
            job.control.set_checkpoint_every(Some(self.checkpoint_every));
        }
        let resume_from = if resumable { job.latest_checkpoint() } else { None };
        let mut observer = ProgressLog { job, state: self };
        let mut session = Anonymizer::new(graph, &TypeSpec::DegreePairs)
            .config(job.spec.config())
            .observer(&mut observer)
            .control(job.control.clone());
        session.adopt_prepared(ev);
        let out = match (job.spec.method.as_str(), &resume_from) {
            ("rem", None) => session.run(Removal),
            ("rem", Some(ck)) => session.resume_run(Removal, ck),
            ("rem-ins", None) => session.run(RemovalInsertion::default()),
            ("rem-ins", Some(ck)) => {
                let strategy = RemovalInsertion::with_forbidden(
                    ck.removed.iter().copied(),
                    ck.inserted.iter().copied(),
                );
                session.resume_run(strategy, ck)
            }
            _ => session.run(ExactMinRemovals::default()),
        };
        drop(session);
        if let Some(ck) = resume_from {
            job.push_progress(format!("resumed from checkpoint at step {}", ck.steps));
        }
        bump(&self.metrics.trials_total, out.trials);
        bump(&self.metrics.fork_clones_total, out.fork_clones);
        let cancelled = job.control.is_cancelled();
        let deadline_hit = job.control.deadline_expired();
        let stopped = if cancelled {
            Some("cancel")
        } else if deadline_hit {
            Some("deadline")
        } else {
            None
        };
        let summary = summarize_outcome(&job.spec, &out, stopped);
        if cancelled || deadline_hit {
            if !cancelled {
                bump(&self.metrics.deadline_cancels, 1);
            }
            self.finish_job(job, Phase::Cancelled, summary);
        } else {
            let mut rendered = Vec::new();
            lopacity_graph::io::write_edge_list(&out.graph, &mut rendered)
                .expect("writing to a Vec cannot fail");
            let rendered = String::from_utf8(rendered).expect("edge list is ASCII");
            if let Err(e) =
                self.journal_append(&Record::Result { id: job.id, graph: rendered.clone() })
            {
                job.push_progress(format!("journal write failed for result: {e}"));
            }
            *job.result_graph.lock().expect("job result lock") = Some(rendered);
            bump(&self.metrics.jobs_completed, 1);
            self.finish_job(job, Phase::Done, summary);
        }
    }

    fn run_churn_setup(&self, job: &Job, graph: &lopacity_graph::Graph, ev: OpacityEvaluator) {
        let mut anonymizer =
            Anonymizer::new(graph, &TypeSpec::DegreePairs).config(job.spec.config());
        anonymizer.adopt_prepared(ev);
        let mut session = ChurnSession::new(anonymizer);
        session.set_control(Some(job.control.clone()));
        let clones_before = session.fork_clones();
        let patch = if session.is_certified() {
            None
        } else {
            job.push_progress("initial repair".to_string());
            Some(repair_with(&mut session, &job.spec.method))
        };
        bump(&self.metrics.fork_clones_total, session.fork_clones() - clones_before);
        if let Some(p) = &patch {
            bump(&self.metrics.trials_total, p.trials);
        }
        let assessment = session.assessment();
        let certified = session.is_certified();
        let mut summary = format!(
            "mode churn\ncertified {certified}\nmax_lo {:.6}\nn_at_max {}\n",
            assessment.as_f64(),
            assessment.n_at_max()
        );
        if let Some(p) = &patch {
            summary.push_str(&format!(
                "repair_steps {}\nrepair_trials {}\nrepair_removed {}\nrepair_inserted {}\n",
                p.steps,
                p.trials,
                p.removed.len(),
                p.inserted.len()
            ));
        }
        job.push_progress(format!("churn session certified={certified}"));
        let cancelled = job.control.is_cancelled();
        let deadline_hit = !cancelled && job.control.deadline_expired();
        if cancelled || deadline_hit {
            if deadline_hit {
                bump(&self.metrics.deadline_cancels, 1);
                summary.push_str("interrupted deadline\n");
            }
            self.finish_job(job, Phase::Cancelled, summary);
        } else if certified {
            self.churn
                .lock()
                .expect("churn lock")
                .insert(job.id, Arc::new(Mutex::new(session)));
            bump(&self.metrics.jobs_completed, 1);
            self.finish_job(job, Phase::Done, summary);
        } else {
            // Budget exhausted before certification: no session to hold.
            bump(&self.metrics.jobs_failed, 1);
            summary.push_str("error initial repair did not reach theta\n");
            self.finish_job(job, Phase::Failed, summary);
        }
    }

    /// Applies an event batch to a held churn session (one coalesced
    /// fork-sync per batch), auto-repairing if the batch breaks
    /// certification. Returns the report as `key value` lines. Batches
    /// for one session run one at a time; batches for different sessions
    /// run concurrently.
    pub fn apply_churn_events(&self, id: u64, text: &str) -> Result<String, ChurnError> {
        let job = self.job(id).ok_or(ChurnError::UnknownJob)?;
        let events = EdgeEvent::parse_stream(text).map_err(ChurnError::Parse)?;
        let held = self
            .churn
            .lock()
            .expect("churn lock")
            .get(&id)
            .cloned()
            .ok_or(ChurnError::NoSession)?;
        let mut guard = held.lock().expect("churn session lock");
        let session = &mut *guard;
        // Journal the batch before applying, under the session lock so the
        // session's journal order is its apply order: a crash between the
        // append and the apply replays the batch into the rebuilt session,
        // a crash before the append means the client was never answered.
        if let Err(e) = self.journal_append(&Record::Events { id, batch: text.to_string() }) {
            job.push_progress(format!("journal write failed for event batch: {e}"));
        }
        let clones_before = session.fork_clones();
        let report = session.apply_batch(&events);
        bump(&self.metrics.churn_events_applied, report.applied as u64);
        let mut out = format!(
            "applied {}\nskipped {}\nchanged_cells {}\nmax_lo {:.6}\nviolated {}\n",
            report.applied, report.skipped, report.changed_cells, report.max_lo, report.violated
        );
        job.push_progress(format!(
            "batch applied={} skipped={} max_lo={:.6} violated={}",
            report.applied, report.skipped, report.max_lo, report.violated
        ));
        if report.violated {
            let patch = repair_with(session, &job.spec.method);
            bump(&self.metrics.churn_repairs, 1);
            bump(&self.metrics.trials_total, patch.trials);
            out.push_str(&format!(
                "repair_achieved {}\nrepair_steps {}\nrepair_trials {}\nrepair_removed {}\nrepair_inserted {}\nrepair_max_lo {:.6}\n",
                patch.achieved,
                patch.steps,
                patch.trials,
                patch.removed.len(),
                patch.inserted.len(),
                patch.max_lo
            ));
            job.push_progress(format!(
                "repair achieved={} steps={} trials={}",
                patch.achieved, patch.steps, patch.trials
            ));
        }
        bump(&self.metrics.fork_clones_total, session.fork_clones() - clones_before);
        Ok(out)
    }
}

/// Best-effort text of a caught panic payload (for quarantine summaries).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn repair_with(session: &mut ChurnSession, method: &str) -> RepairPatch {
    match method {
        "rem-ins" => session.repair(RemovalInsertion::default()),
        _ => session.repair(Removal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(config: DaemonConfig) -> Arc<ServerState> {
        ServerState::new(&config, Arc::new(FaultPlan::none()))
    }

    fn quick_spec() -> JobSpec {
        JobSpec::parse("mode anonymize\nl 1\ntheta 1.0\ngraph gnm 12 20 3\n").unwrap()
    }

    /// Submits a job and runs it inline (no worker thread), returning it
    /// in its terminal phase.
    fn submit_and_run(state: &Arc<ServerState>) -> Arc<Job> {
        let job = state.submit(quick_spec()).expect("submit");
        state.run_job(&job);
        assert!(job.snapshot().phase.finished(), "job must finish");
        job
    }

    #[test]
    fn finished_jobs_expire_after_the_ttl() {
        let state = state_with(DaemonConfig {
            queue_capacity: 4,
            job_ttl_secs: Some(0),
            ..Default::default()
        });
        let done = submit_and_run(&state);
        assert_eq!(state.gc_expired(), 1);
        assert!(state.job(done.id).is_none(), "finished job is dropped");
        assert_eq!(state.metrics.jobs_expired.load(Ordering::Relaxed), 1);
        assert!(state.render_metrics().contains("lopacityd_jobs_expired 1"));
        // A queued job must survive the sweep no matter how old — and
        // submit() itself sweeps, so an explicit pass finds nothing new.
        let queued = state.submit(quick_spec()).expect("submit");
        assert_eq!(state.gc_expired(), 0);
        assert!(state.job(queued.id).is_some(), "queued job is kept");
    }

    #[test]
    fn without_a_ttl_jobs_are_kept_forever() {
        let state = state_with(DaemonConfig { queue_capacity: 4, ..Default::default() });
        let done = submit_and_run(&state);
        assert_eq!(state.gc_expired(), 0);
        assert!(state.job(done.id).is_some());
        assert_eq!(state.metrics.jobs_expired.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unexpired_jobs_survive_the_sweep() {
        let state = state_with(DaemonConfig {
            queue_capacity: 4,
            job_ttl_secs: Some(3600),
            ..Default::default()
        });
        let done = submit_and_run(&state);
        assert_eq!(state.gc_expired(), 0);
        assert!(state.job(done.id).is_some(), "TTL not yet reached");
    }

    #[test]
    fn per_job_memory_budget_rejects_oversized_specs_with_the_estimate() {
        let state = state_with(DaemonConfig { job_mem_budget: Some(1), ..Default::default() });
        let spec = quick_spec();
        let estimate = spec.estimated_footprint();
        assert!(estimate > 1);
        match state.submit(spec) {
            Err(SubmitError::TooLarge { estimate: e, budget }) => {
                assert_eq!(e, estimate);
                assert_eq!(budget, 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(state.metrics.jobs_rejected_mem.load(Ordering::Relaxed), 1);
        // Rejection happens before any build: no graph, no APSP, no job.
        assert_eq!(state.metrics.cache_builds.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.jobs_submitted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn global_memory_budget_admits_again_once_work_finishes() {
        let footprint = quick_spec().estimated_footprint();
        let state = state_with(DaemonConfig {
            // Room for one quick_spec job in flight, not two.
            mem_budget: Some(footprint + footprint / 2),
            ..Default::default()
        });
        let first = state.submit(quick_spec()).expect("first fits");
        match state.submit(quick_spec()) {
            Err(SubmitError::MemFull { estimate, in_flight, budget }) => {
                assert_eq!(estimate, footprint);
                assert_eq!(in_flight, footprint);
                assert_eq!(budget, footprint + footprint / 2);
            }
            other => panic!("expected MemFull, got {other:?}"),
        }
        assert_eq!(state.metrics.jobs_rejected_mem.load(Ordering::Relaxed), 1);
        // Finished jobs release their reservation; the retry is admitted.
        state.run_job(&first);
        assert!(first.snapshot().phase.finished());
        state.submit(quick_spec()).expect("budget freed by the finished job");
    }

    #[test]
    fn idempotency_keys_return_the_original_job() {
        let state = state_with(DaemonConfig { queue_capacity: 4, ..Default::default() });
        let keyed = || {
            JobSpec::parse("mode anonymize\nl 1\ntheta 1.0\nikey k-1\ngraph gnm 12 20 3\n")
                .unwrap()
        };
        let first = state.submit(keyed()).expect("submit");
        let retry = state.submit(keyed()).expect("resubmit");
        assert_eq!(first.id, retry.id, "same key, same job");
        assert_eq!(state.metrics.jobs_submitted.load(Ordering::Relaxed), 1);
        // A different key is a different job.
        let other = state
            .submit(
                JobSpec::parse("mode anonymize\nl 1\ntheta 1.0\nikey k-2\ngraph gnm 12 20 3\n")
                    .unwrap(),
            )
            .expect("submit");
        assert_ne!(first.id, other.id);
    }

    #[test]
    fn deadline_expiry_cancels_with_a_deadline_summary() {
        let state = state_with(DaemonConfig { job_deadline_secs: Some(0), ..Default::default() });
        // theta 0.0 is unreachable, so the run would grind through its
        // whole step budget — the already-expired deadline must stop it
        // at the first cooperative checkpoint instead.
        let spec =
            JobSpec::parse("mode anonymize\nl 2\ntheta 0.0\nseed 11\ngraph gnm 150 450 7\n")
                .unwrap();
        let job = state.submit(spec).expect("submit");
        state.run_job(&job);
        let status = job.snapshot();
        assert_eq!(status.phase, Phase::Cancelled);
        assert!(
            status.summary.contains("interrupted deadline"),
            "summary must attribute the stop to the deadline: {}",
            status.summary
        );
        assert_eq!(state.metrics.deadline_cancels.load(Ordering::Relaxed), 1);
        assert!(state.render_metrics().contains("lopacityd_deadline_cancels 1"));
    }

    #[test]
    fn expiry_drops_held_churn_sessions() {
        let state = state_with(DaemonConfig {
            queue_capacity: 4,
            job_ttl_secs: Some(0),
            ..Default::default()
        });
        let spec =
            JobSpec::parse("mode churn\nl 1\ntheta 1.0\ngraph gnm 12 20 3\n").unwrap();
        let job = state.submit(spec).expect("submit");
        state.run_job(&job);
        assert_eq!(job.snapshot().phase, Phase::Done);
        assert_eq!(state.churn_sessions(), 1, "churn job holds a session");
        assert_eq!(state.gc_expired(), 1);
        assert_eq!(state.churn_sessions(), 0, "expiry releases the session");
    }
}

fn summarize_outcome(
    spec: &JobSpec,
    out: &AnonymizationOutcome,
    stopped: Option<&'static str>,
) -> String {
    let interrupted = match stopped {
        Some(reason) => reason,
        None if !out.achieved
            && (spec.max_trials.is_some_and(|cap| out.trials >= cap)
                || spec.max_steps.is_some_and(|cap| out.steps as u64 >= cap)) =>
        {
            "budget"
        }
        None => "no",
    };
    format!(
        "mode anonymize\nachieved {}\nsteps {}\ntrials {}\nremoved {}\ninserted {}\nfinal_lo {:.6}\nn_at_max {}\ninterrupted {interrupted}\n",
        out.achieved,
        out.steps,
        out.trials,
        out.removed.len(),
        out.inserted.len(),
        out.final_lo,
        out.final_n_at_max
    )
}
