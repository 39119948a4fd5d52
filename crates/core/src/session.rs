//! The [`Anonymizer`] session: one evaluator build, many runs.
//!
//! A session is the entry point to every strategy, Algorithms 4 and 5
//! included. Rebuilding the full APSP distance matrix and per-type
//! counters per run would be pure waste for the paper's experimental
//! protocol (Figures 8–12), which sweeps θ and L over the *same* graph. A
//! session builds the [`OpacityEvaluator`] once and amortizes it:
//!
//! ```
//! use lopacity::{Anonymizer, AnonymizeConfig, Removal, TypeSpec};
//! use lopacity_graph::Graph;
//!
//! let g = Graph::from_edges(7, [
//!     (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6),
//! ]).unwrap();
//! let spec = TypeSpec::DegreePairs;
//! let mut session = Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5));
//! let outcome = session.run(Removal);
//! assert!(outcome.achieved);
//! // A second run (same L) reuses the cached APSP build.
//! let again = session.run(Removal);
//! assert_eq!(outcome.removed, again.removed);
//! ```
//!
//! # Sweeps
//!
//! [`Anonymizer::sweep`] drives one strategy across several θ values in
//! **descending** order. In the default [`SweepMode::Resume`] each θ picks
//! up from the previous θ's edited graph, evaluator state, RNG, and
//! strategy bookkeeping. Because the greedy trajectories of
//! [`crate::strategy::Removal`] and [`crate::strategy::RemovalInsertion`]
//! do not depend on θ (θ only decides when to *stop*), every resumed
//! segment's cumulative outcome is **bit-for-bit** what a standalone run at
//! that θ would produce — at a fraction of the trials (asserted in
//! `tests/tests/session_api.rs`). [`SweepMode::Independent`] opts out:
//! every θ restarts from the original graph (still sharing the initial
//! evaluator build), reproducing N standalone runs exactly.
//!
//! The θ-independence caveat: [`crate::strategy::ExactMinRemovals`] *does*
//! condition its search on θ, so under `Resume` each segment is minimal
//! only **given** the previous segments' edits; use `Independent` when every
//! θ must be globally minimal.

use crate::config::AnonymizeConfig;
use crate::control::RunControl;
use crate::evaluator::OpacityEvaluator;
use crate::forks::ForkSet;
use crate::lo::LoAssessment;
use crate::progress::{NoOpObserver, ProgressObserver, RunInfo, StepEvent};
use crate::removal::choose_move;
use crate::result::AnonymizationOutcome;
use crate::strategy::{MoveKind, Strategy};
use crate::types::TypeSpec;
use lopacity_apsp::ApspEngine;
use lopacity_graph::{Edge, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How [`Anonymizer::sweep`] treats consecutive θ values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Each θ resumes from the previous θ's edited graph, evaluator, RNG,
    /// and strategy state. For θ-independent strategies (the greedy
    /// heuristics) every segment equals a standalone run at its θ,
    /// bit-for-bit, while trials are paid only once. Default.
    #[default]
    Resume,
    /// Each θ restarts from the original graph with a freshly seeded RNG
    /// and fresh strategy state — N independent runs that still share the
    /// session's initial evaluator build (cloned, not recomputed).
    Independent,
}

/// One θ cell of an [`Anonymizer::sweep`].
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The θ this cell was driven toward.
    pub theta: f64,
    /// The run outcome as of reaching this θ. Under [`SweepMode::Resume`]
    /// the counters and edit lists are cumulative from the sweep's start —
    /// exactly what a standalone run at this θ reports.
    pub outcome: AnonymizationOutcome,
    /// Candidate evaluations spent on this θ alone (for `Independent`
    /// this equals `outcome.trials`).
    pub new_trials: u64,
    /// Edge edits committed for this θ alone.
    pub new_edits: usize,
    /// Wall-clock seconds spent on this θ alone (segment execution; the
    /// session's one-time evaluator build is not attributed to any θ).
    pub secs: f64,
}

/// One L cell of an [`Anonymizer::l_sweep`].
#[derive(Debug, Clone)]
pub struct LSweepRun {
    /// The path-length threshold this cell ran at.
    pub l: u8,
    /// The standalone outcome of the run at this L (each L restarts from
    /// the original graph with a fresh `config.seed` RNG).
    pub outcome: AnonymizationOutcome,
    /// Wall-clock seconds spent on this L (evaluator build included when
    /// this L's build was not already cached).
    pub secs: f64,
}

/// Mutable run counters shared by every strategy execution (also the
/// repair bookkeeping of [`crate::churn::ChurnSession`], which snapshots
/// them into a `RepairPatch` instead of an outcome).
#[derive(Debug, Default)]
pub(crate) struct RunTotals {
    pub(crate) steps: usize,
    pub(crate) trials: u64,
    pub(crate) removed: Vec<Edge>,
    pub(crate) inserted: Vec<Edge>,
    /// Set by [`RunContext::declare_achieved`]: a strategy pursuing an
    /// objective other than `maxLO <= θ` (the `crates/models` privacy
    /// models) overrides the outcome's `achieved` verdict with its own
    /// certifier's. `None` keeps the L-opacity default.
    pub(crate) achieved_override: Option<bool>,
}

impl RunTotals {
    /// Snapshots the counters into an outcome around the given graph.
    fn outcome(
        &self,
        graph: Graph,
        a: LoAssessment,
        theta: f64,
        fork_clones: u64,
    ) -> AnonymizationOutcome {
        AnonymizationOutcome {
            graph,
            removed: self.removed.clone(),
            inserted: self.inserted.clone(),
            steps: self.steps,
            trials: self.trials,
            final_lo: a.as_f64(),
            final_n_at_max: a.n_at_max(),
            achieved: self.achieved_override.unwrap_or_else(|| a.satisfies(theta)),
            fork_clones,
        }
    }
}

/// Everything a [`Strategy`] may touch while executing: the working
/// evaluator, the run configuration (with the θ of the current run or
/// sweep segment), the seeded RNG, the observer, and the shared counters.
///
/// The high-level methods ([`RunContext::select`], [`RunContext::commit`],
/// [`RunContext::step_committed`]) keep the edit lists, trial clock, and
/// observer stream consistent; strategies that need raw evaluator access
/// ([`RunContext::evaluator_mut`]) must route every *net* mutation through
/// [`RunContext::commit`] so the outcome's edit lists stay truthful.
pub struct RunContext<'s> {
    ev: &'s mut OpacityEvaluator,
    forks: &'s mut ForkSet,
    config: &'s AnonymizeConfig,
    rng: &'s mut StdRng,
    observer: &'s mut dyn ProgressObserver,
    totals: &'s mut RunTotals,
    control: Option<&'s RunControl>,
}

impl RunContext<'_> {
    /// The configuration of the current run (θ already set).
    pub fn config(&self) -> &AnonymizeConfig {
        self.config
    }

    /// Read access to the working evaluator.
    pub fn evaluator(&self) -> &OpacityEvaluator {
        self.ev
    }

    /// Raw mutable access to the working evaluator, for strategies that
    /// search with trial/apply/undo (e.g. the exact solver).
    ///
    /// **Contract:** every apply made through this handle must be undone
    /// before the strategy next calls [`RunContext::select`] or returns —
    /// lasting changes go through [`RunContext::commit`] *instead* (commit
    /// performs the apply itself, keeps the outcome's edit lists truthful,
    /// and replays the change onto the persistent scan forks). A net
    /// mutation left applied here would silently desync the forks — and
    /// with them the parallel scan; debug builds catch the violation at
    /// the next sharded scan via a revision check.
    pub fn evaluator_mut(&mut self) -> &mut OpacityEvaluator {
        self.ev
    }

    /// `(maxLO, N)` of the working graph.
    pub fn assessment(&self) -> LoAssessment {
        self.ev.assessment()
    }

    /// Whether the working graph already satisfies the run's θ.
    pub fn achieved(&self) -> bool {
        self.ev.assessment().satisfies(self.config.theta)
    }

    /// Whether the step, trial, or edit budget is spent (checked by the
    /// greedy driver at the top of every step, like Algorithms 4/5 do).
    pub fn out_of_budget(&self) -> bool {
        self.config.max_steps.is_some_and(|cap| self.totals.steps >= cap)
            || self.config.max_trials.is_some_and(|cap| self.totals.trials >= cap)
            || self.config.max_edits.is_some_and(|cap| self.edits() >= cap)
    }

    /// Whether the attached [`RunControl`] (if any) asks this run to stop:
    /// cancellation, or a dynamic trial/step cap reached. Unlike
    /// [`RunContext::out_of_budget`]'s static config budgets — which are
    /// enforced deterministically by prefix-truncating the candidate scan —
    /// this is a purely **cooperative** signal, polled by
    /// [`crate::strategy::drive_greedy`] at every phase boundary, so a run
    /// stops within one scan phase of the request and every committed step
    /// remains a bit-for-bit prefix of the uninterrupted trajectory.
    pub fn stop_requested(&self) -> bool {
        self.control.is_some_and(|c| c.should_stop(self.totals.trials, self.totals.steps))
    }

    /// Whether the run should stop for *any* reason — static budgets or a
    /// cooperative stop request. The greedy driver and the exact strategy
    /// check this at their step/level boundaries.
    pub fn interrupted(&self) -> bool {
        self.out_of_budget() || self.stop_requested()
    }

    /// Committed greedy steps so far (cumulative across resumed segments).
    pub fn steps(&self) -> usize {
        self.totals.steps
    }

    /// Candidate evaluations so far (cumulative across resumed segments).
    pub fn trials(&self) -> u64 {
        self.totals.trials
    }

    /// Net edge edits committed so far (removals + insertions after
    /// cancellation) — the quantity [`AnonymizeConfig::max_edits`] caps.
    pub fn edits(&self) -> usize {
        self.totals.removed.len() + self.totals.inserted.len()
    }

    /// Overrides the outcome's `achieved` verdict. The session's default
    /// verdict is the L-opacity one (`maxLO <= θ`); strategies that pursue
    /// a different privacy objective — the `crates/models` plug-ins —
    /// declare their own certifier's verdict here before returning, so
    /// `AnonymizationOutcome::achieved` is truthful for every model. The
    /// last declaration of a run (or resumed sweep) wins.
    pub fn declare_achieved(&mut self, achieved: bool) {
        self.totals.achieved_override = Some(achieved);
    }

    /// Adds search work performed outside [`RunContext::select`] (e.g.
    /// branch-and-bound nodes) to the trial clock.
    pub fn add_trials(&mut self, n: u64) {
        self.totals.trials += n;
    }

    /// Scans `candidates` for the best move of `kind` under the config's
    /// look-ahead policy and parallelism, advancing the trial clock and the
    /// run RNG (one tie-break nonce per call on non-empty candidates).
    /// Returns the chosen combo and its assessment without committing it,
    /// or `None` when `candidates` is empty.
    pub fn select(
        &mut self,
        kind: MoveKind,
        candidates: &[Edge],
    ) -> Option<(Vec<Edge>, LoAssessment)> {
        let current = self.ev.assessment();
        choose_move(
            self.ev,
            self.forks,
            candidates,
            current,
            self.config,
            kind,
            self.rng,
            &mut self.totals.trials,
        )
    }

    /// Applies a combo permanently and records it in the edit lists. Each
    /// applied move's forward delta is replayed onto the run's persistent
    /// scan forks (O(changed cells) per fork), so the next sharded scan
    /// needs no `O(|V|²)` re-clone.
    ///
    /// Edit lists are kept relative to the run's *start* graph: committing
    /// a move that reverses an earlier committed edit of the same run
    /// cancels that entry instead of double-booking both directions. The
    /// built-in greedy strategies never revisit an edited edge (Algorithm
    /// 5's `E_D`/`E_A` sets exist precisely to forbid it), so their edit
    /// lists are untouched by this rule; strategies that legitimately
    /// re-edit — GADES' degree-preserving swaps can swap an edge back —
    /// get symmetric-difference lists, which is what
    /// [`AnonymizationOutcome::distortion`] assumes.
    pub fn commit(&mut self, kind: MoveKind, combo: &[Edge]) {
        for &e in combo {
            let token = match kind {
                MoveKind::Remove => {
                    if let Some(pos) = self.totals.inserted.iter().position(|&x| x == e) {
                        self.totals.inserted.swap_remove(pos); // cancels an insertion
                    } else {
                        self.totals.removed.push(e);
                    }
                    self.ev.apply_remove(e)
                }
                MoveKind::Insert => {
                    if let Some(pos) = self.totals.removed.iter().position(|&x| x == e) {
                        self.totals.removed.swap_remove(pos); // restores a removal
                    } else {
                        self.totals.inserted.push(e);
                    }
                    self.ev.apply_insert(e)
                }
            };
            if self.forks.warm() {
                let delta = self.ev.commit_delta(&token);
                self.forks.replay(&delta);
            }
        }
    }

    /// Counts one completed greedy step and emits the observer event.
    /// When the attached [`RunControl`] has checkpoint capture armed and
    /// the cadence is due, a [`crate::RunCheckpoint`] is published into
    /// the control *before* the observer event fires — so an observer
    /// that persists checkpoints (the daemon's journal) sees the snapshot
    /// for the step it is being told about.
    pub fn step_committed(&mut self) {
        self.totals.steps += 1;
        if let Some(control) = self.control {
            if control.checkpoint_due(self.totals.steps) {
                control.store_checkpoint(crate::RunCheckpoint {
                    steps: self.totals.steps,
                    trials: self.totals.trials,
                    rng_state: self.rng.state(),
                    removed: self.totals.removed.clone(),
                    inserted: self.totals.inserted.clone(),
                });
            }
        }
        let a = self.ev.assessment();
        let event = StepEvent {
            theta: self.config.theta,
            step: self.totals.steps,
            max_lo: a.as_f64(),
            n_at_max: a.n_at_max(),
            trials: self.totals.trials,
            edits: self.totals.removed.len() + self.totals.inserted.len(),
            removed: self.totals.removed.len(),
            inserted: self.totals.inserted.len(),
            fork_clones: self.forks.clones(),
        };
        self.observer.on_step(&event);
    }
}

/// One cached evaluator build, keyed by `(l, engine, store)`.
struct Prepared {
    l: u8,
    engine: ApspEngine,
    store: lopacity_apsp::StoreBackend,
    ev: OpacityEvaluator,
}

impl Prepared {
    fn matches(&self, l: u8, engine: ApspEngine, store: lopacity_apsp::StoreBackend) -> bool {
        self.l == l && self.engine == engine && self.store == store
    }
}

/// An anonymization session over one graph and type spec.
///
/// Construction is cheap; the expensive [`OpacityEvaluator`] build (full
/// truncated APSP + per-type counters) happens lazily on the first
/// [`Anonymizer::run`] / [`Anonymizer::sweep`] and is cached across calls
/// until [`AnonymizeConfig::l`] or [`AnonymizeConfig::engine`] changes.
/// See the [module docs](self) for the full tour.
pub struct Anonymizer<'a> {
    graph: &'a Graph,
    spec: &'a TypeSpec,
    config: AnonymizeConfig,
    sweep_mode: SweepMode,
    observer: Option<&'a mut dyn ProgressObserver>,
    /// Every build this session has paid for, keyed by `(l, engine,
    /// store)`. Revisiting a key — an [`Anonymizer::l_sweep`] passing over
    /// the same L values twice, or a comparison harness alternating
    /// between models at different L — reuses the entry instead of
    /// rebuilding. The set of distinct keys a session touches is small
    /// (L is a u8 and real sweeps use a handful of values), so no
    /// eviction is needed.
    cache: Vec<Prepared>,
    control: Option<RunControl>,
    builds: u64,
}

impl<'a> Anonymizer<'a> {
    /// Opens a session on `graph` under `spec`. The configuration defaults
    /// to `AnonymizeConfig::new(1, 0.5)`; set the real one with
    /// [`Anonymizer::config`].
    pub fn new(graph: &'a Graph, spec: &'a TypeSpec) -> Self {
        Anonymizer {
            graph,
            spec,
            config: AnonymizeConfig::new(1, 0.5),
            sweep_mode: SweepMode::default(),
            observer: None,
            cache: Vec::new(),
            control: None,
            builds: 0,
        }
    }

    /// Sets the run configuration (builder form).
    pub fn config(mut self, config: AnonymizeConfig) -> Self {
        self.set_config(config);
        self
    }

    /// Sets the run configuration in place. Changing `l`, `engine`, or
    /// the store backend selects (or lazily creates) a different cached
    /// evaluator build; everything else (θ, seed, look-ahead, budgets,
    /// parallelism) reuses the current one. Builds are never discarded by
    /// reconfiguration, so flipping back to an earlier `(l, engine,
    /// store)` is free.
    pub fn set_config(&mut self, config: AnonymizeConfig) {
        self.config = config;
    }

    /// The current configuration.
    pub fn current_config(&self) -> &AnonymizeConfig {
        &self.config
    }

    /// Attaches a progress observer (builder form). One observer serves
    /// every subsequent run and sweep of the session.
    pub fn observer(mut self, observer: &'a mut dyn ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a cooperative interruption handle (builder form). Keep a
    /// clone on the controlling side: [`RunControl::cancel`] and the
    /// dynamic budget setters take effect at the next phase boundary of
    /// any subsequent run or sweep segment. An inert control changes
    /// nothing.
    pub fn control(mut self, control: RunControl) -> Self {
        self.set_control(Some(control));
        self
    }

    /// Sets or clears the interruption handle in place.
    pub fn set_control(&mut self, control: Option<RunControl>) {
        self.control = control;
    }

    /// Sets the sweep mode (builder form); see [`SweepMode`].
    pub fn sweep_mode(mut self, mode: SweepMode) -> Self {
        self.set_sweep_mode(mode);
        self
    }

    /// Sets the sweep mode in place (never invalidates the cached build).
    pub fn set_sweep_mode(&mut self, mode: SweepMode) {
        self.sweep_mode = mode;
    }

    /// The session's graph (as provided; runs never mutate it).
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The session's type spec.
    pub fn spec(&self) -> &'a TypeSpec {
        self.spec
    }

    /// `(maxLO, N)` of the original graph — the privacy risk a run starts
    /// from. Builds (and caches) the evaluator if needed.
    pub fn initial_assessment(&mut self) -> LoAssessment {
        self.prepared().assessment()
    }

    /// Read access to the cached pristine evaluator (building it if
    /// necessary) — the hook for tooling and benches that need to inspect
    /// the prepared state (distance-store backend, footprint, within-L
    /// density) without running a strategy.
    pub fn evaluator(&mut self) -> &OpacityEvaluator {
        self.prepared()
    }

    /// The cached pristine evaluator, (re)built when `(l, engine, store)`
    /// changed. This is where [`AnonymizeConfig::store`]'s adaptive
    /// backend choice lands: `Auto` samples the graph's within-L density
    /// and picks dense or sparse per
    /// [`lopacity_apsp::DistStore::build`].
    ///
    /// The build shards its truncated-BFS APSP over
    /// [`AnonymizeConfig::parallelism`] — that knob is deliberately *not*
    /// part of the cache key, because the sharded build is identical to
    /// the sequential one for every worker count (see
    /// [`lopacity_apsp::ApspEngine::compute_with`]).
    fn prepared(&mut self) -> &OpacityEvaluator {
        let (l, engine, store) = (self.config.l, self.config.engine, self.config.store);
        let hit = self.cache.iter().position(|p| p.matches(l, engine, store));
        let index = match hit {
            Some(index) => index,
            None => {
                let ev = OpacityEvaluator::with_options(
                    self.graph.clone(),
                    self.spec,
                    l,
                    engine,
                    self.config.parallelism,
                    store,
                );
                self.builds += 1;
                self.cache.push(Prepared { l, engine, store, ev });
                self.cache.len() - 1
            }
        };
        let prepared = &mut self.cache[index];
        // The knob also gates the evaluator's *runtime* per-commit
        // sharding, so a reused build must pick up the current config —
        // an evaluator built under Fixed(8) serving a run reconfigured to
        // Off would otherwise keep spawning threads per commit.
        prepared.ev.set_parallelism(self.config.parallelism);
        &prepared.ev
    }

    /// Runs `strategy` once at the configured θ and returns the outcome.
    ///
    /// Each run starts from the *original* graph (a clone of the cached
    /// evaluator) with a fresh `config.seed`-seeded RNG, so repeated runs
    /// are reproducible and independent. The clone is an `O(|V|²)` memcpy —
    /// cheap next to the build it preserves, but pure overhead when the
    /// session will never run again; one-shot callers should prefer
    /// [`Anonymizer::run_once`].
    pub fn run<S: Strategy>(&mut self, strategy: S) -> AnonymizationOutcome {
        let ev = self.prepared().clone();
        self.run_on(ev, strategy)
    }

    /// Like [`Anonymizer::run`], but consumes the session and hands the
    /// cached evaluator build itself to the strategy — no defensive clone,
    /// the cost profile of a one-shot run. Output is identical to `run`.
    pub fn run_once<S: Strategy>(mut self, strategy: S) -> AnonymizationOutcome {
        let ev = self.take_prepared();
        self.run_on(ev, strategy)
    }

    /// Shared tail of `run`/`run_once`: drive `strategy` over `ev`.
    fn run_on<S: Strategy>(
        &mut self,
        mut ev: OpacityEvaluator,
        mut strategy: S,
    ) -> AnonymizationOutcome {
        let config = self.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut totals = RunTotals::default();
        let mut forks = ForkSet::new();
        self.execute_segment(&mut ev, &mut forks, &mut rng, &mut totals, &config, &mut strategy);
        let a = ev.assessment();
        let outcome = totals.outcome(ev.into_graph(), a, config.theta, forks.clones());
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.on_run_end(&outcome);
        }
        outcome
    }

    /// Resumes an interrupted run from a [`crate::RunCheckpoint`] — the
    /// crash-recovery half of the determinism contract.
    ///
    /// The pristine cached evaluator is cloned and fast-forwarded by
    /// applying the checkpoint's edit lists (order-free: the evaluator's
    /// logical state is a function of the current graph), the run RNG is
    /// restored from the captured raw state, and the counters resume from
    /// the checkpoint's values — then `strategy` continues exactly where
    /// the interrupted run stopped. For the greedy strategies this
    /// re-traces the uninterrupted run's remaining trajectory bit-for-bit,
    /// so `resume_run(s, ck).graph == run(s).graph` byte-for-byte for any
    /// checkpoint `ck` the same configuration captured (pinned by
    /// `tests/tests/checkpoint_resume.rs`).
    ///
    /// **Contract:** `strategy` must carry any internal state the
    /// checkpoint implies — [`crate::RemovalInsertion`] must be rebuilt
    /// with [`crate::RemovalInsertion::with_forbidden`] over the
    /// checkpoint's edit lists ([`crate::Removal`] is stateless).
    /// [`crate::ExactMinRemovals`] is not resumable (its search tree is
    /// not checkpointed); rerun it from scratch instead — it is equally
    /// deterministic.
    pub fn resume_run<S: Strategy>(
        &mut self,
        strategy: S,
        checkpoint: &crate::RunCheckpoint,
    ) -> AnonymizationOutcome {
        let mut ev = self.prepared().clone();
        for &e in &checkpoint.removed {
            ev.apply_remove(e);
        }
        for &e in &checkpoint.inserted {
            ev.apply_insert(e);
        }
        let config = self.config;
        let mut rng = StdRng::from_state(checkpoint.rng_state);
        let mut totals = RunTotals {
            steps: checkpoint.steps,
            trials: checkpoint.trials,
            removed: checkpoint.removed.clone(),
            inserted: checkpoint.inserted.clone(),
            achieved_override: None,
        };
        let mut forks = ForkSet::new();
        let mut strategy = strategy;
        self.execute_segment(&mut ev, &mut forks, &mut rng, &mut totals, &config, &mut strategy);
        let a = ev.assessment();
        let outcome = totals.outcome(ev.into_graph(), a, config.theta, forks.clones());
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.on_run_end(&outcome);
        }
        outcome
    }

    /// Drives `strategy` across `thetas` (sorted descending internally)
    /// under the session's [`SweepMode`]; returns one [`SweepRun`] per θ in
    /// descending order. See the [module docs](self) for the exact
    /// equivalence guarantees of each mode.
    pub fn sweep<S: Strategy + Clone>(
        &mut self,
        thetas: &[f64],
        strategy: S,
    ) -> Vec<SweepRun> {
        let mut order = thetas.to_vec();
        order.sort_by(|a, b| b.partial_cmp(a).expect("θ values must be comparable"));
        match self.sweep_mode {
            SweepMode::Independent => self.sweep_independent(&order, strategy),
            SweepMode::Resume => self.sweep_resumed(&order, strategy),
        }
    }

    fn sweep_independent<S: Strategy + Clone>(
        &mut self,
        order: &[f64],
        strategy: S,
    ) -> Vec<SweepRun> {
        let saved_theta = self.config.theta;
        self.prepared(); // build outside any per-θ clock
        let runs = order
            .iter()
            .map(|&theta| {
                self.config.theta = theta;
                let start = std::time::Instant::now();
                let outcome = self.run(strategy.clone());
                SweepRun {
                    theta,
                    new_trials: outcome.trials,
                    new_edits: outcome.edits(),
                    secs: start.elapsed().as_secs_f64(),
                    outcome,
                }
            })
            .collect();
        self.config.theta = saved_theta;
        runs
    }

    /// Drives `strategy` across several path-length thresholds L at the
    /// session's configured θ — the L axis of the paper's Figures 10–12,
    /// and the leakage axis of the cross-model comparison harness. Every
    /// L runs independently from the original graph (L changes the
    /// *objective*, so resuming one L's edits into the next would conflate
    /// them), but all runs share the session's keyed build cache: the
    /// first pass pays one evaluator build per distinct L, any repeat
    /// visit — a second sweep, or interleaved `set_config` calls — pays
    /// zero (asserted via [`Anonymizer::builds`] in the session tests).
    /// The session's configured L is restored afterwards.
    pub fn l_sweep<S: Strategy + Clone>(&mut self, ls: &[u8], strategy: S) -> Vec<LSweepRun> {
        let saved_l = self.config.l;
        let runs = ls
            .iter()
            .map(|&l| {
                assert!(l >= 1, "L must be at least 1");
                self.config.l = l;
                let start = std::time::Instant::now();
                let outcome = self.run(strategy.clone());
                LSweepRun { l, outcome, secs: start.elapsed().as_secs_f64() }
            })
            .collect();
        self.config.l = saved_l;
        runs
    }

    fn sweep_resumed<S: Strategy>(&mut self, order: &[f64], mut strategy: S) -> Vec<SweepRun> {
        let base = self.config;
        let mut ev = self.prepared().clone();
        let mut rng = StdRng::seed_from_u64(base.seed);
        let mut totals = RunTotals::default();
        // One fork set across every resumed segment — forks warmed for an
        // early θ keep serving the later ones, exactly like one long run.
        let mut forks = ForkSet::new();
        let mut runs = Vec::with_capacity(order.len());
        for &theta in order {
            let mut config = base;
            config.theta = theta;
            let (trials_before, edits_before) =
                (totals.trials, totals.removed.len() + totals.inserted.len());
            let start = std::time::Instant::now();
            self.execute_segment(
                &mut ev, &mut forks, &mut rng, &mut totals, &config, &mut strategy,
            );
            let secs = start.elapsed().as_secs_f64();
            let a = ev.assessment();
            let outcome = totals.outcome(ev.graph().clone(), a, theta, forks.clones());
            if let Some(observer) = self.observer.as_deref_mut() {
                observer.on_run_end(&outcome);
            }
            runs.push(SweepRun {
                theta,
                new_trials: totals.trials - trials_before,
                new_edits: totals.removed.len() + totals.inserted.len() - edits_before,
                secs,
                outcome,
            });
        }
        runs
    }

    /// Announces the segment to the observer and executes the strategy.
    fn execute_segment<S: Strategy>(
        &mut self,
        ev: &mut OpacityEvaluator,
        forks: &mut ForkSet,
        rng: &mut StdRng,
        totals: &mut RunTotals,
        config: &AnonymizeConfig,
        strategy: &mut S,
    ) {
        let mut noop = NoOpObserver;
        let observer: &mut dyn ProgressObserver = match self.observer.as_deref_mut() {
            Some(observer) => observer,
            None => &mut noop,
        };
        run_segment(ev, forks, rng, totals, config, observer, self.control.as_ref(), strategy);
    }

    /// Hands the cached pristine evaluator build (building it if needed) to
    /// the caller, consuming the cache — the [`crate::churn::ChurnSession`]
    /// entry point, which adopts the build as its long-lived working state.
    pub(crate) fn take_prepared(&mut self) -> OpacityEvaluator {
        self.prepared();
        let (l, engine, store) = (self.config.l, self.config.engine, self.config.store);
        let index = self
            .cache
            .iter()
            .position(|p| p.matches(l, engine, store))
            .expect("prepared() populates the cache");
        self.cache.swap_remove(index).ev
    }

    /// Seeds the session's build cache with an externally held pristine
    /// evaluator, skipping the APSP build entirely. This is the session-
    /// cache entry point for long-running services: a server that has
    /// already paid for a build of `(graph, L, engine, store)` hands a
    /// clone to every later session opened on the same key.
    ///
    /// **Contract:** `ev` must be a pristine (never-mutated) build over
    /// exactly this session's graph and type spec under the current
    /// config's `(l, engine, store)` — normally a clone of another
    /// session's [`Anonymizer::evaluator`]. `l` is checked; the rest is
    /// the caller's cache key.
    ///
    /// # Panics
    /// Panics when `ev.l()` disagrees with the configured L.
    pub fn adopt_prepared(&mut self, ev: OpacityEvaluator) {
        assert_eq!(
            ev.l(),
            self.config.l,
            "adopted evaluator was built for L = {}, config wants L = {}",
            ev.l(),
            self.config.l
        );
        let (l, engine, store) = (self.config.l, self.config.engine, self.config.store);
        self.cache.retain(|p| !p.matches(l, engine, store));
        self.cache.push(Prepared { l, engine, store, ev });
    }

    /// Number of evaluator builds this session has paid for — the cost the
    /// `(l, engine, store)` cache amortizes. An [`Anonymizer::l_sweep`]
    /// over `k` distinct L values costs `k` builds the first time and zero
    /// on any repeat pass.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// Announces the segment to `observer` and drives `strategy` over `ev` —
/// the shared execution engine behind [`Anonymizer`] runs and sweeps and
/// [`crate::churn::ChurnSession`] repairs. Lives here because only this
/// module may assemble a [`RunContext`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_segment<S: Strategy + ?Sized>(
    ev: &mut OpacityEvaluator,
    forks: &mut ForkSet,
    rng: &mut StdRng,
    totals: &mut RunTotals,
    config: &AnonymizeConfig,
    observer: &mut dyn ProgressObserver,
    control: Option<&RunControl>,
    strategy: &mut S,
) {
    let initial = ev.assessment();
    observer.on_run_start(&RunInfo {
        strategy: strategy.name(),
        theta: config.theta,
        l: config.l,
        initial_lo: initial.as_f64(),
        initial_n_at_max: initial.n_at_max(),
        trials_before: totals.trials,
        steps_before: totals.steps,
    });
    let mut ctx = RunContext { ev, forks, config, rng, observer, totals, control };
    strategy.execute(&mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{ExactMinRemovals, Removal, RemovalInsertion};

    fn paper_graph() -> Graph {
        Graph::from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6)],
        )
        .unwrap()
    }

    #[test]
    fn run_matches_known_removal_behaviour() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5).with_seed(1));
        let out = session.run(Removal);
        assert!(out.achieved, "{out}");
        assert!(out.inserted.is_empty());
    }

    #[test]
    fn repeated_runs_are_identical_and_share_the_build() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.3).with_seed(11));
        let a = session.run(Removal);
        let b = session.run(Removal);
        assert_eq!(a.removed, b.removed);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn changing_l_rebuilds_the_evaluator() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session = Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5));
        let lo_l1 = session.initial_assessment().as_f64();
        session.set_config(AnonymizeConfig::new(2, 0.5));
        let lo_l2 = session.initial_assessment().as_f64();
        // L = 2 reaches at least as many pairs per type as L = 1.
        assert!(lo_l2 >= lo_l1);
    }

    #[test]
    fn sweep_orders_thetas_descending() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5).with_seed(3));
        let runs = session.sweep(&[0.5, 0.9, 0.7], RemovalInsertion::default());
        let order: Vec<f64> = runs.iter().map(|r| r.theta).collect();
        assert_eq!(order, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn resumed_sweep_counters_are_monotone_and_cumulative() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.4).with_seed(5));
        let runs = session.sweep(&[0.8, 0.6, 0.4], Removal);
        assert!(runs.windows(2).all(|w| w[0].outcome.trials <= w[1].outcome.trials));
        assert!(runs.windows(2).all(|w| w[0].outcome.steps <= w[1].outcome.steps));
        let total_new: u64 = runs.iter().map(|r| r.new_trials).sum();
        assert_eq!(total_new, runs.last().unwrap().outcome.trials);
    }

    /// A reused cached build adopts the *current* config's parallelism:
    /// the knob gates runtime per-commit sharding, so a session
    /// reconfigured from Fixed(8) to Off must stop spawning (and vice
    /// versa) without invalidating the build cache.
    #[test]
    fn cached_evaluator_tracks_parallelism_reconfiguration() {
        use lopacity_util::Parallelism;
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session = Anonymizer::new(&g, &spec)
            .config(AnonymizeConfig::new(2, 0.5).with_parallelism(Parallelism::Fixed(8)));
        assert_eq!(session.evaluator().parallelism(), Parallelism::Fixed(8));
        session.set_config(
            AnonymizeConfig::new(2, 0.5).with_parallelism(Parallelism::Off),
        );
        assert_eq!(
            session.evaluator().parallelism(),
            Parallelism::Off,
            "cache reuse must refresh the runtime parallelism budget"
        );
    }

    /// The keyed build cache: alternating between two L values must pay
    /// for exactly two builds no matter how often the session flips, and
    /// a repeated `l_sweep` over the same L values must add zero builds.
    #[test]
    fn build_cache_is_keyed_not_last_value_only() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session = Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5));
        session.initial_assessment();
        session.set_config(AnonymizeConfig::new(2, 0.5));
        session.initial_assessment();
        session.set_config(AnonymizeConfig::new(1, 0.5));
        session.initial_assessment();
        assert_eq!(session.builds(), 2, "flipping back to L = 1 must hit the cache");

        let first = session.l_sweep(&[1, 2, 3], Removal);
        assert_eq!(session.builds(), 3, "sweep adds only the unseen L = 3 build");
        let second = session.l_sweep(&[1, 2, 3], Removal);
        assert_eq!(session.builds(), 3, "a repeat sweep is build-free");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.l, b.l);
            assert_eq!(a.outcome.removed, b.outcome.removed, "L = {} not reproducible", a.l);
        }
    }

    /// `l_sweep` runs each L standalone: outcomes equal per-L `run` calls
    /// and the session's configured L is restored afterwards.
    #[test]
    fn l_sweep_matches_standalone_runs() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5).with_seed(9));
        let sweep = session.l_sweep(&[2, 1], Removal);
        assert_eq!(session.current_config().l, 1, "configured L restored");
        for cell in &sweep {
            session.set_config(AnonymizeConfig::new(cell.l, 0.5).with_seed(9));
            let standalone = session.run(Removal);
            assert_eq!(cell.outcome.removed, standalone.removed, "L = {}", cell.l);
            assert_eq!(cell.outcome.graph, standalone.graph, "L = {}", cell.l);
        }
    }

    /// The edit budget stops a run at the step boundary after the cap is
    /// reached and reports `achieved: false` when θ was not yet met.
    #[test]
    fn max_edits_caps_the_run() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5).with_seed(1));
        let free = session.run(Removal);
        assert!(free.achieved && free.edits() >= 2, "baseline needs >= 2 edits: {free}");

        session.set_config(
            AnonymizeConfig::new(1, 0.5).with_seed(1).with_max_edits(1),
        );
        let capped = session.run(Removal);
        assert!(!capped.achieved);
        assert_eq!(capped.edits(), 1, "la = 1 commits exactly one edit per step");
        assert_eq!(
            capped.removed,
            free.removed[..1],
            "a budgeted run is a prefix of the unbudgeted one"
        );
    }

    /// `declare_achieved` overrides the outcome verdict in both directions.
    #[test]
    fn declared_achievement_overrides_the_theta_verdict() {
        struct Declare(bool);
        impl Strategy for Declare {
            fn name(&self) -> &'static str {
                "declare"
            }
            fn execute(&mut self, ctx: &mut RunContext<'_>) {
                ctx.declare_achieved(self.0);
            }
        }
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        // θ = 1 is trivially satisfied; a strategy declaring failure wins.
        let mut session = Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 1.0));
        assert!(!session.run(Declare(false)).achieved);
        // θ = 0 is unmet; a strategy declaring success wins.
        session.set_config(AnonymizeConfig::new(1, 0.0));
        assert!(session.run(Declare(true)).achieved);
        // Without a declaration the θ verdict stands.
        session.set_config(AnonymizeConfig::new(1, 1.0));
        assert!(session.run(Removal).achieved);
    }

    #[test]
    fn exact_strategy_runs_in_a_session() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session =
            Anonymizer::new(&g, &spec).config(AnonymizeConfig::new(1, 0.5).with_seed(1));
        let out = session.run(ExactMinRemovals::default());
        assert!(out.achieved);
        assert_eq!(out.steps, out.removed.len());
        assert!(out.trials > 0, "search nodes must reach the trial clock");
    }
}
