//! The sharded candidate scan is **bit-for-bit equivalent** to the
//! sequential one: for random G(n, m) graphs, thresholds, path-length
//! bounds, and worker counts, `Parallelism::Fixed(w)` produces the exact
//! edit sequence, trial count, and final report of `Parallelism::Off`
//! under the same seed.
//!
//! This is the parallel-scan counterpart of the Theorem 1 equivalence
//! suite: an anonymizer whose output depends on the thread count silently
//! changes the privacy guarantee, so equivalence is a hard requirement,
//! not an optimization nicety. `Fixed(w)` bypasses the small-input
//! fallback, so even these deliberately small graphs exercise real
//! multi-worker sharding (including workers > candidates).

use lopacity::opacity::opacity_report_against_original;
use lopacity::{
    AnonymizeConfig, AnonymizationOutcome, Anonymizer, Parallelism, ProgressObserver, Removal,
    RemovalInsertion, StepEvent, StoreBackend, TypeSpec,
};
use lopacity_gen::er::gnm;
use lopacity_graph::Graph;
use proptest::prelude::*;

/// One standalone Algorithm 4 run: a session consumed by `run_once`.
fn run_removal(g: &Graph, config: &AnonymizeConfig) -> AnonymizationOutcome {
    Anonymizer::new(g, &TypeSpec::DegreePairs).config(*config).run_once(Removal)
}

/// One standalone Algorithm 5 run: a session consumed by `run_once`.
fn run_removal_insertion(g: &Graph, config: &AnonymizeConfig) -> AnonymizationOutcome {
    Anonymizer::new(g, &TypeSpec::DegreePairs)
        .config(*config)
        .run_once(RemovalInsertion::default())
}

/// Worker counts the suite proves equivalent to sequential. 1 exercises
/// the "forced shard of one" path, 2/3 uneven shard boundaries, 8 more
/// workers than some candidate lists have items.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Every observable facet of two outcomes matches exactly.
fn assert_outcomes_identical(
    seq: &AnonymizationOutcome,
    par: &AnonymizationOutcome,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&seq.removed, &par.removed, "edit sequence (removals) differ: {}", context);
    prop_assert_eq!(&seq.inserted, &par.inserted, "edit sequence (insertions) differ: {}", context);
    prop_assert_eq!(&seq.graph, &par.graph, "published graphs differ: {}", context);
    prop_assert_eq!(seq.steps, par.steps, "step counts differ: {}", context);
    prop_assert_eq!(seq.trials, par.trials, "trial counts differ: {}", context);
    prop_assert_eq!(seq.achieved, par.achieved, "achievement differs: {}", context);
    prop_assert_eq!(seq.final_lo, par.final_lo, "final maxLO differs: {}", context);
    prop_assert_eq!(seq.final_n_at_max, par.final_n_at_max, "final N differs: {}", context);
    Ok(())
}

/// The certified L-opacity report of the published graph, rendered — the
/// external artifact a downstream consumer would diff.
fn rendered_report(original: &Graph, out: &AnonymizationOutcome, l: u8) -> String {
    let report = opacity_report_against_original(original, &out.graph, &TypeSpec::DegreePairs, l);
    let mut text = format!("{out}\nmaxLO {}\n", report.max_lo);
    for row in &report.per_type {
        text.push_str(&format!("{}\t{}\t{}\t{:.6}\n", row.label, row.within_l, row.total, row.lo));
    }
    text
}

proptest! {
    // 64 random (graph, L, θ, seed) cases; each is checked against all
    // four worker counts and both heuristics.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_scan_matches_sequential(
        n in 8usize..28,
        density in 1usize..4,
        l in 1u8..3,
        theta in 0.2f64..0.8,
        seed in 0u64..1 << 48,
    ) {
        let g = gnm(n, density * n / 2 + 3, seed);
        let base = AnonymizeConfig::new(l, theta).with_seed(seed);
        let sequential_rem = run_removal(&g, &base.with_parallelism(Parallelism::Off));
        let sequential_ri = run_removal_insertion(&g, &base.with_parallelism(Parallelism::Off));
        let seq_rem_report = rendered_report(&g, &sequential_rem, l);
        let seq_ri_report = rendered_report(&g, &sequential_ri, l);
        for workers in WORKER_COUNTS {
            let config = base.with_parallelism(Parallelism::Fixed(workers));
            let context = format!("n={n} l={l} theta={theta} seed={seed} workers={workers}");

            let par = run_removal(&g, &config);
            assert_outcomes_identical(&sequential_rem, &par, &format!("rem {context}"))?;
            prop_assert_eq!(&seq_rem_report, &rendered_report(&g, &par, l));

            let par = run_removal_insertion(&g, &config);
            assert_outcomes_identical(&sequential_ri, &par, &format!("rem-ins {context}"))?;
            prop_assert_eq!(&seq_ri_report, &rendered_report(&g, &par, l));
        }
        // The distance-store backend is equally outside the equivalence
        // contract: a sparse-backed run — sequential or sharded — produces
        // the identical outcome and certified report (the sequential
        // references above ran on the dense store: Auto resolves dense at
        // these sizes).
        for parallelism in [Parallelism::Off, Parallelism::Fixed(3)] {
            let config =
                base.with_parallelism(parallelism).with_store(StoreBackend::Sparse);
            let context =
                format!("n={n} l={l} theta={theta} seed={seed} sparse {parallelism}");

            let sparse = run_removal(&g, &config);
            assert_outcomes_identical(&sequential_rem, &sparse, &format!("rem {context}"))?;
            prop_assert_eq!(&seq_rem_report, &rendered_report(&g, &sparse, l));

            let sparse = run_removal_insertion(&g, &config);
            assert_outcomes_identical(&sequential_ri, &sparse, &format!("rem-ins {context}"))?;
            prop_assert_eq!(&seq_ri_report, &rendered_report(&g, &sparse, l));
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_under_lookahead_and_budget(
        n in 6usize..14,
        theta in 0.2f64..0.6,
        seed in 0u64..1 << 48,
        max_trials in 20u64..200,
    ) {
        // Look-ahead mixes the sharded size-1 scan with sequential combo
        // scans under one tie-break nonce; the trial budget truncates the
        // scan mid-list. Both must stay worker-count invariant.
        let g = gnm(n, 2 * n, seed);
        let base = AnonymizeConfig::new(1, theta)
            .with_seed(seed)
            .with_lookahead(2)
            .with_max_trials(max_trials);
        let sequential = run_removal(&g, &base.with_parallelism(Parallelism::Off));
        for workers in WORKER_COUNTS {
            let par = run_removal(&g, &base.with_parallelism(Parallelism::Fixed(workers)));
            let context = format!("n={n} theta={theta} seed={seed} workers={workers}");
            assert_outcomes_identical(&sequential, &par, &context)?;
        }
    }
}

/// Captures the cumulative fork-clone counter at every committed step.
#[derive(Default)]
struct ForkCloneTrace {
    per_step: Vec<u64>,
}

impl ProgressObserver for ForkCloneTrace {
    fn on_step(&mut self, event: &StepEvent) {
        self.per_step.push(event.fork_clones);
    }
}

/// The zero-copy guarantee of the persistent-fork scan (issue 4): after
/// warmup — which completes within the first greedy step, the first time a
/// sharded scan runs — a step performs **zero** `O(|V|²)` evaluator
/// clones. Asserted through the fork-clone counter: the per-step cumulative
/// count is constant from step 1 on, and the total equals the warmup's
/// `workers - 1` forks.
#[test]
fn sharded_scans_clone_only_at_warmup() {
    let g = gnm(60, 180, 5);
    for workers in [2usize, 3, 8] {
        let config = AnonymizeConfig::new(1, 0.2)
            .with_seed(11)
            .with_parallelism(Parallelism::Fixed(workers));
        let mut trace = ForkCloneTrace::default();
        let out = Anonymizer::new(&g, &TypeSpec::DegreePairs)
            .config(config)
            .observer(&mut trace)
            .run_once(Removal);
        assert!(out.steps >= 3, "need a multi-step run to observe the warm path");
        assert_eq!(trace.per_step.len(), out.steps);
        assert_eq!(
            trace.per_step[0],
            workers as u64 - 1,
            "warmup must clone exactly workers - 1 forks (workers={workers})"
        );
        assert!(
            trace.per_step.iter().all(|&c| c == trace.per_step[0]),
            "fork clones after warmup (workers={workers}): {:?}",
            trace.per_step
        );
        assert_eq!(out.fork_clones, workers as u64 - 1);
    }
}

/// Same guarantee for Algorithm 5, whose two phases (removal over edges,
/// insertion over the much larger non-edge set) share one fork set: the
/// widest phase of step 1 fixes the fork count for the whole run.
#[test]
fn removal_insertion_shares_forks_across_phases() {
    let g = gnm(40, 90, 3);
    let workers = 4usize;
    let config = AnonymizeConfig::new(1, 0.2)
        .with_seed(7)
        .with_parallelism(Parallelism::Fixed(workers));
    let mut trace = ForkCloneTrace::default();
    let out = Anonymizer::new(&g, &TypeSpec::DegreePairs)
        .config(config)
        .observer(&mut trace)
        .run_once(RemovalInsertion::default());
    assert!(out.steps >= 2);
    assert!(
        trace.per_step.iter().all(|&c| c == trace.per_step[0]),
        "fork clones grew after step 1: {:?}",
        trace.per_step
    );
    assert_eq!(out.fork_clones, workers as u64 - 1);
}

/// Sequential runs never fork; the counter is a pure perf counter and sits
/// outside the equivalence contract (every other outcome facet identical).
#[test]
fn sequential_runs_never_clone() {
    let g = gnm(60, 180, 5);
    let base = AnonymizeConfig::new(1, 0.3).with_seed(11);
    let seq = run_removal(&g, &base.with_parallelism(Parallelism::Off));
    let par = run_removal(&g, &base.with_parallelism(Parallelism::Fixed(3)));
    assert_eq!(seq.fork_clones, 0);
    assert_eq!(par.fork_clones, 2);
    assert_eq!(seq.removed, par.removed);
    assert_eq!(seq.graph, par.graph);
    assert_eq!(seq.trials, par.trials);
}

/// A resumed multi-θ sweep keeps one fork set across every segment: the
/// warmup of the first θ serves all later ones.
#[test]
fn resumed_sweeps_reuse_forks_across_segments() {
    let g = gnm(60, 180, 5);
    let workers = 3usize;
    let config = AnonymizeConfig::new(1, 0.2)
        .with_seed(11)
        .with_parallelism(Parallelism::Fixed(workers));
    let mut session = Anonymizer::new(&g, &TypeSpec::DegreePairs).config(config);
    let runs = session.sweep(&[0.8, 0.5, 0.2], Removal);
    assert!(runs.iter().all(|r| r.outcome.steps > 0));
    for run in &runs {
        assert!(
            run.outcome.fork_clones <= workers as u64 - 1,
            "θ={} re-cloned forks: {}",
            run.theta,
            run.outcome.fork_clones
        );
    }
    assert_eq!(runs.last().unwrap().outcome.fork_clones, workers as u64 - 1);
}

/// Persistent forks inherit the main evaluator's backend and stay in sync
/// under sparse-store mutation churn (tombstones, overflow, compaction):
/// a sharded sparse-backed run equals the sequential sparse-backed run on
/// a graph large enough for real multi-step fork replay.
#[test]
fn sparse_forks_survive_multi_step_replay() {
    let g = gnm(80, 240, 13);
    for l in [1u8, 2] {
        let base = AnonymizeConfig::new(l, 0.2)
            .with_seed(29)
            .with_store(StoreBackend::Sparse);
        let seq = run_removal(&g, &base.with_parallelism(Parallelism::Off));
        assert!(seq.steps >= 3, "need a multi-step run to stress replay (L={l})");
        for workers in [2usize, 4] {
            let par = run_removal(&g, &base.with_parallelism(Parallelism::Fixed(workers)));
            assert_eq!(seq.removed, par.removed, "L={l} workers={workers}");
            assert_eq!(seq.graph, par.graph, "L={l} workers={workers}");
            assert_eq!(seq.trials, par.trials, "L={l} workers={workers}");
        }
    }
}

/// `Auto` must also be equivalent — whatever worker count the machine
/// resolves to, including the small-input sequential fallback.
#[test]
fn auto_parallelism_matches_sequential() {
    for seed in [1u64, 7, 42] {
        let g = gnm(40, 100, seed);
        for l in [1u8, 2] {
            let base = AnonymizeConfig::new(l, 0.4).with_seed(seed);
            let seq = run_removal(&g, &base.with_parallelism(Parallelism::Off));
            let auto = run_removal(&g, &base.with_parallelism(Parallelism::Auto));
            assert_eq!(seq.removed, auto.removed, "seed {seed} l {l}");
            assert_eq!(seq.graph, auto.graph, "seed {seed} l {l}");
            assert_eq!(seq.trials, auto.trials, "seed {seed} l {l}");
        }
    }
}
