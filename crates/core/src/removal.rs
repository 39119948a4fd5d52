//! Algorithm 4: greedy **Edge Removal** with look-ahead — the shared
//! move-selection machinery. Runs go through [`crate::Anonymizer`] with
//! [`crate::strategy::Removal`]; the greedy loop itself lives in
//! [`crate::strategy::drive_greedy`].
//!
//! Each step evaluates the removal of every candidate edge, choosing the
//! move that minimizes `(maxLO, N(maxLO))` lexicographically; exact ties
//! are broken uniformly at random per Algorithm 4 (lines 14–18), realized
//! here as the order-independent seeded priority of the internal
//! `tracker` module.
//! With look-ahead `la > 1`, combinations of up to `la` edges enter the
//! search space (see [`crate::config::LookaheadMode`] for the two explored
//! readings of the paper's description). The loop ends when `maxLO <= θ`
//! or no removable edge remains.
//!
//! # The sharded candidate scan
//!
//! The single-edge scan — every candidate trialed through the incremental
//! [`OpacityEvaluator`] — dominates the runtime of both heuristics. Under
//! [`crate::config::AnonymizeConfig::parallelism`] it is sharded across a
//! scoped-thread pool ([`lopacity_util::pool`]): the candidate list splits
//! into contiguous shards, each worker trials its shard against a
//! **persistent evaluator fork** (internal `forks` module: cloned once
//! per run at warmup, then kept state-identical by replaying each
//! committed move's [`crate::evaluator::CommitDelta`] in O(changed
//! cells) — never re-cloned per step), and
//! feeds a private `BestTracker`; the per-shard winners then merge. The
//! merged argmin is **bit-for-bit the sequential scan's choice** for every
//! worker count because the tracker's total order — `(maxLO, N, combo
//! size, seeded key, global candidate index)` — is a pure function of the
//! candidate set and the per-step nonce, never of scan order or thread
//! scheduling; the nonce is drawn exactly once per step, so the run RNG
//! evolves identically too. Multi-edge look-ahead combos share prefix
//! apply/undo state and remain sequential.

use crate::config::{AnonymizeConfig, LookaheadMode};
use crate::evaluator::OpacityEvaluator;
use crate::forks::ForkSet;
use crate::lo::LoAssessment;
use crate::strategy::MoveKind;
use crate::tracker::{BestTracker, TieBreak};
use lopacity_graph::Edge;
use lopacity_util::{pool, Parallelism};
use rand::rngs::StdRng;

/// Fewest estimated distance-cell visits for which [`Parallelism::Auto`]
/// shards a **warm** size-1 scan — persistent forks already exist, so
/// sharding pays only scoped-thread spawn/join (~10–20 µs per worker).
///
/// The unit is the evaluator's
/// [`OpacityEvaluator::estimated_trial_cost`] (mean ball × stored-row
/// scan length) times the candidate count. A cell visit is a few ns, so
/// `2²⁰` ≈ 1M visits ≈ single-digit milliseconds of scan — comfortably
/// above a handful of spawns. The floor replaces the fixed 64-candidate
/// cutoff of issue 4, which was calibrated for *dense* trials
/// (`O(|V|)` per affected source, ~20k cells on the smoke bench): under
/// the sparse store a trial is ball-bounded — often 50–100× cheaper —
/// and 64 tiny trials (~100k cells total) would be pure spawn overhead;
/// conversely a dense 10⁵-vertex graph pays millions of cells *per
/// trial*, where sharding even a 4-candidate tail scan is a real win.
/// Work, not candidate count, is the quantity spawn overhead competes
/// with.
const AUTO_WARM_WORK_FLOOR: u128 = 1 << 20;

/// Work floor for a **cold** size-1 scan — one that still has forks to
/// clone. Cloning a worker's evaluator costs an `O(|V|²)` (dense) or
/// `O(Σ ball)` (sparse) memcpy, so the first sharded scan must be ~4×
/// larger before the one-off warmup pays for itself; matches the old
/// 256-vs-64 candidate ratio.
const AUTO_COLD_WORK_FLOOR: u128 = 1 << 22;

/// Below this many candidates `Auto` never shards: the per-shard tracker
/// merge and spawn bookkeeping cannot win on a handful of trials, however
/// expensive each one is (a 3-candidate scan saturates at 3 workers and
/// still pays 2 spawns + merges to halve a cost the caller pays once).
const AUTO_MIN_CANDIDATES: usize = 4;

/// Worker count for a size-1 scan over `n` candidates. `warm` means the
/// run's [`ForkSet`] is already populated, i.e. sharding no longer pays
/// per-worker clones; `per_trial_cost` is the evaluator's estimated
/// distance-cell visits per trial, which makes the decision
/// backend-aware: ball-bounded sparse trials need many more candidates to
/// amortize a spawn than `O(|V|)`-row dense trials. The decision never
/// affects outputs — the sharded scan is bit-for-bit the sequential one —
/// only wall-clock, so `Auto` may pick differently on different machines,
/// steps, or backends without breaking determinism of results.
pub(crate) fn scan_workers(
    parallelism: Parallelism,
    n: usize,
    warm: bool,
    per_trial_cost: usize,
) -> usize {
    if parallelism.is_adaptive() {
        let floor = if warm { AUTO_WARM_WORK_FLOOR } else { AUTO_COLD_WORK_FLOOR };
        let work = n as u128 * per_trial_cost.max(1) as u128;
        if n < AUTO_MIN_CANDIDATES || work < floor {
            return 1;
        }
    }
    parallelism.workers().min(n.max(1))
}

/// Trials every edge of `scanned` (size-1 moves), offering each to
/// `tracker` under global indices `0..scanned.len()`, sharded across
/// workers per `config.parallelism`. When `keep_singles` is set, every
/// `(edge, assessment)` lands in `singles` in candidate order (the beam
/// ranking needs them later). Returns the number of trials performed.
///
/// Shard 0 scans on the calling thread against `ev` itself; shards 1..w
/// scan against the run's persistent forks ([`ForkSet`]) — cloned here on
/// the first sharded scan (warmup), byte-identical to `ev` ever after, so
/// no `O(|V|²)` state moves once the run is warm.
#[allow(clippy::too_many_arguments)]
fn scan_singles(
    ev: &mut OpacityEvaluator,
    forks: &mut ForkSet,
    scanned: &[Edge],
    kind: MoveKind,
    tracker: &mut BestTracker,
    tb: &TieBreak,
    config: &AnonymizeConfig,
    keep_singles: bool,
    singles: &mut Vec<(Edge, LoAssessment)>,
) -> u64 {
    let workers = scan_workers(
        config.parallelism,
        scanned.len(),
        forks.warm(),
        ev.estimated_trial_cost(),
    );
    if workers <= 1 {
        for (idx, &e) in scanned.iter().enumerate() {
            let a = match kind {
                MoveKind::Remove => ev.trial_remove(e),
                MoveKind::Insert => ev.trial_insert(e),
            };
            tracker.offer(&[idx], &[e], a, tb);
            if keep_singles {
                singles.push((e, a));
            }
        }
    } else {
        forks.ensure(ev, workers - 1);
        forks.debug_assert_in_sync(ev);
        let mut states: Vec<&mut OpacityEvaluator> = Vec::with_capacity(workers);
        states.push(ev);
        states.extend(forks.first_mut(workers - 1).iter_mut());
        let shards = pool::run_sharded_with(scanned, &mut states, |offset, shard, ev| {
            let mut shard_tracker = BestTracker::new();
            let mut shard_singles =
                Vec::with_capacity(if keep_singles { shard.len() } else { 0 });
            for (k, &e) in shard.iter().enumerate() {
                let a = match kind {
                    MoveKind::Remove => ev.trial_remove(e),
                    MoveKind::Insert => ev.trial_insert(e),
                };
                shard_tracker.offer(&[offset + k], &[e], a, tb);
                if keep_singles {
                    shard_singles.push((e, a));
                }
            }
            (shard_tracker, shard_singles)
        });
        // Shards come back in offset order, so `singles` concatenates to
        // exactly the sequential candidate order.
        for (shard_tracker, shard_singles) in shards {
            tracker.merge(shard_tracker);
            singles.extend(shard_singles);
        }
    }
    scanned.len() as u64
}

/// Evaluates every size-`size` combination of `candidates` (in index
/// order), offering each to the tracker. Prefix edges are applied and
/// undone via the evaluator's journal; the last edge of each combo is a
/// pure trial. Combos share mutable evaluator state, so this path stays
/// sequential.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_combos(
    ev: &mut OpacityEvaluator,
    candidates: &[Edge],
    size: usize,
    kind: MoveKind,
    tracker: &mut BestTracker,
    tb: &TieBreak,
    trials: &mut u64,
    trial_budget: Option<u64>,
) {
    let mut stack = Vec::with_capacity(size);
    let mut indices = Vec::with_capacity(size);
    recurse(
        ev, candidates, 0, size, &mut stack, &mut indices, kind, tracker, tb, trials,
        trial_budget,
    );
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    ev: &mut OpacityEvaluator,
    candidates: &[Edge],
    start: usize,
    size: usize,
    stack: &mut Vec<Edge>,
    indices: &mut Vec<usize>,
    kind: MoveKind,
    tracker: &mut BestTracker,
    tb: &TieBreak,
    trials: &mut u64,
    trial_budget: Option<u64>,
) {
    let exhausted = |trials: &u64| trial_budget.is_some_and(|cap| *trials >= cap);
    if stack.len() + 1 == size {
        for (idx, &e) in candidates.iter().enumerate().skip(start) {
            if exhausted(trials) {
                return; // budget hit mid-scan: keep the best found so far
            }
            let a = match kind {
                MoveKind::Remove => ev.trial_remove(e),
                MoveKind::Insert => ev.trial_insert(e),
            };
            *trials += 1;
            stack.push(e);
            indices.push(idx);
            tracker.offer(indices, stack, a, tb);
            stack.pop();
            indices.pop();
        }
    } else {
        for idx in start..candidates.len() {
            if exhausted(trials) {
                return;
            }
            let e = candidates[idx];
            let token = match kind {
                MoveKind::Remove => ev.apply_remove(e),
                MoveKind::Insert => ev.apply_insert(e),
            };
            stack.push(e);
            indices.push(idx);
            recurse(
                ev, candidates, idx + 1, size, stack, indices, kind, tracker, tb, trials,
                trial_budget,
            );
            stack.pop();
            indices.pop();
            ev.undo(token);
        }
    }
}

/// Chooses the next move per the configured look-ahead policy. Returns
/// `None` when `candidates` is empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_move(
    ev: &mut OpacityEvaluator,
    forks: &mut ForkSet,
    candidates: &[Edge],
    current: LoAssessment,
    config: &AnonymizeConfig,
    kind: MoveKind,
    rng: &mut StdRng,
    trials: &mut u64,
) -> Option<(Vec<Edge>, LoAssessment)> {
    if candidates.is_empty() {
        return None;
    }
    // One nonce per greedy step, drawn before any scanning: sequential and
    // sharded scans advance the run RNG identically.
    let tb = TieBreak::from_rng(rng);
    let max_size = config.lookahead.min(candidates.len());

    // Size-1 scan, shared by both modes; per-candidate assessments are kept
    // only when a beam must be ranked later. A trial budget truncates the
    // scan to a *prefix* of the candidate list — computing that prefix up
    // front (instead of checking per trial) is what lets the sharded scan
    // evaluate exactly the candidates the sequential one would.
    let mut tracker = BestTracker::new();
    let keep_singles = max_size > 1 && config.lookahead_beam.is_some();
    let limit = match config.max_trials {
        Some(cap) => (cap.saturating_sub(*trials)).min(candidates.len() as u64) as usize,
        None => candidates.len(),
    };
    let mut singles: Vec<(Edge, LoAssessment)> =
        Vec::with_capacity(if keep_singles { limit } else { 0 });
    *trials += scan_singles(
        ev,
        forks,
        &candidates[..limit],
        kind,
        &mut tracker,
        &tb,
        config,
        keep_singles,
        &mut singles,
    );

    // The candidate pool for multi-edge combinations: everything, or the
    // `beam` most promising single moves.
    let beamed: Vec<Edge>;
    let pool: &[Edge] = match config.lookahead_beam {
        Some(beam) if singles.len() > beam => {
            singles.sort_by(|(_, x), (_, y)| {
                x.cmp_value(y).then(x.n_at_max().cmp(&y.n_at_max()))
            });
            beamed = singles.iter().take(beam).map(|&(e, _)| e).collect();
            &beamed
        }
        _ => candidates,
    };

    match config.lookahead_mode {
        LookaheadMode::Escalating => {
            let mut overall = tracker.take();
            if let Some((_, a)) = &overall {
                if a.better_than(&current) {
                    // A beneficial single move exists: no escalation
                    // (Section 5's first reading).
                    return overall;
                }
            }
            for size in 2..=max_size {
                if config.max_trials.is_some_and(|cap| *trials >= cap) {
                    break; // budget spent: do not escalate further
                }
                let mut tracker = BestTracker::new();
                scan_combos(ev, pool, size, kind, &mut tracker, &tb, trials, config.max_trials);
                if let Some((combo, a)) = tracker.take() {
                    let replace = match &overall {
                        None => true,
                        Some((_, oa)) => a.better_than(oa),
                    };
                    if replace {
                        overall = Some((combo, a));
                    }
                    if a.better_than(&current) {
                        return overall;
                    }
                }
            }
            overall
        }
        LookaheadMode::Exhaustive => {
            for size in 2..=max_size {
                if config.max_trials.is_some_and(|cap| *trials >= cap) {
                    break;
                }
                scan_combos(ev, pool, size, kind, &mut tracker, &tb, trials, config.max_trials);
            }
            tracker.take()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opacity::opacity_report;
    use crate::result::AnonymizationOutcome;
    use crate::session::Anonymizer;
    use crate::strategy::Removal;
    use crate::types::TypeSpec;
    use lopacity_graph::Graph;

    /// One standalone Algorithm 4 run: a session consumed by `run_once`.
    fn run_removal(graph: &Graph, config: &AnonymizeConfig) -> AnonymizationOutcome {
        Anonymizer::new(graph, &TypeSpec::DegreePairs).config(*config).run_once(Removal)
    }

    fn paper_graph() -> Graph {
        Graph::from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6)],
        )
        .unwrap()
    }

    #[test]
    fn achieves_theta_on_paper_graph_l1() {
        let original = paper_graph();
        let config = AnonymizeConfig::new(1, 0.5).with_seed(1);
        let out = run_removal(&original, &config);
        assert!(out.achieved, "{out}");
        assert!(out.inserted.is_empty());
        let report = crate::opacity::opacity_report_against_original(
            &original,
            &out.graph,
            &TypeSpec::DegreePairs,
            1,
        );
        assert!(report.max_lo.satisfies(0.5), "final LO {}", report.max_lo);
    }

    #[test]
    fn theta_one_needs_no_work() {
        let config = AnonymizeConfig::new(1, 1.0);
        let out = run_removal(&paper_graph(), &config);
        assert!(out.achieved);
        assert_eq!(out.steps, 0);
        assert_eq!(out.graph, paper_graph());
    }

    #[test]
    fn theta_zero_empties_typed_linkage() {
        // θ = 0 demands no typed pair within L at all.
        let config = AnonymizeConfig::new(1, 0.0).with_seed(3);
        let out = run_removal(&paper_graph(), &config);
        assert!(out.achieved);
        assert_eq!(out.graph.num_edges(), 0, "every edge is a within-1 typed pair");
    }

    #[test]
    fn types_use_original_degrees_throughout() {
        // After removals change degrees, opacity is still measured against
        // the original degree types; re-building types from the *anonymized*
        // graph may legitimately differ.
        let config = AnonymizeConfig::new(1, 0.4).with_seed(5);
        let original = paper_graph();
        let out = run_removal(&original, &config);
        let frozen = crate::types::TypeSystem::build(&original, &TypeSpec::DegreePairs);
        let dist = lopacity_apsp::ApspEngine::TruncatedBfs.compute(&out.graph, 1);
        let counts = crate::opacity::count_within_l(&dist, &frozen, 1);
        let a = LoAssessment::from_counts(&counts, frozen.denominators());
        assert!(a.satisfies(0.4));
    }

    #[test]
    fn removal_is_deterministic_per_seed() {
        let config = AnonymizeConfig::new(1, 0.3).with_seed(11);
        let a = run_removal(&paper_graph(), &config);
        let b = run_removal(&paper_graph(), &config);
        assert_eq!(a.removed, b.removed);
    }

    #[test]
    fn max_steps_caps_the_run() {
        let config = AnonymizeConfig::new(1, 0.0).with_max_steps(2);
        let out = run_removal(&paper_graph(), &config);
        assert!(!out.achieved);
        assert_eq!(out.steps, 2);
        assert_eq!(out.removed.len(), 2);
    }

    #[test]
    fn lookahead_two_explores_more() {
        let base = AnonymizeConfig::new(2, 0.3).with_seed(2);
        let out1 = run_removal(&paper_graph(), &base);
        let out2 = run_removal(
            &paper_graph(),
            &base.with_lookahead(2).with_mode(LookaheadMode::Exhaustive),
        );
        assert!(out2.trials >= out1.trials);
        assert!(out2.achieved);
    }

    #[test]
    fn l2_respects_two_hop_linkage() {
        let config = AnonymizeConfig::new(2, 0.5).with_seed(7);
        let out = run_removal(&paper_graph(), &config);
        assert!(out.achieved);
        let report = opacity_report(&out.graph, &TypeSpec::DegreePairs, 2);
        // Note: report re-derives types from the anonymized graph's degrees;
        // the run guarantee is for original-degree types (checked via
        // `types_use_original_degrees_throughout`), so only sanity-check
        // that distances actually shrank here.
        assert!(!out.removed.is_empty());
        let _ = report;
    }

    /// Pins the `Auto` sequential-fallback decision function (issue 5
    /// satellite): `Fixed`/`Off` resolve as before; `Auto` weighs
    /// *estimated work* (candidates × per-trial cell visits) against the
    /// warm/cold floors, so ball-bounded sparse trials need far more
    /// candidates to shard than `O(|V|)`-row dense trials.
    #[test]
    fn scan_worker_decision_is_pinned() {
        use lopacity_util::Parallelism::*;
        // Representative per-trial costs: a dense trial on the smoke-bench
        // graph (ball ≈ 40, n = 500) visits ~20k cells; the same graph's
        // sparse trials visit ~1.6k (ball²).
        const DENSE_COST: usize = 20_000;
        const SPARSE_COST: usize = 1_600;
        // Off and Fixed ignore warmth and cost entirely.
        for warm in [false, true] {
            for cost in [1usize, SPARSE_COST, DENSE_COST] {
                assert_eq!(scan_workers(Off, 10_000, warm, cost), 1);
                assert_eq!(scan_workers(Fixed(4), 10, warm, cost), 4);
                assert_eq!(scan_workers(Fixed(4), 3, warm, cost), 3, "capped at candidates");
                assert_eq!(scan_workers(Fixed(1), 500, warm, cost), 1);
            }
        }
        // Auto, warm, dense-cost trials: the work floor (2²⁰ cells) is the
        // same ballpark as the old 64-candidate cutoff — 52 here.
        assert_eq!(scan_workers(Auto, 52, true, DENSE_COST), 1);
        assert!(scan_workers(Auto, 53, true, DENSE_COST) >= 1);
        // Auto, warm, sparse-cost trials: ball-bounded trials are ~12×
        // cheaper, so the same floor needs ~12× the candidates — the old
        // fixed 64 cutoff would have sharded pure spawn overhead.
        assert_eq!(scan_workers(Auto, 64, true, SPARSE_COST), 1);
        assert_eq!(scan_workers(Auto, 655, true, SPARSE_COST), 1);
        assert!(scan_workers(Auto, 656, true, SPARSE_COST) >= 1);
        // Cold scans (warmup still clones forks) need 4× the work.
        assert_eq!(scan_workers(Auto, 209, false, DENSE_COST), 1);
        assert!(scan_workers(Auto, 210, false, DENSE_COST) >= 1);
        assert!(AUTO_WARM_WORK_FLOOR < AUTO_COLD_WORK_FLOOR);
        // A huge per-trial cost (dense 10⁵-vertex graph: ~4M cells) makes
        // even a tiny tail scan worth sharding — but never below the
        // absolute candidate floor.
        let huge = 4_000_000usize;
        assert!(scan_workers(Auto, AUTO_MIN_CANDIDATES, true, huge) >= 1);
        assert_eq!(scan_workers(Auto, AUTO_MIN_CANDIDATES - 1, true, huge), 1);
        // Machine-independent part of the resolution: Auto above the floor
        // resolves to available_parallelism capped by candidates.
        let cores = Auto.workers();
        assert_eq!(scan_workers(Auto, 10_000, true, DENSE_COST), cores.min(10_000));
        assert_eq!(scan_workers(Auto, 656, true, SPARSE_COST), cores.min(656));
    }

    #[test]
    fn empty_graph_is_instantly_opaque() {
        let g = Graph::new(5);
        let out = run_removal(&g, &AnonymizeConfig::new(1, 0.0));
        assert!(out.achieved);
        assert_eq!(out.steps, 0);
    }
}
