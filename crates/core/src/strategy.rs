//! Pluggable anonymization strategies.
//!
//! Feder, Nabar & Terzi ("Anonymizing Graphs") and Mauw et al.
//! ("(k,ℓ)-adjacency anonymity") both frame graph anonymization as a family
//! of interchangeable edge-edit transformations evaluated under one privacy
//! model — the shape this crate's public surface follows. A [`Strategy`]
//! is one such transformation policy; the [`crate::Anonymizer`] session
//! supplies the shared machinery (evaluator, RNG, budgets, observers,
//! counters) through a [`RunContext`], and the strategy decides which moves
//! to search and commit.
//!
//! The two greedy heuristics of the paper — Algorithm 4
//! ([`Removal`]) and Algorithm 5 ([`RemovalInsertion`]) — differ *only* in
//! their per-step phases: what candidates each phase scans, and what
//! bookkeeping a committed move updates. [`drive_greedy`] is the single
//! loop both previously duplicated, generic over a [`GreedyPolicy`];
//! custom greedy variants (different candidate filters, extra phases) plug
//! in by implementing that trait. [`ExactMinRemovals`] shows the trait is
//! not limited to greedy shapes: it runs the branch-and-bound solver of
//! [`crate::optimal`] under the same session surface.

use crate::evaluator::OpacityEvaluator;
use crate::session::RunContext;
use lopacity_graph::Edge;
use std::collections::HashSet;

/// Which elementary move a scan or commit performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Delete an existing edge.
    Remove,
    /// Add a currently absent edge.
    Insert,
}

/// An anonymization policy executable by an [`crate::Anonymizer`] session.
pub trait Strategy {
    /// Short stable identifier (observer events, CSV columns, CLI labels).
    fn name(&self) -> &'static str;

    /// Drives the working graph toward `ctx.config().theta`. Implementors
    /// select moves ([`RunContext::select`]), commit them
    /// ([`RunContext::commit`]), and mark step boundaries
    /// ([`RunContext::step_committed`]); greedy policies usually delegate
    /// the whole loop to [`drive_greedy`].
    fn execute(&mut self, ctx: &mut RunContext<'_>);
}

/// Boxed strategies are strategies: lets [`crate::model::PrivacyModel`]
/// implementations hand `Box<dyn Strategy>` repair policies straight to
/// [`crate::Anonymizer::run`] without an unboxing shim.
impl Strategy for Box<dyn Strategy + '_> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn execute(&mut self, ctx: &mut RunContext<'_>) {
        (**self).execute(ctx)
    }
}

/// Per-phase policy of one greedy step — everything that distinguished
/// Algorithm 4 from Algorithm 5.
pub trait GreedyPolicy {
    /// Phases per greedy step (Algorithm 4: 1; Algorithm 5: 2).
    fn num_phases(&self) -> usize;

    /// The elementary move of `phase`.
    fn kind(&self, phase: usize) -> MoveKind;

    /// Collects `phase`'s candidates into `out` (cleared by the driver;
    /// the buffer is reused across steps, so per-step scans allocate
    /// nothing).
    fn candidates(&mut self, phase: usize, ev: &OpacityEvaluator, out: &mut Vec<Edge>);

    /// Records a committed combo (e.g. the paper's `E_D`/`E_A` sets).
    fn committed(&mut self, phase: usize, combo: &[Edge]);

    /// Whether an empty selection in `phase` ends the run (Algorithm 5's
    /// removal phase is required, its insertion phase is not).
    fn required(&self, _phase: usize) -> bool {
        true
    }
}

/// The one greedy loop behind Algorithms 4 and 5: while the threshold is
/// unmet, edges remain, and budgets allow, run every phase of `policy` —
/// scan its candidates, commit the best combo — then count the step.
/// A required phase with no selectable move ends the run; an optional one
/// is skipped for that step. A full pass in which *no* phase commits
/// anything also ends the run — the state cannot change again, and a
/// policy with only optional phases would otherwise spin forever.
///
/// Interruption happens at two grains with deliberately different
/// mechanics: the *static* config budgets are re-checked only at the top
/// of each step (and enforced within a step by prefix-truncating the
/// candidate scan, keeping budgeted runs bit-for-bit prefixes of
/// unbudgeted ones), while a shared [`crate::RunControl`] is additionally
/// polled **between phases**, so a cancellation or dynamic budget lands
/// within one scan phase instead of one full step. With no control
/// attached the extra polls are inert and the loop is byte-identical to
/// its historical behaviour.
pub fn drive_greedy<P: GreedyPolicy + ?Sized>(ctx: &mut RunContext<'_>, policy: &mut P) {
    let phases = policy.num_phases();
    let mut candidates: Vec<Edge> = Vec::new();
    'run: while !ctx.achieved() && ctx.evaluator().graph().num_edges() > 0 {
        if ctx.interrupted() {
            break;
        }
        let mut committed_any = false;
        for phase in 0..phases {
            if ctx.stop_requested() {
                break 'run; // cooperative cancel/budget: stop mid-step
            }
            candidates.clear();
            policy.candidates(phase, ctx.evaluator(), &mut candidates);
            let kind = policy.kind(phase);
            match ctx.select(kind, &candidates) {
                Some((combo, _)) => {
                    ctx.commit(kind, &combo);
                    policy.committed(phase, &combo);
                    committed_any = true;
                }
                None if policy.required(phase) => break 'run,
                None => {}
            }
        }
        if !committed_any {
            break; // stalled: nothing moved, so nothing ever will
        }
        ctx.step_committed();
    }
}

/// **Algorithm 4** — greedy Edge Removal: one removal phase per step over
/// every current edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Removal;

impl Strategy for Removal {
    fn name(&self) -> &'static str {
        "removal"
    }

    fn execute(&mut self, ctx: &mut RunContext<'_>) {
        drive_greedy(ctx, self);
    }
}

impl GreedyPolicy for Removal {
    fn num_phases(&self) -> usize {
        1
    }

    fn kind(&self, _phase: usize) -> MoveKind {
        MoveKind::Remove
    }

    fn candidates(&mut self, _phase: usize, ev: &OpacityEvaluator, out: &mut Vec<Edge>) {
        out.extend(ev.graph().edges());
    }

    fn committed(&mut self, _phase: usize, _combo: &[Edge]) {}
}

/// **Algorithm 5** — greedy Edge Removal/Insertion: each step runs a
/// removal phase over edges never previously inserted, then an insertion
/// phase over non-edges never previously removed. The insertion
/// counter-balances the removal, keeping the published graph's edge count
/// equal to the original's (with `la = 1`). The paper's `E_D`/`E_A`
/// anti-oscillation sets live in the strategy state (they persist across
/// resumed sweep segments, exactly like a single long run); both grow
/// monotonically, which also bounds the loop. Candidate collection writes
/// into the driver's reused buffer instead of allocating per step.
///
/// With look-ahead `la > 1`, each phase independently explores multi-edge
/// combinations (the paper only states the extension is "analogous" to
/// Algorithm 4's; under multi-edge moves the phases may transiently differ
/// in size, so exact edge-count preservation is guaranteed for `la = 1`).
/// Both phases scan through the same sharded move-selection path as
/// Algorithm 4 (see [`crate::removal`]), with the same bit-for-bit
/// sequential-equivalence guarantee under
/// [`crate::config::AnonymizeConfig::parallelism`].
#[derive(Debug, Clone, Default)]
pub struct RemovalInsertion {
    removed_set: HashSet<Edge>,
    inserted_set: HashSet<Edge>,
}

impl RemovalInsertion {
    /// Rebuilds the strategy's anti-oscillation state from explicit edit
    /// lists — the checkpoint-resume constructor. At every step boundary
    /// of a run the `E_D`/`E_A` sets equal the run's edit lists (the
    /// greedy loop never revisits an edited edge), so a
    /// [`crate::RunCheckpoint`]'s `removed`/`inserted` lists are exactly
    /// the state a resumed strategy must carry.
    pub fn with_forbidden(
        removed: impl IntoIterator<Item = Edge>,
        inserted: impl IntoIterator<Item = Edge>,
    ) -> Self {
        RemovalInsertion {
            removed_set: removed.into_iter().collect(),
            inserted_set: inserted.into_iter().collect(),
        }
    }

    /// Edges removed so far and therefore barred from re-insertion
    /// (the paper's `E_D`).
    pub fn removed_set(&self) -> &HashSet<Edge> {
        &self.removed_set
    }

    /// Edges inserted so far and therefore barred from re-removal
    /// (the paper's `E_A`).
    pub fn inserted_set(&self) -> &HashSet<Edge> {
        &self.inserted_set
    }
}

impl Strategy for RemovalInsertion {
    fn name(&self) -> &'static str {
        "removal-insertion"
    }

    fn execute(&mut self, ctx: &mut RunContext<'_>) {
        drive_greedy(ctx, self);
    }
}

impl GreedyPolicy for RemovalInsertion {
    fn num_phases(&self) -> usize {
        2
    }

    fn kind(&self, phase: usize) -> MoveKind {
        if phase == 0 {
            MoveKind::Remove
        } else {
            MoveKind::Insert
        }
    }

    fn candidates(&mut self, phase: usize, ev: &OpacityEvaluator, out: &mut Vec<Edge>) {
        match phase {
            0 => out.extend(ev.graph().edges().filter(|e| !self.inserted_set.contains(e))),
            _ => out.extend(ev.graph().non_edges().filter(|e| !self.removed_set.contains(e))),
        }
    }

    fn committed(&mut self, phase: usize, combo: &[Edge]) {
        let set = if phase == 0 { &mut self.removed_set } else { &mut self.inserted_set };
        set.extend(combo.iter().copied());
    }

    fn required(&self, phase: usize) -> bool {
        phase == 0
    }
}

/// Exact minimum-cardinality edge removal (Section 4's exhaustive
/// approach, tamed): iterative deepening with branch-and-bound, via
/// [`crate::optimal`]. Exponential by Theorem 1 — the `max_edges` cap
/// makes accidental misuse loud rather than eternal.
///
/// Search nodes are charged to the session's trial clock, and each removal
/// of the optimal set is committed as one greedy-style step (so observer
/// event counts equal `outcome.steps` for every strategy). Budgets are
/// honored at the strategy's natural grain: `max_trials` is checked
/// between iterative-deepening levels (a level in flight runs to
/// completion), and `max_steps` truncates the committed set — like the
/// greedy heuristics' caps, a truncated run ends `achieved: false` with a
/// valid partial edit list. Look-ahead and parallelism knobs do not apply
/// to the exact search and are ignored. Under
/// [`crate::SweepMode::Resume`] each θ segment is minimal *given* the
/// previous segments' removals; use `Independent` for per-θ global minima.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactMinRemovals {
    /// Refuse graphs with more edges than this (recommended ≤ 25).
    pub max_edges: usize,
}

impl Default for ExactMinRemovals {
    fn default() -> Self {
        ExactMinRemovals { max_edges: 25 }
    }
}

impl Strategy for ExactMinRemovals {
    fn name(&self) -> &'static str {
        "exact-min-removals"
    }

    fn execute(&mut self, ctx: &mut RunContext<'_>) {
        if ctx.achieved() {
            return;
        }
        let edges = ctx.evaluator().graph().edge_vec();
        assert!(
            edges.len() <= self.max_edges,
            "exact search on {} edges exceeds the safety cap {}",
            edges.len(),
            self.max_edges
        );
        let theta = ctx.config().theta;
        // Iterative deepening: the first depth with a solution is minimal.
        // Removing every edge satisfies any θ >= 0, so the loop terminates.
        for budget in 1..=edges.len() {
            if ctx.interrupted() {
                return; // trial/step budget spent between deepening levels
            }
            let mut nodes = 0u64;
            let mut chosen = Vec::with_capacity(budget);
            let found = crate::optimal::search(
                ctx.evaluator_mut(),
                &edges,
                0,
                budget,
                theta,
                &mut chosen,
                &mut nodes,
            );
            ctx.add_trials(nodes);
            if found {
                for e in chosen {
                    if ctx.config().max_steps.is_some_and(|cap| ctx.steps() >= cap)
                        || ctx.stop_requested()
                    {
                        return; // step cap: commit a valid prefix, like the greedy caps
                    }
                    ctx.commit(MoveKind::Remove, &[e]);
                    ctx.step_committed();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeSpec;
    use lopacity_graph::Graph;

    fn paper_graph() -> Graph {
        Graph::from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6)],
        )
        .unwrap()
    }

    /// Regression (issue 3 satellite): an edge that has been inserted must
    /// never re-enter the removal candidate set, and a removed edge must
    /// never re-enter the insertion candidate set — directly against the
    /// strategy's candidate generation, not just the outcome's edit lists.
    #[test]
    fn removal_insertion_candidates_respect_the_forbidden_sets() {
        let g = paper_graph();
        let ev = OpacityEvaluator::new(g, &TypeSpec::DegreePairs, 1);
        let mut strategy = RemovalInsertion::default();
        let inserted = Edge::new(0, 1); // currently an edge of the graph
        let removed = Edge::new(0, 6); // currently a non-edge
        strategy.inserted_set.insert(inserted);
        strategy.removed_set.insert(removed);

        let mut out = Vec::new();
        strategy.candidates(0, &ev, &mut out);
        assert!(!out.is_empty());
        assert!(
            !out.contains(&inserted),
            "previously inserted edge {inserted} offered for re-removal"
        );

        out.clear();
        strategy.candidates(1, &ev, &mut out);
        assert!(!out.is_empty());
        assert!(
            !out.contains(&removed),
            "previously removed edge {removed} offered for re-insertion"
        );
    }

    #[test]
    fn removal_scans_every_current_edge() {
        let g = paper_graph();
        let ev = OpacityEvaluator::new(g.clone(), &TypeSpec::DegreePairs, 1);
        let mut out = Vec::new();
        Removal.candidates(0, &ev, &mut out);
        assert_eq!(out, g.edge_vec());
    }

    #[test]
    fn phase_shapes_match_the_algorithms() {
        assert_eq!(Removal.num_phases(), 1);
        assert_eq!(Removal.kind(0), MoveKind::Remove);
        assert!(Removal.required(0));
        let ri = RemovalInsertion::default();
        assert_eq!(ri.num_phases(), 2);
        assert_eq!(ri.kind(0), MoveKind::Remove);
        assert_eq!(ri.kind(1), MoveKind::Insert);
        assert!(ri.required(0));
        assert!(!ri.required(1));
    }

    #[test]
    fn committed_moves_grow_the_forbidden_sets() {
        let mut ri = RemovalInsertion::default();
        ri.committed(0, &[Edge::new(1, 2), Edge::new(2, 3)]);
        ri.committed(1, &[Edge::new(4, 5)]);
        assert_eq!(ri.removed_set().len(), 2);
        assert!(ri.inserted_set().contains(&Edge::new(4, 5)));
    }

    /// A policy whose phases are all optional and never produce a
    /// candidate must terminate (stall guard), not spin emitting steps.
    #[test]
    fn all_optional_policy_with_no_moves_terminates() {
        struct Inert;
        impl GreedyPolicy for Inert {
            fn num_phases(&self) -> usize {
                2
            }
            fn kind(&self, phase: usize) -> MoveKind {
                if phase == 0 { MoveKind::Remove } else { MoveKind::Insert }
            }
            fn candidates(&mut self, _p: usize, _ev: &OpacityEvaluator, _out: &mut Vec<Edge>) {}
            fn committed(&mut self, _p: usize, _combo: &[Edge]) {}
            fn required(&self, _p: usize) -> bool {
                false
            }
        }
        impl Strategy for Inert {
            fn name(&self) -> &'static str {
                "inert"
            }
            fn execute(&mut self, ctx: &mut crate::RunContext<'_>) {
                drive_greedy(ctx, self);
            }
        }
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        // θ = 0 is unreachable without moves and no budget is set: only
        // the stall guard ends this run.
        let mut session =
            crate::Anonymizer::new(&g, &spec).config(crate::AnonymizeConfig::new(1, 0.0));
        let out = session.run(Inert);
        assert!(!out.achieved);
        assert_eq!(out.steps, 0);
        assert_eq!(out.edits(), 0);
    }

    /// The exact strategy honors the session budgets: `max_steps` caps the
    /// committed removals, `max_trials` stops further deepening levels.
    #[test]
    fn exact_strategy_honors_budgets() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        // Unbudgeted optimum needs >= 3 removals at θ = 0.5.
        let mut session =
            crate::Anonymizer::new(&g, &spec).config(crate::AnonymizeConfig::new(1, 0.5));
        let full = session.run(ExactMinRemovals::default());
        assert!(full.achieved && full.steps >= 3);

        session.set_config(crate::AnonymizeConfig::new(1, 0.5).with_max_steps(2));
        let capped = session.run(ExactMinRemovals::default());
        assert!(!capped.achieved);
        assert_eq!(capped.steps, 2, "step cap must truncate the committed set");
        assert_eq!(capped.removed.len(), 2);

        session.set_config(crate::AnonymizeConfig::new(1, 0.5).with_max_trials(1));
        let starved = session.run(ExactMinRemovals::default());
        assert!(!starved.achieved);
        assert!(starved.removed.is_empty(), "no level after the cap may commit");
    }

    #[test]
    #[should_panic(expected = "safety cap")]
    fn exact_strategy_rejects_oversized_graphs() {
        let g = paper_graph();
        let spec = TypeSpec::DegreePairs;
        let mut session = crate::Anonymizer::new(&g, &spec)
            .config(crate::AnonymizeConfig::new(1, 0.5));
        session.run(ExactMinRemovals { max_edges: 5 });
    }
}
