//! **L-opacity: linkage-aware graph anonymization** — a Rust implementation
//! of Nobari, Karras, Pang and Bressan, EDBT 2014.
//!
//! # The privacy model
//!
//! Publishing a social graph with identities removed still leaks *linkage*:
//! an adversary who knows the degrees of two individuals can sometimes infer
//! with certainty that they are connected by a short path, even when neither
//! node can be re-identified. L-opacity bounds that confidence: a graph is
//! **L-opaque with respect to θ** when, for every vertex-pair type `T` of
//! interest, the fraction of `T`'s pairs lying at geodesic distance `≤ L`
//! does not exceed `θ` (Definitions 1–3; the decision threshold follows
//! Algorithms 4/5, which accept when `maxLO ≤ θ`).
//!
//! # Quickstart: the [`Anonymizer`] session
//!
//! A session builds the expensive incremental evaluator (full truncated
//! APSP + per-type counters) once and then runs any number of pluggable
//! [`Strategy`] values against it — the paper's Algorithm 4
//! ([`Removal`]), Algorithm 5 ([`RemovalInsertion`]), or the exact
//! baseline ([`ExactMinRemovals`]):
//!
//! ```
//! use lopacity::{Anonymizer, AnonymizeConfig, Removal, RemovalInsertion, TypeSpec};
//! use lopacity_graph::Graph;
//!
//! // The paper's Figure 1 graph (0-indexed).
//! let g = Graph::from_edges(7, [
//!     (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6),
//! ]).unwrap();
//! let spec = TypeSpec::DegreePairs;
//!
//! let mut session = Anonymizer::new(&g, &spec)
//!     .config(AnonymizeConfig::new(1, 2.0 / 3.0));
//!
//! // Its opacity at L = 1 is 1.0: some degree-pair type is fully linked.
//! assert_eq!(session.initial_assessment().as_f64(), 1.0);
//!
//! // Anonymize: confidence at most 2/3 for single-edge linkage. Both
//! // heuristics reuse the evaluator built above.
//! let outcome = session.run(Removal);
//! assert!(outcome.achieved);
//! let alternative = session.run(RemovalInsertion::default());
//!
//! // Certify against the publication model: original degrees, published
//! // distances.
//! let after = lopacity::opacity::opacity_report_against_original(
//!     &g, &outcome.graph, &TypeSpec::DegreePairs, 1,
//! );
//! assert!(after.max_lo.as_f64() <= 2.0 / 3.0 + 1e-12);
//! # let _ = alternative;
//! ```
//!
//! # Multi-θ sweeps (a Figure-9-style privacy/utility curve)
//!
//! The paper's experiments evaluate each heuristic across a *sweep* of θ
//! values on the same graph. [`Anonymizer::sweep`] runs the θ values in
//! descending order; in the default [`SweepMode::Resume`] each θ resumes
//! from the previous θ's edited graph, evaluator state, and RNG, so the
//! whole curve costs one trajectory instead of one per point — and every
//! cumulative outcome is still bit-for-bit what a standalone run at that θ
//! would return (the greedy trajectories do not depend on θ; it only
//! decides when to stop). [`SweepMode::Independent`] opts out and
//! reproduces standalone runs exactly, still sharing the initial build:
//!
//! ```
//! use lopacity::{Anonymizer, AnonymizeConfig, Removal, TypeSpec};
//! use lopacity_graph::Graph;
//!
//! let g = Graph::from_edges(7, [
//!     (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6),
//! ]).unwrap();
//! let spec = TypeSpec::DegreePairs;
//! let mut session = Anonymizer::new(&g, &spec)
//!     .config(AnonymizeConfig::new(1, 0.5).with_seed(7));
//!
//! // One pass, three curve points: (θ, edits) is the Figure-9-style series.
//! for run in session.sweep(&[0.9, 0.66, 0.5], Removal) {
//!     println!("θ={:.2}: {} edits, maxLO {:.3} ({} new trials)",
//!         run.theta, run.outcome.edits(), run.outcome.final_lo, run.new_trials);
//! }
//! ```
//!
//! Attach a [`ProgressObserver`] (see [`progress`]) to stream per-step
//! events — step index, `maxLO`, `N`, trial and edit counters — to logs,
//! metrics, or a cancellation watchdog; observers never change outcomes.
//!
//! # Large graphs: the sparse distance store
//!
//! Sessions keep truncated distances behind an adaptive
//! [`StoreBackend`]: small or within-L-dense graphs get the packed
//! `Θ(|V|²)` matrix, while large sparse graphs (the default resolution
//! beyond ~4k vertices when the sampled within-L density allows) get a
//! sparse within-L store — `O(Σ |ball_L(v)|)` memory and ball-bounded
//! trial scans, which is what makes `|V| = 10⁵` runs practical (~24 MB
//! resident instead of a 2.5 GB matrix; see `BENCH_5.json`). The choice
//! never changes results, only footprint and speed; force it per run
//! with [`AnonymizeConfig::with_store`]:
//!
//! ```
//! use lopacity::{AnonymizeConfig, StoreBackend};
//! let config = AnonymizeConfig::new(2, 0.5).with_store(StoreBackend::Sparse);
//! assert_eq!(config.store, StoreBackend::Sparse);
//! ```
//!
//! # Module map
//!
//! * [`session`] — the [`Anonymizer`] session API (the maintained entry
//!   point), sweeps, and the [`RunContext`] strategies execute against;
//! * [`churn`] — the [`ChurnSession`] live-graph loop: external
//!   [`EdgeEvent`] streams applied as incremental deltas, violation
//!   detection, and certified [`RepairPatch`] emission;
//! * [`strategy`] — the [`Strategy`] / [`GreedyPolicy`] traits, the shared
//!   greedy driver, and the three built-in strategies;
//! * [`model`] — the [`PrivacyModel`] trait (certify / violations /
//!   repair) that lets rival anonymity notions — `crates/models`'
//!   k-degree and (k,ℓ)-adjacency anonymity — run behind the same
//!   session, plus [`LOpacity`], the paper's notion as a model;
//! * [`progress`] — [`ProgressObserver`] and the step-event types;
//! * [`types`] — vertex-pair type systems: the paper's default
//!   (*original-degree pairs*) plus explicit pair sets (used by the 3-SAT
//!   hardness construction);
//! * [`opacity`] — Algorithm 1 (`maxLO`), per-type opacity matrices;
//! * [`evaluator`] — an incremental trial/apply/undo opacity evaluator that
//!   makes the greedy heuristics tractable (property-tested equal to full
//!   recomputation);
//! * [`removal`] — the sharded move-selection machinery Algorithms 4/5
//!   share (the algorithms themselves are [`Removal`] and
//!   [`RemovalInsertion`], run through a session);
//! * [`optimal`] — exact minimum-removal search for small instances;
//! * [`config`] / [`result`] — tuning knobs and rich run reports.

pub mod churn;
pub mod config;
pub mod control;
pub mod evaluator;
mod forks;
pub mod lo;
pub mod model;
pub mod opacity;
pub mod optimal;
pub mod progress;
pub mod removal;
#[cfg(test)]
mod removal_insertion;
pub mod result;
pub mod session;
pub mod strategy;
mod tracker;
pub mod types;

pub use churn::{BatchReport, ChurnSession, EdgeEvent, RepairPatch};
pub use config::{AnonymizeConfig, LookaheadMode};
pub use control::{RunCheckpoint, RunControl};
pub use evaluator::{BatchDelta, CommitDelta, OpacityEvaluator};
pub use lo::LoAssessment;
pub use lopacity_apsp::{estimate_footprint, StoreBackend};
pub use lopacity_util::Parallelism;
pub use model::{LOpacity, PrivacyModel};
pub use opacity::{opacity_report, OpacityReport};
pub use progress::{CountingObserver, NoOpObserver, ProgressObserver, RunInfo, StepEvent};
pub use result::AnonymizationOutcome;
pub use session::{Anonymizer, LSweepRun, RunContext, SweepMode, SweepRun};
pub use strategy::{
    drive_greedy, ExactMinRemovals, GreedyPolicy, MoveKind, Removal, RemovalInsertion, Strategy,
};
pub use types::{TypeSpec, TypeSystem};

#[cfg(test)]
mod send_assertions {
    //! Compile-time `Send` guarantees for the service layer: a daemon
    //! worker thread owns an evaluator or a churn session outright, and a
    //! handler thread holds `RunControl` clones — all of that must cross
    //! thread boundaries. Kept as tests so a future `Rc`/raw-pointer field
    //! fails loudly here instead of deep inside the daemon.

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn service_layer_types_are_send() {
        assert_send::<crate::OpacityEvaluator>();
        assert_send::<crate::ChurnSession>();
        assert_send::<crate::AnonymizationOutcome>();
        assert_send::<crate::BatchDelta>();
        assert_send::<crate::CommitDelta>();
        assert_send::<crate::AnonymizeConfig>();
    }

    #[test]
    fn run_control_is_shareable_across_threads() {
        assert_send::<crate::RunControl>();
        assert_sync::<crate::RunControl>();
    }
}
