//! Determinism regression: repeated runs with the same seed produce
//! **byte-identical** reports, including under multi-threaded candidate
//! scans.
//!
//! The sharded scan's tie-breaking is a pure function of (seed, step,
//! candidate index); nothing about thread scheduling may leak into the
//! output. These tests would catch, e.g., a merge order that depends on
//! which worker finished first, or an RNG consumed a different number of
//! times on the parallel path.

use lopacity::opacity::opacity_report_against_original;
use lopacity::{
    AnonymizationOutcome, AnonymizeConfig, Anonymizer, Parallelism, Removal, RemovalInsertion,
    StoreBackend, TypeSpec,
};
use lopacity_gen::Dataset;
use lopacity_graph::Graph;

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

/// Renders everything observable about a run into one byte string: the
/// run report, the full edit lists, the published edge list, and the
/// certified per-type opacity table.
fn rendered(original: &Graph, out: &AnonymizationOutcome, l: u8) -> Vec<u8> {
    let mut text = format!("{out}\n");
    for e in &out.removed {
        text.push_str(&format!("- {e}\n"));
    }
    for e in &out.inserted {
        text.push_str(&format!("+ {e}\n"));
    }
    for e in out.graph.edge_vec() {
        text.push_str(&format!("{e}\n"));
    }
    let report = opacity_report_against_original(original, &out.graph, &TypeSpec::DegreePairs, l);
    text.push_str(&format!("maxLO {}\n", report.max_lo));
    for row in &report.per_type {
        text.push_str(&format!("{}\t{}\t{}\t{:.9}\n", row.label, row.within_l, row.total, row.lo));
    }
    text.into_bytes()
}

/// Runs rem and rem-ins twice each under `parallelism` and asserts the
/// rendered reports are byte-identical.
fn assert_repeat_runs_identical(parallelism: Parallelism, tag: &str) {
    let original = Dataset::Gnutella.generate(120, 9);
    for l in [1u8, 2] {
        let config = AnonymizeConfig::new(l, 0.5).with_seed(17).with_parallelism(parallelism);
        let first = run_removal(&original, &config);
        let second = run_removal(&original, &config);
        assert_eq!(
            rendered(&original, &first, l),
            rendered(&original, &second, l),
            "rem is nondeterministic ({tag}, L={l})"
        );
        let first = run_removal_insertion(&original, &config);
        let second = run_removal_insertion(&original, &config);
        assert_eq!(
            rendered(&original, &first, l),
            rendered(&original, &second, l),
            "rem-ins is nondeterministic ({tag}, L={l})"
        );
    }
}

#[test]
fn repeated_runs_are_byte_identical_sequentially() {
    assert_repeat_runs_identical(Parallelism::Off, "off");
}

#[test]
fn repeated_runs_are_byte_identical_with_four_workers() {
    // Fixed(4) bypasses the small-input fallback, so every step's scan
    // really crosses thread boundaries — the CI smoke job leans on this
    // test to exercise multi-threaded paths on every push.
    assert_repeat_runs_identical(Parallelism::Fixed(4), "fixed-4");
}

#[test]
fn repeated_runs_are_byte_identical_with_auto() {
    assert_repeat_runs_identical(Parallelism::Auto, "auto");
}

/// The fork-clone perf counter is itself deterministic per configuration:
/// repeated runs warm up identically (same candidate counts, same worker
/// resolution), so a changing counter would reveal scheduling leaking into
/// the warmup decision.
#[test]
fn fork_clone_counter_is_deterministic() {
    let original = Dataset::Gnutella.generate(120, 9);
    for parallelism in [Parallelism::Off, Parallelism::Fixed(4)] {
        // L = 2, θ = 0.3 really steps on this instance (L = 1 is already
        // below every θ the suite uses, which would warm no forks at all).
        let config = AnonymizeConfig::new(2, 0.3).with_seed(17).with_parallelism(parallelism);
        let first = run_removal(&original, &config);
        let second = run_removal(&original, &config);
        assert!(first.steps > 0, "instance must actually step ({parallelism})");
        assert_eq!(first.fork_clones, second.fork_clones, "{parallelism}");
        match parallelism {
            Parallelism::Off => assert_eq!(first.fork_clones, 0),
            _ => assert_eq!(first.fork_clones, 3, "Fixed(4) warms exactly 3 forks"),
        }
    }
}

/// The distance-store backend is invisible in every rendered byte: the
/// same seed on dense and sparse stores — sequential and multi-threaded —
/// produces identical reports, edit lists, and published graphs.
#[test]
fn store_backends_match_byte_for_byte() {
    let original = Dataset::Gnutella.generate(120, 9);
    for l in [1u8, 2] {
        for parallelism in [Parallelism::Off, Parallelism::Fixed(4)] {
            let base = AnonymizeConfig::new(l, 0.5).with_seed(17).with_parallelism(parallelism);
            let dense = run_removal(&original, &base.with_store(StoreBackend::Dense));
            let sparse = run_removal(&original, &base.with_store(StoreBackend::Sparse));
            assert_eq!(
                rendered(&original, &dense, l),
                rendered(&original, &sparse, l),
                "store backends diverged (L={l}, {parallelism})"
            );
        }
    }
}

#[test]
fn four_workers_match_sequential_byte_for_byte() {
    let original = Dataset::Gnutella.generate(120, 9);
    let base = AnonymizeConfig::new(1, 0.5).with_seed(17);
    let seq = run_removal(&original, &base.with_parallelism(Parallelism::Off));
    let par = run_removal(&original, &base.with_parallelism(Parallelism::Fixed(4)));
    assert_eq!(rendered(&original, &seq, 1), rendered(&original, &par, 1));
}
