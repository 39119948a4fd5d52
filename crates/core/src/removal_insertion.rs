//! Unit tests of Algorithm 5 ([`crate::strategy::RemovalInsertion`]),
//! each a standalone session run.

mod tests {
    use crate::config::AnonymizeConfig;
    use crate::opacity::opacity_report_against_original;
    use crate::result::AnonymizationOutcome;
    use crate::session::Anonymizer;
    use crate::strategy::RemovalInsertion;
    use crate::types::TypeSpec;
    use lopacity_graph::Graph;

    /// One standalone Algorithm 5 run: a session consumed by `run_once`.
    fn run_removal_insertion(graph: &Graph, config: &AnonymizeConfig) -> AnonymizationOutcome {
        Anonymizer::new(graph, &TypeSpec::DegreePairs)
            .config(*config)
            .run_once(RemovalInsertion::default())
    }

    fn paper_graph() -> Graph {
        Graph::from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5), (5, 6)],
        )
        .unwrap()
    }

    #[test]
    fn infeasible_theta_terminates_without_achieving() {
        // On the Figure 1 graph at L = 1, keeping |E| = 10 while meeting
        // θ = 0.5 is *infeasible*: summing each degree-type's maximum
        // within-L capacity (⌊θ |T|⌋ over all types) allows at most 8 edges.
        // Algorithm 5 must therefore stop by candidate exhaustion — the
        // behaviour the paper reports for Rem-Ins on hard instances.
        let original = paper_graph();
        let config = AnonymizeConfig::new(1, 0.5).with_seed(1);
        let out = run_removal_insertion(&original, &config);
        assert!(!out.achieved, "θ=0.5 with constant |E| should be infeasible: {out}");
        assert!(out.steps > 0);
    }

    #[test]
    fn achieves_feasible_theta_on_larger_graph() {
        // A roomier instance where insertion capacity suffices.
        let mut original = Graph::new(12);
        for i in 0..12u32 {
            original.add_edge(i, (i + 1) % 12);
            if i % 3 == 0 {
                original.add_edge(i, (i + 5) % 12);
            }
        }
        let config = AnonymizeConfig::new(1, 0.6).with_seed(2);
        let out = run_removal_insertion(&original, &config);
        assert!(out.achieved, "{out}");
        let report =
            opacity_report_against_original(&original, &out.graph, &TypeSpec::DegreePairs, 1);
        assert!(report.max_lo.satisfies(0.6), "final LO {}", report.max_lo);
    }

    #[test]
    fn preserves_edge_count_with_la_1() {
        let original = paper_graph();
        let config = AnonymizeConfig::new(1, 0.5).with_seed(3);
        let out = run_removal_insertion(&original, &config);
        if out.achieved && out.removed.len() == out.inserted.len() {
            assert_eq!(out.graph.num_edges(), original.num_edges());
        }
        // Every iteration pairs one removal with (at most) one insertion.
        assert!(out.inserted.len() <= out.removed.len());
        assert!(out.removed.len() <= out.steps);
    }

    #[test]
    fn never_reinserts_removed_or_removes_inserted() {
        let original = paper_graph();
        let config = AnonymizeConfig::new(1, 0.3).with_seed(5);
        let out = run_removal_insertion(&original, &config);
        let removed: std::collections::HashSet<_> = out.removed.iter().collect();
        let inserted: std::collections::HashSet<_> = out.inserted.iter().collect();
        assert!(removed.is_disjoint(&inserted), "an edge crossed sides");
        // Edit lists have no duplicates.
        assert_eq!(removed.len(), out.removed.len());
        assert_eq!(inserted.len(), out.inserted.len());
    }

    #[test]
    fn final_graph_matches_edit_lists() {
        let original = paper_graph();
        let config = AnonymizeConfig::new(2, 0.6).with_seed(9);
        let out = run_removal_insertion(&original, &config);
        let mut replay = original.clone();
        for e in &out.removed {
            assert!(replay.remove_edge(e.u(), e.v()), "removed edge {e} not present");
        }
        for e in &out.inserted {
            assert!(replay.add_edge(e.u(), e.v()), "inserted edge {e} already present");
        }
        assert_eq!(replay, out.graph);
    }

    #[test]
    fn deterministic_per_seed() {
        let config = AnonymizeConfig::new(1, 0.4).with_seed(11);
        let a = run_removal_insertion(&paper_graph(), &config);
        let b = run_removal_insertion(&paper_graph(), &config);
        assert_eq!(a.removed, b.removed);
        assert_eq!(a.inserted, b.inserted);
    }

    #[test]
    fn theta_one_is_a_no_op() {
        let out = run_removal_insertion(&paper_graph(), &AnonymizeConfig::new(1, 1.0));
        assert!(out.achieved);
        assert_eq!(out.edits(), 0);
    }

    #[test]
    fn max_steps_bounds_iterations() {
        let config = AnonymizeConfig::new(1, 0.0).with_max_steps(3);
        let out = run_removal_insertion(&paper_graph(), &config);
        assert!(out.steps <= 3);
    }
}
