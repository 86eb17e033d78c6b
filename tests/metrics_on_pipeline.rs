//! Integration: the Table II metric stack applied to actual pipeline
//! output — generated circuits must be *comparable* to real ones, and
//! the diffusion model must beat the random ablation structurally on a
//! seeded run.

use syncircuit::metrics::compare_against_real;
use syncircuit::{GenRequest, PipelineConfig, SynCircuit};

#[test]
fn generated_sets_compare_against_real_designs() {
    let corpus: Vec<_> = syncircuit::datasets::corpus()
        .into_iter()
        .take(6)
        .map(|d| d.graph)
        .collect();
    let config = PipelineConfig::builder()
        .optimize_redundancy(false)
        .seed(21)
        .build()
        .expect("valid configuration");
    let model = SynCircuit::fit(&corpus, config).expect("fit");

    let real = &corpus[0];
    let n = real.node_count();

    let with_diff: Vec<_> = (0..3)
        .filter_map(|s| {
            model
                .generate_one(&GenRequest::nodes(n).seeded(s))
                .ok()
                .map(|g| g.gval)
        })
        .collect();
    let without: Vec<_> = (0..3)
        .filter_map(|s| {
            model
                .generate_one(
                    &GenRequest::nodes(n)
                        .seeded(s)
                        .without_diffusion()
                        .optimize(false),
                )
                .ok()
                .map(|g| g.graph)
        })
        .collect();
    assert!(!with_diff.is_empty() && !without.is_empty());

    let c_with = compare_against_real(real, &with_diff);
    let c_without = compare_against_real(real, &without);
    // All six metrics must be finite for both.
    for c in [&c_with, &c_without] {
        assert!(c.w1_out_degree.is_finite());
        assert!(c.w1_clustering.is_finite());
        assert!(c.w1_orbit.is_finite());
        for d in c.scalar_deviations() {
            assert!(d.is_finite());
        }
    }
    // The aggregate must at least distinguish the two generators (the
    // direction is asserted at experiment scale in the table2 bench).
    assert_ne!(c_with.aggregate(), c_without.aggregate());
}

#[test]
fn timing_distributions_of_generated_designs_are_nontrivial() {
    use syncircuit::synth::{label_design, LabelConfig};
    let corpus: Vec<_> = syncircuit::datasets::corpus()
        .into_iter()
        .take(5)
        .map(|d| d.graph)
        .collect();
    let config = PipelineConfig::builder()
        .seed(33)
        .build()
        .expect("valid configuration");
    let model = SynCircuit::fit(&corpus, config).expect("fit");
    let cfg = LabelConfig::fixed(0.5); // aggressive absolute constraint
    let mut any_violation = false;
    for seed in 0..4 {
        if let Ok(gen) = model.generate_one(&GenRequest::nodes(50).seeded(seed)) {
            let (labels, _, _) = label_design(&gen.graph, &cfg);
            assert!(labels.critical_delay >= 0.0);
            if labels.nvp > 0 {
                any_violation = true;
            }
        }
    }
    // At an aggressive 0.5ns clock at least one generated design should
    // have violating paths — i.e. generated circuits carry real logic
    // depth, unlike the collapsed baselines in the paper's Fig. 5.
    assert!(any_violation, "no generated design had timing violations");
}
