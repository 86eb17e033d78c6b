//! The downstream PPA-prediction task (paper §VII-B.3, Table III):
//! train regressors on real (+ synthetic) designs, evaluate on held-out
//! real designs, report R / MAPE / RRSE for register slack, WNS, TNS and
//! area.

use crate::features::{design_features, register_features};
use crate::regress::{mape, pearson_r, rrse, Ridge};
use std::collections::HashMap;
use syncircuit_graph::CircuitGraph;
use syncircuit_synth::{label_design, DesignLabels, LabelConfig};

/// The four prediction targets of Table III.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// Per-register endpoint slack (RTL-Timer granularity).
    RegisterSlack,
    /// Worst negative slack per design.
    Wns,
    /// Total negative slack per design.
    Tns,
    /// Post-synthesis area per design.
    Area,
}

impl Target {
    /// All targets in table order.
    pub const ALL: [Target; 4] = [
        Target::RegisterSlack,
        Target::Wns,
        Target::Tns,
        Target::Area,
    ];

    /// Table column label.
    pub fn name(self) -> &'static str {
        match self {
            Target::RegisterSlack => "Register Slack",
            Target::Wns => "WNS",
            Target::Tns => "TNS",
            Target::Area => "Area",
        }
    }
}

/// Metric triple for one target.
#[derive(Clone, Copy, Debug)]
pub struct TargetScores {
    /// Pearson correlation (NaN prints as "NA", as in the paper).
    pub r: f64,
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Root relative squared error.
    pub rrse: f64,
}

/// Scores for all four targets.
pub type PpaReport = HashMap<Target, TargetScores>;

/// A labeled design ready for the task.
#[derive(Clone, Debug)]
pub struct LabeledDesign {
    /// The design graph.
    pub graph: CircuitGraph,
    /// Synthesis/timing ground truth.
    pub labels: DesignLabels,
}

/// Labels a set of designs with the synthesis simulator.
pub fn label_all(designs: &[CircuitGraph], config: &LabelConfig) -> Vec<LabeledDesign> {
    designs
        .iter()
        .map(|g| {
            let (labels, _, _) = label_design(g, config);
            LabeledDesign {
                graph: g.clone(),
                labels,
            }
        })
        .collect()
}

/// Trains per-target ridge models on `train` and evaluates on `test`.
///
/// Register slack pools per-register samples across designs; the other
/// targets use one sample per design. Designs whose registers all died in
/// synthesis contribute no slack samples (as in the real flow). Every
/// feature row carries the design's clock constraint as an extra input —
/// the constraint is known at RTL time (it drives the labels but is not
/// an outcome).
pub fn run_task(train: &[LabeledDesign], test: &[LabeledDesign], lambda: f64) -> PpaReport {
    let mut report = PpaReport::new();
    let clock_feature = |d: &LabeledDesign| d.labels.clock_period / 4.0;

    // --- register slack (per-register granularity) ---
    {
        let collect = |set: &[LabeledDesign]| -> (Vec<Vec<f64>>, Vec<f64>) {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for d in set {
                let mut regs: Vec<_> = d.labels.reg_slacks.iter().collect();
                regs.sort_by_key(|(id, _)| id.index());
                for (&reg, &slack) in regs {
                    let mut row = register_features(&d.graph, reg);
                    row.push(clock_feature(d));
                    xs.push(row);
                    ys.push(slack);
                }
            }
            (xs, ys)
        };
        let (train_x, train_y) = collect(train);
        let (test_x, test_y) = collect(test);
        if !train_x.is_empty() && !test_x.is_empty() {
            let model = Ridge::fit(&train_x, &train_y, lambda);
            let pred = model.predict_all(&test_x);
            report.insert(
                Target::RegisterSlack,
                TargetScores {
                    r: pearson_r(&pred, &test_y),
                    mape: mape(&pred, &test_y),
                    rrse: rrse(&pred, &test_y),
                },
            );
        }
    }

    // --- per-design targets ---
    for target in [Target::Wns, Target::Tns, Target::Area] {
        let value = |d: &LabeledDesign| match target {
            Target::Wns => d.labels.wns,
            Target::Tns => d.labels.tns,
            Target::Area => d.labels.area,
            Target::RegisterSlack => unreachable!(),
        };
        let with_clock = |d: &LabeledDesign| {
            let mut row = design_features(&d.graph);
            row.push(clock_feature(d));
            row
        };
        let train_x: Vec<Vec<f64>> = train.iter().map(with_clock).collect();
        let train_y: Vec<f64> = train.iter().map(value).collect();
        let test_x: Vec<Vec<f64>> = test.iter().map(with_clock).collect();
        let test_y: Vec<f64> = test.iter().map(value).collect();
        if train_x.is_empty() || test_x.is_empty() {
            continue;
        }
        let model = Ridge::fit(&train_x, &train_y, lambda);
        let pred = model.predict_all(&test_x);
        report.insert(
            target,
            TargetScores {
                r: pearson_r(&pred, &test_y),
                mape: mape(&pred, &test_y),
                rrse: rrse(&pred, &test_y),
            },
        );
    }
    report
}

/// The Table III augmentation experiment: base real training set,
/// optional synthetic augmentation, fixed real test set.
pub fn run_augmentation_experiment(
    base_train: &[LabeledDesign],
    augmentation: &[LabeledDesign],
    test: &[LabeledDesign],
    lambda: f64,
) -> PpaReport {
    let mut train: Vec<LabeledDesign> = base_train.to_vec();
    train.extend_from_slice(augmentation);
    run_task(&train, test, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use syncircuit_graph::testing::random_circuit_with_size;

    fn labeled_corpus(seed: u64, count: usize, size: usize) -> Vec<LabeledDesign> {
        // sizes spread ±60% around `size`, like a real benchmark suite
        let mut rng = StdRng::seed_from_u64(seed);
        let graphs: Vec<CircuitGraph> = (0..count)
            .map(|k| {
                let s = size / 2 + (k * size) / count;
                random_circuit_with_size(&mut rng, s.max(10))
            })
            .collect();
        label_all(&graphs, &LabelConfig::default())
    }

    #[test]
    fn labeling_produces_ground_truth() {
        let designs = labeled_corpus(1, 4, 40);
        for d in &designs {
            assert!(d.labels.area >= 0.0);
            assert!(d.labels.wns <= 0.0);
            assert!(d.labels.tns <= d.labels.wns + 1e-12);
        }
    }

    #[test]
    fn task_reports_all_available_targets() {
        let train = labeled_corpus(2, 10, 50);
        let test = labeled_corpus(3, 5, 50);
        let report = run_task(&train, &test, 1e-2);
        for t in [Target::Wns, Target::Tns, Target::Area] {
            assert!(report.contains_key(&t), "missing {t:?}");
        }
        // register slack present when registers survive
        if train
            .iter()
            .chain(&test)
            .all(|d| !d.labels.reg_slacks.is_empty())
        {
            assert!(report.contains_key(&Target::RegisterSlack));
        }
    }

    #[test]
    fn area_prediction_is_learnable_on_realistic_designs() {
        // Random graphs are mostly dead logic, so their post-synthesis
        // area is noise; the task is defined on realistic designs where
        // synthesis keeps most logic (SCPR ≥ 0.7). Use the 22-design
        // corpus with the paper's 15/7 split.
        let (train_d, test_d) = syncircuit_datasets::train_test_split();
        let train = label_all(
            &train_d.iter().map(|d| d.graph.clone()).collect::<Vec<_>>(),
            &LabelConfig::default(),
        );
        let test = label_all(
            &test_d.iter().map(|d| d.graph.clone()).collect::<Vec<_>>(),
            &LabelConfig::default(),
        );
        let report = run_task(&train, &test, 1.0);
        let area = report[&Target::Area];
        assert!(
            area.rrse < 1.0,
            "area model should beat mean predictor: RRSE {}",
            area.rrse
        );
        assert!(area.r > 0.5, "area R too low: {}", area.r);
    }

    #[test]
    fn augmentation_changes_the_model() {
        let base = labeled_corpus(6, 4, 40);
        let aug = labeled_corpus(7, 8, 40);
        let test = labeled_corpus(8, 5, 40);
        let without = run_task(&base, &test, 1e-2);
        let with = run_augmentation_experiment(&base, &aug, &test, 1e-2);
        // not asserting direction here (depends on data quality), only
        // that augmentation feeds through
        let a = without[&Target::Area].rrse;
        let b = with[&Target::Area].rrse;
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b);
    }

    #[test]
    fn target_names_cover_table_columns() {
        let names: Vec<&str> = Target::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["Register Slack", "WNS", "TNS", "Area"]);
    }
}
