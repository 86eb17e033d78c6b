//! Structural-similarity metrics for SynCircuit's Table II evaluation.
//!
//! Two metric families, following the paper (§VII-B.1):
//!
//! 1. **Distribution distances** — the exact 1-Wasserstein distance
//!    ([`w1_distance`]) between per-node statistic distributions (out
//!    degree, clustering coefficient, 4-node orbit counts) of generated
//!    vs. real graphs. Lower is better.
//! 2. **Scalar-statistic ratios** — `E[M(Ĝ)/M(G)]` for triangle count and
//!    the homophily measures ĥ(A,Y), ĥ(A²,Y). Closer to 1 is better; the
//!    tables report `|E[M(Ĝ)/M(G)] − 1|`.
//!
//! [`compare_against_real`] bundles all six Table II columns for one
//! (real design, generated set) pair.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use syncircuit_graph::stats::StructuralStats;
use syncircuit_graph::CircuitGraph;

/// Exact 1-Wasserstein (earth mover's) distance between two empirical
/// 1-D distributions given as unsorted samples.
///
/// Computed as `∫₀¹ |F_a⁻¹(q) − F_b⁻¹(q)| dq` by sweeping the merged
/// quantile breakpoints of both samples; `O((n+m) log(n+m))`.
///
/// Empty inputs: the distance between two empty samples is 0; between an
/// empty and a non-empty sample it is the mean absolute value of the
/// non-empty one (distance to a point mass at zero).
pub fn w1_distance(a: &[f64], b: &[f64]) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 0.0,
        (true, false) => return b.iter().map(|x| x.abs()).sum::<f64>() / b.len() as f64,
        (false, true) => return a.iter().map(|x| x.abs()).sum::<f64>() / a.len() as f64,
        _ => {}
    }
    let mut xs: Vec<f64> = a.to_vec();
    let mut ys: Vec<f64> = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (n, m) = (xs.len(), ys.len());
    // Sweep quantile breakpoints exactly, tracking mass as an integer
    // numerator over the common denominator n·m.
    let denom = (n as u128) * (m as u128);
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0.0f64;
    let mut q_num: u128 = 0;
    while i < n && j < m {
        let qa = (i as u128 + 1) * m as u128;
        let qb = (j as u128 + 1) * n as u128;
        let next = qa.min(qb);
        acc += ((next - q_num) as f64 / denom as f64) * (xs[i] - ys[j]).abs();
        q_num = next;
        if qa == next {
            i += 1;
        }
        if qb == next {
            j += 1;
        }
    }
    acc
}

/// Mean of `M(Ĝ)/M(G)` over generated graphs; the Table II scalar metric.
///
/// When the real statistic is zero: returns 1 if all generated statistics
/// are also zero, otherwise `1 + mean(generated)` (a penalized value that
/// keeps the "closer to 1 is better" reading).
pub fn mean_ratio(generated: &[f64], real: f64) -> f64 {
    if generated.is_empty() {
        return f64::NAN;
    }
    let mean_gen = generated.iter().sum::<f64>() / generated.len() as f64;
    if real == 0.0 {
        if generated.iter().all(|&g| g == 0.0) {
            1.0
        } else {
            1.0 + mean_gen
        }
    } else {
        mean_gen / real
    }
}

/// The six Table II columns for one (real design, generated set) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructuralComparison {
    /// W₁ distance between out-degree distributions (pooled over the
    /// generated set). Lower is better.
    pub w1_out_degree: f64,
    /// W₁ distance between clustering-coefficient distributions.
    pub w1_clustering: f64,
    /// W₁ distance between per-node 4-orbit-total distributions.
    pub w1_orbit: f64,
    /// `E[triangles(Ĝ)/triangles(G)]`. Closer to 1 is better.
    pub ratio_triangles: f64,
    /// `E[ĥ(A,Y)(Ĝ)/ĥ(A,Y)(G)]`.
    pub ratio_homophily: f64,
    /// `E[ĥ(A²,Y)(Ĝ)/ĥ(A²,Y)(G)]`.
    pub ratio_homophily2: f64,
}

impl StructuralComparison {
    /// `|ratio − 1|` for the three scalar columns, as printed in the
    /// paper's table.
    pub fn scalar_deviations(&self) -> [f64; 3] {
        [
            (self.ratio_triangles - 1.0).abs(),
            (self.ratio_homophily - 1.0).abs(),
            (self.ratio_homophily2 - 1.0).abs(),
        ]
    }

    /// Simple aggregate quality score (mean of all six "lower is better"
    /// values) used by tests to rank generators.
    pub fn aggregate(&self) -> f64 {
        let d = self.scalar_deviations();
        (self.w1_out_degree + self.w1_clustering + self.w1_orbit + d[0] + d[1] + d[2]) / 6.0
    }
}

/// Computes the Table II comparison of a set of generated graphs against
/// one real design.
///
/// # Panics
///
/// Panics if `generated` is empty.
pub fn compare_against_real(
    real: &CircuitGraph,
    generated: &[CircuitGraph],
) -> StructuralComparison {
    assert!(!generated.is_empty(), "need at least one generated graph");
    let real_stats = StructuralStats::compute(real);
    let gen_stats: Vec<StructuralStats> = generated.iter().map(StructuralStats::compute).collect();

    let real_deg: Vec<f64> = real_stats.out_degrees.iter().map(|&d| d as f64).collect();
    let gen_deg: Vec<f64> = gen_stats
        .iter()
        .flat_map(|s| s.out_degrees.iter().map(|&d| d as f64))
        .collect();

    let gen_clust: Vec<f64> = gen_stats
        .iter()
        .flat_map(|s| s.clustering.clone())
        .collect();
    let real_orbit = real_stats.orbit_totals();
    let gen_orbit: Vec<f64> = gen_stats.iter().flat_map(|s| s.orbit_totals()).collect();

    let tri: Vec<f64> = gen_stats.iter().map(|s| s.triangles as f64).collect();
    let h1: Vec<f64> = gen_stats.iter().map(|s| s.homophily).collect();
    let h2: Vec<f64> = gen_stats.iter().map(|s| s.homophily_two_hop).collect();

    StructuralComparison {
        w1_out_degree: w1_distance(&gen_deg, &real_deg),
        w1_clustering: w1_distance(&gen_clust, &real_stats.clustering),
        w1_orbit: w1_distance(&gen_orbit, &real_orbit),
        ratio_triangles: mean_ratio(&tri, real_stats.triangles as f64),
        ratio_homophily: mean_ratio(&h1, real_stats.homophily),
        ratio_homophily2: mean_ratio(&h2, real_stats.homophily_two_hop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeType;

    #[test]
    fn w1_identity_is_zero() {
        let a = [1.0, 2.0, 3.0, 10.0];
        assert!(w1_distance(&a, &a) < 1e-12);
    }

    #[test]
    fn w1_known_values() {
        // point masses: W1({0}, {3}) = 3
        assert!((w1_distance(&[0.0], &[3.0]) - 3.0).abs() < 1e-12);
        // {0,0} vs {0,2}: half the mass moves by 2 → 1
        assert!((w1_distance(&[0.0, 0.0], &[0.0, 2.0]) - 1.0).abs() < 1e-12);
        // different sample sizes: {0} vs {0,2} → 0.5·0 + 0.5·2 = 1
        assert!((w1_distance(&[0.0], &[0.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn w1_symmetry() {
        let a = [0.0, 1.0, 5.0];
        let b = [2.0, 2.0, 2.0, 7.0];
        assert!((w1_distance(&a, &b) - w1_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn w1_translation_sensitivity() {
        let a = [1.0, 2.0, 3.0];
        let shifted: Vec<f64> = a.iter().map(|x| x + 10.0).collect();
        assert!((w1_distance(&a, &shifted) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn w1_empty_handling() {
        assert_eq!(w1_distance(&[], &[]), 0.0);
        assert!((w1_distance(&[], &[2.0, 4.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ratio_basics() {
        assert!((mean_ratio(&[2.0, 4.0], 3.0) - 1.0).abs() < 1e-12);
        assert_eq!(mean_ratio(&[0.0, 0.0], 0.0), 1.0);
        assert!(mean_ratio(&[5.0], 0.0) > 1.0);
        assert!(mean_ratio(&[], 1.0).is_nan());
    }

    fn ring(n: usize) -> CircuitGraph {
        // ring of registers (valid-ish structure, only stats matter)
        let mut g = CircuitGraph::new("ring");
        let ids: Vec<_> = (0..n).map(|_| g.add_node(NodeType::Reg, 4)).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]).unwrap();
        }
        g
    }

    #[test]
    fn identical_graphs_compare_perfectly() {
        let real = ring(12);
        let gen = vec![real.clone(), real.clone()];
        let c = compare_against_real(&real, &gen);
        assert!(c.w1_out_degree < 1e-12);
        assert!(c.w1_clustering < 1e-12);
        assert!(c.w1_orbit < 1e-12);
        for d in c.scalar_deviations() {
            assert!(d < 1e-12);
        }
        assert!(c.aggregate() < 1e-12);
    }

    #[test]
    fn different_graphs_compare_worse() {
        let real = ring(12);
        // star-ish graph: very different degree distribution
        let mut star = CircuitGraph::new("star");
        let hub = star.add_node(NodeType::Reg, 4);
        for _ in 0..11 {
            let leaf = star.add_node(NodeType::Reg, 4);
            star.add_edge(hub, leaf).unwrap();
        }
        let good = compare_against_real(&real, std::slice::from_ref(&real));
        let bad = compare_against_real(&real, &[star]);
        assert!(bad.aggregate() > good.aggregate());
        assert!(bad.w1_out_degree > 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one generated")]
    fn empty_generated_panics() {
        let real = ring(4);
        let _ = compare_against_real(&real, &[]);
    }
}
