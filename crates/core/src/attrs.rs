//! Node-attribute model `P(X)`.
//!
//! The generative model produces edges *conditioned on* node counts and
//! attributes (§II: "we will use the generative model to produce edges E
//! conditioned on the specified node number V and attributes X"). At
//! inference time attributes either come from the user or are sampled
//! from the empirical distribution of the training designs (§IV-B,
//! footnote 2). This module implements that empirical distribution:
//! joint (type, width) histogram plus const-value statistics.

use crate::error::Error;
use rand::Rng;
use serde::{Deserialize, Serialize};
use syncircuit_graph::{CircuitGraph, Node, NodeType, ALL_NODE_TYPES};

/// Empirical attribute distribution learned from training circuits.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttrModel {
    /// Joint counts indexed `[type][width_log2]` (widths bucketed by
    /// ⌈log₂⌉ into 0..=6).
    counts: Vec<[u64; 7]>,
    /// Representative widths seen per (type, bucket): the most frequent
    /// exact width.
    widths: Vec<[u32; 7]>,
    /// Mean out-degree in the corpus (density prior for diffusion noise).
    mean_out_degree: f64,
    /// Empirical out-degree samples (for out-degree guidance budgets).
    out_degree_hist: Vec<u32>,
}

fn bucket(width: u32) -> usize {
    (32 - (width.max(1)).leading_zeros())
        .saturating_sub(1)
        .min(6) as usize
}

impl AttrModel {
    /// Fits the attribute model on training circuits.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCorpus`] when `graphs` is empty or contains
    /// only empty graphs.
    pub fn fit(graphs: &[CircuitGraph]) -> Result<Self, Error> {
        let t = ALL_NODE_TYPES.len();
        let mut counts = vec![[0u64; 7]; t];
        let mut width_votes: Vec<[std::collections::HashMap<u32, u64>; 7]> =
            (0..t).map(|_| Default::default()).collect();
        let mut total_nodes = 0u64;
        let mut total_edges = 0u64;
        let mut degree_hist = Vec::new();
        for g in graphs {
            total_nodes += g.node_count() as u64;
            total_edges += g.edge_count() as u64;
            for (_, node) in g.iter() {
                let ty = node.ty().category();
                let b = bucket(node.width());
                counts[ty][b] += 1;
                *width_votes[ty][b].entry(node.width()).or_insert(0) += 1;
            }
            for d in g.out_degrees() {
                degree_hist.push(d as u32);
            }
        }
        if total_nodes == 0 {
            return Err(Error::EmptyCorpus);
        }
        let widths = width_votes
            .into_iter()
            .map(|buckets| {
                let mut row = [1u32; 7];
                for (b, votes) in buckets.into_iter().enumerate() {
                    row[b] = votes
                        .into_iter()
                        .max_by_key(|&(w, c)| (c, w))
                        .map(|(w, _)| w)
                        .unwrap_or(1 << b);
                }
                row
            })
            .collect();
        Ok(AttrModel {
            counts,
            widths,
            mean_out_degree: total_edges as f64 / total_nodes as f64,
            out_degree_hist: degree_hist,
        })
    }

    /// Mean out-degree of the corpus (noise-density prior).
    pub fn mean_out_degree(&self) -> f64 {
        self.mean_out_degree
    }

    /// Samples an out-degree budget from the empirical distribution.
    pub fn sample_out_degree<R: Rng>(&self, rng: &mut R) -> u32 {
        if self.out_degree_hist.is_empty() {
            return 2;
        }
        self.out_degree_hist[rng.gen_range(0..self.out_degree_hist.len())]
    }

    /// Samples `n` node attributes from the empirical joint distribution,
    /// guaranteeing structural viability of the set: at least one input,
    /// one constant, one register and one output (so Phase 2 always has
    /// loop-safe parent candidates), and no more outputs than non-output
    /// nodes.
    pub fn sample_attrs<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<Node> {
        let n = n.max(6);
        let total: u64 = self.counts.iter().flat_map(|r| r.iter()).sum();
        let mut attrs: Vec<Node> = (0..n).map(|_| self.sample_one(total, rng)).collect();
        // Guarantee the structural minima by overwriting random slots.
        let needed = [
            NodeType::Input,
            NodeType::Const,
            NodeType::Reg,
            NodeType::Output,
        ];
        for (k, &ty) in needed.iter().enumerate() {
            if !attrs.iter().any(|a| a.ty() == ty) {
                let slot = (rng.gen_range(0..n) + k) % n;
                attrs[slot] = self.make_node(ty, self.typical_width(ty), rng);
            }
        }
        // Outputs are sinks; cap their share so the graph stays
        // connectable.
        let max_outputs = (n / 4).max(1);
        let mut seen = 0;
        for a in attrs.iter_mut() {
            if a.ty() == NodeType::Output {
                seen += 1;
                if seen > max_outputs {
                    *a = self.make_node(NodeType::Xor, a.width(), rng);
                }
            }
        }
        attrs
    }

    fn sample_one<R: Rng>(&self, total: u64, rng: &mut R) -> Node {
        let mut roll = rng.gen_range(0..total.max(1));
        for (ty_idx, row) in self.counts.iter().enumerate() {
            for (b, &c) in row.iter().enumerate() {
                if roll < c {
                    let ty = NodeType::from_category(ty_idx).expect("valid category");
                    let w = self.widths[ty_idx][b];
                    return self.make_node(ty, w, rng);
                }
                roll -= c;
            }
        }
        // Only reachable with an empty histogram.
        Node::new(NodeType::Xor, 8)
    }

    fn make_node<R: Rng>(&self, ty: NodeType, width: u32, rng: &mut R) -> Node {
        match ty {
            NodeType::Const => {
                Node::with_aux(ty, width, rng.gen::<u64>() & syncircuit_graph::mask(width))
            }
            // Offsets are clamped against the eventual parent in Phase 2.
            NodeType::BitSelect => Node::with_aux(ty, width, rng.gen_range(0..width.max(1)) as u64),
            _ => Node::new(ty, width),
        }
    }

    /// Most common width for a type (bucket-weighted mode).
    pub fn typical_width(&self, ty: NodeType) -> u32 {
        let row = &self.counts[ty.category()];
        let best = row
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(b, _)| b)
            .unwrap_or(3);
        self.widths[ty.category()][best].max(1)
    }

    /// Attribute feature vector for the denoiser: one-hot type ⊕
    /// normalized log-width. Length = `ALL_NODE_TYPES.len() + 1`.
    pub fn features(node: &Node) -> Vec<f32> {
        let mut f = vec![0.0f32; ALL_NODE_TYPES.len() + 1];
        f[node.ty().category()] = 1.0;
        f[ALL_NODE_TYPES.len()] = (node.width() as f32).log2() / 6.0;
        f
    }

    /// Feature dimension of [`AttrModel::features`].
    pub const FEATURE_DIM: usize = ALL_NODE_TYPES.len() + 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_corpus() -> Vec<CircuitGraph> {
        let mut g = CircuitGraph::new("toy");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        let c = g.add_const(8, 1);
        g.set_parents(s, &[r, c]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[i]).unwrap();
        vec![g]
    }

    #[test]
    fn fit_and_sample_viable_sets() {
        let model = AttrModel::fit(&toy_corpus()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for n in [6, 10, 40] {
            let attrs = model.sample_attrs(n, &mut rng);
            assert_eq!(attrs.len(), n);
            for ty in [
                NodeType::Input,
                NodeType::Const,
                NodeType::Reg,
                NodeType::Output,
            ] {
                assert!(attrs.iter().any(|a| a.ty() == ty), "missing {ty}");
            }
            let outputs = attrs.iter().filter(|a| a.ty() == NodeType::Output).count();
            assert!(outputs <= (n / 4).max(1));
        }
    }

    #[test]
    fn sampled_types_follow_corpus() {
        // corpus is add-heavy 8-bit; the model should sample widths of 8
        // dominantly.
        let model = AttrModel::fit(&toy_corpus()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let attrs = model.sample_attrs(200, &mut rng);
        let w8 = attrs.iter().filter(|a| a.width() == 8).count();
        assert!(w8 > 150, "got {w8} 8-bit nodes of 200");
    }

    #[test]
    fn features_shape_and_content() {
        let f = AttrModel::features(&Node::new(NodeType::Add, 16));
        assert_eq!(f.len(), AttrModel::FEATURE_DIM);
        assert_eq!(f[NodeType::Add.category()], 1.0);
        assert!((f[AttrModel::FEATURE_DIM - 1] - 4.0 / 6.0).abs() < 1e-6);
        assert_eq!(f.iter().filter(|&&x| x != 0.0).count(), 2);
    }

    #[test]
    fn degree_statistics() {
        let model = AttrModel::fit(&toy_corpus()).unwrap();
        assert!(model.mean_out_degree() > 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let d = model.sample_out_degree(&mut rng);
            assert!(d <= 3); // toy corpus max out-degree
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(64), 6);
    }

    #[test]
    fn empty_corpus_rejected() {
        assert_eq!(AttrModel::fit(&[]).unwrap_err(), Error::EmptyCorpus);
    }
}
