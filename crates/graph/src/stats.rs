//! Structural statistics of circuit graphs used by the paper's Table II:
//! degree distributions, clustering coefficients, triangle counts,
//! connected 4-node graphlet orbit counts (ORCA numbering), and the
//! label-structure homophily measures ĥ(A,Y) / ĥ(A²,Y) of Lim et al.
//!
//! Clustering, triangles and orbits are computed on the *undirected
//! skeleton* of the circuit graph (as in GraphRNN/GraphMaker evaluation);
//! degree statistics and homophily respect edge direction.

use crate::circuit::CircuitGraph;
use crate::marks::Marks;
use crate::node::ALL_NODE_TYPES;

/// Undirected skeleton as sorted adjacency lists without duplicates or
/// self-loops.
#[derive(Clone, Debug)]
pub struct Skeleton {
    adj: Vec<Vec<u32>>,
}

impl Skeleton {
    /// Builds the undirected skeleton of a circuit graph.
    ///
    /// Accumulates flat neighbor `Vec`s and sort+dedups each once —
    /// no per-node hash sets, which dominated this constructor on
    /// dense designs.
    pub fn new(g: &CircuitGraph) -> Self {
        let n = g.node_count();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in g.edges() {
            let (a, b) = (e.from.index() as u32, e.to.index() as u32);
            if a == b {
                continue;
            }
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for v in &mut adj {
            v.sort_unstable();
            v.dedup();
        }
        Skeleton { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the skeleton has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of node `u` (sorted, deduplicated).
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Undirected degree of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// `true` if `u` and `v` are adjacent.
    pub fn adjacent(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// Per-node local clustering coefficients on the undirected skeleton.
///
/// Nodes with degree < 2 have coefficient 0 (the GraphRNN convention).
pub fn clustering_coefficients(skel: &Skeleton) -> Vec<f64> {
    let n = skel.len();
    let mut out = vec![0.0; n];
    for (u, coeff) in out.iter_mut().enumerate() {
        let neigh = skel.neighbors(u);
        let k = neigh.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                if skel.adjacent(neigh[i] as usize, neigh[j] as usize) {
                    links += 1;
                }
            }
        }
        *coeff = 2.0 * links as f64 / (k * (k - 1)) as f64;
    }
    out
}

/// Total triangle count on the undirected skeleton.
///
/// For every edge `u < v`, counts common neighbors `w > v` by a linear
/// merge of the two sorted neighbor lists (each triangle is counted at
/// its smallest vertex), replacing the former O(d²·log d) per-edge
/// binary-search probe.
pub fn triangle_count(skel: &Skeleton) -> u64 {
    let n = skel.len();
    let mut count = 0u64;
    for u in 0..n {
        let nu = skel.neighbors(u);
        for &v in nu {
            let vu = v as usize;
            if vu <= u {
                continue;
            }
            let nv = skel.neighbors(vu);
            // two-pointer intersection of nu and nv, restricted to w > v
            let mut a = nu.partition_point(|&w| w <= v);
            let mut b = nv.partition_point(|&w| w <= v);
            while a < nu.len() && b < nv.len() {
                match nu[a].cmp(&nv[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }
    count
}

/// Number of graphlet orbits counted by [`orbit_counts`].
pub const NUM_ORBITS: usize = 15;

/// Per-node orbit counts for connected graphlets of 2–4 nodes on the
/// undirected skeleton, using ORCA's orbit numbering:
///
/// | graphlet | orbits |
/// |---|---|
/// | edge | 0 |
/// | path P₃ | 1 (end), 2 (middle) |
/// | triangle | 3 |
/// | path P₄ | 4 (end), 5 (middle) |
/// | 3-star | 6 (leaf), 7 (center) |
/// | 4-cycle | 8 |
/// | tailed triangle | 9 (tail), 10 (triangle, deg 2), 11 (triangle, deg 3) |
/// | diamond | 12 (deg 2), 13 (deg 3) |
/// | 4-clique | 14 |
///
/// Counting is **combinatorial** (the ORCA idea): triangles, diamonds
/// and 4-cliques are enumerated from per-edge common-neighbor
/// intersections over the sorted adjacency, and the remaining orbits
/// (paths, stars, the 4-cycle) are recovered from closed-form
/// non-induced counts minus the already-known denser orbits. No
/// explicit subgraph enumeration of the sparse graphlets happens — in
/// particular the Θ(d³) hub-star blowup of the former ESU enumeration
/// (kept as [`orbit_counts_esu`], the test oracle) is gone; the new
/// counts are property-tested equal to ESU's.
pub fn orbit_counts(skel: &Skeleton) -> Vec<[u64; NUM_ORBITS]> {
    let n = skel.len();
    let mut counts = vec![[0u64; NUM_ORBITS]; n];
    if n == 0 {
        return counts;
    }

    // Per-edge triangle counts t(u,v) = |N(u) ∩ N(v)|, aligned with the
    // adjacency lists (computed per direction for index-free lookup).
    let tri: Vec<Vec<u32>> = (0..n)
        .map(|u| {
            skel.neighbors(u)
                .iter()
                .map(|&v| intersect_count(skel.neighbors(u), skel.neighbors(v as usize)))
                .collect()
        })
        .collect();

    // Per-node: degree (orbit 0), triangles (orbit 3), induced P3 ends
    // and middles (orbits 1/2) by the wedge identities.
    let deg = |u: usize| skel.degree(u) as i64;
    let mut t_node = vec![0i64; n];
    for u in 0..n {
        t_node[u] = tri[u].iter().map(|&t| t as i64).sum::<i64>() / 2;
    }
    for u in 0..n {
        counts[u][0] = deg(u) as u64;
        counts[u][3] = t_node[u] as u64;
        counts[u][2] = (choose2(deg(u)) - t_node[u]) as u64;
        let ends: i64 = skel
            .neighbors(u)
            .iter()
            .map(|&v| deg(v as usize) - 1)
            .sum::<i64>()
            - 2 * t_node[u];
        counts[u][1] = ends as u64;
    }

    // Dense orbits (9..=14) by direct enumeration over edges/triangles
    // with neighbor marks; k4e(u,v) = #K4s through the edge is
    // accumulated per node for orbit 14.
    let mut o9 = vec![0i64; n];
    let mut o10 = vec![0i64; n];
    let mut o11 = vec![0i64; n];
    let mut o12 = vec![0i64; n];
    let mut o13 = vec![0i64; n];
    let mut k4_sum = vec![0i64; n];
    let mut common: Vec<u32> = Vec::new(); // C = common neighbors of (u,v)
    let mut mark_u = Marks::default(); // x ∈ N(u)
    let mut mark_v = Marks::default(); // x ∈ N(v)
    let mut mark_w = Marks::default(); // x ∈ N(w)
    for u in 0..n {
        for &v32 in skel.neighbors(u) {
            let v = v32 as usize;
            if v <= u {
                continue;
            }
            // C sorted (merge of two sorted lists).
            intersect_into(skel.neighbors(u), skel.neighbors(v), &mut common);
            let c_len = common.len() as i64;

            // Diamonds with chord (u,v) and K4s through (u,v): pairs of
            // common neighbors, split by their own adjacency.
            let mut adj_pairs = 0i64; // Σ_w |N(w) ∩ C|, = 2·k4e(u,v)
            for &w32 in &common {
                let w = w32 as usize;
                let a_w = intersect_count(skel.neighbors(w), &common) as i64;
                adj_pairs += a_w;
                // non-adjacent partners x ∈ C: diamond {u,v,w,x}, w deg-2
                o12[w] += c_len - 1 - a_w;
            }
            let k4e = adj_pairs / 2;
            let chord_diamonds = choose2(c_len) - k4e;
            o13[u] += chord_diamonds;
            o13[v] += chord_diamonds;
            k4_sum[u] += k4e;
            k4_sum[v] += k4e;

            // Tailed triangles from every triangle (u, v, w), w > v so
            // each triangle is visited exactly once. A tail at corner a
            // is a neighbor of a adjacent to neither other corner.
            if common.iter().any(|&w| (w as usize) > v) {
                mark_all(&mut mark_u, n, skel.neighbors(u));
                mark_all(&mut mark_v, n, skel.neighbors(v));
                for &w32 in &common {
                    let w = w32 as usize;
                    if w <= v {
                        continue;
                    }
                    mark_all(&mut mark_w, n, skel.neighbors(w));
                    for (corner, others, ma, mb) in [
                        (u, [v, w], &mark_v, &mark_w),
                        (v, [u, w], &mark_u, &mark_w),
                        (w, [u, v], &mark_u, &mark_v),
                    ] {
                        for &x32 in skel.neighbors(corner) {
                            let x = x32 as usize;
                            if x == others[0] || x == others[1] || ma.contains(x) || mb.contains(x)
                            {
                                continue;
                            }
                            o9[x] += 1;
                            o11[corner] += 1;
                            o10[others[0]] += 1;
                            o10[others[1]] += 1;
                        }
                    }
                }
            }
        }
    }

    // Non-induced closed forms shared by the sparse-orbit equations.
    let b: Vec<i64> = (0..n)
        .map(|v| skel.neighbors(v).iter().map(|&w| deg(w as usize) - 1).sum())
        .collect();

    // Non-induced 4-cycles through u: for every two-hop partner w, any
    // two distinct connecting middles close a 4-walk cycle.
    let mut cnt = StampCounts::new(n);
    let mut nc4 = vec![0i64; n];
    for (u, slot) in nc4.iter_mut().enumerate() {
        cnt.begin();
        for &v32 in skel.neighbors(u) {
            for &w32 in skel.neighbors(v32 as usize) {
                let w = w32 as usize;
                if w != u {
                    cnt.bump(w);
                }
            }
        }
        *slot = cnt.drain(|c| choose2(c as i64));
    }

    for u in 0..n {
        let o14 = k4_sum[u] / 3;
        let o8 = nc4[u] - o12[u] - o13[u] - 3 * o14;
        let ns: i64 = skel
            .neighbors(u)
            .iter()
            .map(|&v| choose2(deg(v as usize) - 1))
            .sum();
        let np: i64 = skel
            .neighbors(u)
            .iter()
            .zip(&tri[u])
            .map(|(&v, &t_uv)| (deg(u) - 1) * (deg(v as usize) - 1) - t_uv as i64)
            .sum();
        let ne: i64 = skel
            .neighbors(u)
            .iter()
            .map(|&v| b[v as usize])
            .sum::<i64>()
            - deg(u) * (deg(u) - 1)
            - 2 * t_node[u];
        let o7 = choose2_3(deg(u)) - o11[u] - o13[u] - o14;
        let o6 = ns - o9[u] - o10[u] - 2 * o12[u] - o13[u] - 3 * o14;
        let o5 = np - o10[u] - 2 * o11[u] - 2 * o8 - 2 * o12[u] - 4 * o13[u] - 6 * o14;
        let o4 = ne - 2 * o9[u] - o10[u] - 2 * o8 - 4 * o12[u] - 2 * o13[u] - 6 * o14;
        let derived = [
            o4, o5, o6, o7, o8, o9[u], o10[u], o11[u], o12[u], o13[u], o14,
        ];
        for (k, &val) in derived.iter().enumerate() {
            debug_assert!(val >= 0, "orbit {} of node {u} went negative: {val}", k + 4);
            counts[u][k + 4] = val as u64;
        }
    }

    counts
}

/// `n choose 2` (0 for degenerate inputs).
fn choose2(x: i64) -> i64 {
    if x < 2 {
        0
    } else {
        x * (x - 1) / 2
    }
}

/// `n choose 3` (0 for degenerate inputs).
fn choose2_3(x: i64) -> i64 {
    if x < 3 {
        0
    } else {
        x * (x - 1) * (x - 2) / 6
    }
}

/// Size of the intersection of two sorted u32 slices (two-pointer merge).
fn intersect_count(a: &[u32], b: &[u32]) -> u32 {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Writes the sorted intersection of two sorted u32 slices into `out`.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Marks exactly the nodes of `list`.
fn mark_all(marks: &mut Marks, n: usize, list: &[u32]) {
    marks.clear(n);
    for &x in list {
        marks.mark(x as usize);
    }
}

/// Counter array with a touched-key list, for two-hop common-neighbor
/// counting without clearing between nodes.
struct StampCounts {
    seen: Marks,
    count: Vec<u32>,
    touched: Vec<u32>,
}

impl StampCounts {
    fn new(n: usize) -> Self {
        StampCounts {
            seen: Marks::default(),
            count: vec![0; n],
            touched: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.seen.clear(self.count.len());
        self.touched.clear();
    }

    fn bump(&mut self, k: usize) {
        if self.seen.mark(k) {
            self.count[k] = 1;
            self.touched.push(k as u32);
        } else {
            self.count[k] += 1;
        }
    }

    fn drain(&mut self, f: impl Fn(u32) -> i64) -> i64 {
        self.touched
            .iter()
            .map(|&k| f(self.count[k as usize]))
            .sum()
    }
}

/// The former ESU-based orbit counter, kept as the **test oracle** for
/// [`orbit_counts`]: enumerates each connected induced 4-node subgraph
/// exactly once and classifies it. Complexity grows with the number of
/// connected 4-subgraphs (hub nodes of degree d contribute Θ(d³)
/// 3-stars), which is why serving paths use the combinatorial counter.
pub fn orbit_counts_esu(skel: &Skeleton) -> Vec<[u64; NUM_ORBITS]> {
    let n = skel.len();
    let mut counts = vec![[0u64; NUM_ORBITS]; n];

    // Orbit 0: degree.
    for (u, orbits) in counts.iter_mut().enumerate() {
        orbits[0] = skel.degree(u) as u64;
    }

    // Size-3 graphlets by wedge enumeration.
    for u in 0..n {
        let neigh = skel.neighbors(u);
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let a = neigh[i] as usize;
                let b = neigh[j] as usize;
                if skel.adjacent(a, b) {
                    // triangle {u,a,b}, counted once from its smallest
                    // middle? A triangle appears as a "wedge" at each of
                    // its three corners — count it only from the corner
                    // with the smallest index to avoid double counting.
                    if u < a && u < b {
                        counts[u][3] += 1;
                        counts[a][3] += 1;
                        counts[b][3] += 1;
                    }
                } else {
                    // induced path a - u - b
                    counts[u][2] += 1;
                    counts[a][1] += 1;
                    counts[b][1] += 1;
                }
            }
        }
    }

    // Size-4 graphlets via ESU enumeration of connected induced subgraphs.
    enumerate_connected_quads(skel, |quad| {
        classify_quad(skel, quad, &mut counts);
    });

    counts
}

/// Enumerates every connected induced 4-node subgraph exactly once (ESU).
fn enumerate_connected_quads(skel: &Skeleton, mut visit: impl FnMut(&[usize; 4])) {
    let n = skel.len();
    // ESU: start from each root v, extend with nodes > v adjacent to the
    // current subgraph.
    for v in 0..n {
        // Level 1: subgraph {v}, extension = neighbors(v) > v.
        let ext1: Vec<usize> = skel
            .neighbors(v)
            .iter()
            .map(|&x| x as usize)
            .filter(|&x| x > v)
            .collect();
        for (i1, &w1) in ext1.iter().enumerate() {
            // Level 2: subgraph {v, w1}. Extension: remaining ext1 plus
            // exclusive neighbors of w1 (> v, not adjacent to v).
            let mut ext2: Vec<usize> = ext1[(i1 + 1)..].to_vec();
            for &x in skel.neighbors(w1) {
                let x = x as usize;
                if x > v && !skel.adjacent(x, v) {
                    ext2.push(x);
                }
            }
            for (i2, &w2) in ext2.iter().enumerate() {
                // Level 3: subgraph {v, w1, w2}. Extension: remaining ext2
                // plus exclusive neighbors of w2.
                let mut ext3: Vec<usize> = ext2[(i2 + 1)..].to_vec();
                for &x in skel.neighbors(w2) {
                    let x = x as usize;
                    if x > v && !skel.adjacent(x, v) && !skel.adjacent(x, w1) {
                        ext3.push(x);
                    }
                }
                for &w3 in &ext3 {
                    visit(&[v, w1, w2, w3]);
                }
            }
        }
    }
}

/// Classifies a connected induced 4-node subgraph and adds orbit counts.
fn classify_quad(skel: &Skeleton, quad: &[usize; 4], counts: &mut [[u64; NUM_ORBITS]]) {
    // Internal degrees.
    let mut deg = [0u8; 4];
    let mut edges = 0u8;
    for i in 0..4 {
        for j in (i + 1)..4 {
            if skel.adjacent(quad[i], quad[j]) {
                deg[i] += 1;
                deg[j] += 1;
                edges += 1;
            }
        }
    }
    match edges {
        3 => {
            // star (degrees 3,1,1,1) or path (2,2,1,1)
            if deg.contains(&3) {
                for (i, &d) in deg.iter().enumerate() {
                    counts[quad[i]][if d == 3 { 7 } else { 6 }] += 1;
                }
            } else {
                for (i, &d) in deg.iter().enumerate() {
                    counts[quad[i]][if d == 2 { 5 } else { 4 }] += 1;
                }
            }
        }
        4 => {
            // cycle (2,2,2,2) or tailed triangle (1,2,2,3)
            if deg.contains(&3) {
                for (i, &d) in deg.iter().enumerate() {
                    let orbit = match d {
                        1 => 9,
                        2 => 10,
                        _ => 11,
                    };
                    counts[quad[i]][orbit] += 1;
                }
            } else {
                for &q in quad {
                    counts[q][8] += 1;
                }
            }
        }
        5 => {
            // diamond (2,3,3,2)
            for (i, &d) in deg.iter().enumerate() {
                counts[quad[i]][if d == 3 { 13 } else { 12 }] += 1;
            }
        }
        6 => {
            for &q in quad {
                counts[q][14] += 1;
            }
        }
        _ => unreachable!("connected 4-node subgraph has 3..=6 edges, got {edges}"),
    }
}

/// Class-insensitive homophily ĥ(A, Y) of Lim et al. (2021), using node
/// types as labels and directed out-edges as the adjacency.
///
/// For each class k with node set Cₖ: hₖ = (same-class out-edges from Cₖ) /
/// (all out-edges from Cₖ); then ĥ = 1/(C−1) · Σₖ max(0, hₖ − |Cₖ|/n),
/// summed over classes that have at least one out-edge.
pub fn homophily(g: &CircuitGraph) -> f64 {
    let labels: Vec<usize> = g.iter().map(|(_, n)| n.ty().category()).collect();
    let pairs: Vec<(usize, usize)> = g.edges().map(|e| (e.from.index(), e.to.index())).collect();
    homophily_from_pairs(&labels, &pairs, ALL_NODE_TYPES.len())
}

/// ĥ(A², Y): homophily over the two-hop adjacency (pairs `u → w → v`),
/// with multiplicity.
pub fn homophily_two_hop(g: &CircuitGraph) -> f64 {
    let labels: Vec<usize> = g.iter().map(|(_, n)| n.ty().category()).collect();
    let children = g.children_index();
    let mut pairs = Vec::new();
    for u in 0..g.node_count() {
        for &w in &children[u] {
            for &v in &children[w.index()] {
                pairs.push((u, v.index()));
            }
        }
    }
    homophily_from_pairs(&labels, &pairs, ALL_NODE_TYPES.len())
}

fn homophily_from_pairs(labels: &[usize], pairs: &[(usize, usize)], num_classes: usize) -> f64 {
    let n = labels.len();
    if n == 0 || pairs.is_empty() || num_classes < 2 {
        return 0.0;
    }
    let mut class_size = vec![0usize; num_classes];
    for &l in labels {
        class_size[l] += 1;
    }
    let mut out_edges = vec![0u64; num_classes];
    let mut same = vec![0u64; num_classes];
    for &(u, v) in pairs {
        let k = labels[u];
        out_edges[k] += 1;
        if labels[v] == k {
            same[k] += 1;
        }
    }
    let mut acc = 0.0;
    for k in 0..num_classes {
        if out_edges[k] == 0 {
            continue;
        }
        let h_k = same[k] as f64 / out_edges[k] as f64;
        let base = class_size[k] as f64 / n as f64;
        acc += (h_k - base).max(0.0);
    }
    acc / (num_classes as f64 - 1.0)
}

/// All structural statistics of one graph, bundled for Table II.
#[derive(Clone, Debug)]
pub struct StructuralStats {
    /// Out-degree of every node (directed, with multiplicity).
    pub out_degrees: Vec<usize>,
    /// Local clustering coefficient of every node (undirected skeleton).
    pub clustering: Vec<f64>,
    /// Flattened per-node orbit counts (node-major, 15 orbits per node).
    pub orbits: Vec<[u64; NUM_ORBITS]>,
    /// Total triangles (undirected skeleton).
    pub triangles: u64,
    /// ĥ(A, Y).
    pub homophily: f64,
    /// ĥ(A², Y).
    pub homophily_two_hop: f64,
}

impl StructuralStats {
    /// Computes every statistic for the given graph.
    pub fn compute(g: &CircuitGraph) -> Self {
        let skel = Skeleton::new(g);
        StructuralStats {
            out_degrees: g.out_degrees(),
            clustering: clustering_coefficients(&skel),
            orbits: orbit_counts(&skel),
            triangles: triangle_count(&skel),
            homophily: homophily(g),
            homophily_two_hop: homophily_two_hop(g),
        }
    }

    /// Per-node total orbit participation counts (sum over the 11 orbits
    /// belonging to 4-node graphlets), the sample GraphRNN compares.
    pub fn orbit_totals(&self) -> Vec<f64> {
        self.orbits
            .iter()
            .map(|o| o[4..].iter().sum::<u64>() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeType;

    /// Undirected test helper: builds a circuit whose skeleton is the
    /// given edge list (node types chosen to be inert).
    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> CircuitGraph {
        let mut g = CircuitGraph::new("skel");
        for _ in 0..n {
            g.add_node(NodeType::Reg, 1);
        }
        for &(a, b) in edges {
            g.add_edge(crate::NodeId::new(a), crate::NodeId::new(b))
                .unwrap();
        }
        g
    }

    #[test]
    fn skeleton_dedups_and_symmetrizes() {
        let g = graph_from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        let s = Skeleton::new(&g);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert!(s.adjacent(0, 1) && s.adjacent(1, 0));
    }

    #[test]
    fn triangle_graph() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = Skeleton::new(&g);
        assert_eq!(triangle_count(&s), 1);
        let cc = clustering_coefficients(&s);
        assert_eq!(cc, vec![1.0, 1.0, 1.0]);
        let orb = orbit_counts(&s);
        for corner in &orb[..3] {
            assert_eq!(corner[3], 1, "each corner in one triangle");
            assert_eq!(corner[0], 2);
        }
    }

    #[test]
    fn path4_orbits() {
        // 0 - 1 - 2 - 3
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        assert_eq!(orb[0][4], 1); // end of P4
        assert_eq!(orb[3][4], 1);
        assert_eq!(orb[1][5], 1); // middle
        assert_eq!(orb[2][5], 1);
        assert_eq!(triangle_count(&s), 0);
    }

    #[test]
    fn star_orbits() {
        // center 0, leaves 1..=3
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        assert_eq!(orb[0][7], 1); // center of 3-star
        for leaf in &orb[1..4] {
            assert_eq!(leaf[6], 1);
        }
    }

    #[test]
    fn cycle4_orbits() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        for node in &orb[..4] {
            assert_eq!(node[8], 1);
        }
    }

    #[test]
    fn clique4_orbits() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        for node in &orb[..4] {
            assert_eq!(node[14], 1);
        }
        assert_eq!(triangle_count(&s), 4);
    }

    #[test]
    fn tailed_triangle_orbits() {
        // triangle 0-1-2 with tail 3 on node 0
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        assert_eq!(orb[3][9], 1); // tail end
        assert_eq!(orb[0][11], 1); // attachment point
        assert_eq!(orb[1][10], 1);
        assert_eq!(orb[2][10], 1);
    }

    #[test]
    fn diamond_orbits() {
        // 4-cycle 0-1-2-3 with chord 0-2
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let s = Skeleton::new(&g);
        let orb = orbit_counts(&s);
        assert_eq!(orb[0][13], 1);
        assert_eq!(orb[2][13], 1);
        assert_eq!(orb[1][12], 1);
        assert_eq!(orb[3][12], 1);
    }

    #[test]
    fn combinatorial_orbits_match_esu_oracle_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..40 {
            let n = 5 + (trial % 12);
            let p = 0.1 + 0.06 * (trial % 11) as f64;
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(p) {
                        edges.push((a, b));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let s = Skeleton::new(&g);
            assert_eq!(
                orbit_counts(&s),
                orbit_counts_esu(&s),
                "trial {trial} (n={n}, p={p:.2})"
            );
        }
    }

    #[test]
    fn combinatorial_orbits_handle_degenerate_graphs() {
        for edges in [&[][..], &[(0, 1)][..]] {
            let g = graph_from_edges(3, edges);
            let s = Skeleton::new(&g);
            assert_eq!(orbit_counts(&s), orbit_counts_esu(&s));
        }
        let empty = Skeleton::new(&CircuitGraph::new("none"));
        assert!(orbit_counts(&empty).is_empty());
    }

    #[test]
    fn esu_counts_match_bruteforce_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 6 + (trial % 4);
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.35) {
                        edges.push((a, b));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let s = Skeleton::new(&g);
            // Brute force: count connected 4-subsets.
            let mut brute = 0u64;
            let ids: Vec<usize> = (0..n).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        for l in (k + 1)..n {
                            let q = [ids[i], ids[j], ids[k], ids[l]];
                            if quad_connected(&s, &q) {
                                brute += 1;
                            }
                        }
                    }
                }
            }
            let mut esu = 0u64;
            enumerate_connected_quads(&s, |_| esu += 1);
            assert_eq!(esu, brute, "trial {trial}");
        }
    }

    fn quad_connected(s: &Skeleton, q: &[usize; 4]) -> bool {
        // BFS within the induced subgraph
        let mut seen = [false; 4];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            for j in 0..4 {
                if !seen[j] && s.adjacent(q[i], q[j]) {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.iter().all(|&b| b)
    }

    #[test]
    fn homophily_extremes() {
        // Same-class edges in a mixed-class graph → high homophily. (A
        // single-class graph scores 0 because the measure corrects for the
        // class-size baseline |Cₖ|/n.)
        let mut g = CircuitGraph::new("homo");
        let a = g.add_node(NodeType::Reg, 1);
        let b = g.add_node(NodeType::Reg, 1);
        let c = g.add_node(NodeType::Not, 1);
        let d = g.add_node(NodeType::Not, 1);
        g.add_edge(a, b).unwrap();
        g.add_edge(c, d).unwrap();
        let h_same = homophily(&g);

        // All edges between different types → zero homophily.
        let mut g2 = CircuitGraph::new("hetero");
        let x = g2.add_node(NodeType::Reg, 1);
        let y = g2.add_node(NodeType::Not, 1);
        let z = g2.add_node(NodeType::And, 1);
        g2.add_edge(x, y).unwrap();
        g2.add_edge(y, z).unwrap();
        let h_diff = homophily(&g2);

        assert!(h_same > h_diff);
        assert_eq!(h_diff, 0.0);
        assert!(h_same > 0.0);
    }

    #[test]
    fn homophily_empty_graph_is_zero() {
        let g = CircuitGraph::new("empty");
        assert_eq!(homophily(&g), 0.0);
        assert_eq!(homophily_two_hop(&g), 0.0);
    }

    #[test]
    fn two_hop_uses_paths() {
        // reg -> not -> reg: two-hop pairs (reg, reg) → same class.
        let mut g = CircuitGraph::new("hop");
        let a = g.add_node(NodeType::Reg, 1);
        let b = g.add_node(NodeType::Not, 1);
        let c = g.add_node(NodeType::Reg, 1);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(homophily(&g), 0.0);
        assert!(homophily_two_hop(&g) > 0.0);
    }

    #[test]
    fn structural_stats_bundle() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let st = StructuralStats::compute(&g);
        assert_eq!(st.out_degrees.len(), 4);
        assert_eq!(st.orbits.len(), 4);
        assert_eq!(st.triangles, 0);
        let totals = st.orbit_totals();
        assert_eq!(totals[0], 1.0); // node 0 participates in one P4
    }
}
