//! The end-to-end SynCircuit pipeline (paper §III):
//!
//! ```text
//! P(G) --1--> G_ini --2--> G_val --3--> G_opt
//! ```
//!
//! [`SynCircuit::fit`] learns `P(G | V, X)` from real circuit graphs;
//! generation is served through the unified request API:
//!
//! - [`SynCircuit::generate_one`] runs one [`GenRequest`] (reverse
//!   diffusion → probability-guided validity refinement → MCTS
//!   redundancy optimization, with per-request phase toggles);
//! - [`SynCircuit::stream`] returns a lazy [`Generator`] iterator that
//!   owns its RNG state and yields design after design;
//! - [`SynCircuit::generate_batch`] fans independent requests out
//!   across scoped worker threads — byte-identical to running them
//!   sequentially, because the zero-clone Phase 3 engine shares no
//!   mutable state between searches and the one thing workers *do*
//!   share, the lock-striped cone-synthesis cache
//!   ([`SynCircuit::cone_cache`]), memoizes a pure function of cone
//!   structure;
//! - [`SynCircuit::fit_with_workers`] fans per-graph training work out
//!   the same way, with a deterministic gradient merge — parallel `fit`
//!   reproduces the sequential [`ParamStore`](syncircuit_nn::ParamStore)
//!   bit for bit;
//! - [`SynCircuit::save`] / [`SynCircuit::load`] persist the trained
//!   model as a versioned JSON artifact so fit and generation can run
//!   in separate processes (see [`crate::persist`]).

use crate::attrs::AttrModel;
use crate::config::{PipelineConfig, RewardKind};
use crate::diffusion::{DecodeMode, DiffusionModel, SamplerScratch};
use crate::discriminator::PcsDiscriminator;
use crate::error::{Error, RequestError};
use crate::mcts::{
    optimize_registers, ExactSynthReward, IncrementalConeReward, MctsOutcome, RewardModel,
};
use crate::refine::{refine, refine_without_diffusion};
use crate::request::{GenRequest, Generator, MAX_DENSE_REQUEST_NODES, MAX_REQUEST_NODES};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use syncircuit_graph::cone::{all_driving_cones, cone_circuit};
use syncircuit_graph::{CircuitGraph, Node};
use syncircuit_synth::{ConeShardStats, SharedConeSynthCache};

/// One generated circuit with its intermediate artifacts.
///
/// Serializes as a flat JSON object (the serving wire format ships one
/// per successful response); the round-trip is lossless, so a design
/// that crossed a socket compares equal to one generated in-process.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Generated {
    /// The final synthetic circuit (`G_opt`, or `G_val` when Phase 3 is
    /// disabled).
    pub graph: CircuitGraph,
    /// The Phase 2 output `G_val` (before redundancy optimization).
    pub gval: CircuitGraph,
    /// Number of edges in the raw diffusion output `G_ini` (0 when
    /// Phase 1 was disabled for the request).
    pub gini_edges: usize,
    /// Per-cone MCTS outcomes (empty when Phase 3 is disabled).
    pub mcts: Vec<MctsOutcome>,
    /// The resolved seed this design was generated from (replaying a
    /// request with this explicit seed reproduces the design exactly).
    pub seed: u64,
}

/// A trained SynCircuit generator.
#[derive(Debug)]
pub struct SynCircuit {
    pub(crate) diffusion: DiffusionModel,
    pub(crate) attrs: AttrModel,
    pub(crate) discriminator: Option<PcsDiscriminator>,
    pub(crate) config: PipelineConfig,
    /// Lock-striped cone-synthesis memo table shared by every request
    /// this model serves (including all `generate_batch` workers).
    /// Memoizes a pure function of cone structure, so sharing never
    /// changes output bytes — it only deduplicates synthesis work.
    pub(crate) cone_cache: Arc<SharedConeSynthCache>,
}

/// Builds the model-wide shared cone cache for a validated config:
/// [`SHARD_COUNT`](syncircuit_synth::incremental::SHARD_COUNT) stripes,
/// each with the config's per-shard CLOCK capacity (an operational knob
/// that never changes generated bytes).
pub(crate) fn new_cone_cache(config: &PipelineConfig) -> Arc<SharedConeSynthCache> {
    Arc::new(SharedConeSynthCache::with_capacity(config.cone_cache_capacity()))
}

impl SynCircuit {
    /// Learns `P(G | V, X)` from real circuit graphs and prepares the
    /// Phase 3 reward oracle, fanning per-graph training work across
    /// all available cores (see [`SynCircuit::fit_with_workers`] — the
    /// worker count never changes the trained bits).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `config` fails validation (only
    /// possible for configurations that bypassed the builder) and
    /// [`Error::EmptyCorpus`] when `graphs` contains no nodes.
    pub fn fit(graphs: &[CircuitGraph], config: PipelineConfig) -> Result<Self, Error> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::fit_with_workers(graphs, config, workers)
    }

    /// [`SynCircuit::fit`] with an explicit worker count (clamped to at
    /// least 1).
    ///
    /// Training fans out per-graph epoch work — diffusion gradients
    /// ([`DiffusionModel::train_with_workers`]) and discriminator
    /// synthesis labeling
    /// ([`PcsDiscriminator::train_with_workers`]) — across
    /// `std::thread::scope` workers with fixed per-graph seed
    /// derivation and an ordered reduction, so the trained model is
    /// **bit-identical for every worker count** (property-tested in
    /// `tests/shared_cache_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// See [`SynCircuit::fit`].
    pub fn fit_with_workers(
        graphs: &[CircuitGraph],
        config: PipelineConfig,
        workers: usize,
    ) -> Result<Self, Error> {
        let workers = workers.max(1);
        config.validate()?;
        if graphs.is_empty() {
            return Err(Error::EmptyCorpus);
        }
        let attrs = AttrModel::fit(graphs)?;
        let diffusion = DiffusionModel::train_with_workers(
            graphs,
            config.diffusion.clone(),
            config.seed,
            workers,
        )?;

        let discriminator = match config.reward {
            RewardKind::Exact | RewardKind::IncrementalCone => None,
            RewardKind::Discriminator { epochs } => {
                // Label full designs *and* cones, from the real corpus
                // and from redundant synthetic circuits, so the regressor
                // sees both ends of the PCS spectrum at both granularities
                // (Phase 3 rewards design-level PCS).
                let mut samples: Vec<CircuitGraph> = Vec::new();
                for g in graphs {
                    samples.push(g.clone());
                    for cone in all_driving_cones(g) {
                        samples.push(cone_circuit(g, &cone).circuit);
                    }
                }
                let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD15C);
                use rand::Rng;
                for k in 0..4 {
                    let n = 20 + rng.gen_range(0..40usize);
                    let sampled_attrs = attrs.sample_attrs(n, &mut rng);
                    if let Ok(g) = refine_without_diffusion(
                        &sampled_attrs,
                        &attrs,
                        &config.refine,
                        config.seed ^ (k as u64 + 1),
                    ) {
                        for cone in all_driving_cones(&g) {
                            samples.push(cone_circuit(&g, &cone).circuit);
                        }
                        samples.push(g);
                    }
                }
                Some(PcsDiscriminator::train_with_workers(
                    &samples,
                    epochs,
                    config.seed ^ 0xD15C,
                    workers,
                )?)
            }
        };

        let cone_cache = new_cone_cache(&config);
        Ok(SynCircuit {
            diffusion,
            attrs,
            discriminator,
            config,
            cone_cache,
        })
    }

    /// The learned attribute model `P(X)`.
    pub fn attr_model(&self) -> &AttrModel {
        &self.attrs
    }

    /// The trained diffusion model.
    pub fn diffusion_model(&self) -> &DiffusionModel {
        &self.diffusion
    }

    /// The validated configuration this model was trained with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The model-wide shared cone-synthesis cache (the warm state all
    /// requests — sequential, streamed, or batched across workers —
    /// deduplicate cone synthesis through). Only exercised when Phase 3
    /// runs with [`RewardKind::IncrementalCone`].
    pub fn cone_cache(&self) -> &Arc<SharedConeSynthCache> {
        &self.cone_cache
    }

    /// Per-shard hit/miss/entry counters of the shared cone cache (see
    /// [`SharedConeSynthCache::stats`]). Counters are telemetry only:
    /// they never change generated bytes.
    pub fn cone_cache_stats(&self) -> Vec<ConeShardStats> {
        self.cone_cache.stats()
    }

    /// Serves one generation request.
    ///
    /// Deterministic in the model and the request's resolved seed (an
    /// unseeded request uses the configured master seed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Request`] for malformed requests and
    /// [`Error::Refine`] when Phase 2 cannot satisfy the constraints
    /// (degenerate attribute sets). A request for more than
    /// [`MAX_REQUEST_NODES`] nodes ([`MAX_DENSE_REQUEST_NODES`] when the
    /// model decodes densely) fails with [`RequestError::TooManyNodes`]
    /// before anything is allocated for it.
    pub fn generate_one(&self, request: &GenRequest) -> Result<Generated, Error> {
        let seed = request.seed().unwrap_or(self.config.seed);
        self.generate_resolved(request, seed)
    }

    /// [`SynCircuit::generate_resolved_with`] with a fresh per-call
    /// scratch (the one-shot path: buffers still amortize over the
    /// diffusion steps within the call).
    pub(crate) fn generate_resolved(
        &self,
        request: &GenRequest,
        seed: u64,
    ) -> Result<Generated, Error> {
        self.generate_resolved_with(request, seed, &mut SamplerScratch::new())
    }

    /// [`SynCircuit::generate_one`] with the seed already resolved and
    /// caller-owned sampler scratch — the shared entry point for
    /// one-shot calls, [`Generator`] streams (which own a scratch and
    /// substitute per-item seeds without cloning the request), and
    /// `generate_batch` workers (one scratch per worker thread).
    /// Scratch reuse never changes generated bytes.
    pub(crate) fn generate_resolved_with(
        &self,
        request: &GenRequest,
        seed: u64,
        scratch: &mut SamplerScratch,
    ) -> Result<Generated, Error> {
        let dense =
            request.phases().diffusion && matches!(self.config.diffusion.decode, DecodeMode::Dense);
        let max = if dense {
            MAX_DENSE_REQUEST_NODES
        } else {
            MAX_REQUEST_NODES
        };
        if request.node_count() > max {
            return Err(RequestError::TooManyNodes {
                requested: request.node_count(),
                max,
            }
            .into());
        }
        if matches!(request.attrs(), Some(a) if a.is_empty()) {
            return Err(RequestError::EmptyAttrs.into());
        }
        let sampled_attrs;
        let node_attrs: &[Node] = match request.attrs() {
            Some(a) => a,
            None => {
                let mut rng = StdRng::seed_from_u64(seed);
                sampled_attrs = self.attrs.sample_attrs(request.node_count(), &mut rng);
                &sampled_attrs
            }
        };
        let optimize = request
            .phases()
            .optimize
            .unwrap_or(self.config.optimize_redundancy);
        if optimize && !self.config.optimize_redundancy {
            // fit() only validated the Phase 3 parameters if the config
            // enabled Phase 3; a per-request re-enable must not run MCTS
            // on parameters the builder would have rejected.
            self.config.validate_phase3()?;
        }

        let (gval, gini_edges) = if request.phases().diffusion {
            // Phase 1: reverse diffusion.
            let sampled = self
                .diffusion
                .sample_with(node_attrs, seed.wrapping_add(1), scratch);
            let gini_edges = sampled.parents.iter().map(Vec::len).sum();
            // Phase 2: probability-guided validity refinement.
            let mut gval = refine(
                node_attrs,
                &sampled,
                &self.attrs,
                &self.config.refine,
                seed.wrapping_add(2),
            )?;
            gval.set_name(format!("syncircuit_{seed:x}"));
            (gval, gini_edges)
        } else {
            // "w/o diff" ablation: random edge probabilities, same
            // Phase 2 post-processing.
            let mut g =
                refine_without_diffusion(node_attrs, &self.attrs, &self.config.refine, seed)?;
            g.set_name(format!("nodiff_{seed:x}"));
            (g, 0)
        };

        // Phase 3: MCTS redundancy optimization.
        if !optimize {
            return Ok(Generated {
                graph: gval.clone(),
                gval,
                gini_edges,
                mcts: Vec::new(),
                seed,
            });
        }
        let mut mcts_cfg = self.config.mcts.clone();
        mcts_cfg.seed = seed.wrapping_add(3);
        let exact = ExactSynthReward::new();
        let incremental;
        let reward: &dyn RewardModel = match (&self.discriminator, self.config.reward) {
            (Some(d), _) => d,
            (None, RewardKind::IncrementalCone) => {
                // Worker view over the model-wide shared table: scratch
                // stays request-local (thread-local in a batch fan-out),
                // memoized cone areas are shared across all requests.
                incremental = IncrementalConeReward::with_shared(self.cone_cache.clone());
                &incremental
            }
            (None, _) => &exact,
        };
        let (graph, outcomes) =
            optimize_registers(&gval, reward, &mcts_cfg, self.config.cone_selection);
        Ok(Generated {
            graph,
            gval,
            gini_edges,
            mcts: outcomes,
            seed,
        })
    }

    /// Opens a lazy generation stream for `request`: an infinite
    /// [`Iterator`] of designs whose first item equals
    /// [`SynCircuit::generate_one`] for the same request and whose
    /// subsequent items draw fresh seeds from the session RNG (owned by
    /// the returned [`Generator`]). Fully deterministic in the request's
    /// resolved seed.
    pub fn stream(&self, request: GenRequest) -> Generator<'_> {
        Generator::new(self, request)
    }

    /// Serves a batch of independent requests in parallel, fanning out
    /// across `std::thread::scope` workers (one per available core, at
    /// most one per request).
    ///
    /// Results come back in request order and are **byte-identical** to
    /// calling [`SynCircuit::generate_one`] sequentially: per-request
    /// seeds fix every random choice, the Phase 3 zero-clone engine
    /// shares no mutable state between searches, and the one structure
    /// workers *do* share — the lock-striped
    /// [`SynCircuit::cone_cache`] — memoizes a pure function of cone
    /// structure, so insertion order cannot influence any reward
    /// (property-tested across worker counts in
    /// `tests/shared_cache_equivalence.rs`).
    pub fn generate_batch(&self, requests: &[GenRequest]) -> Vec<Result<Generated, Error>> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.generate_batch_with(requests, workers)
    }

    /// [`SynCircuit::generate_batch`] with an explicit worker count
    /// (clamped to `1..=requests.len()`).
    ///
    /// Each worker thread owns one [`SamplerScratch`] reused across
    /// every request it claims; scratch reuse is invisible in the
    /// output bytes (claim order is racy, results are pure per index).
    pub fn generate_batch_with(
        &self,
        requests: &[GenRequest],
        workers: usize,
    ) -> Vec<Result<Generated, Error>> {
        crate::par::parallel_map_with(requests.len(), workers, SamplerScratch::new, |scratch, k| {
            let request = &requests[k];
            let seed = request.seed().unwrap_or(self.config.seed);
            self.generate_resolved_with(request, seed, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::testing::random_circuit_with_size;
    use syncircuit_synth::{optimize, scpr};

    fn corpus() -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(400);
        (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 30))
            .collect()
    }

    #[test]
    fn oversized_requests_fail_typed_before_allocating() {
        // 2^34 nodes used to ask the attribute sampler for 256 GiB and
        // abort the process.
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        for n in [MAX_REQUEST_NODES + 1, 1 << 34] {
            for request in [
                GenRequest::nodes(n),
                GenRequest::nodes(n).without_diffusion(),
            ] {
                assert_eq!(
                    model.generate_one(&request.seeded(1)).unwrap_err(),
                    Error::Request(RequestError::TooManyNodes {
                        requested: n,
                        max: MAX_REQUEST_NODES,
                    })
                );
            }
        }

        let mut diffusion = PipelineConfig::tiny().diffusion().clone();
        diffusion.decode = DecodeMode::Dense;
        let cfg = PipelineConfig::tiny()
            .into_builder()
            .diffusion(diffusion)
            .build()
            .unwrap();
        let dense = SynCircuit::fit(&corpus(), cfg).unwrap();
        for n in [MAX_DENSE_REQUEST_NODES + 1, 1 << 34] {
            assert_eq!(
                dense.generate_one(&GenRequest::nodes(n)).unwrap_err(),
                Error::Request(RequestError::TooManyNodes {
                    requested: n,
                    max: MAX_DENSE_REQUEST_NODES,
                })
            );
        }
        // Without diffusion nothing decodes densely: the sparse cap holds.
        assert_eq!(
            dense
                .generate_one(&GenRequest::nodes(1 << 34).without_diffusion())
                .unwrap_err(),
            Error::Request(RequestError::TooManyNodes {
                requested: 1 << 34,
                max: MAX_REQUEST_NODES,
            })
        );
    }

    #[test]
    fn fit_generate_end_to_end() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let out = model.generate_one(&GenRequest::nodes(40)).unwrap();
        assert!(out.graph.is_valid(), "{:?}", out.graph.validate());
        assert!(out.gval.is_valid());
        assert_eq!(out.graph.node_count(), 40);
        assert_eq!(out.seed, model.config().seed());
        // Phase 3 preserves degree sequences.
        assert_eq!(out.graph.in_degrees(), out.gval.in_degrees());
        assert_eq!(out.graph.out_degrees(), out.gval.out_degrees());
    }

    #[test]
    fn optimization_never_hurts_scpr_materially() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        for seed in 0..3u64 {
            let out = model
                .generate_one(&GenRequest::nodes(30).seeded(seed))
                .unwrap();
            let before = scpr(&optimize(&out.gval));
            let after = scpr(&optimize(&out.graph));
            assert!(
                after >= before - 1e-9,
                "seed {seed}: SCPR degraded {before} -> {after}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let req = GenRequest::nodes(25).seeded(5);
        let a = model.generate_one(&req).unwrap();
        let b = model.generate_one(&req).unwrap();
        assert_eq!(a.graph, b.graph);
        let c = model
            .generate_one(&GenRequest::nodes(25).seeded(6))
            .unwrap();
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn without_diffusion_ablation() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let out = model
            .generate_one(
                &GenRequest::nodes(30)
                    .seeded(9)
                    .without_diffusion()
                    .optimize(false),
            )
            .unwrap();
        assert!(out.graph.is_valid());
        assert_eq!(out.graph.node_count(), 30);
        assert_eq!(out.gini_edges, 0, "Phase 1 was skipped");
        assert!(out.graph.name().starts_with("nodiff_"));
    }

    #[test]
    fn without_optimization_returns_gval() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let out = model
            .generate_one(&GenRequest::nodes(30).seeded(2).optimize(false))
            .unwrap();
        assert_eq!(out.graph, out.gval);
        assert!(out.mcts.is_empty());
    }

    #[test]
    fn config_toggle_disables_phase3_by_default() {
        let cfg = PipelineConfig::builder()
            .optimize_redundancy(false)
            .build()
            .unwrap();
        let model = SynCircuit::fit(&corpus(), cfg).unwrap();
        let out = model
            .generate_one(&GenRequest::nodes(30).seeded(2))
            .unwrap();
        assert_eq!(out.graph, out.gval);
        assert!(out.mcts.is_empty());
        // ... and a per-request override turns it back on.
        let on = model
            .generate_one(&GenRequest::nodes(30).seeded(2).optimize(true))
            .unwrap();
        assert!(!on.mcts.is_empty());
    }

    #[test]
    fn request_override_revalidates_phase3_parameters() {
        // A config with Phase 3 off may legally carry degenerate MCTS
        // parameters (the builder waives those checks) — but a request
        // that re-enables Phase 3 must hit the typed rejection instead
        // of silently running a zero-simulation search.
        let mut m = crate::MctsConfig::tiny();
        m.simulations = 0;
        let cfg = PipelineConfig::builder()
            .mcts(m)
            .optimize_redundancy(false)
            .build()
            .unwrap();
        let model = SynCircuit::fit(&corpus(), cfg).unwrap();
        // inherited toggle: fine, Phase 3 never runs
        assert!(model.generate_one(&GenRequest::nodes(25).seeded(1)).is_ok());
        // per-request re-enable: typed ConfigError
        assert_eq!(
            model
                .generate_one(&GenRequest::nodes(25).seeded(1).optimize(true))
                .unwrap_err(),
            Error::Config(crate::ConfigError::ZeroSimulations)
        );
    }

    #[test]
    fn empty_corpus_is_an_error() {
        assert_eq!(
            SynCircuit::fit(&[], PipelineConfig::tiny()).unwrap_err(),
            Error::EmptyCorpus
        );
    }

    #[test]
    fn empty_attrs_request_is_an_error() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        assert_eq!(
            model
                .generate_one(&GenRequest::with_attrs(Vec::new()))
                .unwrap_err(),
            Error::Request(RequestError::EmptyAttrs)
        );
    }

    #[test]
    fn discriminator_reward_path_works() {
        let cfg = PipelineConfig::builder()
            .reward(RewardKind::Discriminator { epochs: 60 })
            .build()
            .unwrap();
        let model = SynCircuit::fit(&corpus(), cfg).unwrap();
        let out = model
            .generate_one(&GenRequest::nodes(25).seeded(1))
            .unwrap();
        assert!(out.graph.is_valid());
    }

    #[test]
    fn generated_graphs_are_emittable() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        for seed in 0..3 {
            let out = model
                .generate_one(&GenRequest::nodes(30).seeded(seed))
                .unwrap();
            // All bit-selects in range (refinement legalizes; MCTS swap
            // guards preserve it).
            for (id, node) in out.graph.iter() {
                if node.ty() == syncircuit_graph::NodeType::BitSelect {
                    let pw = out.graph.node(out.graph.parents(id)[0]).width();
                    assert!(node.aux() as u32 + node.width() <= pw, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn stream_first_item_matches_one_shot() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let req = GenRequest::nodes(25).seeded(3);
        let one = model.generate_one(&req).unwrap();
        let mut stream = model.stream(req);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(one.graph, first.graph);
        assert_eq!(one.seed, first.seed);
        // subsequent items vary the seed deterministically
        let second = stream.next().unwrap().unwrap();
        assert_ne!(second.seed, first.seed);
        assert_eq!(stream.produced(), 2);
    }

    #[test]
    fn stream_is_deterministic() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let seeds_a: Vec<u64> = model
            .stream(GenRequest::nodes(20).seeded(8))
            .take(3)
            .map(|r| r.unwrap().seed)
            .collect();
        let seeds_b: Vec<u64> = model
            .stream(GenRequest::nodes(20).seeded(8))
            .take(3)
            .map(|r| r.unwrap().seed)
            .collect();
        assert_eq!(seeds_a, seeds_b);
    }

    #[test]
    fn batch_preserves_request_order() {
        let model = SynCircuit::fit(&corpus(), PipelineConfig::tiny()).unwrap();
        let requests: Vec<GenRequest> = (0..5u64)
            .map(|s| GenRequest::nodes(20 + s as usize).seeded(s))
            .collect();
        let batch = model.generate_batch_with(&requests, 4);
        assert_eq!(batch.len(), requests.len());
        for (k, item) in batch.iter().enumerate() {
            let g = item.as_ref().unwrap();
            assert_eq!(g.seed, k as u64);
            assert_eq!(g.graph.node_count(), 20 + k);
        }
    }
}
