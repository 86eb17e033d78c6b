//! The unified generation request and the streaming generator session.
//!
//! [`GenRequest`] is the one request shape for every generation mode —
//! node count, explicit seed, explicit node attributes, and per-request
//! phase toggles — behind one value that can be run once
//! ([`crate::SynCircuit::generate_one`]), streamed lazily
//! ([`crate::SynCircuit::stream`] → [`Generator`]), or fanned out in
//! parallel ([`crate::SynCircuit::generate_batch`]).
//!
//! The pre-0.2 `generate*` method family (one method per call shape)
//! mapped onto requests as follows and was removed after its
//! deprecation release; the mapping is kept for migrating old callers:
//!
//! | removed call | request |
//! | --- | --- |
//! | `generate(n)` | `GenRequest::nodes(n)` |
//! | `generate_seeded(n, s)` | `GenRequest::nodes(n).seeded(s)` |
//! | `generate_with_attrs(attrs, s)` | `GenRequest::with_attrs(attrs).seeded(s)` |
//! | `generate_without_diffusion(n, s)` | `GenRequest::nodes(n).seeded(s).without_diffusion().optimize(false)` |
//!
//! Every request served through one model counts its Phase-3 cones into
//! the model's cone counters ([`crate::SynCircuit::cone_cache`]). Each
//! request derives its cone areas from its own design and nothing else,
//! so results are byte-identical whether requests run sequentially,
//! interleaved, or on concurrent workers.

use crate::diffusion::SamplerScratch;
use crate::error::Error;
use crate::pipeline::{Generated, SynCircuit};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{DeError, Deserialize, Reader, Serialize, Serializer};
use syncircuit_graph::Node;

/// Most nodes a request may ask for. At this size a tiny-width model
/// generates a design (sparse decoding, Phase 3 off) in about a second
/// and 70 MB; four times the size took 20 s and 300 MB. A larger request
/// fails with [`crate::RequestError::TooManyNodes`] before anything is
/// allocated for it.
pub const MAX_REQUEST_NODES: usize = 1 << 14;

/// Most nodes a request may ask for from a model that decodes densely
/// ([`crate::DecodeMode::Dense`] scores all n² pairs each diffusion
/// step): about 300 MB at this size for a tiny-width model, and four
/// times that at twice the size. Requests without diffusion keep
/// [`MAX_REQUEST_NODES`].
pub const MAX_DENSE_REQUEST_NODES: usize = 1 << 10;

/// Per-request phase toggles (Phase 2, validity refinement, always
/// runs — it is what makes the output a circuit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseToggles {
    /// Run Phase 1 (reverse diffusion). `false` ⇒ random edge
    /// probabilities with the same Phase 2 post-processing (the paper's
    /// "SynCircuit w/o diff" ablation).
    pub diffusion: bool,
    /// Run Phase 3 (MCTS redundancy optimization). `None` ⇒ inherit the
    /// trained configuration's `optimize_redundancy` toggle.
    pub optimize: Option<bool>,
}

impl Default for PhaseToggles {
    fn default() -> Self {
        PhaseToggles {
            diffusion: true,
            optimize: None,
        }
    }
}

/// One generation request: node count, optional seed, optional explicit
/// node attributes, and phase toggles.
///
/// Build with [`GenRequest::nodes`] or [`GenRequest::with_attrs`] and
/// chain the modifiers; see the module docs for the legacy-call mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct GenRequest {
    nodes: usize,
    seed: Option<u64>,
    attrs: Option<Vec<Node>>,
    phases: PhaseToggles,
    deadline: Option<std::time::Duration>,
}

impl GenRequest {
    /// Request for a circuit with `n` nodes, attributes sampled from the
    /// learned `P(X)` (values below 6 are clamped up by the attribute
    /// sampler so the structural minima — input, constant, register,
    /// output — always fit).
    pub fn nodes(n: usize) -> Self {
        GenRequest {
            nodes: n,
            seed: None,
            attrs: None,
            phases: PhaseToggles::default(),
            deadline: None,
        }
    }

    /// Request conditioned on explicit node attributes (the paper's
    /// user-specified `V, X` mode, used to mirror an evaluation design).
    pub fn with_attrs(attrs: Vec<Node>) -> Self {
        GenRequest {
            nodes: attrs.len(),
            seed: None,
            attrs: Some(attrs),
            phases: PhaseToggles::default(),
            deadline: None,
        }
    }

    /// Uses an explicit seed instead of the model's master seed (vary
    /// the seed to build datasets).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Disables Phase 1: random edge probabilities with the same Phase 2
    /// post-processing (the "w/o diff" ablation row of Table II).
    pub fn without_diffusion(mut self) -> Self {
        self.phases.diffusion = false;
        self
    }

    /// Overrides the configured Phase 3 toggle for this request.
    pub fn optimize(mut self, on: bool) -> Self {
        self.phases.optimize = Some(on);
        self
    }

    /// Gives the request a time budget. Generation itself ignores it
    /// (a local call runs to completion), but a serving daemon resolves
    /// it to an absolute deadline at admission: a request still queued
    /// when its budget runs out is failed with a typed
    /// deadline-exceeded error instead of occupying a worker.
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Requested node count.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Explicit seed, if any (`None` ⇒ the model's master seed).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Explicit node attributes, if any.
    pub fn attrs(&self) -> Option<&[Node]> {
        self.attrs.as_deref()
    }

    /// Phase toggles of this request.
    pub fn phases(&self) -> PhaseToggles {
        self.phases
    }

    /// The request's time budget, if any (see [`GenRequest::deadline`]).
    pub fn time_budget(&self) -> Option<std::time::Duration> {
        self.deadline
    }
}

/// Wire encoding of a [`GenRequest`]: a flat JSON object carrying every
/// request field, *including* the deadline (as integer milliseconds in
/// `deadline_ms`) — the time budget used to be a process-local
/// operational knob invisible to serialization, which meant a remote
/// client could not set one. Field order is fixed, so the rendered text
/// is a canonical form: two requests are identical iff their encodings
/// are (the serving layer's request-coalescing key relies on this).
///
/// Sub-millisecond budgets truncate to whole milliseconds on the wire
/// (a zero budget — "expire immediately" — survives as `0`).
impl Serialize for GenRequest {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        let deadline_ms = self
            .deadline
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64);
        s.begin_object();
        s.member("nodes", &self.nodes);
        s.member("seed", &self.seed);
        s.member("attrs", &self.attrs);
        s.member("diffusion", &self.phases.diffusion);
        s.member("optimize", &self.phases.optimize);
        s.member("deadline_ms", &deadline_ms);
        s.end_object();
    }
}

impl Deserialize for GenRequest {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut nodes = None;
        let mut seed = None;
        let mut attrs: Option<Option<Vec<Node>>> = None;
        let mut diffusion = None;
        let mut optimize = None;
        let mut deadline_ms: Option<Option<u64>> = None;
        let found = r.object(|r, key| match key {
            "nodes" => r.first(&mut nodes),
            "seed" => r.first(&mut seed),
            "attrs" => r.first(&mut attrs),
            "diffusion" => r.first(&mut diffusion),
            "optimize" => r.first(&mut optimize),
            "deadline_ms" => r.first(&mut deadline_ms),
            _ => r.skip_value(),
        })?;
        if !found {
            return Err(DeError::msg("expected object for GenRequest"));
        }
        fn field<T>(slot: Option<T>, name: &str) -> Result<T, DeError> {
            slot.ok_or_else(|| DeError(format!("missing field `{name}` in GenRequest")))
        }
        let attrs = field(attrs, "attrs")?;
        if attrs.as_ref().is_some_and(Vec::is_empty) {
            return Err(DeError::msg(
                "GenRequest attrs must be non-empty when present",
            ));
        }
        let deadline_ms = field(deadline_ms, "deadline_ms")?;
        Ok(GenRequest {
            nodes: field(nodes, "nodes")?,
            seed: field(seed, "seed")?,
            attrs,
            phases: PhaseToggles {
                diffusion: field(diffusion, "diffusion")?,
                optimize: field(optimize, "optimize")?,
            },
            deadline: deadline_ms.map(std::time::Duration::from_millis),
        })
    }
}

/// A lazy, infinite stream of generated designs from one trained model.
///
/// Created by [`crate::SynCircuit::stream`]. The generator owns the RNG
/// state that derives per-design seeds: the first item uses the
/// request's resolved seed (so it equals the one-shot
/// [`crate::SynCircuit::generate_one`] result for the same request),
/// and every further item draws a fresh seed from the session RNG —
/// fully deterministic in the base seed. Use [`Iterator::take`] to
/// bound the stream.
#[derive(Debug)]
pub struct Generator<'m> {
    model: &'m SynCircuit,
    request: GenRequest,
    base_seed: u64,
    rng: StdRng,
    produced: u64,
    /// Session-owned sampler buffers: the diffusion hot loop of every
    /// item this stream yields reuses one warm scratch (reuse never
    /// changes generated bytes).
    scratch: SamplerScratch,
}

/// Domain-separation salt for the per-item seed stream.
const STREAM_SALT: u64 = 0x5EED_57EA;

impl<'m> Generator<'m> {
    pub(crate) fn new(model: &'m SynCircuit, request: GenRequest) -> Self {
        let base_seed = request.seed().unwrap_or(model.config().seed());
        Generator {
            model,
            request,
            base_seed,
            rng: StdRng::seed_from_u64(base_seed ^ STREAM_SALT),
            produced: 0,
            scratch: SamplerScratch::new(),
        }
    }

    /// The request this session streams.
    pub fn request(&self) -> &GenRequest {
        &self.request
    }

    /// Number of designs produced so far (successful or not).
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl Iterator for Generator<'_> {
    type Item = Result<Generated, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let seed = if self.produced == 0 {
            self.base_seed
        } else {
            self.rng.gen::<u64>()
        };
        self.produced += 1;
        Some(
            self.model
                .generate_resolved_with(&self.request, seed, &mut self.scratch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeType;

    #[test]
    fn request_builders_compose() {
        let r = GenRequest::nodes(40)
            .seeded(9)
            .without_diffusion()
            .optimize(true);
        assert_eq!(r.node_count(), 40);
        assert_eq!(r.seed(), Some(9));
        assert!(!r.phases().diffusion);
        assert_eq!(r.phases().optimize, Some(true));
        assert!(r.attrs().is_none());
        assert_eq!(r.time_budget(), None);
        let d = std::time::Duration::from_millis(250);
        assert_eq!(r.deadline(d).time_budget(), Some(d));
    }

    #[test]
    fn requests_round_trip_the_wire_encoding() {
        let requests = vec![
            GenRequest::nodes(12),
            GenRequest::nodes(40)
                .seeded(9)
                .without_diffusion()
                .optimize(true),
            GenRequest::nodes(7)
                .seeded(u64::MAX)
                .deadline(std::time::Duration::from_millis(250)),
            GenRequest::nodes(3).deadline(std::time::Duration::ZERO),
            GenRequest::with_attrs(vec![
                Node::new(NodeType::Input, 8),
                Node::new(NodeType::Output, 8),
            ])
            .seeded(4)
            .optimize(false),
        ];
        for r in requests {
            let text = serde_json::to_string(&r).unwrap();
            let back: GenRequest = serde_json::from_str(&text).unwrap();
            assert_eq!(back, r, "round-trip must be lossless: {text}");
            // Canonical form: identical requests render identical text.
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
    }

    #[test]
    fn deadline_survives_the_wire_as_millis() {
        let r = GenRequest::nodes(8).deadline(std::time::Duration::from_millis(1500));
        let text = serde_json::to_string(&r).unwrap();
        assert!(text.contains("\"deadline_ms\":1500"), "{text}");
        let back: GenRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back.time_budget(),
            Some(std::time::Duration::from_millis(1500))
        );
        // Sub-millisecond budgets truncate to wire granularity.
        let fine = GenRequest::nodes(8).deadline(std::time::Duration::from_micros(2500));
        let back: GenRequest =
            serde_json::from_str(&serde_json::to_string(&fine).unwrap()).unwrap();
        assert_eq!(
            back.time_budget(),
            Some(std::time::Duration::from_millis(2))
        );
    }

    #[test]
    fn malformed_request_objects_fail_typed() {
        for bad in [
            "[]",
            "{\"nodes\": 4}",
            "{\"nodes\": -1, \"seed\": null, \"attrs\": null, \"diffusion\": true, \
             \"optimize\": null, \"deadline_ms\": null}",
            "{\"nodes\": 4, \"seed\": null, \"attrs\": [], \"diffusion\": true, \
             \"optimize\": null, \"deadline_ms\": null}",
        ] {
            assert!(
                serde_json::from_str::<GenRequest>(bad).is_err(),
                "must reject: {bad}"
            );
        }
    }

    #[test]
    fn attrs_request_takes_count_from_attrs() {
        let attrs = vec![
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Output, 8),
        ];
        let r = GenRequest::with_attrs(attrs);
        assert_eq!(r.node_count(), 2);
        assert_eq!(r.attrs().unwrap().len(), 2);
        assert_eq!(r.phases(), PhaseToggles::default());
    }
}
