//! Text pins for the JSON codec: the exact bytes of wire frames and of
//! `serde_json` renderings of seeded values.
//!
//! Each text is reduced to its 64-bit FNV-1a digest. Peers and saved
//! artifacts depend on these bytes, so a codec change that alters one
//! byte of any of these texts — a key, a separator, an indent, a
//! float's digits — fails here, and every text must also read back to
//! the value it was rendered from.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;
use std::time::Duration;
use syncircuit_core::{
    ConfigError, DecodeMode, DiffusionConfig, Error as CoreError, GenRequest, Generated,
    PipelineConfig, RewardKind, SynCircuit,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, RequestFrame, ResponseBody,
    ResponseFrame, WireError,
};
use syncircuit_serve::ServeError;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small trained model with Phase 3 on, fitted once.
fn model() -> &'static SynCircuit {
    static MODEL: OnceLock<SynCircuit> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x7E47);
        let corpus: Vec<_> = (0..2)
            .map(|_| random_circuit_with_size(&mut rng, 18))
            .collect();
        SynCircuit::fit_with_workers(&corpus, config(), 1).expect("fit the pin model")
    })
}

/// A config whose floats are not integral and whose enums carry data.
fn config() -> PipelineConfig {
    PipelineConfig::builder()
        .seed(0x7E47)
        .diffusion(DiffusionConfig {
            hidden: 8,
            layers: 1,
            steps: 3,
            epochs: 4,
            lr: 0.013,
            neg_ratio: 1.7,
            decode: DecodeMode::Sparse {
                candidates_per_node: 6,
            },
            grad_clip: 2.5,
        })
        .reward(RewardKind::IncrementalCone)
        .build()
        .expect("valid configuration")
}

fn design() -> Generated {
    let design = model()
        .generate_one(&GenRequest::nodes(14).seeded(11))
        .expect("generate the pin design");
    assert!(
        !design.mcts.is_empty(),
        "the pin design carries MCTS outcomes"
    );
    assert!(
        design.mcts.iter().any(|o| o.best_reward.fract() != 0.0),
        "the pin design carries non-integral floats"
    );
    design
}

fn request() -> GenRequest {
    let attrs: Vec<_> = random_circuit_with_size(&mut StdRng::seed_from_u64(5), 6)
        .iter()
        .map(|(_, n)| *n)
        .collect();
    GenRequest::with_attrs(attrs)
        .seeded(u64::MAX - 3)
        .deadline(Duration::from_millis(1_250))
}

fn request_frame() -> RequestFrame {
    RequestFrame {
        id: 9,
        tenant: "tenant \"a\"\n".to_string(),
        artifact: "/models/a.json".to_string(),
        request: request(),
    }
}

fn responses() -> [(&'static str, ResponseFrame); 3] {
    [
        (
            "response_ok",
            ResponseFrame {
                id: 17,
                body: ResponseBody::Ok(Box::new(design())),
            },
        ),
        (
            "response_err",
            ResponseFrame {
                id: 18,
                body: ResponseBody::Err(ServeError::Model(CoreError::Config(
                    ConfigError::BadLearningRate(-0.25),
                ))),
            },
        ),
        (
            "response_protocol",
            ResponseFrame {
                id: 0,
                body: ResponseBody::Protocol(WireError::BadFrame("missing `id`\t".to_string())),
            },
        ),
    ]
}

fn read<T: serde::Deserialize>(bytes: &[u8]) -> T {
    serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap()
}

/// Every pinned text, by name.
fn texts() -> Vec<(&'static str, String)> {
    let mut out = vec![(
        "request_frame",
        String::from_utf8(encode_request(&request_frame())).unwrap(),
    )];
    for (name, frame) in responses() {
        out.push((name, String::from_utf8(encode_response(&frame)).unwrap()));
    }
    let request = request();
    let config = config();
    let design = design();
    out.extend([
        ("gen_request", serde_json::to_string(&request).unwrap()),
        (
            "gen_request_pretty",
            serde_json::to_string_pretty(&request).unwrap(),
        ),
        ("pipeline_config", serde_json::to_string(&config).unwrap()),
        (
            "pipeline_config_pretty",
            serde_json::to_string_pretty(&config).unwrap(),
        ),
        ("generated", serde_json::to_string(&design).unwrap()),
        (
            "generated_pretty",
            serde_json::to_string_pretty(&design).unwrap(),
        ),
    ]);
    out
}

/// FNV-1a digests of [`texts`].
const PINS: [(&str, u64); 10] = [
    ("request_frame", 0xfb2c_a353_4f19_b696),
    ("response_ok", 0x9e39_1b24_3398_132f),
    ("response_err", 0x58c2_1d18_1892_fc34),
    ("response_protocol", 0x6b77_ab03_04f2_8abe),
    ("gen_request", 0x0348_992c_5bb5_5b8f),
    ("gen_request_pretty", 0x2e04_75fc_2697_3b83),
    ("pipeline_config", 0x55e4_4bf7_e22f_38e8),
    ("pipeline_config_pretty", 0x1dca_e82f_558a_5908),
    ("generated", 0xec95_a5b5_eda0_0081),
    ("generated_pretty", 0xff91_52f5_11fe_71a1),
];

#[test]
fn codec_text_matches_the_recorded_digests() {
    let got: Vec<(&str, u64)> = texts()
        .iter()
        .map(|(name, text)| (*name, fnv1a(text.as_bytes())))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got, PINS, "codec text drifted; digests now:\n{table}");
}

#[test]
fn pinned_texts_read_back_to_their_values() {
    let texts = texts();
    let text = |name: &str| texts.iter().find(|(n, _)| *n == name).unwrap().1.as_bytes();

    assert_eq!(
        decode_request(text("request_frame")).unwrap(),
        request_frame()
    );
    for (name, _) in responses() {
        let back = decode_response(text(name)).unwrap();
        assert_eq!(encode_response(&back), text(name), "{name} reads back");
    }

    for name in ["gen_request", "gen_request_pretty"] {
        let back: GenRequest = read(text(name));
        assert_eq!(back, request(), "{name} reads back");
    }
    for name in ["pipeline_config", "pipeline_config_pretty"] {
        let back: PipelineConfig = read(text(name));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&config()).unwrap(),
            "{name} reads back"
        );
    }
    let design = design();
    for name in ["generated", "generated_pretty"] {
        let back: Generated = read(text(name));
        assert_eq!(back.graph, design.graph, "{name} reads back");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&design).unwrap(),
            "{name} reads back"
        );
    }
}
