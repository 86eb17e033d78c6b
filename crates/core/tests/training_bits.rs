//! Trained parameters keep their bits: each case fits a model on a fixed
//! seeded corpus and compares a 64-bit FNV-1a digest of its rendered
//! artifact (every trained weight, the attribute model and the config)
//! with a recorded value.
//!
//! The values were recorded with a kernel independent of the one under
//! test (a register-tiled scalar loop, since deleted), so they prove
//! that training on the packed SIMD kernel gives the same bits. Hidden
//! width 40 gives the denoiser's products a ragged last tile and 48
//! three full tiles, which the 16-wide `tiny()` preset does not reach;
//! the discriminator case trains the PCS network.

use rand::{rngs::StdRng, SeedableRng};
use syncircuit_core::{DiffusionConfig, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(777);
    (0..3)
        .map(|_| random_circuit_with_size(&mut rng, 28))
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fits `config` (with seed 11) and checks its artifact's digest.
fn assert_trains_recorded_bits(label: &str, config: PipelineConfig, want: u64) {
    let config = config
        .into_builder()
        .seed(11)
        .build()
        .expect("valid configuration");
    let model = SynCircuit::fit(&corpus(), config).expect("corpus is non-empty");
    let got = fnv1a(model.to_json().as_bytes());
    assert_eq!(
        got, want,
        "{label}: artifact digest {got:#018x} != recorded {want:#018x}; training changed its bits"
    );
}

/// The denoiser at `hidden` units, trained for `epochs`.
fn denoiser(hidden: usize, epochs: usize) -> PipelineConfig {
    PipelineConfig::builder()
        .diffusion(DiffusionConfig {
            hidden,
            epochs,
            ..DiffusionConfig::tiny()
        })
        .build()
        .expect("valid configuration")
}

#[test]
fn tiny_preset_trains_recorded_bits() {
    assert_trains_recorded_bits("tiny", PipelineConfig::tiny(), 0x519f_7177_9c12_5834);
}

#[test]
fn hidden_40_denoiser_trains_recorded_bits() {
    assert_trains_recorded_bits("hidden 40", denoiser(40, 3), 0x90e7_135f_2af3_cdf7);
}

#[test]
fn hidden_48_denoiser_trains_recorded_bits() {
    assert_trains_recorded_bits("hidden 48", denoiser(48, 2), 0xc020_6f23_f445_6c18);
}

#[test]
fn discriminator_trains_recorded_bits() {
    let config = PipelineConfig::builder()
        .reward(RewardKind::Discriminator { epochs: 5 })
        .build()
        .expect("valid configuration");
    assert_trains_recorded_bits("discriminator", config, 0xc474_e048_5f80_41a3);
}
