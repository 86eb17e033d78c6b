//! Discrete-diffusion noise schedule and two-state posterior math.
//!
//! The forward process corrupts each adjacency entry independently with
//! the transition kernel `Q_t = (1−β_t)·I + β_t·1πᵀ`, where `π` is the
//! Bernoulli noise prior over edge existence (matched to corpus density).
//! A cosine ᾱ schedule (Nichol & Dhariwal, cited by the paper §IV-A)
//! controls the corruption level. The closed-form marginal is "keep the
//! original entry with probability ᾱ_t, else resample from π", and the
//! exact two-state D3PM posterior `q(a_{t−1} | a_t, a_0)` is computed in
//! scalar form for reverse sampling.

use serde::{Deserialize, Serialize};

/// Cosine noise schedule over `T` diffusion steps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NoiseSchedule {
    /// ᾱ_t for t = 0..=T (ᾱ_0 = 1).
    alpha_bar: Vec<f64>,
    /// β_t for t = 1..=T (index 0 unused).
    beta: Vec<f64>,
    /// Bernoulli noise prior π = P(edge) at full corruption.
    pi: f64,
}

impl NoiseSchedule {
    /// Builds a cosine schedule with `steps ≥ 1` and edge-noise prior
    /// `pi ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `pi` is outside `(0, 1)`.
    pub fn cosine(steps: usize, pi: f64) -> Self {
        assert!(steps >= 1, "need at least one diffusion step");
        assert!(
            pi > 0.0 && pi < 1.0,
            "noise prior must be in (0,1), got {pi}"
        );
        const S: f64 = 0.008;
        let f = |t: f64| {
            let x = (t / steps as f64 + S) / (1.0 + S) * std::f64::consts::FRAC_PI_2;
            x.cos().powi(2)
        };
        let f0 = f(0.0);
        let mut alpha_bar: Vec<f64> = (0..=steps)
            .map(|t| (f(t as f64) / f0).clamp(1e-5, 1.0))
            .collect();
        alpha_bar[0] = 1.0;
        let beta: Vec<f64> = (0..=steps)
            .map(|t| {
                if t == 0 {
                    0.0
                } else {
                    (1.0 - alpha_bar[t] / alpha_bar[t - 1]).clamp(1e-6, 0.9999)
                }
            })
            .collect();
        NoiseSchedule {
            alpha_bar,
            beta,
            pi,
        }
    }

    /// Number of diffusion steps `T`.
    pub fn steps(&self) -> usize {
        self.beta.len() - 1
    }

    /// ᾱ_t (cumulative keep probability).
    pub fn alpha_bar(&self, t: usize) -> f64 {
        self.alpha_bar[t]
    }

    /// β_t (per-step corruption probability).
    pub fn beta(&self, t: usize) -> f64 {
        self.beta[t]
    }

    /// Noise prior π.
    pub fn pi(&self) -> f64 {
        self.pi
    }

    /// Forward marginal `P(a_t = 1 | a_0)`.
    pub fn forward_prob(&self, t: usize, a0: bool) -> f64 {
        let ab = self.alpha_bar[t];
        ab * (a0 as u8 as f64) + (1.0 - ab) * self.pi
    }

    /// Exact two-state posterior `q(a_{t−1} = 1 | a_t, a_0)`.
    ///
    /// Derived from Bayes' rule with the kernel `Q_t` and the marginal
    /// `q(a_{t−1} | a_0)`.
    pub fn posterior_given_a0(&self, t: usize, a_t: bool, a0: bool) -> f64 {
        debug_assert!(t >= 1);
        let beta = self.beta[t];
        let ab_prev = self.alpha_bar[t - 1];
        let pi_of = |x: bool| if x { self.pi } else { 1.0 - self.pi };
        // q(a_t | a_{t-1}=x) = (1-β)·δ(a_t=x) + β·π(a_t)
        let lik = |x: bool| (1.0 - beta) * ((a_t == x) as u8 as f64) + beta * pi_of(a_t);
        // q(a_{t-1}=x | a_0) = ᾱ_{t-1}·δ(x=a_0) + (1-ᾱ_{t-1})·π(x)
        let prior = |x: bool| ab_prev * ((x == a0) as u8 as f64) + (1.0 - ab_prev) * pi_of(x);
        let num = lik(true) * prior(true);
        let den = num + lik(false) * prior(false);
        if den <= 0.0 {
            self.pi
        } else {
            num / den
        }
    }

    /// Reverse-sampling probability `P(a_{t−1} = 1 | a_t)` given the
    /// model's x0-prediction `p0 = P(a_0 = 1 | G_t)`.
    pub fn posterior_prob(&self, t: usize, a_t: bool, p0: f64) -> f64 {
        let p0 = p0.clamp(0.0, 1.0);
        p0 * self.posterior_given_a0(t, a_t, true)
            + (1.0 - p0) * self.posterior_given_a0(t, a_t, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_bar_monotone_decreasing_from_one() {
        let s = NoiseSchedule::cosine(9, 0.02);
        assert_eq!(s.alpha_bar(0), 1.0);
        for t in 1..=s.steps() {
            assert!(s.alpha_bar(t) < s.alpha_bar(t - 1));
            assert!(s.beta(t) > 0.0 && s.beta(t) < 1.0);
        }
        assert!(s.alpha_bar(s.steps()) < 0.05, "end nearly fully noised");
    }

    #[test]
    fn forward_prob_interpolates() {
        let s = NoiseSchedule::cosine(10, 0.1);
        // at t=0: exact copy
        assert!((s.forward_prob(0, true) - 1.0).abs() < 1e-12);
        assert!((s.forward_prob(0, false) - 0.0).abs() < 1e-12);
        // at t=T: close to π
        let t = s.steps();
        assert!((s.forward_prob(t, true) - s.pi()).abs() < 0.05);
        assert!((s.forward_prob(t, false) - s.pi()).abs() < 0.05);
    }

    #[test]
    fn posterior_recovers_a0_at_t1() {
        // ᾱ_0 = 1 ⇒ q(a_0 | a_1, a_0) must be a point mass on a_0.
        let s = NoiseSchedule::cosine(9, 0.05);
        for a_t in [false, true] {
            assert!((s.posterior_given_a0(1, a_t, true) - 1.0).abs() < 1e-9);
            assert!(s.posterior_given_a0(1, a_t, false).abs() < 1e-9);
        }
    }

    #[test]
    fn posterior_matches_bayes_enumeration() {
        let s = NoiseSchedule::cosine(7, 0.08);
        for t in 1..=7 {
            for a0 in [false, true] {
                for a_t in [false, true] {
                    // enumerate joint P(a_{t-1}=x, a_t | a_0)
                    let pi_of = |x: bool| if x { s.pi() } else { 1.0 - s.pi() };
                    let prior = |x: bool| {
                        s.alpha_bar(t - 1) * ((x == a0) as u8 as f64)
                            + (1.0 - s.alpha_bar(t - 1)) * pi_of(x)
                    };
                    let lik = |x: bool| {
                        (1.0 - s.beta(t)) * ((a_t == x) as u8 as f64) + s.beta(t) * pi_of(a_t)
                    };
                    let joint_1 = prior(true) * lik(true);
                    let joint_0 = prior(false) * lik(false);
                    let expect = joint_1 / (joint_1 + joint_0);
                    let got = s.posterior_given_a0(t, a_t, a0);
                    assert!((got - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn posterior_prob_mixes_linearly() {
        let s = NoiseSchedule::cosine(9, 0.05);
        let p_hi = s.posterior_prob(5, true, 1.0);
        let p_lo = s.posterior_prob(5, true, 0.0);
        let p_mid = s.posterior_prob(5, true, 0.5);
        assert!((p_mid - 0.5 * (p_hi + p_lo)).abs() < 1e-12);
        assert!(p_hi > p_lo);
    }

    #[test]
    fn marginal_consistency() {
        // Σ_{a_t} P(a_t | a_0) · posterior(a_{t-1}=1 | a_t, a_0) must
        // equal P(a_{t-1}=1 | a_0).
        let s = NoiseSchedule::cosine(9, 0.07);
        for t in 1..=9usize {
            for a0 in [false, true] {
                let p_at = s.forward_prob(t, a0);
                let total = p_at * s.posterior_given_a0(t, true, a0)
                    + (1.0 - p_at) * s.posterior_given_a0(t, false, a0);
                let expect = s.forward_prob(t - 1, a0);
                assert!(
                    (total - expect).abs() < 1e-9,
                    "t={t} a0={a0}: {total} vs {expect}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise prior")]
    fn invalid_pi_rejected() {
        let _ = NoiseSchedule::cosine(5, 0.0);
    }
}
