//! Token-length distributions for synthetic chat traces.
//!
//! The paper reconstructs input/output token patterns from
//! `HuggingFaceH4/ultrachat_200k`. Offline we sample a log-normal fit of
//! that dataset's marginals (median prompt ≈ 330 tokens, median response ≈
//! 270 tokens, heavy right tails), which preserves exactly what the
//! simulator consumes: the joint arrival/length workload.

use ador_units::conv;
use rand::Rng;

/// A log-normal token-length model for prompts and responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Mean of `ln(input_tokens)`.
    pub input_mu: f64,
    /// Std-dev of `ln(input_tokens)`.
    pub input_sigma: f64,
    /// Mean of `ln(output_tokens)`.
    pub output_mu: f64,
    /// Std-dev of `ln(output_tokens)`.
    pub output_sigma: f64,
    /// Hard cap on either length (the serving window).
    pub max_tokens: usize,
}

impl TraceProfile {
    /// The ultrachat_200k-like chatbot profile used for Fig. 16
    /// (median prompt ≈ 330, median response ≈ 270, capped at 4 K).
    pub fn ultrachat_like() -> Self {
        Self {
            input_mu: 330.0_f64.ln(),
            input_sigma: 0.85,
            output_mu: 270.0_f64.ln(),
            output_sigma: 0.70,
            max_tokens: 4096,
        }
    }

    /// A short-interaction profile (classification-style prompts).
    pub fn short_chat() -> Self {
        Self {
            input_mu: 64.0_f64.ln(),
            input_sigma: 0.6,
            output_mu: 48.0_f64.ln(),
            output_sigma: 0.5,
            max_tokens: 1024,
        }
    }

    /// A long-document summarization profile (Fig. 17's long-input regime).
    pub fn summarization() -> Self {
        Self {
            input_mu: 2048.0_f64.ln(),
            input_sigma: 0.5,
            output_mu: 256.0_f64.ln(),
            output_sigma: 0.5,
            max_tokens: 8192,
        }
    }

    /// Fixed lengths (the Fig. 17 grid sweeps use degenerate profiles).
    pub fn fixed(input_tokens: usize, output_tokens: usize) -> Self {
        Self {
            input_mu: conv::f64_from_usize(input_tokens).ln(),
            input_sigma: 0.0,
            output_mu: conv::f64_from_usize(output_tokens).ln(),
            output_sigma: 0.0,
            max_tokens: input_tokens + output_tokens,
        }
    }

    /// Samples a prompt length.
    pub fn sample_input<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_lognormal(rng, self.input_mu, self.input_sigma, self.max_tokens)
    }

    /// Samples a response length.
    pub fn sample_output<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_lognormal(rng, self.output_mu, self.output_sigma, self.max_tokens)
    }
}

/// Log-normal sampling via Box–Muller (keeps the dependency surface at
/// plain `rand`).
fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64, cap: usize) -> usize {
    let z = if sigma == 0.0 {
        0.0
    } else {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let len = (mu + sigma * z).exp().round();
    conv::usize_from_f64(len.max(1.0)).min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn summarize(samples: &mut [usize]) -> (usize, f64) {
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        (median, mean)
    }

    #[test]
    fn ultrachat_medians_match_calibration() {
        let profile = TraceProfile::ultrachat_like();
        let mut rng = StdRng::seed_from_u64(42);
        let mut inputs: Vec<usize> = (0..20_000)
            .map(|_| profile.sample_input(&mut rng))
            .collect();
        let mut outputs: Vec<usize> = (0..20_000)
            .map(|_| profile.sample_output(&mut rng))
            .collect();
        let (in_med, in_mean) = summarize(&mut inputs);
        let (out_med, _) = summarize(&mut outputs);
        assert!((280..=380).contains(&in_med), "input median {in_med}");
        assert!((230..=310).contains(&out_med), "output median {out_med}");
        // Log-normal right tail: mean well above median.
        assert!(in_mean > in_med as f64);
    }

    #[test]
    fn samples_respect_cap_and_floor() {
        let profile = TraceProfile::ultrachat_like();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = profile.sample_input(&mut rng);
            assert!(s >= 1 && s <= profile.max_tokens);
        }
    }

    #[test]
    fn fixed_profile_is_deterministic() {
        let profile = TraceProfile::fixed(512, 128);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(profile.sample_input(&mut rng), 512);
            assert_eq!(profile.sample_output(&mut rng), 128);
        }
    }

    #[test]
    fn seeded_sampling_reproduces() {
        let profile = TraceProfile::ultrachat_like();
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| profile.sample_input(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| profile.sample_input(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
