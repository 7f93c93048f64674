//! Poisson request generation (paper Fig. 14b: "A Request Generator
//! simulates user requests with a Poisson distribution").

use ador_units::{conv, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Request, TraceProfile};

/// Whether `count` arrivals at mean rate `rate` (req/s) can be drawn
/// without the clock overflowing. The request generators (this one and
/// the fleet's tenant mixes) draw each gap as `-ln(u)` mean gaps with
/// `u ≥ f64::EPSILON`, so one gap is at most `-ln(f64::EPSILON)` ≈ 36.04
/// mean gaps: the rate must be positive and finite, and `count` such
/// gaps must still sum to a finite time.
///
/// # Examples
///
/// ```
/// use ador_serving::arrival_rate_fits;
///
/// assert!(arrival_rate_fits(5.0, 1_000_000));
/// assert!(!arrival_rate_fits(0.0, 1));
/// assert!(!arrival_rate_fits(1e-307, 50));
/// ```
pub fn arrival_rate_fits(rate: f64, count: usize) -> bool {
    rate.is_finite()
        && rate > 0.0
        && (conv::f64_from_usize(count) * -f64::EPSILON.ln() / rate).is_finite()
}

/// Generates a request stream with exponential inter-arrival times and
/// trace-profile token lengths. Fully deterministic under a seed.
///
/// # Examples
///
/// ```
/// use ador_serving::{RequestGenerator, TraceProfile};
///
/// let reqs = RequestGenerator::new(5.0, TraceProfile::ultrachat_like(), 11).take(100);
/// assert_eq!(reqs.len(), 100);
/// // Arrivals are sorted and average ~0.2 s apart at 5 req/s.
/// assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    rate_per_sec: f64,
    profile: TraceProfile,
    rng: StdRng,
    now: Seconds,
    next_id: u64,
}

impl RequestGenerator {
    /// Creates a generator with mean arrival rate `rate_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not finite and positive.
    pub fn new(rate_per_sec: f64, profile: TraceProfile, seed: u64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive, got {rate_per_sec}"
        );
        Self {
            rate_per_sec,
            profile,
            rng: StdRng::seed_from_u64(seed),
            now: Seconds::ZERO,
            next_id: 0,
        }
    }

    /// The configured mean arrival rate.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> Request {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = -u.ln() / self.rate_per_sec;
        self.now += Seconds::new(gap);
        let input = self.profile.sample_input(&mut self.rng);
        let output = self.profile.sample_output(&mut self.rng);
        let req = Request::new(self.next_id, self.now, input, output);
        self.next_id += 1;
        req
    }

    /// Draws the next `n` requests.
    pub fn take(mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn mean_rate_converges() {
        let reqs = RequestGenerator::new(10.0, TraceProfile::short_chat(), 5).take(5000);
        let span = reqs.last().unwrap().arrival.get();
        let measured = reqs.len() as f64 / span;
        assert!(
            (measured - 10.0).abs() < 1.0,
            "measured {measured:.2} req/s"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = RequestGenerator::new(3.0, TraceProfile::ultrachat_like(), 17).take(50);
        let b = RequestGenerator::new(3.0, TraceProfile::ultrachat_like(), 17).take(50);
        assert_eq!(a, b);
        let c = RequestGenerator::new(3.0, TraceProfile::ultrachat_like(), 18).take(50);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_sequential() {
        let reqs = RequestGenerator::new(1.0, TraceProfile::short_chat(), 0).take(10);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = RequestGenerator::new(0.0, TraceProfile::short_chat(), 0);
    }
}
