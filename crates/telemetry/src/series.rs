//! Windowed time-series collection on the sim clock.
//!
//! A [`SeriesCollector`] samples engine state on a fixed sim-time
//! interval. Gauges (queue depth, KV occupancy) are read directly;
//! rates (prefix hit rate, draft acceptance rate, goodput) are computed
//! from cumulative-counter deltas over the window, so each point
//! reflects *that window*, not the run-so-far average.

use ador_units::conv::{f64_from_u64, usize_from_f64};
use ador_units::Seconds;

/// Smallest accepted sampling interval; shorter requests are clamped so
/// the collector can always make progress.
const MIN_INTERVAL: Seconds = Seconds::ZERO;

/// A cumulative-counter snapshot of one engine, read at a sample point.
/// All counters are totals since the start of the run; the collector
/// differences consecutive snapshots itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesSample {
    /// Requests waiting for admission (queued, not yet in the batch).
    pub queue_depth: usize,
    /// Requests currently in the running batch.
    pub active: usize,
    /// KV-cache tokens currently held.
    pub kv_in_use: usize,
    /// Cumulative prompt tokens served from the prefix cache.
    pub hit_tokens: u64,
    /// Cumulative prompt tokens looked up in the prefix cache.
    pub seen_tokens: u64,
    /// Cumulative draft tokens accepted by verification.
    pub accepted: u64,
    /// Cumulative draft tokens proposed by the speculator.
    pub drafted: u64,
    /// Cumulative output tokens committed.
    pub completed_tokens: u64,
}

/// One point of the per-replica time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sim time of the sample.
    pub time: Seconds,
    /// Requests waiting for admission at the sample instant.
    pub queue_depth: usize,
    /// Requests in the running batch at the sample instant.
    pub active: usize,
    /// KV-cache tokens held at the sample instant.
    pub kv_in_use: usize,
    /// Prefix-cache hit rate over the window (0 when nothing was
    /// looked up).
    pub prefix_hit_rate: f64,
    /// Draft-token acceptance rate over the window (0 when nothing was
    /// drafted).
    pub acceptance_rate: f64,
    /// Output tokens committed per second over the window.
    pub goodput_tps: f64,
}

/// A completed per-replica time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Requested sampling interval.
    pub interval: Seconds,
    /// Samples, in sim-time order.
    pub points: Vec<SeriesPoint>,
}

/// Samples [`SeriesSample`] snapshots into a [`TimeSeries`] on a fixed
/// sim-time interval.
///
/// The engine offers a snapshot after every step; the collector takes
/// one point per elapsed interval (a long idle jump yields a single
/// point, not a backlog of identical ones) and timestamps it with the
/// actual sim time of the step that crossed the interval boundary, so
/// the output is a deterministic function of the event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesCollector {
    interval: Seconds,
    next_at: Seconds,
    last_time: Seconds,
    last: SeriesSample,
    series: TimeSeries,
}

impl SeriesCollector {
    /// Creates a collector sampling every `interval` of sim time.
    /// A zero interval is clamped to one microsecond.
    #[must_use]
    pub fn new(interval: Seconds) -> Self {
        let interval = if interval > MIN_INTERVAL {
            interval
        } else {
            Seconds::from_micros(1.0)
        };
        Self {
            interval,
            next_at: interval,
            last_time: Seconds::ZERO,
            last: SeriesSample::default(),
            series: TimeSeries {
                interval,
                points: Vec::new(),
            },
        }
    }

    /// Offers a snapshot at sim time `now`. Records a point only when
    /// `now` has reached the next sample boundary.
    pub fn observe(&mut self, now: Seconds, sample: &SeriesSample) {
        if now < self.next_at {
            return;
        }
        let elapsed = now - self.last_time;
        let rate = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                f64_from_u64(num) / f64_from_u64(den)
            }
        };
        let tokens = sample
            .completed_tokens
            .saturating_sub(self.last.completed_tokens);
        let goodput_tps = if elapsed.is_zero() {
            0.0
        } else {
            f64_from_u64(tokens) / elapsed.get()
        };
        self.series.points.push(SeriesPoint {
            time: now,
            queue_depth: sample.queue_depth,
            active: sample.active,
            kv_in_use: sample.kv_in_use,
            prefix_hit_rate: rate(
                sample.hit_tokens.saturating_sub(self.last.hit_tokens),
                sample.seen_tokens.saturating_sub(self.last.seen_tokens),
            ),
            acceptance_rate: rate(
                sample.accepted.saturating_sub(self.last.accepted),
                sample.drafted.saturating_sub(self.last.drafted),
            ),
            goodput_tps,
        });
        self.last = *sample;
        self.last_time = now;
        while self.next_at <= now {
            self.next_at += self.interval;
        }
    }

    /// Finishes collection, returning the series.
    #[must_use]
    pub fn finish(self) -> TimeSeries {
        self.series
    }

    /// The points collected so far.
    #[must_use]
    pub fn points(&self) -> &[SeriesPoint] {
        &self.series.points
    }
}

/// Buckets `(completion_time, tokens)` pairs into fixed windows of
/// `interval` and returns tokens-per-second per window — the per-tenant
/// goodput series computed post-hoc from request outcomes. The series
/// spans `[0, end]`; completions past `end` extend it.
#[must_use]
pub fn goodput_series(completions: &[(Seconds, u64)], interval: Seconds, end: Seconds) -> Vec<f64> {
    let interval = if interval > Seconds::ZERO {
        interval
    } else {
        Seconds::from_micros(1.0)
    };
    let bucket_of = |t: Seconds| usize_from_f64((t / interval).floor());
    let mut windows = vec![0u64; bucket_of(end) + 1];
    for &(t, tokens) in completions {
        let b = bucket_of(t);
        if b >= windows.len() {
            windows.resize(b + 1, 0);
        }
        if let Some(slot) = windows.get_mut(b) {
            *slot += tokens;
        }
    }
    windows
        .into_iter()
        .map(|tokens| f64_from_u64(tokens) / interval.get())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_samples_once_per_interval() {
        let mut c = SeriesCollector::new(Seconds::new(1.0));
        let mut s = SeriesSample::default();
        // Many offers inside the first interval: no points yet.
        c.observe(Seconds::new(0.2), &s);
        c.observe(Seconds::new(0.9), &s);
        assert!(c.points().is_empty());
        // Crossing the boundary takes exactly one point.
        s.completed_tokens = 50;
        c.observe(Seconds::new(1.25), &s);
        assert_eq!(c.points().len(), 1);
        assert_eq!(c.points()[0].time, Seconds::new(1.25));
        assert!((c.points()[0].goodput_tps - 40.0).abs() < 1e-12);
        // A long jump over several intervals still yields one point.
        s.completed_tokens = 70;
        c.observe(Seconds::new(7.5), &s);
        assert_eq!(c.points().len(), 2);
        let p = c.points()[1];
        assert!((p.goodput_tps - 20.0 / 6.25).abs() < 1e-12);
    }

    #[test]
    fn rates_are_windowed_not_cumulative() {
        let mut c = SeriesCollector::new(Seconds::new(1.0));
        let mut s = SeriesSample {
            hit_tokens: 80,
            seen_tokens: 100,
            ..SeriesSample::default()
        };
        c.observe(Seconds::new(1.0), &s);
        assert!((c.points()[0].prefix_hit_rate - 0.8).abs() < 1e-12);
        // Next window: 0 hits out of 100 → windowed rate 0, not 40%.
        s.seen_tokens = 200;
        c.observe(Seconds::new(2.0), &s);
        assert_eq!(c.points()[1].prefix_hit_rate, 0.0);
        // Empty window → rate reports 0 instead of NaN.
        c.observe(Seconds::new(3.0), &s);
        assert_eq!(c.points()[2].acceptance_rate, 0.0);
    }

    #[test]
    fn goodput_series_buckets_completions() {
        let completions = [
            (Seconds::new(0.5), 10u64),
            (Seconds::new(0.9), 10),
            (Seconds::new(2.5), 30),
        ];
        let g = goodput_series(&completions, Seconds::new(1.0), Seconds::new(3.0));
        assert_eq!(g.len(), 4);
        assert!((g[0] - 20.0).abs() < 1e-12);
        assert_eq!(g[1], 0.0);
        assert!((g[2] - 30.0).abs() < 1e-12);
        assert_eq!(g[3], 0.0);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let c = SeriesCollector::new(Seconds::ZERO);
        assert_eq!(c.series.interval, Seconds::from_micros(1.0));
        assert_eq!(goodput_series(&[], Seconds::ZERO, Seconds::ZERO).len(), 1);
    }
}
