//! Deterministic observability for the ADOR serving simulator.
//!
//! Production serving stacks explain *why* a request missed its latency
//! target — queue wait vs chunked-prefill interference vs preemption vs
//! verify stalls — not just that it did. This crate gives the simulator
//! the same visibility without compromising the property everything
//! else rests on: determinism. Four pieces:
//!
//! * [`Event`]/[`FlightRecorder`] — structured request-lifecycle events
//!   (enqueue, admit, prefill-chunk, preempt, resume, commit, complete,
//!   shed) stamped with **sim time only**, buffered by one recorder
//!   whose capacity is [`TelemetryConfig::events`]: a bounded ring for
//!   post-mortems of SLO-missing requests, or an unbounded log for
//!   full-fidelity export;
//! * [`spans`] — the per-request phase decomposition of a stream (queue,
//!   prefill, decode, preemption stall), and [`attribution`], which
//!   charges each request's lost time to a cause;
//! * [`SeriesCollector`]/[`TimeSeries`] — windowed time series (queue
//!   depth, KV occupancy, prefix hit rate, acceptance rate, goodput)
//!   sampled on a configurable sim-time interval;
//! * [`chrome_trace`] — a Chrome trace-event (Perfetto-loadable) JSON
//!   exporter rendering a fleet run as a per-replica/per-request
//!   waterfall.
//!
//! Everything is **zero-overhead when off**: the engine emits nothing
//! unless a recorder is installed, and recording is passive, so the
//! telemetry-off path is bit-identical to a build without this crate.
//! The `ador-lint` determinism rules (no wall clock, no OS entropy, no
//! unordered iteration) apply to this crate exactly as to the sim
//! crates it observes.
//!
//! # Examples
//!
//! ```
//! use ador_telemetry::{chrome_trace, Event, EventKind, FlightRecorder};
//! use ador_units::Seconds;
//!
//! let mut log = FlightRecorder::new(usize::MAX);
//! log.record(&Event {
//!     time: Seconds::ZERO,
//!     request: 1,
//!     kind: EventKind::Enqueue,
//! });
//! log.record(&Event {
//!     time: Seconds::from_millis(3.0),
//!     request: 1,
//!     kind: EventKind::Admit { cached_tokens: 0, ideal_us: 0 },
//! });
//! let trace = chrome_trace(&[log.drain()]);
//! assert!(trace.contains("\"name\":\"queue\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod chrome;
mod event;
mod phase;
mod series;

pub use attribution::{
    attribute_events, AttributionReport, Components, MissCause, RequestAttribution, MISS_CAUSES,
};
pub use chrome::chrome_trace;
pub use event::{Event, EventKind, FlightRecorder};
pub use phase::{spans, Phase, Span};
pub use series::{goodput_series, SeriesCollector, SeriesPoint, SeriesSample, TimeSeries};

use ador_units::Seconds;

/// How much of the decode path lands in the event stream.
///
/// Decode commits are the event flood: one per request per step, so a
/// fleet run emits tens of millions of them, and they dominate the
/// cost of tracing. The phase structure of a request — where
/// [`spans`] and [`chrome_trace`] get their spans — only
/// needs the *first* commit after each admission or resume, so the
/// always-on production configuration can elide the steady one-token
/// commits and keep everything else.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum EventDetail {
    /// Every lifecycle transition, including one `Commit` per decode
    /// step per request — full-fidelity per-token timing (the default).
    #[default]
    PerToken,
    /// Phase boundaries only: `Commit` is emitted for a request's
    /// first tokens after admission or resume, and for any verify step
    /// that carried speculative drafts (the verify outcome is the
    /// payload). Steady single-token decode steps are elided — their
    /// aggregate rate is still visible in the windowed time series.
    Lifecycle,
}

/// Telemetry configuration threaded through `SimConfig`/`ClusterConfig`.
///
/// The default ([`TelemetryConfig::OFF`]) records nothing and adds no
/// work to the hot path.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Capacity of the [`FlightRecorder`] the engine installs: `None`
    /// records nothing (the zero-overhead default), [`usize::MAX`] is
    /// the unbounded in-order log of full-fidelity tracing, and a
    /// smaller capacity a bounded ring of the most recent events.
    pub events: Option<usize>,
    /// Decode-path granularity of the event stream.
    pub detail: EventDetail,
    /// Time-series sampling interval; `None` disables collection.
    pub series_interval: Option<Seconds>,
    /// Run time-loss attribution over the recorded event stream when
    /// the fleet report is assembled (see [`attribution`]). Requires an
    /// event recorder; ignored when `events` is `None`. Off by default
    /// so a plain traced run's report stays byte-identical to earlier
    /// releases.
    pub attribution: bool,
}

impl TelemetryConfig {
    /// Everything off (the default).
    pub const OFF: Self = Self {
        events: None,
        detail: EventDetail::PerToken,
        series_interval: None,
        attribution: false,
    };

    /// Full-fidelity tracing: unbounded event log, no time series.
    #[must_use]
    pub fn trace() -> Self {
        Self {
            events: Some(usize::MAX),
            ..Self::OFF
        }
    }

    /// Flight-recorder mode: bounded ring of the last `capacity`
    /// events.
    #[must_use]
    pub fn flight_recorder(capacity: usize) -> Self {
        Self {
            events: Some(capacity),
            ..Self::OFF
        }
    }

    /// Adds windowed time-series sampling every `interval` of sim time.
    #[must_use]
    pub fn with_series(mut self, interval: Seconds) -> Self {
        self.series_interval = Some(interval);
        self
    }

    /// Sets the decode-path event granularity (see [`EventDetail`]).
    #[must_use]
    pub fn with_detail(mut self, detail: EventDetail) -> Self {
        self.detail = detail;
        self
    }

    /// Enables time-loss attribution over the recorded events (see
    /// [`attribution`]). Only meaningful together with an event recorder.
    #[must_use]
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// True when the fleet report should carry an attribution section:
    /// attribution is requested and an event recorder exists to feed it.
    #[must_use]
    pub fn attribution_enabled(&self) -> bool {
        self.attribution && self.events_enabled()
    }

    /// True when any telemetry is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.events_enabled() || self.series_interval.is_some()
    }

    /// True when an event recorder is requested.
    #[must_use]
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_disabled() {
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::OFF);
        assert!(!TelemetryConfig::OFF.enabled());
        assert!(TelemetryConfig::trace().events_enabled());
        assert!(TelemetryConfig::flight_recorder(1024).events_enabled());
        let cfg = TelemetryConfig::OFF.with_series(Seconds::new(1.0));
        assert!(cfg.enabled() && !cfg.events_enabled());
    }

    #[test]
    fn detail_defaults_to_per_token_and_is_configurable() {
        assert_eq!(TelemetryConfig::trace().detail, EventDetail::PerToken);
        let cfg = TelemetryConfig::flight_recorder(64).with_detail(EventDetail::Lifecycle);
        assert_eq!(cfg.detail, EventDetail::Lifecycle);
        assert!(cfg.events_enabled());
    }

    #[test]
    fn attribution_defaults_off_and_requires_an_event_sink() {
        assert!(!TelemetryConfig::trace().attribution_enabled());
        assert!(TelemetryConfig::trace()
            .with_attribution()
            .attribution_enabled());
        // Attribution without events has nothing to read: not enabled.
        let no_events = TelemetryConfig::OFF.with_attribution();
        assert!(no_events.attribution && !no_events.attribution_enabled());
    }
}
