//! `wmtree-telemetry` — the observability subsystem of the wmtree
//! workspace: metrics, spans, crawl progress, and per-run manifests.
//!
//! Design rules, in order of importance:
//!
//! 1. **Reproducibility is untouched.** Instrumentation never feeds
//!    back into result data, and wall-clock measurements live in a
//!    separate store ([`Timings`]) from the deterministic metrics
//!    ([`MetricsRegistry`]), so metric snapshots of two identical-seed
//!    runs compare equal byte for byte.
//! 2. **Cheap enough to leave on.** Record paths are a relaxed atomic
//!    op after a one-time handle lookup (the [`counter!`], [`gauge!`],
//!    and [`histogram!`] macros cache handles in statics). A global
//!    [`set_enabled`] switch turns every record path into a single
//!    relaxed load.
//! 3. **Dependency-light.** std plus the workspace's `parking_lot` and
//!    `serde` shims; nothing else.
//!
//! Per-run attribution uses snapshot diffs: grab
//! [`global().snapshot()`][MetricsRegistry::snapshot] before and after
//! a run and [`Snapshot::since`] yields exactly what the run recorded,
//! immune to whatever earlier runs in the same process left behind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod metrics;
pub mod par;
pub mod progress;
pub mod span;

pub use manifest::{ManifestProfile, RunManifest, StageTiming, MANIFEST_VERSION};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, Snapshot,
};
pub use progress::{ProgressSnapshot, ProgressTracker};
pub use span::{Span, Stopwatch, TimingStats, Timings};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide telemetry state.
#[derive(Debug, Default)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    timings: Timings,
}

impl Telemetry {
    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The wall-clock timings store.
    pub fn timings(&self) -> &Timings {
        &self.timings
    }

    /// Shorthand for `metrics().snapshot()`.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide telemetry instance.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::default)
}

/// Is recording enabled? One relaxed load; every record path checks it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off process-wide. Handles stay valid either
/// way; disabled recording is a no-op, not an error.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Open a wall-clock [`Span`] on the global store.
pub fn span(name: &str) -> Span {
    Span::enter(name)
}

/// Global counter handle, cached in a static after the first call.
///
/// ```
/// wmtree_telemetry::counter!("net.fetch.ok").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().metrics().counter($name))
    }};
}

/// Global gauge handle, cached in a static after the first call.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().metrics().gauge($name))
    }};
}

/// Global histogram handle, cached in a static after the first call.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().metrics().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests share the process-wide `ENABLED` flag, so they must
    /// not interleave with each other.
    static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn macros_cache_handles_on_the_global_registry() {
        let _guard = TEST_LOCK.lock();
        counter!("test.lib.counter").add(3);
        counter!("test.lib.counter").inc();
        assert_eq!(global().metrics().counter("test.lib.counter").get(), 4);

        gauge!("test.lib.gauge").set(-7);
        assert_eq!(global().metrics().gauge("test.lib.gauge").get(), -7);

        histogram!("test.lib.histogram").record(16);
        assert_eq!(
            global().metrics().histogram("test.lib.histogram").count(),
            1
        );
    }

    #[test]
    fn disabling_stops_recording() {
        let _guard = TEST_LOCK.lock();
        let c = global().metrics().counter("test.lib.disabled");
        c.inc();
        set_enabled(false);
        c.inc();
        c.inc();
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn spans_record_on_the_global_store() {
        let _guard = TEST_LOCK.lock();
        {
            let _s = span("test.lib.span");
        }
        let snap = global().timings().snapshot();
        assert!(snap["test.lib.span"].count >= 1);
    }
}
