//! Exact-sample statistics and the benchmark's clock.
//!
//! Latencies are kept as exact nanosecond samples and their quantiles
//! are read off the sorted samples, so a change smaller than the log₂
//! buckets of the server's own histograms still shows.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock shared
/// by the load generator, the backend wrapper and the span recorder.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A set of exact samples (nanoseconds, counts, seconds …).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        Samples {
            values,
            sorted: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum() / self.len() as f64)
    }

    /// The `q`-quantile by the nearest-rank rule (`q` in `0..=1`),
    /// `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Median of a small slice of measurements (set-up times, reloads).
pub fn median(values: &[f64]) -> Option<f64> {
    Samples::from_vec(values.to_vec()).median()
}
