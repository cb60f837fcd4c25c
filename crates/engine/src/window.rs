//! Sliding time windows.
//!
//! The Trend Calculator (§5.2) keeps 600-second sliding time windows per
//! stock symbol; losing and refilling that state after a PE restart is the
//! crux of the replica-failover experiment (Figure 9).

use sps_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A time-based sliding window of `(timestamp, item)` pairs.
#[derive(Clone, Debug)]
pub struct SlidingTimeWindow<T> {
    span: SimDuration,
    items: VecDeque<(SimTime, T)>,
}

impl<T> SlidingTimeWindow<T> {
    pub fn new(span: SimDuration) -> Self {
        SlidingTimeWindow {
            span,
            items: VecDeque::new(),
        }
    }

    /// Inserts an item observed at `at`, then evicts expired entries.
    /// Timestamps must be non-decreasing (stream order).
    pub fn push(&mut self, at: SimTime, item: T) {
        debug_assert!(self.items.back().is_none_or(|(t, _)| *t <= at));
        self.items.push_back((at, item));
        self.evict(at);
    }

    /// Evicts entries older than `now - span`.
    pub fn evict(&mut self, now: SimTime) {
        while let Some((t, _)) = self.items.front() {
            if now.since(*t) > self.span {
                self.items.pop_front();
            } else {
                break;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.items.iter()
    }

    /// Timestamp of the oldest retained entry.
    pub fn oldest(&self) -> Option<SimTime> {
        self.items.front().map(|(t, _)| *t)
    }

    /// True when the window covers its full span, i.e. the oldest entry is at
    /// least `span` older than `now`. The Trend Calculator reports correct
    /// results only once its windows are full again after a restart (§5.2).
    pub fn is_full(&self, now: SimTime) -> bool {
        self.oldest()
            .is_some_and(|oldest| now.since(oldest) >= self.span)
    }
}

/// Numeric aggregates over a sliding window of f64 samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowAggregates {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub avg: f64,
    pub stddev: f64,
}

impl SlidingTimeWindow<f64> {
    /// Computes min/max/avg/stddev over the current contents; `None` when
    /// empty. Used by the financial operators (Bollinger Bands = avg ± k·σ).
    pub fn aggregates(&self) -> Option<WindowAggregates> {
        if self.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (_, v) in &self.items {
            min = min.min(*v);
            max = max.max(*v);
            sum += v;
        }
        let n = self.items.len() as f64;
        let avg = sum / n;
        let var = self
            .items
            .iter()
            .map(|(_, v)| (v - avg) * (v - avg))
            .sum::<f64>()
            / n;
        Some(WindowAggregates {
            count: self.items.len(),
            min,
            max,
            avg,
            stddev: var.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn sliding_window_evicts_by_time() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(10));
        for i in 0..20 {
            w.push(s(i), i as f64);
        }
        // At t=19 the cutoff is 9: entries at 9..=19 remain.
        assert_eq!(w.len(), 11);
        assert_eq!(w.oldest(), Some(s(9)));
    }

    #[test]
    fn explicit_evict_without_push() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(5));
        w.push(s(0), 1.0);
        w.push(s(1), 2.0);
        w.evict(s(100));
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
    }

    #[test]
    fn fullness_tracks_span_coverage() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(600));
        w.push(s(0), 1.0);
        assert!(!w.is_full(s(0)));
        assert!(!w.is_full(s(599)));
        assert!(w.is_full(s(600)));
        // A fresh window (PE restart) has lost its fullness.
        w = SlidingTimeWindow::new(SimDuration::from_secs(600));
        assert!(!w.is_full(s(600)));
        w.push(s(700), 1.0);
        assert!(!w.is_full(s(900)));
        assert!(w.is_full(s(1300)));
    }

    #[test]
    fn aggregates_basic() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(100));
        assert_eq!(w.aggregates(), None);
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            w.push(s(i as u64), *v);
        }
        let a = w.aggregates().unwrap();
        assert_eq!(a.count, 8);
        assert_eq!(a.min, 2.0);
        assert_eq!(a.max, 9.0);
        assert!((a.avg - 5.0).abs() < 1e-12);
        assert!((a.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_reflect_eviction() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(2));
        w.push(s(0), 100.0);
        w.push(s(10), 1.0);
        let a = w.aggregates().unwrap();
        assert_eq!(a.count, 1);
        assert_eq!(a.max, 1.0);
    }

    #[test]
    fn iter_preserves_order() {
        let mut w = SlidingTimeWindow::new(SimDuration::from_secs(100));
        w.push(s(1), 10.0);
        w.push(s(2), 20.0);
        let vals: Vec<f64> = w.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![10.0, 20.0]);
    }
}
