//! Per-layer attribution for the traced run: span self times from a
//! `bqc_obs` trace window and counter deltas from the `bqc_obs` registry.

use bqc_obs::{MetricsSnapshot, TraceEventKind, TraceSnapshot};
use std::collections::HashMap;

/// Counter values at the start of a measured window.
pub struct Counters(MetricsSnapshot);

impl Counters {
    pub fn now() -> Counters {
        Counters(bqc_obs::snapshot())
    }

    /// Closes the window.
    pub fn close(self) -> Deltas {
        Deltas {
            before: self.0,
            after: bqc_obs::snapshot(),
        }
    }
}

/// Counter growth over a closed window.
pub struct Deltas {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Deltas {
    /// How much the counter `name` grew over the window.
    pub fn delta(&self, name: &str) -> u64 {
        let at = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before))
    }

    /// `(sum, count)` growth of histogram `name` over the window.
    pub fn histogram_delta(&self, name: &str) -> (u64, u64) {
        let at = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
        let ((sum, count), (sum0, count0)) = (at(&self.after), at(&self.before));
        (sum.saturating_sub(sum0), count.saturating_sub(count0))
    }
}

/// Self time and call count per span name.
#[derive(Debug, Default)]
pub struct SelfTimes {
    by_name: HashMap<&'static str, (f64, u64)>,
    pub dropped: u64,
}

impl SelfTimes {
    /// A span's self time is its duration minus the part of it covered by
    /// its direct children (spans one level deeper on the same thread,
    /// inside its interval).
    pub fn from_trace(trace: &TraceSnapshot) -> SelfTimes {
        let mut spans: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Complete)
            .collect();
        spans.sort_by_key(|e| (e.tid, e.start_ns, e.depth));
        let mut child_ns = vec![0u64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                let parent = spans[top];
                let encloses = parent.tid == span.tid
                    && parent.depth < span.depth
                    && span.start_ns < parent.start_ns + parent.dur_ns;
                if encloses {
                    break;
                }
                open.pop();
            }
            if let Some(&top) = open.last() {
                if spans[top].depth + 1 == span.depth {
                    child_ns[top] += span.dur_ns;
                }
            }
            open.push(i);
        }
        let mut by_name: HashMap<&'static str, (f64, u64)> = HashMap::new();
        for (span, child) in spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += span.dur_ns.saturating_sub(child) as f64 * 1e-9;
            entry.1 += 1;
        }
        SelfTimes {
            by_name,
            dropped: trace.dropped,
        }
    }

    /// Total self seconds of spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(s, _)| s)
    }

    /// How many spans named `name` completed.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, n)| n)
    }

    /// Every span name with its self seconds and calls, largest first.
    pub fn table(&self) -> Vec<(&'static str, f64, u64)> {
        let mut rows: Vec<_> = self.by_name.iter().map(|(&n, &(s, c))| (n, s, c)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}
