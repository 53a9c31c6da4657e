//! The benchmark's own spans around its calls into each layer, the
//! per-layer self-time table, and the Chrome trace file.
//!
//! Spans are timed on the `RealSync` monotonic clock, the same clock
//! the shared-memory executor and the simulator's self-profiler use,
//! so the program's spans and the benchmark's nest on one time line.
//! The `node` of a span is its track (a worker thread).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use acn_sync::{RealSync, SyncApi};
use acn_trace::{Span, Tracer, SYSTEM_TRACE};

/// Now, on the shared monotonic clock (ns).
#[must_use]
pub fn now() -> u64 {
    RealSync::monotonic_now()
}

/// Records a `[start, now]` span of `kind` on `track`.
pub fn close(tracer: &Tracer, kind: &'static str, track: u64, start: u64) {
    if tracer.is_enabled() {
        let end = now();
        tracer.record(Span::new(kind, SYSTEM_TRACE).between(start, end).node(track));
    }
}

/// Per-layer totals: a layer is the span kind's prefix before the
/// first `.`. Self time is a span's duration minus the part covered by
/// its direct children on the same track.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Spans of the layer.
    pub spans: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns).
    pub self_ns: u64,
}

/// Folds `spans` into per-layer totals.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut tracks: BTreeMap<Option<u64>, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        tracks.entry(s.node).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for mut track in tracks.into_values() {
        // Parents before their children: earlier start, then longer.
        track.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        let mut self_ns: Vec<u64> = track.iter().map(|s| s.duration()).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in track.iter().enumerate() {
            while let Some(&top) = open.last() {
                if track[top].end > s.start {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(s.duration());
            }
            open.push(i);
        }
        for (s, own) in track.iter().zip(self_ns) {
            let layer = s.kind.split('.').next().unwrap_or(s.kind);
            let t = out.entry(layer).or_default();
            t.spans += 1;
            t.total_ns += s.duration();
            t.self_ns += own;
        }
    }
    out
}

/// The self-time table as printable text.
#[must_use]
pub fn render_table(spans: &[Span]) -> String {
    let times = self_times(spans);
    let all_self: u64 = times.values().map(|t| t.self_ns).sum::<u64>().max(1);
    let mut s =
        String::from("layer           spans      total_ms    self_ms  self_%  self_ns/span\n");
    for (layer, t) in &times {
        let _ = writeln!(
            s,
            "{layer:<14} {:>6} {:>13.3} {:>10.3} {:>7.1} {:>13.0}",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self as f64,
            t.self_ns as f64 / t.spans.max(1) as f64,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, track: u64, start: u64, end: u64) -> Span {
        Span::new(kind, SYSTEM_TRACE).between(start, end).node(track)
    }

    #[test]
    fn children_are_subtracted_from_their_direct_parent_only() {
        let spans = vec![
            span("bench.round", 0, 0, 100),
            span("sim.step", 0, 10, 30),
            span("sim.step", 0, 40, 50),
            span("overlay.join", 0, 60, 90),
            span("sim.step", 0, 70, 80),
            // Another track does not nest into track 0.
            span("sim.step", 1, 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], LayerTime { spans: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(t["overlay"], LayerTime { spans: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(t["sim"], LayerTime { spans: 4, total_ns: 140, self_ns: 140 });
        assert!(render_table(&spans).contains("overlay"));
    }
}
