//! Per-device activity timelines: the measurement substrate for GPU
//! utilization (paper Fig. 2) and bubble visualisation (Fig. 1).

use serde::{Deserialize, Serialize};

/// What a device was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Executing prefill work.
    Prefill,
    /// Executing decode work.
    Decode,
    /// Executing a hybrid (chunked prefill + decode) batch.
    Hybrid,
    /// Communicating (all-reduce under TP).
    Comm,
}

impl SegmentKind {
    /// Short label used in CSV/Gantt exports.
    pub const fn label(self) -> &'static str {
        match self {
            SegmentKind::Prefill => "prefill",
            SegmentKind::Decode => "decode",
            SegmentKind::Hybrid => "hybrid",
            SegmentKind::Comm => "comm",
        }
    }
}

/// One contiguous busy interval on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Device (pipeline stage / GPU) index.
    pub device: u32,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// Activity class.
    pub kind: SegmentKind,
    /// Free-form job tag (batch id, request group, …).
    pub tag: u64,
}

/// Busy seconds per device per window of a fixed grid; see
/// [`Timeline::busy_per_window`].
#[derive(Debug, Clone)]
pub struct WindowedBusy {
    /// Window start times: `0, dt, dt + dt, …` while below the makespan.
    pub starts: Vec<f64>,
    /// `busy[device][k]`: busy seconds of `device` in window `k`.
    pub busy: Vec<Vec<f64>>,
}

#[cfg(test)]
impl WindowedBusy {
    /// Every grid point and window total as bits, for exact comparison.
    pub(crate) fn to_bits(&self) -> (Vec<u64>, Vec<Vec<u64>>) {
        (
            self.starts.iter().map(|t| t.to_bits()).collect(),
            self.busy
                .iter()
                .map(|row| row.iter().map(|b| b.to_bits()).collect())
                .collect(),
        )
    }
}

/// An append-only log of busy segments across devices.
///
/// Recording can be disabled for long benchmark runs where only aggregate
/// busy time matters; aggregates are maintained either way.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    segments: Vec<Segment>,
    record_segments: bool,
    /// Per-device total busy seconds (always maintained).
    busy: Vec<f64>,
    /// Latest segment end across devices.
    end: f64,
    /// Earliest segment start across devices.
    start: f64,
    any: bool,
}

impl Timeline {
    /// Create a timeline; `record_segments` controls whether individual
    /// segments are kept (aggregates always are).
    pub fn new(record_segments: bool) -> Self {
        Timeline {
            segments: Vec::new(),
            record_segments,
            busy: Vec::new(),
            end: 0.0,
            start: f64::INFINITY,
            any: false,
        }
    }

    /// Record a busy interval on `device`.
    ///
    /// # Panics
    /// Panics if `end < start` (zero-length segments are allowed and
    /// ignored in aggregates).
    pub fn record(&mut self, device: u32, start: f64, end: f64, kind: SegmentKind, tag: u64) {
        assert!(end >= start, "segment ends before it starts");
        if self.busy.len() <= device as usize {
            self.busy.resize(device as usize + 1, 0.0);
        }
        self.busy[device as usize] += end - start;
        self.end = self.end.max(end);
        self.start = self.start.min(start);
        self.any = true;
        if self.record_segments {
            self.segments.push(Segment {
                device,
                start,
                end,
                kind,
                tag,
            });
        }
    }

    /// Record pre-aggregated busy time for `device` spanning
    /// `[start, end]` without individual segments — what a worker that
    /// kept only bounded summaries (no per-job log) feeds back. The
    /// aggregate accounting matches calling [`Timeline::record`] once
    /// per original segment.
    ///
    /// # Panics
    /// Panics if `end < start` or `busy` is negative.
    pub fn record_busy(&mut self, device: u32, busy: f64, start: f64, end: f64) {
        assert!(end >= start, "span ends before it starts");
        assert!(busy >= 0.0, "negative busy time");
        if self.busy.len() <= device as usize {
            self.busy.resize(device as usize + 1, 0.0);
        }
        self.busy[device as usize] += busy;
        self.end = self.end.max(end);
        self.start = self.start.min(start);
        self.any = true;
    }

    /// All recorded segments (empty when recording is disabled).
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of devices that recorded at least one segment.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.busy.len()
    }

    /// Total busy seconds of one device.
    pub fn busy_time(&self, device: u32) -> f64 {
        self.busy.get(device as usize).copied().unwrap_or(0.0)
    }

    /// Time of the last recorded activity.
    #[inline]
    pub fn makespan(&self) -> f64 {
        if self.any {
            self.end
        } else {
            0.0
        }
    }

    /// Busy fraction of one device over `[0, makespan]`.
    pub fn utilization(&self, device: u32) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            0.0
        } else {
            self.busy_time(device) / span
        }
    }

    /// Mean busy fraction across all devices over `[0, makespan]` — the
    /// quantity the paper's Figure 2 plots.
    pub fn mean_utilization(&self) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        self.busy.iter().sum::<f64>() / (span * self.busy.len() as f64)
    }

    /// Bubble ratio: 1 − mean utilization.
    #[inline]
    pub fn bubble_ratio(&self) -> f64 {
        1.0 - self.mean_utilization()
    }

    /// Busy time of `device` clipped to a window (needed for steady-state
    /// utilization that excludes warm-up and drain).
    ///
    /// Each call scans every recorded segment, so this is for a handful
    /// of windows, not for a per-window loop over the run; use
    /// [`Timeline::busy_per_window`] for a whole grid.
    pub fn busy_in_window(&self, device: u32, t0: f64, t1: f64) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.device == device)
            .map(|s| (s.end.min(t1) - s.start.max(t0)).max(0.0))
            .sum()
    }

    /// Busy seconds per device in every window of a fixed grid over
    /// `[0, makespan)`, in one pass over the segments: O(segments ·
    /// log windows + devices · windows) when a device's segments do not
    /// overlap.
    ///
    /// Window `k` is `[starts[k], starts[k] + dt]`, with `starts` built by
    /// accumulating `t += dt` from zero. Each total is bit-identical to
    /// [`Timeline::busy_in_window`] on that window: segments are visited
    /// in append order, so every window sums the same terms in the same
    /// order.
    ///
    /// # Panics
    /// Panics if `dt` is not positive.
    pub fn busy_per_window(&self, dt: f64) -> WindowedBusy {
        assert!(dt > 0.0, "window width must be positive");
        let span = self.makespan();
        let mut starts = Vec::new();
        let mut t = 0.0;
        while t < span {
            starts.push(t);
            t += dt;
        }
        // `f64: Sum` folds from -0.0 and every segment of a device adds a
        // term (+0.0 when disjoint) to each window, so an idle window reads
        // +0.0 on a device with segments and -0.0 on one without.
        let mut has_segments = vec![false; self.num_devices()];
        for s in &self.segments {
            has_segments[s.device as usize] = true;
        }
        let mut busy: Vec<Vec<f64>> = has_segments
            .iter()
            .map(|&has| vec![if has { 0.0 } else { -0.0 }; starts.len()])
            .collect();
        for s in &self.segments {
            let first = starts.partition_point(|&t0| t0 + dt <= s.start);
            let row = &mut busy[s.device as usize][first..];
            for (&t0, total) in starts[first..].iter().zip(row) {
                if t0 >= s.end {
                    break;
                }
                *total += (s.end.min(t0 + dt) - s.start.max(t0)).max(0.0);
            }
        }
        WindowedBusy { starts, busy }
    }

    /// Reference for [`Timeline::busy_per_window`]: the per-window scan
    /// it replaces, one [`Timeline::busy_in_window`] call per device per
    /// window.
    #[cfg(test)]
    pub(crate) fn busy_per_window_by_scan(&self, dt: f64) -> WindowedBusy {
        let span = self.makespan();
        let mut starts = Vec::new();
        let mut t = 0.0;
        while t < span {
            starts.push(t);
            t += dt;
        }
        let busy = (0..self.num_devices() as u32)
            .map(|d| {
                starts
                    .iter()
                    .map(|&t0| self.busy_in_window(d, t0, t0 + dt))
                    .collect()
            })
            .collect();
        WindowedBusy { starts, busy }
    }

    /// Mean utilization across devices within `[t0, t1]`. Requires segment
    /// recording. Scans every segment once per device, so like
    /// [`Timeline::busy_in_window`] it is not for per-window loops.
    pub fn mean_utilization_in_window(&self, t0: f64, t1: f64) -> f64 {
        assert!(
            self.record_segments,
            "windowed utilization needs segment recording"
        );
        let n = self.num_devices();
        if n == 0 || t1 <= t0 {
            return 0.0;
        }
        let total: f64 = (0..n as u32).map(|d| self.busy_in_window(d, t0, t1)).sum();
        total / ((t1 - t0) * n as f64)
    }

    /// CSV export: `device,start,end,kind,tag` per line, header included.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 * self.segments.len() + 32);
        out.push_str("device,start,end,kind,tag\n");
        for s in &self.segments {
            out.push_str(&format!(
                "{},{:.6},{:.6},{},{}\n",
                s.device,
                s.start,
                s.end,
                s.kind.label(),
                s.tag
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_without_recording() {
        let mut t = Timeline::new(false);
        t.record(0, 0.0, 1.0, SegmentKind::Prefill, 1);
        t.record(1, 0.5, 2.0, SegmentKind::Decode, 2);
        assert!(t.segments().is_empty());
        assert_eq!(t.busy_time(0), 1.0);
        assert_eq!(t.busy_time(1), 1.5);
        assert_eq!(t.makespan(), 2.0);
        assert!((t.mean_utilization() - (1.0 + 1.5) / (2.0 * 2.0)).abs() < 1e-12);
        assert!((t.bubble_ratio() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn windowed_utilization_clips_segments() {
        let mut t = Timeline::new(true);
        t.record(0, 0.0, 4.0, SegmentKind::Decode, 0);
        t.record(1, 1.0, 2.0, SegmentKind::Decode, 0);
        // Window [1, 3]: dev0 busy 2.0, dev1 busy 1.0 → (2+1)/(2*2)=0.75.
        assert!((t.mean_utilization_in_window(1.0, 3.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn window_sweep_matches_the_per_window_scan_bit_for_bit() {
        let mut t = Timeline::new(true);
        // Out-of-order appends on device 0, one spanning many windows.
        t.record(0, 5.0, 6.25, SegmentKind::Decode, 0);
        t.record(0, 1.05, 4.3, SegmentKind::Prefill, 1);
        t.record(0, 2.95, 3.05, SegmentKind::Decode, 2);
        // Window [0, 1] sums 0.3 + 0.04 + 0.05 in this order to
        // 0.38999999999999996; in start order it would be 0.39.
        t.record(0, 0.2, 0.5, SegmentKind::Decode, 7);
        t.record(0, 0.04, 0.08, SegmentKind::Decode, 8);
        t.record(0, 0.11, 0.16, SegmentKind::Decode, 9);
        // Zero-length segments, on and off a grid point.
        t.record(1, 1.0, 1.0, SegmentKind::Decode, 3);
        t.record(1, 0.7, 0.7, SegmentKind::Decode, 4);
        // Ends exactly on an edge of the accumulated 0.1 and 0.3 grids.
        let edge = |dt: f64, k: usize| (0..k).fold(0.0, |t, _| t + dt);
        t.record(1, 0.15, edge(0.1, 7), SegmentKind::Comm, 5);
        t.record(1, edge(0.3, 4), edge(0.3, 11), SegmentKind::Hybrid, 6);
        // Device 2 has nothing; device 3 only aggregate busy time.
        t.record_busy(3, 1.5, 0.0, 9.0);
        for dt in [0.1, 0.3, 1.0] {
            let fast = t.busy_per_window(dt);
            assert_eq!(fast.to_bits(), t.busy_per_window_by_scan(dt).to_bits());
            assert_eq!(fast.busy.len(), 4);
            // An idle window keeps the scan's sign of zero.
            for idle in &fast.busy[2..] {
                assert!(idle.iter().all(|b| b.to_bits() == (-0.0f64).to_bits()));
            }
            assert_eq!(fast.busy[0].last().unwrap().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn window_sweep_of_an_empty_timeline_is_empty() {
        let t = Timeline::new(true);
        let w = t.busy_per_window(1.0);
        assert!(w.starts.is_empty() && w.busy.is_empty());
    }

    #[test]
    fn empty_timeline_is_safe() {
        let t = Timeline::new(true);
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.mean_utilization(), 0.0);
        assert_eq!(t.utilization(3), 0.0);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Timeline::new(true);
        t.record(2, 0.25, 0.5, SegmentKind::Hybrid, 77);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "device,start,end,kind,tag");
        assert_eq!(lines.next().unwrap(), "2,0.250000,0.500000,hybrid,77");
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn negative_segment_panics() {
        Timeline::new(false).record(0, 1.0, 0.5, SegmentKind::Comm, 0);
    }

    #[test]
    fn record_busy_matches_per_segment_aggregates() {
        let mut per_seg = Timeline::new(false);
        per_seg.record(0, 0.0, 1.5, SegmentKind::Decode, 0);
        per_seg.record(0, 2.0, 3.0, SegmentKind::Decode, 1);
        per_seg.record(1, 0.5, 1.0, SegmentKind::Prefill, 0);
        let mut agg = Timeline::new(false);
        agg.record_busy(0, 1.5 + 1.0, 0.0, 3.0);
        agg.record_busy(1, 0.5, 0.5, 1.0);
        assert_eq!(per_seg.makespan(), agg.makespan());
        assert_eq!(per_seg.busy_time(0), agg.busy_time(0));
        assert_eq!(per_seg.busy_time(1), agg.busy_time(1));
        assert_eq!(per_seg.mean_utilization(), agg.mean_utilization());
        assert!(agg.segments().is_empty());
    }
}
