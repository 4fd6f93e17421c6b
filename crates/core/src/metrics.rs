//! The engine's metrics handle: one struct owning the registry, every
//! pre-registered handle, and the virtual-time series sampler.
//!
//! Shared by the TD-Pipe engine and all four baselines (`tdpipe-baselines`
//! constructs one per run), so the whole system exports a single metric
//! taxonomy and `metrics-diff` can compare any two schedulers. Gated by
//! [`crate::config::EngineConfig::record_metrics`]: a disabled handle is a
//! single-branch no-op per call and exports an empty snapshot — a pure
//! observer either way (pinned in `tests/metrics_export.rs`).

use crate::exec::PlaneStats;
use tdpipe_kvcache::{AllocStats, Phase};
use tdpipe_metrics::{
    Counter, HistogramId, MetricsSnapshot, Registry, Series, SeriesPoint, SeriesSampler,
    DEFAULT_INTERVAL,
};
use tdpipe_sim::{RunReport, SegmentKind, Timeline};
use tdpipe_trace::{AdmitReason, EvictMode, PrefillStopReason};

fn admit_label(r: AdmitReason) -> &'static str {
    match r {
        AdmitReason::FirstPrefill => "first_prefill",
        AdmitReason::Recompute => "recompute",
        AdmitReason::SwapIn => "swap_in",
    }
}

fn stop_label(r: PrefillStopReason) -> &'static str {
    match r {
        PrefillStopReason::Overflow => "overflow",
        PrefillStopReason::Memory => "memory",
        PrefillStopReason::Arrival => "arrival",
        PrefillStopReason::Budget => "budget",
        PrefillStopReason::Exhausted => "exhausted",
    }
}

fn phase_label(p: Phase) -> &'static str {
    match p {
        Phase::Prefill => "prefill",
        Phase::Decode => "decode",
    }
}

/// The gauges the virtual-time sampler tracks, in order.
const SERIES: [&str; 4] = [
    "series_kv_occupancy",
    "series_inflight_decode_batches",
    "series_steal_withheld",
    "series_pending_requests",
];

/// Every instrumentation point the engines share, pre-registered so the
/// hot path is handle-indexed.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    reg: Registry,
    sampler: SeriesSampler,
    admit: [Counter; 3],
    admit_tokens: Counter,
    stop: [Counter; 5],
    evict_recompute: Counter,
    evict_swap: Counter,
    steal_withhold_events: Counter,
    steal_withheld_requests: Counter,
    steal_supplement_events: Counter,
    steal_supplemented_requests: Counter,
    switch_decisions: Counter,
    switch_margin: HistogramId,
    decode_steps: Counter,
    decode_batch_size: HistogramId,
    prefill_batches: Counter,
    prefill_batch_requests: HistogramId,
    prefill_batch_tokens: HistogramId,
    chunk_tokens: HistogramId,
    phase_count: [Counter; 2],
    phase_seconds: [HistogramId; 2],
}

impl EngineMetrics {
    /// Build the handle; `enabled` comes from
    /// [`crate::config::EngineConfig::record_metrics`].
    pub fn new(enabled: bool) -> Self {
        let mut reg = Registry::gated(enabled);
        let admit = [
            AdmitReason::FirstPrefill,
            AdmitReason::Recompute,
            AdmitReason::SwapIn,
        ]
        .map(|r| {
            reg.counter(
                "tdpipe_prefill_admit_total",
                "Prefill admissions by reason",
                &[("reason", admit_label(r))],
            )
        });
        let admit_tokens = reg.counter(
            "tdpipe_prefill_admit_tokens_total",
            "Prompt tokens admitted into prefill",
            &[],
        );
        let stop = [
            PrefillStopReason::Overflow,
            PrefillStopReason::Memory,
            PrefillStopReason::Arrival,
            PrefillStopReason::Budget,
            PrefillStopReason::Exhausted,
        ]
        .map(|r| {
            reg.counter(
                "tdpipe_prefill_stop_total",
                "Prefill packing/phase stops by reason",
                &[("reason", stop_label(r))],
            )
        });
        let evict_recompute = reg.counter(
            "tdpipe_evict_total",
            "Decode-overflow evictions by mode",
            &[("mode", "recompute")],
        );
        let evict_swap = reg.counter(
            "tdpipe_evict_total",
            "Decode-overflow evictions by mode",
            &[("mode", "swap")],
        );
        let steal_withhold_events = reg.counter(
            "tdpipe_steal_withhold_events_total",
            "Rebalance events that withheld requests",
            &[],
        );
        let steal_withheld_requests = reg.counter(
            "tdpipe_steal_withheld_requests_total",
            "Requests moved into the withheld pool",
            &[],
        );
        let steal_supplement_events = reg.counter(
            "tdpipe_steal_supplement_events_total",
            "Rebalance events that supplemented a batch",
            &[],
        );
        let steal_supplemented_requests = reg.counter(
            "tdpipe_steal_supplemented_requests_total",
            "Requests moved out of the withheld pool into batches",
            &[],
        );
        let switch_decisions = reg.counter(
            "tdpipe_switch_decisions_total",
            "Spatial-temporal decode-to-prefill comparisons evaluated",
            &[],
        );
        let switch_margin = reg.histogram(
            "tdpipe_switch_margin",
            "Absolute spatial-temporal score gap per comparison",
            &[],
        );
        let decode_steps = reg.counter(
            "tdpipe_decode_steps_total",
            "Decode batch-steps executed",
            &[],
        );
        let decode_batch_size = reg.histogram(
            "tdpipe_decode_batch_size",
            "Decode batch sizes at launch (requests)",
            &[],
        );
        let prefill_batches = reg.counter(
            "tdpipe_prefill_batches_total",
            "Prefill batches launched",
            &[],
        );
        let prefill_batch_requests = reg.histogram(
            "tdpipe_prefill_batch_requests",
            "Prefill batch sizes at launch (requests)",
            &[],
        );
        let prefill_batch_tokens = reg.histogram(
            "tdpipe_prefill_batch_tokens",
            "Prefill batch sizes at launch (prompt tokens)",
            &[],
        );
        let chunk_tokens = reg.histogram(
            "tdpipe_chunk_tokens",
            "Chunked-prefill chunk sizes (tokens, hybrid baselines)",
            &[],
        );
        let phase_count = [Phase::Prefill, Phase::Decode].map(|p| {
            reg.counter(
                "tdpipe_phase_total",
                "Completed engine phases by kind",
                &[("phase", phase_label(p))],
            )
        });
        let phase_seconds = [Phase::Prefill, Phase::Decode].map(|p| {
            reg.histogram(
                "tdpipe_phase_seconds",
                "Phase durations by kind (virtual seconds)",
                &[("phase", phase_label(p))],
            )
        });
        EngineMetrics {
            sampler: SeriesSampler::gated(enabled, DEFAULT_INTERVAL, &SERIES),
            reg,
            admit,
            admit_tokens,
            stop,
            evict_recompute,
            evict_swap,
            steal_withhold_events,
            steal_withheld_requests,
            steal_supplement_events,
            steal_supplemented_requests,
            switch_decisions,
            switch_margin,
            decode_steps,
            decode_batch_size,
            prefill_batches,
            prefill_batch_requests,
            prefill_batch_tokens,
            chunk_tokens,
            phase_count,
            phase_seconds,
        }
    }

    /// Whether the handle records anything (mirrors the config gate).
    pub fn is_enabled(&self) -> bool {
        self.reg.is_enabled()
    }

    pub fn on_prefill_admit(&mut self, reason: AdmitReason, tokens: u64) {
        let i = match reason {
            AdmitReason::FirstPrefill => 0,
            AdmitReason::Recompute => 1,
            AdmitReason::SwapIn => 2,
        };
        self.reg.inc(self.admit[i]);
        self.reg.add(self.admit_tokens, tokens);
    }

    pub fn on_prefill_stop(&mut self, reason: PrefillStopReason) {
        let i = match reason {
            PrefillStopReason::Overflow => 0,
            PrefillStopReason::Memory => 1,
            PrefillStopReason::Arrival => 2,
            PrefillStopReason::Budget => 3,
            PrefillStopReason::Exhausted => 4,
        };
        self.reg.inc(self.stop[i]);
    }

    /// A prefill batch was launched: `n` requests, `tokens` prompt tokens.
    pub fn on_prefill_batch(&mut self, n: usize, tokens: u64) {
        self.reg.inc(self.prefill_batches);
        self.reg.observe(self.prefill_batch_requests, n as f64);
        self.reg.observe(self.prefill_batch_tokens, tokens as f64);
    }

    /// A chunked-prefill chunk was scheduled (hybrid baselines).
    pub fn on_chunk(&mut self, tokens: u64) {
        self.reg.observe(self.chunk_tokens, tokens as f64);
    }

    /// A decode batch-step was launched with `batch` live requests.
    pub fn on_decode_step(&mut self, batch: usize) {
        self.reg.inc(self.decode_steps);
        self.reg.observe(self.decode_batch_size, batch as f64);
    }

    pub fn on_evict(&mut self, mode: EvictMode) {
        self.on_evictions(mode, 1);
    }

    /// Bulk eviction count — the baselines tally evictions inside their
    /// shared decode-advance helper and report the total once at finish.
    pub fn on_evictions(&mut self, mode: EvictMode, n: u64) {
        match mode {
            EvictMode::Recompute => self.reg.add(self.evict_recompute, n),
            EvictMode::Swap => self.reg.add(self.evict_swap, n),
        }
    }

    /// Outcome of one work-stealing rebalance.
    pub fn on_steal(&mut self, withheld: usize, supplemented: usize) {
        if withheld > 0 {
            self.reg.inc(self.steal_withhold_events);
            self.reg.add(self.steal_withheld_requests, withheld as u64);
        }
        if supplemented > 0 {
            self.reg.inc(self.steal_supplement_events);
            self.reg
                .add(self.steal_supplemented_requests, supplemented as u64);
        }
    }

    /// One spatial-temporal comparison with its score gap.
    pub fn on_switch_decision(&mut self, spatial: f64, temporal: f64) {
        self.reg.inc(self.switch_decisions);
        self.reg.observe(self.switch_margin, (spatial - temporal).abs());
    }

    /// A phase completed, spanning `start..end` virtual seconds.
    pub fn on_phase_end(&mut self, phase: Phase, start: f64, end: f64) {
        let i = match phase {
            Phase::Prefill => 0,
            Phase::Decode => 1,
        };
        self.reg.inc(self.phase_count[i]);
        self.reg.observe(self.phase_seconds[i], (end - start).max(0.0));
    }

    /// Fold in the session-KV reuse totals of a closed-loop run (a
    /// session workload of `TdPipeEngine::run_workload`). Registered
    /// lazily — only session runs call this, so non-session snapshots
    /// keep the baseline metric set byte-identical.
    pub fn on_session_summary(
        &mut self,
        stats: tdpipe_kvcache::RetainStats,
        reuse_misses: u64,
    ) {
        if !self.reg.is_enabled() {
            return;
        }
        let reg = &mut self.reg;
        let add = |reg: &mut Registry, name: &str, help: &str, v: u64| {
            let c = reg.counter(name, help, &[]);
            reg.add(c, v);
        };
        add(
            reg,
            "session_kv_retains_total",
            "Finished turns whose KV was retained for a successor",
            stats.retains,
        );
        add(
            reg,
            "session_reuse_hits_total",
            "Resumed turns admitted with their retained prefix resident",
            stats.claims,
        );
        add(
            reg,
            "session_reuse_misses_total",
            "Resumed turns admitted with no retained prefix (full prefill)",
            reuse_misses,
        );
        add(
            reg,
            "session_kv_drops_total",
            "Retained prefixes reclaimed before reuse (budget/pressure)",
            stats.drops,
        );
        add(
            reg,
            "session_reused_tokens_total",
            "Prefix tokens served from retained KV instead of prefill",
            stats.claimed_tokens,
        );
        let g = reg.gauge(
            "session_retained_blocks_high_water",
            "Most KV blocks ever held idle by retained session prefixes",
            &[],
        );
        reg.set(g, stats.retained_blocks_high_water as f64);
    }

    /// Feed the series sampler the engine's live state at virtual `now`.
    pub fn sample(
        &mut self,
        now: f64,
        kv_occupancy: f64,
        inflight_batches: usize,
        withheld: usize,
        pending: usize,
    ) {
        self.sampler.sample(
            now,
            &[
                kv_occupancy,
                inflight_batches as f64,
                withheld as f64,
                pending as f64,
            ],
        );
    }

    /// Finalise: fold in the run-level aggregates, allocator stats,
    /// per-stage activity, and plane stats, then export the snapshot.
    /// Consumes the handle — metrics are a per-run object.
    pub fn finish(
        mut self,
        report: &RunReport,
        alloc: AllocStats,
        kv_blocks: u64,
        timeline: &Timeline,
        plane: PlaneStats,
    ) -> MetricsSnapshot {
        if !self.reg.is_enabled() {
            return MetricsSnapshot::empty();
        }
        let reg = &mut self.reg;
        let set = |reg: &mut Registry, name: &str, help: &str, v: f64| {
            let g = reg.gauge(name, help, &[]);
            reg.set(g, v);
        };
        // Run-level headline quantities — the `metrics-diff` gate set.
        set(reg, "throughput_total", "Total tokens per second", report.throughput_total());
        set(reg, "throughput_output", "Output tokens per second", report.throughput_output());
        set(reg, "makespan", "Run makespan (virtual seconds)", report.makespan);
        set(reg, "mean_utilization", "Mean device busy fraction", report.mean_utilization);
        set(reg, "recompute_overhead", "Recomputed-token fraction", report.recompute_overhead());
        set(reg, "num_requests", "Requests served", report.num_requests as f64);
        set(reg, "input_tokens", "Prompt tokens served", report.input_tokens as f64);
        set(reg, "output_tokens", "Generated tokens served", report.output_tokens as f64);
        set(reg, "recomputed_tokens", "Tokens prefilled more than once", report.recomputed_tokens as f64);
        set(reg, "swapped_tokens", "Tokens moved over the host link", report.swapped_tokens as f64);
        set(reg, "phase_switches", "Prefill/decode phase switches", report.phase_switches as f64);
        if let Some(l) = &report.latency {
            set(reg, "ttft_p50", "Median time to first token (s)", l.ttft_p50);
            set(reg, "ttft_p95", "95th-percentile time to first token (s)", l.ttft_p95);
            set(reg, "tpot_p50", "Median time per output token (s)", l.tpot_p50);
            set(reg, "tpot_p95", "95th-percentile time per output token (s)", l.tpot_p95);
        }

        // KV allocator lifetime stats.
        let kv = |reg: &mut Registry, name: &str, help: &str, v: u64| {
            let c = reg.counter(name, help, &[]);
            reg.add(c, v);
        };
        kv(reg, "kv_alloc_total", "KV allocations", alloc.allocs);
        kv(reg, "kv_free_total", "KV frees", alloc.frees);
        kv(reg, "kv_extend_total", "KV extends (decode steps survived)", alloc.extends);
        kv(reg, "kv_oom_rejections_total", "KV operations rejected for memory", alloc.oom_rejections);
        let hw = reg.gauge(
            "kv_occupancy_high_water",
            "Peak fraction of KV blocks in use",
            &[],
        );
        let frac = if kv_blocks == 0 {
            1.0
        } else {
            alloc.used_blocks_high_water as f64 / kv_blocks as f64
        };
        reg.set(hw, frac);

        // Execution-plane stats: per-rank busy/idle virtual seconds (and
        // comm, when segments were kept) plus completion-queue depth.
        let span = timeline.makespan();
        for d in 0..timeline.num_devices() as u32 {
            let stage = d.to_string();
            let busy = timeline.busy_time(d);
            let g = reg.gauge(
                "stage_busy_seconds",
                "Per-stage busy virtual seconds",
                &[("stage", &stage)],
            );
            reg.set(g, busy);
            let g = reg.gauge(
                "stage_idle_seconds",
                "Per-stage idle virtual seconds within the run span",
                &[("stage", &stage)],
            );
            reg.set(g, (span - busy).max(0.0));
            let g = reg.gauge(
                "stage_busy_fraction",
                "Per-stage busy fraction of the run span",
                &[("stage", &stage)],
            );
            reg.set(g, timeline.utilization(d));
        }
        if !timeline.segments().is_empty() {
            // One pass, per-device append order; -0.0 is `f64: Sum`'s seed.
            let mut comm_per_device = vec![-0.0; timeline.num_devices()];
            for s in timeline.segments() {
                if s.kind == SegmentKind::Comm {
                    comm_per_device[s.device as usize] += s.end - s.start;
                }
            }
            for (d, comm) in comm_per_device.into_iter().enumerate() {
                let stage = d.to_string();
                let g = reg.gauge(
                    "stage_comm_seconds",
                    "Per-stage communication virtual seconds (segment-recorded runs)",
                    &[("stage", &stage)],
                );
                reg.set(g, comm);
            }
        }
        let g = reg.gauge(
            "plane_queue_depth_high_water",
            "Most jobs ever launched-but-uncollected at once",
            &[],
        );
        reg.set(g, plane.queue_depth_high_water as f64);

        // Close out the sampled series at the makespan and attach the
        // per-stage busy-fraction series derived on the same grid.
        self.sampler.finish(report.makespan);
        let mut series = self.sampler.into_series();
        series.extend(stage_busy_series(timeline, DEFAULT_INTERVAL));
        self.reg.snapshot_with(series)
    }
}

/// Per-stage busy fraction per grid interval, derived from recorded
/// timeline segments (empty when `record_timeline` was off). Interval
/// `[k·dt, (k+1)·dt)` gets the fraction of it the stage spent busy,
/// stamped at `k·dt` — the same virtual-time grid as the live sampler.
/// One pass over the segments ([`Timeline::busy_per_window`]).
pub fn stage_busy_series(timeline: &Timeline, dt: f64) -> Vec<Series> {
    if timeline.segments().is_empty() {
        return Vec::new();
    }
    let windows = timeline.busy_per_window(dt);
    windows
        .busy
        .iter()
        .enumerate()
        .map(|(d, totals)| Series {
            name: format!("series_stage_busy_fraction_{d}"),
            points: windows
                .starts
                .iter()
                .zip(totals)
                .map(|(&t, &busy)| SeriesPoint {
                    t,
                    v: (busy / dt).clamp(0.0, 1.0),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_exports_empty_and_ignores_everything() {
        let mut m = EngineMetrics::new(false);
        m.on_prefill_admit(AdmitReason::FirstPrefill, 100);
        m.on_decode_step(32);
        m.on_evict(EvictMode::Recompute);
        m.sample(5.0, 0.5, 4, 2, 10);
        let report = RunReport {
            scheduler: "x".into(),
            makespan: 10.0,
            num_requests: 1,
            input_tokens: 10,
            output_tokens: 10,
            recomputed_tokens: 0,
            swapped_tokens: 0,
            phase_switches: 1,
            mean_utilization: 0.5,
            latency: None,
        };
        let snap = m.finish(
            &report,
            AllocStats::default(),
            100,
            &Timeline::new(false),
            PlaneStats::default(),
        );
        assert!(snap.is_empty());
    }

    #[test]
    fn enabled_handle_exports_counters_and_gauges() {
        let mut m = EngineMetrics::new(true);
        m.on_prefill_admit(AdmitReason::FirstPrefill, 100);
        m.on_prefill_admit(AdmitReason::Recompute, 50);
        m.on_prefill_batch(2, 150);
        m.on_decode_step(32);
        m.on_steal(3, 0);
        m.on_switch_decision(0.9, 0.4);
        m.on_phase_end(Phase::Prefill, 0.0, 2.0);
        let report = RunReport {
            scheduler: "x".into(),
            makespan: 10.0,
            num_requests: 2,
            input_tokens: 150,
            output_tokens: 60,
            recomputed_tokens: 50,
            swapped_tokens: 0,
            phase_switches: 1,
            mean_utilization: 0.5,
            latency: None,
        };
        let snap = m.finish(
            &report,
            AllocStats {
                allocs: 3,
                frees: 2,
                extends: 40,
                oom_rejections: 1,
                used_blocks_high_water: 80,
            },
            100,
            &Timeline::new(false),
            PlaneStats {
                queue_depth_high_water: 4,
            },
        );
        assert_eq!(
            snap.scalar("throughput_total"),
            Some(report.throughput_total())
        );
        assert_eq!(snap.scalar("kv_alloc_total"), Some(3.0));
        assert_eq!(snap.scalar("kv_occupancy_high_water"), Some(0.8));
        assert_eq!(snap.scalar("plane_queue_depth_high_water"), Some(4.0));
        let admits = snap
            .get_labeled("tdpipe_prefill_admit_total", &[("reason", "recompute")])
            .expect("labelled admit counter");
        assert_eq!(
            admits.value,
            tdpipe_metrics::MetricValue::Counter(1)
        );
        // Session counters are lazily registered: a run that never calls
        // on_session_summary exports none of them.
        assert!(snap.scalar("session_reuse_hits_total").is_none());
    }

    #[test]
    fn session_summary_registers_lazily_and_exports() {
        let mut m = EngineMetrics::new(true);
        m.on_session_summary(
            tdpipe_kvcache::RetainStats {
                retains: 10,
                claims: 7,
                drops: 3,
                claimed_tokens: 1400,
                retained_blocks_high_water: 55,
            },
            2,
        );
        let report = RunReport {
            scheduler: "x".into(),
            makespan: 1.0,
            num_requests: 1,
            input_tokens: 1,
            output_tokens: 1,
            recomputed_tokens: 0,
            swapped_tokens: 0,
            phase_switches: 1,
            mean_utilization: 0.5,
            latency: None,
        };
        let snap = m.finish(
            &report,
            AllocStats::default(),
            100,
            &Timeline::new(false),
            PlaneStats::default(),
        );
        assert_eq!(snap.scalar("session_kv_retains_total"), Some(10.0));
        assert_eq!(snap.scalar("session_reuse_hits_total"), Some(7.0));
        assert_eq!(snap.scalar("session_reuse_misses_total"), Some(2.0));
        assert_eq!(snap.scalar("session_kv_drops_total"), Some(3.0));
        assert_eq!(snap.scalar("session_reused_tokens_total"), Some(1400.0));
        assert_eq!(
            snap.scalar("session_retained_blocks_high_water"),
            Some(55.0)
        );
    }
}
