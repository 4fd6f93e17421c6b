//! Engine configuration shared by TD-Pipe and the baselines, plus the
//! TD-Pipe-specific policy knobs the ablation studies sweep.

use serde::{Deserialize, Serialize};
use tdpipe_sim::TransferMode;

/// Scheduler-agnostic engine parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Inter-stage transfer semantics. Conventional pipeline executors
    /// (vLLM's NCCL send/recv) use [`TransferMode::Rendezvous`] — the
    /// default here; TD-Pipe's hierarchy-controller decouples scheduling
    /// from execution and overrides this to [`TransferMode::Async`]
    /// (see [`TdPipeConfig::default`]).
    pub transfer_mode: TransferMode,
    /// Paged-attention block size in tokens.
    pub block_size: u32,
    /// Per-GPU bytes reserved for activations/workspace (subtracted from
    /// the KV budget, like vLLM's `gpu_memory_utilization` headroom).
    pub mem_reserve_bytes: u64,
    /// Maximum tokens packed into one separate-batching prefill batch.
    pub prefill_token_budget: u32,
    /// Token budget per hybrid-batching iteration (chunked prefill).
    pub chunk_token_budget: u32,
    /// Fixed control-plane cost per scheduling iteration (batch assembly,
    /// launch RPCs).
    pub engine_overhead: f64,
    /// Per-sequence control-plane cost per iteration (sampling-result
    /// processing, detokenisation, scheduler bookkeeping — the Python-side
    /// work a vLLM-0.5.x engine does between steps).
    pub control_per_seq: f64,
    /// Whether the control plane is decoupled from execution. Conventional
    /// engines (`false`) serialise all iterations' CPU work on one thread
    /// *on the critical path*; TD-Pipe's hierarchy-controller (`true`)
    /// overlaps it with GPU execution (§3.2), leaving only
    /// `engine_overhead` visible per launch.
    pub decoupled_control: bool,
    /// Maximum concurrently running sequences per scheduler instance
    /// (vLLM's `max_num_seqs`; stock default 256 in 0.5.x — what the
    /// paper's baselines ran with). `None` removes the cap; TD-Pipe's
    /// scheduler sizes batches from memory alone.
    pub max_num_seqs: Option<usize>,
    /// Maximum micro-batches a pipeline-parallel baseline keeps in flight
    /// simultaneously. vLLM 0.5.x's virtual engines could overlap in
    /// principle, but its Python driver processed outputs synchronously
    /// between steps, so in practice only a shallow overlap was achieved —
    /// the root of the paper's finding that PP baselines trail even TP on
    /// PCIe. `1` = strictly serial; `>= num_stages` = an idealised fully
    /// pipelined executor (what TD-Pipe's hierarchy-controller achieves).
    pub pp_inflight_limit: usize,
    /// Fraction of the *ideal* compute/memory overlap a fused hybrid
    /// (chunked-prefill + decode) iteration achieves. 1.0 = the chunk's
    /// compute hides perfectly under the decode's memory streaming;
    /// 0.0 = the two parts serialise (separate attention kernels, mixed
    /// batches falling off the paged-decode fast path). Real engines sit
    /// in between.
    pub hybrid_overlap: f64,
    /// Fraction of KV blocks kept free as admission watermark during
    /// prefill (guards against immediate thrashing).
    pub watermark: f64,
    /// Whether the pipeline simulator records per-segment timelines
    /// (needed for utilization-in-window and Gantt exports; costs memory).
    pub record_timeline: bool,
    /// Whether the engine samples the KV-occupancy trace (Fig. 12's data:
    /// one sample per prefill-batch completion and per decode-batch
    /// return). On by default to preserve figure artifacts; turn off for
    /// multi-million-request runs where the unbounded sample log is the
    /// largest allocation in the engine.
    pub record_occupancy: bool,
    /// Whether the scheduling flight recorder keeps a structured decision
    /// journal (`tdpipe-trace`). Off by default: a disabled recorder is a
    /// single-branch no-op, so default runs stay bit-identical. Enable
    /// together with [`EngineConfig::record_timeline`] to get device
    /// tracks in the Chrome-trace export.
    pub record_trace: bool,
    /// Whether the engine maintains the deterministic metrics plane
    /// (`tdpipe-metrics`): typed counters/gauges/histograms plus the
    /// virtual-time series sampler. Off by default: a disabled registry is
    /// a single-branch no-op per update, so default runs stay
    /// bit-identical. A `true` run is a pure observer — the schedule and
    /// report are unchanged (pinned in `tests/metrics_export.rs`).
    pub record_metrics: bool,
    /// Session-affine KV reuse across closed-loop turns (a session
    /// workload of `TdPipeEngine::run_workload`): when `true`, a finished
    /// turn's KV is retained for its session's next turn under the
    /// [`EngineConfig::session_retain_frac`] budget, and a resumed turn
    /// whose retained prefix survived prefills only its fresh suffix. When
    /// `false`, every turn pays a full prefill. Has no effect on
    /// non-session runs — their artifacts stay bit-identical either way.
    pub session_reuse: bool,
    /// Fraction of the KV pool that retained (idle-session) blocks may
    /// occupy. Retained blocks are reclaimed oldest-first when the budget
    /// or live admissions need the memory.
    pub session_retain_frac: f64,
    /// Overflow strategy during decode.
    pub preemption: PreemptionMode,
    /// Effective host-link bandwidth for KV swapping, bytes/s (only used
    /// by [`PreemptionMode::Swap`]).
    pub host_link_bw: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            transfer_mode: TransferMode::Rendezvous,
            block_size: 16,
            mem_reserve_bytes: 2 * (1 << 30),
            prefill_token_budget: 4096,
            chunk_token_budget: 512,
            engine_overhead: 1.0e-3,
            control_per_seq: 30.0e-6,
            decoupled_control: false,
            max_num_seqs: Some(1024),
            pp_inflight_limit: 2,
            hybrid_overlap: 0.55,
            watermark: 0.01,
            record_timeline: false,
            record_occupancy: true,
            record_trace: false,
            record_metrics: false,
            session_reuse: true,
            session_retain_frac: 0.5,
            preemption: PreemptionMode::Recompute,
            host_link_bw: 20.0e9,
        }
    }
}

/// What to do with a resident request when the KV pool overflows
/// mid-decode (§3.3 names both options: "frequent re-computation or
/// offloading").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptionMode {
    /// Free the KV and re-prefill prompt+generated later (the paper's
    /// §4.1 choice; wastes compute, no PCIe traffic).
    Recompute,
    /// Swap the KV to host memory and stream it back on re-admission
    /// (saves compute, pays the host link both ways).
    Swap,
}

/// Prefill→decode switch policy (paper §3.3 / Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum P2dPolicy {
    /// Algorithm 1: AI-based greedy prefill with future-KV simulation.
    Greedy,
    /// Ablation: switch once the KV occupancy ratio reaches a fixed
    /// threshold in `(0, 1]` (the "KV cache occupancy ratio"
    /// hyper-parameter of §4.4.1).
    FixedOccupancy(f64),
}

/// Decode→prefill switch policy (paper §3.5 / Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum D2pPolicy {
    /// Spatial-temporal intensity comparison.
    Intensity,
    /// Ablation: switch once a fixed fraction of the decode phase's
    /// starting requests have finished (the "request finish ratio"
    /// hyper-parameter of §4.4.3).
    FixedFinishRatio(f64),
}

/// TD-Pipe scheduler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdPipeConfig {
    /// Shared engine parameters.
    pub engine: EngineConfig,
    /// Prefill→decode switching policy.
    pub p2d: P2dPolicy,
    /// Decode→prefill switching policy.
    pub d2p: D2pPolicy,
    /// Inter-batch work stealing on/off (paper §3.4 / Fig. 15).
    pub work_stealing: bool,
    /// Use the LM-head-aware pipeline partition (an extension beyond the
    /// paper: shave layers off the last stage to offset its LM-head work,
    /// which otherwise bottlenecks every decode round for large-vocab or
    /// small-hidden models). Off by default for paper fidelity.
    pub lm_head_aware_partition: bool,
    /// Spacing of Algorithm 1's `futurePoints` in decode steps.
    pub future_point_stride: u32,
    /// Last `futurePoint` checked (the paper's example uses 32…1024).
    pub future_point_max: u32,
}

impl Default for TdPipeConfig {
    fn default() -> Self {
        TdPipeConfig {
            engine: EngineConfig {
                // The hierarchy-controller's decoupled control plane makes
                // stage-to-stage transfers non-blocking (§3.2).
                transfer_mode: TransferMode::Async,
                decoupled_control: true,
                max_num_seqs: None,
                pp_inflight_limit: usize::MAX,
                ..EngineConfig::default()
            },
            p2d: P2dPolicy::Greedy,
            d2p: D2pPolicy::Intensity,
            work_stealing: true,
            lm_head_aware_partition: false,
            future_point_stride: 32,
            future_point_max: 1024,
        }
    }
}

impl TdPipeConfig {
    /// The `futurePoints` grid (32, 64, …, 1024 by default).
    pub fn future_points(&self) -> Vec<u32> {
        (1..=self.future_point_max / self.future_point_stride)
            .map(|i| i * self.future_point_stride)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_future_points_match_paper_example() {
        let c = TdPipeConfig::default();
        let fp = c.future_points();
        assert_eq!(fp.first(), Some(&32));
        assert_eq!(fp.last(), Some(&1024));
        assert_eq!(fp.len(), 32);
        assert!(fp.windows(2).all(|w| w[1] - w[0] == 32));
    }

    #[test]
    fn configs_round_trip_through_json() {
        let c = TdPipeConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let d: TdPipeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, d);
        // Policy enums serialise too.
        let p = P2dPolicy::FixedOccupancy(0.8);
        let q: P2dPolicy = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn tdpipe_defaults_encode_the_architecture() {
        let c = TdPipeConfig::default();
        // Hierarchy-controller: async transfers + decoupled control.
        assert_eq!(c.engine.transfer_mode, tdpipe_sim::TransferMode::Async);
        assert!(c.engine.decoupled_control);
        assert!(c.engine.max_num_seqs.is_none());
        // Baseline defaults are the conventional-engine ones.
        let e = EngineConfig::default();
        assert_eq!(e.transfer_mode, tdpipe_sim::TransferMode::Rendezvous);
        assert!(!e.decoupled_control);
        assert!(e.max_num_seqs.is_some());
        assert!(e.pp_inflight_limit < 4);
    }

    #[test]
    fn defaults_are_sane() {
        let e = EngineConfig::default();
        assert!(e.block_size > 0);
        assert!(e.watermark < 0.5);
        assert!(e.engine_overhead < 0.1);
    }
}
