//! The offloading engine: single-GPU continuous batching with host-resident
//! KV, and the node-level contended run.

use crate::contention::{HostLink, NodeOffloadRun};
use crate::cost::OffloadCost;
use tdpipe_core::cohort::DecodeCohort;
use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::InfeasibleConfig;
use tdpipe_core::lane::{Recompute, RunState};
use tdpipe_core::request::RequestPool;
use tdpipe_hw::NodeSpec;
use tdpipe_model::{kv_budget_bytes, ModelSpec};
use tdpipe_sim::{PipelineSim, RunReport, SegmentKind, TransferMode};
use tdpipe_workload::Trace;

/// A FlexGen-style single-GPU engine: weights in HBM, KV in host memory.
///
/// Scheduling is plain continuous batching with prefill priority; the
/// batch-size limit comes from host *capacity* (huge) and `max_num_seqs`,
/// not GPU memory — the selling point of offloading — but every decode
/// step pays the host link (its downfall, §2.2.2).
#[derive(Debug, Clone)]
pub struct OffloadEngine {
    cfg: EngineConfig,
    cost: OffloadCost,
    host_kv_bytes: u64,
}

impl OffloadEngine {
    /// Plan an engine on one GPU of `node`, with `host_mem_bytes` of CPU
    /// memory dedicated to the KV pool. Fails if the *weights* don't fit
    /// the GPU (offloading here spills KV, not weights).
    pub fn new(
        model: ModelSpec,
        node: &NodeSpec,
        host_mem_bytes: u64,
        cfg: EngineConfig,
    ) -> Result<Self, InfeasibleConfig> {
        if kv_budget_bytes(node.gpu.mem_bytes, model.weight_bytes(), cfg.mem_reserve_bytes) == 0 {
            return Err(InfeasibleConfig {
                reason: format!(
                    "{} weights do not fit one {} (KV offloading spills cache, not weights)",
                    model.name, node.gpu.name
                ),
            });
        }
        Ok(OffloadEngine {
            cost: OffloadCost::new(model, node.kernel()),
            cfg,
            host_kv_bytes: host_mem_bytes,
        })
    }

    /// KV token capacity of the host pool.
    pub fn token_capacity(&self) -> u64 {
        self.host_kv_bytes / self.cost.model().kv_bytes_per_token()
    }

    /// Run one replica at a fixed effective host bandwidth. When decode
    /// growth overflows the host pool, the newest admission is evicted
    /// and recomputed, exactly as on the GPU-resident engines.
    pub fn run_at_bandwidth(&self, trace: &Trace, host_bw: f64) -> RunReport {
        let mut run = RunState::new(RequestPool::new(trace.requests(), |r| r.output_len));
        let blocks = self.host_kv_bytes
            / (self.cost.model().kv_bytes_per_token() * self.cfg.block_size as u64);
        let mut lane = run.single_lane(blocks, &self.cfg);
        let mut sim = PipelineSim::new(1, TransferMode::Async, self.cfg.record_timeline);
        let mut residents: Vec<usize> = Vec::new();
        let mut cohort = DecodeCohort::new(self.cfg.block_size);
        // Context tokens over `residents`, kept by the decode step.
        let mut ctx = 0u64;
        let (mut batch, mut lens) = (Vec::new(), Vec::new());
        let mut now = 0.0f64;
        let max_seqs = self.cfg.max_num_seqs.unwrap_or(usize::MAX);

        while !run.pool.all_finished() {
            batch.clear();
            if residents.len() < max_seqs {
                run.pack_prefill_batch(
                    &mut lane,
                    self.cfg.prefill_token_budget,
                    max_seqs - residents.len(),
                    now,
                    &mut batch,
                    &mut lens,
                    &mut Recompute,
                );
            }
            if !batch.is_empty() {
                let t = self.cost.prefill_time(&lens, host_bw);
                let timing = sim.launch_monolithic(now, t, SegmentKind::Prefill, 0);
                for &idx in &batch {
                    run.pool.note_first_token(idx, timing.finish);
                    ctx += run.bank(&mut cohort, idx);
                }
                now = timing.finish + self.cfg.engine_overhead;
                residents.extend_from_slice(&batch);
            } else if !residents.is_empty() {
                let t = self.cost.decode_time(residents.len(), ctx, host_bw);
                let timing = sim.launch_monolithic(now, t, SegmentKind::Decode, 1);
                now = timing.finish + self.cfg.engine_overhead;
                run.advance_decode_cohort(
                    &mut lane,
                    &mut cohort,
                    &mut residents,
                    timing.finish,
                    &mut ctx,
                    &mut Recompute,
                );
            } else {
                panic!("request exceeds host KV pool");
            }
        }

        run.pool.assert_conserved();
        let makespan = sim.drained_at();
        let timeline = sim.into_timeline();
        RunReport {
            scheduler: "Offload".into(),
            makespan,
            num_requests: run.pool.len(),
            input_tokens: run.pool.input_tokens,
            output_tokens: run.pool.output_tokens,
            recomputed_tokens: run.pool.recomputed_tokens,
            swapped_tokens: run.pool.swapped_tokens,
            phase_switches: 0,
            mean_utilization: timeline.mean_utilization(),
            latency: run.pool.latency_summary(),
        }
    }

    /// Run `replicas` independent copies of this engine on one node,
    /// splitting the trace evenly and sharing the host link: each replica
    /// sees `link.effective_bw(replicas)`.
    pub fn run_node(&self, trace: &Trace, replicas: u32, link: &HostLink) -> NodeOffloadRun {
        assert!(replicas >= 1, "need at least one replica");
        let bw = link.effective_bw(replicas);
        let mut makespan = 0.0f64;
        let mut tokens = 0u64;
        for r in 0..replicas as usize {
            let part: Vec<_> = trace
                .requests()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % replicas as usize == r)
                .map(|(_, req)| req.clone())
                .collect();
            if part.is_empty() {
                continue;
            }
            let part = Trace::new(part);
            let report = self.run_at_bandwidth(&part, bw);
            makespan = makespan.max(report.makespan);
            tokens += report.input_tokens + report.output_tokens;
        }
        NodeOffloadRun {
            replicas,
            makespan,
            throughput_total: tokens as f64 / makespan,
            effective_bw: bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    const GIB: u64 = 1 << 30;

    fn engine() -> OffloadEngine {
        OffloadEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(4),
            256 * GIB,
            EngineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn completes_and_conserves() {
        let t = ShareGptLikeConfig::small(80, 4).generate();
        let r = engine().run_at_bandwidth(&t, 20.0e9);
        assert_eq!(r.num_requests, 80);
        assert_eq!(r.output_tokens, t.total_output_tokens());
    }

    #[test]
    fn overflowing_the_host_pool_evicts_and_recomputes() {
        // 4 GiB of host KV holds about 5k Llama2-13B tokens, far less
        // than 80 requests grow to: decode must evict, not abort.
        let e = OffloadEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(1),
            4 * GIB,
            EngineConfig::default(),
        )
        .unwrap();
        let t = ShareGptLikeConfig::small(80, 4).generate();
        let r = e.run_at_bandwidth(&t, 20.0e9);
        assert_eq!(r.num_requests, 80);
        assert_eq!(r.output_tokens, t.total_output_tokens());
        assert!(r.recomputed_tokens > 0, "the pool must overflow");
    }

    #[test]
    fn host_pool_is_much_larger_than_gpu() {
        // 256 GB of host KV vs ~20 GB on-GPU: >10x the tokens.
        assert!(engine().token_capacity() > 300_000);
    }

    #[test]
    fn weights_must_fit_the_gpu() {
        let err = OffloadEngine::new(
            ModelSpec::llama2_70b(),
            &NodeSpec::l20(1),
            256 * GIB,
            EngineConfig::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("weights"));
    }

    #[test]
    fn contention_collapses_scaling() {
        // The §2.2.2 claim: 4 replicas on a commodity root complex deliver
        // far less than 4x one replica.
        let t = ShareGptLikeConfig::small(240, 8).generate();
        let e = engine();
        let link = HostLink::commodity_gen4();
        let one = e.run_node(&t, 1, &link);
        let four = e.run_node(&t, 4, &link);
        let scaling = four.throughput_total / one.throughput_total;
        assert!(
            scaling < 2.5,
            "offload scaling should collapse, got {scaling:.2}x"
        );
        // With an uncontended link the same layout scales fine.
        let four_ideal = e.run_node(&t, 4, &HostLink::uncontended());
        let ideal_scaling = four_ideal.throughput_total / one.throughput_total;
        assert!(ideal_scaling > scaling + 0.5, "ideal {ideal_scaling:.2}x");
    }
}
