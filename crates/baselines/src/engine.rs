//! The baseline engine: one driver over a [`Layout`] and a [`Batching`]
//! policy (see the crate docs for the grid).

use std::collections::VecDeque;
use std::ops::Deref;
use tdpipe_core::cohort::DecodeCohort;
use tdpipe_core::config::EngineConfig;
use tdpipe_core::control::ControlPlane;
use tdpipe_core::cost::{PpCost, StagedJob, TpCost};
use tdpipe_core::engine::InfeasibleConfig;
use tdpipe_core::exec::PlaneStats;
use tdpipe_core::lane::{idle_advance, Lane, Recompute, RunState};
use tdpipe_core::metrics::EngineMetrics;
use tdpipe_core::plan::MemoryPlan;
use tdpipe_core::request::RequestPool;
use tdpipe_hw::NodeSpec;
use tdpipe_kvcache::AllocStats;
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{PipelineSim, RunReport, SegmentKind, Timeline, TransferMode};
use tdpipe_trace::EvictMode;
use tdpipe_workload::Trace;

/// How the node's GPUs share the model: the memory plan, the cost model,
/// the number of scheduler lanes and the simulated devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Tensor parallelism: every layer is sharded and all GPUs advance in
    /// lockstep through all-reduces, so the node is one lane on one
    /// simulated device.
    Tensor,
    /// Pipeline parallelism: one stage of layers per GPU and one lane
    /// (vLLM virtual engine) per stage.
    Pipeline,
}

/// How an idle slot fills its next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// vLLM's default: a prefill-only batch when the lane's head has
    /// arrived and fits, otherwise one decode step over the residents.
    Separate,
    /// Sarathi-style chunked prefill: every resident decodes one token
    /// and prefill chunks fill the rest of `chunk_token_budget`.
    Hybrid,
}

/// The layout's cost model.
#[derive(Debug, Clone)]
enum Cost {
    Tensor(TpCost),
    Pipeline(PpCost),
}

/// The work one launch carries.
enum Work<'s> {
    /// A prefill-only batch of these prompt lengths.
    Prefill(&'s [u32]),
    /// One decode step over `batch` residents holding `ctx` tokens.
    Decode { batch: usize, ctx: u64 },
    /// One hybrid iteration: a decode step plus `(chunk, cached prefix)`
    /// prefill chunks.
    Hybrid {
        batch: usize,
        ctx: u64,
        chunks: &'s [(u32, u32)],
    },
}

impl Work<'_> {
    /// Residents the launch decodes.
    fn decodes(&self) -> usize {
        match *self {
            Work::Prefill(_) => 0,
            Work::Decode { batch, .. } | Work::Hybrid { batch, .. } => batch,
        }
    }

    /// The timeline class of the launch.
    fn kind(&self) -> SegmentKind {
        match self {
            Work::Prefill(_) => SegmentKind::Prefill,
            Work::Decode { .. } => SegmentKind::Decode,
            Work::Hybrid { batch, chunks, .. } => match (*batch > 0, !chunks.is_empty()) {
                (true, true) => SegmentKind::Hybrid,
                (true, false) => SegmentKind::Decode,
                _ => SegmentKind::Prefill,
            },
        }
    }
}

/// Per-run scratch the policies fill, reused across launches.
#[derive(Default)]
struct Scratch {
    /// The packed prefill batch's sequence lengths (hybrid batching
    /// packs one prompt at a time and chunks it).
    lens: Vec<u32>,
    /// Hybrid batching: `(chunk_len, cached_prefix)` pairs.
    chunks: Vec<(u32, u32)>,
}

/// One scheduler slot (a vLLM virtual engine under PP, the whole node
/// under TP): its running set, and at most one job in flight.
struct Slot {
    residents: Vec<usize>,
    /// Running context-token total over `residents` (no per-step rescan).
    ctx: u64,
    /// Hybrid batching: admitted prompts still being chunked, as
    /// `(pool index, prompt tokens already chunked)`.
    prefilling: VecDeque<(usize, u32)>,
    busy: bool,
    /// Event-driven decode state for `residents`: a step is O(finishers),
    /// not O(residents) — see `tdpipe_core::cohort`.
    cohort: DecodeCohort,
}

/// A launched job, waiting for its completion.
struct InFlight {
    slot: usize,
    finish: f64,
    /// Residents the job decodes: the slot's whole running set, which
    /// stays put while the slot is busy.
    decodes: usize,
    /// Prompts whose prefill the job finishes.
    prefilled: Vec<usize>,
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Aggregate metrics.
    pub report: RunReport,
    /// Device activity (single lock-step device for TP layouts).
    pub timeline: Timeline,
    /// Metrics-plane snapshot (empty unless `record_metrics`).
    pub metrics: MetricsSnapshot,
}

/// One of the paper's §4.1 baselines: a [`Layout`] and a [`Batching`]
/// policy over the shared KV allocator, recompute eviction, control plane
/// and pipeline simulator.
#[derive(Debug, Clone)]
pub struct BaselineEngine {
    batching: Batching,
    cfg: EngineConfig,
    cost: Cost,
    plan: MemoryPlan,
}

impl BaselineEngine {
    /// Plan the engine; fails when a tensor shard or a pipeline stage
    /// cannot hold its weights.
    pub fn new(
        layout: Layout,
        batching: Batching,
        model: ModelSpec,
        node: &NodeSpec,
        cfg: EngineConfig,
    ) -> Result<Self, InfeasibleConfig> {
        let (plan, what) = match layout {
            Layout::Tensor => (
                MemoryPlan::tensor(&model, node, cfg.block_size, cfg.mem_reserve_bytes),
                "tensor shards",
            ),
            Layout::Pipeline => (
                MemoryPlan::pipeline(&model, node, cfg.block_size, cfg.mem_reserve_bytes),
                "pipeline stages",
            ),
        };
        let plan = plan.ok_or_else(|| InfeasibleConfig {
            reason: format!(
                "{} does not fit {}x{} {what}",
                model.name, node.num_gpus, node.gpu.name
            ),
        })?;
        let cost = match layout {
            Layout::Tensor => Cost::Tensor(TpCost::new(model, node)),
            Layout::Pipeline => Cost::Pipeline(PpCost::new(model, node)),
        };
        Ok(BaselineEngine {
            batching,
            cfg,
            cost,
            plan,
        })
    }

    /// The planned KV pool (aggregate across lanes).
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The paper's name for this baseline, e.g. `"PP+HB"`.
    pub fn name(&self) -> &'static str {
        match (&self.cost, self.batching) {
            (Cost::Tensor(_), Batching::Separate) => "TP+SB",
            (Cost::Tensor(_), Batching::Hybrid) => "TP+HB",
            (Cost::Pipeline(_), Batching::Separate) => "PP+SB",
            (Cost::Pipeline(_), Batching::Hybrid) => "PP+HB",
        }
    }

    /// Scheduler lanes: one per pipeline stage, one for the TP node.
    fn lanes(&self) -> usize {
        match &self.cost {
            Cost::Tensor(_) => 1,
            Cost::Pipeline(c) => c.num_stages() as usize,
        }
    }

    /// The simulated devices: one lock-step device under TP, one per
    /// stage under PP.
    fn sim(&self) -> PipelineSim {
        match &self.cost {
            Cost::Tensor(_) => PipelineSim::new(1, TransferMode::Async, self.cfg.record_timeline),
            Cost::Pipeline(c) => PipelineSim::new(
                c.num_stages(),
                self.cfg.transfer_mode,
                self.cfg.record_timeline,
            ),
        }
    }

    /// Price `work` (which finishes `completed` prompts) and launch it on
    /// `sim` at `now`; returns its finish time.
    fn launch(
        &self,
        sim: &mut PipelineSim,
        job: &mut StagedJob,
        work: &Work,
        completed: usize,
        slot: usize,
        now: f64,
    ) -> f64 {
        let kind = work.kind();
        let tag = slot as u64;
        match &self.cost {
            Cost::Tensor(c) => {
                let t = match *work {
                    Work::Prefill(lens) => c.prefill_time(lens),
                    Work::Decode { batch, ctx } => c.decode_time(batch, ctx),
                    Work::Hybrid { batch, ctx, chunks } => {
                        c.hybrid_time(batch, ctx, chunks, completed, self.cfg.hybrid_overlap)
                    }
                };
                sim.launch_monolithic(now, t, kind, tag).finish
            }
            Cost::Pipeline(c) => {
                match *work {
                    Work::Prefill(lens) => c.prefill_job_into(lens, job),
                    Work::Decode { batch, ctx } => c.decode_job_into(batch, ctx, job),
                    Work::Hybrid { batch, ctx, chunks } => c.hybrid_job_into(
                        batch,
                        ctx,
                        chunks,
                        completed,
                        self.cfg.hybrid_overlap,
                        job,
                    ),
                }
                sim.launch(now, &job.exec, &job.xfer, kind, tag).finish
            }
        }
    }

    /// Separate batching: a prefill batch while the head has arrived and
    /// fits, otherwise a decode step; `None` leaves the slot idle.
    fn fill_separate<'s>(
        &self,
        slot: &Slot,
        lane: &mut Lane,
        st: &mut RunState,
        scratch: &'s mut Scratch,
        now: f64,
    ) -> Option<(Work<'s>, Vec<usize>)> {
        let max_seqs = self.cfg.max_num_seqs.unwrap_or(usize::MAX);
        let mut batch = Vec::new();
        if slot.residents.len() < max_seqs {
            st.pack_prefill_batch(
                lane,
                self.cfg.prefill_token_budget,
                max_seqs - slot.residents.len(),
                now,
                &mut batch,
                &mut scratch.lens,
                &mut Recompute,
            );
        }
        if !batch.is_empty() {
            Some((Work::Prefill(&scratch.lens), batch))
        } else if !slot.residents.is_empty() {
            let work = Work::Decode {
                batch: slot.residents.len(),
                ctx: slot.ctx,
            };
            Some((work, batch))
        } else {
            None
        }
    }

    /// Hybrid batching: every resident decodes, and prefill chunks of
    /// admitted prompts (admitting more as they arrive and fit) fill the
    /// token budget; `None` leaves the slot idle.
    fn fill_hybrid<'s>(
        &self,
        slot: &mut Slot,
        lane: &mut Lane,
        st: &mut RunState,
        scratch: &'s mut Scratch,
        now: f64,
    ) -> Option<(Work<'s>, Vec<usize>)> {
        let max_seqs = self.cfg.max_num_seqs.unwrap_or(usize::MAX);
        let batch = slot.residents.len();
        let mut budget = self.cfg.chunk_token_budget.saturating_sub(batch as u32);
        let chunks = &mut scratch.chunks;
        chunks.clear();
        let mut completed: Vec<usize> = Vec::new();
        let mut admitted = Vec::new();
        while budget > 0 {
            if slot.prefilling.is_empty() {
                // Admit the next prompt whole; its chunks follow below.
                if batch + completed.len() < max_seqs {
                    st.pack_prefill_batch(
                        lane,
                        u32::MAX,
                        1,
                        now,
                        &mut admitted,
                        &mut scratch.lens,
                        &mut Recompute,
                    );
                }
                let Some(&idx) = admitted.first() else {
                    break;
                };
                admitted.clear();
                slot.prefilling.push_back((idx, 0));
            }
            let (idx, done) = *slot.prefilling.front().expect("nonempty");
            let total = st.pool.prefill_tokens(idx);
            let c = (total - done).min(budget);
            chunks.push((c, done));
            budget -= c;
            if done + c == total {
                slot.prefilling.pop_front();
                completed.push(idx);
            } else {
                slot.prefilling.front_mut().expect("nonempty").1 = done + c;
            }
        }
        if batch == 0 && chunks.is_empty() {
            return None;
        }
        let work = Work::Hybrid {
            batch,
            ctx: slot.ctx,
            chunks,
        };
        Some((work, completed))
    }

    /// Run over a trace. The predictor is unused (neither batching policy
    /// needs length estimates) but accepted for interface uniformity.
    pub fn run<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        predictor: &P,
    ) -> BaselineOutcome {
        self.run_with_arrivals(trace, &[], predictor)
    }

    /// Run with per-request arrival times (empty slice = all at t = 0).
    pub fn run_with_arrivals<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        _predictor: &P,
    ) -> BaselineOutcome {
        assert!(
            arrivals.is_empty() || arrivals.len() == trace.len(),
            "one arrival per request"
        );
        let n = self.lanes();
        let pool = RequestPool::with_arrivals(trace.requests(), arrivals, |r| r.output_len);
        let mut st = RunState::new(pool);
        let mut lanes = st.make_lanes(n, self.plan.kv_blocks, &self.cfg);
        let mut sim = self.sim();
        let mut slots: Vec<Slot> = (0..n)
            .map(|_| Slot {
                residents: Vec::new(),
                ctx: 0,
                prefilling: VecDeque::new(),
                busy: false,
                cohort: DecodeCohort::new(self.cfg.block_size),
            })
            .collect();
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut scratch = Scratch::default();
        let mut job = StagedJob::default();
        let mut ctrl = ControlPlane::new(&self.cfg);
        let mut metrics = EngineMetrics::new(self.cfg.record_metrics);
        let mut now = 0.0f64;
        let limit = self.cfg.pp_inflight_limit.max(1);
        // The slot the round robin offers first: the one after the last
        // completion, so virtual engines take turns.
        let mut first = 0;

        loop {
            // Keep at most `pp_inflight_limit` jobs in flight.
            for off in 0..n {
                if inflight.len() >= limit {
                    break;
                }
                let s = (first + off) % n;
                let slot = &mut slots[s];
                if slot.busy {
                    continue;
                }
                let lane = &mut lanes[s];
                let filled = match self.batching {
                    Batching::Separate => {
                        self.fill_separate(slot, lane, &mut st, &mut scratch, now)
                    }
                    Batching::Hybrid => self.fill_hybrid(slot, lane, &mut st, &mut scratch, now),
                };
                let Some((work, prefilled)) = filled else {
                    continue;
                };
                if metrics.is_enabled() {
                    if work.decodes() > 0 {
                        metrics.on_decode_step(work.decodes());
                    }
                    if let Work::Hybrid { chunks, .. } = work {
                        for &(c, _) in chunks {
                            metrics.on_chunk(c as u64);
                        }
                    }
                    if !prefilled.is_empty() {
                        let tokens = prefilled
                            .iter()
                            .map(|&i| st.pool.prefill_tokens(i) as u64)
                            .sum();
                        metrics.on_prefill_batch(prefilled.len(), tokens);
                    }
                }
                let finish = self.launch(&mut sim, &mut job, &work, prefilled.len(), s, now);
                inflight.push_back(InFlight {
                    slot: s,
                    finish,
                    decodes: work.decodes(),
                    prefilled,
                });
                slot.busy = true;
            }

            let Some(done) = inflight.pop_front() else {
                if st.pool.all_finished() {
                    break;
                }
                now = idle(&lanes, &st, now);
                first = 0;
                continue;
            };
            let (slot, lane) = (&mut slots[done.slot], &mut lanes[done.slot]);
            slot.busy = false;
            // The control plane processes every sequence that returned a
            // token: the decoded residents and the finished prompts.
            now = ctrl.process(done.finish, done.decodes + done.prefilled.len());
            if done.decodes > 0 {
                st.advance_decode_cohort(
                    lane,
                    &mut slot.cohort,
                    &mut slot.residents,
                    done.finish,
                    &mut slot.ctx,
                    &mut Recompute,
                );
            }
            for &idx in &done.prefilled {
                st.pool.note_first_token(idx, done.finish);
                slot.ctx += st.bank(&mut slot.cohort, idx);
            }
            slot.residents.extend(done.prefilled);
            if metrics.is_enabled() {
                let used: u64 = lanes.iter().map(|l| l.alloc.used_blocks()).sum();
                let total: u64 = lanes.iter().map(|l| l.alloc.num_blocks()).sum();
                let occ = if total == 0 {
                    1.0
                } else {
                    used as f64 / total as f64
                };
                metrics.sample(now, occ, inflight.len(), 0, RunState::total_pending(&lanes));
            }
            first = done.slot + 1;
        }

        st.pool.assert_conserved();
        metrics.on_evictions(EvictMode::Recompute, st.evictions);
        let makespan = sim.drained_at();
        let timeline = sim.into_timeline();
        let report = RunReport {
            scheduler: self.name().into(),
            makespan,
            num_requests: st.pool.len(),
            input_tokens: st.pool.input_tokens,
            output_tokens: st.pool.output_tokens,
            recomputed_tokens: st.pool.recomputed_tokens,
            swapped_tokens: st.pool.swapped_tokens,
            phase_switches: 0,
            mean_utilization: timeline.mean_utilization(),
            latency: st.pool.latency_summary(),
        };
        let alloc = lanes
            .iter()
            .fold(AllocStats::default(), |a, l| a.merged(l.alloc.stats()));
        let metrics = metrics.finish(
            &report,
            alloc,
            self.plan.kv_blocks,
            &timeline,
            PlaneStats::default(),
        );
        BaselineOutcome {
            report,
            timeline,
            metrics,
        }
    }
}

/// Nothing runs and nothing is in flight: jump the clock to the earliest
/// pending arrival (the shared idle-advance invariant panics on a
/// non-finite one). A head that has already arrived and is still refused
/// can never fit its lane.
fn idle(lanes: &[Lane], st: &RunState, now: f64) -> f64 {
    let next_arrival = lanes
        .iter()
        .filter_map(|l| l.pending.front().map(|&i| st.pool.arrival(i)))
        .fold(f64::INFINITY, f64::min);
    if next_arrival > now {
        return idle_advance(
            next_arrival,
            now,
            RunState::total_pending(lanes),
            st.pool.finished(),
            st.pool.len(),
        );
    }
    let (idx, lane) = lanes
        .iter()
        .find_map(|l| {
            l.pending
                .front()
                .filter(|&&i| st.pool.arrival(i) <= now)
                .map(|&i| (i, l))
        })
        .expect("the earliest arrival is a pending head");
    panic!(
        "request {} ({} tokens) exceeds its lane's KV capacity ({} tokens)",
        st.pool.id(idx),
        st.pool.prefill_tokens(idx),
        lane.alloc.num_blocks() * lane.alloc.block_size() as u64,
    );
}

/// A named baseline: a [`BaselineEngine`] with its layout and batching
/// fixed.
macro_rules! named_baseline {
    ($(#[$doc:meta])* $name:ident = $layout:ident + $batching:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name(BaselineEngine);

        impl $name {
            /// Plan the engine; fails when the model does not fit the
            /// layout.
            pub fn new(
                model: ModelSpec,
                node: &NodeSpec,
                cfg: EngineConfig,
            ) -> Result<Self, InfeasibleConfig> {
                BaselineEngine::new(Layout::$layout, Batching::$batching, model, node, cfg)
                    .map($name)
            }
        }

        impl Deref for $name {
            type Target = BaselineEngine;

            fn deref(&self) -> &BaselineEngine {
                &self.0
            }
        }
    };
}

named_baseline! {
    /// **TP+SB**, vLLM's default: the node behaves as one serial resource
    /// and runs a prefill-only batch whenever waiting requests fit,
    /// otherwise one decode step over every resident request.
    TpSbEngine = Tensor + Separate
}

named_baseline! {
    /// **TP+HB**: every iteration carries all resident decodes plus
    /// prefill chunks up to the token budget. Chunked prefill re-reads the
    /// chunk's cached prefix each iteration, and the fused iteration only
    /// partially overlaps prefill compute with decode memory streaming
    /// (`EngineConfig::hybrid_overlap`).
    TpHbEngine = Tensor + Hybrid
}

named_baseline! {
    /// **PP+SB**: `num_stages` slots (vLLM virtual engines) each run
    /// separate batching over a private lane. Requests are bound to a slot
    /// up front and KV blocks are divided evenly, so random completions
    /// skew slot batch sizes with no way to rebalance, and prefill jobs
    /// interleave with decode steps; both feed the Figure 1 bubbles.
    PpSbEngine = Pipeline + Separate
}

named_baseline! {
    /// **PP+HB**: each slot issues token-budgeted hybrid iterations over a
    /// private lane. Chunking equalises iteration *shapes* across slots —
    /// the paper's §2.3 observation that PP+HB beats PP+SB — but pays
    /// repeated prefix-KV reads, partial compute/memory overlap, and the
    /// same statically-bound batch imbalance as PP+SB.
    PpHbEngine = Pipeline + Hybrid
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{ArrivalProcess, ShareGptLikeConfig};

    const GRID: [(Layout, Batching); 4] = [
        (Layout::Tensor, Batching::Separate),
        (Layout::Tensor, Batching::Hybrid),
        (Layout::Pipeline, Batching::Separate),
        (Layout::Pipeline, Batching::Hybrid),
    ];

    fn engine(
        layout: Layout,
        batching: Batching,
        node: &NodeSpec,
        cfg: EngineConfig,
    ) -> BaselineEngine {
        BaselineEngine::new(layout, batching, ModelSpec::llama2_13b(), node, cfg).unwrap()
    }

    #[test]
    fn completes_and_conserves() {
        let t = ShareGptLikeConfig::small(64, 9).generate();
        for (layout, batching) in GRID {
            let e = engine(layout, batching, &NodeSpec::l20(4), EngineConfig::default());
            let out = e.run(&t, &OraclePredictor);
            assert_eq!(out.report.num_requests, 64);
            assert_eq!(out.report.scheduler, e.name());
            assert!(out.report.throughput_total() > 0.0);
        }
    }

    #[test]
    fn named_engines_fix_their_policy() {
        let (m, node, cfg) = (
            ModelSpec::llama2_13b(),
            NodeSpec::l20(2),
            EngineConfig::default(),
        );
        assert_eq!(
            TpSbEngine::new(m.clone(), &node, cfg.clone())
                .unwrap()
                .name(),
            "TP+SB"
        );
        assert_eq!(
            TpHbEngine::new(m.clone(), &node, cfg.clone())
                .unwrap()
                .name(),
            "TP+HB"
        );
        assert_eq!(
            PpSbEngine::new(m.clone(), &node, cfg.clone())
                .unwrap()
                .name(),
            "PP+SB"
        );
        assert_eq!(PpHbEngine::new(m, &node, cfg).unwrap().name(), "PP+HB");
    }

    #[test]
    fn infeasible_shard_rejected() {
        let err = TpSbEngine::new(
            ModelSpec::llama2_70b(),
            &NodeSpec::a100(1),
            EngineConfig::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("tensor"));
    }

    #[test]
    fn deterministic() {
        let t = ShareGptLikeConfig::small(100, 5).generate();
        for (layout, batching) in GRID {
            let e = engine(layout, batching, &NodeSpec::l20(2), EngineConfig::default());
            assert_eq!(
                e.run(&t, &OraclePredictor).report,
                e.run(&t, &OraclePredictor).report
            );
        }
    }

    #[test]
    fn oversized_request_is_a_clean_panic() {
        // A prompt no lane can ever hold must fail loudly, not hang or
        // advance the clock forever.
        let mut requests = ShareGptLikeConfig::small(3, 1)
            .generate()
            .requests()
            .to_vec();
        requests[1].input_len = 2_000_000;
        let t = Trace::new(requests);
        for (layout, batching) in GRID {
            let e = engine(layout, batching, &NodeSpec::l20(2), EngineConfig::default());
            let err = catch_unwind(AssertUnwindSafe(|| e.run(&t, &OraclePredictor)))
                .expect_err("an oversized request must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("exceeds its lane's KV capacity"),
                "{}: {msg:?}",
                e.name()
            );
        }
    }

    #[test]
    fn seq_cap_binds_batch_size() {
        // With a small max_num_seqs the run takes longer than unbounded.
        let t = ShareGptLikeConfig::small(300, 7).generate();
        let node = NodeSpec::a100(4);
        let capped = EngineConfig {
            max_num_seqs: Some(32),
            ..EngineConfig::default()
        };
        let a = engine(Layout::Tensor, Batching::Separate, &node, capped).run(&t, &OraclePredictor);
        let b = engine(
            Layout::Tensor,
            Batching::Separate,
            &node,
            EngineConfig::default(),
        )
        .run(&t, &OraclePredictor);
        assert!(a.report.makespan > b.report.makespan);
    }

    #[test]
    fn chunking_tracks_prefill_progress() {
        // Tighter chunk budgets mean more iterations per prompt and more
        // prefix re-reads, so makespan must not improve.
        let t = ShareGptLikeConfig::small(40, 11).generate();
        let small = EngineConfig {
            chunk_token_budget: 256,
            ..EngineConfig::default()
        };
        let big = EngineConfig {
            chunk_token_budget: 8192,
            ..EngineConfig::default()
        };
        let node = NodeSpec::l20(2);
        let a = engine(Layout::Tensor, Batching::Hybrid, &node, small).run(&t, &OraclePredictor);
        let b = engine(Layout::Tensor, Batching::Hybrid, &node, big).run(&t, &OraclePredictor);
        assert!(a.report.makespan > b.report.makespan * 0.8);
    }

    #[test]
    fn pp_sb_suffers_visible_bubbles_at_four_stages() {
        let t = ShareGptLikeConfig::small(400, 21).generate();
        let cfg = EngineConfig {
            record_timeline: true,
            ..EngineConfig::default()
        };
        let out = engine(Layout::Pipeline, Batching::Separate, &NodeSpec::l20(4), cfg)
            .run(&t, &OraclePredictor);
        // The Figure 2 phenomenon: mixed prefill/decode pipelining with
        // statically-bound lanes leaves real idle time.
        assert!(
            out.report.mean_utilization < 0.9,
            "util {}",
            out.report.mean_utilization
        );
    }

    #[test]
    fn pp_hb_beats_pp_sb_at_scale() {
        // §4.2: "the combination of hybrid batching and chunked-prefill...
        // can indeed optimize the pipeline parallelism".
        let t = ShareGptLikeConfig::small(600, 33).generate();
        let node = NodeSpec::l20(4);
        let cfg = EngineConfig::default();
        let hb = engine(Layout::Pipeline, Batching::Hybrid, &node, cfg.clone())
            .run(&t, &OraclePredictor);
        let sb = engine(Layout::Pipeline, Batching::Separate, &node, cfg).run(&t, &OraclePredictor);
        assert!(
            hb.report.throughput_total() > 0.9 * sb.report.throughput_total(),
            "hb={:.0} sb={:.0}",
            hb.report.throughput_total(),
            sb.report.throughput_total()
        );
    }

    /// On one GPU a tensor "shard" and a pipeline "stage" are the whole
    /// model, so both layouts are the same machine: one lane, one device,
    /// the same costs. Under either batching policy, offline and online,
    /// they must report identically (scheduler name aside).
    #[test]
    fn one_gpu_layouts_report_identically() {
        let t = ShareGptLikeConfig::small(400, 13).generate();
        let poisson = ArrivalProcess::Poisson {
            rate_per_s: 3.0,
            seed: 5,
        }
        .sample(t.len());
        for node in [NodeSpec::l20(1), NodeSpec::a100(1)] {
            for batching in [Batching::Separate, Batching::Hybrid] {
                for arrivals in [&[][..], &poisson[..]] {
                    let run = |layout| {
                        let mut r = engine(layout, batching, &node, EngineConfig::default())
                            .run_with_arrivals(&t, arrivals, &OraclePredictor)
                            .report;
                        r.scheduler.clear();
                        r
                    };
                    assert_eq!(
                        run(Layout::Tensor),
                        run(Layout::Pipeline),
                        "{} {batching:?} with {} arrivals",
                        node.gpu.name,
                        arrivals.len()
                    );
                }
            }
        }
    }
}
