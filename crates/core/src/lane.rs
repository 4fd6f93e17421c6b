//! Lanes, admission and the one decode step every engine shares.
//!
//! The unit of admission is a [`Lane`]: one scheduler instance's private
//! view of memory and its private queue of not-yet-prefilled requests.
//! TD-Pipe, the tensor-parallel baselines and the offload engine each run
//! one lane; the pipeline baselines run one lane per virtual engine, with
//! requests bound to a lane up front and KV blocks divided evenly —
//! mirroring vLLM 0.5.x, where each virtual engine owns
//! `num_gpu_blocks / pp` and requests never migrate between schedulers.
//! (That static binding is precisely the inter-batch imbalance TD-Pipe's
//! work stealing repairs.)
//!
//! Every engine fills a lane in one way and drains it in one way (§3.3,
//! §4.1):
//!
//! * [`RunState::pack_prefill_batch`] is the only prefill packer: it takes
//!   the queue's head in order until the head has not yet arrived, the
//!   token budget is full, or KV memory (less the watermark) runs out,
//!   and says which of the three stopped it.
//! * [`RunState::advance_decode_cohort`] is the only decode step:
//!   survivors extend by one token, and on overflow the newest admission
//!   is evicted and requeued at the lane's head.
//!
//! The engines differ only at a few points of those two paths, which a
//! [`LaneHook`] supplies.

use crate::cohort::{CohortMembers, DecodeCohort};
use crate::config::EngineConfig;
use crate::request::{Lifecycle, RequestPool};
use std::collections::{BinaryHeap, VecDeque};
use tdpipe_kvcache::BlockAllocator;
use tdpipe_trace::PrefillStopReason;

/// One scheduler instance's memory + admission queue.
pub struct Lane {
    /// This lane's KV block pool.
    pub alloc: BlockAllocator,
    /// Requests bound to this lane that still need (re-)prefilling.
    pub pending: VecDeque<usize>,
    watermark_blocks: u64,
}

impl Lane {
    /// A lane owning `blocks` KV blocks and the given pending requests.
    pub fn new(blocks: u64, block_size: u32, pending: VecDeque<usize>, watermark: f64) -> Self {
        let alloc = BlockAllocator::new(blocks, block_size);
        // analyzer: allow(lossy-float-cast) — watermark ∈ [0,1] and
        // blocks ≤ 2^32, so the ceil stays inside u64; rounding up is
        // the conservative direction for admission.
        let watermark_blocks = (blocks as f64 * watermark).ceil() as u64;
        Lane {
            alloc,
            pending,
            watermark_blocks,
        }
    }

    /// Free blocks admitting `tokens` of KV needs: their blocks plus the
    /// watermark (rounded up) that admission keeps free.
    #[inline]
    pub(crate) fn blocks_to_admit(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.alloc.block_size() as u64) + self.watermark_blocks
    }
}

/// What an engine does at the points where its admission or decode step
/// differs from the others. Every method has the baselines' behaviour as
/// its default: free finishers, retain nothing, evict for recompute.
/// A hook that journals carries its own clock.
pub trait LaneHook {
    /// Release finisher `m`'s KV (its banked steps are settled and it is
    /// marked finished) and return the tokens it held, as
    /// [`BlockAllocator::free`] reports them.
    fn finish(&mut self, m: usize, _pool: &mut RequestPool, lane: &mut Lane) -> u64 {
        lane.alloc
            .free(m as u64)
            .expect("finished request resident")
    }

    /// Drop idle retained KV — never the prefix retained for `keep` —
    /// until `alloc` has `target` free blocks; returns whether the target
    /// was met. Called before a decode step evicts a live member (no
    /// `keep`) and before the packer stops on memory (`keep` is the head
    /// being admitted).
    fn reclaim(
        &mut self,
        _target: u64,
        _keep: Option<usize>,
        _pool: &mut RequestPool,
        _alloc: &mut BlockAllocator,
    ) -> bool {
        false
    }

    /// Book-keep evicted `victim`: its banked steps are settled and its KV
    /// freed; it is requeued at the lane's head after this returns.
    fn evicted(&mut self, victim: usize, pool: &mut RequestPool) {
        pool.note_eviction(victim);
    }

    /// KV blocks already held for pending `idx` that come back to the lane
    /// when it is admitted (a retained session prefix); they count toward
    /// its admission check.
    fn credit(&self, _idx: usize) -> u64 {
        0
    }

    /// The packer admits `idx` next: hand back its credited blocks and
    /// book-keep, before its allocation.
    fn admit(&mut self, _idx: usize, _pool: &RequestPool, _alloc: &mut BlockAllocator) {}
}

/// The baselines' [`LaneHook`]: every default.
pub struct Recompute;

impl LaneHook for Recompute {}

/// Global per-run state: the request pool plus admission bookkeeping.
pub struct RunState {
    /// Request lifecycle tracker.
    pub pool: RequestPool,
    /// Admission sequence per request (newest-first eviction order).
    pub(crate) admission_seq: Vec<u64>,
    next_seq: u64,
    /// Eviction scratch: lazy max-heap of `(admission_seq, position)` built
    /// on the first overflow of a decode step.
    evict_heap: BinaryHeap<(u64, usize)>,
    /// Eviction scratch: positions already evicted this step.
    evicted: Vec<bool>,
    /// Lifetime eviction count (for the metrics plane; plain add, never
    /// branched on).
    pub evictions: u64,
    /// Shared per-request cohort bookkeeping (see `crate::cohort`): one
    /// [`DecodeCohort`] per decode batch indexes this from all of them.
    pub(crate) cm: CohortMembers,
    /// Finisher scratch for [`Self::advance_decode_cohort`].
    finishers: Vec<(usize, u32)>,
}

impl RunState {
    /// Initialise for a pool.
    pub fn new(pool: RequestPool) -> Self {
        let n = pool.len();
        RunState {
            pool,
            admission_seq: vec![0; n],
            next_seq: 0,
            evict_heap: BinaryHeap::new(),
            evicted: Vec::new(),
            evictions: 0,
            cm: CohortMembers::new(n),
            finishers: Vec::new(),
        }
    }

    /// Build `lanes` lanes splitting `total_blocks` evenly and binding the
    /// pool's requests round-robin (vLLM assigns each arriving request to
    /// the scheduler with the fewest unfinished requests; for an offline
    /// all-at-once trace that is round-robin).
    pub fn make_lanes(&self, lanes: usize, total_blocks: u64, cfg: &EngineConfig) -> Vec<Lane> {
        assert!(lanes > 0, "need at least one lane");
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
        for idx in 0..self.pool.len() {
            queues[idx % lanes].push_back(idx);
        }
        let per_lane = total_blocks / lanes as u64;
        queues
            .into_iter()
            .map(|q| {
                let mut lane = Lane::new(per_lane, cfg.block_size, q, cfg.watermark);
                // Ids are pool indices; pre-size each lane's residency
                // table so allocation never grows it mid-run.
                lane.alloc.reserve_ids(self.pool.len());
                lane
            })
            .collect()
    }

    /// One lane owning all `blocks`, with every request pending in order.
    pub fn single_lane(&self, blocks: u64, cfg: &EngineConfig) -> Lane {
        self.make_lanes(1, blocks, cfg).remove(0)
    }

    /// Stamp `idx` as the newest admission (the last eviction candidate
    /// to survive).
    pub(crate) fn stamp_admission(&mut self, idx: usize) {
        self.admission_seq[idx] = self.next_seq;
        self.next_seq += 1;
    }

    /// Pack the next prefill batch from the head of `lane`'s queue, in
    /// order: pool indices go to `batch`, the tokens each prefill computes
    /// to `lens` (less than the request's residency on a session reuse
    /// hit). Each member is allocated its full residency, marked
    /// prefilled and stamped as the newest admission.
    ///
    /// Each head is checked in turn: has it arrived by `ready`, does it
    /// fit the batch's `token_budget` tokens and `max_new` sequences (a
    /// lone request always fits the token budget), and does its KV fit
    /// memory less the watermark, counting the blocks `hook` credits to it
    /// and asking `hook` to reclaim before giving up. The first check to
    /// fail stops the batch and is returned; a queue run dry returns
    /// [`PrefillStopReason::Exhausted`].
    #[allow(clippy::too_many_arguments)]
    pub fn pack_prefill_batch(
        &mut self,
        lane: &mut Lane,
        token_budget: u32,
        max_new: usize,
        ready: f64,
        batch: &mut Vec<usize>,
        lens: &mut Vec<u32>,
        hook: &mut impl LaneHook,
    ) -> PrefillStopReason {
        batch.clear();
        lens.clear();
        let mut tokens = 0u32;
        while let Some(&idx) = lane.pending.front() {
            if self.pool.arrival(idx) > ready {
                return PrefillStopReason::Arrival;
            }
            let t = self.pool.prefill_tokens(idx);
            if batch.len() >= max_new || (!batch.is_empty() && tokens + t > token_budget) {
                return PrefillStopReason::Budget;
            }
            let target = lane
                .blocks_to_admit(self.pool.resident_tokens(idx))
                .saturating_sub(hook.credit(idx));
            if lane.alloc.free_blocks() < target
                && !hook.reclaim(target, Some(idx), &mut self.pool, &mut lane.alloc)
            {
                return PrefillStopReason::Memory;
            }
            hook.admit(idx, &self.pool, &mut lane.alloc);
            lane.alloc
                .allocate(idx as u64, self.pool.resident_tokens(idx))
                .expect("admission check guaranteed fit");
            lane.pending.pop_front();
            self.pool.note_prefill(idx, t);
            // This prefill consumes any session discount: a later eviction
            // re-prefills at full cost.
            self.pool.clear_reuse_discount(idx);
            self.stamp_admission(idx);
            batch.push(idx);
            lens.push(t);
            tokens += t;
        }
        PrefillStopReason::Exhausted
    }

    /// Bank decoding request `m` into `coh` at its current residency;
    /// returns its resident tokens (its share of the batch's context).
    pub fn bank(&mut self, coh: &mut DecodeCohort, m: usize) -> u64 {
        let tokens = self.pool.resident_tokens(m);
        let remaining = self.pool.output_len(m) - self.pool.generated(m);
        coh.join(&mut self.cm, m, tokens, remaining);
        tokens
    }

    /// Take `m` out of `coh` and materialise its banked steps in the pool
    /// and `alloc`; returns the steps settled.
    pub(crate) fn settle(
        &mut self,
        coh: &mut DecodeCohort,
        alloc: &mut BlockAllocator,
        m: usize,
    ) -> u32 {
        let steps = coh.leave(&mut self.cm, m);
        self.pool.advance_decode_steps(m, steps);
        alloc.advance_tokens(m as u64, steps as u64);
        steps
    }

    /// Evict member `victim`, whose banked state is settled: free
    /// its KV, drop it from `ctx`, let `hook` book-keep it, and requeue it
    /// at the lane's head.
    fn evict(&mut self, lane: &mut Lane, victim: usize, ctx: &mut u64, hook: &mut impl LaneHook) {
        lane.alloc.free(victim as u64).expect("victim resident");
        *ctx -= self.pool.resident_tokens(victim);
        hook.evicted(victim, &mut self.pool);
        self.evictions += 1;
        lane.pending.push_front(victim);
    }

    /// Build the newest-first victim heap over `members` (only those
    /// still banked in a cohort when `banked_only`). Overflow is rare, so
    /// the heap is built lazily on a step's first eviction; `admission_seq`
    /// is unique, so popping it is the newest-first order, with lazy
    /// deletion through `evicted`.
    fn build_evict_heap(&mut self, members: &[usize], banked_only: bool) {
        self.evicted.clear();
        self.evicted.resize(members.len(), false);
        self.evict_heap.clear();
        let (seq, cm) = (&self.admission_seq, &self.cm);
        self.evict_heap.extend(
            members
                .iter()
                .enumerate()
                .filter(|&(_, &m)| !banked_only || cm.in_cohort(m))
                .map(|(p, &m)| (seq[m], p)),
        );
    }

    /// Pop the newest-admitted member not yet evicted this step and mark
    /// it evicted; returns its position in the batch.
    fn pop_victim(&mut self) -> usize {
        let pos = loop {
            let (_, p) = self.evict_heap.pop().expect("live member to evict");
            if !self.evicted[p] {
                break p;
            }
        };
        self.evicted[pos] = true;
        pos
    }

    /// The per-member reference for [`Self::advance_decode_cohort`]: every
    /// member of a settled (unbanked) batch generates one token, finishers
    /// retire through `hook`, survivors extend their KV one at a time, and
    /// each failed extend first asks `hook` to reclaim a block, then
    /// evicts the newest admission. On entry `ctx` must equal the sum of
    /// `resident_tokens` over `members`; on exit it equals the sum over
    /// the survivors. Kept for the equivalence tests and benches; engines
    /// use the cohort step.
    ///
    /// Returns the number of requests that finished.
    pub fn advance_decode_ctx(
        &mut self,
        lane: &mut Lane,
        members: &mut Vec<usize>,
        now: f64,
        ctx: &mut u64,
        hook: &mut impl LaneHook,
    ) -> usize {
        let mut finished_now = 0usize;
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        let pool = &mut self.pool;
        members.retain(|&idx| {
            if pool.note_decode_step(idx, now) {
                // The allocation lags the just-generated token by one.
                *ctx -= hook.finish(idx, pool, lane) + 1;
                finished_now += 1;
                false
            } else {
                true
            }
        });
        let mut heap_built = false;
        let mut i = 0;
        while i < members.len() {
            if heap_built && self.evicted[i] {
                i += 1;
                continue;
            }
            let idx = members[i];
            if lane.alloc.extend_one(idx as u64).is_ok()
                || (hook.reclaim(1, None, &mut self.pool, &mut lane.alloc)
                    && lane.alloc.extend_one(idx as u64).is_ok())
            {
                i += 1;
                continue;
            }
            if !heap_built {
                self.build_evict_heap(members, false);
                heap_built = true;
            }
            // Evict the newest member (possibly `idx` itself); the
            // `evicted` check at the loop head re-routes, otherwise
            // retry this slot.
            let victim = members[self.pop_victim()];
            self.evict(lane, victim, ctx, hook);
        }
        if heap_built {
            let mut p = 0;
            let evicted = &self.evicted;
            members.retain(|_| {
                let keep = !evicted[p];
                p += 1;
                keep
            });
        }
        finished_now
    }

    /// One decode step for a batch whose members are banked in `coh`
    /// (joined at admission): O(finishers) instead of O(members).
    ///
    /// 1. Finishers drain from their finish-epoch bucket, settle their
    ///    banked state and retire through [`LaneHook::finish`].
    /// 2. If free memory covers the survivors' block demand, that growth
    ///    is one aggregate extend. Otherwise the step walks only the
    ///    members crossing a block boundary — they alone consume memory,
    ///    so they alone shape the eviction schedule. Each that finds no
    ///    free block first asks [`LaneHook::reclaim`], then evicts the
    ///    newest admission, settling just the victim.
    ///
    /// This reproduces [`Self::advance_decode_ctx`] exactly: victims,
    /// requeue order, allocator aggregates and stats, survivors and `ctx`.
    ///
    /// Returns the number of requests that finished.
    pub fn advance_decode_cohort(
        &mut self,
        lane: &mut Lane,
        coh: &mut DecodeCohort,
        members: &mut Vec<usize>,
        now: f64,
        ctx: &mut u64,
        hook: &mut impl LaneHook,
    ) -> usize {
        debug_assert_eq!(coh.live(), members.len());
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        coh.begin_step();
        coh.drain_finishers(&mut self.cm, &mut self.finishers);
        let finished_now = self.finishers.len();
        for &(m, extends) in &self.finishers {
            lane.alloc.advance_tokens(m as u64, extends as u64);
            self.pool.finish_decode(m, extends + 1, now);
            // The allocation lags the just-generated token by one.
            *ctx -= hook.finish(m, &mut self.pool, lane) + 1;
        }
        if lane.alloc.free_blocks() >= coh.step_grows() as u64 {
            lane.alloc
                .extend_cohort(coh.live() as u64, coh.step_grows() as u64);
            if finished_now > 0 {
                let pool = &self.pool;
                members.retain(|&m| pool.lifecycle(m) == Lifecycle::Decoding);
            }
            debug_assert_eq!(coh.live(), members.len());
            return finished_now;
        }
        // Memory pressure. `grows_taken` blocks are granted but not yet
        // allocated, so the per-member loop would see
        // `free_blocks() - grows_taken` free; `pos < i` tells whether it
        // would already have granted a victim its step token.
        let mut heap_built = false;
        let mut grows_taken = 0u64;
        let mut extra_extends = 0u64;
        let mut rejections = 0u64;
        let mut i = 0;
        while i < members.len() {
            let m = members[i];
            // Skip drained finishers, evicted members, and members whose
            // residency is not block-aligned this step.
            if !self.cm.in_cohort(m) || !coh.member_grows(&self.cm, m) {
                i += 1;
                continue;
            }
            if lane.alloc.free_blocks() > grows_taken {
                grows_taken += 1;
                i += 1;
                continue;
            }
            // A failed extend: one OutOfMemory rejection, whether a
            // reclaim or an eviction resolves it.
            rejections += 1;
            if hook.reclaim(grows_taken + 1, None, &mut self.pool, &mut lane.alloc) {
                grows_taken += 1;
                i += 1;
                continue;
            }
            if !heap_built {
                self.build_evict_heap(members, true);
                heap_built = true;
            }
            let pos = self.pop_victim();
            let victim = members[pos];
            let p = coh.leave(&mut self.cm, victim);
            let extended = (pos < i) as u32;
            self.pool.advance_decode_steps(victim, p);
            lane.alloc
                .advance_tokens(victim as u64, (p - 1 + extended) as u64);
            extra_extends += extended as u64;
            self.evict(lane, victim, ctx, hook);
            // The victim may be the member we were extending (it held
            // the newest admission): its demand is gone — move on.
            // Otherwise the freed blocks let the same member retry.
            if pos == i {
                i += 1;
            }
        }
        lane.alloc
            .extend_survivors(coh.live() as u64, grows_taken, extra_extends, rejections);
        {
            let pool = &self.pool;
            members.retain(|&m| pool.lifecycle(m) == Lifecycle::Decoding);
        }
        debug_assert_eq!(coh.live(), members.len());
        finished_now
    }

    /// Total pending requests across lanes (deadlock diagnostics).
    pub fn total_pending(lanes: &[Lane]) -> usize {
        lanes.iter().map(|l| l.pending.len()).sum()
    }
}

/// The engine-wide idle-advance invariant, shared by every engine's
/// online-idle jump: when nothing is runnable and nothing is in flight,
/// the earliest pending arrival must be finite and strictly in the future
/// — otherwise the clock cannot advance and the scheduler would either
/// spin or jump to `+inf`. A bad arrival vector is thus rejected
/// identically by all five schedulers. Returns the new clock.
///
/// # Panics
/// Panics when `next_arrival` is non-finite (no pending request will
/// ever arrive) or not strictly after `now` (an arrived request was
/// refused — callers diagnose capacity before coming here).
pub fn idle_advance(
    next_arrival: f64,
    now: f64,
    pending: usize,
    finished: usize,
    total: usize,
) -> f64 {
    // analyzer: allow(no-panic) — deliberate fail-fast on a stuck
    // virtual clock; continuing would spin forever.
    assert!(
        next_arrival.is_finite() && next_arrival > now,
        "stuck: nothing runnable, nothing arriving \
         (next_arrival={next_arrival}, now={now}, pending={pending}, \
         finished={finished}/{total})"
    );
    next_arrival
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    fn state(requests: usize) -> RunState {
        let t = ShareGptLikeConfig::small(requests, 3).generate();
        RunState::new(RequestPool::new(t.requests(), |r| r.output_len))
    }

    /// Pack one batch from `lane`; returns the stop reason, the batch and
    /// its prefill lengths.
    fn pack(
        st: &mut RunState,
        lane: &mut Lane,
        budget: u32,
        max_new: usize,
        ready: f64,
        hook: &mut impl LaneHook,
    ) -> (PrefillStopReason, Vec<usize>, Vec<u32>) {
        let (mut batch, mut lens) = (Vec::new(), Vec::new());
        let stop = st.pack_prefill_batch(lane, budget, max_new, ready, &mut batch, &mut lens, hook);
        (stop, batch, lens)
    }

    /// Pack everything that has arrived by 0 s and fits, with no batch
    /// limit.
    fn pack_all(
        st: &mut RunState,
        lane: &mut Lane,
        hook: &mut impl LaneHook,
    ) -> (PrefillStopReason, Vec<usize>, Vec<u32>) {
        pack(st, lane, u32::MAX, usize::MAX, 0.0, hook)
    }

    /// Admit every request that fits, in order; returns the members and
    /// their context tokens.
    fn admit_all(st: &mut RunState, lane: &mut Lane) -> (Vec<usize>, u64) {
        let (_, members, lens) = pack_all(st, lane, &mut Recompute);
        (members, lens.iter().map(|&t| t as u64).sum())
    }

    /// One reference step over `members`, pricing `ctx` from the pool.
    fn step(st: &mut RunState, lane: &mut Lane, members: &mut Vec<usize>, now: f64) -> usize {
        let mut ctx = members.iter().map(|&m| st.pool.resident_tokens(m)).sum();
        st.advance_decode_ctx(lane, members, now, &mut ctx, &mut Recompute)
    }

    #[test]
    fn lanes_split_blocks_and_requests_evenly() {
        let st = state(10);
        let lanes = st.make_lanes(4, 1000, &EngineConfig::default());
        assert_eq!(lanes.len(), 4);
        assert!(lanes.iter().all(|l| l.alloc.num_blocks() == 250));
        let sizes: Vec<usize> = lanes.iter().map(|l| l.pending.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Round-robin binding: lane 0 gets 0, 4, 8.
        assert_eq!(lanes[0].pending, VecDeque::from(vec![0, 4, 8]));
    }

    #[test]
    fn packing_respects_token_budget_and_memory() {
        let mut st = state(50);
        let mut lane = st.single_lane(100_000, &EngineConfig::default());
        let (_, batch, lens) = pack(&mut st, &mut lane, 1024, usize::MAX, 0.0, &mut Recompute);
        assert!(!batch.is_empty());
        let total: u32 = lens.iter().sum();
        assert!(total <= 2048 || batch.len() == 1);
        for &idx in &batch {
            assert!(lane.alloc.contains(idx as u64));
        }
    }

    #[test]
    fn memory_exhaustion_stops_admission() {
        let mut st = state(50);
        let mut lane = st.single_lane(10, &EngineConfig::default()); // 160 tokens of KV
        let (stop, batch, _) = pack_all(&mut st, &mut lane, &mut Recompute);
        assert_eq!(stop, PrefillStopReason::Memory);
        assert!(batch.len() < 50, "tiny pool cannot admit everything");
    }

    #[test]
    fn max_new_caps_the_batch() {
        let mut st = state(10);
        let mut lane = st.single_lane(100_000, &EngineConfig::default());
        let (stop, batch, _) = pack(&mut st, &mut lane, u32::MAX, 3, 0.0, &mut Recompute);
        assert_eq!((stop, batch), (PrefillStopReason::Budget, vec![0, 1, 2]));
        assert_eq!(lane.pending.len(), 7);
    }

    /// A pool of `n` requests (prompts from `seed`) arriving at `arrivals`
    /// (empty: all at 0) and a watermark-free lane of `blocks` blocks.
    fn lane_of(n: usize, seed: u64, arrivals: &[f64], blocks: u64) -> (RunState, Lane) {
        let t = ShareGptLikeConfig::small(n, seed).generate();
        let st = RunState::new(RequestPool::with_arrivals(t.requests(), arrivals, |r| {
            r.output_len
        }));
        let cfg = EngineConfig {
            watermark: 0.0,
            ..EngineConfig::default()
        };
        let lane = st.single_lane(blocks, &cfg);
        (st, lane)
    }

    /// When the second head fails several checks at once, the stop reason
    /// names the first in the order arrival > budget > memory.
    #[test]
    fn stop_reason_follows_arrival_then_budget_then_memory() {
        use PrefillStopReason::*;
        // Two requests arriving at 0 and 1 s; the lane holds exactly the
        // first one's blocks plus `extra`.
        let two = |extra: u64| {
            let (st, _) = lane_of(2, 11, &[0.0, 1.0], 0);
            let first = st.pool.resident_tokens(0).div_ceil(16);
            lane_of(2, 11, &[0.0, 1.0], first + extra)
        };
        let t0 = two(0).0.pool.prefill_tokens(0);
        // (extra blocks, token budget, ready): the second head is …
        let cases = [
            (0, t0, 0.5, Arrival),      // … late, too big, without room
            (0, t0, 1.0, Budget),       // … too big, without room
            (0, u32::MAX, 1.0, Memory), // … without room
            (1 << 20, u32::MAX, 1.0, Exhausted),
        ];
        for (extra, budget, ready, want) in cases {
            let (mut st, mut lane) = two(extra);
            let (stop, batch, _) = pack(
                &mut st,
                &mut lane,
                budget,
                usize::MAX,
                ready,
                &mut Recompute,
            );
            let admitted = if want == Exhausted { 2 } else { 1 };
            assert_eq!((stop, batch.len()), (want, admitted));
            assert_eq!(lane.pending.len(), 2 - admitted, "{want:?}");
        }
    }

    /// Request 0 with half its prompt (block-aligned) retained for it
    /// under donor id 1 as a reuse discount, an older retained prefix of
    /// `other` blocks for somebody else under id 2, and `short` blocks
    /// fewer free than the request needs once its own prefix is credited.
    fn retained_setup(other: u64, short: u64) -> (RunState, Lane, Probe, u64) {
        let (st, _) = lane_of(1, 5, &[], 0);
        let full = st.pool.resident_tokens(0);
        let prefix = full / 2 / 16 * 16;
        assert!(prefix > 0);
        let (mut st, mut lane) = lane_of(1, 5, &[], full.div_ceil(16) + other - short);
        let mut hook = Probe::new(false);
        if other > 0 {
            lane.alloc.allocate(2, other * 16).unwrap();
            hook.retained.push_back((usize::MAX, 2, other));
        }
        lane.alloc.allocate(1, prefix).unwrap();
        hook.retained.push_back((0, 1, prefix / 16));
        st.pool.set_reuse_discount(0, prefix as u32);
        (st, lane, hook, prefix)
    }

    /// A session hit whose credited donor blocks make it fit is admitted,
    /// allocated at full residency, prefilling only its fresh suffix;
    /// without the credit the same lane stops on memory.
    #[test]
    fn credited_session_hit_is_admitted_at_full_residency() {
        let (mut st, mut lane, mut hook, prefix) = retained_setup(0, 0);
        let full = st.pool.resident_tokens(0);
        assert!(lane.alloc.free_blocks() < full.div_ceil(16));
        let (stop, _, lens) = pack_all(&mut st, &mut lane, &mut hook);
        assert_eq!(stop, PrefillStopReason::Exhausted);
        assert_eq!(lens, vec![(full - prefix) as u32], "prefills the suffix");
        assert_eq!(hook.log, vec![('c', 1)]);
        assert_eq!(lane.alloc.tokens_of(0).unwrap(), full, "full residency");
        assert_eq!(st.pool.prefill_tokens(0), full as u32, "discount consumed");

        let (mut st, mut lane, ..) = retained_setup(0, 0);
        let (stop, ..) = pack_all(&mut st, &mut lane, &mut Recompute);
        assert_eq!(stop, PrefillStopReason::Memory);
    }

    /// Making room for a head, a reclaim drops other retained prefixes but
    /// never the head's own: with only its own left, the packer stops.
    #[test]
    fn reclaim_never_drops_the_heads_own_prefix() {
        // Another idle prefix holds the missing block: dropped, then fits.
        let (mut st, mut lane, mut hook, _) = retained_setup(1, 1);
        let (stop, ..) = pack_all(&mut st, &mut lane, &mut hook);
        assert_eq!(stop, PrefillStopReason::Exhausted);
        assert_eq!(hook.log, vec![('r', 2), ('c', 1)]);
        // Only the head's own prefix to drop: it stays, the head waits.
        let (mut st, mut lane, mut hook, _) = retained_setup(0, 1);
        let (stop, ..) = pack_all(&mut st, &mut lane, &mut hook);
        assert_eq!(stop, PrefillStopReason::Memory);
        assert!(hook.log.is_empty());
        assert!(lane.alloc.contains(1), "own prefix still retained");
    }

    #[test]
    fn advance_decode_retires_and_extends() {
        let mut st = state(4);
        let mut lane = st.single_lane(100_000, &EngineConfig::default());
        let (mut members, _) = admit_all(&mut st, &mut lane);
        assert_eq!(members.len(), 4);
        let fin = step(&mut st, &mut lane, &mut members, 1.0);
        assert_eq!(st.pool.output_tokens, 4);
        assert_eq!(members.len(), 4 - fin);
        for &idx in &members {
            assert_eq!(
                lane.alloc.tokens_of(idx as u64).unwrap(),
                st.pool.resident_tokens(idx)
            );
        }
        assert_eq!(lane.alloc.num_residents(), members.len());
    }

    #[test]
    fn overflow_evicts_newest_to_lane_pending() {
        let mut st = state(3);
        let mut lane = st.single_lane(64, &EngineConfig::default());
        let (mut members, _) = admit_all(&mut st, &mut lane);
        assert!(!members.is_empty());
        for _ in 0..5000 {
            if members.is_empty() || st.evictions > 0 {
                break;
            }
            step(&mut st, &mut lane, &mut members, 0.1);
        }
        assert!(st.evictions > 0 || members.is_empty());
        assert!(lane.alloc.used_blocks() <= lane.alloc.num_blocks());
    }

    /// A hook with session-style retained prefixes — `(successor, donor,
    /// blocks)` allocations under ids past the pool, oldest first — and
    /// either eviction mode, logging every call so both step
    /// implementations can be compared call for call. A head's own prefix
    /// is credited to its admission and claimed by it; reclaims drop the
    /// oldest other prefix.
    struct Probe {
        swap: bool,
        retained: VecDeque<(usize, u64, u64)>,
        log: Vec<(char, usize)>,
    }

    impl Probe {
        fn new(swap: bool) -> Self {
            let (retained, log) = (VecDeque::new(), Vec::new());
            Probe {
                swap,
                retained,
                log,
            }
        }

        /// Free the oldest retained prefix whose successor passes `which`
        /// and log it under `tag`.
        fn take(
            &mut self,
            tag: char,
            which: impl Fn(usize) -> bool,
            alloc: &mut BlockAllocator,
        ) -> bool {
            let Some(p) = self.retained.iter().position(|&(s, ..)| which(s)) else {
                return false;
            };
            let (_, donor, _) = self.retained.remove(p).unwrap();
            alloc.free(donor).unwrap();
            self.log.push((tag, donor as usize));
            true
        }
    }

    impl LaneHook for Probe {
        fn finish(&mut self, m: usize, _pool: &mut RequestPool, lane: &mut Lane) -> u64 {
            self.log.push(('f', m));
            lane.alloc.free(m as u64).unwrap()
        }

        fn reclaim(
            &mut self,
            target: u64,
            keep: Option<usize>,
            _pool: &mut RequestPool,
            alloc: &mut BlockAllocator,
        ) -> bool {
            while alloc.free_blocks() < target {
                if !self.take('r', |s| Some(s) != keep, alloc) {
                    return false;
                }
            }
            true
        }

        fn evicted(&mut self, victim: usize, pool: &mut RequestPool) {
            self.log.push(('e', victim));
            if self.swap {
                pool.note_swap_out(victim);
            } else {
                pool.note_eviction(victim);
            }
        }

        fn credit(&self, idx: usize) -> u64 {
            let own = self.retained.iter().find(|&&(s, ..)| s == idx);
            own.map_or(0, |&(.., blocks)| blocks)
        }

        fn admit(&mut self, idx: usize, _pool: &RequestPool, alloc: &mut BlockAllocator) {
            self.take('c', |s| s == idx, alloc);
        }
    }

    /// The cohort step must reproduce the per-member reference
    /// bit-for-bit: the same hook calls in the same order (finishes,
    /// reclaims, victims), the same requeue order, allocator aggregates
    /// and stats (OOM rejections, including those a reclaim resolves,
    /// and the saturated high-water mark), survivors and context total —
    /// for recompute and swap victims, with and without retained KV to
    /// reclaim first, and with the batch in admission order or reversed
    /// (so victims also sit before the member whose extend failed, as
    /// after work stealing appends older supplements).
    #[test]
    fn cohort_eviction_walk_matches_per_member_loop() {
        let cfg = EngineConfig::default();
        let t = ShareGptLikeConfig::small(24, 7).generate();
        let pool0 = RequestPool::new(t.requests(), |r| r.output_len);
        let bs = cfg.block_size as u64;
        let need: u64 = (0..pool0.len())
            .map(|i| (pool0.prefill_tokens(i) as u64).div_ceil(bs))
            .sum();
        let scenarios = [false, true]
            .into_iter()
            .flat_map(|swap| [0u64, 4].map(|donors| (swap, donors)))
            .flat_map(|sd| [false, true].map(|reversed| (sd, reversed)));
        for ((swap, donors), reversed) in scenarios {
            let label = format!("swap={swap} donors={donors} reversed={reversed}");
            // A handful of slack blocks: decode growth saturates the pool
            // within a few steps, so the walk evicts repeatedly. Each
            // donor holds two blocks that a reclaim can hand back first.
            let setup = || {
                let mut st = RunState::new(RequestPool::new(t.requests(), |r| r.output_len));
                let mut lane = st.single_lane(need + 6 + 2 * donors, &cfg);
                let mut probe = Probe::new(swap);
                for d in 0..donors {
                    let id = (st.pool.len() as u64) + d;
                    lane.alloc.allocate(id, 2 * bs).unwrap();
                    probe.retained.push_back((usize::MAX, id, 2));
                }
                let (mut members, ctx) = admit_all(&mut st, &mut lane);
                assert!(members.len() >= 16, "scenario admits most requests");
                if reversed {
                    members.reverse();
                }
                (st, lane, members, ctx, probe)
            };

            // Everything a step can change, compared as one value.
            let observe = |st: &RunState, lane: &Lane, mem: &[usize], ctx: u64, hook: &Probe| {
                let a = &lane.alloc;
                let counters = (
                    a.free_blocks(),
                    a.resident_tokens(),
                    a.stats(),
                    st.evictions,
                );
                (
                    mem.to_vec(),
                    ctx,
                    hook.log.clone(),
                    lane.pending.clone(),
                    counters,
                )
            };
            let (mut st_a, mut lane_a, mut mem_a, mut ctx_a, mut hook_a) = setup();
            let (mut st_b, mut lane_b, mut mem_b, mut ctx_b, mut hook_b) = setup();
            let mut coh = DecodeCohort::new(cfg.block_size);
            for &m in &mem_b {
                st_b.bank(&mut coh, m);
            }
            for step in 0..600 {
                if mem_a.is_empty() {
                    break;
                }
                let now = step as f64;
                let fa =
                    st_a.advance_decode_ctx(&mut lane_a, &mut mem_a, now, &mut ctx_a, &mut hook_a);
                let fb = st_b.advance_decode_cohort(
                    &mut lane_b,
                    &mut coh,
                    &mut mem_b,
                    now,
                    &mut ctx_b,
                    &mut hook_b,
                );
                assert_eq!(fa, fb, "{label}: finishers at step {step}");
                assert_eq!(
                    observe(&st_a, &lane_a, &mem_a, ctx_a, &hook_a),
                    observe(&st_b, &lane_b, &mem_b, ctx_b, &hook_b),
                    "{label}: step {step}"
                );
            }
            assert!(
                st_a.evictions > 0,
                "{label}: scenario must exercise the eviction walk"
            );
            let stats = lane_a.alloc.stats();
            assert!(
                stats.oom_rejections > 0,
                "{label}: scenario must hit the OOM path"
            );
            if donors > 0 {
                let first_evict = hook_a.log.iter().position(|&(k, _)| k == 'e').unwrap();
                let reclaims = hook_a.log.iter().filter(|&&(k, _)| k == 'r').count();
                assert_eq!(reclaims as u64, donors, "{label}: every donor reclaimed");
                assert!(
                    hook_a.log[..first_evict].iter().any(|&(k, _)| k == 'r'),
                    "{label}: a reclaim frees blocks before the first eviction"
                );
                assert!(
                    stats.oom_rejections > st_a.evictions,
                    "{label}: reclaim-resolved extends count as rejections"
                );
            }
            assert_eq!(
                st_a.pool.swapped_tokens > 0,
                swap,
                "{label}: victims take the configured mode"
            );
            // Settle the cohort and compare every request's materialised state.
            for &m in &mem_b {
                st_b.settle(&mut coh, &mut lane_b.alloc, m);
            }
            let per_request = |st: &RunState, lane: &Lane| {
                let pool = &st.pool;
                let requests: Vec<_> = (0..pool.len())
                    .map(|i| {
                        (
                            pool.generated(i),
                            pool.lifecycle(i),
                            pool.swapped(i),
                            pool.evictions(i),
                        )
                    })
                    .collect();
                let tokens: Vec<_> = mem_a
                    .iter()
                    .map(|&m| lane.alloc.tokens_of(m as u64))
                    .collect();
                (requests, tokens, pool.swapped_tokens)
            };
            assert_eq!(
                per_request(&st_a, &lane_a),
                per_request(&st_b, &lane_b),
                "{label}: materialised state"
            );
        }
    }
}
