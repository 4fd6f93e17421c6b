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
//! [`RunState::advance_decode_cohort`] is the only decode step: survivors
//! extend by one token, and on overflow the newest admission is evicted
//! and requeued at the lane's head (§3.3, §4.1). The engines differ only
//! at three points of that step, which a [`DecodeHook`] supplies.

use crate::cohort::{CohortMembers, DecodeCohort};
use crate::config::EngineConfig;
use crate::request::{Lifecycle, RequestPool};
use std::collections::{BinaryHeap, VecDeque};
use tdpipe_kvcache::BlockAllocator;

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

    /// Blocks admission keeps free (the configured watermark, rounded up).
    #[inline]
    pub(crate) fn watermark_blocks(&self) -> u64 {
        self.watermark_blocks
    }
}

/// What an engine does at the three points where its decode step differs
/// from the others. Every method has the baselines' behaviour as its
/// default: free finishers, retain nothing, evict for recompute.
pub trait DecodeHook {
    /// Release finisher `m`'s KV (its banked steps are settled and it is
    /// marked finished) and return the tokens it held, as
    /// [`BlockAllocator::free`] reports them.
    fn finish(&mut self, m: usize, _now: f64, _pool: &mut RequestPool, lane: &mut Lane) -> u64 {
        lane.alloc
            .free(m as u64)
            .expect("finished request resident")
    }

    /// Drop idle retained KV until `alloc` has `target` free blocks;
    /// returns whether the target was met. Called on a failed extend,
    /// before any live member is evicted.
    fn reclaim(
        &mut self,
        _target: u64,
        _now: f64,
        _pool: &mut RequestPool,
        _alloc: &mut BlockAllocator,
    ) -> bool {
        false
    }

    /// Book-keep evicted `victim`: its banked steps are settled and its KV
    /// freed; it is requeued at the lane's head after this returns.
    fn evicted(&mut self, victim: usize, _now: f64, pool: &mut RequestPool) {
        pool.note_eviction(victim);
    }
}

/// The baselines' [`DecodeHook`]: every default.
pub struct Recompute;

impl DecodeHook for Recompute {}

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

    /// Whether the head of `lane`'s pending queue fits its memory now
    /// (respecting the watermark).
    pub fn head_fits(&self, lane: &Lane) -> bool {
        match lane.pending.front() {
            None => false,
            Some(&idx) => {
                let t = self.pool.prefill_tokens(idx) as u64;
                let needed = t.div_ceil(lane.alloc.block_size() as u64);
                lane.alloc.free_blocks() >= needed + lane.watermark_blocks
            }
        }
    }

    /// Stamp `idx` as the newest admission (the last eviction candidate
    /// to survive).
    pub(crate) fn stamp_admission(&mut self, idx: usize) {
        self.admission_seq[idx] = self.next_seq;
        self.next_seq += 1;
    }

    /// Admit the head of `lane`'s queue: allocate its KV, mark it
    /// prefilled, stamp its admission sequence. Returns `(index, tokens)`.
    ///
    /// # Panics
    /// Panics if the head does not fit (callers check [`Self::head_fits`]).
    pub fn admit_head(&mut self, lane: &mut Lane) -> (usize, u32) {
        let idx = lane.pending.pop_front().expect("pending nonempty");
        let t = self.pool.prefill_tokens(idx);
        lane.alloc
            .allocate(idx as u64, t as u64)
            .expect("caller checked head_fits");
        self.pool.note_prefill(idx, t);
        self.stamp_admission(idx);
        (idx, t)
    }

    /// Pack a separate-batching prefill batch from `lane`'s queue, up to
    /// `token_budget` tokens and `max_new` sequences, stopping early when
    /// memory runs out or the head has not yet arrived by `now`. Returns
    /// the pool indices and writes their sequence lengths into the
    /// caller-owned `lens` (the batch itself travels into the engine's
    /// in-flight queue).
    pub fn pack_prefill_batch(
        &mut self,
        lane: &mut Lane,
        token_budget: u32,
        max_new: usize,
        now: f64,
        lens: &mut Vec<u32>,
    ) -> Vec<usize> {
        let mut batch = Vec::new();
        lens.clear();
        let mut tokens = 0u32;
        while batch.len() < max_new && self.head_fits(lane) {
            let head = *lane.pending.front().expect("head fits");
            if self.pool.arrival(head) > now {
                break;
            }
            let t = self.pool.prefill_tokens(head);
            if !batch.is_empty() && tokens + t > token_budget {
                break;
            }
            let (idx, t) = self.admit_head(lane);
            batch.push(idx);
            lens.push(t);
            tokens += t;
        }
        batch
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
    fn evict(
        &mut self,
        lane: &mut Lane,
        victim: usize,
        now: f64,
        ctx: &mut u64,
        hook: &mut impl DecodeHook,
    ) {
        lane.alloc.free(victim as u64).expect("victim resident");
        *ctx -= self.pool.resident_tokens(victim);
        hook.evicted(victim, now, &mut self.pool);
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
        hook: &mut impl DecodeHook,
    ) -> usize {
        let mut finished_now = 0usize;
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        let pool = &mut self.pool;
        members.retain(|&idx| {
            if pool.note_decode_step(idx, now) {
                // The allocation lags the just-generated token by one.
                *ctx -= hook.finish(idx, now, pool, lane) + 1;
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
                || (hook.reclaim(1, now, &mut self.pool, &mut lane.alloc)
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
            self.evict(lane, victim, now, ctx, hook);
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
    ///    banked state and retire through [`DecodeHook::finish`].
    /// 2. If free memory covers the survivors' block demand, that growth
    ///    is one aggregate extend. Otherwise the step walks only the
    ///    members crossing a block boundary — they alone consume memory,
    ///    so they alone shape the eviction schedule. Each that finds no
    ///    free block first asks [`DecodeHook::reclaim`], then evicts the
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
        hook: &mut impl DecodeHook,
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
            *ctx -= hook.finish(m, now, &mut self.pool, lane) + 1;
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
            if hook.reclaim(grows_taken + 1, now, &mut self.pool, &mut lane.alloc) {
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
            self.evict(lane, victim, now, ctx, hook);
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
        let mut lens = Vec::new();
        let batch = st.pack_prefill_batch(&mut lane, 1024, usize::MAX, 0.0, &mut lens);
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
        let batch = st.pack_prefill_batch(&mut lane, u32::MAX, usize::MAX, 0.0, &mut Vec::new());
        assert!(batch.len() < 50, "tiny pool cannot admit everything");
        assert!(!st.head_fits(&lane));
    }

    #[test]
    fn advance_decode_retires_and_extends() {
        let mut st = state(4);
        let mut lane = st.single_lane(100_000, &EngineConfig::default());
        let mut members = Vec::new();
        for _ in 0..4 {
            members.push(st.admit_head(&mut lane).0);
        }
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
        let mut members = Vec::new();
        while st.head_fits(&lane) {
            members.push(st.admit_head(&mut lane).0);
        }
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

    /// A hook with session-style retained prefixes (allocations under ids
    /// past the pool, dropped oldest first) and either eviction mode,
    /// logging every call so both step implementations can be compared
    /// call for call.
    struct Probe {
        swap: bool,
        retained: VecDeque<u64>,
        log: Vec<(char, usize)>,
    }

    impl DecodeHook for Probe {
        fn finish(&mut self, m: usize, _now: f64, _pool: &mut RequestPool, lane: &mut Lane) -> u64 {
            self.log.push(('f', m));
            lane.alloc.free(m as u64).unwrap()
        }

        fn reclaim(
            &mut self,
            target: u64,
            _now: f64,
            _pool: &mut RequestPool,
            alloc: &mut BlockAllocator,
        ) -> bool {
            while alloc.free_blocks() < target {
                let Some(donor) = self.retained.pop_front() else {
                    return false;
                };
                alloc.free(donor).unwrap();
                self.log.push(('r', donor as usize));
            }
            true
        }

        fn evicted(&mut self, victim: usize, _now: f64, pool: &mut RequestPool) {
            self.log.push(('e', victim));
            if self.swap {
                pool.note_swap_out(victim);
            } else {
                pool.note_eviction(victim);
            }
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
                let mut probe = Probe {
                    swap,
                    retained: VecDeque::new(),
                    log: Vec::new(),
                };
                for d in 0..donors {
                    let id = (st.pool.len() as u64) + d;
                    lane.alloc.allocate(id, 2 * bs).unwrap();
                    probe.retained.push_back(id);
                }
                let mut members = Vec::new();
                let mut ctx = 0u64;
                while st.head_fits(&lane) {
                    let (idx, tokens) = st.admit_head(&mut lane);
                    members.push(idx);
                    ctx += tokens as u64;
                }
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
