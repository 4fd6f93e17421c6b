//! Lanes, admission and decode bookkeeping for the baseline engine.
//!
//! The unit of admission is a [`Lane`]: one scheduler instance's private
//! view of memory and its private queue of not-yet-prefilled requests.
//! The tensor layout has a single lane; the pipeline layout has one lane
//! per virtual engine, with requests bound to a lane up front and KV
//! blocks divided evenly — mirroring vLLM 0.5.x, where each virtual
//! engine owns `num_gpu_blocks / pp` and requests never migrate between
//! schedulers. (That static binding is precisely the inter-batch
//! imbalance TD-Pipe's work stealing repairs.)

use std::collections::{BinaryHeap, VecDeque};
use tdpipe_core::cohort::{CohortMembers, DecodeCohort};
use tdpipe_core::config::EngineConfig;
use tdpipe_core::request::{Lifecycle, RequestPool};
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
}

/// Global per-run state: the request pool plus admission bookkeeping.
pub struct RunState {
    /// Request lifecycle tracker.
    pub pool: RequestPool,
    /// Admission sequence per request (newest-first eviction order).
    pub admission_seq: Vec<u64>,
    next_seq: u64,
    /// Eviction scratch: lazy max-heap of `(admission_seq, position)` built
    /// on the first overflow of a decode step.
    evict_heap: BinaryHeap<(u64, usize)>,
    /// Eviction scratch: positions already evicted this step.
    evicted: Vec<bool>,
    /// Lifetime recompute-eviction count (for the metrics plane; plain
    /// add, never branched on).
    pub evictions: u64,
    /// Shared per-request cohort bookkeeping (see `tdpipe_core::cohort`):
    /// engines that bank decode steps event-driven keep one
    /// [`DecodeCohort`] per decode batch and index this from all of them.
    pub cm: CohortMembers,
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
        self.admission_seq[idx] = self.next_seq;
        self.next_seq += 1;
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

    /// Post-step bookkeeping for a decode batch living in `lane`: every
    /// member generated one token — retire the finished (freeing KV),
    /// extend survivors' KV, and on overflow evict the newest members back
    /// to the lane's pending queue for recomputation (the §4.1 recompute
    /// strategy).
    ///
    /// Returns the number of requests that finished.
    pub fn advance_decode(&mut self, lane: &mut Lane, members: &mut Vec<usize>, now: f64) -> usize {
        let mut ctx: u64 = members
            .iter()
            .map(|&m| self.pool.resident_tokens(m))
            .sum();
        self.advance_decode_ctx(lane, members, now, &mut ctx)
    }

    /// [`Self::advance_decode`] that also keeps the batch's running
    /// context-token total consistent: on entry `ctx` must equal the sum of
    /// `resident_tokens` over `members`; on exit it equals the sum over the
    /// survivors. This is what lets the engines price decode launches
    /// without rescanning their resident sets every step.
    pub fn advance_decode_ctx(
        &mut self,
        lane: &mut Lane,
        members: &mut Vec<usize>,
        now: f64,
        ctx: &mut u64,
    ) -> usize {
        let mut finished_now = 0usize;
        // Every member generates one token this step.
        *ctx += members.len() as u64;
        let pool = &mut self.pool;
        let alloc = &mut lane.alloc;
        members.retain(|&idx| {
            if pool.note_decode_step(idx, now) {
                // The allocation lags the just-generated token by one.
                let freed = alloc.free(idx as u64).expect("finished request resident");
                *ctx -= freed + 1;
                finished_now += 1;
                false
            } else {
                true
            }
        });
        // Extend survivors' KV; evict newest-first on overflow (§4.1
        // recompute). Overflow is rare, so the victim order is built
        // lazily: a max-heap over `admission_seq` (unique, so the peel
        // order matches the old per-victim max scan exactly) with lazy
        // deletion — O(log n) per eviction instead of O(n).
        let mut heap_built = false;
        if lane.alloc.free_blocks() >= members.len() as u64 {
            // Overflow impossible (each member grows ≤ 1 block): one
            // batched pass with the OOM branch hoisted out.
            lane.alloc.extend_one_each(members.iter().map(|&m| m as u64));
            return finished_now;
        }
        let mut i = 0;
        while i < members.len() {
            if heap_built && self.evicted[i] {
                i += 1;
                continue;
            }
            let idx = members[i];
            if lane.alloc.extend_one(idx as u64).is_ok() {
                i += 1;
                continue;
            }
            if !heap_built {
                self.evicted.clear();
                self.evicted.resize(members.len(), false);
                self.evict_heap.clear();
                let seq = &self.admission_seq;
                self.evict_heap
                    .extend(members.iter().enumerate().map(|(p, &m)| (seq[m], p)));
                heap_built = true;
            }
            // Evict the newest member (possibly `idx` itself).
            let pos = loop {
                let (_, p) = self.evict_heap.pop().expect("live member to evict");
                if !self.evicted[p] {
                    break p;
                }
            };
            let victim = members[pos];
            self.evicted[pos] = true;
            lane.alloc.free(victim as u64).expect("victim resident");
            *ctx -= self.pool.resident_tokens(victim);
            self.pool.note_eviction(victim);
            self.evictions += 1;
            lane.pending.push_front(victim);
            // `idx` may have been the victim; the `evicted` check at the
            // loop head re-routes, otherwise retry this slot.
        }
        if heap_built {
            // Compact the survivors in order (one pass, instead of a
            // `Vec::remove` per victim).
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

    /// Event-driven variant of [`Self::advance_decode_ctx`]: the batch's
    /// members are banked in `coh` (joined at admission), so a step is
    /// O(finishers) instead of O(members) — finishers drain from their
    /// finish-epoch bucket with their banked state settled on the way
    /// out, and the survivors' KV growth is one aggregate extend. Under
    /// memory pressure the step evicts without un-banking the batch: the
    /// walk below visits only the members that cross a block boundary
    /// this step and settles just the victims, reproducing
    /// [`Self::advance_decode_ctx`]'s eviction schedule (victim choice,
    /// requeue order, allocator stats) exactly.
    ///
    /// Returns the number of requests that finished.
    pub fn advance_decode_cohort(
        &mut self,
        lane: &mut Lane,
        coh: &mut DecodeCohort,
        members: &mut Vec<usize>,
        now: f64,
        ctx: &mut u64,
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
            let freed = lane.alloc.free(m as u64).expect("finished request resident");
            *ctx -= freed + 1;
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
        // Memory pressure: the survivors' block demand exceeds free
        // memory even after the finishers' frees, so this step evicts
        // (§4.1 recompute). Replaying the per-member loop would be
        // O(members); instead walk only the members *growing* a block
        // this step — they alone consume memory, so they alone shape the
        // eviction schedule — and settle each victim individually.
        // Victims are popped newest-admission-first, exactly the
        // per-member loop's order; `pos < i` tells whether the loop
        // would already have granted the victim its step token.
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
            if !heap_built {
                self.evicted.clear();
                self.evicted.resize(members.len(), false);
                self.evict_heap.clear();
                let seq = &self.admission_seq;
                let cm = &self.cm;
                self.evict_heap.extend(
                    members
                        .iter()
                        .enumerate()
                        .filter(|&(_, &m)| cm.in_cohort(m))
                        .map(|(p, &m)| (seq[m], p)),
                );
                heap_built = true;
            }
            // The per-call path charges one OutOfMemory rejection per
            // eviction (each failed extend evicts exactly one victim).
            rejections += 1;
            let pos = loop {
                let (_, p) = self.evict_heap.pop().expect("live member to evict");
                if !self.evicted[p] {
                    break p;
                }
            };
            let victim = members[pos];
            self.evicted[pos] = true;
            let p = coh.leave(&mut self.cm, victim);
            let extended = (pos < i) as u32;
            self.pool.advance_decode_steps(victim, p);
            lane.alloc
                .advance_tokens(victim as u64, (p - 1 + extended) as u64);
            extra_extends += extended as u64;
            lane.alloc.free(victim as u64).expect("victim resident");
            *ctx -= self.pool.resident_tokens(victim);
            self.pool.note_eviction(victim);
            self.evictions += 1;
            lane.pending.push_front(victim);
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

/// The engine-wide idle-advance invariant, shared with the TD engine's
/// fast-forward (`crates/core/src/engine.rs`): when nothing is runnable
/// and nothing is in flight, the earliest pending arrival must be finite
/// and strictly in the future — otherwise the clock cannot advance and
/// the scheduler would either spin or jump to `+inf`. Every baseline
/// routes its online-idle jump through here so a bad arrival vector is
/// rejected identically by all five engines. Returns the new clock.
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

    fn single_lane(st: &RunState, blocks: u64) -> Lane {
        let mut lanes = st.make_lanes(1, blocks, &EngineConfig::default());
        lanes.pop().expect("one lane")
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
        let mut lane = single_lane(&st, 100_000);
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
        let mut lane = single_lane(&st, 10); // 160 tokens of KV
        let batch = st.pack_prefill_batch(&mut lane, u32::MAX, usize::MAX, 0.0, &mut Vec::new());
        assert!(batch.len() < 50, "tiny pool cannot admit everything");
        assert!(!st.head_fits(&lane));
    }

    #[test]
    fn advance_decode_retires_and_extends() {
        let mut st = state(4);
        let mut lane = single_lane(&st, 100_000);
        let mut members = Vec::new();
        for _ in 0..4 {
            members.push(st.admit_head(&mut lane).0);
        }
        let fin = st.advance_decode(&mut lane, &mut members, 1.0);
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
        let mut lane = single_lane(&st, 64);
        let mut members = Vec::new();
        while st.head_fits(&lane) {
            members.push(st.admit_head(&mut lane).0);
        }
        assert!(!members.is_empty());
        for _ in 0..5000 {
            if members.is_empty() {
                break;
            }
            st.advance_decode(&mut lane, &mut members, 0.1);
            if (0..st.pool.len()).any(|i| st.pool.evictions(i) > 0) {
                break;
            }
        }
        let any_evicted = (0..st.pool.len()).any(|i| st.pool.evictions(i) > 0);
        assert!(any_evicted || members.is_empty());
        assert!(lane.alloc.used_blocks() <= lane.alloc.num_blocks());
    }

    /// The banked eviction walk must reproduce the per-member loop
    /// bit-for-bit: same victims in the same requeue order, same
    /// allocator aggregates and stats (including OOM rejections and the
    /// saturated high-water mark), same survivor set, same context total.
    #[test]
    fn cohort_eviction_walk_matches_per_member_loop() {
        let cfg = EngineConfig::default();
        let t = ShareGptLikeConfig::small(24, 7).generate();
        let pool0 = RequestPool::new(t.requests(), |r| r.output_len);
        let bs = cfg.block_size as u64;
        let need: u64 = (0..pool0.len())
            .map(|i| (pool0.prefill_tokens(i) as u64).div_ceil(bs))
            .sum();
        // A handful of slack blocks: decode growth saturates the pool
        // within a few steps, so the walk evicts repeatedly.
        let blocks = need + 6;
        let setup = || {
            let mut st = RunState::new(RequestPool::new(t.requests(), |r| r.output_len));
            let mut lanes = st.make_lanes(1, blocks, &cfg);
            let mut lane = lanes.pop().expect("one lane");
            let mut members = Vec::new();
            let mut ctx = 0u64;
            while st.head_fits(&lane) {
                let (idx, tokens) = st.admit_head(&mut lane);
                members.push(idx);
                ctx += tokens as u64;
            }
            assert!(members.len() >= 16, "scenario admits most requests");
            (st, lane, members, ctx)
        };

        let (mut st_a, mut lane_a, mut mem_a, mut ctx_a) = setup();
        let (mut st_b, mut lane_b, mut mem_b, mut ctx_b) = setup();
        let mut coh = DecodeCohort::new(cfg.block_size);
        for &m in &mem_b {
            coh.join(
                &mut st_b.cm,
                m,
                st_b.pool.resident_tokens(m),
                st_b.pool.output_len(m) - st_b.pool.generated(m),
            );
        }
        for step in 0..600 {
            if mem_a.is_empty() {
                break;
            }
            let now = step as f64;
            let fa = st_a.advance_decode_ctx(&mut lane_a, &mut mem_a, now, &mut ctx_a);
            let fb = st_b.advance_decode_cohort(&mut lane_b, &mut coh, &mut mem_b, now, &mut ctx_b);
            assert_eq!(fa, fb, "finishers at step {step}");
            assert_eq!(mem_a, mem_b, "survivor set at step {step}");
            assert_eq!(ctx_a, ctx_b, "context total at step {step}");
            assert_eq!(lane_a.pending, lane_b.pending, "requeue order at step {step}");
            assert_eq!(
                lane_a.alloc.free_blocks(),
                lane_b.alloc.free_blocks(),
                "free blocks at step {step}"
            );
            assert_eq!(
                lane_a.alloc.resident_tokens(),
                lane_b.alloc.resident_tokens(),
                "resident tokens at step {step}"
            );
            assert_eq!(lane_a.alloc.stats(), lane_b.alloc.stats(), "stats at step {step}");
            assert_eq!(st_a.evictions, st_b.evictions, "evictions at step {step}");
        }
        assert!(st_a.evictions > 0, "scenario must exercise the eviction walk");
        assert!(
            lane_a.alloc.stats().oom_rejections > 0,
            "scenario must hit the OOM path"
        );
        // Settle the cohort and compare every request's materialised state.
        for &m in &mem_b.clone() {
            let p = coh.leave(&mut st_b.cm, m);
            st_b.pool.advance_decode_steps(m, p);
            lane_b.alloc.advance_tokens(m as u64, p as u64);
        }
        for i in 0..st_a.pool.len() {
            assert_eq!(st_a.pool.generated(i), st_b.pool.generated(i), "generated for {i}");
            assert_eq!(st_a.pool.lifecycle(i), st_b.pool.lifecycle(i), "lifecycle for {i}");
        }
        for &m in &mem_a {
            assert_eq!(
                lane_a.alloc.tokens_of(m as u64).unwrap(),
                lane_b.alloc.tokens_of(m as u64).unwrap(),
                "per-resident tokens for {m}"
            );
        }
    }
}
