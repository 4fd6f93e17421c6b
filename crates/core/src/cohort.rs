//! Event-driven decode cohorts: O(1) per decode step instead of O(batch).
//!
//! The decode inner loop is the simulator's hottest code: every time a
//! batch returns it used to walk every member to bump its generated-token
//! count, extend its KV residency by one token, and test for completion.
//! All three are *predictable the moment a member joins the batch*:
//!
//! * it generates exactly one token per step, so after `k` steps its
//!   pending state is just `k`;
//! * it finishes after exactly `output_len - generated` steps (the engine
//!   decodes to the request's actual length), so finishers can be filed
//!   under their finish epoch up front;
//! * holding `T` resident tokens at join epoch `e`, it crosses a KV block
//!   boundary exactly on epochs `s ≡ e + 1 - T (mod block_size)` — a
//!   fixed residue of the step counter.
//!
//! A [`DecodeCohort`] therefore banks a whole batch's per-step work as
//! arithmetic: finishers drain from a per-epoch bucket, the batch's block
//! demand is one counter lookup feeding
//! `BlockAllocator::extend_cohort`-style aggregate accounting, and
//! per-member state (pool `generated`, allocator tokens, planner
//! advances) is materialised only when a member *leaves* — finish,
//! eviction, work-stealing move, or phase end — with `epoch − join_epoch`
//! pending steps. A quiet step touches zero members.
//!
//! Members that leave early invalidate their finish-bucket entry lazily:
//! [`CohortMembers`] keeps a per-request generation counter, bumped on
//! every leave, and stale `(member, generation)` entries are skipped when
//! their epoch drains. The shared [`CohortMembers`] arrays are indexed by
//! pool id so any number of cohorts (one per in-flight decode batch) can
//! share them.
//!
//! Bit-identity with the per-member loop is the design contract: every
//! counter is exact integer arithmetic, and every settle applies exactly
//! the increments the per-step loop would have applied. Under KV memory
//! pressure the step walks just the members growing a block this step —
//! [`DecodeCohort::member_grows`] — and settles only the victims, which
//! reproduces the eviction schedule exactly (see
//! `crate::lane::RunState::advance_decode_cohort`, the one decode step
//! every engine shares).

/// Shared per-request bookkeeping for any number of [`DecodeCohort`]s,
/// indexed by pool id.
#[derive(Debug, Clone)]
pub struct CohortMembers {
    /// Epoch at which the request joined its current cohort;
    /// `u32::MAX` = not in any cohort (fully settled).
    join_epoch: Vec<u32>,
    /// Membership generation: bumped when the request leaves a cohort,
    /// invalidating its filed finish-bucket entry.
    gen: Vec<u32>,
    /// Block-growth residue class the request occupies in its cohort.
    class: Vec<u16>,
}

impl CohortMembers {
    /// Bookkeeping for a pool of `n` requests, all initially settled.
    pub fn new(n: usize) -> Self {
        CohortMembers {
            join_epoch: vec![u32::MAX; n],
            gen: vec![0; n],
            class: vec![0; n],
        }
    }

    /// Decode steps banked for `m` in a cohort currently at `epoch`
    /// (0 for a settled request) — what a settle would materialise.
    #[inline]
    pub fn pending(&self, m: usize, epoch: u32) -> u32 {
        let je = self.join_epoch[m];
        if je == u32::MAX {
            0
        } else {
            epoch - je
        }
    }

    /// Whether `m` is currently banked in some cohort.
    #[inline]
    pub fn in_cohort(&self, m: usize) -> bool {
        self.join_epoch[m] != u32::MAX
    }
}

/// One decode batch's event-driven step state (see the module docs).
#[derive(Debug, Clone)]
pub struct DecodeCohort {
    /// Steps this cohort has executed since its last reset.
    epoch: u32,
    block_size: u32,
    /// Live members per block-growth residue class; the members growing a
    /// block on epoch `s` are exactly class `s % block_size`.
    classes: Vec<u32>,
    /// `(member, generation)` entries filed under their finish epoch.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Members currently banked in this cohort.
    live: usize,
}

impl DecodeCohort {
    /// An empty cohort for a pool with `block_size`-token KV blocks.
    ///
    /// # Panics
    /// Panics if `block_size == 0`.
    pub fn new(block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        DecodeCohort {
            epoch: 0,
            block_size,
            classes: vec![0; block_size as usize],
            buckets: Vec::new(),
            live: 0,
        }
    }

    /// Members currently banked.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Steps executed since the last reset.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Forget all members and return to epoch 0. Callers settle (or
    /// [`leave`](Self::leave)) every member first — asserted via the live
    /// count in debug builds; entries still filed in finish buckets are
    /// cleared here, so no lazy invalidation debt survives a reset.
    pub fn reset(&mut self) {
        debug_assert_eq!(self.live, 0, "cohort reset with live members");
        debug_assert!(self.classes.iter().all(|&c| c == 0));
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.epoch = 0;
        self.live = 0;
        self.classes.fill(0);
    }

    /// Bank request `m` into this cohort: it currently holds
    /// `resident_tokens` KV tokens and will finish after exactly
    /// `remaining` more decode steps (`remaining >= 1`).
    pub fn join(&mut self, cm: &mut CohortMembers, m: usize, resident_tokens: u64, remaining: u32) {
        debug_assert!(remaining >= 1, "a decoding request has a token left");
        debug_assert!(!cm.in_cohort(m), "member already banked");
        debug_assert!(resident_tokens > 0, "resident members hold their prompt");
        let bs = self.block_size as u64;
        // Entering its first step the member holds `resident_tokens`; a
        // block grows on the step whose entering count is a multiple of
        // the block size, i.e. on epochs ≡ join + 1 − tokens (mod bs).
        let r = ((self.epoch as u64 + 1 + bs - resident_tokens % bs) % bs) as usize;
        self.classes[r] += 1;
        cm.class[m] = r as u16;
        cm.join_epoch[m] = self.epoch;
        let f = (self.epoch + remaining) as usize;
        if self.buckets.len() <= f {
            self.buckets.resize_with(f + 1, Vec::new);
        }
        self.buckets[f].push((m as u32, cm.gen[m]));
        self.live += 1;
    }

    /// Advance the cohort by one decode step. Call
    /// [`drain_finishers`](Self::drain_finishers) next, then read
    /// [`step_grows`](Self::step_grows) for the survivors' block demand.
    #[inline]
    pub fn begin_step(&mut self) {
        self.epoch += 1;
    }

    /// Blocks the *current* step's survivors demand (finishers already
    /// drained do not extend on their finish step).
    #[inline]
    pub fn step_grows(&self) -> u32 {
        self.classes[(self.epoch % self.block_size) as usize]
    }

    /// Whether banked member `m` crosses a KV block boundary on the
    /// *current* epoch (call after [`begin_step`](Self::begin_step);
    /// meaningful only while `m` is banked in this cohort).
    #[inline]
    pub fn member_grows(&self, cm: &CohortMembers, m: usize) -> bool {
        cm.class[m] as u32 == self.epoch % self.block_size
    }

    /// Drain the members finishing on the current epoch into `out` as
    /// `(member, banked_extends)` pairs, where `banked_extends` counts the
    /// single-token KV extends to settle — the steps *before* the finish
    /// step, which frees instead of extending. Each drained member leaves
    /// the cohort (class removed, generation bumped, marked settled).
    pub fn drain_finishers(&mut self, cm: &mut CohortMembers, out: &mut Vec<(usize, u32)>) {
        out.clear();
        let Some(bucket) = self.buckets.get_mut(self.epoch as usize) else {
            return;
        };
        for (m, g) in bucket.drain(..) {
            let m = m as usize;
            if cm.gen[m] != g {
                continue; // left early; stale entry
            }
            let banked_extends = self.epoch - 1 - cm.join_epoch[m];
            self.classes[cm.class[m] as usize] -= 1;
            cm.gen[m] = cm.gen[m].wrapping_add(1);
            cm.join_epoch[m] = u32::MAX;
            self.live -= 1;
            out.push((m, banked_extends));
        }
    }

    /// Remove `m` from the cohort early (eviction, work-stealing move,
    /// phase end); returns its banked decode steps, which the caller
    /// settles into pool/allocator/planner state.
    pub fn leave(&mut self, cm: &mut CohortMembers, m: usize) -> u32 {
        debug_assert!(cm.in_cohort(m), "member not banked in a cohort");
        let pending = self.epoch - cm.join_epoch[m];
        self.classes[cm.class[m] as usize] -= 1;
        cm.gen[m] = cm.gen[m].wrapping_add(1);
        cm.join_epoch[m] = u32::MAX;
        self.live -= 1;
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_kvcache::BlockAllocator;

    /// Reference per-member state for the equivalence check.
    #[derive(Clone)]
    struct Member {
        tokens: u64,
        remaining: u32,
        generated: u64,
    }

    /// Drive a cohort and a naive per-member loop over the same schedule
    /// of joins/steps/leaves and assert every observable agrees.
    #[test]
    fn cohort_matches_per_member_loop() {
        let bs = 4u32;
        let mut coh = DecodeCohort::new(bs);
        let mut cm = CohortMembers::new(16);
        let mut fast = BlockAllocator::new(1000, bs);
        let mut slow = BlockAllocator::new(1000, bs);
        let mut naive: Vec<Option<Member>> = vec![None; 16];
        let mut finishers = Vec::new();

        // Deterministic "random" schedule: xorshift over join sizes.
        let mut rng = 0x9e3779b9u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut alive: Vec<usize> = Vec::new();
        for m in 0..8usize {
            let tokens = 1 + next() % 19;
            let remaining = 1 + (next() % 7) as u32;
            fast.allocate(m as u64, tokens).unwrap();
            slow.allocate(m as u64, tokens).unwrap();
            coh.join(&mut cm, m, tokens, remaining);
            naive[m] = Some(Member {
                tokens,
                remaining,
                generated: 0,
            });
            alive.push(m);
        }
        let mut settled_generated = vec![0u64; 16];
        for step in 0..64 {
            if alive.is_empty() {
                break;
            }
            // Occasionally pull a member out early (a steal/evict stand-in).
            if step % 5 == 3 && alive.len() > 1 {
                let m = alive.remove((next() % alive.len() as u64) as usize);
                let pending = coh.leave(&mut cm, m);
                fast.advance_tokens(m as u64, pending as u64);
                settled_generated[m] += pending as u64;
                let memb = naive[m].take().expect("alive member");
                assert_eq!(settled_generated[m], memb.generated, "settle drift");
                assert_eq!(fast.tokens_of(m as u64), slow.tokens_of(m as u64));
                // Release both copies so the pools keep matching.
                assert_eq!(fast.free(m as u64).unwrap(), slow.free(m as u64).unwrap());
                continue;
            }
            coh.begin_step();
            coh.drain_finishers(&mut cm, &mut finishers);
            // Naive side, in engine order: one token each, finishers free
            // first, then the surviving members extend.
            let mut naive_finished = Vec::new();
            alive.retain(|&m| {
                let memb = naive[m].as_mut().expect("alive member");
                memb.generated += 1;
                memb.remaining -= 1;
                if memb.remaining == 0 {
                    slow.free(m as u64).unwrap();
                    naive_finished.push(m);
                    false
                } else {
                    true
                }
            });
            for &m in &alive {
                slow.extend_one(m as u64).unwrap();
                naive[m].as_mut().expect("alive member").tokens += 1;
            }
            let mut fast_finished: Vec<usize> = Vec::new();
            for &(m, extends) in &finishers {
                fast.advance_tokens(m as u64, extends as u64);
                settled_generated[m] += extends as u64 + 1;
                let memb = naive[m].take().expect("finisher was alive");
                assert_eq!(settled_generated[m], memb.generated);
                assert_eq!(
                    fast.tokens_of(m as u64).unwrap(),
                    memb.tokens,
                    "finisher KV drift"
                );
                fast.free(m as u64).unwrap();
                fast_finished.push(m);
            }
            assert_eq!(fast_finished, naive_finished, "finish schedule drift");
            assert_eq!(coh.live(), alive.len());
            assert!(coh.step_grows() as u64 <= coh.live() as u64);
            fast.extend_cohort(coh.live() as u64, coh.step_grows() as u64);
            assert_eq!(fast.used_blocks(), slow.used_blocks(), "step {step}");
            assert_eq!(fast.resident_tokens(), slow.resident_tokens());
        }
        // Settle the stragglers and compare final per-id state.
        for &m in &alive {
            let pending = coh.leave(&mut cm, m);
            fast.advance_tokens(m as u64, pending as u64);
            assert_eq!(
                fast.tokens_of(m as u64).unwrap(),
                slow.tokens_of(m as u64).unwrap()
            );
        }
        assert_eq!(coh.live(), 0);
        assert_eq!(fast.stats(), slow.stats(), "fast={:?} slow={:?}", fast.stats(), slow.stats());
    }

    #[test]
    fn growth_classes_follow_block_boundaries() {
        // A member holding a full block grows on its very first step.
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(4);
        coh.join(&mut cm, 0, 8, 10); // 8 % 4 == 0: grows on step 1, 5, 9…
        coh.join(&mut cm, 1, 7, 10); // grows on step 2 (7→8 fills, 8 grows)…
        coh.begin_step();
        assert_eq!(coh.step_grows(), 1);
        coh.begin_step();
        assert_eq!(coh.step_grows(), 1);
        coh.begin_step();
        assert_eq!(coh.step_grows(), 0);
        coh.begin_step();
        assert_eq!(coh.step_grows(), 0);
        coh.begin_step();
        assert_eq!(coh.step_grows(), 1); // step 5 ≡ 1 (mod 4) again
    }

    #[test]
    fn stale_bucket_entries_are_skipped() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(2);
        let mut out = Vec::new();
        coh.join(&mut cm, 0, 5, 1);
        coh.join(&mut cm, 1, 5, 1);
        assert_eq!(coh.leave(&mut cm, 0), 0);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert_eq!(out, vec![(1, 0)]);
        assert_eq!(coh.live(), 0);
    }

    #[test]
    fn rejoin_after_leave_reindexes_cleanly() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(1);
        let mut out = Vec::new();
        coh.join(&mut cm, 0, 5, 3);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert!(out.is_empty());
        assert_eq!(coh.leave(&mut cm, 0), 1);
        // Re-join with one step settled: finishes two steps later.
        coh.join(&mut cm, 0, 6, 2);
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert!(out.is_empty());
        coh.begin_step();
        coh.drain_finishers(&mut cm, &mut out);
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn reset_clears_buckets_and_epoch() {
        let mut coh = DecodeCohort::new(4);
        let mut cm = CohortMembers::new(1);
        coh.join(&mut cm, 0, 5, 7);
        coh.begin_step();
        coh.leave(&mut cm, 0);
        coh.reset();
        assert_eq!(coh.epoch(), 0);
        assert_eq!(coh.live(), 0);
        let mut out = Vec::new();
        // The old entry at epoch 7 must not resurface after a rejoin.
        coh.join(&mut cm, 0, 5, 9);
        for _ in 0..7 {
            coh.begin_step();
            coh.drain_finishers(&mut cm, &mut out);
            assert!(out.is_empty(), "stale finish entry resurfaced");
        }
    }
}
