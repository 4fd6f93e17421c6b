//! Baseline schedulers the paper compares TD-Pipe against (§4.1).
//!
//! The paper's four baselines are one vLLM engine set two ways, and so is
//! this crate: one [`BaselineEngine`] over a [`Layout`] and a [`Batching`]
//! policy.
//!
//! |                      | separate batching (SB)  | hybrid batching (HB)    |
//! |----------------------|-------------------------|-------------------------|
//! | **tensor (TP)**      | [`TpSbEngine`]          | [`TpHbEngine`]          |
//! | **pipeline (PP)**    | [`PpSbEngine`]          | [`PpHbEngine`]          |
//!
//! * The **layout** owns the memory plan, the cost model, the number of
//!   scheduler lanes and the simulated devices. TP shards every layer and
//!   pays two all-reduces per layer; the node advances in lockstep, so it
//!   is one lane on one device with no pipeline bubbles — its cost is
//!   communication. PP runs `num_stages` lanes (vLLM's virtual engines)
//!   whose jobs chase each other through the stages; prefill/decode
//!   imbalance between lanes produces the Figure 1 bubbles.
//! * The **batching policy** decides how an idle slot fills its next job.
//!   SB (vLLM's default) runs a prefill-only batch when the lane's head
//!   fits, otherwise one decode step. HB (Sarathi-style chunked prefill)
//!   runs every resident decode plus prefill chunks up to a token budget,
//!   which balances stages but pays chunked prefill's repeated KV reads.
//!
//! One driver runs all four: a round robin over the slots that keeps at
//! most `pp_inflight_limit` jobs in flight, and one completion handler
//! that advances the decoded residents, admits the finished prompts and
//! charges the control plane for both. The named engines are thin
//! constructors that fix the two parameters.
//!
//! [`Scheduler`] is the one table of all five schedulers, TD-Pipe
//! included: each one's paper name, its command-line spelling and
//! [`Scheduler::run`], which plans the engine and runs a
//! [`tdpipe_workload::Workload`] on it.
//!
//! All four run on the same cost models, KV allocator, lanes, decode step
//! (`tdpipe_core::lane`) and pipeline simulator as TD-Pipe — the only
//! differences are the scheduling decisions, exactly like the paper's
//! single-codebase (vLLM) comparison.

#![forbid(unsafe_code)]

mod engine;
mod scheduler;

pub use engine::{
    BaselineEngine, Batching, Layout, PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine,
};
pub use scheduler::Scheduler;
