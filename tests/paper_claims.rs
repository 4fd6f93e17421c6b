//! Shape-level assertions for the paper's headline claims, at a reduced
//! request count so the whole file runs in seconds. The full-scale numbers
//! live in the `tdpipe-bench` binaries and EXPERIMENTS.md; these tests pin
//! the *direction* of every claim so a regression cannot silently flip a
//! conclusion.

use tdpipe::baselines::Scheduler;
use tdpipe::core::cost::TpCost;
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ShareGptLikeConfig, Trace, Workload};

fn trace() -> Trace {
    // Enough requests to create real memory pressure on 4-GPU nodes.
    ShareGptLikeConfig::small(2_000, 42).generate()
}

fn tput(s: Scheduler, model: &ModelSpec, node: &NodeSpec, trace: &Trace) -> Option<f64> {
    let cfg = s.default_config();
    let out = s.run(model, node, &cfg, Workload::offline(trace), &OraclePredictor).ok()?;
    Some(out.report.throughput_total())
}

#[test]
fn tdpipe_wins_at_four_gpus_on_every_feasible_combo() {
    let trace = trace();
    for (model, node) in [
        (ModelSpec::llama2_13b(), NodeSpec::l20(4)),
        (ModelSpec::qwen2_5_32b(), NodeSpec::l20(4)),
        (ModelSpec::qwen2_5_32b(), NodeSpec::a100(4)),
        (ModelSpec::llama2_70b(), NodeSpec::a100(4)),
    ] {
        let td = tput(Scheduler::TdPipe, &model, &node, &trace).expect("feasible");
        for b in [Scheduler::TpSb, Scheduler::TpHb, Scheduler::PpSb, Scheduler::PpHb] {
            let base = tput(b, &model, &node, &trace).expect("feasible");
            assert!(
                td > base,
                "{} on {}x{}: TD {td:.0} vs {} {base:.0}",
                model.name,
                node.num_gpus,
                node.gpu.name,
                b.name()
            );
        }
    }
}

#[test]
fn pp_hybrid_batching_beats_pp_separate_batching() {
    // §4.2: chunked prefill does help pipeline parallelism.
    let trace = trace();
    for (model, node) in [
        (ModelSpec::llama2_13b(), NodeSpec::l20(4)),
        (ModelSpec::llama2_70b(), NodeSpec::a100(4)),
    ] {
        let sb = tput(Scheduler::PpSb, &model, &node, &trace).unwrap();
        let hb = tput(Scheduler::PpHb, &model, &node, &trace).unwrap();
        assert!(hb > sb * 0.98, "{}: hb {hb:.0} sb {sb:.0}", model.name);
    }
}

#[test]
fn tdpipe_scaling_2_to_4_is_at_least_superlinear_adjacent() {
    // §4.2: doubling GPUs more than doubles TD-Pipe throughput somewhere
    // (memory capacity raises decode intensity).
    let trace = trace();
    let mut best = 0.0f64;
    for (model, node_fn) in [
        (ModelSpec::qwen2_5_32b(), NodeSpec::l20 as fn(u32) -> NodeSpec),
        (ModelSpec::llama2_70b(), NodeSpec::a100),
    ] {
        let t2 = tput(Scheduler::TdPipe, &model, &node_fn(2), &trace).unwrap();
        let t4 = tput(Scheduler::TdPipe, &model, &node_fn(4), &trace).unwrap();
        best = best.max(t4 / t2);
    }
    // At the full 5,000-request scale the bench harness measures
    // 1.94-2.31x; at this reduced scale we pin near-/super-linearity.
    assert!(best > 1.85, "best 2->4 scaling {best:.2} should be ~2x or better");
}

#[test]
fn fig6_comm_fractions_hold() {
    // Fig. 6: at 4 GPUs, TP prefill spends roughly half its time in
    // all-reduce; A100 > L20 in comm share.
    let model = ModelSpec::llama_30b();
    let batch = vec![1024u32; 4];
    let frac = |node: &NodeSpec| {
        let c = TpCost::new(model.clone(), node);
        let (comp, comm) = c.prefill_breakdown(&batch);
        comm / (comp + comm)
    };
    let l20 = frac(&NodeSpec::l20(4));
    let a100 = frac(&NodeSpec::a100(4));
    assert!((0.40..0.55).contains(&l20), "L20 comm fraction {l20}");
    assert!((0.45..0.62).contains(&a100), "A100 comm fraction {a100}");
    assert!(a100 > l20, "paper: A100 more comm-bound than L20");
}

#[test]
fn tp_gap_grows_from_l20_to_a100() {
    // §4.2: TD-Pipe/TP+SB is larger on the A100 node than on the L20 node
    // for the same 32B model (TP is more interconnect-constrained there).
    let trace = trace();
    let model = ModelSpec::qwen2_5_32b();
    let gap = |node: &NodeSpec| {
        tput(Scheduler::TdPipe, &model, node, &trace).unwrap()
            / tput(Scheduler::TpSb, &model, node, &trace).unwrap()
    };
    let l20 = gap(&NodeSpec::l20(4));
    let a100 = gap(&NodeSpec::a100(4));
    assert!(a100 > l20, "a100 gap {a100:.2} should exceed l20 gap {l20:.2}");
}
