//! Extension ablation: recompute vs swap preemption.
//!
//! §3.3 names both ways to survive a KV overflow — "frequent
//! re-computation or offloading" — and §4.1 picks recomputation. This
//! sweep makes the choice measurable. To force real memory pressure, the
//! engine runs with the pathological always-1 predictor (maximally greedy
//! admission) on the smallest-memory configurations.

use serde::Serialize;
use tdpipe_baselines::Scheduler;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::{PreemptionMode, TdPipeConfig};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::{Request, Workload};

struct AlwaysOne;
impl OutputLenPredictor for AlwaysOne {
    fn predict(&self, _r: &Request) -> u32 {
        1
    }
}

#[derive(Serialize)]
struct Row {
    combo: String,
    mode: String,
    throughput_total: f64,
    recomputed_tokens: u64,
    swapped_tokens: u64,
}

fn main() {
    let trace = paper_trace();
    println!(
        "Preemption ablation — recompute vs swap under maximal admission pressure ({} requests)",
        num_requests()
    );
    let mut rows = Vec::new();
    for (combo, model, node) in [
        ("L20x1+13B", ModelSpec::llama2_13b(), NodeSpec::l20(1)),
        ("L20x2+13B", ModelSpec::llama2_13b(), NodeSpec::l20(2)),
        ("A100x2+32B", ModelSpec::qwen2_5_32b(), NodeSpec::a100(2)),
    ] {
        println!("--- {combo} ---");
        for mode in [PreemptionMode::Recompute, PreemptionMode::Swap] {
            let mut cfg = TdPipeConfig::default();
            cfg.engine.preemption = mode;
            let out = Scheduler::TdPipe
                .run(&model, &node, &cfg, Workload::offline(&trace), &AlwaysOne)
                .expect("fits");
            println!(
                "  {:<10} {:6.0} tok/s  recomputed {:>9} tok  swapped {:>9} tok",
                format!("{mode:?}"),
                out.report.throughput_total(),
                out.report.recomputed_tokens,
                out.report.swapped_tokens
            );
            rows.push(Row {
                combo: combo.into(),
                mode: format!("{mode:?}"),
                throughput_total: out.report.throughput_total(),
                recomputed_tokens: out.report.recomputed_tokens,
                swapped_tokens: out.report.swapped_tokens,
            });
        }
    }
    println!(
        "\nswap trades recomputed GPU work for host-link transfers; which wins depends\n\
         on how expensive a token is to recompute (model size) versus to move (KV bytes)."
    );
    save_json("ablation_preemption.json", &rows);
}
