//! Hierarchy-controller ablation (paper §3.2): run the full TD-Pipe
//! scheduler with each transfer semantics.
//!
//! The paper introduces the hierarchy-controller to replace blocking
//! stage-to-stage transfers with asynchronous ones. Because the transfer
//! mode is an engine knob here, the architecture's contribution can be
//! isolated: identical scheduling decisions, different execution-plane
//! coupling.

use serde::Serialize;
use tdpipe_baselines::Scheduler;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::TdPipeConfig;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OraclePredictor;
use tdpipe_sim::TransferMode;
use tdpipe_workload::Workload;

#[derive(Serialize)]
struct Row {
    combo: String,
    mode: String,
    throughput_total: f64,
    utilization: f64,
}

fn main() {
    let trace = paper_trace();
    println!(
        "Hierarchy-controller ablation — TD-Pipe under each transfer semantics ({} requests)",
        num_requests()
    );
    let mut rows = Vec::new();
    for (combo, model, node) in [
        ("L20+13B", ModelSpec::llama2_13b(), NodeSpec::l20(4)),
        ("A100+32B", ModelSpec::qwen2_5_32b(), NodeSpec::a100(4)),
    ] {
        println!("--- {combo} ---");
        let mut async_tput = 0.0;
        for mode in [
            TransferMode::Async,
            TransferMode::Blocking,
            TransferMode::Rendezvous,
        ] {
            let mut cfg = TdPipeConfig::default();
            cfg.engine.transfer_mode = mode;
            let out = Scheduler::TdPipe
                .run(&model, &node, &cfg, Workload::offline(&trace), &OraclePredictor)
                .expect("fits");
            let tput = out.report.throughput_total();
            if mode == TransferMode::Async {
                async_tput = tput;
            }
            println!(
                "  {:<11} {:6.0} tok/s (util {:4.1}%){}",
                format!("{mode:?}"),
                tput,
                out.report.mean_utilization * 100.0,
                if mode == TransferMode::Async {
                    "  <- hierarchy-controller".into()
                } else {
                    format!("  ({:+.1}% vs async)", (tput / async_tput - 1.0) * 100.0)
                }
            );
            rows.push(Row {
                combo: combo.into(),
                mode: format!("{mode:?}"),
                throughput_total: tput,
                utilization: out.report.mean_utilization,
            });
        }
    }
    save_json("ablation_runtime.json", &rows);
}
