//! Figure 6: execution-time breakdown of the prefill phase under tensor
//! parallelism (Llama-30B, 1→4 GPUs, L20 and A100 nodes).
//!
//! Paper targets: on the L20 node, 4-GPU total time is 1.84× faster than
//! 1 GPU with communication at 47.39% of total; on the A100 node, 1.64×
//! with communication at 53.9%.

use serde::Serialize;
use tdpipe_bench::save_json;
use tdpipe_core::cost::TpCost;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;

#[derive(Serialize)]
struct Row {
    node: String,
    gpus: u32,
    compute_s: f64,
    comm_s: f64,
    total_s: f64,
    comm_fraction: f64,
    speedup_vs_1gpu: f64,
}

fn main() {
    // The paper's case study runs a reduced-layer Llama-30B prefill; the
    // breakdown ratio is layer-count independent, so we price the full
    // model on a representative prefill batch.
    let model = ModelSpec::llama_30b();
    let batch: Vec<u32> = vec![1024; 4];

    let mut rows = Vec::new();
    for (name, node_fn) in [
        ("L20", NodeSpec::l20 as fn(u32) -> NodeSpec),
        ("A100", NodeSpec::a100),
    ] {
        println!("--- {name} node, Llama-30B prefill ({} tokens) ---", 4096);
        let mut t1 = 0.0;
        for gpus in [1u32, 2, 4] {
            let cost = TpCost::new(model.clone(), &node_fn(gpus));
            let (compute, comm) = cost.prefill_breakdown(&batch);
            let total = compute + comm;
            if gpus == 1 {
                t1 = total;
            }
            let row = Row {
                node: name.into(),
                gpus,
                compute_s: compute,
                comm_s: comm,
                total_s: total,
                comm_fraction: comm / total,
                speedup_vs_1gpu: t1 / total,
            };
            println!(
                "  {gpus} GPU: total {:7.1} ms  compute {:7.1} ms  comm {:6.1} ms  comm% {:5.1}  speedup {:4.2}x",
                row.total_s * 1e3,
                row.compute_s * 1e3,
                row.comm_s * 1e3,
                row.comm_fraction * 100.0,
                row.speedup_vs_1gpu,
            );
            rows.push(row);
        }
    }
    println!();
    println!("paper: L20 4-GPU speedup 1.84x, comm 47.39% | A100 4-GPU speedup 1.64x, comm 53.9%");
    save_json("fig6_tp_breakdown.json", &rows);
}
