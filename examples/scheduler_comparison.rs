//! Compare TD-Pipe with the four baseline schedulers across the paper's
//! node/model combinations (a miniature of Figure 11).
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use tdpipe::baselines::Scheduler;
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ShareGptLikeConfig, Workload};

fn main() {
    let trace = ShareGptLikeConfig::small(5000, 42).generate();
    #[allow(clippy::type_complexity)]
    let combos: [(&str, ModelSpec, fn(u32) -> NodeSpec); 4] = [
        ("L20+13B", ModelSpec::llama2_13b(), NodeSpec::l20),
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20),
        ("A100+32B", ModelSpec::qwen2_5_32b(), NodeSpec::a100),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100),
    ];
    println!("throughput in total tokens/s (prompt+generated); '-' = weights do not fit");
    for (mname, model, node) in combos {
        for g in [1u32, 2, 4] {
            let n = node(g);
            let mut row = format!("{mname:>9} x{g}:");
            for s in Scheduler::ALL {
                let name = s.name();
                let cfg = s.default_config();
                match s.run(&model, &n, &cfg, Workload::offline(&trace), &OraclePredictor) {
                    Ok(out) => row += &format!("  {name}={:6.0}", out.report.throughput_total()),
                    Err(_) => row += &format!("  {name}=     -"),
                }
            }
            println!("{row}");
        }
    }
}
