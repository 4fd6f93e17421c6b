//! Capacity planner: which deployment should serve my offline workload?
//!
//! Given a model and a daily token volume, sweep node types, GPU counts
//! and schedulers; report feasibility (do the weights even fit?), expected
//! throughput, and the hours needed per day of traffic. This is the kind
//! of downstream tool the analytical substrate makes cheap: each cell is
//! a full simulated run, not a hand-wavy spreadsheet estimate.
//!
//! ```text
//! cargo run --release --example capacity_planner
//! ```

use tdpipe::baselines::Scheduler;
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::workload::{ShareGptLikeConfig, Workload};

fn main() {
    let model = ModelSpec::llama2_70b();
    // A representative sample of the daily traffic; results scale linearly
    // in token volume for a throughput-bound deployment.
    let sample = ShareGptLikeConfig::small(2_000, 21).generate();
    let sample_tokens = (sample.total_input_tokens() + sample.total_output_tokens()) as f64;
    let daily_tokens = 500e6; // 500M tokens/day of batch traffic

    println!(
        "capacity plan for {} — {:.0}M tokens/day\n",
        model.name,
        daily_tokens / 1e6
    );
    println!(
        "{:<6} {:>5} {:>10} {:>14} {:>14} {:>12}",
        "node", "gpus", "scheduler", "tokens/s", "hours/day", "feasible"
    );

    let mut best: Option<(String, f64)> = None;
    for (name, node_fn) in [
        ("L20", NodeSpec::l20 as fn(u32) -> NodeSpec),
        ("A100", NodeSpec::a100),
    ] {
        for gpus in [1u32, 2, 4, 8] {
            let node = node_fn(gpus);
            for s in [Scheduler::TdPipe, Scheduler::TpSb] {
                let sched = s.name();
                let cfg = s.default_config();
                let report = s
                    .run(&model, &node, &cfg, Workload::offline(&sample), &OraclePredictor)
                    .ok()
                    .map(|out| out.report);
                match report {
                    None => println!(
                        "{name:<6} {gpus:>5} {sched:>10} {:>14} {:>14} {:>12}",
                        "-", "-", "weights>mem"
                    ),
                    Some(r) => {
                        let tput = r.throughput_total();
                        let hours = daily_tokens / tput / 3600.0;
                        println!(
                            "{name:<6} {gpus:>5} {sched:>10} {tput:>14.0} {hours:>14.1} {:>12}",
                            "yes"
                        );
                        let label = format!("{name} x{gpus} {sched}");
                        // "Best" = fewest GPU-hours per day of traffic.
                        let gpu_hours = hours * gpus as f64;
                        if best.as_ref().is_none_or(|(_, b)| gpu_hours < *b) {
                            best = Some((label, gpu_hours));
                        }
                    }
                }
            }
        }
    }
    let (label, gpu_hours) = best.expect("some deployment is feasible");
    println!("\nmost efficient deployment: {label} ({gpu_hours:.1} GPU-hours per day of traffic)");
    let _ = sample_tokens;
}
