//! Figure 16: ablation of the decode→prefill switch — fixed request-finish
//! ratios vs the spatial-temporal intensity comparison.
//!
//! Paper claim: the manual points perform reasonably (large memory blunts
//! the penalty), but the intensity comparison consistently achieves the
//! highest throughput.

use serde::Serialize;
use tdpipe_baselines::Scheduler;
use tdpipe_bench::{num_requests, paper_trace, save_json};
use tdpipe_core::{D2pPolicy, TdPipeConfig};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_workload::{ShareGptLikeConfig, Workload};

#[derive(Serialize)]
struct Point {
    combo: String,
    policy: String,
    throughput_total: f64,
    phase_switches: u32,
}

fn main() {
    let trace = paper_trace();
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let predictor = LengthPredictor::train(&hist.split(7).train, &TrainConfig::default());

    println!(
        "Figure 16 — decode->prefill switch ablation ({} requests)",
        num_requests()
    );
    let mut points = Vec::new();
    for (combo, model, node) in [
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20(4)),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100(4)),
    ] {
        println!("--- {combo} ---");
        let mut best_fixed = 0.0f64;
        for ratio in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cfg = TdPipeConfig {
                d2p: D2pPolicy::FixedFinishRatio(ratio),
                ..TdPipeConfig::default()
            };
            let out = Scheduler::TdPipe
                .run(&model, &node, &cfg, Workload::offline(&trace), &predictor)
                .expect("fits");
            let tput = out.report.throughput_total();
            best_fixed = best_fixed.max(tput);
            println!(
                "  finish ratio {:3.0}% : {:6.0} tok/s  (switches {})",
                ratio * 100.0,
                tput,
                out.report.phase_switches
            );
            points.push(Point {
                combo: combo.into(),
                policy: format!("finish-{ratio}"),
                throughput_total: tput,
                phase_switches: out.report.phase_switches,
            });
        }
        let out = Scheduler::TdPipe
            .run(&model, &node, &TdPipeConfig::default(), Workload::offline(&trace), &predictor)
            .expect("fits");
        let st = out.report.throughput_total();
        println!(
            "  spatial-temporal  : {:6.0} tok/s  (switches {})  [{:+.1}% vs best fixed]",
            st,
            out.report.phase_switches,
            (st / best_fixed - 1.0) * 100.0
        );
        points.push(Point {
            combo: combo.into(),
            policy: "intensity".into(),
            throughput_total: st,
            phase_switches: out.report.phase_switches,
        });
    }
    save_json("fig16_d2p_ablation.json", &points);
}
