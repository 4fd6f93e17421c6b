//! Figures 1 & 2: pipeline bubbles and GPU utilization.
//!
//! Figure 2's message: conventional pipeline parallelism (chunked-prefill
//! hybrid batching shown in the paper) leaves the GPUs substantially idle,
//! while TD-Pipe keeps them busy. This binary reports mean utilization for
//! PP+SB, PP+HB and TD-Pipe on one configuration, a windowed utilization
//! series (the figure's time axis), and exports Gantt CSVs from which the
//! Figure 1 bubble anatomy can be plotted.

use tdpipe_baselines::Scheduler;
use tdpipe_bench::{num_requests, paper_trace, save_text};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OraclePredictor;
use tdpipe_sim::{bubble_breakdown, Timeline};
use tdpipe_workload::Workload;

fn windowed(timeline: &Timeline, windows: usize) -> Vec<f64> {
    let span = timeline.makespan();
    (0..windows)
        .map(|w| {
            let a = span * w as f64 / windows as f64;
            let b = span * (w + 1) as f64 / windows as f64;
            timeline.mean_utilization_in_window(a, b)
        })
        .collect()
}

fn print_series(name: &str, series: &[f64]) {
    let bars: String = series
        .iter()
        .map(|&u| match (u * 10.0) as u32 {
            0..=2 => '.',
            3..=4 => ':',
            5..=6 => '+',
            7..=8 => '#',
            _ => '@',
        })
        .collect();
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    println!("  {name:<8} mean {:5.1}%  [{bars}]", mean * 100.0);
}

fn main() {
    let trace = paper_trace();
    let model = ModelSpec::llama2_13b();
    let node = NodeSpec::l20(4);

    println!(
        "Figure 2 — GPU utilization over time, L20x4 + Llama2-13B, {} requests",
        num_requests()
    );
    println!("(each cell is 1/40th of the run; . <30%, : <50%, + <70%, # <90%, @ >=90%)");

    let runs = [
        (Scheduler::PpSb, "pp_sb"),
        (Scheduler::PpHb, "pp_hb"),
        (Scheduler::TdPipe, "tdpipe"),
    ]
    .map(|(s, file)| {
        let mut cfg = s.default_config();
        cfg.engine.record_timeline = true;
        let out = s
            .run(&model, &node, &cfg, Workload::offline(&trace), &OraclePredictor)
            .expect("fits");
        print_series(s.name(), &windowed(&out.timeline, 40));
        (s.name(), file, out)
    });

    println!();
    let means: Vec<String> = runs
        .iter()
        .map(|(name, _, out)| format!("{name} {:.1}%", out.report.mean_utilization * 100.0))
        .collect();
    println!(
        "mean utilization: {}  (paper Fig. 2: PP ~40-60%, TD-Pipe high)",
        means.join("  ")
    );

    // Bubble decomposition (where does the idle time come from?).
    println!();
    println!("idle-time decomposition (seconds across 4 GPUs):");
    println!(
        "{:>9} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "", "in-decode", "in-prefill", "phase-bound", "warmup", "drain"
    );
    for (name, _, out) in &runs {
        let b = bubble_breakdown(&out.timeline, 1e-6);
        println!(
            "{name:>9} {:>10.1} {:>10.1} {:>12.1} {:>8.1} {:>8.1}",
            b.within_decode, b.within_prefill, b.at_phase_boundary, b.warmup, b.drain
        );
    }

    // Figure 1 raw material: per-device Gantt segments.
    for (_, file, out) in &runs {
        save_text(&format!("fig1_gantt_{file}.csv"), &out.timeline.to_csv());
    }
}
