//! Figure 11: overall throughput of the five schedulers on the four
//! node/model combinations at 1/2/4 GPUs.
//!
//! Paper headline claims this regenerates:
//! * TD-Pipe wins in (almost) all cases, especially at 4 GPUs;
//! * up to 1.91× over TP+SB, 1.90× over TP+HB, 2.73× over PP+SB and
//!   2.21× over PP+HB at 4 devices;
//! * super-linear TD-Pipe scaling from 2 to 4 GPUs (memory capacity
//!   raises decode intensity);
//! * PP+SB/PP+HB scale worse than TD-Pipe ("longer pipeline stages
//!   exacerbate their bubble problems").
//!
//! Run with `TDPIPE_REQUESTS=500` for a quick pass; the default is the
//! paper's 5,000 requests.

use serde::Serialize;
use tdpipe_baselines::Scheduler;
use tdpipe_bench::{num_requests, paper_combos, paper_trace, run_cells_parallel, save_json};
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::LengthPredictor;
use tdpipe_workload::ShareGptLikeConfig;

#[derive(Serialize)]
struct Cell {
    combo: String,
    gpus: u32,
    scheduler: &'static str,
    throughput_total: Option<f64>,
    throughput_output: Option<f64>,
    makespan: Option<f64>,
    utilization: Option<f64>,
    recompute_overhead: Option<f64>,
}

fn main() {
    let trace = paper_trace();
    println!(
        "Figure 11 — overall throughput (total tokens/s), {} requests",
        num_requests()
    );

    // TD-Pipe uses its trained output-length predictor, like the paper
    // (baselines don't consult it).
    let hist = ShareGptLikeConfig::small(30_000, 7).generate();
    let splits = hist.split(7);
    let predictor = LengthPredictor::train(&splits.train, &TrainConfig::default());

    // Build the full grid and run it across all cores (each cell is an
    // independent deterministic simulation).
    let mut grid = Vec::new();
    for (combo, model, node_fn) in paper_combos() {
        for gpus in [1u32, 2, 4] {
            for s in Scheduler::ALL {
                grid.push((combo, gpus, s, model.clone(), node_fn(gpus)));
            }
        }
    }
    let inputs: Vec<_> = grid
        .iter()
        .map(|(_, _, s, m, n)| (*s, m.clone(), n.clone()))
        .collect();
    let results = run_cells_parallel(&inputs, &trace, &predictor);

    let mut cells = Vec::new();
    let mut line = String::new();
    let mut current = ("", 0u32);
    for ((combo, gpus, s, _, _), r) in grid.iter().zip(results) {
        if current != (*combo, *gpus) {
            if !line.is_empty() {
                println!("{line}");
            }
            current = (combo, *gpus);
            line = format!("{combo:>9} x{gpus}:");
        }
        match &r {
            Some(rep) => line += &format!("  {}={:6.0}", s.name(), rep.throughput_total()),
            None => line += &format!("  {}=     -", s.name()),
        }
        cells.push(Cell {
            combo: (*combo).into(),
            gpus: *gpus,
            scheduler: s.name(),
            throughput_total: r.as_ref().map(|x| x.throughput_total()),
            throughput_output: r.as_ref().map(|x| x.throughput_output()),
            makespan: r.as_ref().map(|x| x.makespan),
            utilization: r.as_ref().map(|x| x.mean_utilization),
            recompute_overhead: r.as_ref().map(|x| x.recompute_overhead()),
        });
    }
    if !line.is_empty() {
        println!("{line}");
    }

    // Headline ratios at 4 GPUs.
    println!();
    println!("TD-Pipe speedup over each baseline at 4 GPUs (paper: up to 1.91 / 1.90 / 2.73 / 2.21):");
    for (combo, _, _) in paper_combos() {
        let get = |s: &str| {
            cells
                .iter()
                .find(|c| c.combo == combo && c.gpus == 4 && c.scheduler == s)
                .and_then(|c| c.throughput_total)
        };
        let td = get(Scheduler::TdPipe.name());
        let mut line = format!("{combo:>9}:");
        for b in Scheduler::ALL.map(Scheduler::name) {
            if b == Scheduler::TdPipe.name() {
                continue;
            }
            match (td, get(b)) {
                (Some(t), Some(x)) => line += &format!("  vs {b} {:4.2}x", t / x),
                _ => line += &format!("  vs {b}    -"),
            }
        }
        println!("{line}");
    }

    // Super-linear scaling check (paper: L20+32B grows 2.97x from 2 to 4).
    println!();
    println!("TD-Pipe scaling 2 -> 4 GPUs (paper reports ~2.97x for L20+32B):");
    for (combo, _, _) in paper_combos() {
        let get = |g: u32| {
            cells
                .iter()
                .find(|c| {
                    c.combo == combo && c.gpus == g && c.scheduler == Scheduler::TdPipe.name()
                })
                .and_then(|c| c.throughput_total)
        };
        if let (Some(t2), Some(t4)) = (get(2), get(4)) {
            println!("{combo:>9}: {:4.2}x", t4 / t2);
        }
    }

    save_json("fig11_overall.json", &cells);
}
