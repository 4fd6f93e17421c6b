//! `fig11_grid`: the paper's Figure 11 at 4 GPUs. All five schedulers run
//! the same offline trace on the four node/model combinations, and the
//! simulated "up to" speedups of TD-Pipe over each baseline are compared
//! with the paper's.

use tdpipe_baselines::{PpHbEngine, PpSbEngine, TpHbEngine, TpSbEngine};
use tdpipe_bench::paper_combos;
use tdpipe_core::engine::RunOutcome;
use tdpipe_core::EngineConfig;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{LatencySummary, RunReport};
use tdpipe_workload::{ShareGptLikeConfig, Trace};

use super::{
    history, is_traced_rep, quiet_config, set_bucket_accuracy, set_core_counts, set_layer_timings,
    setup, sub_seed, train_predictor, Outcome, Params, Probes, Repeats, Stream, TdRunner,
};
use crate::checks::{paper_speedup_err, FailLedger, Totals};
use crate::probe::{SpanId, Tracer};
use crate::sheet::Sheet;
use crate::stats::geomean;

/// Requests per cell. The paper samples 5,000; at that size the
/// simulated TTFT median of a TD-Pipe cell moves by 13% between seeds,
/// at 20,000 by 2%.
const REQUESTS: usize = 20_000;
/// GPUs per node.
const GPUS: u32 = 4;
/// The baselines, in the order of the paper's speedups, then TD-Pipe.
const SCHEDULERS: [&str; 5] = ["tp_sb", "tp_hb", "pp_sb", "pp_hb", "td_pipe"];

/// One planned cell of the grid.
enum Engine {
    TpSb(TpSbEngine),
    TpHb(TpHbEngine),
    PpSb(PpSbEngine),
    PpHb(PpHbEngine),
    Td(TdRunner),
}

/// Plan scheduler `s` (an index into [`SCHEDULERS`]) on one combination,
/// or `None` when the model does not fit that layout.
fn plan(s: usize, model: &tdpipe_model::ModelSpec, node: &tdpipe_hw::NodeSpec) -> Option<Engine> {
    let cfg = EngineConfig::default();
    let m = model.clone();
    match s {
        0 => TpSbEngine::new(m, node, cfg).ok().map(Engine::TpSb),
        1 => TpHbEngine::new(m, node, cfg).ok().map(Engine::TpHb),
        2 => PpSbEngine::new(m, node, cfg).ok().map(Engine::PpSb),
        3 => PpHbEngine::new(m, node, cfg).ok().map(Engine::PpHb),
        _ => TdRunner::new(m, node, quiet_config()).ok().map(Engine::Td),
    }
}

/// Run one cell, timed as a span named after its scheduler; a traced
/// repeat runs TD-Pipe through the probes.
fn run_cell(
    tr: &mut Tracer,
    parent: SpanId,
    engine: &Engine,
    trace: &Trace,
    predictor: &dyn OutputLenPredictor,
    probes: Option<&Probes>,
) -> (RunReport, Option<RunOutcome>) {
    let s = Some(parent);
    match engine {
        Engine::TpSb(e) => (
            tr.time_in(s, "tp_sb", || e.run(trace, predictor)).0.report,
            None,
        ),
        Engine::TpHb(e) => (
            tr.time_in(s, "tp_hb", || e.run(trace, predictor)).0.report,
            None,
        ),
        Engine::PpSb(e) => (
            tr.time_in(s, "pp_sb", || e.run(trace, predictor)).0.report,
            None,
        ),
        Engine::PpHb(e) => (
            tr.time_in(s, "pp_hb", || e.run(trace, predictor)).0.report,
            None,
        ),
        Engine::Td(e) => {
            let out = match probes {
                Some(pr) => e.run_traced(tr, s, "td_pipe.traced", trace, predictor, pr),
                None => tr.time_in(s, "td_pipe", || e.run(trace, predictor)).0,
            };
            (out.report.clone(), Some(out))
        }
    }
}

/// The simulated "up to" speedup of TD-Pipe over each baseline: the best
/// ratio of total-token throughputs over the combinations where both fit.
fn upto_speedups(reports: &[[Option<RunReport>; 5]]) -> [f64; 4] {
    let mut best = [f64::NAN; 4];
    for row in reports {
        let Some(td) = &row[4] else { continue };
        for (b, slot) in best.iter_mut().enumerate() {
            if let Some(base) = &row[b] {
                *slot = slot.max(td.throughput_total() / base.throughput_total());
            }
        }
    }
    best
}

/// Set the `sim_*` metrics of the whole grid as geometric means over its
/// cells, so that every cell counts equally: a change confined to one
/// scheduler's `k` of the grid's `n` cells moves each figure by that
/// scheduler's own ratio to the power `k/n`. The grid is offline, so there
/// is no SLO: goodput is completions per simulated second.
fn set_sim_grid(sheet: &mut Sheet, reports: &[[Option<RunReport>; 5]]) {
    let cells: Vec<&RunReport> = reports.iter().flatten().flatten().collect();
    let over_cells =
        |f: &dyn Fn(&RunReport) -> f64| geomean(&cells.iter().map(|r| f(r)).collect::<Vec<_>>());
    sheet.set(
        "sim_throughput_tok_s",
        over_cells(&|r| r.throughput_total()),
    );
    sheet.set(
        "sim_goodput_req_s",
        over_cells(&|r| r.num_requests as f64 / r.makespan),
    );
    sheet.set("sim_slo_attainment", 1.0);
    if cells.iter().all(|r| r.latency.is_some()) {
        let latency =
            |f: fn(&LatencySummary) -> f64| over_cells(&|r| r.latency.as_ref().map_or(f64::NAN, f));
        sheet.set("sim_ttft_p50_s", latency(|l| l.ttft_p50));
        sheet.set("sim_ttft_p99_s", latency(|l| l.ttft_p99));
        sheet.set("sim_tpot_p50_s", latency(|l| l.tpot_p50));
        sheet.set("sim_tpot_p95_s", latency(|l| l.tpot_p95));
    }
}

pub fn fig11_grid(p: &Params) -> Outcome {
    let mut tr = Tracer::default();
    let (trace, predictor, grid) = setup(&mut tr, |tr, s| {
        let ((trace, hist), _) = tr.time_in(Some(s), "workload.generate", || {
            let trace =
                ShareGptLikeConfig::small(REQUESTS, sub_seed(p.seed, Stream::Trace)).generate();
            (trace, history(p.seed))
        });
        let (predictor, _) = tr.time_in(Some(s), "predictor.train", || {
            train_predictor(&hist, p.seed)
        });
        let (grid, _) = tr.time_in(Some(s), "model.plan", || {
            paper_combos()
                .into_iter()
                .map(|(_, model, node_of)| {
                    let node = node_of(GPUS);
                    (0..SCHEDULERS.len())
                        .map(|s| plan(s, &model, &node))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        (trace, predictor, grid)
    });

    let mut sheet = Sheet::default();
    let mut ledger = FailLedger::default();
    let want = Totals::of_trace(&trace);
    let probes = Probes::default();
    let mut first: Option<Vec<[Option<RunReport>; 5]>> = None;
    for rep in Repeats::new(p) {
        tr.begin_rep(rep);
        let traced = is_traced_rep(p, rep);
        let span = tr.begin(None, if traced { "run.traced" } else { "run" });
        let mut reports: Vec<[Option<RunReport>; 5]> = Vec::new();
        let mut td_runs: Vec<RunOutcome> = Vec::new();
        for row in &grid {
            let mut cells: [Option<RunReport>; 5] = Default::default();
            for (slot, engine) in cells.iter_mut().zip(row) {
                let Some(engine) = engine else { continue };
                let (report, td) = run_cell(
                    &mut tr,
                    span.0,
                    engine,
                    &trace,
                    &predictor,
                    traced.then_some(&probes),
                );
                td_runs.extend(td);
                *slot = Some(report);
            }
            reports.push(cells);
        }
        tr.end(span);
        match &first {
            Some(f) => {
                for (a, b) in f.iter().flatten().zip(reports.iter().flatten()) {
                    if let (Some(a), Some(b)) = (a, b) {
                        ledger.check_same("fig11_grid repeat", want.requests, a, b);
                    }
                }
            }
            None => {
                for report in reports.iter().flatten().flatten() {
                    ledger.open_run(want.requests);
                    let label = format!("fig11_grid {}", report.scheduler);
                    ledger.check_totals(&label, Totals::of_report(report), want, 0);
                }
                set_core_counts(&mut sheet, &td_runs.iter().collect::<Vec<_>>());
                first = Some(reports);
            }
        }
    }
    let first = first.expect("at least one repeat");

    sheet.set("setup_s", tr.calibrated_median_cpu("setup"));
    sheet.set("run_s", tr.calibrated_median_cpu("run"));
    set_sim_grid(&mut sheet, &first);
    if p.traced {
        set_layer_timings(&mut sheet, &tr, "td_pipe.traced");
        set_bucket_accuracy(&mut sheet, &predictor, &trace);
        for name in SCHEDULERS {
            let metric = format!("baselines.{name}.run_s");
            super::set_if_measured(&mut sheet, &metric, tr.median_secs(name));
        }
        let speedups = upto_speedups(&first);
        for (name, s) in SCHEDULERS.iter().zip(speedups) {
            sheet.set(format!("fig11.speedup_vs.{name}"), s);
        }
        sheet.set("fig11.paper_speedup_err", paper_speedup_err(&speedups));
    }
    Outcome::new(sheet, ledger, &tr)
}
