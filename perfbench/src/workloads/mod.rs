//! The four workloads and what they share: seeds, set-up repeats, the
//! repeat loop, TD-Pipe engine calls with and without the probes, and the
//! simulated (`sim_*`) metrics of a run report.

mod fig11;
mod fleet;
mod offline;

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_core::exec::SimExecutor;
use tdpipe_core::{EngineConfig, TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_kvcache::Phase;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::classifier::TrainConfig;
use tdpipe_predictor::eval::ConfusionMatrix;
use tdpipe_predictor::{LengthPredictor, OutputLenPredictor};
use tdpipe_sim::RunReport;
use tdpipe_workload::{ShareGptLikeConfig, Trace};

use crate::checks::FailLedger;
use crate::probe::{CallStats, SpanId, TimedExecutor, TimedPredictor, Tracer};
use crate::sheet::Sheet;

/// A named workload (the names `BENCHMARK.json` lists).
pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Params) -> Outcome,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_td",
        run: offline::offline_td,
    },
    Workload {
        name: "offline_observed",
        run: offline::offline_observed,
    },
    Workload {
        name: "fleet_sessions",
        run: fleet::fleet_sessions,
    },
    Workload {
        name: "fig11_grid",
        run: fig11::fig11_grid,
    },
];

/// Command-line parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Host time to spend in the measured repeats.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub sheet: Sheet,
    pub ledger: FailLedger,
    /// Unscaled host seconds of each untraced repeat.
    pub run_samples: Vec<f64>,
    /// Unscaled CPU seconds of each untraced repeat.
    pub run_cpu_samples: Vec<f64>,
    /// Mean CPU seconds of one calibration kernel run.
    pub calibration_cpu: f64,
}

impl Outcome {
    /// Finish a workload run: the run samples come from the `run` spans.
    pub fn new(sheet: Sheet, ledger: FailLedger, tr: &Tracer) -> Self {
        Outcome {
            sheet,
            ledger,
            run_samples: tr.per_rep("run", |_, s| s.secs),
            run_cpu_samples: tr.per_rep("run", |_, s| s.cpu),
            calibration_cpu: tr.mean_calibration_cpu(),
        }
    }
}

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Fewest measured repeats, whatever the budget.
const MIN_REPS: usize = 3;
/// Fewest repeats in a traced run: two traced, two untraced.
const MIN_TRACED_REPS: usize = 4;
/// Most measured repeats, whatever the budget.
const MAX_REPS: usize = 1_000;
/// Requests in the history the length predictor trains on (60% of it;
/// the paper's figures train on a 30k-request history too).
const HISTORY_REQUESTS: usize = 30_000;

/// Independent input streams derived from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Trace = 1,
    History = 2,
    Arrivals = 3,
    Router = 4,
}

/// A sub-seed for one input stream (splitmix64 of the seed and stream).
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run set-up `SETUP_REPS` times under a `setup` span each (each after a
/// calibration probe), dropping the previous inputs before building the
/// next, and keep the last.
pub fn setup<T>(tr: &mut Tracer, mut build: impl FnMut(&mut Tracer, SpanId) -> T) -> T {
    let mut built = None;
    for rep in 0..SETUP_REPS {
        tr.begin_rep(rep);
        drop(built.take());
        let span = tr.begin(None, "setup");
        built = Some(build(tr, span.0));
        tr.end(span);
    }
    built.expect("set-up ran")
}

/// The history trace the predictor learns from (its own seed stream).
pub fn history(seed: u64) -> Trace {
    ShareGptLikeConfig::small(HISTORY_REQUESTS, sub_seed(seed, Stream::History)).generate()
}

/// Train the output-length predictor on the history's training split.
pub fn train_predictor(history: &Trace, seed: u64) -> LengthPredictor {
    let splits = history.split(sub_seed(seed, Stream::History));
    LengthPredictor::train(&splits.train, &TrainConfig::default())
}

/// Measured repeats: at least a minimum count, then as many as fit the
/// budget (the next repeat is skipped when the average so far says it
/// would overrun).
pub struct Repeats {
    start: Instant,
    budget: Duration,
    min: usize,
    done: usize,
}

impl Repeats {
    /// Repeats for one run's parameters.
    pub fn new(p: &Params) -> Self {
        Repeats {
            start: Instant::now(),
            budget: p.budget,
            min: if p.traced { MIN_TRACED_REPS } else { MIN_REPS },
            done: 0,
        }
    }
}

impl Iterator for Repeats {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done >= self.min {
            let spent = self.start.elapsed();
            let mean = spent / self.done as u32;
            if spent + mean > self.budget || self.done >= MAX_REPS {
                return None;
            }
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// Whether repeat `rep` of a run is a traced one: a traced run alternates
/// untraced and traced repeats, so the difference of their medians is the
/// tracing overhead.
pub fn is_traced_rep(p: &Params, rep: usize) -> bool {
    p.traced && rep % 2 == 1
}

/// The paper's offline configuration with every recorder off.
pub fn quiet_config() -> TdPipeConfig {
    let d = TdPipeConfig::default();
    TdPipeConfig {
        engine: EngineConfig {
            record_occupancy: false,
            ..d.engine
        },
        ..d
    }
}

/// The counters the probes fold into each traced engine call.
#[derive(Default)]
pub struct Probes {
    pub exec: Arc<CallStats>,
    pub predict: CallStats,
}

/// A planned TD-Pipe engine and the configuration it was planned with.
pub struct TdRunner {
    engine: TdPipeEngine,
    cfg: TdPipeConfig,
}

impl TdRunner {
    /// Plan an engine.
    pub fn new(
        model: ModelSpec,
        node: &NodeSpec,
        cfg: TdPipeConfig,
    ) -> Result<Self, InfeasibleConfig> {
        let engine = TdPipeEngine::new(model, node, cfg.clone())?;
        Ok(TdRunner { engine, cfg })
    }

    /// One run through the public entry point.
    pub fn run(&self, trace: &Trace, predictor: &dyn OutputLenPredictor) -> RunOutcome {
        self.engine.run(trace, predictor)
    }

    /// One run with the executor and predictor probes, timed as span
    /// `name` with the probes folded in as its children.
    pub fn run_traced(
        &self,
        tr: &mut Tracer,
        parent: Option<SpanId>,
        name: &'static str,
        trace: &Trace,
        predictor: &dyn OutputLenPredictor,
        probes: &Probes,
    ) -> RunOutcome {
        let e = &self.cfg.engine;
        let exec = SimExecutor::new(
            self.engine.cost().num_stages(),
            e.transfer_mode,
            e.record_timeline,
        );
        let exec = Box::new(TimedExecutor::new(exec, probes.exec.clone()));
        let timed = TimedPredictor::new(predictor, &probes.predict);
        let (out, span) = tr.time_in(parent, name, || {
            self.engine.try_run_on(trace, &[], &timed, exec)
        });
        tr.fold(span, "sim.exec", &probes.exec);
        tr.fold(span, "predictor.predict", &probes.predict);
        out.unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Set the `sim_*` metrics of one run with no latency SLO (the paper's
/// offline setting): every completion counts as attained. A report
/// without latency leaves those metrics unset, which fails the run.
pub fn set_sim_offline(sheet: &mut Sheet, report: &RunReport) {
    sheet.set("sim_throughput_tok_s", report.throughput_total());
    if let Some(l) = &report.latency {
        sheet.set("sim_ttft_p50_s", l.ttft_p50);
        sheet.set("sim_ttft_p99_s", l.ttft_p99);
        sheet.set("sim_tpot_p50_s", l.tpot_p50);
        sheet.set("sim_tpot_p95_s", l.tpot_p95);
    }
    sheet.set(
        "sim_goodput_req_s",
        report.num_requests as f64 / report.makespan,
    );
    sheet.set("sim_slo_attainment", 1.0);
}

/// Set the scheduler counts of one TD-Pipe run.
pub fn set_core_counts(sheet: &mut Sheet, outcomes: &[&RunOutcome]) {
    let mut switches = 0u64;
    let mut prefill_phases = 0u64;
    let mut decode_steps = 0u64;
    let mut recomputed = 0u64;
    for out in outcomes {
        switches += u64::from(out.report.phase_switches);
        recomputed += out.report.recomputed_tokens;
        for p in &out.phases {
            match p.phase {
                Phase::Prefill => prefill_phases += 1,
                Phase::Decode => decode_steps += p.work_items,
            }
        }
    }
    sheet.set("core.phase_switches", switches as f64);
    sheet.set("core.prefill_phases", prefill_phases as f64);
    sheet.set("core.decode_steps", decode_steps as f64);
    sheet.set("kvcache.recomputed_tokens", recomputed as f64);
}

/// Set the predictor's bucket accuracy on the workload's own requests.
pub fn set_bucket_accuracy(sheet: &mut Sheet, predictor: &LengthPredictor, trace: &Trace) {
    let accuracy = ConfusionMatrix::compute(predictor, trace).accuracy();
    sheet.set("predictor.bucket_accuracy", accuracy);
}

/// Set the set-up and probe metrics every traced workload shares, from
/// the `run` (untraced) and `run.traced` repeat spans; `engine` names the
/// span whose self time is the scheduler's own.
pub fn set_layer_timings(sheet: &mut Sheet, tr: &Tracer, engine: &str) {
    for (metric, span) in [
        ("workload.generate_s", "workload.generate"),
        ("predictor.train_s", "predictor.train"),
        ("model.plan_s", "model.plan"),
        ("sim.exec_s", "sim.exec"),
        ("predictor.predict_s", "predictor.predict"),
    ] {
        set_if_measured(sheet, metric, tr.median_secs(span));
    }
    set_if_measured(sheet, "sim.launches", tr.median_calls("sim.exec"));
    set_if_measured(
        sheet,
        "predictor.predict_calls",
        tr.median_calls("predictor.predict"),
    );
    if tr.median_calls("sim.exec") > 0.0 {
        set_if_measured(sheet, "core.self_s", tr.median_self_secs(engine));
    }
    set_if_measured(sheet, "bench.wall_run_s", tr.median_secs("run"));
    set_if_measured(sheet, "bench.calibration_s", tr.mean_calibration_cpu());
    set_if_measured(
        sheet,
        "bench.trace_overhead_s",
        tr.median_secs("run.traced") - tr.median_secs("run"),
    );
}

/// Set `name` unless the value is NaN (no span measured it).
pub fn set_if_measured(sheet: &mut Sheet, name: &str, value: f64) {
    if !value.is_nan() {
        sheet.set(name, value);
    }
}
