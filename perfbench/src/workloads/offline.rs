//! The paper's offline setting: every request queued at t = 0 on one
//! L20×4 node serving Llama2-13B under TD-Pipe with the trained
//! predictor.
//!
//! * `offline_td` runs it at a million requests with every recorder off,
//!   so the scheduler's hot path does the work.
//! * `offline_observed` runs it at 20k requests with the journal,
//!   timeline and metrics recorders on, then serialises and analyses the
//!   outputs the way the CLI's `--journal-out`, `--metrics-out`,
//!   `span-report` and `bubble-report` do, validators included.

use tdpipe_core::engine::RunOutcome;
use tdpipe_core::{EngineConfig, TdPipeConfig};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::LengthPredictor;
use tdpipe_sim::RunReport;
use tdpipe_spans::{
    analyze, bubble_report_json, span_report_json, validate_bubble_report, validate_span_report,
    Analysis,
};
use tdpipe_trace::{chrome_trace, validate_chrome_trace};
use tdpipe_workload::{ShareGptLikeConfig, Trace};

use super::{
    history, is_traced_rep, quiet_config, set_bucket_accuracy, set_core_counts, set_if_measured,
    set_layer_timings, set_sim_offline, setup, sub_seed, train_predictor, Outcome, Params, Probes,
    Repeats, Stream, TdRunner,
};
use crate::checks::{FailLedger, Totals};
use crate::probe::{SpanId, Tracer};
use crate::sheet::Sheet;

/// Requests in `offline_td`.
const TD_REQUESTS: usize = 1_000_000;
/// Requests in `offline_observed`.
const OBSERVED_REQUESTS: usize = 20_000;

/// Generate the trace and history, train the predictor.
fn inputs(tr: &mut Tracer, span: usize, p: &Params, requests: usize) -> (Trace, LengthPredictor) {
    let ((trace, hist), _) = tr.time_in(Some(span), "workload.generate", || {
        let trace = ShareGptLikeConfig::small(requests, sub_seed(p.seed, Stream::Trace)).generate();
        (trace, history(p.seed))
    });
    let (predictor, _) = tr.time_in(Some(span), "predictor.train", || {
        train_predictor(&hist, p.seed)
    });
    (trace, predictor)
}

fn plan(cfg: TdPipeConfig) -> TdRunner {
    TdRunner::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg).expect("13B fits L20x4")
}

pub fn offline_td(p: &Params) -> Outcome {
    let mut tr = Tracer::default();
    let (trace, predictor, td) = setup(&mut tr, |tr, s| {
        let (trace, predictor) = inputs(tr, s, p, TD_REQUESTS);
        let (td, _) = tr.time_in(Some(s), "model.plan", || plan(quiet_config()));
        (trace, predictor, td)
    });

    let mut sheet = Sheet::default();
    let mut ledger = FailLedger::default();
    let want = Totals::of_trace(&trace);
    ledger.open_run(want.requests);
    let probes = Probes::default();
    let mut first: Option<RunReport> = None;
    for rep in Repeats::new(p) {
        tr.begin_rep(rep);
        let out = if is_traced_rep(p, rep) {
            td.run_traced(&mut tr, None, "run.traced", &trace, &predictor, &probes)
        } else {
            tr.time("run", || td.run(&trace, &predictor)).0
        };
        if let Some(f) = &first {
            ledger.check_same("offline_td repeat", want.requests, f, &out.report);
            continue;
        }
        ledger.check_totals("offline_td", Totals::of_report(&out.report), want, 0);
        set_core_counts(&mut sheet, &[&out]);
        first = Some(out.report);
    }
    let first = first.expect("at least one repeat");

    sheet.set("setup_s", tr.calibrated_median_cpu("setup"));
    sheet.set("run_s", tr.calibrated_median_cpu("run"));
    set_sim_offline(&mut sheet, &first);
    if p.traced {
        set_layer_timings(&mut sheet, &tr, "run.traced");
        set_bucket_accuracy(&mut sheet, &predictor, &trace);
        // The occupancy curve is a recorder, so it is read from one extra
        // run, which must not change the schedule.
        let occupied = plan(TdPipeConfig::default()).run(&trace, &predictor);
        ledger.check_same(
            "offline_td occupancy recording",
            want.requests,
            &first,
            &occupied.report,
        );
        sheet.set("kvcache.peak_occupancy", occupied.occupancy.peak());
    }
    Outcome::new(sheet, ledger, &tr)
}

/// The configuration the CLI uses for a run with `--journal-out`,
/// `--trace-out` and `--metrics-out`.
fn observed_config() -> TdPipeConfig {
    let d = TdPipeConfig::default();
    TdPipeConfig {
        engine: EngineConfig {
            record_trace: true,
            record_timeline: true,
            record_metrics: true,
            ..d.engine
        },
        ..d
    }
}

/// What the report stage produced, kept for the checks and counts.
struct Reports {
    analysis: Analysis,
    journal_bytes: usize,
    snapshot_bytes: usize,
    span_verdict: Result<(), String>,
    bubble_verdict: Result<(), String>,
    chrome_verdict: Result<(), String>,
}

/// Serialise and analyse one observed run's outputs, each step a span
/// under a `report` span nested in `parent`. Each document is dropped
/// once validated, as a caller writing them to disk in turn would.
fn report_stage(tr: &mut Tracer, parent: SpanId, out: &RunOutcome) -> Reports {
    let span = tr.begin(Some(parent), "report");
    let s = Some(span.0);
    let (journal_bytes, _) = tr.time_in(s, "trace.to_json", || out.journal.to_json().len());
    let (snapshot_bytes, _) = tr.time_in(s, "metrics.to_json", || {
        serde_json::to_string(&out.metrics).map_or(0, |j| j.len())
    });
    let (chrome, _) = tr.time_in(s, "trace.chrome", || {
        chrome_trace(&out.timeline, &out.journal)
    });
    let (chrome_verdict, _) = tr.time_in(s, "spans.validate", || {
        validate_chrome_trace(&chrome).map(drop)
    });
    drop(chrome);
    let (analysis, _) = tr.time_in(s, "spans.analyze", || {
        analyze(&[("engine".to_string(), &out.journal)])
    });
    let (span_json, _) = tr.time_in(s, "spans.report_json", || span_report_json(&analysis));
    let (span_verdict, _) = tr.time_in(s, "spans.validate", || {
        validate_span_report(&span_json).map(drop)
    });
    drop(span_json);
    let (bubble_json, _) = tr.time_in(s, "spans.report_json", || bubble_report_json(&analysis));
    let (bubble_verdict, _) = tr.time_in(s, "spans.validate", || {
        validate_bubble_report(&bubble_json).map(drop)
    });
    drop(bubble_json);
    tr.end(span);
    Reports {
        analysis,
        journal_bytes,
        snapshot_bytes,
        span_verdict,
        bubble_verdict,
        chrome_verdict,
    }
}

/// The request-level checks of an observed run (span identities and the
/// three validators), and the counts of its recorders.
fn check_observed(
    ledger: &mut FailLedger,
    run: u32,
    requests: u64,
    out: &RunOutcome,
    r: &Reports,
    sheet: &mut Sheet,
) {
    let mut broken = 0;
    for replica in &r.analysis.replicas {
        let label = format!("offline_observed {} journal", replica.label);
        broken += ledger.check_spans(&label, run, &replica.spans, replica.incomplete);
    }
    ledger.check_validator("span report", requests, r.span_verdict.clone(), broken > 0);
    ledger.check_validator("bubble report", requests, r.bubble_verdict.clone(), false);
    ledger.check_validator("chrome trace", requests, r.chrome_verdict.clone(), false);

    set_core_counts(sheet, &[out]);
    sheet.set("kvcache.peak_occupancy", out.occupancy.peak());
    sheet.set("metrics.snapshot_bytes", r.snapshot_bytes as f64);
    sheet.set("trace.journal_events", out.journal.len() as f64);
    sheet.set("trace.journal_bytes", r.journal_bytes as f64);
    sheet.set("spans.identity_failures", broken as f64);
    for (cause, secs) in &r.analysis.fleet_by_cause {
        sheet.set(format!("spans.bubble_s.{cause}"), *secs);
    }
    for (component, secs) in &r.analysis.component_totals {
        sheet.set(format!("spans.component_s.{component}"), *secs);
    }
}

pub fn offline_observed(p: &Params) -> Outcome {
    let mut tr = Tracer::default();
    let (trace, predictor, observed, quiet) = setup(&mut tr, |tr, s| {
        let (trace, predictor) = inputs(tr, s, p, OBSERVED_REQUESTS);
        let ((observed, quiet), _) = tr.time_in(Some(s), "model.plan", || {
            (plan(observed_config()), plan(quiet_config()))
        });
        (trace, predictor, observed, quiet)
    });

    let mut sheet = Sheet::default();
    let mut ledger = FailLedger::default();
    let want = Totals::of_trace(&trace);
    let run = ledger.open_run(want.requests);
    let probes = Probes::default();
    let mut first: Option<RunReport> = None;
    for rep in Repeats::new(p) {
        tr.begin_rep(rep);
        let traced = is_traced_rep(p, rep);
        // The observed run and its report stage are timed as one `run`
        // span: what recording, serialising and analysing cost is what
        // this workload measures.
        let span = tr.begin(None, if traced { "run.traced" } else { "run" });
        let s = Some(span.0);
        let out = if traced {
            observed.run_traced(&mut tr, s, "engine.traced", &trace, &predictor, &probes)
        } else {
            tr.time_in(s, "engine", || observed.run(&trace, &predictor))
                .0
        };
        let reports = report_stage(&mut tr, span.0, &out);
        tr.end(span);
        if let Some(f) = &first {
            ledger.check_same("offline_observed repeat", want.requests, f, &out.report);
            // The unmetered twin runs again only for the per-layer
            // `metrics.overhead_s`.
            if p.traced {
                tr.time("run.plain", || quiet.run(&trace, &predictor));
            }
            continue;
        }
        let (plain, _) = tr.time("run.plain", || quiet.run(&trace, &predictor));
        ledger.check_totals("offline_observed", Totals::of_report(&out.report), want, 0);
        ledger.check_same(
            "offline_observed recording",
            want.requests,
            &plain.report,
            &out.report,
        );
        check_observed(&mut ledger, run, want.requests, &out, &reports, &mut sheet);
        first = Some(out.report);
    }
    let first = first.expect("at least one repeat");

    sheet.set("setup_s", tr.calibrated_median_cpu("setup"));
    sheet.set("run_s", tr.calibrated_median_cpu("run"));
    set_sim_offline(&mut sheet, &first);
    if p.traced {
        set_layer_timings(&mut sheet, &tr, "engine.traced");
        set_bucket_accuracy(&mut sheet, &predictor, &trace);
        sheet.set(
            "metrics.overhead_s",
            tr.median_secs("engine") - tr.median_secs("run.plain"),
        );
        for (metric, span) in [
            ("bench.report_s", "report"),
            ("trace.to_json_s", "trace.to_json"),
            ("trace.chrome_s", "trace.chrome"),
            ("spans.analyze_s", "spans.analyze"),
            ("spans.report_json_s", "spans.report_json"),
            ("spans.validate_s", "spans.validate"),
        ] {
            set_if_measured(&mut sheet, metric, tr.median_secs(span));
        }
    }
    Outcome::new(sheet, ledger, &tr)
}
