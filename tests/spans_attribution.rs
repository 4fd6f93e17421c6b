//! Exactness and purity gates for the span/bubble causal-analysis layer.
//!
//! Three contracts, each pinned against *real* engine runs (not toy
//! journals):
//!
//! 1. **Span accounting is exact** — for every request, the reconstructed
//!    components sum bit-exactly to the reported TTFT, decode total, and
//!    end-to-end latency; no request is dropped.
//! 2. **Bubble attribution is exhaustive and exact** — every `StageIdle`
//!    second on every device lands in exactly one cause bucket, and the
//!    per-device totals refold bit-identically from the journal.
//! 3. **The analysis layer is a pure observer** — switching the
//!    recorders on moves no byte of the engine's serialized report, and
//!    the reports themselves are byte-identical across fleet thread
//!    counts.

use tdpipe::core::{TdPipeConfig, TdPipeEngine};
use tdpipe::hw::NodeSpec;
use tdpipe::model::ModelSpec;
use tdpipe::predictor::OraclePredictor;
use tdpipe::spans::{
    analyze, attribute_bubbles, bubble_report_json, build_spans, fold_seconds, span_chrome_trace,
    span_metrics, span_report_json, validate_bubble_report, validate_span_report,
};
use tdpipe::trace::TraceEvent;
use tdpipe::workload::{ArrivalProcess, ShareGptLikeConfig, Workload};

/// Always underpredicts, forcing §3.3 overadmission → evictions →
/// recompute, so spans carry nonzero stall/recompute components.
struct AlwaysOne;
impl tdpipe::predictor::OutputLenPredictor for AlwaysOne {
    fn predict(&self, _r: &tdpipe::workload::Request) -> u32 {
        1
    }
}

fn traced_run(
    requests: usize,
    seed: u64,
    gpus: u32,
    online: bool,
    predictor: &dyn tdpipe::predictor::OutputLenPredictor,
) -> tdpipe::core::engine::RunOutcome {
    let trace = ShareGptLikeConfig::small(requests, seed).generate();
    let arrivals = if online {
        ArrivalProcess::Poisson {
            rate_per_s: 6.0,
            seed: seed ^ 0xA881,
        }
        .sample(trace.len())
    } else {
        Vec::new()
    };
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_trace = true;
    cfg.engine.record_timeline = true;
    TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(gpus), cfg)
        .unwrap()
        .run_workload(
            Workload::Requests {
                trace: &trace,
                arrivals: &arrivals,
            },
            predictor,
        )
}

/// Contract 1: every request's span components sum EXACTLY (bit-equal
/// f64) to its reported TTFT / decode total / latency, offline and
/// online, with and without eviction churn.
#[test]
fn span_components_sum_exactly_for_every_request() {
    for (label, requests, gpus, online, pred) in [
        ("offline/oracle", 160, 2, false, &OraclePredictor as &dyn tdpipe::predictor::OutputLenPredictor),
        ("online/oracle", 160, 2, true, &OraclePredictor),
        // One L20 under a 13B model with a maximally optimistic length
        // predictor is the pinned memory-pressure scenario (§3.3
        // overadmission): it must evict and recompute.
        ("offline/always-one", 400, 1, false, &AlwaysOne),
    ] {
        let out = traced_run(requests, 11, gpus, online, pred);
        let (spans, incomplete) = build_spans(&out.journal);
        assert_eq!(incomplete, 0, "{label}: no request may be dropped");
        assert_eq!(
            spans.len(),
            out.report.num_requests,
            "{label}: one span per request"
        );
        for s in &spans {
            let c = s.components;
            assert_eq!(
                fold_seconds(&[c.queue, c.prefill_wait, c.prefill_exec]).to_bits(),
                s.ttft.to_bits(),
                "{label} req {}: ttft identity",
                s.request
            );
            assert_eq!(
                fold_seconds(&[c.stall_pending, c.recompute, c.decode_active]).to_bits(),
                s.decode_total.to_bits(),
                "{label} req {}: decode identity",
                s.request
            );
            assert_eq!(
                fold_seconds(&c.as_array()).to_bits(),
                s.latency.to_bits(),
                "{label} req {}: latency identity",
                s.request
            );
            assert!(
                c.queue >= 0.0 && c.stall_pending >= 0.0 && c.recompute >= 0.0,
                "{label} req {}: measured components are nonnegative",
                s.request
            );
        }
        // The underpredicting run must actually exercise the eviction
        // path, or the stall/recompute identities were never stressed.
        if label == "offline/always-one" {
            assert!(
                spans.iter().any(|s| s.evictions > 0),
                "{label}: expected eviction churn"
            );
            assert!(
                spans
                    .iter()
                    .any(|s| s.components.stall_pending > 0.0 && s.components.recompute > 0.0),
                "{label}: expected nonzero stall + recompute components"
            );
        }
    }
}

/// Contract 2: attributed bubble seconds refold bit-exactly to the
/// journal's `StageIdle` stream, per device, with no unattributed gap.
#[test]
fn bubble_seconds_refold_exactly_to_stage_idle_per_device() {
    let out = traced_run(200, 7, 4, true, &OraclePredictor);
    let ledger = attribute_bubbles(&out.journal);
    assert!(!ledger.gaps.is_empty(), "a real run has idle gaps");
    for d in &ledger.devices {
        // Independent in-order fold straight off the journal.
        let journal_durs: Vec<f64> = out
            .journal
            .stage_events()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::StageIdle { device, dur } if device == d.device => Some(dur),
                _ => None,
            })
            .collect();
        assert_eq!(
            fold_seconds(&journal_durs).to_bits(),
            d.idle_total.to_bits(),
            "device {}: attributed idle == journal StageIdle fold",
            d.device
        );
        assert_eq!(
            journal_durs.len(),
            ledger.gaps.iter().filter(|g| g.device == d.device).count(),
            "device {}: every gap attributed exactly once",
            d.device
        );
        // Buckets partition the same gaps: recompute them in sweep order.
        let mut again = std::collections::BTreeMap::new();
        for g in ledger.gaps.iter().filter(|g| g.device == d.device) {
            *again.entry(g.cause.label().to_string()).or_insert(0.0) += g.dur;
        }
        assert_eq!(again, d.by_cause, "device {}: bucket refold", d.device);
    }
    // The paper's headline cause must show up on a phase-switching run.
    assert!(
        out.report.phase_switches == 0 || ledger.by_cause.contains_key("phase_switch"),
        "phase switches happened but no phase-switch bubbles were attributed"
    );
}

/// Contract 3a: flipping the recorders (and thus all new
/// instrumentation points) moves no byte of the engine's report.
#[test]
fn recording_toggle_leaves_engine_results_byte_identical() {
    let trace = ShareGptLikeConfig::small(160, 11).generate();
    let run = |record: bool| {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.record_trace = record;
        cfg.engine.record_timeline = record;
        let out = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg)
            .unwrap()
            .run(&trace, &OraclePredictor);
        serde_json::to_string(&out.report).unwrap()
    };
    assert_eq!(run(true), run(false), "recording perturbed the schedule");
}

/// Contract 3b: span and bubble reports built from fleet journals are
/// byte-identical whether the replicas ran serially or on 2/8 threads —
/// and both always pass their own validators.
#[test]
fn fleet_reports_are_byte_identical_across_thread_counts() {
    use tdpipe::fleet::{
        parse_pool, run_fleet_serial, run_fleet_with_threads, FleetConfig, FleetWorkload, Replica,
        ReplicaSpec, RouterConfig,
    };

    let trace = ShareGptLikeConfig::small(96, 5).generate();
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 12.0,
        seed: 17,
    }
    .sample(trace.len());
    let workload = FleetWorkload::Requests {
        trace: &trace,
        arrivals: &arrivals,
    };
    let mut cfg = TdPipeConfig::default();
    cfg.engine.record_trace = true;
    cfg.engine.record_timeline = true;
    let replicas: Vec<Replica> = parse_pool("l20:2,a100:1", 2)
        .unwrap()
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(
                &label,
                ModelSpec::llama2_13b(),
                node,
                cfg.clone(),
            ))
            .unwrap()
        })
        .collect();
    let fleet_cfg = FleetConfig {
        router: RouterConfig {
            seed: 42,
            ..RouterConfig::default()
        },
        ..FleetConfig::default()
    };

    let reports_of = |outcome: &tdpipe::fleet::FleetOutcome| {
        let labelled: Vec<(String, &tdpipe::trace::FlightRecorder)> = outcome
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (format!("r{i}"), &o.journal))
            .collect();
        let analysis = analyze(&labelled);
        let spans = span_report_json(&analysis);
        let bubbles = bubble_report_json(&analysis);
        validate_span_report(&spans).expect("span report valid");
        validate_bubble_report(&bubbles).expect("bubble report valid");
        tdpipe::trace::validate_chrome_trace(&span_chrome_trace(&analysis))
            .expect("span chrome trace valid");
        let metrics = serde_json::to_string(&span_metrics(&analysis)).unwrap();
        (spans, bubbles, metrics)
    };

    let golden = reports_of(&run_fleet_serial(
        &replicas,
        &workload,
        &fleet_cfg,
        &OraclePredictor,
    ));
    for threads in [1, 2, 8] {
        let got = reports_of(&run_fleet_with_threads(
            &replicas,
            &workload,
            &fleet_cfg,
            &OraclePredictor,
            threads,
        ));
        assert_eq!(got.0, golden.0, "{threads}-thread span report differs");
        assert_eq!(got.1, golden.1, "{threads}-thread bubble report differs");
        assert_eq!(got.2, golden.2, "{threads}-thread span metrics differ");
    }
}

/// The round trip the CLI relies on: a journal serialized to JSON and
/// parsed back yields bit-identical span and bubble reports (shortest
/// round-trip float formatting end to end).
#[test]
fn journal_json_round_trip_preserves_reports_bit_exactly() {
    let out = traced_run(80, 23, 2, true, &OraclePredictor);
    let direct = analyze(&[("engine".to_string(), &out.journal)]);
    let parsed: tdpipe::trace::FlightRecorder =
        serde_json::from_str(&out.journal.to_json()).unwrap();
    let via_disk = analyze(&[("engine".to_string(), &parsed)]);
    assert_eq!(span_report_json(&direct), span_report_json(&via_disk));
    assert_eq!(bubble_report_json(&direct), bubble_report_json(&via_disk));
}
