//! `fleet_sessions`: closed-loop multi-turn sessions arriving as a
//! Poisson stream, routed by the session-affine router across a mixed
//! `l20:2,a100:2` pool of TD-Pipe replicas with session-KV reuse on,
//! against a 0.25 s TTFT SLO.

use tdpipe_core::engine::RunOutcome;
use tdpipe_core::{EngineConfig, TdPipeConfig};
use tdpipe_fleet::{
    parse_pool, run_fleet_serial, run_fleet_with_threads, FleetConfig, FleetOutcome, FleetWorkload,
    Replica, ReplicaSpec, RouterConfig, RouterPolicy, SloSpec,
};
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_spans::build_spans;
use tdpipe_trace::TraceEvent;
use tdpipe_workload::{ArrivalProcess, SessionConfig};

use super::{
    history, is_traced_rep, quiet_config, set_bucket_accuracy, set_core_counts, set_layer_timings,
    setup, sub_seed, train_predictor, Outcome, Params, Probes, Repeats, Stream,
};
use crate::checks::{FailLedger, Totals};
use crate::probe::{TimedPredictor, Tracer};
use crate::sheet::Sheet;

/// Sessions offered.
const SESSIONS: usize = 50_000;
/// Session starts per second: the L20 replicas run at about two thirds
/// busy, below the knee where the TTFT tail turns seed-to-seed volatile.
const SESSION_RATE: f64 = 12.5;
/// The replica pool (4 GPUs per node).
const POOL: &str = "l20:2,a100:2";
/// TTFT target behind goodput and attainment (about 95% attained).
const SLO_TTFT_S: f64 = 0.25;
/// Host threads executing replicas (capped by the host's cores).
const THREADS: usize = 2;

fn replicas(cfg: &TdPipeConfig) -> Vec<Replica> {
    parse_pool(POOL, 4)
        .expect("valid pool")
        .into_iter()
        .map(|(label, node)| {
            Replica::new(ReplicaSpec::new(
                &label,
                ModelSpec::llama2_13b(),
                node,
                cfg.clone(),
            ))
            .expect("13B fits every node of the pool")
        })
        .collect()
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(THREADS))
}

pub fn fleet_sessions(p: &Params) -> Outcome {
    let mut tr = Tracer::default();
    let (sessions, predictor, pool) = setup(&mut tr, |tr, s| {
        let ((sessions, hist), _) = tr.time_in(Some(s), "workload.generate", || {
            let mut sc = SessionConfig::small(SESSIONS, sub_seed(p.seed, Stream::Trace));
            sc.arrival = ArrivalProcess::Poisson {
                rate_per_s: SESSION_RATE,
                seed: sub_seed(p.seed, Stream::Arrivals),
            };
            (sc.generate(), history(p.seed))
        });
        let (predictor, _) = tr.time_in(Some(s), "predictor.train", || {
            train_predictor(&hist, p.seed)
        });
        let (pool, _) = tr.time_in(Some(s), "model.plan", || replicas(&quiet_config()));
        (sessions, predictor, pool)
    });
    let cfg = FleetConfig {
        router: RouterConfig {
            policy: RouterPolicy::SessionAffine,
            seed: sub_seed(p.seed, Stream::Router),
            ..RouterConfig::default()
        },
        slo: SloSpec { ttft_s: SLO_TTFT_S },
    };
    let workload = FleetWorkload::Sessions(&sessions);
    let run = |predictor: &(dyn OutputLenPredictor + Sync)| {
        run_fleet_with_threads(&pool, &workload, &cfg, predictor, threads())
    };

    let mut sheet = Sheet::default();
    let mut ledger = FailLedger::default();
    let turns = sessions.len() as u64;
    ledger.open_run(turns);
    let probes = Probes::default();
    let mut first: Option<FleetOutcome> = None;
    for rep in Repeats::new(p) {
        tr.begin_rep(rep);
        let out = if is_traced_rep(p, rep) {
            let timed = TimedPredictor::new(&predictor, &probes.predict);
            let (out, span) = tr.time_threads("run.traced", || run(&timed));
            tr.fold(span, "predictor.predict", &probes.predict);
            out
        } else {
            tr.time_threads("run", || run(&predictor)).0
        };
        match &first {
            Some(f) => ledger.check_same("fleet_sessions repeat", turns, &f.report, &out.report),
            None => first = Some(out),
        }
    }
    let first = first.expect("at least one repeat");

    // The recorded run: its journals give the session-reused prompt
    // tokens that token conservation adds back, and its span identities
    // are checked like any journal's. Recording must not change it.
    let recorded = {
        let cfg_rec = TdPipeConfig {
            engine: EngineConfig {
                record_trace: true,
                ..quiet_config().engine
            },
            ..quiet_config()
        };
        run_fleet_with_threads(&replicas(&cfg_rec), &workload, &cfg, &predictor, threads())
    };
    ledger.check_same(
        "fleet_sessions recording",
        turns,
        &first.report,
        &recorded.report,
    );
    let reused = check_recorded(&mut ledger, &recorded);
    let served = Totals {
        requests: first.report.num_requests as u64,
        input_tokens: first.report.input_tokens,
        output_tokens: first.report.output_tokens,
    };
    // Every turn of the trace asks for its full prompt; reused prefix
    // tokens are served without a prefill.
    let asked = Totals::of_trace(&sessions.trace);
    ledger.check_totals("fleet_sessions", served, asked, reused);

    let r = &first.report;
    sheet.set("setup_s", tr.calibrated_median_cpu("setup"));
    sheet.set("run_s", tr.calibrated_median_cpu("run"));
    sheet.set("sim_throughput_tok_s", r.throughput_total());
    sheet.set("sim_goodput_req_s", r.goodput);
    sheet.set("sim_slo_attainment", r.slo_attainment);
    // Replicas keep latency quantiles, not samples, so the fleet's
    // latency is its slowest replica's.
    let served = || r.replicas.iter().filter(|x| x.report.num_requests > 0);
    let worst = |f: fn(&tdpipe_sim::LatencySummary) -> f64| {
        served()
            .filter_map(|x| x.report.latency.as_ref().map(f))
            .fold(f64::NAN, f64::max)
    };
    sheet.set("sim_ttft_p50_s", worst(|l| l.ttft_p50));
    sheet.set("sim_ttft_p99_s", worst(|l| l.ttft_p99));
    sheet.set("sim_tpot_p50_s", worst(|l| l.tpot_p50));
    sheet.set("sim_tpot_p95_s", worst(|l| l.tpot_p95));
    if p.traced {
        set_layer_timings(&mut sheet, &tr, "run.traced");
        set_bucket_accuracy(&mut sheet, &predictor, &sessions.trace);
        let outcomes: Vec<&RunOutcome> = first.outcomes.iter().collect();
        set_core_counts(&mut sheet, &outcomes);
        sheet.set("kvcache.session_reused_tokens", reused as f64);
        tr.time("fleet.serial", || {
            run_fleet_serial(&pool, &workload, &cfg, &predictor)
        });
        let serial = tr.median_secs("fleet.serial");
        sheet.set("fleet.serial_run_s", serial);
        sheet.set("fleet.parallel_speedup", serial / tr.median_secs("run"));
        sheet.set("fleet.spills", r.spills as f64);
        let assigned: Vec<usize> = r.replicas.iter().map(|x| x.assigned).collect();
        let max = assigned.iter().copied().max().unwrap_or(0);
        sheet.set(
            "fleet.assigned_max_share",
            max as f64 / assigned.iter().sum::<usize>().max(1) as f64,
        );
        let slo_min = served().map(|x| x.slo_attainment).fold(f64::NAN, f64::min);
        sheet.set("fleet.replica_slo_min", slo_min);
    }
    Outcome::new(sheet, ledger, &tr)
}

/// Check the recorded run's span identities replica by replica and return
/// the prompt tokens served from retained session KV.
fn check_recorded(ledger: &mut FailLedger, recorded: &FleetOutcome) -> u64 {
    let mut reused = 0;
    for (out, replica) in recorded.outcomes.iter().zip(&recorded.report.replicas) {
        // Request ids are per replica; the requests themselves were
        // already counted with the fleet.
        let run = ledger.open_run(0);
        let (spans, incomplete) = build_spans(&out.journal);
        let label = format!("fleet_sessions {} journal", replica.label);
        ledger.check_spans(&label, run, &spans, incomplete);
        reused += out
            .journal
            .events()
            .iter()
            .map(|e| match e.event {
                TraceEvent::SessionReuseHit { tokens, .. } => tokens,
                _ => 0,
            })
            .sum::<u64>();
    }
    reused
}
