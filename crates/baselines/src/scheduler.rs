//! The one scheduler table: TD-Pipe and the four §4.1 baselines, their
//! paper and command-line names, and one way to run any of them.

use crate::engine::{BaselineEngine, Batching, Layout};
use std::str::FromStr;
use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_core::{TdPipeConfig, TdPipeEngine};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_workload::Workload;

/// The five schedulers of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Tensor parallel + separate batching.
    TpSb,
    /// Tensor parallel + hybrid batching (chunked prefill).
    TpHb,
    /// Pipeline parallel + separate batching.
    PpSb,
    /// Pipeline parallel + hybrid batching (chunked prefill).
    PpHb,
    /// This paper's system.
    TdPipe,
}

/// One row of the table: the paper's name, the command-line spelling,
/// and the baseline's layout and batching (`None` for TD-Pipe).
type Row = (&'static str, &'static str, Option<(Layout, Batching)>);

impl Scheduler {
    /// All five, in the paper's presentation order.
    pub const ALL: [Scheduler; 5] = [
        Scheduler::TpSb,
        Scheduler::TpHb,
        Scheduler::PpSb,
        Scheduler::PpHb,
        Scheduler::TdPipe,
    ];

    const fn row(self) -> Row {
        match self {
            Scheduler::TpSb => ("TP+SB", "tp-sb", Some((Layout::Tensor, Batching::Separate))),
            Scheduler::TpHb => ("TP+HB", "tp-hb", Some((Layout::Tensor, Batching::Hybrid))),
            Scheduler::PpSb => ("PP+SB", "pp-sb", Some((Layout::Pipeline, Batching::Separate))),
            Scheduler::PpHb => ("PP+HB", "pp-hb", Some((Layout::Pipeline, Batching::Hybrid))),
            Scheduler::TdPipe => (TdPipeEngine::NAME, "td", None),
        }
    }

    /// The paper's name, e.g. `"TP+SB"`.
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// The command-line spelling, e.g. `"tp-sb"`; [`FromStr`] parses it.
    pub const fn flag(self) -> &'static str {
        self.row().1
    }

    /// The baseline with this layout and batching policy.
    pub(crate) fn baseline(layout: Layout, batching: Batching) -> Scheduler {
        Scheduler::ALL
            .into_iter()
            .find(|s| s.row().2 == Some((layout, batching)))
            // analyzer: allow(no-expect) — the table has a row for each of
            // the four layout × batching pairs.
            .expect("every baseline policy has a row")
    }

    /// The configuration this scheduler runs with in the paper's
    /// comparison: TD-Pipe's own defaults (decoupled control plane,
    /// asynchronous transfers), and vLLM's engine defaults for a baseline.
    pub fn default_config(self) -> TdPipeConfig {
        match self {
            Scheduler::TdPipe => TdPipeConfig::default(),
            _ => TdPipeConfig {
                engine: EngineConfig::default(),
                ..TdPipeConfig::default()
            },
        }
    }

    /// Plan this scheduler on `model` over `node` and run `workload`.
    /// TD-Pipe takes all of `cfg`; a baseline takes `cfg.engine`. Fails
    /// when the model does not fit the scheduler's layout, or when a
    /// baseline is given closed-loop sessions (only TD-Pipe runs them).
    ///
    /// # Panics
    /// As the engine's own run (scheduling preconditions only).
    pub fn run<P: OutputLenPredictor + ?Sized>(
        self,
        model: &ModelSpec,
        node: &NodeSpec,
        cfg: &TdPipeConfig,
        workload: Workload<'_>,
        predictor: &P,
    ) -> Result<RunOutcome, InfeasibleConfig> {
        match self.row().2 {
            None => Ok(TdPipeEngine::new(model.clone(), node, cfg.clone())?
                .run_workload(workload, predictor)),
            Some((layout, batching)) => {
                BaselineEngine::new(layout, batching, model.clone(), node, cfg.engine.clone())?
                    .run_workload(workload)
            }
        }
    }
}

impl FromStr for Scheduler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Scheduler::ALL
            .into_iter()
            .find(|x| x.flag() == s)
            .ok_or_else(|| format!("unknown scheduler '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{SessionConfig, ShareGptLikeConfig};

    #[test]
    fn names_round_trip_through_the_table() {
        for s in Scheduler::ALL {
            assert_eq!(s.flag().parse::<Scheduler>(), Ok(s));
        }
        assert_eq!(Scheduler::TdPipe.name(), "TD-Pipe");
        assert_eq!("pp-hb".parse::<Scheduler>().map(Scheduler::name), Ok("PP+HB"));
        assert!("TP+SB".parse::<Scheduler>().is_err(), "paper names are not flags");
        assert!("magic".parse::<Scheduler>().unwrap_err().contains("magic"));
    }

    #[test]
    fn every_scheduler_runs_and_reports_its_name() {
        let trace = ShareGptLikeConfig::small(24, 1).generate();
        let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(2));
        for s in Scheduler::ALL {
            let cfg = s.default_config();
            let out = s
                .run(&model, &node, &cfg, Workload::offline(&trace), &OraclePredictor)
                .expect("13B fits 2xL20");
            assert_eq!(out.report.num_requests, 24, "{}", s.name());
            assert_eq!(out.report.scheduler, s.name());
        }
    }

    #[test]
    fn infeasible_layouts_and_baseline_sessions_are_errors() {
        let trace = ShareGptLikeConfig::small(4, 1).generate();
        let cfg = TdPipeConfig::default();
        let err = Scheduler::TdPipe
            .run(
                &ModelSpec::llama2_70b(),
                &NodeSpec::l20(1),
                &cfg,
                Workload::offline(&trace),
                &OraclePredictor,
            )
            .unwrap_err();
        assert!(err.reason.contains("does not fit"), "{err}");
        let sessions = SessionConfig::small(4, 1).generate();
        let (model, node) = (ModelSpec::llama2_13b(), NodeSpec::l20(2));
        for s in Scheduler::ALL {
            let out = s.run(&model, &node, &cfg, Workload::Sessions(&sessions), &OraclePredictor);
            match s {
                Scheduler::TdPipe => assert_eq!(out.unwrap().report.num_requests, sessions.len()),
                _ => assert!(out.unwrap_err().reason.contains("sessions"), "{}", s.name()),
            }
        }
    }
}
