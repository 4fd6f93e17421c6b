//! The offered load of one run, borrowed from the caller.

use crate::session::SessionTrace;
use crate::trace::Trace;

/// What a scheduler (or a fleet of them) is asked to serve.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a> {
    /// Open-loop requests. `arrivals` is per-request and non-decreasing,
    /// or empty for the paper's offline all-at-t0 setting.
    Requests {
        trace: &'a Trace,
        arrivals: &'a [f64],
    },
    /// Closed-loop multi-turn sessions: a resumed turn arrives only after
    /// its predecessor finishes plus think time.
    Sessions(&'a SessionTrace),
}

impl<'a> Workload<'a> {
    /// The paper's offline setting: every request queued at t = 0.
    pub fn offline(trace: &'a Trace) -> Self {
        Workload::Requests {
            trace,
            arrivals: &[],
        }
    }

    /// Total requests (turns) offered.
    pub fn len(&self) -> usize {
        match self {
            Workload::Requests { trace, .. } => trace.len(),
            Workload::Sessions(st) => st.len(),
        }
    }

    /// Whether there is nothing to serve.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
