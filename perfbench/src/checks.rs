//! Output checks and the failure ledger behind `attempted`, `failed` and
//! `ok_share`.
//!
//! A simulated request fails when any of these holds:
//! * it does not complete;
//! * its run's token totals disagree with the trace (for sessions, after
//!   adding back the session-reused tokens);
//! * where a journal exists, its span identities do not close;
//! * where a journal exists, a report validator rejects the output.
//!
//! A check about a whole run (token totals, a validator rejection the
//! span identities do not explain, an observed run that differs from the
//! unobserved one) fails every request of that run. Requests a run leaves
//! unfinished fail one each. Every failure but a span identity that does
//! not close (a known defect, counted per request) also makes the result
//! incorrect. Failures are counted, never fatal: the run goes on and
//! reports them.

use std::collections::BTreeSet;
use std::fmt::Debug;

use tdpipe_sim::RunReport;
use tdpipe_spans::RequestSpan;
use tdpipe_workload::Trace;

/// The paper's "up to" speedups of TD-Pipe at 4 GPUs over TP+SB, TP+HB,
/// PP+SB and PP+HB (Fig. 11, §4.2). The simulator was calibrated without
/// this figure, so it serves as held-back reference data.
pub const PAPER_UPTO_SPEEDUPS: [f64; 4] = [1.91, 1.90, 2.73, 2.21];

/// Mean absolute relative error of simulated "up to" speedups against
/// [`PAPER_UPTO_SPEEDUPS`], in the same baseline order.
pub fn paper_speedup_err(simulated: &[f64; 4]) -> f64 {
    simulated
        .iter()
        .zip(PAPER_UPTO_SPEEDUPS)
        .map(|(s, p)| ((s - p) / p).abs())
        .sum::<f64>()
        / PAPER_UPTO_SPEEDUPS.len() as f64
}

/// Request and token totals, of a trace or of what a run served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Requests.
    pub requests: u64,
    /// Prompt tokens.
    pub input_tokens: u64,
    /// Output tokens.
    pub output_tokens: u64,
}

impl Totals {
    /// What a trace asks for.
    pub fn of_trace(trace: &Trace) -> Self {
        Totals {
            requests: trace.len() as u64,
            input_tokens: trace.total_input_tokens(),
            output_tokens: trace.total_output_tokens(),
        }
    }

    /// What a run served.
    pub fn of_report(report: &RunReport) -> Self {
        Totals {
            requests: report.num_requests as u64,
            input_tokens: report.input_tokens,
            output_tokens: report.output_tokens,
        }
    }
}

/// Per-run failure accounting.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FailLedger {
    attempted: u64,
    /// Failed requests, as `(run, request id)`.
    failed: BTreeSet<(u32, u64)>,
    /// Failed requests whose ids are unknown (they never completed).
    unnamed: u64,
    /// Runs whose every request failed.
    whole_runs: u64,
    /// Failures of run-level checks, which make the result incorrect.
    problems: Vec<String>,
    runs: u32,
}

impl FailLedger {
    /// Open a run of `requests` requests; returns its index for
    /// [`Self::fail_request`].
    pub fn open_run(&mut self, requests: u64) -> u32 {
        self.attempted += requests;
        self.runs += 1;
        self.runs - 1
    }

    /// Requests attempted over all runs.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed requests over all runs (never more than attempted).
    pub fn failed(&self) -> u64 {
        (self.failed.len() as u64 + self.unnamed + self.whole_runs).min(self.attempted)
    }

    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Share of attempted requests that did not fail.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.fail_share()
    }

    /// Whether every run-level check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Run-level check failures, in the order found.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// One request of `run` failed a check.
    pub fn fail_request(&mut self, run: u32, request: u64) {
        self.failed.insert((run, request));
    }

    /// A run-level check failed: every request of a run of `requests`
    /// requests fails, and the result is marked incorrect.
    pub fn fail_run(&mut self, requests: u64, problem: String) {
        self.whole_runs += requests;
        self.problems.push(problem);
    }

    /// Check completion and token conservation of one run. `reused` is
    /// the prompt tokens a session run served from retained KV instead of
    /// prefilling. A run that serves fewer requests than its trace asks
    /// for fails each missing request and is a run-level problem.
    pub fn check_totals(&mut self, label: &str, got: Totals, want: Totals, reused: u64) {
        if got.requests < want.requests {
            // The totals of a partial run cannot be held against the
            // whole trace, so only the missing requests fail.
            self.unnamed += want.requests - got.requests;
            self.problems.push(format!(
                "{label}: {} of {} requests did not complete",
                want.requests - got.requests,
                want.requests
            ));
            return;
        }
        if got.requests > want.requests
            || got.input_tokens + reused != want.input_tokens
            || got.output_tokens != want.output_tokens
        {
            self.fail_run(
                want.requests,
                format!(
                    "{label}: tokens do not add up: {} requests, {} + {reused} reused prompt \
                     tokens, {} output tokens; the trace has {} requests, {} prompt and {} \
                     output tokens",
                    got.requests,
                    got.input_tokens,
                    got.output_tokens,
                    want.requests,
                    want.input_tokens,
                    want.output_tokens
                ),
            );
        }
    }

    /// Fail every span of `run` whose identities do not close (the known
    /// defect: per request, `correct` stays true). Requests the journal
    /// never finished fail too, and are a run-level problem: the run
    /// itself completed them. Returns the identity failures.
    pub fn check_spans(
        &mut self,
        label: &str,
        run: u32,
        spans: &[RequestSpan],
        incomplete: usize,
    ) -> u64 {
        let mut broken = 0;
        for s in spans.iter().filter(|s| !s.identities_hold()) {
            self.fail_request(run, s.request);
            broken += 1;
        }
        if incomplete > 0 {
            self.unnamed += incomplete as u64;
            self.problems.push(format!(
                "{label}: {incomplete} requests have no finish in the journal"
            ));
        }
        broken
    }

    /// Record a validator's verdict. A rejection the span identity
    /// failures already explain (`explained`) costs nothing more; any
    /// other rejection fails the whole run.
    pub fn check_validator(
        &mut self,
        label: &str,
        requests: u64,
        verdict: Result<(), String>,
        explained: bool,
    ) {
        if let Err(e) = verdict {
            if !explained {
                self.fail_run(
                    requests,
                    format!("{label}: validator rejected the output: {e}"),
                );
            }
        }
    }

    /// Two reports that must be equal field for field: an observed run
    /// and its unobserved twin, or repeats of a deterministic run.
    pub fn check_same<T: PartialEq + Debug>(&mut self, label: &str, requests: u64, a: &T, b: &T) {
        if a != b {
            self.fail_run(
                requests,
                format!("{label}: reports differ:\n  {a:?}\n  {b:?}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_spans::SpanComponents;

    fn report(requests: usize, input: u64, output: u64) -> RunReport {
        RunReport {
            scheduler: "TD-Pipe".into(),
            makespan: 10.0,
            num_requests: requests,
            input_tokens: input,
            output_tokens: output,
            recomputed_tokens: 0,
            swapped_tokens: 0,
            phase_switches: 2,
            mean_utilization: 0.5,
            latency: None,
        }
    }

    const WANT: Totals = Totals {
        requests: 100,
        input_tokens: 5_000,
        output_tokens: 7_000,
    };

    fn span(request: u64, closes: bool) -> RequestSpan {
        let components = SpanComponents {
            queue: 1.0,
            prefill_wait: 0.5,
            prefill_exec: 0.5,
            stall_pending: 0.0,
            recompute: 0.0,
            decode_active: 3.0,
            residual: 0.0,
        };
        RequestSpan {
            request,
            arrival: 0.0,
            first_token: 2.0,
            finish: 5.0,
            ttft: 2.0,
            decode_total: 3.0,
            latency: if closes { 5.0 } else { 5.5 },
            evictions: 0,
            reuse_hit: false,
            reuse_miss: false,
            components,
        }
    }

    #[test]
    fn paper_speedup_err_is_mean_abs_relative_error() {
        assert_eq!(paper_speedup_err(&PAPER_UPTO_SPEEDUPS), 0.0);
        let sim = [1.91 * 1.2, 1.90 * 0.8, 2.73, 2.21];
        assert!((paper_speedup_err(&sim) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_clean_run_fails_nothing() {
        let mut l = FailLedger::default();
        l.open_run(WANT.requests);
        l.check_totals(
            "run",
            Totals::of_report(&report(100, 5_000, 7_000)),
            WANT,
            0,
        );
        assert_eq!((l.attempted(), l.failed()), (100, 0));
        assert_eq!(l.ok_share(), 1.0);
        assert!(l.correct());
    }

    #[test]
    fn incomplete_requests_fail_one_each_and_the_run_is_incorrect() {
        let mut l = FailLedger::default();
        l.open_run(WANT.requests);
        l.check_totals("run", Totals::of_report(&report(97, 4_800, 6_700)), WANT, 0);
        assert_eq!(l.failed(), 3);
        assert_eq!(l.fail_share(), 0.03);
        assert!(!l.correct());
        assert!(l.problems()[0].contains("3 of 100 requests did not complete"));
    }

    #[test]
    fn token_mismatch_fails_the_whole_run() {
        let mut l = FailLedger::default();
        l.open_run(WANT.requests);
        l.check_totals(
            "run",
            Totals::of_report(&report(100, 5_000, 6_999)),
            WANT,
            0,
        );
        assert_eq!(l.failed(), 100);
        assert!(!l.correct());
        assert!(l.problems()[0].contains("tokens do not add up"));
    }

    #[test]
    fn session_reuse_is_added_back() {
        let mut l = FailLedger::default();
        l.open_run(WANT.requests);
        l.check_totals(
            "sessions",
            Totals::of_report(&report(100, 4_000, 7_000)),
            WANT,
            1_000,
        );
        assert_eq!(l.failed(), 0);
    }

    #[test]
    fn broken_spans_fail_their_requests_and_explain_the_validator() {
        let mut l = FailLedger::default();
        let run = l.open_run(WANT.requests);
        let spans = [span(0, true), span(1, false), span(2, true), span(3, false)];
        let broken = l.check_spans("journal", run, &spans, 0);
        assert_eq!(broken, 2);
        l.check_validator("span report", 100, Err("request 1".into()), broken > 0);
        assert_eq!(l.failed(), 2);
        assert!(l.correct());
        // The same request failing twice counts once.
        l.fail_request(run, 1);
        assert_eq!(l.failed(), 2);
    }

    #[test]
    fn a_journal_missing_finishes_is_incorrect() {
        let mut l = FailLedger::default();
        let run = l.open_run(WANT.requests);
        l.check_spans("journal", run, &[span(0, true)], 2);
        assert_eq!(l.failed(), 2);
        assert!(!l.correct());
    }

    #[test]
    fn an_unexplained_rejection_fails_the_run() {
        let mut l = FailLedger::default();
        l.open_run(WANT.requests);
        l.check_validator("bubble report", 100, Err("bad fold".into()), false);
        assert_eq!(l.failed(), 100);
        assert!(!l.correct());
    }

    #[test]
    fn runs_accumulate_and_failures_cap_at_attempted() {
        let mut l = FailLedger::default();
        let a = l.open_run(10);
        let b = l.open_run(10);
        l.fail_request(a, 4);
        l.fail_request(b, 4);
        assert_eq!(l.failed(), 2);
        l.fail_run(10, "x".into());
        l.fail_run(10, "y".into());
        l.fail_run(10, "z".into());
        assert_eq!(l.failed(), 20);
    }

    #[test]
    fn differing_reports_fail_the_run_and_show_both() {
        let mut l = FailLedger::default();
        l.open_run(100);
        let plain = report(100, 5_000, 7_000);
        let mut observed = plain.clone();
        l.check_same("observed", 100, &plain, &observed);
        assert!(l.correct());
        observed.phase_switches += 1;
        l.check_same("observed", 100, &plain, &observed);
        assert_eq!(l.failed(), 100);
        assert!(!l.correct());
        assert!(l.problems()[0].contains("phase_switches: 2"));
        assert!(l.problems()[0].contains("phase_switches: 3"));
    }
}
