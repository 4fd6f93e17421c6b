//! In-memory tracing from the benchmark's own side of each layer boundary.
//!
//! Two kinds of record:
//!
//! * a [`Span`] around each call the benchmark makes into a layer's public
//!   function (one per call: trace generation, predictor training, an
//!   engine run, a serialisation), kept in a [`Tracer`];
//! * a [`CallStats`] count and total time for boundaries crossed millions
//!   of times inside one engine run (the executor, the predictor). They
//!   are folded into one child span of the enclosing call, so tracing
//!   never keeps one record per launch.
//!
//! A span's self time is its duration minus its children's, which is how
//! the engine's own scheduling time (`core.self_s`) is separated from the
//! executor and predictor time it drives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tdpipe_core::exec::{ExecError, PipelineExecutor, PlaneStats};
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{SegmentKind, Timeline};
use tdpipe_workload::Request;

use crate::calibrate::{self, Kernel};
use crate::stats::median;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call, or the folded calls across one boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Repeat the span belongs to.
    pub rep: usize,
    /// The span whose interval contains this one.
    pub parent: Option<SpanId>,
    /// Host (wall-clock) seconds.
    pub secs: f64,
    /// CPU seconds (see [`crate::calibrate`]).
    pub cpu: f64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
}

/// Name of the spans that time the calibration kernel.
const CALIBRATE: &str = "calibrate";

/// An open span: its id, and the wall and CPU clocks at its start.
pub type Open = (SpanId, Instant, f64);

/// The benchmark's span log for one process.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    rep: usize,
    kernel: Kernel,
}

impl Tracer {
    /// Start attributing spans to repeat `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Start repeat `rep`, first timing the calibration kernel as a
    /// `calibrate` span (see [`crate::calibrate`]).
    pub fn begin_rep(&mut self, rep: usize) {
        self.set_rep(rep);
        self.calibrate();
    }

    /// Time the calibration kernel as a `calibrate` span (its CPU time).
    fn calibrate(&mut self) {
        let start = Instant::now();
        let cpu = self.kernel.run();
        let id = self.record(None, CALIBRATE, start.elapsed().as_secs_f64(), 1);
        self.spans[id].cpu = cpu;
    }

    /// Time `f` as a top-level span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId) {
        self.time_in(None, name, f)
    }

    /// Time `f` as a span nested in `parent` (or top-level for `None`),
    /// on the calling thread's CPU clock.
    pub fn time_in<R>(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        self.timed(parent, name, calibrate::thread_cpu_secs, f)
    }

    /// Time `f`, which runs on several threads, as a top-level span on
    /// the process's CPU clock.
    pub fn time_threads<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId) {
        self.timed(None, name, calibrate::process_cpu_secs, f)
    }

    fn timed<R>(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        cpu_clock: fn() -> f64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let cpu = cpu_clock();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        let id = self.record(parent, name, secs, 1);
        self.spans[id].cpu = cpu_clock() - cpu;
        (out, id)
    }

    /// Open a span whose body needs the tracer itself (timed on the
    /// calling thread's CPU clock); close it with [`Self::end`].
    pub fn begin(&mut self, parent: Option<SpanId>, name: &'static str) -> Open {
        let id = self.record(parent, name, 0.0, 1);
        (id, Instant::now(), calibrate::thread_cpu_secs())
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&mut self, (id, start, cpu): Open) {
        self.spans[id].secs = start.elapsed().as_secs_f64();
        self.spans[id].cpu = calibrate::thread_cpu_secs() - cpu;
    }

    /// Record a span measured elsewhere (a folded [`CallStats`]).
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        secs: f64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent,
            secs,
            cpu: 0.0,
            calls,
        });
        self.spans.len() - 1
    }

    /// Fold a boundary's counters into a child span of `parent` and reset
    /// them for the next call.
    pub fn fold(&mut self, parent: SpanId, name: &'static str, stats: &CallStats) {
        let (calls, secs) = stats.take();
        self.record(Some(parent), name, secs, calls);
    }

    /// Median over repeats of the per-repeat total time of `name`; NaN if
    /// no span has that name.
    pub fn median_secs(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |_, s| s.secs))
    }

    /// Median over repeats of the per-repeat CPU time of `name`, scaled
    /// to the reference host speed by the mean CPU time of the process's
    /// calibration kernel runs: the host-time statistic of the end-to-end
    /// metrics (see [`crate::calibrate`]).
    pub fn calibrated_median_cpu(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |_, s| s.cpu)) * calibrate::REFERENCE_S
            / self.mean_calibration_cpu()
    }

    /// Mean CPU time of one run of the calibration kernel; NaN if it
    /// never ran.
    pub fn mean_calibration_cpu(&self) -> f64 {
        let probes: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == CALIBRATE)
            .map(|s| s.cpu)
            .collect();
        probes.iter().sum::<f64>() / probes.len() as f64
    }

    /// Median over repeats of the per-repeat self time of `name`.
    pub fn median_self_secs(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |id, s| s.secs - self.child_secs(id)))
    }

    /// Median over repeats of the per-repeat call count of `name`.
    pub fn median_calls(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |_, s| s.calls as f64))
    }

    /// Per-repeat sums of `value` over the spans named `name`, in repeat
    /// order, for the repeats that have such a span.
    pub fn per_rep(&self, name: &str, value: impl Fn(SpanId, &Span) -> f64) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for (id, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            match sums.last_mut() {
                Some((rep, sum)) if *rep == s.rep => *sum += value(id, s),
                _ => sums.push((s.rep, value(id, s))),
            }
        }
        sums.into_iter().map(|(_, v)| v).collect()
    }

    fn child_secs(&self, parent: SpanId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.secs)
            .sum()
    }
}

/// A call count and total host time for one boundary, shared with the
/// wrapper that crosses it (atomics: fleet replicas run on several
/// threads).
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStats {
    fn add(&self, calls: u64, since: Instant) {
        let nanos = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// `(calls, seconds)` so far, resetting both to zero.
    pub fn take(&self) -> (u64, f64) {
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (calls, nanos as f64 * 1e-9)
    }
}

/// A [`PipelineExecutor`] decorator that times every call into the
/// wrapped plane and counts launches.
pub struct TimedExecutor<E> {
    inner: E,
    stats: Arc<CallStats>,
}

impl<E: PipelineExecutor> TimedExecutor<E> {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn new(inner: E, stats: Arc<CallStats>) -> Self {
        TimedExecutor { inner, stats }
    }
}

impl<E: PipelineExecutor> PipelineExecutor for TimedExecutor<E> {
    fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64) {
        let t = Instant::now();
        self.inner.launch(ready, exec, xfer, kind, tag);
        self.stats.add(1, t);
    }

    fn next_completion(&mut self) -> (u64, f64) {
        let t = Instant::now();
        let out = self.inner.next_completion();
        self.stats.add(0, t);
        out
    }

    fn try_next_completion(&mut self) -> Result<(u64, f64), ExecError> {
        let t = Instant::now();
        let out = self.inner.try_next_completion();
        self.stats.add(0, t);
        out
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn finish(self: Box<Self>) -> (f64, Timeline) {
        let TimedExecutor { inner, stats } = *self;
        let t = Instant::now();
        let out = Box::new(inner).finish();
        stats.add(0, t);
        out
    }

    fn try_finish(self: Box<Self>) -> Result<(f64, Timeline), ExecError> {
        let TimedExecutor { inner, stats } = *self;
        let t = Instant::now();
        let out = Box::new(inner).try_finish();
        stats.add(0, t);
        out
    }

    fn plane_stats(&self) -> PlaneStats {
        self.inner.plane_stats()
    }
}

/// An [`OutputLenPredictor`] decorator that times and counts predictions.
pub struct TimedPredictor<'a, P: ?Sized> {
    inner: &'a P,
    stats: &'a CallStats,
}

impl<'a, P: OutputLenPredictor + ?Sized> TimedPredictor<'a, P> {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn new(inner: &'a P, stats: &'a CallStats) -> Self {
        TimedPredictor { inner, stats }
    }
}

impl<P: OutputLenPredictor + ?Sized> OutputLenPredictor for TimedPredictor<'_, P> {
    fn predict(&self, request: &Request) -> u32 {
        let t = Instant::now();
        let out = self.inner.predict(request);
        self.stats.add(1, t);
        out
    }

    fn per_request_overhead(&self) -> f64 {
        self.inner.per_request_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_per_repeat() {
        let mut t = Tracer::default();
        for rep in 0..3 {
            t.set_rep(rep);
            let parent = t.record(None, "core.run", 10.0 + rep as f64, 1);
            t.record(Some(parent), "sim.exec", 4.0, 100);
            t.record(Some(parent), "predictor.predict", 1.0, 7);
        }
        assert_eq!(t.median_secs("core.run"), 11.0);
        assert_eq!(t.median_self_secs("core.run"), 6.0);
        assert_eq!(t.median_calls("sim.exec"), 100.0);
        assert!(t.median_secs("absent").is_nan());
    }

    #[test]
    fn spans_of_one_repeat_sum() {
        let mut t = Tracer::default();
        t.record(None, "cell", 1.0, 1);
        t.record(None, "cell", 2.0, 1);
        t.set_rep(1);
        t.record(None, "cell", 5.0, 1);
        assert_eq!(t.per_rep("cell", |_, s| s.secs), vec![3.0, 5.0]);
    }

    /// Record a span with the given CPU seconds.
    fn record_cpu(t: &mut Tracer, name: &'static str, cpu: f64) {
        let id = t.record(None, name, 2.0 * cpu, 1);
        t.spans[id].cpu = cpu;
    }

    #[test]
    fn calibrated_times_scale_cpu_by_the_mean_probe() {
        let r = calibrate::REFERENCE_S;
        let mut t = Tracer::default();
        record_cpu(&mut t, CALIBRATE, r);
        record_cpu(&mut t, "run", 1.0);
        record_cpu(&mut t, "run", 0.5);
        t.set_rep(1);
        record_cpu(&mut t, CALIBRATE, 3.0 * r);
        record_cpu(&mut t, "run", 4.0);
        t.set_rep(2);
        record_cpu(&mut t, CALIBRATE, 2.0 * r);
        record_cpu(&mut t, "run", 2.0);
        // The kernel ran at half the reference speed on average; the
        // per-repeat CPU sums are 1.5, 4 and 2, the wall sums twice that.
        assert_eq!(t.mean_calibration_cpu(), 2.0 * r);
        assert_eq!(t.calibrated_median_cpu("run"), 1.0);
        assert_eq!(t.median_secs("run"), 4.0);
    }

    #[test]
    fn spans_read_both_clocks() {
        let mut t = Tracer::default();
        t.begin_rep(0);
        let (_, id) = t.time("run", || Kernel::default().run());
        let open = t.begin(None, "run");
        t.end(open);
        let (_, all) = t.time_threads("fleet", || ());
        assert!(t.spans[id].secs > 0.0 && t.spans[id].cpu > 0.0);
        assert!(t.spans[all].cpu >= 0.0);
        assert!(t.mean_calibration_cpu() > 0.0);
    }

    #[test]
    fn fold_takes_and_resets_the_counters() {
        let stats = CallStats::default();
        stats.add(3, Instant::now());
        let mut t = Tracer::default();
        let p = t.record(None, "core.run", 1.0, 1);
        t.fold(p, "sim.exec", &stats);
        assert_eq!(t.median_calls("sim.exec"), 3.0);
        assert_eq!(stats.take(), (0, 0.0));
    }
}
