//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md §4 for the index). This library holds the pieces
//! they share: the standard 5,000-request ShareGPT-like workload, the four
//! node/model combinations, a parallel map over scheduler cells, and small
//! plumbing for emitting results as aligned text and JSON.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::PathBuf;
use tdpipe_baselines::Scheduler;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::RunReport;
use tdpipe_workload::{ShareGptLikeConfig, Trace, Workload};

/// Seed used for every headline experiment (determinism across binaries).
pub const PAPER_SEED: u64 = 42;

/// The paper's request count (§4.1: "randomly sample 5,000 input
/// sentences"). Override with the `TDPIPE_REQUESTS` environment variable
/// for quick runs.
pub fn num_requests() -> usize {
    std::env::var("TDPIPE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000)
}

/// The standard benchmark workload.
pub fn paper_trace() -> Trace {
    ShareGptLikeConfig::small(num_requests(), PAPER_SEED).generate()
}

/// One Figure 11 combination: label, model, and node constructor.
pub type Combo = (&'static str, ModelSpec, fn(u32) -> NodeSpec);

/// The four node/model combinations of Figure 11.
pub fn paper_combos() -> Vec<Combo> {
    vec![
        (
            "L20+13B",
            ModelSpec::llama2_13b(),
            NodeSpec::l20 as fn(u32) -> NodeSpec,
        ),
        ("L20+32B", ModelSpec::qwen2_5_32b(), NodeSpec::l20),
        ("A100+32B", ModelSpec::qwen2_5_32b(), NodeSpec::a100),
        ("A100+70B", ModelSpec::llama2_70b(), NodeSpec::a100),
    ]
}

/// The lock-free parallel-map substrate every sweep in this crate runs on
/// (and `tdpipe-fleet` reuses for replica execution): workers claim item
/// indices off a shared atomic counter (so long items do not serialise
/// behind short ones), buffer `(index, result)` pairs locally, and the
/// scope's join handles deliver each worker's buffer back to the caller,
/// which scatters them into input order. No mutex is held anywhere, and
/// nothing is contended but the counter. Because each item's computation
/// is independent and deterministic, the result vector is byte-identical
/// to a serial map for *any* `threads`.
pub fn map_indexed_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Run many `(scheduler, model, node)` cells in parallel over
/// [`map_indexed_parallel`], one worker per host core. Each cell runs
/// [`Scheduler::run`] with its [`Scheduler::default_config`], so the
/// results are identical to a serial sweep — only the wall time shrinks.
/// Results come back in input order; an infeasible cell comes back
/// `None`.
pub fn run_cells_parallel<P: OutputLenPredictor + Sync + ?Sized>(
    cells: &[(Scheduler, ModelSpec, NodeSpec)],
    trace: &Trace,
    predictor: &P,
) -> Vec<Option<RunReport>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    map_indexed_parallel(cells, threads, |_, (s, model, node)| {
        s.run(model, node, &s.default_config(), Workload::offline(trace), predictor)
            .ok()
            .map(|out| out.report)
    })
}

/// Directory the binaries drop machine-readable results into.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TDPIPE_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Persist a JSON result document.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let file = std::fs::File::create(&path).expect("create result file");
    serde_json::to_writer_pretty(file, value).expect("serialise result");
    println!("[saved {}]", path.display());
}

/// Persist a text/CSV artifact.
pub fn save_text(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;

    #[test]
    fn map_indexed_parallel_preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = (0..37).map(|i| i * 1001).collect();
        for threads in [1, 2, 5, 64] {
            let out = map_indexed_parallel(&items, threads, |i, &x| i * 1000 + x);
            assert_eq!(out, want, "{threads} threads");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map_indexed_parallel(&empty, 4, |i, _| i).is_empty());
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let trace = ShareGptLikeConfig::small(40, 2).generate();
        let cells: Vec<(Scheduler, ModelSpec, NodeSpec)> = Scheduler::ALL
            .into_iter()
            .map(|s| (s, ModelSpec::llama2_13b(), NodeSpec::l20(2)))
            .collect();
        let par = run_cells_parallel(&cells, &trace, &OraclePredictor);
        for ((s, m, n), got) in cells.iter().zip(&par) {
            let serial = s
                .run(m, n, &s.default_config(), Workload::offline(&trace), &OraclePredictor)
                .unwrap();
            assert_eq!(got.as_ref().map(|r| r.makespan), Some(serial.report.makespan));
        }
    }
}
