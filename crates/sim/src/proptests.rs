//! Property tests over the pipeline simulator's invariants.

use crate::pipeline::{PipelineSim, TransferMode};
use crate::timeline::{SegmentKind, Timeline};
use proptest::prelude::*;

/// A job stream: per-job (ready, per-stage exec times).
fn arb_stream(stages: usize) -> impl Strategy<Value = Vec<(f64, Vec<f64>)>> {
    prop::collection::vec(
        (
            0.0f64..5.0,
            prop::collection::vec(0.001f64..0.5, stages..=stages),
        ),
        1..60,
    )
}

fn run_mode(
    mode: TransferMode,
    stages: usize,
    stream: &[(f64, Vec<f64>)],
    xfer: f64,
) -> (Vec<f64>, f64) {
    let mut sim = PipelineSim::new(stages as u32, mode, false);
    let xfers = vec![xfer; stages - 1];
    let finishes = stream
        .iter()
        .enumerate()
        .map(|(id, (ready, exec))| {
            sim.launch(*ready, exec, &xfers, SegmentKind::Decode, id as u64)
                .finish
        })
        .collect();
    let drained = sim.drained_at();
    (finishes, drained)
}

proptest! {
    #[test]
    fn fifo_completion_order(stream in arb_stream(4), xfer in 0.0f64..0.01) {
        for mode in [TransferMode::Async, TransferMode::Blocking, TransferMode::Rendezvous] {
            let (finishes, drained) = run_mode(mode, 4, &stream, xfer);
            for w in finishes.windows(2) {
                prop_assert!(w[1] >= w[0], "{mode:?}: completions out of order");
            }
            // The pipeline drains no earlier than the last completion.
            prop_assert!(drained + 1e-12 >= *finishes.last().unwrap());
        }
    }

    #[test]
    fn job_latency_lower_bound(stream in arb_stream(3), xfer in 0.0f64..0.01) {
        // No job can finish before its ready time plus its own work.
        let (finishes, _) = run_mode(TransferMode::Async, 3, &stream, xfer);
        for ((ready, exec), finish) in stream.iter().zip(&finishes) {
            let own: f64 = exec.iter().sum::<f64>() + 2.0 * xfer;
            prop_assert!(finish + 1e-9 >= ready + own);
        }
    }

    #[test]
    fn coupling_orders_makespans(stream in arb_stream(4), xfer in 0.0f64..0.05) {
        // Stronger transfer coupling can only slow the pipeline down:
        // async <= blocking <= rendezvous.
        let (_, a) = run_mode(TransferMode::Async, 4, &stream, xfer);
        let (_, b) = run_mode(TransferMode::Blocking, 4, &stream, xfer);
        let (_, r) = run_mode(TransferMode::Rendezvous, 4, &stream, xfer);
        prop_assert!(a <= b + 1e-9, "async {a} > blocking {b}");
        prop_assert!(b <= r + 1e-9, "blocking {b} > rendezvous {r}");
    }

    #[test]
    fn busy_time_bounded_by_span(stream in arb_stream(3)) {
        let mut sim = PipelineSim::new(3, TransferMode::Async, true);
        for (id, (ready, exec)) in stream.iter().enumerate() {
            sim.launch(*ready, exec, &[0.0, 0.0], SegmentKind::Prefill, id as u64);
        }
        let tl = sim.timeline();
        let span = tl.makespan();
        for d in 0..3 {
            prop_assert!(tl.busy_time(d) <= span + 1e-9);
            // Each stage executes every job exactly once.
            let expect: f64 = stream.iter().map(|(_, e)| e[d as usize]).sum();
            prop_assert!((tl.busy_time(d) - expect).abs() < 1e-9);
        }
        prop_assert!(tl.mean_utilization() <= 1.0 + 1e-9);
    }
}

/// Segments on up to four devices as `(device, start, length, snap)`,
/// appended in random order: some zero-length, some spanning many
/// windows. `snap` 0 moves the start onto the window grid, 1 the end.
fn arb_segments() -> impl Strategy<Value = Vec<(u32, f64, f64, u32)>> {
    let len = prop_oneof![Just(0.0), 0.0f64..0.4, 0.0f64..12.0];
    prop::collection::vec((0u32..4, 0.0f64..8.0, len, 0u32..4), 0..80)
}

proptest! {
    #[test]
    fn window_sweep_matches_the_per_window_scan(
        segments in arb_segments(),
        dt in prop::sample::select(vec![0.1, 0.3, 0.7, 1.0]),
        agg in 0.0f64..40.0,
    ) {
        // The last grid point at or below `x`, accumulated as the sweep does.
        let on_grid = |x: f64| {
            let mut t = 0.0;
            while t + dt <= x {
                t += dt;
            }
            t
        };
        let mut tl = Timeline::new(true);
        for (i, &(device, start, len, snap)) in segments.iter().enumerate() {
            let (start, end) = match snap {
                0 => (on_grid(start), on_grid(start) + len),
                1 => (start, on_grid(start + len).max(start)),
                _ => (start, start + len),
            };
            tl.record(device, start, end, SegmentKind::Decode, i as u64);
        }
        // Device 4 only ever reports aggregate busy time.
        tl.record_busy(4, agg / 2.0, 0.0, agg);
        let fast = tl.busy_per_window(dt);
        prop_assert_eq!(fast.to_bits(), tl.busy_per_window_by_scan(dt).to_bits());
    }
}
