//! Microbenchmarks of the deterministic pipeline simulator and the
//! threaded hierarchy-controller runtime it models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdpipe_runtime::{Cluster, JobSpec};
use std::time::Duration;
use tdpipe_sim::{PipelineSim, SegmentKind, TransferMode};

/// Generous bound on any one cluster wait; a healthy run never nears it.
const TIMEOUT: Duration = Duration::from_secs(10);

fn bench_sim(c: &mut Criterion) {
    c.bench_function("pipeline_launch_4stage", |b| {
        let mut sim = PipelineSim::new(4, TransferMode::Async, false);
        let exec = [0.01, 0.01, 0.01, 0.012];
        let xfer = [0.001; 3];
        let mut tag = 0u64;
        b.iter(|| {
            tag += 1;
            black_box(sim.launch(0.0, &exec, &xfer, SegmentKind::Decode, tag))
        })
    });

    c.bench_function("pipeline_launch_rendezvous", |b| {
        let mut sim = PipelineSim::new(4, TransferMode::Rendezvous, false);
        let exec = [0.01, 0.01, 0.01, 0.012];
        let xfer = [0.001; 3];
        let mut tag = 0u64;
        b.iter(|| {
            tag += 1;
            black_box(sim.launch(0.0, &exec, &xfer, SegmentKind::Decode, tag))
        })
    });

    // Real threads: 1000 jobs through the 4-worker hierarchy-controller
    // (measures channel + virtual-clock overhead per job).
    c.bench_function("threaded_cluster_1000_jobs", |b| {
        b.iter(|| {
            let mut cluster = Cluster::spawn(4, TransferMode::Async);
            for id in 0..1000u64 {
                cluster
                    .launch(JobSpec {
                        id,
                        ready: 0.0,
                        exec: vec![0.01; 4],
                        xfer: vec![0.001; 3],
                        kind: SegmentKind::Decode,
                    })
                    .expect("healthy cluster accepts jobs");
            }
            for _ in 0..1000 {
                cluster
                    .next_completion(TIMEOUT)
                    .expect("healthy cluster completes every job");
            }
            cluster.shutdown(TIMEOUT).expect("healthy cluster shuts down")
        })
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
