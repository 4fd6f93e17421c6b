//! End-to-end engine benchmarks on a small trace: how fast the whole
//! simulation stack (cost model + allocator + scheduler + pipeline sim)
//! turns a workload into a report. One paper-scale Figure 11 cell runs in
//! well under a second, which is what makes the full sweep practical.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tdpipe_baselines::Scheduler;
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OraclePredictor;
use tdpipe_workload::{ShareGptLikeConfig, Workload};

fn bench_engines(c: &mut Criterion) {
    let trace = ShareGptLikeConfig::small(300, 11).generate();
    let model = ModelSpec::llama2_13b();
    let node = NodeSpec::l20(4);

    let mut group = c.benchmark_group("engine_300req_l20x4_13b");
    group.sample_size(10);
    for s in Scheduler::ALL {
        group.bench_function(s.name(), |b| {
            b.iter(|| {
                let cfg = s.default_config();
                let workload = Workload::offline(black_box(&trace));
                black_box(
                    s.run(&model, &node, &cfg, workload, &OraclePredictor)
                        .expect("fits"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
