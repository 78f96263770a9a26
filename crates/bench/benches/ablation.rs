//! Experiment E6 (Criterion variant): ablations of the design choices called out in `DESIGN.md`
//! — path-cover vs exact source→landmark tables, refinement sweeps on/off, paper vs scaled
//! constants.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use msrp_bench::{evenly_spaced_sources, standard_graph, WorkloadKind};
use msrp_core::{solve_msrp, MsrpParams, SourceToLandmarkStrategy};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 192;
    let sigma = 8;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 23).freeze();
    let sources = evenly_spaced_sources(n, sigma);

    let configs: Vec<(&str, MsrpParams)> = vec![
        ("path_cover_scaled", MsrpParams::scaled_for_benchmarks()),
        (
            "exact_tables_scaled",
            MsrpParams::scaled_for_benchmarks().with_strategy(SourceToLandmarkStrategy::Exact),
        ),
        (
            "path_cover_no_refinement",
            MsrpParams { refinement_sweeps: 0, ..MsrpParams::scaled_for_benchmarks() },
        ),
        ("path_cover_paper_constants", MsrpParams::default()),
    ];
    for (name, params) in configs {
        group.bench_function(name, |b| b.iter(|| solve_msrp(&g, &sources, &params)));
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
