//! Experiment harness: regenerates the derived tables E1–E15 described in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p msrp-bench --release --bin experiments -- [e1|...|e15|all] [--quick] [--list]
//! ```
//!
//! `--quick` shrinks the instance sizes so that every experiment finishes in a few seconds
//! (used by the CI-style smoke run); without it the sizes match the numbers reported in
//! `EXPERIMENTS.md`. `--list` prints every experiment id with a one-line description and
//! exits; any other `--flag` is rejected with exit status 2. E14 (model-checker
//! exploration stats) additionally needs `--features model-stats`, which swaps the
//! workspace atomics onto the `msrp-check` shim facade — without the feature it prints
//! the rerun instructions and exits successfully, so `all` stays feature-agnostic.

use std::env;
use std::time::{Duration, Instant};

use msrp_bench::{
    evenly_spaced_sources, standard_graph, standard_weighted_graph, time_secs, Table, WorkloadKind,
};
use msrp_bmm::{multiply_via_msrp, BoolMatrix};
use msrp_core::{
    solve_msrp, solve_ssrp, verify::exactness, verify::verify_msrp, MsrpParams,
    SourceToLandmarkStrategy,
};
use msrp_graph::{
    bfs_trees_wave, BfsScratch, DijkstraScratch, Graph, Metric, MultiBfsScratch, ShortestPathTree,
    WAVE_LANES,
};
use msrp_netsim::{
    run_churn, run_simulation, run_simulation_with_service, ChurnConfig, SimulationConfig,
};
use msrp_obs::{timed, StageProfile};
use msrp_oracle::{shard_sources, ReplacementPathOracle, WeightedReplacementOracle, BK_STAGES};
use msrp_rpath::{
    single_source_brute_force, single_source_brute_force_with_scratch,
    single_source_via_single_pair,
};
use msrp_serve::{
    run_closed_loop, LoadConfig, QueryService, ServiceConfig, Sharded, ShardedOracle,
    WeightedShardedOracle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every experiment id with its one-line description (printed by `--list`).
const EXPERIMENTS: [(&str, &str); 15] = [
    ("e1", "single-source scaling (Theorem 14) vs the two O~(mn) baselines"),
    ("e2", "multi-source scaling in sigma (Theorem 1/26) on a fixed graph"),
    ("e3", "exactness rate of the randomized algorithm, paper vs scaled constants"),
    ("e4", "BMM via the MSRP gadget reduction (Theorem 2/28) vs the naive product"),
    ("e5", "fault-tolerant oracle build and query latency (Bernstein-Karger endpoint)"),
    ("e6", "ablations: path-cover vs exact tables, refinement sweeps, constants"),
    ("e7", "link-failure recovery simulation: oracle recovery vs recomputation"),
    ("e8", "sharded query service: parallel build, concurrent throughput, latency"),
    ("e9", "weighted MSRP: subtree-Dijkstra solver vs weighted brute force (Section 9)"),
    ("e10", "Bernstein-Karger preprocessing vs per-tree-edge brute force, tables compared"),
    ("e11", "live churn: epoch-swap serving, incremental vs full rebuild, zero mismatches"),
    ("e12", "build/rebuild stage profile: where BK preprocessing and ladder time goes"),
    ("e13", "traversal kernels at scale: top-down vs 64-way wave BFS, BK scaling check"),
    ("e14", "model-checker exploration: schedules/steps per lock-free structure + lint wall"),
    ("e15", "snapshot persistence: boot-from-snapshot vs rebuilding the oracle from scratch"),
];

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Some(flag) =
        args.iter().find(|a| a.starts_with("--") && !["--quick", "--list"].contains(&a.as_str()))
    {
        eprintln!("error: unknown flag `{flag}` (expected --quick or --list)");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for (id, description) in EXPERIMENTS {
            println!("{id}  {description}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if let Some(unknown) =
        which.iter().find(|id| **id != "all" && !EXPERIMENTS.iter().any(|(e, _)| e == *id))
    {
        eprintln!(
            "error: unknown experiment `{unknown}` (expected one of: {}, all; \
             try --list for descriptions)",
            EXPERIMENTS.iter().map(|(e, _)| e).copied().collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }
    let all = which.is_empty() || which.contains(&"all");

    let run = |id: &str| all || which.contains(&id);
    if run("e1") {
        experiment_e1(quick);
    }
    if run("e2") {
        experiment_e2(quick);
    }
    if run("e3") {
        experiment_e3(quick);
    }
    if run("e4") {
        experiment_e4(quick);
    }
    if run("e5") {
        experiment_e5(quick);
    }
    if run("e6") {
        experiment_e6(quick);
    }
    if run("e7") {
        experiment_e7(quick);
    }
    if run("e8") {
        experiment_e8(quick);
    }
    if run("e9") {
        experiment_e9(quick);
    }
    if run("e10") {
        experiment_e10(quick);
    }
    if run("e11") {
        experiment_e11(quick);
    }
    if run("e12") {
        experiment_e12(quick);
    }
    if run("e13") {
        experiment_e13(quick);
    }
    if run("e14") {
        experiment_e14(quick);
    }
    if run("e15") {
        experiment_e15(quick);
    }
}

fn bench_params() -> MsrpParams {
    MsrpParams::scaled_for_benchmarks()
}

/// E1 — SSRP scaling (Theorem 14): paper algorithm vs the two `Õ(mn)` baselines.
fn experiment_e1(quick: bool) {
    println!("\n=== E1: single-source scaling (Theorem 14) ===");
    let sizes: &[usize] = if quick { &[128, 256] } else { &[128, 256, 512, 1024, 2048] };
    let mut table = Table::new([
        "n",
        "m",
        "brute force (s)",
        "classical per-target (s)",
        "paper SSRP (s)",
        "speedup vs classical",
    ]);
    for &n in sizes {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 42).freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let (_, brute) = time_secs(|| single_source_brute_force(&g, &tree));
        let (_, classical) = time_secs(|| single_source_via_single_pair(&g, &tree));
        let (_, paper) = time_secs(|| solve_ssrp(&g, 0, &bench_params()));
        table.add_row([
            n.to_string(),
            g.edge_count().to_string(),
            format!("{brute:.3}"),
            format!("{classical:.3}"),
            format!("{paper:.3}"),
            format!("{:.2}x", classical / paper.max(1e-9)),
        ]);
    }
    table.print();
}

/// E2 — MSRP scaling in σ (Theorem 1/26): interpolation between the σ=1 and σ=n endpoints.
fn experiment_e2(quick: bool) {
    println!("\n=== E2: multi-source scaling in sigma (Theorem 1/26) ===");
    let n = if quick { 192 } else { 512 };
    let sigmas: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8, 16, 32] };
    let g = standard_graph(WorkloadKind::SparseRandom, n, 7).freeze();
    let mut table = Table::new([
        "sigma",
        "paper MSRP path-cover (s)",
        "exact source-landmark ablation (s)",
        "per-source brute force (s)",
    ]);
    for &sigma in sigmas {
        let sources = evenly_spaced_sources(n, sigma);
        let (_, cover) = time_secs(|| solve_msrp(&g, &sources, &bench_params()));
        let (_, exact) = time_secs(|| {
            solve_msrp(&g, &sources, &bench_params().with_strategy(SourceToLandmarkStrategy::Exact))
        });
        let (_, brute) = time_secs(|| {
            for &s in &sources {
                let tree = ShortestPathTree::build(&g, s);
                let _ = single_source_brute_force(&g, &tree);
            }
        });
        table.add_row([
            sigma.to_string(),
            format!("{cover:.3}"),
            format!("{exact:.3}"),
            format!("{brute:.3}"),
        ]);
    }
    table.print();
}

/// E3 — exactness rate of the randomized algorithm under paper and scaled constants.
fn experiment_e3(quick: bool) {
    println!("\n=== E3: exactness of the randomized algorithm ===");
    let trials = if quick { 3 } else { 10 };
    let n = if quick { 48 } else { 96 };
    let mut table =
        Table::new(["parameters", "kind", "entries checked", "exact entries", "under-estimates"]);
    for (label, params) in [("paper", MsrpParams::default()), ("scaled", bench_params())] {
        for kind in [WorkloadKind::SparseRandom, WorkloadKind::Grid] {
            let mut total = 0usize;
            let mut good = 0usize;
            let mut under = 0usize;
            for trial in 0..trials {
                let g = standard_graph(kind, n, 100 + trial as u64).freeze();
                let sources = evenly_spaced_sources(g.vertex_count(), 3);
                let out = solve_msrp(&g, &sources, &params.clone().with_seed(trial as u64));
                let reports = verify_msrp(&g, &out);
                let (g_ok, g_total) = exactness(&reports);
                good += g_ok;
                total += g_total;
                under += reports.iter().map(|r| r.under_estimates).sum::<usize>();
            }
            // Every reported value is the length of a real path, whatever the sampling
            // drew; an under-estimate is a solver soundness bug, not bad luck.
            assert_eq!(under, 0, "E3: {label} constants under-estimated on {}", kind.label());
            table.add_row([
                label.to_string(),
                kind.label().to_string(),
                total.to_string(),
                good.to_string(),
                under.to_string(),
            ]);
        }
    }
    table.print();
}

/// E4 — the BMM reduction (Theorem 2/28).
fn experiment_e4(quick: bool) {
    println!("\n=== E4: BMM via the MSRP reduction (Theorem 2/28) ===");
    let sizes: &[usize] = if quick { &[12, 16] } else { &[16, 24, 32, 48] };
    let mut table = Table::new(["n", "density", "naive BMM (s)", "via MSRP (s)", "products agree"]);
    let mut rng = StdRng::seed_from_u64(3);
    for &n in sizes {
        let density = 0.15;
        let a = BoolMatrix::random(n, density, &mut rng);
        let b = BoolMatrix::random(n, density, &mut rng);
        let (expected, naive) = time_secs(|| a.multiply_naive(&b));
        let (got, reduced) = time_secs(|| multiply_via_msrp(&a, &b, 2, &MsrpParams::default()));
        assert_eq!(
            expected, got,
            "E4: the product via MSRP differs from the naive product (n = {n})"
        );
        table.add_row([
            n.to_string(),
            format!("{density:.2}"),
            format!("{naive:.4}"),
            format!("{reduced:.3}"),
            (expected == got).to_string(),
        ]);
    }
    table.print();
}

/// E5 — oracle construction and query latency (the σ = n / Bernstein–Karger endpoint).
fn experiment_e5(quick: bool) {
    println!("\n=== E5: fault-tolerant oracle build and query latency ===");
    let n = if quick { 128 } else { 384 };
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let csr = g.freeze();
    let mut table = Table::new([
        "sigma",
        "build via MSRP (s)",
        "build exact (s)",
        "oracle query (ns)",
        "BFS recompute (ns)",
    ]);
    for &sigma in &[2usize, 8, 32] {
        let sources = evenly_spaced_sources(n, sigma);
        let (oracle, build_fast) =
            time_secs(|| ReplacementPathOracle::build(&csr, &sources, &bench_params()));
        let (_, build_exact) = time_secs(|| ReplacementPathOracle::build_exact(&csr, &sources));
        // Query workload.
        let mut rng = StdRng::seed_from_u64(5);
        let edges = g.edge_vec();
        let queries: Vec<_> = (0..2000)
            .map(|_| {
                (
                    sources[rng.gen_range(0..sources.len())],
                    rng.gen_range(0..n),
                    edges[rng.gen_range(0..edges.len())],
                )
            })
            .collect();
        let (_, oracle_time) = time_secs(|| {
            let mut acc = 0u64;
            for &(s, t, e) in &queries {
                acc = acc.wrapping_add(oracle.replacement_distance(s, t, e).unwrap_or(0) as u64);
            }
            acc
        });
        let mut bfs = BfsScratch::new();
        let (_, bfs_time) = time_secs(|| {
            let mut acc = 0u64;
            for &(s, t, e) in queries.iter().take(200) {
                bfs.run_avoiding(&csr, s, e);
                acc = acc.wrapping_add(bfs.dist()[t] as u64);
            }
            acc
        });
        table.add_row([
            sigma.to_string(),
            format!("{build_fast:.3}"),
            format!("{build_exact:.3}"),
            format!("{:.0}", oracle_time * 1e9 / queries.len() as f64),
            format!("{:.0}", bfs_time * 1e9 / 200.0),
        ]);
    }
    table.print();
}

/// E6 — ablations: path-cover vs exact tables, refinement sweeps, paper vs scaled constants.
fn experiment_e6(quick: bool) {
    println!("\n=== E6: ablations ===");
    let n = if quick { 128 } else { 320 };
    let sigma = 8;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 23).freeze();
    let sources = evenly_spaced_sources(n, sigma);
    let mut table = Table::new([
        "configuration",
        "time (s)",
        "landmarks",
        "centers",
        "exact entries",
        "total entries",
    ]);
    let configs: Vec<(&str, MsrpParams)> = vec![
        ("path-cover / scaled", bench_params()),
        ("exact tables / scaled", bench_params().with_strategy(SourceToLandmarkStrategy::Exact)),
        ("path-cover / no refinement", MsrpParams { refinement_sweeps: 0, ..bench_params() }),
        ("path-cover / paper constants", MsrpParams::default()),
    ];
    for (label, params) in configs {
        let (out, secs) = time_secs(|| solve_msrp(&g, &sources, &params));
        let reports = verify_msrp(&g, &out);
        let (good, total) = exactness(&reports);
        table.add_row([
            label.to_string(),
            format!("{secs:.3}"),
            out.stats.landmark_count.to_string(),
            out.stats.center_count.to_string(),
            good.to_string(),
            total.to_string(),
        ]);
    }
    table.print();
}

/// E7 — application-level link-failure simulation.
fn experiment_e7(quick: bool) {
    println!("\n=== E7: link-failure recovery simulation ===");
    let n = if quick { 100 } else { 256 };
    let mut table = Table::new([
        "workload",
        "queries",
        "mismatches",
        "disconnected",
        "avg stretch",
        "oracle query speedup",
    ]);
    for kind in
        [WorkloadKind::SparseRandom, WorkloadKind::Grid, WorkloadKind::PreferentialAttachment]
    {
        let g: Graph = standard_graph(kind, n, 31);
        let config = SimulationConfig {
            gateways: evenly_spaced_sources(g.vertex_count(), 4),
            failures: if quick { 20 } else { 100 },
            queries_per_failure: 20,
            seed: 9,
            params: bench_params(),
        };
        let report = run_simulation(&g, &config);
        table.add_row([
            kind.label().to_string(),
            report.total_queries.to_string(),
            report.mismatches.to_string(),
            report.disconnected_queries.to_string(),
            format!("{:.2}", report.average_stretch()),
            format!("{:.1}x", report.oracle_speedup()),
        ]);
    }
    table.print();
}

/// E8 — the serving subsystem: sharded parallel construction, concurrent query throughput
/// through the worker pool, and the E7 failure scenario routed through the service.
fn experiment_e8(quick: bool) {
    println!("\n=== E8: sharded replacement-path query service ===");
    let n = if quick { 128 } else { 256 };
    let sigma = 8;
    let g = standard_graph(WorkloadKind::SparseRandom, n, 11);
    let csr = g.freeze();
    let sources = evenly_spaced_sources(n, sigma);
    let params = bench_params();

    let mut table = Table::new([
        "threads=workers",
        "parallel build (s)",
        "build speedup",
        "throughput (q/s)",
        "batch p50",
        "batch p99",
        "unbalance",
    ]);
    let mut base_build = None;
    for &k in &[1usize, 2, 4] {
        // One timed sharded construction per row; the k = 1 row is the speedup baseline.
        let (oracle, build) = time_secs(|| ShardedOracle::build(&csr, &sources, &params, k));
        let base_build = *base_build.get_or_insert(build);
        let service = QueryService::start(oracle, &ServiceConfig { workers: k });
        let load = LoadConfig {
            clients: k,
            batches_per_client: if quick { 10 } else { 40 },
            batch_size: 64,
            seed: 8,
        };
        let report = run_closed_loop(&service, &g, &load);
        let metrics = service.shutdown();
        // Shard-balance headline: max over min per-shard query count (1.0 = perfectly even).
        let max_shard = metrics.shard_queries.iter().copied().max().unwrap_or(0);
        let min_shard = metrics.shard_queries.iter().copied().min().unwrap_or(0);
        table.add_row([
            k.to_string(),
            format!("{build:.3}"),
            format!("{:.2}x", base_build / build.max(1e-9)),
            format!("{:.0}", report.throughput_qps()),
            format!("{:.1?}", report.latency.p50()),
            format!("{:.1?}", report.latency.p99()),
            format!("{:.2}", max_shard as f64 / min_shard.max(1) as f64),
        ]);
    }
    table.print();

    let config = SimulationConfig {
        gateways: sources.clone(),
        failures: if quick { 20 } else { 60 },
        queries_per_failure: 20,
        seed: 9,
        params,
    };
    let report = run_simulation_with_service(&g, &config, 2, 4);
    println!(
        "service-backed failure simulation: {} queries, {} mismatches, oracle speedup {:.1}x",
        report.total_queries,
        report.mismatches,
        report.oracle_speedup()
    );
}

/// E9 — weighted MSRP (Section 9): the subtree-Dijkstra cut kernel
/// (`WeightedReplacementOracle::build`) against the per-tree-edge weighted brute force, with
/// the full replacement tables compared bit for bit (asserted, so `--quick` gates exactness).
fn experiment_e9(quick: bool) {
    println!("\n=== E9: weighted MSRP (Section 9 lift) ===");
    let sizes: &[usize] = if quick { &[96, 160] } else { &[128, 256, 512] };
    let sigma = 3;
    let mut table = Table::new([
        "kind",
        "n",
        "m",
        "solver (s)",
        "brute force (s)",
        "speedup",
        "entries",
        "all equal",
    ]);
    for kind in [WorkloadKind::SparseRandom, WorkloadKind::PreferentialAttachment] {
        for &n in sizes {
            let g = standard_weighted_graph(kind, n, 31, 1000).freeze();
            let sources = evenly_spaced_sources(g.vertex_count(), sigma);
            let (oracle, solver_secs) =
                time_secs(|| WeightedReplacementOracle::build(&g, &sources));
            // One timed brute-force pass over the solver's own canonical trees (tree
            // construction is a negligible slice of either side) doubles as the
            // full-table comparison: every entry compared, nothing sampled.
            let (truth, brute_secs) = time_secs(|| {
                let mut scratch = DijkstraScratch::new();
                oracle
                    .trees()
                    .iter()
                    .map(|t| single_source_brute_force_with_scratch(&g, t, &mut scratch))
                    .collect::<Vec<_>>()
            });
            let all_equal = oracle.per_source() == truth;
            assert!(all_equal, "E9: {} n={n}: solver tables differ from brute force", kind.label());
            table.add_row([
                kind.label().to_string(),
                g.vertex_count().to_string(),
                g.edge_count().to_string(),
                format!("{solver_secs:.3}"),
                format!("{brute_secs:.3}"),
                format!("{:.2}x", brute_secs / solver_secs.max(1e-9)),
                oracle.entry_count().to_string(),
                all_equal.to_string(),
            ]);
        }
    }
    table.print();
}

/// E10 — the Bernstein–Karger preprocessing (one multi-seed search per tree-edge cut over
/// the entries it changes, in dominator-tree preorder coordinates) against the
/// per-tree-edge brute force, with the full replacement tables compared bit for bit
/// (`ReplacementPathOracle::per_source` row equality — every entry, nothing sampled;
/// asserted, so `--quick` gates exactness). `searched` is the share of entries above the
/// fault-free distance `d(t)`: the entries the kernel searches.
fn experiment_e10(quick: bool) {
    println!("\n=== E10: Bernstein-Karger preprocessing vs per-tree-edge brute force ===");
    let sizes: &[usize] = if quick { &[96, 192] } else { &[128, 256, 512, 1024] };
    let sigma = 4;
    let mut table = Table::new([
        "kind",
        "n",
        "m",
        "sigma",
        "BK build (s)",
        "exact build (s)",
        "speedup",
        "entries",
        "searched",
        "all equal",
    ]);
    for kind in [WorkloadKind::SparseRandom, WorkloadKind::Grid] {
        for &n in sizes {
            let g = standard_graph(kind, n, 13).freeze();
            let sources = evenly_spaced_sources(g.vertex_count(), sigma);
            let (bk, bk_secs) = time_secs(|| ReplacementPathOracle::build_bk(&g, &sources));
            let (exact, exact_secs) =
                time_secs(|| ReplacementPathOracle::build_exact(&g, &sources));
            let all_equal = bk.trees() == exact.trees() && bk.per_source() == exact.per_source();
            assert!(all_equal, "E10: {} n={n}: BK tables differ from build_exact", kind.label());
            // The entries a failure changes: the only ones the BK kernel searches.
            let searched: usize = bk
                .trees()
                .iter()
                .zip(bk.per_source())
                .map(|(tree, rows)| {
                    rows.iter().filter(|&(t, _, d)| d > tree.distances()[t]).count()
                })
                .sum();
            table.add_row([
                kind.label().to_string(),
                g.vertex_count().to_string(),
                g.edge_count().to_string(),
                sources.len().to_string(),
                format!("{bk_secs:.3}"),
                format!("{exact_secs:.3}"),
                format!("{:.2}x", exact_secs / bk_secs.max(1e-9)),
                bk.entry_count().to_string(),
                format!("{:.1}%", 100.0 * searched as f64 / bk.entry_count().max(1) as f64),
                all_equal.to_string(),
            ]);
        }
    }
    table.print();
}

/// E11 — live churn: seed-pinned failure/repair events streamed at a running epoch-swapping
/// service. Every batch is validated against per-epoch avoiding-BFS recompute (the
/// `mismatches` column must be 0 on every row), every incremental rebuild is differentially
/// pinned to a from-scratch build, and the work/time columns quantify the incremental win.
fn experiment_e11(quick: bool) {
    println!("\n=== E11: live churn — epoch-swap serving, incremental vs full rebuild ===");
    let sizes: &[usize] = if quick { &[48, 64] } else { &[64, 128, 256] };
    let events = if quick { 8 } else { 16 };
    let sigma = 4;
    let mut table = Table::new([
        "kind",
        "n",
        "events",
        "queries",
        "mismatches",
        "src reused/patched/rebuilt",
        "cuts redone/total",
        "inc (s)",
        "full (s)",
        "stale p99",
        "inc win",
    ]);
    for kind in [WorkloadKind::SparseRandom, WorkloadKind::Grid] {
        for &n in sizes {
            let g = standard_graph(kind, n, 17);
            let config = ChurnConfig {
                gateways: evenly_spaced_sources(g.vertex_count(), sigma),
                events,
                batches_in_flight: 3,
                batches_settled: 2,
                batch_size: 16,
                shards: 2,
                workers: 2,
                seed: 1000 + n as u64,
                verify_full: true,
            };
            let report = run_churn(&g, &config);
            assert_eq!(report.mismatched_batches, 0, "churn answers must be exact");
            assert!(report.incremental_win(), "incremental must beat full rebuild");
            let inc = &report.incremental;
            table.add_row([
                kind.label().to_string(),
                g.vertex_count().to_string(),
                format!("{} ({} repairs)", report.events, report.repairs),
                report.total_queries.to_string(),
                report.mismatched_batches.to_string(),
                format!(
                    "{}/{}/{} of {}",
                    inc.sources_reused, inc.sources_patched, inc.sources_rebuilt, inc.sources_total
                ),
                format!("{}/{}", inc.cuts_recomputed, inc.cuts_total),
                format!("{:.3}", report.incremental_rebuild_time.as_secs_f64()),
                format!("{:.3}", report.full_rebuild_time.as_secs_f64()),
                format!("{:.1?}", report.staleness.p99()),
                report.incremental_win().to_string(),
            ]);
        }
    }
    table.print();
}

/// E12 — build/rebuild stage profile: where the Bernstein–Karger preprocessing wall time
/// goes, stage by stage (`tree` BFS trees, `cover` the per-source relabel into preorder
/// positions — the stage keeps its old name — `rows` table allocation, `cuts` the
/// multi-seed cut solves, `merge` the shard merge), and where the incremental rebuild
/// ladder spends its time (`reuse`/`patch`/`rebuild` rungs), at three graph sizes. The acceptance bar asserted on every row: the staged times must account
/// for the measured wall within 10% (plus a small absolute epsilon so the timer-noise
/// floor cannot flake the `--quick` sizes on a loaded 1-CPU runner).
fn experiment_e12(quick: bool) {
    println!("\n=== E12: build/rebuild stage profile — where preprocessing time goes ===");
    let sizes: &[usize] = if quick { &[48, 96] } else { &[256, 512, 1024] };
    let sigma = 8;
    let shards = 2;
    let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let coverage = |staged: Duration, wall: Duration| {
        format!("{:.1}%", 100.0 * staged.as_secs_f64() / wall.as_secs_f64().max(1e-12))
    };
    // `accounted` must reach 100% − 10% on every row; the epsilon covers timer noise when
    // the whole build is a few milliseconds.
    let check_accounted = |what: &str, staged: Duration, wall: Duration| {
        let slack = wall.saturating_sub(staged);
        let tolerance = (wall / 10).max(Duration::from_millis(5));
        assert!(
            slack <= tolerance,
            "{what}: staged times {staged:?} leave {slack:?} of the {wall:?} wall \
             unaccounted (tolerance {tolerance:?})"
        );
    };
    let mut build_table = Table::new([
        "n",
        "sigma",
        "build (ms)",
        "tree",
        "cover",
        "rows",
        "cuts",
        "merge",
        "accounted",
    ]);
    let mut ladder_table =
        Table::new(["n", "rebuild (ms)", "reuse", "patch", "rebuild rung", "accounted"]);
    for &n in sizes {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 53);
        let csr = g.freeze();
        let sources = evenly_spaced_sources(n, sigma);
        let mut profile = StageProfile::new();
        let build_start = Instant::now();
        let shard_oracles: Vec<ReplacementPathOracle> = shard_sources(&sources, shards)
            .into_iter()
            .map(|chunk| ReplacementPathOracle::build_bk_csr_profiled(&csr, chunk, &mut profile))
            .collect();
        let sharded = timed(&mut profile, "merge", || ShardedOracle::from_shards(shard_oracles));
        let build_wall = build_start.elapsed();
        let stage_time = |name: &str| profile.get(name).map_or(Duration::ZERO, |t| t.total);
        let staged: Duration = BK_STAGES.iter().map(|s| stage_time(s)).sum();
        assert_eq!(staged, profile.total(), "BK_STAGES must name every recorded stage");
        check_accounted("build", staged, build_wall);
        build_table.add_row([
            n.to_string(),
            sources.len().to_string(),
            ms(build_wall),
            ms(stage_time("tree")),
            ms(stage_time("cover")),
            ms(stage_time("rows")),
            ms(stage_time("cuts")),
            ms(stage_time("merge")),
            coverage(staged, build_wall),
        ]);
        // The rebuild ladder on one edge failure: remove an edge, rebuild incrementally,
        // and read where the time went off the per-rung stats.
        let mut g_post = g.clone();
        let e = g_post.edge_vec()[g_post.edge_count() / 2];
        let (u, v) = e.endpoints();
        g_post.remove_edge(u, v).expect("edge came from edge_vec");
        let post_csr = g_post.freeze();
        let rebuild_start = Instant::now();
        let (_rebuilt, stats) = sharded.rebuild_bk_csr(&post_csr, e);
        let rebuild_wall = rebuild_start.elapsed();
        let rungs = stats.rungs();
        assert_eq!(
            rungs.iter().map(|&(_, s, _)| s).sum::<usize>(),
            stats.sources_total,
            "every source must be charged to exactly one rung"
        );
        check_accounted("rebuild ladder", stats.rung_time(), rebuild_wall);
        let rung_cell = |i: usize| format!("{} src, {}", rungs[i].1, ms(rungs[i].2));
        ladder_table.add_row([
            n.to_string(),
            ms(rebuild_wall),
            rung_cell(0),
            rung_cell(1),
            rung_cell(2),
            coverage(stats.rung_time(), rebuild_wall),
        ]);
    }
    println!("\nBK build pipeline (per-stage wall time, {shards} shards built sequentially):");
    build_table.print();
    println!("\nincremental rebuild ladder (one edge failure per size):");
    ladder_table.print();
}

/// E13 — traversal kernels at scale: the 64-way bit-parallel wave against the top-down
/// BFS, on a low-diameter sparse-random workload and a high-diameter grid, plus the
/// Õ(m√(nσ)) scaling check on the wave-powered `build_bk`.
///
/// `--quick` (CI) doubles as a kernel differential: every row *asserts* that each wave
/// lane's distances and each wave-built tree equal the top-down kernel's before the row is
/// printed. Without it the sizes are the desk-side ones.
fn experiment_e13(quick: bool) {
    println!("\n=== E13: traversal kernels at scale — top-down and 64-way bit-parallel BFS ===");
    let sizes: &[usize] = if quick { &[2_048, 8_192] } else { &[16_384, 65_536] };
    let mut kernel_table =
        Table::new(["kind", "n", "m", "top-down (ms)", "wave/src (ms)", "wave x"]);
    for kind in [WorkloadKind::SparseRandom, WorkloadKind::Grid] {
        for &n in sizes {
            let csr = standard_graph(kind, n, 29).freeze();
            let n = csr.vertex_count();
            let m = csr.edge_count();
            let sources = evenly_spaced_sources(n, WAVE_LANES);
            // The top-down kernel is timed over a probe subset; the wave runs all 64 lanes
            // at once and is reported per source.
            let probe: Vec<usize> = sources.iter().copied().step_by(8).collect();
            let mut td = BfsScratch::new();
            let mut wave = MultiBfsScratch::new();
            // One untimed run per kernel: buffer allocation and first-touch page faults
            // happen here, so the timed loops measure the steady state (the regime every
            // oracle build and serving rebuild actually runs in).
            td.run(&csr, probe[0]);
            wave.run_wave(&csr, &sources);
            let (_, td_secs) = time_secs(|| {
                for &s in &probe {
                    td.run(&csr, s);
                }
            });
            let (_, wave_secs) = time_secs(|| wave.run_wave(&csr, &sources));
            // The differential half of the experiment: every row is only printed after the
            // two kernels are proven bit-identical on its instance (this is the step the
            // CI `--quick` run relies on).
            for (lane, &s) in sources.iter().enumerate() {
                td.run(&csr, s);
                assert_eq!(wave.lane_dist_vec(lane), td.dist(), "{} n={n} s={s}", kind.label());
            }
            for (tree, &s) in bfs_trees_wave(&csr, &sources, &mut wave).iter().zip(&sources) {
                let reference = ShortestPathTree::build_with_scratch(&csr, s, &mut td);
                assert_eq!(tree, &reference, "{} n={n} s={s}: tree", kind.label());
            }
            let td_ms = td_secs / probe.len() as f64 * 1e3;
            let wave_ms = wave_secs / sources.len() as f64 * 1e3;
            kernel_table.add_row([
                kind.label().to_string(),
                n.to_string(),
                m.to_string(),
                format!("{td_ms:.3}"),
                format!("{wave_ms:.3}"),
                format!("{:.2}", td_ms / wave_ms.max(1e-9)),
            ]);
        }
    }
    println!("\nkernel crossover (per-source BFS wall time; speedup is vs top-down):");
    kernel_table.print();

    // The product-side payoff: `build_bk` runs its tree stage through the wave, so the
    // Õ(m√(nσ)) preprocessing bound (Theorem 26 regime) is checked with the kernels in
    // place. The normalized column should drift only logarithmically if the bound holds.
    let (oracle_sizes, sigma): (&[usize], usize) =
        if quick { (&[1_024, 2_048], 8) } else { (&[16_384, 32_768], 16) };
    let mut oracle_table =
        Table::new(["kind", "n", "m", "sigma", "build_bk (s)", "t/(m·sqrt(n·σ)) (ns)"]);
    for &n in oracle_sizes {
        let csr = standard_graph(WorkloadKind::SparseRandom, n, 29).freeze();
        let m = csr.edge_count();
        let sources = evenly_spaced_sources(csr.vertex_count(), sigma);
        let (oracle, secs) =
            time_secs(|| msrp_oracle::ReplacementPathOracle::build_bk(&csr, &sources));
        assert_eq!(oracle.sources().len(), sigma);
        let normalizer = m as f64 * ((csr.vertex_count() * sigma) as f64).sqrt();
        oracle_table.add_row([
            "sparse-random".to_string(),
            csr.vertex_count().to_string(),
            m.to_string(),
            sigma.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}", secs * 1e9 / normalizer),
        ]);
    }
    println!("\nwave-powered BK preprocessing (Õ(m·sqrt(nσ)) scaling check):");
    oracle_table.print();
}

/// E14 — model-checker exploration stats: how many interleavings the bounded DFS walks
/// for each lock-free structure's invariant scenario (the `crates/check/tests/model_*`
/// scenarios, compacted), plus the lint wall's rule/allowlist counts. Only meaningful
/// with `--features model-stats` (the shim-instrumented build); without it the function
/// prints the rerun instructions and returns, so `all` works on any build.
#[cfg(not(feature = "model-stats"))]
fn experiment_e14(_quick: bool) {
    println!("\n=== E14: model-checker exploration (skipped) ===");
    println!(
        "rerun with: cargo run -p msrp-bench --release --features model-stats \
         --bin experiments -- e14 [--quick]"
    );
}

#[cfg(feature = "model-stats")]
fn experiment_e14(quick: bool) {
    use msrp_check::model::{explore, ModelConfig, Scenario};
    use msrp_obs::SpanJournal;
    use msrp_serve::{EpochOracle, LatencyHistogram, RouteOracle};
    use std::sync::Arc;

    println!("\n=== E14: model-checker exploration ===");
    let budget = if quick { 600 } else { ModelConfig::DEFAULT_BUDGET };
    let cfg = ModelConfig::with_budget(budget);
    let mut table =
        Table::new(["structure", "scenario", "schedules", "max depth", "total steps", "exhausted"]);
    let mut record = |structure: &str, scenario: &str, report: msrp_check::model::Report| {
        assert!(report.failure.is_none(), "{structure}: {:?}", report.failure);
        table.add_row([
            structure.to_string(),
            scenario.to_string(),
            report.schedules.to_string(),
            report.max_depth.to_string(),
            report.total_steps.to_string(),
            report.exhausted.to_string(),
        ]);
    };

    // SpanJournal: overwriting writer vs snapshotter on a one-slot ring (the torn-read
    // window the Release payload stores close).
    record(
        "SpanJournal",
        "overwrite vs snapshot",
        explore(&cfg, || {
            let j = Arc::new(SpanJournal::new(1));
            j.record(7, 1, 2, std::time::Duration::from_nanos(3));
            let (jw, jr) = (Arc::clone(&j), Arc::clone(&j));
            Scenario::new(vec![
                Box::new(move || jw.record(8, 2, 3, std::time::Duration::from_nanos(4))),
                Box::new(move || {
                    for e in jr.snapshot().events {
                        assert!(e.trace_id == 7 || e.trace_id == 8, "torn event: {e:?}");
                    }
                }),
            ])
        }),
    );

    // LatencyHistogram: one record racing one snapshot + quantile scan (the PR 6 race's
    // shipped fix under the model).
    record(
        "LatencyHistogram",
        "record vs quantile",
        explore(&cfg, || {
            let h = Arc::new(LatencyHistogram::new());
            let (hw, hr) = (Arc::clone(&h), Arc::clone(&h));
            Scenario::new(vec![
                Box::new(move || hw.record(std::time::Duration::from_nanos(100))),
                Box::new(move || {
                    let snap = hr.snapshot();
                    let _ = snap.p50();
                    let _ = snap.quantile(1.0);
                }),
            ])
        }),
    );

    // EpochOracle: one publish racing one pinned batch (the one-epoch-per-batch
    // invariant); answers themselves touch no atomics, so this explores exactly the
    // lock-acquisition interleavings.
    record(
        "EpochOracle",
        "publish vs pinned batch",
        explore(&cfg, || {
            let mut rng = StdRng::seed_from_u64(91);
            let mut g = msrp_graph::generators::connected_gnm(20, 50, &mut rng).unwrap();
            let sources = [0usize, 7, 14];
            let initial = ShardedOracle::build_bk_csr(&g.freeze(), &sources, 2);
            let e = g.edge_vec()[3];
            let (u, v) = e.endpoints();
            g.remove_edge(u, v).unwrap();
            let (next, _) = initial.rebuild_bk_csr(&g.freeze(), e);
            let epochs = Arc::new(EpochOracle::new(initial));
            let eb = Arc::clone(&epochs);
            Scenario::new(vec![
                Box::new(move || {
                    epochs.publish(next);
                }),
                Box::new(move || {
                    let queries: Vec<msrp_serve::Query> =
                        (0..4).map(|t| msrp_serve::Query::new(0, t, e)).collect();
                    let _ = eb.query_batch_routed(&queries);
                }),
            ])
        }),
    );

    println!("schedule budget: {budget} (MSRP_MODEL_EXHAUSTIVE=1 lifts it)");
    table.print();

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = msrp_check::lint::scan_workspace(&root.canonicalize().unwrap());
    println!(
        "\nlint wall: {} rules, {} files scanned, {} violations, {} allowlist entries",
        msrp_check::lint::RULES.len(),
        report.files_scanned,
        report.violations.len(),
        report.allowed.len()
    );
    assert!(report.violations.is_empty(), "lint wall must be clean: {:?}", report.violations);
}

/// E15 — snapshot persistence: boot a serving oracle from a `msrp-snap` buffer
/// (checksum walk + validated table adoption) against re-running the BK construction
/// from the frozen graph. The booted oracle is proven **bit-identical** before any row
/// is printed: re-encoding it must reproduce the snapshot byte-for-byte (the canonical
/// round trip the snapshot fuzz battery pins), so the speedup column compares two
/// routes to the same answers. Besides the σ = 2 scaling rows, one serving-shape row
/// (σ = 512, the `batch_sigma512` benchmark's shape) times a snapshot dominated by
/// per-source trees and rows, where the decoder's parallel per-source work shows. Every
/// file must also match the closed form of its length at the narrowest widths its data
/// allows, so a derivable tree array written back into the format, or a section written
/// wider than its data needs, fails the experiment; the serving shape must store 1 byte
/// per row entry and 2 per vertex id.
fn experiment_e15(quick: bool) {
    println!("\n=== E15: snapshot persistence — boot-from-snapshot vs rebuild ===");
    let sizes: &[usize] = if quick { &[512, 1024] } else { &[1 << 12, 1 << 14, 1 << 16] };
    let sigma = 2;
    let serving_n = if quick { 1024 } else { 2048 };
    let mut table = Table::new([
        "metric",
        "n",
        "m",
        "sigma",
        "bytes",
        "MB",
        "B/entry",
        "encode (s)",
        "build (s)",
        "boot (s)",
        "speedup",
        "bit-identical",
    ]);
    let mut add_row = |metric: &str, sizes: [usize; 5], secs: [f64; 3]| {
        let [n, m, sigma, bytes, row_width] = sizes;
        let [encode_secs, build_secs, boot_secs] = secs;
        table.add_row([
            metric.to_string(),
            n.to_string(),
            m.to_string(),
            sigma.to_string(),
            bytes.to_string(),
            format!("{:.3}", bytes as f64 / 1e6),
            row_width.to_string(),
            format!("{encode_secs:.4}"),
            format!("{build_secs:.4}"),
            format!("{boot_secs:.4}"),
            format!("{:.1}x", build_secs / boot_secs.max(1e-9)),
            "true".to_string(),
        ]);
    };
    for (n, sigma) in sizes.iter().map(|&n| (n, sigma)).chain([(serving_n, 512)]) {
        let g = standard_graph(WorkloadKind::SparseRandom, n, 7).freeze();
        let sources = evenly_spaced_sources(n, sigma);
        let (oracle, build_secs) = time_secs(|| ShardedOracle::build_bk_csr(&g, &sources, 2));
        let (bytes, encode_secs) = time_secs(|| oracle.to_snapshot(&g));
        let ((g2, booted), boot_secs) =
            time_secs(|| ShardedOracle::from_snapshot(&bytes).expect("pristine snapshot"));
        let identical = g2 == g && booted.to_snapshot(&g2) == bytes;
        assert!(identical, "hop n={n} σ={sigma}: the booted oracle must re-encode bit-identically");
        // A hop file: META, the CSR offsets and targets, the sources, the shard lengths,
        // σ·n tree parents and the row entries.
        let (ids, rows) = narrowest_widths(&oracle);
        let entries: usize = oracle.shards().iter().map(|s| s.entry_count()).sum();
        let m2 = 2 * g.edge_count();
        let sections =
            [48, 4 * (n + 1), ids * m2, ids * sigma, 4 * oracle.shard_count(), ids * sigma * n];
        let expected = snapshot_len(&sections, rows * entries);
        assert_eq!(bytes.len(), expected, "hop n={n} σ={sigma}: the file holds a derived array");
        if sigma == 512 {
            assert_eq!((ids, rows), (2, 1), "the serving shape's id and row widths");
        }
        let sizes = [n, g.edge_count(), sigma, bytes.len(), rows];
        add_row("hop", sizes, [encode_secs, build_secs, boot_secs]);
    }
    // One weighted row: the subtree-Dijkstra build is costlier per vertex, so the
    // boot-from-snapshot win is even larger — a smaller n keeps the harness fast.
    let n = if quick { 256 } else { 2048 };
    let g = standard_weighted_graph(WorkloadKind::SparseRandom, n, 7, 1000).freeze();
    let sources = evenly_spaced_sources(n, sigma);
    let (oracle, build_secs) = time_secs(|| WeightedShardedOracle::build(&g, &sources, 2));
    let (bytes, encode_secs) = time_secs(|| oracle.to_snapshot(&g));
    let ((g2, booted), boot_secs) =
        time_secs(|| WeightedShardedOracle::from_snapshot(&bytes).expect("pristine snapshot"));
    let identical = g2 == g && booted.to_snapshot(&g2) == bytes;
    assert!(identical, "weighted n={n}: the booted oracle must re-encode bit-identically");
    // A weighted file adds the edge weights, the σ·n tree distances and the settle orders.
    let (ids, rows) = narrowest_widths(&oracle);
    let entries: usize = oracle.shards().iter().map(|s| s.entry_count()).sum();
    let settled: usize =
        oracle.shards().iter().flat_map(|s| s.trees()).map(|t| t.order().len()).sum();
    let m2 = 2 * g.edge_count();
    let sections = [
        48,
        4 * (n + 1),
        ids * m2,
        8 * m2,
        ids * sigma,
        4 * oracle.shard_count(),
        8 * sigma * n,
        ids * sigma * n,
        ids * settled,
    ];
    let expected = snapshot_len(&sections, rows * entries);
    assert_eq!(bytes.len(), expected, "weighted n={n}: the file holds a derived or wide array");
    let sizes = [n, g.edge_count(), sigma, bytes.len(), rows];
    add_row("weighted", sizes, [encode_secs, build_secs, boot_secs]);
    table.print();
}

/// The `(id, row)` word widths in bytes that an oracle's data allows: vertex ids take 2
/// bytes up to n = `0xFFFF`, else 4; a row entry is stored as its excess over d(t), in
/// the narrowest of 1, 2, 4 and 8 bytes whose all-ones word, which stands for infinity,
/// is above the largest finite excess.
fn narrowest_widths<M: Metric>(oracle: &Sharded<M>) -> (usize, usize) {
    let n = oracle.vertex_count();
    let mut largest = 0u64;
    for shard in oracle.shards() {
        for (tree, rows) in shard.trees().iter().zip(shard.per_source()) {
            for t in 0..n {
                let base: u64 = tree.distance_or_infinite(t).into();
                let finite = rows.row(t).iter().filter(|&&d| d != M::INFINITY);
                largest = finite.fold(largest, |l, &d| l.max(d.into() - base));
            }
        }
    }
    let rows = [1, 2, 4, 8].into_iter().find(|&w| largest < u64::MAX >> (64 - 8 * w));
    (if n <= 0xFFFF { 2 } else { 4 }, rows.expect("an excess below u64::MAX"))
}

/// A snapshot's length in closed form: the 40-byte header, a 32-byte table entry per
/// section, then each payload (`sections`, then `rows` bytes of ROWS) padded to 8 bytes.
fn snapshot_len(sections: &[usize], rows: usize) -> usize {
    let payloads = sections.iter().chain([&rows]).map(|&b| b.next_multiple_of(8));
    40 + 32 * (sections.len() + 1) + payloads.sum::<usize>()
}
