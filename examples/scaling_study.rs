//! A miniature scaling study printed as a table: how the paper's algorithm compares against the
//! classical baselines as `n` and `σ` grow (a quick, self-contained version of experiments E1
//! and E2 — see `EXPERIMENTS.md` and the `msrp-bench` crate for the full versions).
//!
//! Run with: `cargo run --release --example scaling_study`

use std::time::Instant;

use msrp::core::{solve_msrp, solve_ssrp, MsrpParams};
use msrp::graph::generators::connected_gnm;
use msrp::graph::ShortestPathTree;
use msrp::rpath::{single_source_brute_force, single_source_via_single_pair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn main() {
    let params = MsrpParams::scaled_for_benchmarks();

    println!("--- single source, m = 4n ---");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14}",
        "n", "m", "brute (s)", "classical (s)", "paper (s)"
    );
    for &n in &[128usize, 256, 512, 1024] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = connected_gnm(n, 4 * n, &mut rng).expect("valid parameters").freeze();
        let tree = ShortestPathTree::build(&g, 0);
        let t_brute = seconds(|| {
            let _ = single_source_brute_force(&g, &tree);
        });
        let t_classical = seconds(|| {
            let _ = single_source_via_single_pair(&g, &tree);
        });
        let t_paper = seconds(|| {
            let _ = solve_ssrp(&g, 0, &params);
        });
        println!(
            "{:>6} {:>8} {:>14.3} {:>14.3} {:>14.3}",
            n,
            g.edge_count(),
            t_brute,
            t_classical,
            t_paper
        );
    }

    println!("\n--- multiple sources, n = 256, m = 1024 ---");
    println!("{:>6} {:>18} {:>22}", "sigma", "paper MSRP (s)", "per-source brute (s)");
    let mut rng = StdRng::seed_from_u64(7);
    let g = connected_gnm(256, 1024, &mut rng).expect("valid parameters").freeze();
    for &sigma in &[1usize, 2, 4, 8, 16] {
        let sources: Vec<usize> = (0..sigma).map(|i| i * 256 / sigma).collect();
        let t_paper = seconds(|| {
            let _ = solve_msrp(&g, &sources, &params);
        });
        let t_brute = seconds(|| {
            for &s in &sources {
                let tree = ShortestPathTree::build(&g, s);
                let _ = single_source_brute_force(&g, &tree);
            }
        });
        println!("{sigma:>6} {t_paper:>18.3} {t_brute:>22.3}");
    }

    println!(
        "\nThe brute-force column grows linearly in sigma while the paper's algorithm amortizes \
         its preprocessing across sources — the sqrt(nσ) interpolation of Theorem 1."
    );
}
