//! Quickstart: solve the single-source and multi-source replacement path problems on a small
//! network and print the answers.
//!
//! Run with: `cargo run --example quickstart`

use msrp::core::{solve_msrp, solve_ssrp, MsrpParams};
use msrp::graph::generators::connected_gnm;
use msrp::graph::INFINITE_DISTANCE;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A reproducible sparse random network with 64 routers and 160 links.
    let mut rng = StdRng::seed_from_u64(2020);
    let g = connected_gnm(64, 160, &mut rng).expect("valid generator parameters").freeze();
    println!(
        "network: {} vertices, {} edges, average degree {:.2}",
        g.vertex_count(),
        g.edge_count(),
        g.average_degree()
    );

    // --- Single source (Theorem 14). ---
    let params = MsrpParams::default();
    let ssrp = solve_ssrp(&g, 0, &params);
    println!("\nSSRP from vertex 0 (paper constants):\n{}", ssrp.stats);

    // Print the replacement distances for one interesting target: the farthest vertex.
    let farthest = (0..g.vertex_count())
        .max_by_key(|&v| ssrp.tree.distance(v).unwrap_or(0))
        .expect("non-empty graph");
    let path = ssrp.tree.path_from_source(farthest).expect("connected");
    println!("\ncanonical path 0 -> {farthest}: {path:?}");
    for (i, e) in ssrp.tree.path_edges(farthest).iter().enumerate() {
        let d = ssrp.distances.get(farthest, i).expect("entry exists");
        if d == INFINITE_DISTANCE {
            println!("  losing edge {e}: {farthest} becomes unreachable");
        } else {
            println!(
                "  losing edge {e}: distance {} -> {} (+{})",
                path.len() - 1,
                d,
                d - (path.len() as u32 - 1)
            );
        }
    }

    // --- Multiple sources (Theorem 1 / 26). ---
    let sources = [0, 21, 42, 63];
    let msrp = solve_msrp(&g, &sources, &params);
    println!("\nMSRP from {:?}:\n{}", sources, msrp.stats);
    let total_entries: usize = msrp.per_source.iter().map(|d| d.entry_count()).sum();
    let critical: usize = msrp.per_source.iter().map(|d| d.infinite_entry_count()).sum();
    println!(
        "\ncomputed {total_entries} replacement distances; {critical} of them are critical \
         (no replacement path exists)"
    );
}
