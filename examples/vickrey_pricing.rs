//! Vickrey pricing of shortest-path edges — the auction-theoretic motivation of the
//! replacement-path problem (Nisan–Ronen 2001; Hershberger–Suri, FOCS 2001).
//!
//! Every link of the network is owned by a selfish agent with a unit cost. A buyer wants to
//! route traffic from a gateway `s` to a destination `t` along a shortest path and pays each
//! chosen edge its VCG price `|st ⋄ e| − |st| + 1`: the cheaper the best detour around an edge,
//! the less market power its owner has. Critical edges (bridges) have unbounded price.
//!
//! Run with: `cargo run --example vickrey_pricing`

use msrp::core::MsrpParams;
use msrp::graph::generators::connected_gnm;
use msrp::netsim::vickrey_prices;
use msrp::oracle::ReplacementPathOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = connected_gnm(80, 140, &mut rng).expect("valid generator parameters").freeze();
    let gateways = [0usize, 40];
    let oracle = ReplacementPathOracle::build(&g, &gateways, &MsrpParams::default());

    for &s in &gateways {
        // Price the route to the three farthest destinations.
        let mut targets: Vec<usize> = (0..g.vertex_count()).filter(|&t| t != s).collect();
        targets.sort_by_key(|&t| std::cmp::Reverse(oracle.distance(s, t).unwrap_or(0)));
        println!("\n=== gateway {s} ===");
        for &t in targets.iter().take(3) {
            let path = oracle.canonical_path(s, t).expect("connected");
            let prices = vickrey_prices(&oracle, s, t).expect("source known");
            let total: u64 = prices.iter().map(|p| p.payment.map(u64::from).unwrap_or(0)).sum();
            let critical = prices.iter().filter(|p| p.is_critical()).count();
            println!(
                "route {s} -> {t} (length {}): total VCG payment {}, {} critical edge(s)",
                path.len() - 1,
                total,
                critical
            );
            for p in &prices {
                match p.payment {
                    Some(pay) => println!(
                        "    edge {:<9} payment {:>3}   (detour +{})",
                        p.edge.to_string(),
                        pay,
                        p.premium().unwrap()
                    ),
                    None => println!(
                        "    edge {:<9} CRITICAL (no replacement path)",
                        p.edge.to_string()
                    ),
                }
            }
        }
    }

    println!(
        "\nInterpretation: an edge priced 1 has a zero-cost detour (perfect competition); prices \
         above 1 quantify the owner's market power, and critical edges are monopolies — exactly \
         the quantities the replacement-path problem was introduced to compute."
    );
}
