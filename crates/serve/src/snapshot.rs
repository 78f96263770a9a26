//! Boot-from-snapshot paths: adopting a persisted [`msrp_snap`] snapshot as a live
//! sharded oracle instead of re-running oracle construction.
//!
//! The division of labour: `msrp-snap` owns the byte format and its fail-closed
//! validation; this module owns the serving-side adoption — turning decoded shards back
//! into a routed [`Sharded`] oracle of either metric (and the reverse, freezing a live one
//! into bytes). `msrpctl create`/`serve`, experiment E15 and perfbench are its
//! callers.

use msrp_snap::{decode_snapshot, encode_snapshot, SnapError, SnapMetric};

use crate::service::Sharded;

impl<M: SnapMetric> Sharded<M> {
    /// Freezes this oracle (and the graph it was built over) into a snapshot buffer.
    /// The shard partition is preserved, so the booted twin routes identically.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph the shards were built over (vertex-count
    /// mismatch) — encoding is trusted and in-process; only decoding is hostile-input
    /// territory.
    pub fn to_snapshot(&self, g: &M::Graph) -> Vec<u8> {
        encode_snapshot(g, self.shards())
    }

    /// Boots a sharded oracle from a snapshot buffer, returning the frozen graph
    /// alongside it. Fails closed with a typed [`SnapError`] on any corruption,
    /// truncation, or version/kind skew; on success the oracle answers bit-for-bit what
    /// the encoded one answered.
    pub fn from_snapshot(bytes: &[u8]) -> Result<(M::Graph, Self), SnapError> {
        let snap = decode_snapshot::<M>(bytes)?;
        // The decoder already proved the shards non-empty with globally distinct
        // sources, so the routing-table construction cannot panic here.
        Ok((snap.graph, Sharded::from_shards(snap.shards)))
    }
}

#[cfg(test)]
mod tests {
    use msrp_graph::generators::{connected_gnm, weighted_connected_gnm};
    use msrp_snap::SnapError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::service::{Query, ShardedOracle, WeightedShardedOracle};

    #[test]
    fn booted_oracle_routes_and_answers_like_the_original() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = connected_gnm(40, 90, &mut rng).unwrap().freeze();
        let oracle = ShardedOracle::build_bk_csr(&g, &[0, 9, 18, 27], 2);
        let bytes = oracle.to_snapshot(&g);
        let (g2, booted) = ShardedOracle::from_snapshot(&bytes).expect("boot");
        assert_eq!(g2, g);
        assert_eq!(booted.shard_count(), oracle.shard_count());
        assert_eq!(booted.sources(), oracle.sources());
        for s in oracle.sources() {
            for t in 0..40 {
                for u in g.neighbors(t) {
                    let q = Query { source: s, target: t, avoid: msrp_graph::Edge::new(t, u) };
                    assert_eq!(booted.query_routed(q), oracle.query_routed(q));
                }
            }
        }
    }

    #[test]
    fn weighted_boot_round_trips() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = weighted_connected_gnm(30, 70, 1000, &mut rng).unwrap().freeze();
        let oracle = WeightedShardedOracle::build(&g, &[0, 10, 20], 2);
        let bytes = oracle.to_snapshot(&g);
        let (g2, booted) = WeightedShardedOracle::from_snapshot(&bytes).expect("boot");
        assert_eq!(g2, g);
        assert_eq!(booted.sources(), oracle.sources());
        for s in oracle.sources() {
            for t in 0..30 {
                assert_eq!(booted.distance(s, t), oracle.distance(s, t));
            }
        }
    }

    #[test]
    fn kind_confusion_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(47);
        let g = connected_gnm(16, 30, &mut rng).unwrap().freeze();
        let bytes = ShardedOracle::build_bk_csr(&g, &[0, 8], 1).to_snapshot(&g);
        assert!(matches!(
            WeightedShardedOracle::from_snapshot(&bytes),
            Err(SnapError::WrongKind { .. })
        ));
    }
}
