//! The snapshot corruption battery: every mutation of a valid snapshot — seeded bit
//! flips, truncations, extensions, version skews, kind lies, section-offset lies — must
//! either leave the bytes decoding to a bit-identical oracle or fail closed with a typed
//! [`SnapError`]. Nothing may panic, and nothing may decode to a *different* oracle.
//!
//! Plus the serving-equality half of the contract: on every workload family of the BK
//! differential battery (gnm, Barabási–Albert, grid, cycle, star, disconnected), a
//! snapshot-booted oracle must answer row-for-row what the freshly built one answers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msrp_graph::generators::{
    barabasi_albert, connected_gnm, cycle_graph, gnm, grid_graph, star_graph,
    weighted_connected_gnm,
};
use msrp_graph::{Graph, Hop, Metric, Weighted, WeightedGraph, NO_PARENT};
use msrp_oracle::{
    build_bk_shards, shard_sources, ReplacementOracle, ReplacementPathOracle,
    WeightedReplacementOracle,
};
use msrp_snap::{
    decode_snapshot, encode_snapshot, fnv1a64_lanes, inspect, SnapError, SnapMetric, SNAP_VERSION,
};

/// The six workload families of `bk_differential.rs`, with evenly spread sources.
fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(101);
    let g_gnm = connected_gnm(48, 120, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(202);
    let g_ba = barabasi_albert(44, 3, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(303);
    let g_disc = gnm(40, 28, &mut rng).unwrap();
    let g_two = Graph::from_edges(
        14,
        &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (7, 8), (8, 9), (9, 7), (9, 10)],
    )
    .unwrap();
    vec![
        ("gnm", g_gnm),
        ("barabasi-albert", g_ba),
        ("grid", grid_graph(6, 7)),
        ("cycle", cycle_graph(30)),
        ("star", star_graph(33)),
        ("gnm-disconnected", g_disc),
        ("two-components", g_two),
    ]
}

fn spread_sources(n: usize, sigma: usize) -> Vec<usize> {
    (0..sigma).map(|i| i * n / sigma).collect()
}

/// Builds a reference snapshot: BK shards over the gnm family (BK and exact tables are
/// bit-identical, and BK is what production serving uses).
fn reference_snapshot() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(101);
    let g = connected_gnm(48, 120, &mut rng).unwrap().freeze();
    let sources = spread_sources(48, 4);
    let shards = build_bk_shards(&g, &sources, 2);
    encode_snapshot(&g, &shards)
}

/// The weighted reference snapshot: exact shards `[..2]` / `[2..]` over a seeded weighted
/// gnm graph.
fn weighted_reference_snapshot() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(11);
    let g = weighted_connected_gnm(36, 90, 1000, &mut rng).unwrap().freeze();
    let sources = spread_sources(36, 4);
    let shards = vec![
        WeightedReplacementOracle::build_exact(&g, &sources[..2]),
        WeightedReplacementOracle::build_exact(&g, &sources[2..]),
    ];
    encode_snapshot(&g, &shards)
}

/// A many-source, multi-shard hop snapshot: σ = 64 BK-built sources over n = 96 in 4
/// shards.
fn multi_shard_snapshot() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(404);
    let g = connected_gnm(96, 256, &mut rng).unwrap().freeze();
    let sources = spread_sources(96, 64);
    encode_snapshot(&g, &build_bk_shards(&g, &sources, 4))
}

/// The weighted twin of [`multi_shard_snapshot`]: σ = 64 exact-built sources over n = 80
/// in 4 shards.
fn weighted_multi_shard_snapshot() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(505);
    let g = weighted_connected_gnm(80, 200, 1000, &mut rng).unwrap().freeze();
    let sources = spread_sources(80, 64);
    let shards: Vec<WeightedReplacementOracle> = shard_sources(&sources, 4)
        .into_iter()
        .map(|chunk| WeightedReplacementOracle::build_exact(&g, chunk))
        .collect();
    encode_snapshot(&g, &shards)
}

/// The stored whole-file checksum word.
fn stored(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[32..40].try_into().unwrap())
}

/// The stored checksum of `bytes` stamped back to format version 1: a weighted file must
/// be its version-1 encoding with only the version word moved.
fn stored_as_version_one(bytes: &[u8]) -> u64 {
    let mut v1 = bytes.to_vec();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    restamp(&mut v1);
    stored(&v1)
}

#[test]
fn reference_snapshot_bytes_are_pinned() {
    // Length and file-checksum word of both reference snapshots, recorded from the
    // format-version-2 encoder: a change to either means the byte format moved, and every
    // snapshot on disk would stop booting.
    let hop = reference_snapshot();
    assert_eq!((hop.len(), stored(&hop)), (4288, 0x5844_0d7c_aefb_0d23));
    let weighted = weighted_reference_snapshot();
    assert_eq!((weighted.len(), stored(&weighted)), (8432, 0xefeb_87ea_d75c_5179));
    assert_eq!(stored_as_version_one(&weighted), 0x1eb6_904a_c913_37d0);
}

#[test]
fn multi_shard_snapshot_bytes_are_pinned() {
    // The same pin for many sources over several shards, where every tree and row section
    // is the concatenation of 64 per-source runs written shard after shard: a layout or
    // offset slip between sources moves these values.
    let hop = multi_shard_snapshot();
    assert_eq!((hop.len(), stored(&hop)), (96_136, 0xce87_5181_8ef3_b283));
    let weighted = weighted_multi_shard_snapshot();
    assert_eq!((weighted.len(), stored(&weighted)), (259_824, 0x5c84_ed5b_28a1_74a5));
    assert_eq!(stored_as_version_one(&weighted), 0x5db4_7a61_7b64_d790);
}

/// Asserts two oracle sets answer identically, row for row, via their public tables, and
/// hold identical trees (distances, parents, settle order and the Euler times derived from
/// them): a lied parent word that decodes must not hide behind equal rows.
fn assert_same_tables<M: Metric>(a: &[ReplacementOracle<M>], b: &[ReplacementOracle<M>]) {
    assert_eq!(a.len(), b.len(), "shard counts must agree");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.sources(), y.sources());
        assert_eq!(x.per_source(), y.per_source(), "replacement tables must be identical");
        assert_eq!(x.trees(), y.trees(), "source trees must be identical");
    }
}

#[test]
fn every_family_boots_bit_identical_from_its_snapshot() {
    for (name, g) in families() {
        let n = g.vertex_count();
        let sources = spread_sources(n, 3);
        let frozen = g.freeze();
        let shards = build_bk_shards(&frozen, &sources, 2);
        let bytes = encode_snapshot(&frozen, &shards);
        let snap = decode_snapshot::<Hop>(&bytes).unwrap_or_else(|e| panic!("family {name}: {e}"));
        assert_eq!(snap.graph, frozen, "family {name}: graph must round-trip");
        assert_same_tables(&snap.shards, &shards);
        // Exact-built tables equal BK-built tables, so the booted oracle also answers
        // what a from-scratch exact build answers — the full serving-equality claim.
        let exact = ReplacementPathOracle::build_exact(&frozen, &sources);
        let merged = ReplacementPathOracle::from_shards(snap.shards);
        assert_eq!(merged.per_source(), exact.per_source(), "family {name}");
        assert_eq!(merged.trees(), exact.trees(), "family {name}");
        // And one canonical serialization: re-encoding reproduces the bytes.
        assert_eq!(
            encode_snapshot(&snap.graph, &shards),
            bytes,
            "family {name}: re-encode must be bit-identical"
        );
    }
}

#[test]
fn weighted_families_boot_bit_identical() {
    for (seed, n, m) in [(11u64, 36usize, 90usize), (13, 28, 60)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = weighted_connected_gnm(n, m, 1000, &mut rng).unwrap().freeze();
        let sources = spread_sources(n, 3);
        let shards: Vec<WeightedReplacementOracle> = vec![
            WeightedReplacementOracle::build_exact(&g, &sources[..2]),
            WeightedReplacementOracle::build_exact(&g, &sources[2..]),
        ];
        let bytes = encode_snapshot(&g, &shards);
        let snap = decode_snapshot::<Weighted>(&bytes).expect("weighted round trip");
        assert_eq!(snap.graph, g);
        assert_same_tables(&snap.shards, &shards);
        assert_eq!(encode_snapshot(&snap.graph, &snap.shards), bytes);
    }
}

#[test]
fn zero_weight_trees_boot_bit_identical() {
    // Zero weights tie whole regions at one distance, so the settle order alone shapes the
    // trees: the decoder's parent and heap-order proofs must accept exactly what Dijkstra
    // settled.
    let g = WeightedGraph::from_graph(&grid_graph(5, 6), |e| (e.lo() % 3) as u64).freeze();
    let shards = vec![WeightedReplacementOracle::build_exact(&g, &[0, 14, 29])];
    let bytes = encode_snapshot(&g, &shards);
    let snap = decode_snapshot::<Weighted>(&bytes).expect("zero-weight round trip");
    assert_same_tables(&snap.shards, &shards);
    assert_eq!(encode_snapshot(&snap.graph, &snap.shards), bytes);
}

#[test]
fn seeded_bit_flips_always_fail_closed() {
    let bytes = reference_snapshot();
    let baseline = decode_snapshot::<Hop>(&bytes).expect("pristine bytes decode");
    let mut rng = StdRng::seed_from_u64(0xB17F11B);
    for _ in 0..600 {
        let mut mutated = bytes.clone();
        let bit = rng.gen_range(0..mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        // Every byte except the stored checksum is covered by the file checksum, and
        // flipping a stored-checksum bit breaks the comparison itself — so a single
        // bit flip can never decode: fail-closed means a typed error, never a panic.
        // (This arm exists so a future format change that weakens the covering is
        // caught: if it ever decodes, it must be identical.)
        if let Ok(snap) = decode_snapshot::<Hop>(&mutated) {
            assert_eq!(snap.graph, baseline.graph, "bit {bit}: silently wrong graph");
            assert_same_tables(&snap.shards, &baseline.shards);
            panic!("bit {bit}: a flipped bit decoded successfully — checksum gap");
        }
    }
}

#[test]
fn every_truncation_fails_closed() {
    let bytes = reference_snapshot();
    // Every length below the header, then a byte-dense sweep above it.
    for len in (0..bytes.len()).step_by(7).chain([0, 1, 39, 40, 41, bytes.len() - 1]) {
        let truncated = &bytes[..len];
        let err = decode_snapshot::<Hop>(truncated).expect_err("truncation must fail");
        assert!(
            matches!(err, SnapError::Truncated { .. } | SnapError::LengthMismatch { .. }),
            "length {len}: unexpected error {err}"
        );
        assert!(inspect(truncated).is_err(), "inspect must also reject length {len}");
    }
}

#[test]
fn trailing_garbage_fails_closed() {
    let mut bytes = reference_snapshot();
    bytes.extend_from_slice(b"garbage");
    assert!(matches!(decode_snapshot::<Hop>(&bytes), Err(SnapError::LengthMismatch { .. })));
}

/// The section table as `(id, offset, len)` triples, in table order.
fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..section_count)
        .map(|i| {
            let entry = 40 + 32 * i;
            let id = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
            let len =
                u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
            (id, off, len)
        })
        .collect()
}

/// Points table entry `id` at `[offset, offset + len)`.
fn move_section(bytes: &mut [u8], id: u32, offset: usize, len: usize) {
    let i = section_table(bytes).iter().position(|&(sid, _, _)| sid == id).unwrap();
    let entry = 40 + 32 * i;
    bytes[entry + 8..entry + 16].copy_from_slice(&(offset as u64).to_le_bytes());
    bytes[entry + 16..entry + 24].copy_from_slice(&(len as u64).to_le_bytes());
}

/// Re-stamps every section checksum from the table as it stands, then the file checksum,
/// so only the table and structural validators stand between a lie and a booted oracle.
fn restamp_all(bytes: &mut [u8]) {
    for (i, (_, off, len)) in section_table(bytes).into_iter().enumerate() {
        let sum = fnv1a64_lanes(&bytes[off..off + len]);
        bytes[40 + 32 * i + 24..40 + 32 * i + 32].copy_from_slice(&sum.to_le_bytes());
    }
    restamp(bytes);
}

/// Recomputes and re-stamps the whole-file checksum after a targeted mutation, so the
/// mutation reaches the validation layer it is aimed at instead of tripping the checksum.
fn restamp(bytes: &mut [u8]) {
    // Independent reimplementation of the file checksum (kept deliberately separate
    // from the crate's): FNV-1a-64 over `bytes[..32] ‖ bytes[40..]` as 8-byte LE lanes
    // with a zero-padded tail, then the stream length absorbed as a final lane.
    let mut stream = bytes[..32].to_vec();
    stream.extend_from_slice(&bytes[40..]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let absorb = |h: &mut u64, lane: u64| {
        *h ^= lane;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut lanes = stream.chunks_exact(8);
    for lane in &mut lanes {
        absorb(&mut h, u64::from_le_bytes(lane.try_into().unwrap()));
    }
    let tail = lanes.remainder();
    if !tail.is_empty() {
        let mut lane = [0u8; 8];
        lane[..tail.len()].copy_from_slice(tail);
        absorb(&mut h, u64::from_le_bytes(lane));
    }
    absorb(&mut h, stream.len() as u64);
    bytes[32..40].copy_from_slice(&h.to_le_bytes());
}

#[test]
fn version_skew_is_a_typed_error_not_a_guess() {
    // Version 1 is the format that also stored each hop tree's `dist` and settle order.
    assert_eq!(SNAP_VERSION, 2);
    let bytes = reference_snapshot();
    for skew in [0u32, 1, SNAP_VERSION + 1, SNAP_VERSION + 7, u32::MAX] {
        let mut mutated = bytes.clone();
        mutated[8..12].copy_from_slice(&skew.to_le_bytes());
        restamp(&mut mutated);
        let expected = SnapError::UnsupportedVersion { found: skew, supported: SNAP_VERSION };
        assert_eq!(decode_snapshot::<Hop>(&mutated).err(), Some(expected.clone()));
        assert_eq!(inspect(&mutated).err(), Some(expected));
    }
}

#[test]
fn kind_lies_are_typed_errors() {
    let bytes = reference_snapshot();
    // An unknown kind code.
    let mut mutated = bytes.clone();
    mutated[12..16].copy_from_slice(&7u32.to_le_bytes());
    restamp(&mut mutated);
    assert_eq!(
        decode_snapshot::<Hop>(&mutated).expect_err("unknown kind"),
        SnapError::UnknownKind(7)
    );
    // A hop-metric file relabeled as weighted: the weighted decoder is now the right
    // kind, but the file has no GRAPH_WEIGHTS section — structural fail, not a panic.
    let mut relabeled = bytes.clone();
    relabeled[12..16].copy_from_slice(&1u32.to_le_bytes());
    restamp(&mut relabeled);
    assert!(matches!(
        decode_snapshot::<Weighted>(&relabeled),
        Err(SnapError::SectionTable { .. } | SnapError::Structure { .. })
    ));
    // And the honest file handed to the wrong decoder.
    assert!(matches!(decode_snapshot::<Weighted>(&bytes), Err(SnapError::WrongKind { .. })));
}

#[test]
fn section_offset_lies_fail_closed() {
    let bytes = reference_snapshot();
    let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    for i in 0..section_count {
        let entry = 40 + 32 * i;
        // Shift the offset by one aligned step: the payload window moves, so either the
        // section checksum no longer matches or the window escapes the file.
        for delta in [8i64, -8, 1 << 40] {
            let mut mutated = bytes.clone();
            let offset = u64::from_le_bytes(mutated[entry + 8..entry + 16].try_into().unwrap());
            let lied = offset.wrapping_add(delta as u64);
            mutated[entry + 8..entry + 16].copy_from_slice(&lied.to_le_bytes());
            restamp(&mut mutated);
            let err = decode_snapshot::<Hop>(&mutated).expect_err("offset lie must fail");
            assert!(
                matches!(err, SnapError::SectionTable { .. } | SnapError::SectionChecksum { .. }),
                "section {i} offset {delta:+}: unexpected error {err}"
            );
        }
        // Lie about the length too.
        for lied_len in [u64::MAX, 1 << 40] {
            let mut mutated = bytes.clone();
            mutated[entry + 16..entry + 24].copy_from_slice(&lied_len.to_le_bytes());
            restamp(&mut mutated);
            assert!(
                matches!(decode_snapshot::<Hop>(&mutated), Err(SnapError::SectionTable { .. })),
                "section {i} length lie must be a table error"
            );
        }
    }
    // A section-count lie: claims more table entries than the file holds.
    let mut mutated = bytes.clone();
    mutated[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp(&mut mutated);
    assert!(matches!(decode_snapshot::<Hop>(&mutated), Err(SnapError::SectionTable { .. })));
}

#[test]
fn overlapping_section_extents_fail_closed() {
    // Both checksum layers re-stamped, so only the table check can catch the overlap: the
    // hop reference's ROWS entry and the weighted reference's settle-order entry pointed
    // at the parent payload (same start), then straddling the end of the parent payload.
    // Either window checksums fine once re-stamped, and the decoder would read parent
    // words as row or settle-order words.
    const TREE_PARENT_ID: u32 = 8;
    const TREE_ORDER_ID: u32 = 9;
    const ROWS_ID: u32 = 10;
    overlap_fails_closed::<Hop>(reference_snapshot(), ROWS_ID, TREE_PARENT_ID);
    overlap_fails_closed::<Weighted>(weighted_reference_snapshot(), TREE_ORDER_ID, TREE_PARENT_ID);
}

/// Points section `moved` into the payload of section `onto`, at its start and across its
/// end, and requires a section-table error once both checksum layers are re-stamped.
fn overlap_fails_closed<M: SnapMetric>(bytes: Vec<u8>, moved: u32, onto: u32) {
    let table = section_table(&bytes);
    let find = |id: u32| table.iter().find(|&&(sid, _, _)| sid == id).copied().unwrap();
    let (_, onto_off, onto_len) = find(onto);
    let (_, _, moved_len) = find(moved);
    for offset in [onto_off, onto_off + onto_len - 8] {
        let mut mutated = bytes.clone();
        move_section(&mut mutated, moved, offset, moved_len);
        // Until the checksums are forged, the corrupted table is reported as corruption.
        assert!(matches!(decode_snapshot::<M>(&mutated), Err(SnapError::FileChecksum { .. })));
        restamp_all(&mut mutated);
        for err in [decode_snapshot::<M>(&mutated).err(), inspect(&mutated).err()] {
            assert!(
                matches!(err, Some(SnapError::SectionTable { .. })),
                "section {moved} at {offset}: expected a section-table error, got {err:?}"
            );
        }
    }
}

#[test]
fn sixty_four_one_source_shards_round_trip() {
    // More shards than decode workers: the decoder runs one worker per core, not per
    // shard, so on a multi-core machine each chunk spans many one-source shards.
    let mut rng = StdRng::seed_from_u64(606);
    let frozen = connected_gnm(70, 160, &mut rng).unwrap().freeze();
    let shards: Vec<ReplacementPathOracle> = spread_sources(70, 64)
        .into_iter()
        .map(|s| ReplacementPathOracle::build_exact(&frozen, &[s]))
        .collect();
    let bytes = encode_snapshot(&frozen, &shards);
    let snap = decode_snapshot::<Hop>(&bytes).expect("64-shard round trip");
    assert_eq!(snap.graph, frozen);
    assert_same_tables(&snap.shards, &shards);
    assert_eq!(
        encode_snapshot(&snap.graph, &snap.shards),
        bytes,
        "re-encode must be bit-identical"
    );
}

#[test]
fn independent_lies_fail_with_the_first_source_s_error_every_time() {
    // Two lies at the two ends of source order, so whenever the machine has more than
    // one core they land in the first and the last worker chunk: the ROWS section cut to
    // half of source 0's rows (META's entry total cut to match), and a self-parent lie in
    // the last source's tree. The sequential decoder reported source 0's row overrun
    // first; the chunked one must report the same error on every run, not whichever
    // worker finishes first. The crate's unit tests pin the same case on 0–11 workers.
    const META_ID: u32 = 1;
    const ROWS_ID: u32 = 10;
    let bytes = multi_shard_snapshot();
    let snap = decode_snapshot::<Hop>(&bytes).expect("pristine decode");
    let n = snap.graph.vertex_count();
    let trees: Vec<_> = snap.shards.iter().flat_map(|s| s.trees()).collect();
    let last = trees.len() - 1;
    let v = (0..n).find(|&v| trees[last].parent(v).is_some()).unwrap();
    let mut mutated = lie_about_parent(&bytes, n, last, v, v as u32);
    let first_rows = snap.shards[0].per_source()[0].entry_count();
    let kept = first_rows / 2;
    let table = section_table(&mutated);
    let (_, rows_off, _) = *table.iter().find(|&&(id, _, _)| id == ROWS_ID).unwrap();
    let (_, meta_off, _) = *table.iter().find(|&&(id, _, _)| id == META_ID).unwrap();
    move_section(&mut mutated, ROWS_ID, rows_off, 4 * kept);
    mutated[meta_off + 24..meta_off + 32].copy_from_slice(&(kept as u64).to_le_bytes());
    restamp_all(&mut mutated);
    let expected = SnapError::Structure {
        reason: format!("rows of source {} overrun their section", trees[0].source()),
    };
    for run in 0..20 {
        assert_eq!(decode_snapshot::<Hop>(&mutated).err(), Some(expected.clone()), "run {run}");
    }
}

#[test]
fn word_level_corruption_with_fixed_checksums_fails_structurally() {
    word_level_sweep::<Hop>(reference_snapshot());
    word_level_sweep::<Weighted>(weighted_reference_snapshot());
}

/// The word-level sweep of one reference snapshot: 32-bit lies, so under the weighted metric
/// they also land in either half of a `u64` distance, row or weight word.
fn word_level_sweep<M: SnapMetric>(bytes: Vec<u8>) {
    // The deepest layer: flip payload words AND re-stamp both checksum layers, so only
    // the structural validators stand between the lie and a wrong oracle. Two regimes:
    //
    // * *Structural* sections (META, graph arrays, sources, shard lens, tree parents;
    //   weighted also tree dist and order): a word lie must be rejected with a typed
    //   error, or — in the rare identity/padding case — decode to a bit-identical
    //   oracle. Never a different one. (One structural lie does decode to a different
    //   oracle: a hop parent word set to another neighbour one level up, an equally short
    //   parent that `derived_hop_tree_lies_fail_closed` pins. This seeded sweep draws none.)
    // * The ROWS section holds the oracle's free answer values; no validator can know
    //   them without re-running the solver. A re-stamped row lie therefore *is* a
    //   well-formed (different) snapshot — integrity checksums are its only defense,
    //   and this test forged them on purpose. The contract there is just: no panic,
    //   and the graph half is untouched.
    let baseline = decode_snapshot::<M>(&bytes).expect("pristine decode");
    let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let table_end = 40 + 32 * section_count;
    let section_bounds: Vec<(u32, usize, usize)> = (0..section_count)
        .map(|i| {
            let entry = 40 + 32 * i;
            let id = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
            let len =
                u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
            (id, off, len)
        })
        .collect();
    const ROWS_ID: u32 = 10;
    let mut rng = StdRng::seed_from_u64(0x5EC7);
    let mut structural_survived = 0usize;
    let mut structural_tried = 0usize;
    for _ in 0..400 {
        let mut mutated = bytes.clone();
        let word = table_end + 4 * rng.gen_range(0..(bytes.len() - table_end) / 4);
        let lie: u32 = match rng.gen_range(0..4usize) {
            0 => u32::MAX,
            1 => u32::MAX - 1,
            2 => rng.gen(),
            _ => {
                let old = u32::from_le_bytes(mutated[word..word + 4].try_into().unwrap());
                old.wrapping_add(1)
            }
        };
        mutated[word..word + 4].copy_from_slice(&lie.to_le_bytes());
        // Re-stamp the owning section's checksum, then the file checksum.
        let mut owner = None;
        for &(id, off, len) in &section_bounds {
            if (off..off + len).contains(&word) {
                owner = Some(id);
                let sum = fnv1a64_lanes(&mutated[off..off + len]);
                let entry = section_bounds.iter().position(|&(i, _, _)| i == id).unwrap();
                let entry = 40 + 32 * entry;
                mutated[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
            }
        }
        restamp(&mut mutated);
        // Typed structural rejection is the common case; anything that decodes must
        // be answer-preserving.
        if let Ok(snap) = decode_snapshot::<M>(&mutated) {
            assert_eq!(snap.graph, baseline.graph, "word {word}: silently wrong graph");
            if owner != Some(ROWS_ID) {
                // Identity rewrite or alignment padding: must be answer-preserving.
                assert_same_tables(&snap.shards, &baseline.shards);
                structural_survived += 1;
            }
        }
        if owner.is_some() && owner != Some(ROWS_ID) {
            structural_tried += 1;
        }
    }
    // The validators must be doing real work on the structural sections: the
    // overwhelming majority of those lies must be rejected outright.
    assert!(structural_tried > 50, "seeded sweep barely touched the structural sections");
    assert!(
        structural_survived * 10 < structural_tried,
        "{structural_survived}/{structural_tried} structural word lies decoded — validators \
         too permissive"
    );
}

#[test]
fn inspect_agrees_with_decode_on_the_pristine_file() {
    let bytes = reference_snapshot();
    let info = inspect(&bytes).expect("inspect");
    let snap = decode_snapshot::<Hop>(&bytes).expect("decode");
    assert_eq!(info.vertex_count, snap.graph.vertex_count());
    assert_eq!(info.edge_count, snap.graph.edge_count());
    assert_eq!(info.shard_count, snap.shards.len());
    assert_eq!(info.source_count, snap.shards.iter().map(|s| s.sources().len()).sum::<usize>());
    assert_eq!(info.entry_count, snap.shards.iter().map(|s| s.entry_count() as u64).sum::<u64>());
    assert_eq!(info.bytes, bytes.len());
}

/// Rewrites the parent word of vertex `v` in the `tree`-th persisted tree (snapshot order)
/// and re-stamps the section and file checksums, so only the structural validators stand
/// between the lie and a booted oracle.
fn lie_about_parent(bytes: &[u8], n: usize, tree: usize, v: usize, word: u32) -> Vec<u8> {
    const TREE_PARENT_ID: u32 = 8;
    let mut mutated = bytes.to_vec();
    let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let entry = (0..section_count)
        .map(|i| 40 + 32 * i)
        .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == TREE_PARENT_ID)
        .expect("a tree-parent section");
    let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
    let at = off + 4 * (tree * n + v);
    mutated[at..at + 4].copy_from_slice(&word.to_le_bytes());
    let sum = fnv1a64_lanes(&mutated[off..off + len]);
    mutated[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    restamp(&mut mutated);
    mutated
}

/// One persisted tree as the parent-lie battery sees it: its parent words and each
/// vertex's level (hop distance, or hop depth for the weighted metric; `None` when
/// unreachable).
struct TreeView {
    parents: Vec<u32>,
    level: Vec<Option<usize>>,
}

/// The first `(tree, vertex, lied word)` over the trees in snapshot order that `pick`
/// accepts; panics when none does, so no lie is ever skipped silently.
fn first_lie(
    trees: &[TreeView],
    label: &str,
    pick: impl Fn(&TreeView, usize) -> Option<u32>,
) -> (usize, usize, u32) {
    for (i, t) in trees.iter().enumerate() {
        for v in 0..t.parents.len() {
            if let Some(word) = pick(t, v) {
                return (i, v, word);
            }
        }
    }
    panic!("no vertex admits the {label} lie");
}

/// The parent-word lies every decoder must reject: a grandparent, the vertex itself,
/// `NO_PARENT` on a reachable vertex, and a non-adjacent vertex one level up — plus, when
/// some tree has unreachable vertices, a parent on one of them.
fn parent_lies(
    trees: &[TreeView],
    has_edge: impl Fn(usize, usize) -> bool,
) -> Vec<(&'static str, (usize, usize, u32))> {
    let parent = |t: &TreeView, v: usize| (t.parents[v] != NO_PARENT).then_some(t.parents[v]);
    let mut lies = vec![
        ("grandparent", first_lie(trees, "grandparent", |t, v| parent(t, parent(t, v)? as usize))),
        ("self", first_lie(trees, "self", |t, v| parent(t, v).map(|_| v as u32))),
        ("no parent", first_lie(trees, "no parent", |t, v| parent(t, v).map(|_| NO_PARENT))),
        (
            "non-adjacent one level up",
            first_lie(trees, "non-adjacent", |t, v| {
                let up = t.level[v]?.checked_sub(1)?;
                let u = (0..t.level.len()).find(|&u| t.level[u] == Some(up) && !has_edge(u, v))?;
                Some(u as u32)
            }),
        ),
    ];
    if trees.iter().any(|t| t.level.contains(&None)) {
        let root = |t: &TreeView| t.level.iter().position(|&l| l == Some(0)).unwrap() as u32;
        let lie = first_lie(trees, "unreachable", |t, v| t.level[v].is_none().then(|| root(t)));
        lies.push(("parent on an unreachable vertex", lie));
    }
    lies
}

#[test]
fn parent_word_lies_fail_closed() {
    // Hop metric: the connected reference snapshot, then a disconnected family so the
    // unreachable-vertex lie has a target.
    let mut rng = StdRng::seed_from_u64(303);
    let disconnected = gnm(40, 28, &mut rng).unwrap().freeze();
    let disconnected_bytes =
        encode_snapshot(&disconnected, &build_bk_shards(&disconnected, &[0, 13, 26], 2));
    for (name, bytes) in [("gnm", reference_snapshot()), ("gnm-disconnected", disconnected_bytes)] {
        let snap = decode_snapshot::<Hop>(&bytes).expect("pristine decode");
        let n = snap.graph.vertex_count();
        let trees: Vec<TreeView> = snap
            .shards
            .iter()
            .flat_map(|s| s.trees())
            .map(|t| TreeView {
                parents: t.parents_raw().to_vec(),
                level: (0..n).map(|v| t.distance(v).map(|d| d as usize)).collect(),
            })
            .collect();
        let lies = parent_lies(&trees, |u, v| snap.graph.has_edge(u, v));
        assert_eq!(lies.len(), if name == "gnm" { 4 } else { 5 }, "{name}");
        for (label, (tree, v, word)) in lies {
            let mutated = lie_about_parent(&bytes, n, tree, v, word);
            assert!(
                matches!(decode_snapshot::<Hop>(&mutated), Err(SnapError::Structure { .. })),
                "{name}: {label} lie (tree {tree}, vertex {v} := {word}) must fail structurally"
            );
        }
    }

    // Weighted metric: a connected graph and one with an unreachable component.
    let mut rng = StdRng::seed_from_u64(11);
    let connected = weighted_connected_gnm(36, 90, 1000, &mut rng).unwrap().freeze();
    let split = WeightedGraph::from_edges(
        12,
        &[(0, 1, 4), (1, 2, 3), (2, 3, 5), (3, 0, 9), (2, 4, 1), (6, 7, 2), (7, 8, 2), (8, 9, 1)],
    )
    .unwrap()
    .freeze();
    for (name, g, sources) in
        [("connected", connected, vec![0, 12, 24]), ("split", split, vec![0, 3])]
    {
        let shards = vec![WeightedReplacementOracle::build_exact(&g, &sources)];
        let bytes = encode_snapshot(&g, &shards);
        let snap = decode_snapshot::<Weighted>(&bytes).expect("pristine decode");
        let n = g.vertex_count();
        let trees: Vec<TreeView> = snap.shards[0]
            .trees()
            .iter()
            .map(|t| TreeView {
                parents: t.parents_raw().to_vec(),
                level: (0..n).map(|v| t.is_reachable(v).then(|| t.depth(v))).collect(),
            })
            .collect();
        let lies = parent_lies(&trees, |u, v| g.has_edge(u, v));
        assert_eq!(lies.len(), if name == "connected" { 4 } else { 5 }, "{name}");
        for (label, (tree, v, word)) in lies {
            let mutated = lie_about_parent(&bytes, n, tree, v, word);
            assert!(
                matches!(decode_snapshot::<Weighted>(&mutated), Err(SnapError::Structure { .. })),
                "weighted {name}: {label} lie (tree {tree}, vertex {v} := {word}) must fail \
                 structurally"
            );
        }
    }
}

#[test]
fn derived_hop_tree_lies_fail_closed() {
    // A hop file persists parent words only; the decoder derives `dist` and the settle
    // order by a sweep from the root, so a cycle, a cut-off vertex or a parent on the root
    // never becomes a tree. The sweep does not check depths: the row-total gate does.
    // Every tree the sweep accepts spans the root's component over graph edges, so it is
    // never shallower than BFS, and a parent that is not one level up raises its Σ depth
    // past the row entries the encoder wrote.
    let bytes = reference_snapshot();
    let snap = decode_snapshot::<Hop>(&bytes).expect("pristine decode");
    let g = &snap.graph;
    let n = g.vertex_count();
    let trees: Vec<_> = snap.shards.iter().flat_map(|s| s.trees()).collect();
    let decode_lie = |tree: usize, v: usize, word: u32| {
        decode_snapshot::<Hop>(&lie_about_parent(&bytes, n, tree, v, word))
    };
    let rejected = |tree: usize, v: usize, word: u32, label: &str| {
        let decoded = decode_lie(tree, v, word);
        assert!(
            matches!(decoded, Err(SnapError::Structure { .. })),
            "{label} lie (tree {tree}, vertex {v} := {word}) must fail structurally"
        );
    };
    let t = trees[0];
    let root = t.source();
    let is_leaf = |v: usize| (0..n).all(|c| t.parent(c) != Some(v));
    let child = (0..n).find(|&c| t.parent(c).is_some_and(|p| p != root)).unwrap();
    let a = t.parent(child).unwrap();
    rejected(0, a, child as u32, "two-vertex parent cycle");
    rejected(0, child, n as u32, "out-of-range parent");
    rejected(0, root, t.order()[1], "parent on the root");
    let leaves: Vec<usize> = (0..n).filter(|&v| v != root && is_leaf(v)).collect();
    rejected(0, leaves[0], NO_PARENT, "leaf without a parent");
    // Two words that keep Σ depth: leaf `a` cut off, and leaf `v` hung off `u`, deeper by
    // `a`'s depth. Only the check that a vertex without a parent has no neighbour in the
    // tree rejects it.
    let (a, v, u) = leaves
        .iter()
        .flat_map(|&a| leaves.iter().filter(move |&&v| v != a).map(move |&v| (a, v)))
        .find_map(|(a, v)| {
            let mut up = g.neighbor_row(v).iter().map(|&u| u as usize);
            up.find(|&u| u != a && t.depth(u) + 1 == t.depth(v) + t.depth(a)).map(|u| (a, v, u))
        })
        .unwrap();
    let cut = lie_about_parent(&bytes, n, 0, a, NO_PARENT);
    assert!(
        matches!(
            decode_snapshot::<Hop>(&lie_about_parent(&cut, n, 0, v, u as u32)),
            Err(SnapError::Structure { .. })
        ),
        "leaf {a} cut off and leaf {v} hung off {u} must fail structurally"
    );

    // Every parent rewired to a same-level or deeper neighbour that is not a descendant
    // (which would make a cycle): a valid rooted tree, caught by its depths alone.
    let mut rewired = 0;
    for (i, t) in trees.iter().enumerate() {
        for v in (0..n).filter(|&v| v != t.source()) {
            for &u in g.neighbor_row(v) {
                let u = u as usize;
                if t.depth(u) >= t.depth(v) && !t.is_ancestor(v, u) {
                    rejected(i, v, u as u32, "same-level or deeper parent");
                    rewired += 1;
                }
            }
        }
    }
    assert_eq!(rewired, 446, "the reference file's rewirings");

    // What the checksums alone guard: another neighbour one level up is an equally short
    // parent, so the file decodes to a different tree of the same depths.
    let (v, u) = (0..n)
        .filter(|&v| v != root)
        .find_map(|v| {
            let up = g.neighbor_row(v).iter().map(|&u| u as usize);
            up.filter(|&u| t.depth(u) + 1 == t.depth(v) && t.parent(v) != Some(u))
                .map(|u| (v, u))
                .next()
        })
        .unwrap();
    let swapped = decode_lie(0, v, u as u32).expect("an equally short parent decodes");
    let tree = &swapped.shards[0].trees()[0];
    assert_eq!((tree.parent(v), tree.distances()), (Some(u), t.distances()));
}
