//! `msrp-snap`: versioned, checksummed binary snapshots of frozen graphs and oracles.
//!
//! A serving process should boot by *adopting* the immutable state a builder already paid
//! for — the frozen [`CsrGraph`] / [`WeightedCsrGraph`] and the per-source replacement
//! tables of the Bernstein–Karger (or exact, or weighted) oracle — instead of re-running
//! minutes of preprocessing. This crate defines that interchange format and its two
//! round-trip halves, [`encode_snapshot`] / [`decode_snapshot`]: one encoder and one decoder,
//! generic over the metric ([`SnapMetric`]: [`Hop`] or [`Weighted`]), whose per-metric
//! items are the kind word, the graph arrays, the word width of distances and rows, and
//! which tree arrays are persisted and how a tree is rebuilt and proven from them.
//!
//! # Layout
//!
//! Everything is fixed-width little-endian words, and every section payload starts on an
//! 8-byte boundary:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "MSRPSNAP"
//!      8     4  format version (u32, currently 2)
//!     12     4  kind (u32: 0 = hop metric, 1 = weighted)
//!     16     4  section count k (u32)
//!     20     4  reserved (0)
//!     24     8  file length in bytes (u64)
//!     32     8  whole-file FNV-1a-64 checksum (computed with these 8 bytes excluded)
//!     40  32·k  section table: k × { id u32, reserved u32, offset u64, len u64, fnv u64 }
//!      …     …  section payloads, 8-byte aligned, zero-padded between sections
//! ```
//!
//! The sections, in file order: META (n, σ, shard count, entry total as `u64`), the graph's
//! CSR offsets and targets (`u32`), weighted only its edge weights (`u64`), the sources and
//! the shard lengths (`u32`), then the trees and the rows. A hop file (7 sections) stores
//! each tree as its σ·n sentinel-encoded `u32` `parent` words only; a weighted file (10
//! sections) stores `dist` (`u64`), `parent` and the `u32` settle `order` of the reachable
//! vertices. ROWS holds every source's flat row values (`u32` hop, `u64` weighted).
//!
//! The section-table indirection plus the fixed word widths keep the graph and the rows
//! *adoptable in place*: a loader may validate the checksums and then reinterpret those
//! payloads as `&[u32]` / `&[u64]` slices. Hop trees are derived, not adopted. The loader in
//! this crate stays inside the workspace's `#![forbid(unsafe_code)]` wall, so it copies —
//! but each payload array exactly once: every per-source tree and row `Vec` is decoded
//! straight from its checksum-verified payload sub-slice into the buffer the tree or table
//! adopts, and the graph's CSR arrays straight into the graph. No flat whole-section copy
//! exists, so a boot holds the file bytes plus the oracle it is building, nothing more.
//!
//! The per-source work (decode, derive or validate, adopt; then the rows) runs on scoped
//! workers over `min(σ, available_parallelism())` contiguous source chunks. No word of the
//! file, the shard count included, can raise that count, and a worker that cannot be
//! spawned runs its chunk inline, so a decode never panics for lack of threads. Every tree's
//! `dist`, `parent` and `order` buffers and every row buffer are allocated on the calling
//! thread and only filled by the workers, so they come from one allocator arena and a later
//! boot reuses their memory; what adoption derives from them (the Euler times and, weighted,
//! the hop depths) and each worker's scratch are allocated on the worker. Errors are
//! reported in source order whatever the chunking, so a corrupt file fails with the same
//! [`SnapError`] on every machine.
//!
//! What is persisted is deliberately minimal: nothing the decoder can derive from the rest.
//! A hop tree's `dist` and settle `order` are functions of its parents (`dist[v] =
//! dist[parent] + 1`, and the BFS queue settles children grouped by their parent's position,
//! in ascending id), so the decoder rebuilds both. A weighted tree keeps all three arrays:
//! zero weights are legal, so Dijkstra's settle order is not a function of the parents, and
//! only the stored `dist` proves a weighted distance. A boot adopts each source's buffers
//! through [`CanonicalTree::from_raw`], which only adds the Euler times (and, weighted, the
//! hop depths). Replacement tables are stored as their flat row values only, because the row
//! *shapes* are a function of the tree (row length = hop depth, which is the hop distance
//! in the unweighted oracle). The graph is stored as its raw CSR arrays, which
//! [`CsrGraph::from_raw_parts`] revalidates structurally on load. The encoder lays the file
//! out from the sizes alone and writes every section straight into the one output buffer.
//!
//! # Fail closed
//!
//! Decoding never panics and never returns a silently wrong oracle: any corrupt,
//! truncated, or version-skewed input yields a typed [`SnapError`]. Validation is layered
//! — magic, version, kind, file length, whole-file checksum, section-table bounds (no
//! overlaps, no duplicates), per-section checksums, then structural validation of every
//! decoded array. Both checksum layers are computed in one fused pass over the file, and
//! the whole-file checksum is still reported ahead of any table or section error.
//!
//! For each tree that last rung proves the parent words — the root has none, every other
//! one names a graph neighbour of its child — and then derives a hop tree
//! (`derive_bfs_tree`; the row-total gate proves its depths) or checks a weighted tree's
//! stored `dist` and settle order (`validate_dijkstra_tree`). A lied parent word (a
//! grandparent, the vertex itself, a non-neighbour, a deeper neighbour, a cycle, `NO_PARENT`
//! on a reachable vertex, a parent on an unreachable one) fails here instead of answering
//! wrongly or looping in a path walk. Like row values, the choice among equally short
//! parents is content only the checksums guard: proving the first-settled parent would scan
//! every CSR row once per source, as much work as the rest of the decode. So by the time
//! [`ReplacementOracle::from_parts`] (which asserts) is called, its preconditions are
//! proven. `tests/snapshot_fuzz.rs` pins this: every seeded bit flip, truncation,
//! section-offset lie, and version bump must round-trip bit-identically or fail closed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;
use std::thread;

use msrp_graph::{
    CanonicalTree, CsrGraph, GraphError, Hop, Metric, Vertex, Weighted, WeightedCsrGraph,
    INFINITE_DISTANCE, INFINITE_WEIGHT, NO_PARENT,
};
use msrp_oracle::ReplacementOracle;
use msrp_rpath::ReplacementDistances;

use codec::{Codec, Envelope, GraphArrays, TreeBuffers, Word, Words};

/// The 8-byte file magic.
pub const SNAP_MAGIC: [u8; 8] = *b"MSRPSNAP";
/// The current (and only supported) format version. Bump on any layout change: decoding
/// is exact-match, never "best effort" across versions.
pub const SNAP_VERSION: u32 = 2;

/// Byte offset of the whole-file checksum field (excluded from its own computation).
const FILE_CHECKSUM_OFFSET: usize = 32;
/// Fixed header size in bytes (the section table starts here).
const HEADER_BYTES: usize = 40;
/// Size of one section-table entry in bytes.
const TABLE_ENTRY_BYTES: usize = 32;

// Section ids. Hop files hold no GRAPH_WEIGHTS, TREE_DIST or TREE_ORDER section; the
// weighted kind stores distances and rows in wider words.
const SEC_META: u32 = 1;
const SEC_GRAPH_OFFSETS: u32 = 2;
const SEC_GRAPH_TARGETS: u32 = 3;
const SEC_GRAPH_WEIGHTS: u32 = 4;
const SEC_SOURCES: u32 = 5;
const SEC_SHARD_LENS: u32 = 6;
const SEC_TREE_DIST: u32 = 7;
const SEC_TREE_PARENT: u32 = 8;
const SEC_TREE_ORDER: u32 = 9;
const SEC_ROWS: u32 = 10;

/// Which metric a snapshot serves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SnapKind {
    /// Hop-metric snapshot: [`CsrGraph`] plus hop-metric oracle shards (the exact and
    /// Bernstein–Karger construction routes produce identical tables, so one kind covers
    /// both).
    HopMetric,
    /// Weighted snapshot: [`WeightedCsrGraph`] plus weighted oracle shards.
    Weighted,
}

impl SnapKind {
    fn code(self) -> u32 {
        match self {
            SnapKind::HopMetric => 0,
            SnapKind::Weighted => 1,
        }
    }

    fn from_code(code: u32) -> Option<SnapKind> {
        match code {
            0 => Some(SnapKind::HopMetric),
            1 => Some(SnapKind::Weighted),
            _ => None,
        }
    }
}

impl fmt::Display for SnapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapKind::HopMetric => write!(f, "hop"),
            SnapKind::Weighted => write!(f, "weighted"),
        }
    }
}

/// Everything that can go wrong while decoding a snapshot. Every variant is fail-closed:
/// the caller gets no partially decoded state, and nothing panics on the way here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer is smaller than the fixed header (or than a region the header claims).
    Truncated {
        /// Bytes required by the structure being read.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first 8 bytes are not [`SNAP_MAGIC`] — this is not a snapshot at all.
    BadMagic,
    /// The file was written by a different format version; decoding is exact-match only.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports ([`SNAP_VERSION`]).
        supported: u32,
    },
    /// The kind code is not one this build knows.
    UnknownKind(u32),
    /// A well-formed snapshot of the other metric was handed to the wrong decoder.
    WrongKind {
        /// Kind the decoder was asked for.
        expected: SnapKind,
        /// Kind recorded in the file.
        found: SnapKind,
    },
    /// The header's recorded file length disagrees with the buffer length (truncation or
    /// trailing garbage).
    LengthMismatch {
        /// Length the header claims.
        header: u64,
        /// Length of the buffer handed in.
        actual: usize,
    },
    /// The whole-file checksum does not match: some byte of the file was corrupted.
    FileChecksum {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the buffer.
        computed: u64,
    },
    /// The section table is structurally invalid (out-of-bounds or misaligned offsets,
    /// overlapping or duplicate sections, a required section missing).
    SectionTable {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A section's payload checksum does not match its table entry.
    SectionChecksum {
        /// Id of the offending section.
        id: u32,
        /// Checksum recorded in the table.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Decoded words fail structural validation (array lengths disagree, ids out of
    /// range, duplicate sources, row totals that do not match the trees, …).
    Structure {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The graph arrays fail [`CsrGraph::from_raw_parts`] validation.
    Graph(GraphError),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot version {found} is not the supported version {supported}")
            }
            SnapError::UnknownKind(code) => write!(f, "unknown snapshot kind code {code}"),
            SnapError::WrongKind { expected, found } => {
                write!(f, "expected a {expected} snapshot, found a {found} snapshot")
            }
            SnapError::LengthMismatch { header, actual } => {
                write!(f, "header claims {header} bytes but the buffer holds {actual}")
            }
            SnapError::FileChecksum { stored, computed } => {
                write!(
                    f,
                    "file checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SnapError::SectionTable { reason } => write!(f, "invalid section table: {reason}"),
            SnapError::SectionChecksum { id, stored, computed } => write!(
                f,
                "section {id} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Structure { reason } => write!(f, "invalid snapshot structure: {reason}"),
            SnapError::Graph(e) => write!(f, "invalid snapshot graph: {e}"),
        }
    }
}

impl Error for SnapError {}

impl From<GraphError> for SnapError {
    fn from(e: GraphError) -> Self {
        SnapError::Graph(e)
    }
}

fn structure(reason: impl Into<String>) -> SnapError {
    SnapError::Structure { reason: reason.into() }
}

/// The FNV-1a 64-bit offset basis (Fowler–Noll–Vo).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a compression step over an 8-byte lane.
#[inline]
fn absorb(h: &mut u64, lane: u64) {
    *h ^= lane;
    *h = h.wrapping_mul(FNV_PRIME);
}

/// Absorbs `bytes` as 8-byte little-endian lanes (zero-padded tail). Streaming across
/// slices is only lane-stable when every slice but the last is a multiple of 8 bytes —
/// which the format guarantees (all section payloads are 8-aligned and the header
/// splits at lane boundaries).
fn absorb_lanes(h: &mut u64, bytes: &[u8]) {
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        absorb(h, u64::from_le_bytes(lane.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let tail = lanes.remainder();
    if !tail.is_empty() {
        let mut lane = [0u8; 8];
        lane[..tail.len()].copy_from_slice(tail);
        absorb(h, u64::from_le_bytes(lane));
    }
}

/// 64-bit checksum: FNV-1a compression (the Fowler–Noll–Vo offset-basis/prime
/// constants) applied to 8-byte little-endian lanes with a zero-padded tail, and the
/// input length absorbed as a final lane (so `"abc"` and `"abc\0"` differ). The lane
/// width matters on the boot path: the byte-at-a-time FNV chain runs one 64-bit
/// multiply per *byte* and was the single largest cost of opening a snapshot; lanes cut
/// the chain to one multiply per 8 bytes while keeping the guarantee the format relies
/// on — every step is a bijection of the running state, so any corruption confined to
/// one lane always changes the checksum. Hand rolled: the workspace vendors no hashing
/// crates, and 8 bytes of this over a megabytes-long mostly-incompressible payload is
/// plenty to catch the corruption the format defends against (bit rot, short writes,
/// wrong files) — it is an integrity check, not an authentication tag.
pub fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    absorb_lanes(&mut h, bytes);
    absorb(&mut h, bytes.len() as u64);
    h
}

/// Checksum of the whole file with the stored-checksum field skipped: exactly
/// [`fnv1a64_lanes`] of `bytes[..32] ‖ bytes[40..]` (both ranges start lane-aligned,
/// so the two-slice stream absorbs the same lanes the concatenation would).
fn file_checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    absorb_lanes(&mut h, &bytes[..FILE_CHECKSUM_OFFSET]);
    absorb_lanes(&mut h, &bytes[FILE_CHECKSUM_OFFSET + 8..]);
    absorb(&mut h, (bytes.len() - 8) as u64);
    h
}

/// Both checksum layers in one walk over the file: the file checksum and, in table
/// order, every section's [`fnv1a64_lanes`]. `extents` must be 8-aligned, past the
/// section table and pairwise disjoint (what [`read_table`] proves). Each lane of a
/// payload feeds the file chain and its section's chain in the same step; the two
/// multiply chains are independent, so the second one rides along almost for free.
fn checksums(bytes: &[u8], extents: &[Range<usize>]) -> (u64, Vec<u64>) {
    let mut file = FNV_OFFSET;
    absorb_lanes(&mut file, &bytes[..FILE_CHECKSUM_OFFSET]);
    let mut pos = FILE_CHECKSUM_OFFSET + 8;
    let mut sums = vec![0; extents.len()];
    for i in offset_order(extents) {
        let Range { start, end } = extents[i];
        // The gap before the payload (the table, or padding) feeds the file chain alone.
        absorb_lanes(&mut file, &bytes[pos..start]);
        let mut sum = FNV_OFFSET;
        let mut lanes = bytes[start..end].chunks_exact(8);
        for lane in &mut lanes {
            let lane = u64::from_le_bytes(lane.try_into().expect("chunks_exact yields 8 bytes"));
            absorb(&mut file, lane);
            absorb(&mut sum, lane);
        }
        // A partial tail lane feeds the section zero-padded; the file chain reads it, with
        // the bytes after it, as the first lane of the next gap.
        absorb_lanes(&mut sum, lanes.remainder());
        pos = end - lanes.remainder().len();
        absorb(&mut sum, (end - start) as u64);
        sums[i] = sum;
    }
    absorb_lanes(&mut file, &bytes[pos..]);
    absorb(&mut file, (bytes.len() - 8) as u64);
    (file, sums)
}

/// Indices of `extents` by ascending `(start, end)`: file order, empty extents first.
fn offset_order(extents: &[Range<usize>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..extents.len()).collect();
    order.sort_unstable_by_key(|&i| (extents[i].start, extents[i].end));
    order
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Writes `words` into `dst`, which they must fill exactly.
fn put_words<W: Word>(dst: &mut [u8], words: &[W]) {
    assert_eq!(dst.len(), W::BYTES * words.len(), "section layout disagrees with its contents");
    for (chunk, &w) in dst.chunks_exact_mut(W::BYTES).zip(words) {
        w.put(chunk);
    }
}

/// Writes `parts` back to back into `dst`, which they must fill exactly.
fn put_concat<'w, W: Word>(dst: &mut [u8], parts: impl IntoIterator<Item = &'w [W]>) {
    let mut rest = dst;
    for part in parts {
        let (head, tail) = rest.split_at_mut(W::BYTES * part.len());
        put_words(head, part);
        rest = tail;
    }
    assert!(rest.is_empty(), "section layout disagrees with its contents");
}

/// The encoder's one output buffer: the header and section table are written from the
/// planned section sizes up front, so each payload is then written in place.
struct FileWriter {
    bytes: Vec<u8>,
    sections: Vec<(u32, Range<usize>)>,
}

impl FileWriter {
    /// Lays out `sections` (`(id, byte length)`, in file order): each payload starts at
    /// the next 8-byte boundary after the previous one.
    fn new(kind: SnapKind, sections: &[(u32, usize)]) -> Self {
        let mut cursor = HEADER_BYTES + TABLE_ENTRY_BYTES * sections.len(); // 8-aligned
        let sections: Vec<(u32, Range<usize>)> = sections
            .iter()
            .map(|&(id, len)| {
                let extent = cursor..cursor + len;
                cursor = (extent.end + 7) & !7;
                (id, extent)
            })
            .collect();
        let file_len = cursor;
        let mut bytes = vec![0u8; file_len];
        bytes[0..8].copy_from_slice(&SNAP_MAGIC);
        bytes[8..12].copy_from_slice(&SNAP_VERSION.to_le_bytes());
        bytes[12..16].copy_from_slice(&kind.code().to_le_bytes());
        bytes[16..20].copy_from_slice(&(sections.len() as u32).to_le_bytes());
        bytes[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
        for (i, (id, extent)) in sections.iter().enumerate() {
            let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
            bytes[entry..entry + 4].copy_from_slice(&id.to_le_bytes());
            bytes[entry + 8..entry + 16].copy_from_slice(&(extent.start as u64).to_le_bytes());
            bytes[entry + 16..entry + 24].copy_from_slice(&(extent.len() as u64).to_le_bytes());
        }
        FileWriter { bytes, sections }
    }

    /// The payload of section `id`, to be written in place.
    fn payload(&mut self, id: u32) -> &mut [u8] {
        let (_, extent) =
            self.sections.iter().find(|(sid, _)| *sid == id).expect("section in the layout");
        &mut self.bytes[extent.clone()]
    }

    /// Stamps both checksum layers. The file checksum covers the table's section-checksum
    /// words, so the section layer has to be stamped first.
    fn finish(mut self) -> Vec<u8> {
        for (i, (_, extent)) in self.sections.iter().enumerate() {
            let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
            let sum = fnv1a64_lanes(&self.bytes[extent.clone()]);
            self.bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        }
        let checksum = file_checksum(&self.bytes);
        self.bytes[FILE_CHECKSUM_OFFSET..FILE_CHECKSUM_OFFSET + 8]
            .copy_from_slice(&checksum.to_le_bytes());
        self.bytes
    }
}

/// Serializes a frozen graph plus its per-shard oracles into one snapshot buffer, with the
/// metric's word width for tree distances and rows.
///
/// The shard split is preserved (see the `SHARD_LENS` section), so a serving process can
/// rebuild its sharded oracle with the exact same source partition the builder used. Both
/// the exact and the Bernstein–Karger construction routes produce hop tables; the snapshot
/// does not care which one paid for them.
///
/// Every section size follows from σ, n, the graph arrays, the settle-order lengths
/// (weighted only) and the entry count, so the file is laid out first and each array is
/// then written once, straight into its place in the returned buffer.
///
/// # Panics
///
/// Panics if `shards` is empty or any shard was built over a different graph than `g`
/// (vertex-count mismatch) — encoding is a trusted, in-process operation; only *decoding*
/// handles hostile bytes.
pub fn encode_snapshot<M: SnapMetric>(g: &M::Graph, shards: &[ReplacementOracle<M>]) -> Vec<u8> {
    assert!(!shards.is_empty(), "at least one shard is required");
    let n = shards[0].vertex_count();
    for shard in shards {
        assert_eq!(shard.vertex_count(), n, "shard built over a different graph");
    }
    let GraphArrays { offsets, targets, weights } = M::graph_arrays(g);
    assert_eq!(offsets.len(), n + 1, "shard built over a different graph");
    let sources: Vec<u32> =
        shards.iter().flat_map(|s| s.sources().iter().map(|&v| v as u32)).collect();
    let shard_lens: Vec<u32> = shards.iter().map(|s| s.sources().len() as u32).collect();
    let trees = || shards.iter().flat_map(|s| s.trees());
    let tables = || shards.iter().flat_map(|s| s.per_source());
    let sigma = sources.len();
    let order_total: usize = trees().map(|t| t.order().len()).sum();
    let entry_total: usize = tables().map(|t| t.entry_count()).sum();
    let dist_bytes = <M::Dist as Word>::BYTES;
    let tree_bytes = |id| match id {
        SEC_TREE_DIST => dist_bytes * sigma * n,
        SEC_TREE_PARENT => 4 * sigma * n,
        _ => 4 * order_total,
    };

    let mut layout = vec![
        (SEC_META, 8 * 4),
        (SEC_GRAPH_OFFSETS, 4 * offsets.len()),
        (SEC_GRAPH_TARGETS, 4 * targets.len()),
    ];
    if let Some(weights) = weights {
        layout.push((SEC_GRAPH_WEIGHTS, 8 * weights.len()));
    }
    layout.extend([(SEC_SOURCES, 4 * sigma), (SEC_SHARD_LENS, 4 * shards.len())]);
    layout.extend(M::TREE_SECTIONS.iter().map(|&id| (id, tree_bytes(id))));
    layout.push((SEC_ROWS, dist_bytes * entry_total));
    let mut file = FileWriter::new(M::KIND, &layout);
    let meta = [n as u64, sigma as u64, shards.len() as u64, entry_total as u64];
    put_words(file.payload(SEC_META), &meta);
    put_words(file.payload(SEC_GRAPH_OFFSETS), offsets);
    put_words(file.payload(SEC_GRAPH_TARGETS), targets);
    if let Some(weights) = weights {
        put_words(file.payload(SEC_GRAPH_WEIGHTS), weights);
    }
    put_words(file.payload(SEC_SOURCES), &sources);
    put_words(file.payload(SEC_SHARD_LENS), &shard_lens);
    for &id in M::TREE_SECTIONS {
        let payload = file.payload(id);
        match id {
            SEC_TREE_DIST => put_concat(payload, trees().map(|t| t.distances())),
            SEC_TREE_PARENT => put_concat(payload, trees().map(|t| t.parents_raw())),
            _ => put_concat(payload, trees().map(|t| t.order())),
        }
    }
    put_concat(file.payload(SEC_ROWS), tables().map(|t| t.values()));
    file.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn u32_le(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4-byte slice"))
}

fn u64_le(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte slice"))
}

/// One validated section-table entry.
struct TableEntry {
    id: u32,
    extent: Range<usize>,
    stored: u64,
}

/// Reads and validates the section table: every extent 8-aligned and inside the payload
/// region, no id twice, no two extents overlapping.
fn read_table(bytes: &[u8]) -> Result<Vec<TableEntry>, SnapError> {
    let section_count = u32_le(bytes, 16) as usize;
    let table_reason = |reason: String| SnapError::SectionTable { reason };
    let table_bytes = section_count
        .checked_mul(TABLE_ENTRY_BYTES)
        .and_then(|t| t.checked_add(HEADER_BYTES))
        .ok_or_else(|| table_reason(format!("section count {section_count} overflows")))?;
    if table_bytes > bytes.len() {
        return Err(table_reason(format!(
            "table of {section_count} sections needs {table_bytes} bytes, file has {}",
            bytes.len()
        )));
    }
    let mut entries = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
        let id = u32_le(bytes, entry);
        let offset = u64_le(bytes, entry + 8);
        let len = u64_le(bytes, entry + 16);
        if !offset.is_multiple_of(8) {
            return Err(table_reason(format!("section {id} offset {offset} is not 8-aligned")));
        }
        let offset = usize::try_from(offset)
            .map_err(|_| table_reason(format!("section {id} offset overflows")))?;
        let len = usize::try_from(len)
            .map_err(|_| table_reason(format!("section {id} length overflows")))?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| table_reason(format!("section {id} extent overflows")))?;
        if offset < table_bytes || end > bytes.len() {
            return Err(table_reason(format!(
                "section {id} [{offset}, {end}) escapes the payload region [{table_bytes}, {})",
                bytes.len()
            )));
        }
        entries.push(TableEntry { id, extent: offset..end, stored: u64_le(bytes, entry + 24) });
    }
    let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(table_reason(format!("duplicate section id {}", pair[0])));
    }
    let extents: Vec<Range<usize>> = entries.iter().map(|e| e.extent.clone()).collect();
    let by_offset = offset_order(&extents);
    if let Some(pair) = by_offset.windows(2).find(|p| extents[p[0]].end > extents[p[1]].start) {
        let (a, b) = (&entries[pair[0]], &entries[pair[1]]);
        return Err(table_reason(format!(
            "section {} [{}, {}) overlaps section {} [{}, {})",
            a.id, a.extent.start, a.extent.end, b.id, b.extent.start, b.extent.end
        )));
    }
    Ok(entries)
}

/// Runs the byte-level validation ladder: magic → version → kind → length → file checksum
/// → section table → per-section checksums. Structural (word-level) validation is the
/// caller's second phase.
fn open(bytes: &[u8]) -> Result<Envelope<'_>, SnapError> {
    if bytes.len() < HEADER_BYTES {
        return Err(SnapError::Truncated { needed: HEADER_BYTES, have: bytes.len() });
    }
    if bytes[0..8] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32_le(bytes, 8);
    if version != SNAP_VERSION {
        return Err(SnapError::UnsupportedVersion { found: version, supported: SNAP_VERSION });
    }
    let kind_code = u32_le(bytes, 12);
    let kind = SnapKind::from_code(kind_code).ok_or(SnapError::UnknownKind(kind_code))?;
    let file_len = u64_le(bytes, 24);
    if file_len != bytes.len() as u64 {
        return Err(SnapError::LengthMismatch { header: file_len, actual: bytes.len() });
    }
    // A valid table lets one pass compute both checksum layers; an invalid one is
    // reported only once the file checksum has vouched for the bytes it was read from.
    let table = read_table(bytes);
    let (computed, sums) = match &table {
        Ok(entries) => {
            let extents: Vec<Range<usize>> = entries.iter().map(|e| e.extent.clone()).collect();
            checksums(bytes, &extents)
        }
        Err(_) => (file_checksum(bytes), Vec::new()),
    };
    let stored = u64_le(bytes, FILE_CHECKSUM_OFFSET);
    if stored != computed {
        return Err(SnapError::FileChecksum { stored, computed });
    }
    let entries = table?;
    for (entry, computed) in entries.iter().zip(sums) {
        if entry.stored != computed {
            return Err(SnapError::SectionChecksum {
                id: entry.id,
                stored: entry.stored,
                computed,
            });
        }
    }
    let sections = entries.into_iter().map(|e| (e.id, &bytes[e.extent])).collect();
    Ok(Envelope { kind, sections })
}

/// Summary of a snapshot, produced by [`inspect`] after full checksum validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapInfo {
    /// Metric the snapshot serves.
    pub kind: SnapKind,
    /// Vertices of the frozen graph.
    pub vertex_count: usize,
    /// Undirected edges of the frozen graph.
    pub edge_count: usize,
    /// Number of sources (σ).
    pub source_count: usize,
    /// Number of oracle shards.
    pub shard_count: usize,
    /// Total replacement-table entries across all sources.
    pub entry_count: u64,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// Validates every checksum layer and the metric-independent sections, and reports the
/// snapshot's metadata without reconstructing the graph, trees or tables (what `msrpctl
/// list` prints).
pub fn inspect(bytes: &[u8]) -> Result<SnapInfo, SnapError> {
    let envelope = open(bytes)?;
    let common = decode_common(&envelope)?;
    let targets = envelope.section(SEC_GRAPH_TARGETS)?;
    Ok(SnapInfo {
        kind: envelope.kind,
        vertex_count: common.n,
        edge_count: targets.len() / 4 / 2,
        source_count: common.sources.len(),
        shard_count: common.shard_lens.len(),
        entry_count: common.entry_total,
        bytes: bytes.len(),
    })
}

/// META plus the common (metric-independent) sections, structurally validated.
struct CommonParts {
    n: usize,
    sources: Vec<Vertex>,
    shard_lens: Vec<usize>,
    entry_total: u64,
}

fn decode_common(envelope: &Envelope<'_>) -> Result<CommonParts, SnapError> {
    let meta = Words::<u64>::of(envelope, SEC_META)?.all();
    if meta.len() != 4 {
        return Err(structure(format!("META holds {} words, expected 4", meta.len())));
    }
    let n = usize::try_from(meta[0]).map_err(|_| structure("vertex count overflows"))?;
    let sigma = usize::try_from(meta[1]).map_err(|_| structure("source count overflows"))?;
    let shard_count = usize::try_from(meta[2]).map_err(|_| structure("shard count overflows"))?;
    let entry_total = meta[3];

    let sources_raw = Words::<u32>::of(envelope, SEC_SOURCES)?.all();
    if sources_raw.len() != sigma || sigma == 0 {
        return Err(structure(format!(
            "META claims {sigma} sources, section holds {}",
            sources_raw.len()
        )));
    }
    if sources_raw.iter().any(|&s| s as usize >= n) {
        return Err(structure("a source id is out of range"));
    }
    let mut dedup: Vec<u32> = sources_raw.clone();
    dedup.sort_unstable();
    dedup.dedup();
    if dedup.len() != sources_raw.len() {
        return Err(structure("duplicate source ids"));
    }

    let shard_lens_raw = Words::<u32>::of(envelope, SEC_SHARD_LENS)?.all();
    if shard_lens_raw.len() != shard_count || shard_count == 0 {
        return Err(structure(format!(
            "META claims {shard_count} shards, section holds {}",
            shard_lens_raw.len()
        )));
    }
    if shard_lens_raw.contains(&0) {
        return Err(structure("a shard covers zero sources"));
    }
    let total: u64 = shard_lens_raw.iter().map(|&l| u64::from(l)).sum();
    if total != sigma as u64 {
        return Err(structure(format!("shard lengths sum to {total}, not σ = {sigma}")));
    }

    Ok(CommonParts {
        n,
        sources: sources_raw.into_iter().map(|s| s as Vertex).collect(),
        shard_lens: shard_lens_raw.into_iter().map(|l| l as usize).collect(),
        entry_total,
    })
}

/// Children the BFS sweep of [`derive_bfs_tree`] copies per step as one fixed-width block.
const CHUNK: usize = 8;

/// Derives a hop tree's `dist` and settle `order` from its `parent` words, proving that
/// the root has no parent, that every other parent word names a graph neighbour of its
/// child ([`Metric::edge_length`]), that no vertex without a parent is next to the root or
/// to a vertex with one (so the tree spans the root's component), and that the sweep from
/// the root reaches every vertex with a parent (no cycle, no detached subtree). The sweep
/// expands children bucketed by parent, in ascending id, in settle order: the BFS queue
/// discipline, with `dist[child] = dist[parent] + 1`. Such a tree is never shallower than
/// BFS, so the row-total gate proves its depths. The lookups run in vertex order, in the
/// bucketing pass, so they read the CSR rows front to back: run in settle order, during
/// the sweep, they read the `batch_sigma512` benchmark's `boot_s` at 1.19× on 2 vCPUs.
/// `scratch` is reused across the trees one worker derives.
fn derive_bfs_tree(
    graph: &CsrGraph,
    source: Vertex,
    parent: &[u32],
    dist: &mut Vec<u32>,
    order: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) -> Result<(), SnapError> {
    let n = parent.len();
    let lie = |what: String| Err(structure(format!("tree of source {source} {what}")));
    // `start[p + 2]` counts p's children; after the prefix sum and the placement pass,
    // `children[start[p]..start[p + 1]]` lists them in ascending id. Both `children` and
    // the BFS `queue` end in `CHUNK` spare words.
    scratch.clear();
    scratch.resize(3 * n + 2 + 2 * CHUNK, 0);
    let (start, rest) = scratch.split_at_mut(n + 2);
    let (children, queue) = rest.split_at_mut(n + CHUNK);
    let in_tree = |u: u32| u as usize == source || parent[u as usize] != NO_PARENT;
    for (v, &p) in parent.iter().enumerate() {
        if p != NO_PARENT {
            if v == source || p as usize >= n || Hop::edge_length(graph, p as usize, v).is_none() {
                return lie(format!("has no tree edge from {p} to its child {v}"));
            }
            start[p as usize + 2] += 1;
        } else if v != source {
            if let Some(&u) = graph.neighbor_row(v).iter().find(|&&u| in_tree(u)) {
                return lie(format!("leaves {v} unreachable next to {u}"));
            }
        }
    }
    for p in 2..n + 2 {
        start[p] += start[p - 1];
    }
    for (v, &p) in parent.iter().enumerate().filter(|&(_, &p)| p != NO_PARENT) {
        let slot = &mut start[p as usize + 1];
        children[*slot as usize] = v as u32;
        *slot += 1;
    }
    // Each bucket joins the queue as one `CHUNK`-word copy (a longer one in two), the next
    // overwriting the excess: a per-child loop mispredicted often enough to make the whole
    // derivation ~1.4× slower. A vertex sits in its parent's bucket only, so `end` ≤ n.
    queue[0] = source as u32;
    let (mut next, mut end) = (0, 1);
    while next < end {
        let v = queue[next] as usize;
        let (first, len) = (start[v] as usize, (start[v + 1] - start[v]) as usize);
        queue[end..end + CHUNK].copy_from_slice(&children[first..first + CHUNK]);
        if len > CHUNK {
            queue[end + CHUNK..end + len].copy_from_slice(&children[first + CHUNK..first + len]);
        }
        end += len;
        next += 1;
    }
    order.extend_from_slice(&queue[..end]);
    dist.resize(n, INFINITE_DISTANCE);
    dist[source] = 0;
    for &v in &order[1..] {
        dist[v as usize] = dist[parent[v as usize] as usize] + 1;
    }
    if end != start[n] as usize + 1 {
        let v = (0..n).find(|&v| parent[v] != NO_PARENT && dist[v] == INFINITE_DISTANCE);
        return lie(format!("never reaches {} from its root", v.expect("an unsettled child")));
    }
    Ok(())
}

/// Validates a weighted tree's stored buffers before the tree adopts them as they are: the
/// root has distance 0 and no parent, and settles first; the settle order names exactly
/// the reachable vertices, each once, in non-decreasing distance (Dijkstra's), and settles
/// every parent before its child, which rules out cycles even under zero weights; every
/// unreachable vertex has no parent; and every reachable `v ≠ source` hangs off its parent
/// `p` by a graph edge ([`Metric::edge_length`]) with `dist[p] + len(p, v) == dist[v]`, so
/// every tree path is a graph path of the stored length. The edge pass runs in vertex
/// order, so it reads the CSR rows front to back. `pos` is reused across the trees one
/// worker validates.
fn validate_dijkstra_tree(
    graph: &WeightedCsrGraph,
    source: Vertex,
    dist: &[u64],
    parent: &[u32],
    order: &[u32],
    pos: &mut Vec<u32>,
) -> Result<(), SnapError> {
    let n = dist.len();
    let lie = |what: String| Err(structure(format!("tree of source {source} {what}")));
    if dist[source] != 0 || parent[source] != NO_PARENT || order.first() != Some(&(source as u32)) {
        return lie("does not root at its source".into());
    }
    // Settle positions (`u32::MAX` = not settled yet); a parent must already have one.
    pos.clear();
    pos.resize(n, u32::MAX);
    pos[source] = 0;
    let mut last = 0;
    for (i, &v) in order.iter().enumerate().skip(1) {
        if v as usize >= n || pos[v as usize] != u32::MAX {
            return lie(format!("has an invalid or repeated settle entry {v}"));
        }
        let p = parent[v as usize] as usize;
        if p >= n || pos[p] == u32::MAX {
            return lie(format!("settles {v} before any parent"));
        }
        if dist[v as usize] < last {
            return lie(format!("settles {v} out of order"));
        }
        last = dist[v as usize];
        pos[v as usize] = i as u32;
    }
    for v in 0..n {
        let settled = pos[v] != u32::MAX;
        if (dist[v] != INFINITE_WEIGHT) != settled {
            return lie(format!("disagrees with its settle order on whether {v} is reachable"));
        }
        if !settled && parent[v] != NO_PARENT {
            return lie(format!("gives unreachable vertex {v} a parent"));
        }
        if !settled || v == source {
            continue;
        }
        // The order pass proved `p` in range and settled, so its distance is finite.
        let p = parent[v] as usize;
        let tight = Weighted::edge_length(graph, p, v)
            .is_some_and(|len| dist[p].checked_add(len) == Some(dist[v]));
        if !tight {
            return lie(format!("has no tight edge from {p} to its child {v}"));
        }
    }
    Ok(())
}

/// Runs `work` on `min(items.len(), workers)` contiguous chunks of `items` (sizes
/// differing by at most one) and returns the results in chunk order; `work` gets the
/// index of its chunk's first item and the chunk. The first chunk runs on the calling
/// thread, every other one on a scoped worker — or inline, after the others, when the
/// worker cannot be spawned.
fn on_workers<T: Send, R: Send>(
    items: &mut [T],
    workers: usize,
    work: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let len = items.len();
    let count = workers.clamp(1, len.max(1));
    let start = |c: usize| c * len / count;
    // Each chunk sits behind its own (uncontended) lock, so a chunk whose worker could
    // not be spawned is still within reach of the calling thread.
    let mut rest = items;
    let chunks: Vec<Mutex<&mut [T]>> = (0..count)
        .map(|c| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(start(c + 1) - start(c));
            rest = tail;
            Mutex::new(chunk)
        })
        .collect();
    let run = |c: usize| {
        let mut chunk = chunks[c].lock().expect("each chunk is locked by one runner, once");
        work(start(c), &mut chunk)
    };
    let run = &run;
    thread::scope(|scope| {
        let spawned: Vec<_> =
            (1..count).map(|c| worker_builder().spawn_scoped(scope, move || run(c))).collect();
        let mut results = Vec::with_capacity(count);
        results.push(run(0));
        for (c, handle) in (1..count).zip(spawned) {
            results.push(match handle {
                Ok(handle) => {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }
                Err(_) => run(c),
            });
        }
        results
    })
}

#[cfg(test)]
thread_local! {
    /// Makes every decode-worker spawn from this thread fail, to pin the inline fallback.
    static FAIL_SPAWNS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The builder every decode worker is spawned from.
fn worker_builder() -> thread::Builder {
    #[cfg(test)]
    if FAIL_SPAWNS.get() {
        // More stack than any address space holds, so the spawn fails.
        return thread::Builder::new().stack_size(1 << 62);
    }
    thread::Builder::new()
}

/// A decoded snapshot: the frozen graph and the oracle shards, ready to serve.
#[derive(Clone, Debug)]
pub struct Snapshot<M: Metric> {
    /// The frozen graph the oracles were built over.
    pub graph: M::Graph,
    /// The oracle shards, in the builder's shard order (disjoint source slices).
    pub shards: Vec<ReplacementOracle<M>>,
}

/// Decodes a snapshot of the metric `M`, failing closed with a typed [`SnapError`] on any
/// corruption, truncation, or version/kind skew. On success the returned shards answer
/// bit-for-bit what the encoded oracles answered — pinned row-for-row by the fuzz battery.
///
/// The per-source work runs on `min(σ, available_parallelism())` scoped workers (see the
/// crate docs). The result, and the error on a corrupt file, do not depend on how many.
pub fn decode_snapshot<M: SnapMetric>(bytes: &[u8]) -> Result<Snapshot<M>, SnapError> {
    decode_with_workers(bytes, thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`decode_snapshot`] on `min(σ, workers)` chunks of the sources.
fn decode_with_workers<M: SnapMetric>(
    bytes: &[u8],
    workers: usize,
) -> Result<Snapshot<M>, SnapError> {
    let envelope = open(bytes)?;
    if envelope.kind != M::KIND {
        return Err(SnapError::WrongKind { expected: M::KIND, found: envelope.kind });
    }
    let common = decode_common(&envelope)?;
    let n = common.n;
    let sigma = common.sources.len();

    let offsets = Words::<u32>::of(&envelope, SEC_GRAPH_OFFSETS)?;
    if offsets.len() != n + 1 {
        return Err(structure(format!(
            "META claims {n} vertices, offsets array holds {}",
            offsets.len()
        )));
    }
    let targets = Words::<u32>::of(&envelope, SEC_GRAPH_TARGETS)?;
    let graph = M::graph_from_sections(&envelope, offsets.all(), targets.all())?;

    let parents = Words::<u32>::of(&envelope, SEC_TREE_PARENT)?;
    if sigma.checked_mul(n) != Some(parents.len()) {
        return Err(structure("tree arrays do not hold σ·n entries"));
    }
    let stored = M::stored_trees(&envelope, sigma, n)?;
    let rows = Words::<M::Dist>::of(&envelope, SEC_ROWS)?;
    if rows.len() as u64 != common.entry_total {
        return Err(structure(format!(
            "META claims {} row entries, section holds {}",
            common.entry_total,
            rows.len()
        )));
    }
    // Every buffer the payloads are decoded into (dist, parent, order, rows) is allocated
    // on this thread and only filled by the workers: a worker's allocations land in its own
    // allocator arena, which a later boot does not reuse (worker-allocated buffers raised
    // the batch_sigma512 benchmark's peak RSS from ~140 to ~161 MB on a 2-vCPU host).

    // Per source: decode the tree buffers, derive or validate, adopt. Each chunk returns
    // the trees it adopted (with their row totals) and the error that stopped it, if any,
    // so errors below surface in source order whatever the chunking.
    let mut buffers: Vec<TreeBuffers<M>> = (0..sigma)
        .map(|_| (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n)))
        .collect();
    let adopted = on_workers(&mut buffers, workers, |first, chunk| {
        let mut scratch = Vec::new();
        let mut trees = Vec::with_capacity(chunk.len());
        for (i, buffers) in (first..).zip(chunk) {
            let mut buffers = std::mem::take(buffers);
            buffers.1.extend(parents.iter(i * n..(i + 1) * n));
            match M::decode_tree(&stored, &graph, i, common.sources[i], buffers, &mut scratch) {
                Ok(tree) => {
                    let tree_rows: u64 = (0..n).map(|t| tree.depth(t) as u64).sum();
                    trees.push((tree, tree_rows));
                }
                Err(e) => return (trees, Some(e)),
            }
        }
        (trees, None)
    });

    // Memory-bounding gate, before any row `Vec` exists: a crafted path-shaped parent array
    // makes Σ depth(t), the row total, quadratic in n from a kilobyte-sized file. Prove the
    // totals fit the (file-size-bounded) ROWS section and fill it exactly. This also proves
    // hop depths: `derive_bfs_tree` accepts no tree shallower than BFS, so a parent that is
    // not one level up raises the total past the entries the encoder wrote.
    let mut trees = Vec::with_capacity(sigma);
    let mut row_spans = Vec::with_capacity(sigma);
    let mut row_end = 0u64;
    for (chunk_trees, error) in adopted {
        for (tree, tree_rows) in chunk_trees {
            let start = row_end;
            row_end = row_end.saturating_add(tree_rows);
            let s = tree.source();
            if row_end > rows.len() as u64 {
                return Err(structure(format!("rows of source {s} overrun their section")));
            }
            // A table indexes its rows in `u32`. No test file reaches this: past the gate
            // above, the ROWS section holds every entry, which here is more than 16 GiB.
            if tree_rows > u64::from(u32::MAX) {
                return Err(structure(format!("rows of source {s} exceed u32::MAX entries")));
            }
            row_spans.push(start as usize..row_end as usize);
            trees.push(tree);
        }
        if let Some(e) = error {
            return Err(e);
        }
    }
    if row_end != rows.len() as u64 {
        return Err(structure("rows section has trailing entries"));
    }

    // The gate proved each span holds exactly its tree's row total, and that the total
    // fits a `u32`, so neither of the table constructor's panics can fire.
    let mut row_buffers: Vec<Vec<M::Dist>> =
        row_spans.iter().map(|span| Vec::with_capacity(span.len())).collect();
    on_workers(&mut row_buffers, workers, |first, chunk| {
        for (span, buffer) in row_spans[first..].iter().zip(chunk) {
            buffer.extend(rows.iter(span.clone()));
        }
    });
    let tables = trees
        .iter()
        .zip(row_buffers)
        .map(|(tree, flat)| ReplacementDistances::from_flat_rows(tree, flat))
        .collect();
    let shards = split_shards(common.sources, trees, tables, &common.shard_lens);
    Ok(Snapshot { graph, shards })
}

/// Splits flat per-source parts back into the builder's shard partition. All inputs are
/// already validated (lengths agree, shard lens sum to σ), so the constructor's asserts
/// cannot fire.
fn split_shards<M: Metric>(
    sources: Vec<Vertex>,
    trees: Vec<CanonicalTree<M>>,
    tables: Vec<ReplacementDistances<M>>,
    shard_lens: &[usize],
) -> Vec<ReplacementOracle<M>> {
    let mut sources = sources.into_iter();
    let mut trees = trees.into_iter();
    let mut tables = tables.into_iter();
    shard_lens
        .iter()
        .map(|&len| {
            ReplacementOracle::from_parts(
                sources.by_ref().take(len).collect(),
                trees.by_ref().take(len).collect(),
                tables.by_ref().take(len).collect(),
            )
        })
        .collect()
}

/// The metrics a snapshot can hold: [`Hop`] and [`Weighted`]. Sealed; the codec's
/// per-metric items (kind, graph arrays, word width, persisted tree sections, tree
/// decoding) stay private.
pub trait SnapMetric: Codec {}

impl<M: Codec> SnapMetric for M {}

mod codec {
    use super::*;

    /// Validated header fields plus the located (checksum-verified) sections.
    pub struct Envelope<'a> {
        pub kind: SnapKind,
        pub sections: Vec<(u32, &'a [u8])>,
    }

    impl<'a> Envelope<'a> {
        pub fn section(&self, id: u32) -> Result<&'a [u8], SnapError> {
            self.sections.iter().find(|&&(sid, _)| sid == id).map(|&(_, payload)| payload).ok_or(
                SnapError::SectionTable { reason: format!("required section {id} is missing") },
            )
        }
    }

    /// A fixed-width little-endian word.
    pub trait Word: Copy + 'static {
        /// Width in bytes.
        const BYTES: usize;
        /// Writes the word into a `BYTES`-long chunk.
        fn put(self, chunk: &mut [u8]);
        /// Reads the word from a `BYTES`-long chunk.
        fn get(chunk: &[u8]) -> Self;
    }

    impl Word for u32 {
        const BYTES: usize = 4;
        #[inline]
        fn put(self, chunk: &mut [u8]) {
            chunk.copy_from_slice(&self.to_le_bytes());
        }
        #[inline]
        fn get(chunk: &[u8]) -> Self {
            u32::from_le_bytes(chunk.try_into().expect("chunk"))
        }
    }

    impl Word for u64 {
        const BYTES: usize = 8;
        #[inline]
        fn put(self, chunk: &mut [u8]) {
            chunk.copy_from_slice(&self.to_le_bytes());
        }
        #[inline]
        fn get(chunk: &[u8]) -> Self {
            u64::from_le_bytes(chunk.try_into().expect("chunk"))
        }
    }

    /// The arrays a graph is persisted as: its CSR offsets and targets, plus the edge
    /// weights of a weighted graph.
    pub struct GraphArrays<'g> {
        pub offsets: &'g [u32],
        pub targets: &'g [u32],
        pub weights: Option<&'g [u64]>,
    }

    /// A checksum-verified payload read as little-endian words of type `W`, decoded on
    /// demand straight into the buffer that keeps them.
    pub struct Words<'a, W> {
        bytes: &'a [u8],
        word: PhantomData<fn() -> W>,
    }

    impl<'a, W: Word> Words<'a, W> {
        /// Section `id` of `envelope`, which must hold a whole number of words.
        pub fn of(envelope: &Envelope<'a>, id: u32) -> Result<Self, SnapError> {
            let bytes = envelope.section(id)?;
            if !bytes.len().is_multiple_of(W::BYTES) {
                return Err(structure(format!(
                    "section {id} length {} is not a {}-byte multiple",
                    bytes.len(),
                    W::BYTES
                )));
            }
            Ok(Words { bytes, word: PhantomData })
        }

        pub fn len(&self) -> usize {
            self.bytes.len() / W::BYTES
        }

        /// Words `range`; panics if it is out of bounds.
        pub fn iter(&self, range: Range<usize>) -> impl Iterator<Item = W> + 'a {
            self.bytes[range.start * W::BYTES..range.end * W::BYTES]
                .chunks_exact(W::BYTES)
                .map(W::get)
        }

        pub fn all(&self) -> Vec<W> {
            self.iter(0..self.len()).collect()
        }
    }

    /// One source's tree buffers `(dist, parent, order)`: allocated by the decoding thread
    /// with room for n entries each, filled by a worker.
    pub type TreeBuffers<M> = (Vec<<M as Metric>::Dist>, Vec<u32>, Vec<u32>);

    /// What the codec needs of a metric beyond [`Metric`]; distances and rows are stored
    /// as `Dist` words.
    pub trait Codec: Metric<Dist: Word> {
        /// The header's kind word.
        const KIND: SnapKind;
        /// The tree sections a file of this metric holds, in file order.
        const TREE_SECTIONS: &'static [u32];
        /// The located tree sections beyond the parents.
        type Stored<'a>: Sync;
        /// The graph's persisted arrays.
        fn graph_arrays(g: &Self::Graph) -> GraphArrays<'_>;
        /// Rebuilds the graph from its validated-length CSR arrays and its other sections.
        fn graph_from_sections(
            envelope: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<Self::Graph, SnapError>;
        /// Locates the tree sections beyond the parents (which hold σ·n words) and checks
        /// their lengths.
        fn stored_trees<'a>(
            envelope: &Envelope<'a>,
            sigma: usize,
            n: usize,
        ) -> Result<Self::Stored<'a>, SnapError>;
        /// Source `i`'s tree, proven, from `buffers` holding its parent words; the settle
        /// order is shrunk to fit (in place) when a vertex is unreachable. `scratch` is
        /// reused across the trees one worker decodes.
        fn decode_tree(
            stored: &Self::Stored<'_>,
            graph: &Self::Graph,
            i: usize,
            source: Vertex,
            buffers: TreeBuffers<Self>,
            scratch: &mut Vec<u32>,
        ) -> Result<CanonicalTree<Self>, SnapError>;
    }

    impl Codec for Hop {
        const KIND: SnapKind = SnapKind::HopMetric;
        /// `dist` and `order` are derived from the parents.
        const TREE_SECTIONS: &'static [u32] = &[SEC_TREE_PARENT];
        type Stored<'a> = ();
        fn graph_arrays(g: &CsrGraph) -> GraphArrays<'_> {
            GraphArrays { offsets: g.offsets(), targets: g.targets(), weights: None }
        }
        fn graph_from_sections(
            _: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<CsrGraph, SnapError> {
            Ok(CsrGraph::from_raw_parts(offsets, targets)?)
        }
        fn stored_trees(_: &Envelope<'_>, _: usize, _: usize) -> Result<(), SnapError> {
            Ok(())
        }
        fn decode_tree(
            _: &(),
            graph: &CsrGraph,
            _: usize,
            source: Vertex,
            (mut dist, parent, mut order): TreeBuffers<Hop>,
            scratch: &mut Vec<u32>,
        ) -> Result<CanonicalTree<Hop>, SnapError> {
            derive_bfs_tree(graph, source, &parent, &mut dist, &mut order, scratch)?;
            order.shrink_to_fit();
            Ok(CanonicalTree::from_raw(source, dist, parent, order))
        }
    }

    impl Codec for Weighted {
        const KIND: SnapKind = SnapKind::Weighted;
        const TREE_SECTIONS: &'static [u32] = &[SEC_TREE_DIST, SEC_TREE_PARENT, SEC_TREE_ORDER];
        /// The distances and settle orders; source i's order is words `ends[i]..ends[i + 1]`.
        type Stored<'a> = (Words<'a, u64>, Words<'a, u32>, Vec<usize>);
        fn graph_arrays(g: &WeightedCsrGraph) -> GraphArrays<'_> {
            GraphArrays { offsets: g.offsets(), targets: g.targets(), weights: Some(g.weights()) }
        }
        fn graph_from_sections(
            envelope: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<WeightedCsrGraph, SnapError> {
            let weights = Words::<u64>::of(envelope, SEC_GRAPH_WEIGHTS)?.all();
            Ok(WeightedCsrGraph::from_raw_parts(offsets, targets, weights)?)
        }
        /// Source i's settle order is the next (reachable count of i) words; the counts sum
        /// to at most σ·n, which fits, and must fill the order section exactly.
        fn stored_trees<'a>(
            envelope: &Envelope<'a>,
            sigma: usize,
            n: usize,
        ) -> Result<Self::Stored<'a>, SnapError> {
            let dist = Words::of(envelope, SEC_TREE_DIST)?;
            if dist.len() != sigma * n {
                return Err(structure("tree arrays do not hold σ·n entries"));
            }
            let order = Words::of(envelope, SEC_TREE_ORDER)?;
            let mut ends = vec![0];
            for i in 0..sigma {
                let reached = dist.iter(i * n..(i + 1) * n).filter(|&d| d != INFINITE_WEIGHT);
                ends.push(ends[i] + reached.count());
            }
            if ends[sigma] != order.len() {
                return Err(structure("settle orders do not hold the vertices the trees reach"));
            }
            Ok((dist, order, ends))
        }
        fn decode_tree(
            (dists, orders, ends): &Self::Stored<'_>,
            graph: &WeightedCsrGraph,
            i: usize,
            source: Vertex,
            (mut dist, parent, mut order): TreeBuffers<Weighted>,
            pos: &mut Vec<u32>,
        ) -> Result<CanonicalTree<Weighted>, SnapError> {
            let n = graph.vertex_count();
            dist.extend(dists.iter(i * n..(i + 1) * n));
            order.extend(orders.iter(ends[i]..ends[i + 1]));
            validate_dijkstra_tree(graph, source, &dist, &parent, &order, pos)?;
            order.shrink_to_fit();
            Ok(CanonicalTree::from_raw(source, dist, parent, order))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{cycle_graph, grid_graph, path_graph};
    use msrp_graph::{Edge, Graph, ShortestPathTree, WeightedGraph};
    use msrp_oracle::{ReplacementPathOracle, WeightedReplacementOracle};

    fn demo_shards(g: &Graph, splits: &[&[Vertex]]) -> Vec<ReplacementPathOracle> {
        let g = g.freeze();
        splits.iter().map(|s| ReplacementPathOracle::build_exact(&g, s)).collect()
    }

    #[test]
    fn round_trip_preserves_every_row() {
        let g = grid_graph(5, 6);
        let shards = demo_shards(&g, &[&[0, 7], &[29]]);
        let bytes = encode_snapshot(&g.freeze(), &shards);
        let decoded = decode_snapshot::<Hop>(&bytes).expect("round trip");
        assert_eq!(decoded.graph, g.freeze());
        assert_eq!(decoded.shards.len(), shards.len());
        for (a, b) in decoded.shards.iter().zip(&shards) {
            assert_eq!(a.sources(), b.sources());
            assert_eq!(a.trees(), b.trees());
            assert_eq!(a.per_source(), b.per_source());
        }
        // And a re-encode is bit-identical: the format has one canonical serialization.
        assert_eq!(encode_snapshot(&decoded.graph, &decoded.shards), bytes);
    }

    #[test]
    fn round_trip_covers_disconnected_graphs() {
        let g = Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]).unwrap();
        let shards = demo_shards(&g, &[&[0, 4]]);
        let bytes = encode_snapshot(&g.freeze(), &shards);
        let decoded = decode_snapshot::<Hop>(&bytes).expect("round trip");
        for (a, b) in decoded.shards.iter().zip(&shards) {
            assert_eq!(a.trees(), b.trees());
            assert_eq!(a.per_source(), b.per_source());
            for t in 0..9 {
                assert_eq!(
                    a.replacement_distance(4, t, Edge::new(4, 5)),
                    b.replacement_distance(4, t, Edge::new(4, 5))
                );
            }
        }
    }

    #[test]
    fn weighted_round_trip_preserves_every_row() {
        let g = WeightedGraph::from_edges(
            6,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 7), (3, 4, 2), (4, 5, 1), (5, 0, 9), (1, 4, 4)],
        )
        .unwrap()
        .freeze();
        let shards = vec![
            WeightedReplacementOracle::build_exact(&g, &[0, 2]),
            WeightedReplacementOracle::build_exact(&g, &[5]),
        ];
        let bytes = encode_snapshot(&g, &shards);
        let decoded = decode_snapshot::<Weighted>(&bytes).expect("round trip");
        assert_eq!(decoded.graph, g);
        for (a, b) in decoded.shards.iter().zip(&shards) {
            assert_eq!(a.sources(), b.sources());
            assert_eq!(a.trees(), b.trees());
            assert_eq!(a.per_source(), b.per_source());
        }
        assert_eq!(encode_snapshot(&decoded.graph, &decoded.shards), bytes);
    }

    #[test]
    fn inspect_reports_the_metadata() {
        let g = cycle_graph(12);
        let shards = demo_shards(&g, &[&[0], &[3], &[6]]);
        let bytes = encode_snapshot(&g.freeze(), &shards);
        let info = inspect(&bytes).expect("inspect");
        assert_eq!(info.kind, SnapKind::HopMetric);
        assert_eq!(info.vertex_count, 12);
        assert_eq!(info.edge_count, 12);
        assert_eq!(info.source_count, 3);
        assert_eq!(info.shard_count, 3);
        assert_eq!(info.bytes, bytes.len());
        assert_eq!(info.entry_count, shards.iter().map(|s| s.entry_count() as u64).sum::<u64>());
    }

    #[test]
    fn wrong_decoder_fails_closed_with_wrong_kind() {
        let g = cycle_graph(8);
        let bytes = encode_snapshot(&g.freeze(), &demo_shards(&g, &[&[0]]));
        assert_eq!(
            decode_snapshot::<Weighted>(&bytes).err(),
            Some(SnapError::WrongKind { expected: SnapKind::Weighted, found: SnapKind::HopMetric })
        );
    }

    #[test]
    fn empty_and_tiny_buffers_fail_closed() {
        assert!(matches!(decode_snapshot::<Hop>(&[]), Err(SnapError::Truncated { .. })));
        assert!(matches!(decode_snapshot::<Hop>(&[0x4d; 16]), Err(SnapError::Truncated { .. })));
        assert!(matches!(decode_snapshot::<Hop>(&[0u8; 64]), Err(SnapError::BadMagic)));
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        let g = path_graph(7);
        let bytes = encode_snapshot(&g.freeze(), &demo_shards(&g, &[&[0, 3]]));
        let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        for i in 0..count {
            let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
            let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
            assert_eq!(offset % 8, 0, "section {i} payload must be 8-aligned");
        }
    }

    #[test]
    fn fnv_vector_is_pinned() {
        // Pinned vectors for the lane checksum, so a refactor cannot silently change the
        // function (which would orphan every snapshot on disk). Derivation: FNV-1a-64
        // over 8-byte LE lanes (zero-padded tail), then the length absorbed as a lane.
        assert_eq!(fnv1a64_lanes(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(fnv1a64_lanes(b"a"), 0x089b_e307_b544_f397);
        assert_eq!(fnv1a64_lanes(b"foobar"), 0xa1a0_7343_0586_a9ed);
        assert_eq!(fnv1a64_lanes(b"12345678"), 0xa6cd_9ad6_7708_6a9c);
        assert_eq!(fnv1a64_lanes(b"123456789"), 0x7728_f36c_42c5_6342);
        // The absorbed length keeps zero-padding unambiguous.
        assert_ne!(fnv1a64_lanes(b"abc"), fnv1a64_lanes(b"abc\0"));
    }

    #[test]
    fn derived_trees_are_the_bfs_kernel_s_and_cycles_never_settle() {
        let g = cycle_graph(6).freeze();
        let bfs = ShortestPathTree::build(&g, 0);
        let mut parent = bfs.parents_raw().to_vec();
        let (mut dist, mut order, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        derive_bfs_tree(&g, 0, &parent, &mut dist, &mut order, &mut scratch).expect("BFS tree");
        assert_eq!((&dist[..], &order[..]), (bfs.distances(), bfs.order()));
        // 2 and 3 hang off each other. Their depths fall to 0, which a lie elsewhere could
        // pay back in the row total, so the sweep itself rejects the cycle.
        parent[2] = 3;
        let (mut dist, mut order) = (Vec::new(), Vec::new());
        let err = derive_bfs_tree(&g, 0, &parent, &mut dist, &mut order, &mut scratch);
        assert_eq!(err, Err(structure("tree of source 0 never reaches 2 from its root")));
    }

    #[test]
    fn fused_checksums_equal_both_reference_layers() {
        // Odd payload lengths with non-zero bytes in the padding after them, an empty
        // section, a file whose length is not a lane multiple, and extents listed out of
        // file order.
        let bytes: Vec<u8> = (0..203u32).map(|i| (i * 37 + 11) as u8).collect();
        let extents = [104..203, 48..61, 64..64, 64..96];
        let (file, sums) = checksums(&bytes, &extents);
        assert_eq!(file, file_checksum(&bytes));
        let expected: Vec<u64> = extents.iter().map(|e| fnv1a64_lanes(&bytes[e.clone()])).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn on_workers_visits_every_item_once_in_chunk_order() {
        for len in 0..12 {
            for workers in 0..6 {
                let mut items = vec![0usize; len];
                let chunks = on_workers(&mut items, workers, |first, chunk| {
                    for (i, item) in (first..).zip(chunk.iter_mut()) {
                        *item += i + 1;
                    }
                    (first, chunk.len())
                });
                assert_eq!(items, (1..=len).collect::<Vec<_>>());
                assert_eq!(chunks.len(), workers.clamp(1, len.max(1)));
                let mut next = 0;
                for &(first, size) in &chunks {
                    assert_eq!(first, next, "chunks tile the items in order");
                    next += size;
                }
                let sizes = chunks.iter().map(|&(_, size)| size);
                assert!(sizes.clone().max().unwrap() - sizes.min().unwrap() <= 1);
            }
        }
    }

    /// σ = 9 over 3 shards of a 42-vertex grid, so chunk boundaries fall both inside and
    /// between shards.
    fn nine_source_snapshot() -> (Graph, Vec<ReplacementPathOracle>, Vec<u8>) {
        let g = grid_graph(6, 7);
        let shards = demo_shards(&g, &[&[0, 5, 11], &[17, 23], &[29, 30, 36, 41]]);
        let bytes = encode_snapshot(&g.freeze(), &shards);
        (g, shards, bytes)
    }

    #[test]
    fn decode_does_not_depend_on_the_worker_count() {
        let (_, shards, bytes) = nine_source_snapshot();
        for workers in 0..12 {
            let snap = decode_with_workers::<Hop>(&bytes, workers).expect("round trip");
            for (a, b) in snap.shards.iter().zip(&shards) {
                assert_eq!(a.sources(), b.sources());
                assert_eq!(a.trees(), b.trees());
                assert_eq!(a.per_source(), b.per_source());
            }
            assert_eq!(encode_snapshot(&snap.graph, &snap.shards), bytes, "workers={workers}");
        }
    }

    #[test]
    fn failed_spawns_run_their_chunks_inline() {
        let (_, shards, bytes) = nine_source_snapshot();
        FAIL_SPAWNS.set(true);
        let spawned = worker_builder().spawn(|| ()).is_ok();
        let snap = decode_with_workers::<Hop>(&bytes, 4);
        FAIL_SPAWNS.set(false);
        assert!(!spawned, "the test builder must fail to spawn");
        let snap = snap.expect("every chunk decoded inline");
        for (a, b) in snap.shards.iter().zip(&shards) {
            assert_eq!(a.trees(), b.trees());
            assert_eq!(a.per_source(), b.per_source());
        }
    }

    /// Re-stamps every section checksum from the table as it stands, then the file
    /// checksum, so a planted lie reaches the structural validators.
    fn restamp(bytes: &mut [u8]) {
        for (i, entry) in read_table(bytes).unwrap().into_iter().enumerate() {
            let sum = fnv1a64_lanes(&bytes[entry.extent]);
            let at = HEADER_BYTES + TABLE_ENTRY_BYTES * i + 24;
            bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        }
        let sum = file_checksum(bytes);
        bytes[FILE_CHECKSUM_OFFSET..FILE_CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Makes the first non-root vertex of source `i`'s tree its own parent.
    fn lie_about_a_parent(g: &Graph, shards: &[ReplacementPathOracle], bytes: &mut [u8], i: usize) {
        let n = g.vertex_count();
        let trees: Vec<_> = shards.iter().flat_map(|s| s.trees()).collect();
        let parent = read_table(bytes).unwrap().into_iter().find(|e| e.id == SEC_TREE_PARENT);
        let v = (0..n).find(|&v| trees[i].parent(v).is_some()).unwrap();
        let at = parent.unwrap().extent.start + 4 * (i * n + v);
        bytes[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
    }

    #[test]
    fn the_first_source_s_error_wins_on_any_worker_count() {
        // Self-parent lies in the trees of sources 2 and 8 (vertices 11 and 41): every
        // chunking must report the tree of vertex 11, as the sequential decoder did.
        let (g, shards, mut bytes) = nine_source_snapshot();
        for i in [2, 8] {
            lie_about_a_parent(&g, &shards, &mut bytes, i);
        }
        restamp(&mut bytes);
        let first = decode_with_workers::<Hop>(&bytes, 1).expect_err("lied trees");
        assert!(matches!(&first, SnapError::Structure { reason } if reason.contains("source 11 ")));
        for workers in 0..12 {
            assert_eq!(decode_with_workers::<Hop>(&bytes, workers).err(), Some(first.clone()));
        }
    }

    #[test]
    fn a_row_overrun_in_an_early_chunk_beats_a_tree_lie_in_a_later_one() {
        // Source 0's rows cut to half (the ROWS extent and META's entry total both
        // shrunk to match) and a self-parent lie in the tree of source 8. From two workers
        // on, the lies sit in different chunks and the lied tree is found on another
        // thread; on one, the tree pass stops at source 8 before any row is checked. Every
        // chunking must still report source 0's row overrun, as the sequential decoder
        // did.
        let (g, shards, mut bytes) = nine_source_snapshot();
        lie_about_a_parent(&g, &shards, &mut bytes, 8);
        let kept = shards[0].per_source()[0].entry_count() / 2;
        let entries = read_table(&bytes).unwrap();
        let rows = entries.iter().position(|e| e.id == SEC_ROWS).unwrap();
        let at = HEADER_BYTES + TABLE_ENTRY_BYTES * rows + 16;
        bytes[at..at + 8].copy_from_slice(&(4 * kept as u64).to_le_bytes());
        let meta = entries.iter().find(|e| e.id == SEC_META).unwrap().extent.start;
        bytes[meta + 24..meta + 32].copy_from_slice(&(kept as u64).to_le_bytes());
        restamp(&mut bytes);
        let expected = structure("rows of source 0 overrun their section");
        for workers in 0..12 {
            for run in 0..20 {
                assert_eq!(
                    decode_with_workers::<Hop>(&bytes, workers).err(),
                    Some(expected.clone()),
                    "workers={workers} run={run}"
                );
            }
        }
    }
}
