//! `msrp-snap`: versioned, checksummed binary snapshots of frozen graphs and oracles.
//!
//! A serving process should boot by *adopting* the immutable state a builder already paid
//! for — the frozen [`CsrGraph`] / [`WeightedCsrGraph`] and the per-source replacement
//! tables of the Bernstein–Karger (or exact, or weighted) oracle — instead of re-running
//! minutes of preprocessing. This crate defines that interchange format and its two
//! round-trip halves, [`encode_snapshot`] / [`decode_snapshot`]: one encoder and one decoder,
//! generic over the metric ([`SnapMetric`]: [`Hop`] or [`Weighted`]), whose per-metric
//! items are the kind word, the graph arrays, the word type of distances and rows, and
//! which tree arrays are persisted and how a tree is rebuilt and proven from them.
//!
//! # Layout
//!
//! Everything is little-endian words, and every section payload starts on an 8-byte
//! boundary:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "MSRPSNAP"
//!      8     4  format version (u32, currently 3)
//!     12     4  kind (u32: 0 = hop metric, 1 = weighted)
//!     16     4  section count k (u32)
//!     20     4  reserved (0)
//!     24     8  file length in bytes (u64)
//!     32     8  whole-file FNV-1a-64 checksum (computed with these 8 bytes excluded)
//!     40  32·k  section table: k × { id u32, reserved u32, offset u64, len u64, fnv u64 }
//!      …     …  section payloads, 8-byte aligned, zero-padded between sections
//! ```
//!
//! The sections, in file order:
//!
//! ```text
//! section       words  width
//! META              6  u64: n, σ, shard count, entry total, id width, row width
//! GRAPH_OFFSETS   n+1  u32
//! GRAPH_TARGETS    2m  id
//! GRAPH_WEIGHTS    2m  u64                              (weighted only)
//! SOURCES           σ  id
//! SHARD_LENS   shards  u32
//! TREE_DIST       σ·n  u64                              (weighted only)
//! TREE_PARENT     σ·n  id, NO_PARENT as the all-ones id
//! TREE_ORDER  reached  id, each tree's reachable vertices (weighted only)
//! ROWS        entries  row: every source's row deltas, vertex order
//! ```
//!
//! A hop file holds 7 sections, a weighted file 10.
//!
//! # Widths and delta rows
//!
//! Two word widths are picked by the encoder from the data and recorded in META. The *id
//! width* is 2 bytes when n ≤ `0xFFFF`, else 4, and every vertex-id array uses it: the CSR
//! targets, the sources, the tree parents and the weighted settle orders. Each row entry
//! is stored as its excess `δ = value − d(t)` over the fault-free distance of its target.
//! The *row width* is the narrowest of 1, 2 and 4 bytes (weighted: 1, 2, 4 and 8) that
//! holds the file's largest finite δ. In every width the all-ones word is the sentinel:
//! `NO_PARENT` for an id, the metric's infinity for a row entry. At the serving shape (a
//! sparse n = 2048 graph) nearly every δ is 0, 1 or 2, so a hop source costs 2 bytes per
//! vertex for its parents plus 1 byte per row entry, against 4 + 4 at full width. One
//! writer (`put_words`) and one reader (`Words`) serve every section and both metrics, each
//! compiled once per width.
//!
//! What is persisted is deliberately minimal: nothing the decoder can derive from the rest.
//! A hop tree's `dist` and settle `order` are functions of its parents (`dist[v] =
//! dist[parent] + 1`, and the BFS queue settles children grouped by their parent's position,
//! in ascending id), so the decoder rebuilds both. A weighted tree keeps all three arrays:
//! zero weights are legal, so Dijkstra's settle order is not a function of the parents, and
//! only the stored `dist` proves a weighted distance. Replacement tables are stored as their
//! row deltas only, because the row *shapes* are a function of the tree (row length = hop
//! depth, which is the hop distance in the unweighted oracle), and `d(t)` is the tree's.
//! The graph is stored as its raw CSR arrays, which [`CsrGraph::from_raw_parts`]
//! revalidates structurally on load. The encoder lays the file out from the sizes alone and
//! writes every section straight into the one output buffer; it tries rows one byte wide
//! first and lays the file out again only when a wider δ turns up. Computing the deltas
//! walks every row, so it runs on the same scoped workers as the decode, each writing its
//! sources' stretch of ROWS.
//!
//! # Decoding
//!
//! No payload is adoptable in place: ids and rows are widened, and rows have `d(t)` added
//! back, on decode. The loader stays inside the workspace's `#![forbid(unsafe_code)]` wall
//! and reads each payload array exactly once: every per-source tree and row `Vec` is decoded
//! straight from its checksum-verified payload sub-slice into the buffer the tree or table
//! adopts, and the graph's CSR arrays straight into the graph. No flat whole-section copy
//! exists, so a boot holds the file bytes plus the oracle it is building, nothing more.
//!
//! The per-source work (decode, derive or validate, adopt; then expand the rows) runs on
//! scoped workers over `min(σ, available_parallelism())` contiguous source chunks. No word
//! of the file, the shard count included, can raise that count, and a worker that cannot be
//! spawned runs its chunk inline, so a decode never panics for lack of threads. Every
//! tree's `dist`, `parent` and `order` buffers and every table's row offsets and values are
//! allocated on the calling thread and only filled by the workers, so they come from one
//! allocator arena and a later boot reuses their memory; what adoption derives from them
//! (the Euler times and, weighted, the hop depths) and each worker's scratch are allocated
//! on the worker. A boot adopts each source's tree buffers through
//! [`CanonicalTree::from_raw`], and its rows, with the offsets written while they were
//! expanded, through [`ReplacementDistances::from_flat_parts`]. Errors are reported in
//! source order whatever the chunking, so a corrupt file fails with the same [`SnapError`]
//! on every machine.
//!
//! # Fail closed
//!
//! Decoding never panics and never returns a silently wrong oracle: any corrupt,
//! truncated, or version-skewed input yields a typed [`SnapError`]. Validation is layered:
//!
//! 1. magic, version (exact match), kind and file length;
//! 2. the whole-file checksum, then the section table (bounds, 8-alignment, no overlaps,
//!    no duplicates), then every section checksum; both checksum layers are computed in
//!    one fused pass over the file, and the whole-file checksum is still reported ahead of
//!    any table or section error;
//! 3. META: the id width must be the one n fixes, the row width one of 1, 2, 4, 8 and no
//!    wider than the metric's distance, and every section a whole number of its words;
//! 4. the common arrays: sources in range and distinct, shard lengths non-zero summing to
//!    σ, the CSR arrays through [`CsrGraph::from_raw_parts`];
//! 5. each tree: the parent words are proven — the root has none, every other one names a
//!    graph neighbour of its child — and then a hop tree is derived (`derive_bfs_tree`) or
//!    a weighted tree's stored `dist` and settle order are checked
//!    (`validate_dijkstra_tree`). A lied parent word (a grandparent, the vertex itself, a
//!    non-neighbour, a deeper neighbour, a cycle, `NO_PARENT` on a reachable vertex, a
//!    parent on an unreachable one) fails here instead of answering wrongly or looping in a
//!    path walk;
//! 6. the row gate, before any row buffer exists: `Σ depth(t) × row width` over all trees
//!    must fill ROWS exactly, which bounds memory and proves hop depths;
//! 7. each row entry: `d(t) + δ` is a checked add, and a finite entry that overflows or
//!    reaches the metric's infinity fails. So no entry below `d(t)` can be stored at all.
//!
//! Like row values, the choice among equally short parents is content only the checksums
//! guard: proving the first-settled parent would scan every CSR row once per source, as
//! much work as the rest of the decode. So by the time [`ReplacementOracle::from_parts`]
//! (which asserts) is called, its preconditions are proven. `tests/snapshot_fuzz.rs` pins
//! this: every seeded bit flip, truncation, section-offset lie, width lie and version bump
//! must round-trip bit-identically or fail closed.

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

use codec::{Codec, Envelope, GraphArrays, TreeBuffers, Width, Word, Words};

/// The 8-byte file magic.
pub const SNAP_MAGIC: [u8; 8] = *b"MSRPSNAP";
/// The current (and only supported) format version. Bump on any layout change: decoding
/// is exact-match, never "best effort" across versions.
pub const SNAP_VERSION: u32 = 3;

/// Byte offset of the whole-file checksum field (excluded from its own computation).
const FILE_CHECKSUM_OFFSET: usize = 32;
/// Fixed header size in bytes (the section table starts here).
const HEADER_BYTES: usize = 40;
/// Size of one section-table entry in bytes.
const TABLE_ENTRY_BYTES: usize = 32;
/// META's `u64` words: n, σ, shard count, entry total, id width, row width.
const META_WORDS: usize = 6;

// Section ids. Hop files hold no GRAPH_WEIGHTS, TREE_DIST or TREE_ORDER section.
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
    /// range, duplicate sources, widths META cannot claim, row totals that do not match
    /// the trees, a row entry that does not fit its distance, …).
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

/// Words the BFS sweep of [`derive_bfs_tree`] and the row passes of [`rewrite_rows`] copy
/// per step as one fixed-width block.
const CHUNK: usize = 8;

/// Writes `parts` back to back into `payload` as `width`-byte words, filling it exactly;
/// `W::MAX` becomes the all-ones word of the width. The one writer of every section.
///
/// # Panics
///
/// Panics if the words do not fill the section exactly, or if a word other than `W::MAX`
/// does not fit below the all-ones word of the width: the encoder lays out every section
/// and picks every width from the data, so either is a bug in this crate.
fn put_words<'w, W: Word>(
    payload: &mut [u8],
    width: Width,
    parts: impl IntoIterator<Item = &'w [W]>,
) {
    let mut rest = payload;
    for words in parts {
        let len = width.bytes() * words.len();
        assert!(len <= rest.len(), "section layout disagrees with its contents");
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        match width.bytes() {
            1 => put_narrow::<1, W>(head, words),
            2 => put_narrow::<2, W>(head, words),
            4 => put_narrow::<4, W>(head, words),
            _ => put_narrow::<8, W>(head, words),
        }
        rest = tail;
    }
    assert!(rest.is_empty(), "section layout disagrees with its contents");
}

/// [`put_words`] at a width of `B` bytes, compiled once per width.
fn put_narrow<const B: usize, W: Word>(dst: &mut [u8], words: &[W]) {
    let sentinel = Width(B).sentinel();
    // One check after the loop, not one per word, so the loop has no exit to vectorize
    // around.
    let mut wide = false;
    for (chunk, &w) in dst.chunks_exact_mut(B).zip(words) {
        let word = if w == W::MAX { sentinel } else { w.into() };
        wide |= word >= sentinel && w != W::MAX;
        chunk.copy_from_slice(&word.to_le_bytes()[..B]);
    }
    assert!(!wide, "a word does not fit {B} bytes");
}

/// Writes `f(d(t), entry)` into `dst` for each entry of `src`, which holds one source's
/// rows in `tree`'s row shapes (row `t` is the next `depth(t)` entries, in vertex order);
/// `f` returns the new entry and whether the old one was valid, and must not panic on an
/// entry of another row. Calls `row_end` with the running entry count after each row, and
/// stops at the first row holding an invalid entry, returning its target. `dst` ends
/// holding `src.len()` entries; it is used up to `CHUNK` entries past them, so it needs
/// that much spare capacity to stay where it was allocated.
///
/// Rows are a few entries long, so a loop over each row's entries mispredicts its exit on
/// most rows. A row of at most [`CHUNK`] entries instead writes one fixed block of
/// `CHUNK`, the rows after it overwriting the excess: 8.5 against 11.1 ms for the deltas of
/// 512 sources at n = 2048 (one thread of a 2-vCPU Xeon). Rewriting in place would read
/// each block across the previous block's store and run slower than the plain loop.
fn rewrite_rows<M: Codec>(
    tree: &CanonicalTree<M>,
    src: &[M::Dist],
    dst: &mut Vec<M::Dist>,
    mut row_end: impl FnMut(usize),
    f: impl Fn(u64, M::Dist) -> (M::Dist, bool),
) -> Result<(), Vertex> {
    dst.clear();
    dst.resize(src.len() + CHUNK, M::INFINITY);
    let mut start = 0;
    for t in 0..tree.vertex_count() {
        let len = tree.depth(t);
        let base: u64 = tree.distance_or_infinite(t).into();
        let mut valid = true;
        if len <= CHUNK && start + CHUNK <= src.len() {
            let from: &[M::Dist; CHUNK] =
                src[start..start + CHUNK].try_into().expect("a CHUNK-entry block");
            let to: &mut [M::Dist; CHUNK] =
                (&mut dst[start..start + CHUNK]).try_into().expect("a CHUNK-entry block");
            for (i, (to, &from)) in to.iter_mut().zip(from).enumerate() {
                let (new, ok) = f(base, from);
                valid &= ok | (i >= len);
                *to = new;
            }
        } else {
            let rows = dst[start..start + len].iter_mut().zip(&src[start..start + len]);
            for (to, &from) in rows {
                let (new, ok) = f(base, from);
                valid &= ok;
                *to = new;
            }
        }
        if !valid {
            return Err(t);
        }
        start += len;
        row_end(start);
    }
    dst.truncate(src.len());
    Ok(())
}

/// Source `tree`'s rows as the ROWS section stores them, row after row, into `out`: each
/// finite entry as its excess `δ = value − d(t)` over the fault-free distance, the
/// metric's infinity as it is.
///
/// # Panics
///
/// Panics on an entry below `d(t)`: no path avoiding an edge is shorter than the shortest
/// path, so such a table is not a replacement table.
fn row_deltas<M: Codec>(
    tree: &CanonicalTree<M>,
    table: &ReplacementDistances<M>,
    out: &mut Vec<M::Dist>,
) {
    let delta = |base: u64, value: M::Dist| {
        if value == M::INFINITY {
            return (value, true);
        }
        let value: u64 = value.into();
        (M::Dist::from_u64(value.wrapping_sub(base)), value >= base)
    };
    let below = rewrite_rows(tree, table.values(), out, |_| {}, delta);
    below.expect("a replacement distance below the fault-free one");
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

/// Serializes a frozen graph plus its per-shard oracles into one snapshot buffer, vertex ids
/// and row deltas at the narrowest widths the data allows (see the crate docs).
///
/// The shard split is preserved (see the `SHARD_LENS` section), so a serving process can
/// rebuild its sharded oracle with the exact same source partition the builder used. Both
/// the exact and the Bernstein–Karger construction routes produce hop tables; the snapshot
/// does not care which one paid for them.
///
/// Every section size follows from σ, n, the graph arrays, the settle-order lengths
/// (weighted only), the entry count and the two widths, so the file is laid out first and
/// each array is then written once, straight into its place in the returned buffer.
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
    let entry_total: usize = shards.iter().map(|s| s.entry_count()).sum();
    let ids = Width::of_ids(n);
    let dist = Width::full::<M::Dist>();
    let tree_bytes = |id| match id {
        SEC_TREE_DIST => dist.bytes() * sigma * n,
        SEC_TREE_PARENT => ids.bytes() * sigma * n,
        _ => ids.bytes() * order_total,
    };
    let mut layout = vec![
        (SEC_META, 8 * META_WORDS),
        (SEC_GRAPH_OFFSETS, 4 * offsets.len()),
        (SEC_GRAPH_TARGETS, ids.bytes() * targets.len()),
    ];
    if let Some(weights) = weights {
        layout.push((SEC_GRAPH_WEIGHTS, 8 * weights.len()));
    }
    layout.extend([(SEC_SOURCES, ids.bytes() * sigma), (SEC_SHARD_LENS, 4 * shards.len())]);
    layout.extend(M::TREE_SECTIONS.iter().map(|&id| (id, tree_bytes(id))));

    // Rows are tried one byte wide first, which the deltas of hop files at the serving
    // shape fit, so finding the width takes no pass of its own; a wider delta lays the
    // file out once more at the narrowest width that holds them all.
    let mut rows = Width::narrowest::<M::Dist>(0);
    loop {
        let mut file = FileWriter::new(
            M::KIND,
            &[&layout[..], &[(SEC_ROWS, rows.bytes() * entry_total)]].concat(),
        );
        let meta =
            [n, sigma, shards.len(), entry_total, ids.bytes(), rows.bytes()].map(|w| w as u64);
        put_words(file.payload(SEC_META), Width::full::<u64>(), [&meta[..]]);
        put_words(file.payload(SEC_GRAPH_OFFSETS), Width::full::<u32>(), [offsets]);
        put_words(file.payload(SEC_GRAPH_TARGETS), ids, [targets]);
        if let Some(weights) = weights {
            put_words(file.payload(SEC_GRAPH_WEIGHTS), Width::full::<u64>(), [weights]);
        }
        put_words(file.payload(SEC_SOURCES), ids, [&sources[..]]);
        put_words(file.payload(SEC_SHARD_LENS), Width::full::<u32>(), [&shard_lens[..]]);
        for &id in M::TREE_SECTIONS {
            let payload = file.payload(id);
            match id {
                SEC_TREE_DIST => put_words(payload, dist, trees().map(|t| t.distances())),
                SEC_TREE_PARENT => put_words(payload, ids, trees().map(|t| t.parents_raw())),
                _ => put_words(payload, ids, trees().map(|t| t.order())),
            }
        }
        match put_rows(file.payload(SEC_ROWS), rows, trees().zip(tables())) {
            Ok(()) => return file.finish(),
            Err(wider) => rows = wider,
        }
    }
}

/// Writes every source's row deltas into ROWS at `width`; when some delta does not fit,
/// returns instead the narrowest width that holds every delta. The sources' deltas are
/// computed on `min(σ, available_parallelism())` scoped workers, each writing its own
/// sources' stretch of ROWS.
fn put_rows<'a, M: Codec>(
    payload: &mut [u8],
    width: Width,
    sources: impl Iterator<Item = (&'a CanonicalTree<M>, &'a ReplacementDistances<M>)>,
) -> Result<(), Width> {
    let mut rest = payload;
    let mut parts: Vec<_> = sources
        .map(|(tree, table)| {
            let len = width.bytes() * table.entry_count();
            assert!(len <= rest.len(), "section layout disagrees with its contents");
            let (bytes, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (tree, table, bytes)
        })
        .collect();
    assert!(rest.is_empty(), "section layout disagrees with its contents");
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let largest = on_workers(&mut parts, workers, |_, chunk| {
        let mut deltas = Vec::new();
        let mut largest = 0;
        for (tree, table, bytes) in chunk {
            row_deltas(tree, table, &mut deltas);
            let finite = deltas.iter().filter(|&&d| d != M::INFINITY);
            largest = finite.fold(largest, |largest, &d| largest.max(d.into()));
            if largest < width.sentinel() {
                put_words(bytes, width, [&deltas[..]]);
            }
        }
        largest
    });
    let largest = largest.into_iter().max().unwrap_or(0);
    if largest >= width.sentinel() {
        return Err(Width::narrowest::<M::Dist>(largest));
    }
    Ok(())
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
    let targets = Words::<u32>::of(&envelope, SEC_GRAPH_TARGETS, common.ids)?;
    Ok(SnapInfo {
        kind: envelope.kind,
        vertex_count: common.n,
        edge_count: targets.len() / 2,
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
    /// The width of every vertex-id array: the one n fixes.
    ids: Width,
    /// The width of the row deltas: one of 1, 2, 4 or 8 bytes.
    rows: Width,
}

fn decode_common(envelope: &Envelope<'_>) -> Result<CommonParts, SnapError> {
    let meta = Words::<u64>::of(envelope, SEC_META, Width::full::<u64>())?.all();
    if meta.len() != META_WORDS {
        return Err(structure(format!("META holds {} words, expected {META_WORDS}", meta.len())));
    }
    let n = usize::try_from(meta[0]).map_err(|_| structure("vertex count overflows"))?;
    let sigma = usize::try_from(meta[1]).map_err(|_| structure("source count overflows"))?;
    let shard_count = usize::try_from(meta[2]).map_err(|_| structure("shard count overflows"))?;
    let entry_total = meta[3];
    let ids = Width::of_ids(n);
    if meta[4] != ids.bytes() as u64 {
        return Err(structure(format!(
            "META claims {}-byte vertex ids, {n} vertices take {}",
            meta[4],
            ids.bytes()
        )));
    }
    let rows = Width::from_meta(meta[5])
        .ok_or_else(|| structure(format!("META claims {}-byte row entries", meta[5])))?;

    let sources_raw = Words::<u32>::of(envelope, SEC_SOURCES, ids)?.all();
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

    let shard_lens_raw = Words::<u32>::of(envelope, SEC_SHARD_LENS, Width::full::<u32>())?.all();
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
        ids,
        rows,
    })
}

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

    let offsets = Words::<u32>::of(&envelope, SEC_GRAPH_OFFSETS, Width::full::<u32>())?;
    if offsets.len() != n + 1 {
        return Err(structure(format!(
            "META claims {n} vertices, offsets array holds {}",
            offsets.len()
        )));
    }
    let targets = Words::<u32>::of(&envelope, SEC_GRAPH_TARGETS, common.ids)?;
    let graph = M::graph_from_sections(&envelope, offsets.all(), targets.all())?;

    let parents = Words::<u32>::of(&envelope, SEC_TREE_PARENT, common.ids)?;
    if sigma.checked_mul(n) != Some(parents.len()) {
        return Err(structure("tree arrays do not hold σ·n entries"));
    }
    let stored = M::stored_trees(&envelope, common.ids, sigma, n)?;
    let rows = Words::<M::Dist>::of(&envelope, SEC_ROWS, common.rows)?;
    if rows.len() as u64 != common.entry_total {
        return Err(structure(format!(
            "META claims {} row entries, section holds {}",
            common.entry_total,
            rows.len()
        )));
    }
    // Every buffer the payloads are decoded into (dist, parent, order, row offsets and
    // values) is allocated on this thread and only filled by the workers: a worker's
    // allocations land in its own allocator arena, which a later boot does not reuse
    // (worker-allocated buffers raised the batch_sigma512 benchmark's peak RSS from ~140
    // to ~161 MB on a 2-vCPU host).

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
            parents.read_into(i * n..(i + 1) * n, &mut buffers.1);
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
    // totals, at the row width, fit the (file-size-bounded) ROWS section and fill it
    // exactly. This also proves hop depths: `derive_bfs_tree` accepts no tree shallower
    // than BFS, so a parent that is not one level up raises the total past the entries the
    // encoder wrote.
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
            // above, the ROWS section holds every entry, which here is more than 4 GiB.
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

    // Per source: widen the row deltas into the worker's scratch and add each row's d(t)
    // back into the table's buffer, writing the row offsets on the way. The gate proved
    // each span holds exactly its tree's row total, and that the total fits a `u32`, so
    // neither of the table constructor's panics can fire. Errors surface in source order,
    // as above.
    let mut row_buffers: Vec<(Vec<u32>, Vec<M::Dist>)> = row_spans
        .iter()
        .map(|span| (Vec::with_capacity(n + 1), Vec::with_capacity(span.len() + CHUNK)))
        .collect();
    let largest_delta = common.rows.sentinel() - 1;
    let expanded = on_workers(&mut row_buffers, workers, |first, chunk| {
        let mut deltas = Vec::new();
        for (i, (offsets, values)) in (first..).zip(chunk) {
            deltas.clear();
            rows.read_into(row_spans[i].clone(), &mut deltas);
            add_back_distances(&trees[i], &deltas, largest_delta, offsets, values)?;
        }
        Ok(())
    });
    expanded.into_iter().collect::<Result<(), SnapError>>()?;
    let tables = trees
        .iter()
        .zip(row_buffers)
        .map(|(tree, (offsets, flat))| ReplacementDistances::from_flat_parts(tree, offsets, flat))
        .collect();
    let shards = split_shards(common.sources, trees, tables, &common.shard_lens);
    Ok(Snapshot { graph, shards })
}

/// Turns one source's widened row `deltas` into its row values in `values`, adding each
/// row's `d(t)` to its finite entries, and writes the table's row offsets on the way. A
/// finite entry whose sum overflows or reaches the metric's infinity is a lie: the
/// encoder never writes one. `largest_delta` is the largest finite delta the row width
/// holds.
fn add_back_distances<M: Codec>(
    tree: &CanonicalTree<M>,
    deltas: &[M::Dist],
    largest_delta: u64,
    offsets: &mut Vec<u32>,
    values: &mut Vec<M::Dist>,
) -> Result<(), SnapError> {
    let infinity: u64 = M::INFINITY.into();
    offsets.push(0);
    // The row gate proved every source's entry total fits a `u32`.
    let row_end = |end: usize| offsets.push(end as u32);
    let add_back = |base: u64, delta: M::Dist| {
        if delta == M::INFINITY {
            return (delta, true);
        }
        let (sum, overflow) = base.overflowing_add(delta.into());
        (M::Dist::from_u64(sum), !overflow && sum < infinity)
    };
    // The settle order is non-decreasing in distance, so its last vertex is the deepest.
    // When even its distance plus the largest delta stays below infinity, as it does for
    // hop rows at the serving shape, no entry can fail, and the check is left out: the
    // rows then expand in about half the time.
    let deepest = tree.order().last().expect("the root is settled");
    let deepest: u64 = tree.distance_or_infinite(*deepest as usize).into();
    let result = if deepest.checked_add(largest_delta).is_some_and(|sum| sum < infinity) {
        rewrite_rows(tree, deltas, values, row_end, |base, delta| (add_back(base, delta).0, true))
    } else {
        rewrite_rows(tree, deltas, values, row_end, add_back)
    };
    result.map_err(|t| {
        let s = tree.source();
        structure(format!("a row entry of target {t} of source {s} does not fit its distance"))
    })
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
/// per-metric items (kind, graph arrays, distance word, persisted tree sections, tree
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

    /// An in-memory word type a section decodes into: `u32` (ids, CSR offsets, shard
    /// lengths, hop distances) or `u64` (META, weights, weighted distances).
    pub trait Word: Copy + Eq + Into<u64> + 'static {
        /// Width in bytes, the widest a section of this type is stored at.
        const BYTES: usize;
        /// The all-ones value: [`NO_PARENT`] or the metric's infinity.
        const MAX: Self;
        /// `word`, which fits: a reader is never wider than [`BYTES`](Self::BYTES).
        fn from_u64(word: u64) -> Self;
    }

    impl Word for u32 {
        const BYTES: usize = 4;
        const MAX: u32 = u32::MAX;
        #[inline]
        fn from_u64(word: u64) -> u32 {
            word as u32
        }
    }

    impl Word for u64 {
        const BYTES: usize = 8;
        const MAX: u64 = u64::MAX;
        #[inline]
        fn from_u64(word: u64) -> u64 {
            word
        }
    }

    /// A stored word width: 1, 2, 4 or 8 little-endian bytes. Its all-ones word is the
    /// sentinel, read back as the wider type's all-ones value ([`Word::MAX`]), so every
    /// width carries [`NO_PARENT`] and the metrics' infinities.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct Width(pub(crate) usize);

    impl Width {
        /// The full width of `W`.
        pub fn full<W: Word>() -> Width {
            Width(W::BYTES)
        }

        /// The width of a graph's vertex ids: 2 bytes up to n = `0xFFFF` (the all-ones
        /// word is then free for [`NO_PARENT`]), else 4.
        pub fn of_ids(n: usize) -> Width {
            if n <= 0xFFFF {
                Width(2)
            } else {
                Width(4)
            }
        }

        /// The narrowest width, no wider than `W`, whose words below the sentinel hold
        /// `largest`. Every value below `W::MAX` fits the full width.
        pub fn narrowest<W: Word>(largest: u64) -> Width {
            [1, 2, 4, 8]
                .map(Width)
                .into_iter()
                .find(|w| w.0 <= W::BYTES && largest < w.sentinel())
                .expect("a value below W::MAX fits W's own width")
        }

        /// The width META's `word` names, if it is one.
        pub fn from_meta(word: u64) -> Option<Width> {
            matches!(word, 1 | 2 | 4 | 8).then_some(Width(word as usize))
        }

        pub fn bytes(self) -> usize {
            self.0
        }

        /// The all-ones word of this width.
        pub fn sentinel(self) -> u64 {
            u64::MAX >> (64 - 8 * self.0)
        }
    }

    /// The arrays a graph is persisted as: its CSR offsets and targets, plus the edge
    /// weights of a weighted graph.
    pub struct GraphArrays<'g> {
        pub offsets: &'g [u32],
        pub targets: &'g [u32],
        pub weights: Option<&'g [u64]>,
    }

    /// A checksum-verified payload read as little-endian words of a [`Width`], each
    /// widened into a `W`, decoded on demand straight into the buffer that keeps them. The
    /// one reader of every section.
    pub struct Words<'a, W> {
        bytes: &'a [u8],
        width: Width,
        word: PhantomData<fn() -> W>,
    }

    impl<'a, W: Word> Words<'a, W> {
        /// Section `id` of `envelope` read at `width`, which must hold a whole number of
        /// words no wider than `W`.
        pub fn of(envelope: &Envelope<'a>, id: u32, width: Width) -> Result<Self, SnapError> {
            let bytes = envelope.section(id)?;
            if width.0 > W::BYTES {
                return Err(structure(format!(
                    "section {id} claims {}-byte words, wider than {}",
                    width.0,
                    W::BYTES
                )));
            }
            if !bytes.len().is_multiple_of(width.0) {
                return Err(structure(format!(
                    "section {id} length {} is not a {}-byte multiple",
                    bytes.len(),
                    width.0
                )));
            }
            Ok(Words { bytes, width, word: PhantomData })
        }

        pub fn len(&self) -> usize {
            self.bytes.len() / self.width.0
        }

        /// Appends words `range` to `out`; panics if it is out of bounds.
        pub fn read_into(&self, range: Range<usize>, out: &mut Vec<W>) {
            let bytes = &self.bytes[range.start * self.width.0..range.end * self.width.0];
            match self.width.0 {
                1 => widen::<1, W>(bytes, out),
                2 => widen::<2, W>(bytes, out),
                4 => widen::<4, W>(bytes, out),
                _ => widen::<8, W>(bytes, out),
            }
        }

        pub fn all(&self) -> Vec<W> {
            let mut out = Vec::with_capacity(self.len());
            self.read_into(0..self.len(), &mut out);
            out
        }
    }

    /// Appends the `B`-byte words of `bytes` to `out`, the all-ones word as `W::MAX`:
    /// [`Words::read_into`] compiled once per width.
    fn widen<const B: usize, W: Word>(bytes: &[u8], out: &mut Vec<W>) {
        let sentinel = Width(B).sentinel();
        out.extend(bytes.chunks_exact(B).map(|chunk| {
            let mut word = [0u8; 8];
            word[..B].copy_from_slice(chunk);
            match u64::from_le_bytes(word) {
                word if word == sentinel => W::MAX,
                word => W::from_u64(word),
            }
        }));
    }

    /// One source's tree buffers `(dist, parent, order)`: allocated by the decoding thread
    /// with room for n entries each, filled by a worker.
    pub type TreeBuffers<M> = (Vec<<M as Metric>::Dist>, Vec<u32>, Vec<u32>);

    /// What the codec needs of a metric beyond [`Metric`]; distances decode into `Dist`
    /// words, and rows into `Dist` words of their row width.
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
        /// their lengths; vertex ids are `ids` wide.
        fn stored_trees<'a>(
            envelope: &Envelope<'a>,
            ids: Width,
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
        fn stored_trees(_: &Envelope<'_>, _: Width, _: usize, _: usize) -> Result<(), SnapError> {
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
            let weights = Words::<u64>::of(envelope, SEC_GRAPH_WEIGHTS, Width::full::<u64>())?;
            let weights = weights.all();
            Ok(WeightedCsrGraph::from_raw_parts(offsets, targets, weights)?)
        }
        /// Source i's settle order is the next (reachable count of i) words; the counts sum
        /// to at most σ·n, which fits, and must fill the order section exactly.
        fn stored_trees<'a>(
            envelope: &Envelope<'a>,
            ids: Width,
            sigma: usize,
            n: usize,
        ) -> Result<Self::Stored<'a>, SnapError> {
            let dist = Words::of(envelope, SEC_TREE_DIST, Width::full::<u64>())?;
            if dist.len() != sigma * n {
                return Err(structure("tree arrays do not hold σ·n entries"));
            }
            let order = Words::of(envelope, SEC_TREE_ORDER, ids)?;
            let mut ends = vec![0];
            let mut tree_dist = Vec::with_capacity(n);
            for i in 0..sigma {
                tree_dist.clear();
                dist.read_into(i * n..(i + 1) * n, &mut tree_dist);
                ends.push(ends[i] + tree_dist.iter().filter(|&&d| d != INFINITE_WEIGHT).count());
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
            dists.read_into(i * n..(i + 1) * n, &mut dist);
            orders.read_into(ends[i]..ends[i + 1], &mut order);
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
    fn the_width_picker_takes_the_narrowest_width_that_holds_the_largest_word() {
        // Each width's all-ones word is the sentinel, so its largest finite word is one less.
        for (largest, hop, weighted) in [
            (0, 1, 1),
            (0xFE, 1, 1),
            (0xFF, 2, 2),
            (0xFFFE, 2, 2),
            (0xFFFF, 4, 4),
            (0xFFFF_FFFE, 4, 4),
            (0xFFFF_FFFF, 4, 8),
            (u64::MAX - 1, 4, 8),
        ] {
            if largest < u64::from(u32::MAX) {
                assert_eq!(Width::narrowest::<u32>(largest), Width(hop), "{largest:#x}");
            }
            assert_eq!(Width::narrowest::<u64>(largest), Width(weighted), "{largest:#x}");
        }
        assert_eq!(Width::of_ids(1), Width(2));
        assert_eq!(Width::of_ids(0xFFFF), Width(2));
        assert_eq!(Width::of_ids(0x1_0000), Width(4));
        for word in [0, 3, 5, 16, u64::MAX] {
            assert_eq!(Width::from_meta(word), None, "{word}");
        }
    }

    /// Writes `words` at `width` and reads them back.
    fn narrow_round_trip<W: Word>(width: Width, words: &[W]) -> (Vec<u8>, Vec<W>) {
        let mut bytes = vec![0u8; width.bytes() * words.len()];
        put_words(&mut bytes, width, [words]);
        let envelope = Envelope { kind: SnapKind::HopMetric, sections: vec![(SEC_ROWS, &bytes)] };
        let back = Words::<W>::of(&envelope, SEC_ROWS, width).unwrap().all();
        (bytes, back)
    }

    #[test]
    fn narrow_words_round_trip_at_every_width_with_their_sentinel() {
        for bytes in [1, 2, 4, 8] {
            let width = Width(bytes);
            let largest = width.sentinel() - 1;
            let words = [0, 1, largest, u64::MAX, largest / 2, u64::MAX];
            let (stored, back) = narrow_round_trip(width, &words);
            assert_eq!(back, words, "{bytes}-byte u64 words");
            // The sentinel is the all-ones word of the width, not of the type.
            assert_eq!(&stored[3 * bytes..4 * bytes], &vec![0xFF; bytes][..]);
            assert_eq!(&stored[2 * bytes..3 * bytes], &largest.to_le_bytes()[..bytes]);
            if bytes <= 4 {
                let words = [0, largest as u32, u32::MAX, 7];
                assert_eq!(narrow_round_trip(width, &words).1, words, "{bytes}-byte u32 words");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a word does not fit 1 bytes")]
    fn a_word_at_the_sentinel_is_not_written_as_finite() {
        narrow_round_trip(Width(1), &[0xFFu32]);
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

    /// META word `i` of `bytes`.
    fn meta_word(bytes: &[u8], i: usize) -> u64 {
        let meta = read_table(bytes).unwrap().into_iter().find(|e| e.id == SEC_META).unwrap();
        u64_le(bytes, meta.extent.start + 8 * i)
    }

    /// Makes the first non-root vertex of source `i`'s tree its own parent.
    fn lie_about_a_parent(g: &Graph, shards: &[ReplacementPathOracle], bytes: &mut [u8], i: usize) {
        let n = g.vertex_count();
        let trees: Vec<_> = shards.iter().flat_map(|s| s.trees()).collect();
        let parent = read_table(bytes).unwrap().into_iter().find(|e| e.id == SEC_TREE_PARENT);
        let v = (0..n).find(|&v| trees[i].parent(v).is_some()).unwrap();
        let ids = meta_word(bytes, 4) as usize;
        let at = parent.unwrap().extent.start + ids * (i * n + v);
        bytes[at..at + ids].copy_from_slice(&(v as u32).to_le_bytes()[..ids]);
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
        let row_bytes = meta_word(&bytes, 5) * kept as u64;
        bytes[at..at + 8].copy_from_slice(&row_bytes.to_le_bytes());
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
