//! `msrp-snap`: versioned, checksummed binary snapshots of frozen graphs and oracles.
//!
//! A serving process should boot by *adopting* the immutable state a builder already paid
//! for — the frozen [`CsrGraph`] / [`WeightedCsrGraph`] and the per-source replacement
//! tables of the Bernstein–Karger (or exact, or weighted) oracle — instead of re-running
//! minutes of preprocessing. This crate defines that interchange format and its two
//! round-trip halves, [`encode_snapshot`] / [`decode_snapshot`]: one encoder and one decoder,
//! generic over the metric ([`SnapMetric`]: [`Hop`] or [`Weighted`]), whose per-metric
//! items are the kind word, the graph sections, the word width of distances and rows, and
//! the settle-order key the decoder checks.
//!
//! # Layout
//!
//! Everything is fixed-width little-endian words, and every section payload starts on an
//! 8-byte boundary:
//!
//! ```text
//! offset  size  field
//!      0     8  magic "MSRPSNAP"
//!      8     4  format version (u32, currently 1)
//!     12     4  kind (u32: 0 = hop metric, 1 = weighted)
//!     16     4  section count k (u32)
//!     20     4  reserved (0)
//!     24     8  file length in bytes (u64)
//!     32     8  whole-file FNV-1a-64 checksum (computed with these 8 bytes excluded)
//!     40  32·k  section table: k × { id u32, reserved u32, offset u64, len u64, fnv u64 }
//!      …     …  section payloads, 8-byte aligned, zero-padded between sections
//! ```
//!
//! The section-table indirection plus the fixed word widths make the format *zero-copy
//! ready*: a loader may validate the checksums and then reinterpret each payload in place
//! as a `&[u32]` / `&[u64]` slice. The loader in this crate stays inside the workspace's
//! `#![forbid(unsafe_code)]` wall, so it copies each (already 8-aligned) payload into a
//! `Vec` with `chunks_exact` — the layout supports the mmap route, the reference
//! implementation does not need it to hit its speedup budget (see `BENCH_snapshot.json`).
//!
//! What is persisted is deliberately minimal. Trees are stored as the raw buffers they
//! hold in memory (`dist`, sentinel-encoded `u32` `parent`, `u32` settle `order`), and a
//! boot adopts each source's validated slices as they are through
//! [`CanonicalTree::from_raw`], which only adds the Euler times (and, weighted, the hop
//! depths); replacement tables are stored as their flat row values only, because the row
//! *shapes* are a function of the tree (row length = hop depth, which is the hop distance
//! in the unweighted oracle). The graph is stored
//! as its raw CSR arrays, which [`CsrGraph::from_raw_parts`] revalidates structurally on
//! load.
//!
//! # Fail closed
//!
//! Decoding never panics and never returns a silently wrong oracle: any corrupt,
//! truncated, or version-skewed input yields a typed [`SnapError`]. Validation is layered
//! — magic, version, kind, file length, whole-file checksum, section-table bounds,
//! per-section checksums, then structural validation of every decoded array. For each
//! tree that last rung proves the root settles first, the settle order names exactly the
//! reachable vertices and settles every parent before its child (hop: in BFS queue order;
//! weighted: in non-decreasing distance), unreachable vertices have no parent, and every
//! reachable non-root vertex hangs off its parent by a graph edge with
//! `dist[parent] + len(edge) == dist[vertex]`. A parent word that lies (a grandparent,
//! the vertex itself, a non-neighbour, `NO_PARENT` on a reachable vertex, a parent on an
//! unreachable one) fails here instead of answering wrongly or looping in a path walk.
//! Like row values, the choice among equally short parents that keeps the settle order
//! consistent is content only the checksums guard: proving the first-settled parent would
//! scan every CSR row once per source, as much work as the rest of the decode. All this
//! holds so that by the time [`ReplacementOracle::from_parts`] (which asserts) is
//! called, its preconditions are already proven. The corruption fuzz battery in
//! `tests/snapshot_fuzz.rs` pins this: every seeded bit flip, truncation, section-offset
//! lie, and version bump must either round-trip bit-identically or fail closed here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use msrp_graph::{
    CanonicalTree, CsrGraph, GraphError, Hop, Metric, Vertex, Weighted, WeightedCsrGraph, NO_PARENT,
};
use msrp_oracle::ReplacementOracle;
use msrp_rpath::ReplacementDistances;

use codec::{Codec, Envelope, Word};

/// The 8-byte file magic.
pub const SNAP_MAGIC: [u8; 8] = *b"MSRPSNAP";
/// The current (and only supported) format version. Bump on any layout change: decoding
/// is exact-match, never "best effort" across versions.
pub const SNAP_VERSION: u32 = 1;

/// Byte offset of the whole-file checksum field (excluded from its own computation).
const FILE_CHECKSUM_OFFSET: usize = 32;
/// Fixed header size in bytes (the section table starts here).
const HEADER_BYTES: usize = 40;
/// Size of one section-table entry in bytes.
const TABLE_ENTRY_BYTES: usize = 32;

// Section ids. The weighted kind reuses the tree/row ids with wider words.
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

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_words<W: Word>(dst: &mut Vec<u8>, words: impl IntoIterator<Item = W>) {
    for w in words {
        w.put(dst);
    }
}

/// Lays out header + section table + 8-aligned payloads and stamps both checksum layers.
fn assemble(kind: SnapKind, sections: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
    let table_end = HEADER_BYTES + TABLE_ENTRY_BYTES * sections.len();
    // Place payloads: each starts at the next 8-byte boundary after the previous one.
    let mut placed = Vec::with_capacity(sections.len());
    let mut cursor = table_end; // table_end is 8-aligned (40 + 32k)
    for (id, payload) in &sections {
        placed.push((*id, cursor, payload.len()));
        cursor += payload.len();
        cursor = (cursor + 7) & !7;
    }
    let file_len = cursor;
    let mut out = vec![0u8; file_len];
    out[0..8].copy_from_slice(&SNAP_MAGIC);
    out[8..12].copy_from_slice(&SNAP_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&kind.code().to_le_bytes());
    out[16..20].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    out[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
    for (i, ((id, offset, len), (_, payload))) in placed.iter().zip(&sections).enumerate() {
        out[*offset..*offset + *len].copy_from_slice(payload);
        let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
        out[entry..entry + 4].copy_from_slice(&id.to_le_bytes());
        out[entry + 8..entry + 16].copy_from_slice(&(*offset as u64).to_le_bytes());
        out[entry + 16..entry + 24].copy_from_slice(&(*len as u64).to_le_bytes());
        out[entry + 24..entry + 32].copy_from_slice(&fnv1a64_lanes(payload).to_le_bytes());
    }
    let checksum = file_checksum(&out);
    out[FILE_CHECKSUM_OFFSET..FILE_CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Serializes a frozen graph plus its per-shard oracles into one snapshot buffer, with the
/// metric's word width for tree distances and rows.
///
/// The shard split is preserved (see the `SHARD_LENS` section), so a serving process can
/// rebuild its sharded oracle with the exact same source partition the builder used. Both
/// the exact and the Bernstein–Karger construction routes produce hop tables; the snapshot
/// does not care which one paid for them.
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
    let sources: Vec<u32> =
        shards.iter().flat_map(|s| s.sources().iter().map(|&v| v as u32)).collect();
    let shard_lens: Vec<u32> = shards.iter().map(|s| s.sources().len() as u32).collect();

    let mut tree_dist = Vec::new();
    let mut tree_parent = Vec::new();
    let mut tree_order = Vec::new();
    let mut rows = Vec::new();
    let mut entry_total: u64 = 0;
    for shard in shards {
        for (tree, table) in shard.trees().iter().zip(shard.per_source()) {
            push_words(&mut tree_dist, tree.distances().iter().copied());
            push_words(&mut tree_parent, tree.parents_raw().iter().copied());
            push_words(&mut tree_order, tree.order().iter().copied());
            for t in 0..n {
                let row = table.row(t);
                push_words(&mut rows, row.iter().copied());
                entry_total += row.len() as u64;
            }
        }
    }

    let mut meta = Vec::new();
    push_words(&mut meta, [n as u64, sources.len() as u64, shards.len() as u64, entry_total]);
    let mut sources_bytes = Vec::new();
    push_words(&mut sources_bytes, sources);
    let mut shard_bytes = Vec::new();
    push_words(&mut shard_bytes, shard_lens);

    let mut sections = vec![(SEC_META, meta)];
    sections.extend(M::graph_sections(g, n));
    sections.extend([
        (SEC_SOURCES, sources_bytes),
        (SEC_SHARD_LENS, shard_bytes),
        (SEC_TREE_DIST, tree_dist),
        (SEC_TREE_PARENT, tree_parent),
        (SEC_TREE_ORDER, tree_order),
        (SEC_ROWS, rows),
    ]);
    assemble(M::KIND, sections)
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

/// Reinterprets a checksum-verified payload as little-endian words of type `W`.
fn words<W: Word>(id: u32, payload: &[u8]) -> Result<Vec<W>, SnapError> {
    if !payload.len().is_multiple_of(W::BYTES) {
        return Err(structure(format!(
            "section {id} length {} is not a {}-byte multiple",
            payload.len(),
            W::BYTES
        )));
    }
    Ok(payload.chunks_exact(W::BYTES).map(W::get).collect())
}

/// Runs the byte-level validation ladder: magic → version → kind → length → file checksum
/// → section-table bounds → per-section checksums. Structural (word-level) validation is
/// the caller's second phase.
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
    let stored = u64_le(bytes, FILE_CHECKSUM_OFFSET);
    let computed = file_checksum(bytes);
    if stored != computed {
        return Err(SnapError::FileChecksum { stored, computed });
    }
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
    let mut sections = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let entry = HEADER_BYTES + TABLE_ENTRY_BYTES * i;
        let id = u32_le(bytes, entry);
        let offset = u64_le(bytes, entry + 8);
        let len = u64_le(bytes, entry + 16);
        let stored = u64_le(bytes, entry + 24);
        if sections.iter().any(|&(sid, _)| sid == id) {
            return Err(table_reason(format!("duplicate section id {id}")));
        }
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
        let payload = &bytes[offset..end];
        let computed = fnv1a64_lanes(payload);
        if stored != computed {
            return Err(SnapError::SectionChecksum { id, stored, computed });
        }
        sections.push((id, payload));
    }
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

/// Validates every checksum layer and reports the snapshot's metadata without
/// reconstructing trees or tables (what `msrpctl list` prints).
pub fn inspect(bytes: &[u8]) -> Result<SnapInfo, SnapError> {
    let envelope = open(bytes)?;
    let meta = words::<u64>(SEC_META, envelope.section(SEC_META)?)?;
    if meta.len() != 4 {
        return Err(structure(format!("META holds {} words, expected 4", meta.len())));
    }
    let targets = envelope.section(SEC_GRAPH_TARGETS)?;
    Ok(SnapInfo {
        kind: envelope.kind,
        vertex_count: usize::try_from(meta[0]).map_err(|_| structure("vertex count overflows"))?,
        edge_count: targets.len() / 4 / 2,
        source_count: usize::try_from(meta[1]).map_err(|_| structure("source count overflows"))?,
        shard_count: usize::try_from(meta[2]).map_err(|_| structure("shard count overflows"))?,
        entry_count: meta[3],
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
    let meta = words::<u64>(SEC_META, envelope.section(SEC_META)?)?;
    if meta.len() != 4 {
        return Err(structure(format!("META holds {} words, expected 4", meta.len())));
    }
    let n = usize::try_from(meta[0]).map_err(|_| structure("vertex count overflows"))?;
    let sigma = usize::try_from(meta[1]).map_err(|_| structure("source count overflows"))?;
    let shard_count = usize::try_from(meta[2]).map_err(|_| structure("shard count overflows"))?;
    let entry_total = meta[3];

    let sources_raw = words::<u32>(SEC_SOURCES, envelope.section(SEC_SOURCES)?)?;
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

    let shard_lens_raw = words::<u32>(SEC_SHARD_LENS, envelope.section(SEC_SHARD_LENS)?)?;
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

/// Validates one tree's raw buffers before the tree adopts them as they are. Proven here:
///
/// * the root has distance 0 and no parent, and settles first;
/// * the settle order names exactly the reachable vertices, each once, and settles every
///   parent before its child, in non-decreasing settle key (hop: `(parent's position, id)`,
///   the BFS queue discipline; weighted: distance, Dijkstra's);
/// * every unreachable vertex has no parent;
/// * every reachable `v ≠ source` hangs off its parent `p` by a graph edge
///   ([`Metric::edge_length`], a binary search of `v`'s sorted CSR row) with
///   `dist[p] + len(p, v) == dist[v]`.
///
/// Settling parents first rules out cycles even under zero weights, and it is the order
/// the depth and Euler-time passes of [`CanonicalTree::from_raw`] rely on; the distance
/// equation makes every tree path a graph path of the stored length. A lied parent word (a
/// grandparent, the vertex itself, a non-neighbour, `NO_PARENT` on a reachable vertex, a
/// parent on an unreachable one) fails here instead of answering wrongly or looping in a
/// path walk. The order pass follows the settle order; the edge pass runs in vertex order,
/// so it reads the CSR rows front to back.
fn validate_tree<M: SnapMetric>(
    graph: &M::Graph,
    source: Vertex,
    dist: &[M::Dist],
    parent: &[u32],
    order: &[u32],
) -> Result<(), SnapError> {
    let n = dist.len();
    let lie = |what: String| Err(structure(format!("tree of source {source} {what}")));
    if dist[source].into() != 0
        || parent[source] != NO_PARENT
        || order.first() != Some(&(source as u32))
    {
        return lie("does not root at its source".into());
    }
    // Settle positions (`u32::MAX` = not settled yet); a parent must already have one.
    let mut pos = vec![u32::MAX; n];
    pos[source] = 0;
    let mut last_key = None;
    for (i, &v) in order.iter().enumerate().skip(1) {
        if v as usize >= n || pos[v as usize] != u32::MAX {
            return lie(format!("has an invalid or repeated settle entry {v}"));
        }
        let p = parent[v as usize] as usize;
        if p >= n || pos[p] == u32::MAX {
            return lie(format!("settles {v} before any parent"));
        }
        let key = M::settle_key(dist, v, pos[p]);
        if last_key.as_ref().is_some_and(|last| *last > key) {
            return lie(format!("settles {v} out of order"));
        }
        last_key = Some(key);
        pos[v as usize] = i as u32;
    }
    for v in 0..n {
        let settled = pos[v] != u32::MAX;
        if (dist[v] != M::INFINITY) != settled {
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
        let tight = M::edge_length(graph, p, v)
            .is_some_and(|len| dist[p].into().checked_add(len.into()) == Some(dist[v].into()));
        if !tight {
            return lie(format!("has no tight edge from {p} to its child {v}"));
        }
    }
    Ok(())
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
pub fn decode_snapshot<M: SnapMetric>(bytes: &[u8]) -> Result<Snapshot<M>, SnapError> {
    let envelope = open(bytes)?;
    if envelope.kind != M::KIND {
        return Err(SnapError::WrongKind { expected: M::KIND, found: envelope.kind });
    }
    let common = decode_common(&envelope)?;
    let n = common.n;
    let sigma = common.sources.len();

    let offsets = words::<u32>(SEC_GRAPH_OFFSETS, envelope.section(SEC_GRAPH_OFFSETS)?)?;
    if offsets.len() != n + 1 {
        return Err(structure(format!(
            "META claims {n} vertices, offsets array holds {}",
            offsets.len()
        )));
    }
    let targets = words::<u32>(SEC_GRAPH_TARGETS, envelope.section(SEC_GRAPH_TARGETS)?)?;
    let graph = M::graph_from_sections(&envelope, offsets, targets)?;

    let tree_dist = words::<M::Dist>(SEC_TREE_DIST, envelope.section(SEC_TREE_DIST)?)?;
    let tree_parent = words::<u32>(SEC_TREE_PARENT, envelope.section(SEC_TREE_PARENT)?)?;
    let tree_order = words::<u32>(SEC_TREE_ORDER, envelope.section(SEC_TREE_ORDER)?)?;
    let rows = words::<M::Dist>(SEC_ROWS, envelope.section(SEC_ROWS)?)?;
    let per_tree = sigma.checked_mul(n).ok_or_else(|| structure("σ·n overflows"))?;
    if tree_dist.len() != per_tree || tree_parent.len() != per_tree {
        return Err(structure("tree arrays do not hold σ·n entries"));
    }
    if rows.len() as u64 != common.entry_total {
        return Err(structure(format!(
            "META claims {} row entries, section holds {}",
            common.entry_total,
            rows.len()
        )));
    }

    // Per-source reconstruction: validate, adopt the tree, derive the row shapes
    // from it, and fill them from the flat stream.
    let mut trees = Vec::with_capacity(sigma);
    let mut tables = Vec::with_capacity(sigma);
    let mut order_cursor = 0usize;
    let mut row_cursor = 0usize;
    for (i, &s) in common.sources.iter().enumerate() {
        let dist = &tree_dist[i * n..(i + 1) * n];
        let parent = &tree_parent[i * n..(i + 1) * n];
        let reachable = dist.iter().filter(|&&d| d != M::INFINITY).count();
        if order_cursor + reachable > tree_order.len() {
            return Err(structure("settle orders overrun their section"));
        }
        let order = &tree_order[order_cursor..order_cursor + reachable];
        order_cursor += reachable;
        validate_tree::<M>(&graph, s, dist, parent, order)?;
        let tree = CanonicalTree::from_raw(s, dist.to_vec(), parent.to_vec(), order.to_vec());
        // Memory-bounding gate: rows are sized by tree depth, and a lied (finite but huge)
        // hop distance, or a crafted path-shaped weighted parent array, makes Σ depth(t)
        // huge or quadratic in n from a kilobyte-sized file. Prove the derived total fits
        // the (file-size-bounded) ROWS section before the table constructor allocates it.
        let tree_rows: u64 = (0..n).map(|t| tree.depth(t) as u64).sum();
        if (row_cursor as u64).saturating_add(tree_rows) > rows.len() as u64 {
            return Err(structure(format!("rows of source {s} overrun their section")));
        }
        // The gate above proved the flat stream holds this source's whole row total, so
        // the bulk constructor's exact-payout panic cannot fire.
        let take = tree_rows as usize;
        let table =
            ReplacementDistances::from_flat_rows(&tree, &rows[row_cursor..row_cursor + take]);
        row_cursor += take;
        trees.push(tree);
        tables.push(table);
    }
    if order_cursor != tree_order.len() {
        return Err(structure("settle-order section has trailing entries"));
    }
    if row_cursor != rows.len() {
        return Err(structure("rows section has trailing entries"));
    }

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
/// per-metric items (kind, graph sections, word width, settle-order key) stay private.
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
    pub trait Word: Copy {
        /// Width in bytes.
        const BYTES: usize;
        /// Appends the word.
        fn put(self, dst: &mut Vec<u8>);
        /// Reads the word from a `BYTES`-long chunk.
        fn get(chunk: &[u8]) -> Self;
    }

    impl Word for u32 {
        const BYTES: usize = 4;
        #[inline]
        fn put(self, dst: &mut Vec<u8>) {
            dst.extend_from_slice(&self.to_le_bytes());
        }
        #[inline]
        fn get(chunk: &[u8]) -> Self {
            u32::from_le_bytes(chunk.try_into().expect("chunk"))
        }
    }

    impl Word for u64 {
        const BYTES: usize = 8;
        #[inline]
        fn put(self, dst: &mut Vec<u8>) {
            dst.extend_from_slice(&self.to_le_bytes());
        }
        #[inline]
        fn get(chunk: &[u8]) -> Self {
            u64::from_le_bytes(chunk.try_into().expect("chunk"))
        }
    }

    /// What the codec needs of a metric beyond [`Metric`]; distances and rows are stored
    /// as `Dist` words.
    pub trait Codec: Metric<Dist: Word> {
        /// The header's kind word.
        const KIND: SnapKind;
        /// Sort key the settle order must be non-decreasing in.
        type SettleKey: Ord;
        /// Settle key of `v`, whose parent settled at position `parent_pos`.
        fn settle_key(dist: &[Self::Dist], v: u32, parent_pos: u32) -> Self::SettleKey;
        /// The graph's sections, in file order, for a graph of `n` vertices.
        fn graph_sections(g: &Self::Graph, n: usize) -> Vec<(u32, Vec<u8>)>;
        /// Rebuilds the graph from its validated-length CSR arrays and its other sections.
        fn graph_from_sections(
            envelope: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<Self::Graph, SnapError>;
    }

    /// The offsets and targets sections of a graph of `n` vertices.
    fn csr_sections(n: usize, offsets: &[u32], targets: &[u32]) -> Vec<(u32, Vec<u8>)> {
        assert_eq!(offsets.len(), n + 1, "shard built over a different graph");
        let mut graph_offsets = Vec::new();
        push_words(&mut graph_offsets, offsets.iter().copied());
        let mut graph_targets = Vec::new();
        push_words(&mut graph_targets, targets.iter().copied());
        vec![(SEC_GRAPH_OFFSETS, graph_offsets), (SEC_GRAPH_TARGETS, graph_targets)]
    }

    impl Codec for Hop {
        const KIND: SnapKind = SnapKind::HopMetric;
        /// BFS queue discipline: children grouped by their parent's settle position,
        /// ascending id within a group, as the top-down kernel appends them.
        type SettleKey = (u32, u32);
        #[inline]
        fn settle_key(_: &[u32], v: u32, parent_pos: u32) -> (u32, u32) {
            (parent_pos, v)
        }
        fn graph_sections(g: &CsrGraph, n: usize) -> Vec<(u32, Vec<u8>)> {
            csr_sections(n, g.offsets(), g.targets())
        }
        fn graph_from_sections(
            _: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<CsrGraph, SnapError> {
            Ok(CsrGraph::from_raw_parts(offsets, targets)?)
        }
    }

    impl Codec for Weighted {
        const KIND: SnapKind = SnapKind::Weighted;
        /// Dijkstra settles in non-decreasing distance.
        type SettleKey = u64;
        #[inline]
        fn settle_key(dist: &[u64], v: u32, _: u32) -> u64 {
            dist[v as usize]
        }
        fn graph_sections(g: &WeightedCsrGraph, n: usize) -> Vec<(u32, Vec<u8>)> {
            let mut sections = csr_sections(n, g.offsets(), g.targets());
            let mut graph_weights = Vec::new();
            push_words(&mut graph_weights, g.weights().iter().copied());
            sections.push((SEC_GRAPH_WEIGHTS, graph_weights));
            sections
        }
        fn graph_from_sections(
            envelope: &Envelope<'_>,
            offsets: Vec<u32>,
            targets: Vec<u32>,
        ) -> Result<WeightedCsrGraph, SnapError> {
            let weights = words::<u64>(SEC_GRAPH_WEIGHTS, envelope.section(SEC_GRAPH_WEIGHTS)?)?;
            Ok(WeightedCsrGraph::from_raw_parts(offsets, targets, weights)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_graph::generators::{cycle_graph, grid_graph, path_graph};
    use msrp_graph::{Edge, Graph, WeightedGraph};
    use msrp_oracle::{ReplacementPathOracle, WeightedReplacementOracle};

    fn demo_shards(g: &Graph, splits: &[&[Vertex]]) -> Vec<ReplacementPathOracle> {
        splits.iter().map(|s| ReplacementPathOracle::build_exact(g, s)).collect()
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
}
