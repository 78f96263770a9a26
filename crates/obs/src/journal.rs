//! A lock-free span journal: a fixed-capacity ring buffer of timing events.
//!
//! # Memory model
//!
//! Each slot carries a seqlock-style stamp derived from the writer's globally unique
//! ticket `t` (claimed with one `fetch_add` on the head counter). Tickets `t` and
//! `t + capacity` share a slot, so a writer first *claims* the slot: one
//! `compare_exchange` moves the stamp from an even value below `2t + 1` (the slot is idle
//! and holds an older ticket) to `2t + 1` (odd: ticket `t` writes). The claim makes the
//! writer the slot's only writer; it then stores the payload and commits `2t + 2` (even:
//! ticket `t` committed) with `Release` ordering. A writer that finds the slot odd
//! (another writer is mid-write) or already newer (this writer was lapped) never waits:
//! it drops its event and counts it in [`JournalSnapshot::lost`]. The claim is what keeps
//! a writer stalled between its ticket and its stores from interleaving with the writer
//! that lapped it, which would commit a payload that is partly the other ticket's, or
//! land an older stamp last.
//!
//! A reader looking for ticket `t` loads the stamp with `Acquire` before and after
//! reading the payload and accepts the event only if both loads saw `2t + 2` — a slot
//! being written, or whose writer lost its event, is *skipped*, never misattributed.
//! Stamps are unique per ticket and only grow, so an older committed event can never be
//! mistaken for a newer one. In a quiescent journal every skipped ticket is a lost one.
//! No `unsafe` is involved.
//!
//! The payload stores themselves are `Release`, not `Relaxed`. The committed stamp
//! (`Release`) orders them *before* itself for the accept path, but only the payload
//! stores' own `Release` orders them *after* the odd stamp on the reject path: a
//! `Release` store orders prior accesses, not later ones, so with relaxed payload
//! stores a reader could observe a later ticket's payload while both stamp loads still
//! return the earlier committed value — a torn event accepted as clean. The model
//! checker in `msrp-check` reproduces that schedule against the relaxed shape, and the
//! lapped-writer schedules against the claim-free shape
//! (`crates/check/tests/model_journal.rs`); on x86 the stronger stores compile to the
//! same plain `mov`s.
//!
//! All atomics go through [`msrp_check::sync`]: plain `std` re-exports in normal
//! builds, schedule-instrumented shims under the `model` feature.
//!
//! # Drops are counted, not blocked
//!
//! When more than `capacity` events have been recorded, the ring has overwritten the
//! oldest ones. A journal exists to debug latency; making the latency-critical path wait
//! for a slow reader would invert that purpose. Writers therefore always win, and
//! [`JournalSnapshot::dropped`] reports exactly how many events were overwritten, so
//! dashboards can surface under-provisioned journals instead of silently stalling
//! workers. For the same reason a lapped writer drops its own event rather than wait for
//! the slot; [`JournalSnapshot::lost`] counts those.

use msrp_check::sync::{AtomicU64, Ordering};
use std::time::Duration;

/// One committed span event read back from the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global sequence number of the event (0-based ticket; dense, never reused).
    pub ticket: u64,
    /// Trace id correlating the spans of one logical operation (e.g. one batch).
    pub trace_id: u64,
    /// Caller-defined stage code (e.g. queue-wait / compute / reply).
    pub stage: u16,
    /// Caller-defined lane (e.g. worker index).
    pub worker: u32,
    /// Span duration.
    pub duration: Duration,
}

struct Slot {
    /// Seqlock stamp: `2t + 1` while ticket `t` writes, `2t + 2` once committed.
    seq: AtomicU64,
    trace_id: AtomicU64,
    /// Packed `stage` (low 16 bits) and `worker` (next 32 bits).
    meta: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

fn pack_meta(stage: u16, worker: u32) -> u64 {
    stage as u64 | ((worker as u64) << 16)
}

fn unpack_meta(meta: u64) -> (u16, u32) {
    (meta as u16, (meta >> 16) as u32)
}

/// A fixed-capacity, lock-free ring buffer of [`SpanEvent`]s.
///
/// `record` is wait-free: one `fetch_add` for a ticket and at most one
/// `compare_exchange` for its slot. It never blocks, never allocates, and never waits for
/// readers or other writers. See the module docs for the seqlock protocol and the drop
/// policy.
pub struct SpanJournal {
    slots: Vec<Slot>,
    head: AtomicU64,
    /// Events whose writer found its slot busy or newer and dropped them.
    lost: AtomicU64,
}

impl std::fmt::Debug for SpanJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanJournal")
            .field("capacity", &self.capacity())
            .field("total_recorded", &self.total_recorded())
            .finish_non_exhaustive()
    }
}

impl SpanJournal {
    /// Creates a journal holding the most recent `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanJournal {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one span event. Overwrites the oldest event once the ring is full. Drops
    /// the event instead, and counts it as lost, when its slot is still being written or
    /// already holds a newer ticket.
    pub fn record(&self, trace_id: u64, stage: u16, worker: u32, duration: Duration) {
        // ordering: Relaxed — the ticket claim needs atomicity only; slot visibility is
        // carried entirely by the per-slot stamp protocol below.
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t % self.slots.len() as u64) as usize];
        let committed = t.wrapping_mul(2).wrapping_add(2);
        let claim = committed.wrapping_sub(1);
        // ordering: Relaxed — only the expected value for the claim below, which
        // re-checks it atomically.
        let seen = slot.seq.load(Ordering::Relaxed);
        let claimed = seen.is_multiple_of(2) && seen < claim && {
            // ordering: Acquire on success — pairs with the previous owner's committed
            // Release stamp, so its payload stores come before ours in each location's
            // modification order and none of them can land over ours. No Release: each
            // payload store's own Release below orders this odd stamp before it (module
            // docs). Relaxed on failure: the event is dropped.
            slot.seq.compare_exchange(seen, claim, Ordering::Acquire, Ordering::Relaxed).is_ok()
        };
        if !claimed {
            // ordering: Relaxed — a statistics counter; nothing is published with it.
            self.lost.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ordering: Release (not Relaxed) — each payload store orders the preceding odd
        // stamp before itself, so a reader that Acquire-loads fresh payload cannot still
        // see the stale committed stamp and accept a torn event. See the module docs;
        // regression: crates/check/tests/model_journal.rs.
        slot.trace_id.store(trace_id, Ordering::Release);
        slot.meta.store(pack_meta(stage, worker), Ordering::Release); // ordering: Release — see above
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        slot.dur_ns.store(ns, Ordering::Release); // ordering: Release — see above
                                                  // ordering: Release — commits the payload: a reader whose first Acquire stamp
                                                  // load sees `committed` also sees every payload store above (seqlock publish).
        slot.seq.store(committed, Ordering::Release);
    }

    /// Total events ever recorded (including dropped and lost ones).
    fn total_recorded(&self) -> u64 {
        // ordering: Relaxed — a monotonic counter read for sizing; the snapshot loop
        // re-validates every slot through the stamp protocol, so no edge is needed here.
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap so far.
    pub fn dropped(&self) -> u64 {
        self.total_recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Reads back every retained event, oldest first.
    ///
    /// Events being overwritten concurrently, and lost ones, are skipped (and show up in
    /// [`JournalSnapshot::skipped`]), never returned torn.
    pub fn snapshot(&self) -> JournalSnapshot {
        let total = self.total_recorded();
        let cap = self.slots.len() as u64;
        let first = total.saturating_sub(cap);
        let mut events = Vec::with_capacity((total - first) as usize);
        let mut skipped = 0u64;
        for t in first..total {
            let slot = &self.slots[(t % cap) as usize];
            let committed = t.wrapping_mul(2).wrapping_add(2);
            // ordering: Acquire — pairs with the writer's committed Release stamp; a
            // matching load here makes every payload store of ticket `t` visible below.
            if slot.seq.load(Ordering::Acquire) != committed {
                skipped += 1;
                continue;
            }
            // ordering: Acquire — pairs with the Release payload stores: if any load
            // observes a *later* ticket's payload, the odd stamp released before it is
            // visible too, and the recheck below rejects the slot.
            let trace_id = slot.trace_id.load(Ordering::Acquire);
            let meta = slot.meta.load(Ordering::Acquire); // ordering: Acquire — see above
            let dur_ns = slot.dur_ns.load(Ordering::Acquire); // ordering: Acquire — see above
                                                              // ordering: Acquire — the seqlock validation read; must not be reordered
                                                              // before the payload loads above, or the window it validates is wrong.
            if slot.seq.load(Ordering::Acquire) != committed {
                skipped += 1;
                continue;
            }
            let (stage, worker) = unpack_meta(meta);
            events.push(SpanEvent {
                ticket: t,
                trace_id,
                stage,
                worker,
                duration: Duration::from_nanos(dur_ns),
            });
        }
        // ordering: Relaxed — a statistics counter; no slot is read through it.
        let lost = self.lost.load(Ordering::Relaxed);
        JournalSnapshot { events, total, dropped: first, skipped, lost }
    }
}

/// A point-in-time read of a [`SpanJournal`].
#[derive(Clone, Debug)]
pub struct JournalSnapshot {
    /// Committed events, oldest first.
    pub events: Vec<SpanEvent>,
    /// Total events ever recorded at snapshot time.
    pub total: u64,
    /// Events lost to ring wrap before the snapshot window.
    pub dropped: u64,
    /// Events inside the window that could not be read cleanly: mid-write, or lost.
    pub skipped: u64,
    /// Events ever dropped by their own writer because the slot was still being written
    /// or already held a newer ticket. Once writers are quiescent, the skipped tickets of
    /// the window are lost ones.
    pub lost: u64,
}

impl JournalSnapshot {
    /// Sums retained span durations and counts by stage code, ascending by stage.
    pub fn totals_by_stage(&self) -> Vec<(u16, Duration, u64)> {
        let mut totals: Vec<(u16, Duration, u64)> = Vec::new();
        for e in &self.events {
            match totals.iter_mut().find(|(s, _, _)| *s == e.stage) {
                Some((_, d, c)) => {
                    *d += e.duration;
                    *c += 1;
                }
                None => totals.push((e.stage, e.duration, 1)),
            }
        }
        totals.sort_by_key(|&(s, _, _)| s);
        totals
    }
}

/// Mints seed-stable trace ids: id `i` is a splitmix64-style mix of `(seed, i)`, so the
/// id sequence depends only on the seed and the submission order — never on scheduling —
/// and slow-query log entries can be matched across runs of a seed-pinned workload.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl TraceIdGen {
    /// Creates a generator for the given workload seed.
    pub fn new(seed: u64) -> Self {
        TraceIdGen { seed, next: AtomicU64::new(0) }
    }

    /// Returns the next trace id.
    pub fn next_id(&self) -> u64 {
        // ordering: Relaxed — the counter only needs uniqueness, not publication; the id
        // value travels to other threads inside journal slots or messages that carry
        // their own edges.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        mix(self.seed, i)
    }
}

/// Splitmix64-style mixing (same constants as the loadgen's client-seed separation).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let j = SpanJournal::new(8);
        for i in 0..5u64 {
            j.record(100 + i, i as u16, 7, Duration::from_nanos(10 * i));
        }
        let snap = j.snapshot();
        assert_eq!(snap.total, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.skipped, 0);
        assert_eq!(snap.events.len(), 5);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.ticket, i as u64);
            assert_eq!(e.trace_id, 100 + i as u64);
            assert_eq!(e.stage, i as u16);
            assert_eq!(e.worker, 7);
            assert_eq!(e.duration, Duration::from_nanos(10 * i as u64));
        }
    }

    #[test]
    fn wrap_drops_oldest_and_counts_them() {
        let j = SpanJournal::new(4);
        for i in 0..10u64 {
            j.record(i, 0, 0, Duration::from_nanos(i));
        }
        assert_eq!(j.dropped(), 6);
        let snap = j.snapshot();
        assert_eq!(snap.dropped, 6);
        let tickets: Vec<u64> = snap.events.iter().map(|e| e.ticket).collect();
        assert_eq!(tickets, vec![6, 7, 8, 9]);
    }

    /// `writers` threads record `per` events each into `j` while a reader snapshots
    /// `reads` times; every event the reader accepts must be internally consistent (its
    /// payload fields are derived from its trace id), and every snapshot must account for
    /// each ticket of its window.
    fn hammer(j: &SpanJournal, writers: u64, per: u64, reads: usize) {
        std::thread::scope(|scope| {
            for w in 0..writers {
                scope.spawn(move || {
                    for i in 0..per {
                        let id = w << 32 | i;
                        j.record(
                            id,
                            (id % 7) as u16,
                            id as u32 % 5,
                            Duration::from_nanos(id % 1000),
                        );
                    }
                });
            }
            scope.spawn(move || {
                for _ in 0..reads {
                    let snap = j.snapshot();
                    let window = snap.total - snap.dropped;
                    assert_eq!(snap.events.len() as u64 + snap.skipped, window);
                    for e in snap.events {
                        assert_eq!(e.stage, (e.trace_id % 7) as u16, "torn event {e:?}");
                        assert_eq!(e.worker, e.trace_id as u32 % 5, "torn event {e:?}");
                        assert_eq!(e.duration, Duration::from_nanos(e.trace_id % 1000));
                    }
                }
            });
        });
        assert_eq!(j.total_recorded(), writers * per);
    }

    /// A quiescent snapshot of `j`: every window ticket is read back or was lost, and a
    /// lost event never wedges its slot (the next uncontended round reads back clean).
    fn assert_quiescent_accounting(j: &SpanJournal) {
        let snap = j.snapshot();
        let cap = j.capacity() as u64;
        assert_eq!(snap.events.len() as u64 + snap.skipped, cap);
        assert!(snap.skipped <= snap.lost, "a skipped ticket was not lost: {snap:?}");
        for i in 0..cap {
            j.record(i, (i % 7) as u16, i as u32 % 5, Duration::from_nanos(i % 1000));
        }
        let after = j.snapshot();
        assert_eq!((after.skipped, after.lost), (0, snap.lost), "the ring must recover");
        assert_eq!(after.events.len() as u64, cap);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let j = SpanJournal::new(64);
        hammer(&j, 4, 2_000, 200);
        assert_quiescent_accounting(&j);
    }

    #[test]
    fn lapped_writers_in_one_slot_drop_instead_of_tearing() {
        // Capacity 1: every ticket shares the slot, so writers lap each other constantly.
        let j = SpanJournal::new(1);
        hammer(&j, 4, 50_000, 20_000);
        assert_quiescent_accounting(&j);
    }

    #[test]
    fn totals_by_stage_aggregates() {
        let j = SpanJournal::new(16);
        j.record(1, 0, 0, Duration::from_nanos(5));
        j.record(1, 1, 0, Duration::from_nanos(7));
        j.record(2, 0, 1, Duration::from_nanos(3));
        let totals = j.snapshot().totals_by_stage();
        assert_eq!(totals, vec![(0, Duration::from_nanos(8), 2), (1, Duration::from_nanos(7), 1)]);
    }

    #[test]
    fn trace_ids_are_seed_stable_and_distinct() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids_a: Vec<u64> = (0..32).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..32).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "ids must depend only on (seed, index)");
        let mut dedup = ids_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids_a.len());
        let c = TraceIdGen::new(43);
        assert_ne!(c.next_id(), ids_a[0]);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let j = SpanJournal::new(0);
        assert_eq!(j.capacity(), 1);
        j.record(9, 0, 0, Duration::ZERO);
        assert_eq!(j.snapshot().events.len(), 1);
    }
}
