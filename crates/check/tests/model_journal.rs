//! Model-checks the `SpanJournal` seqlock (crates/obs/src/journal.rs): the committed
//! stamp pair must never let a reader accept a torn payload — and the pre-fix shape
//! (relaxed payload stores) must demonstrably fail, pinning why `record` uses `Release`
//! for them.

use std::sync::Arc;
use std::time::Duration;

use msrp_check::model::{explore, replay, ModelConfig, Scenario};
use msrp_check::sync::{AtomicU64, Ordering};
use msrp_obs::SpanJournal;

/// The shipped journal: one slot, an overwriting writer, a concurrent snapshotter. Every
/// accepted event must be internally consistent (payload fields derived from the trace
/// id). Bounded exploration — the space is large; `MSRP_MODEL_EXHAUSTIVE=1` exhausts it.
#[test]
fn committed_stamps_never_yield_torn_payloads() {
    let report = explore(&ModelConfig::default(), || {
        let j = Arc::new(SpanJournal::new(1));
        // Ticket 0 is committed during setup; the writer thread overwrites it with
        // ticket 1 while the reader snapshots.
        j.record(event(0), stage(0), worker(0), dur(0));
        let (jw, jr) = (Arc::clone(&j), Arc::clone(&j));
        Scenario::new(vec![
            Box::new(move || {
                jw.record(event(1), stage(1), worker(1), dur(1));
            }),
            Box::new(move || {
                for e in jr.snapshot().events {
                    let t = e.trace_id;
                    assert!(t == event(0) || t == event(1), "unknown trace id {t}");
                    let k = t - 100;
                    assert_eq!(e.stage, stage(k), "torn event accepted: {e:?}");
                    assert_eq!(e.worker, worker(k), "torn event accepted: {e:?}");
                    assert_eq!(e.duration, dur(k), "torn event accepted: {e:?}");
                }
            }),
        ])
    })
    .assert_ok();
    assert!(report.schedules >= 2, "the race window must actually be explored");
}

fn event(k: u64) -> u64 {
    100 + k
}
fn stage(k: u64) -> u16 {
    (7 + k) as u16
}
fn worker(k: u64) -> u32 {
    (3 + k) as u32
}
fn dur(k: u64) -> Duration {
    Duration::from_nanos(10 + k)
}

/// The pre-fix shape of `SpanJournal::record`: odd stamp (`Release`), *relaxed* payload
/// store, committed stamp (`Release`). A `Release` store orders prior accesses only, so
/// nothing orders the relaxed payload after the odd stamp — a reader can observe the new
/// payload while both stamp loads still return the old committed value, and accept a
/// torn event. The reader side below is the shipped `snapshot` protocol verbatim.
struct PreFixSlot {
    seq: AtomicU64,
    payload: AtomicU64,
}

impl PreFixSlot {
    /// Setup state: ticket 0 committed (stamp 2) with payload `old`.
    fn committed(old: u64) -> Self {
        PreFixSlot { seq: AtomicU64::new(2), payload: AtomicU64::new(old) }
    }

    /// Ticket 1 overwrite with the pre-fix orderings.
    fn record_prefix_shape(&self, new: u64) {
        self.seq.store(3, Ordering::Release);
        self.payload.store(new, Ordering::Relaxed); // the bug: nothing orders this after the odd stamp
        self.seq.store(4, Ordering::Release);
    }

    /// The shipped reader: accept ticket 0's payload only if both stamp loads say 2.
    fn read_ticket0(&self) -> Option<u64> {
        if self.seq.load(Ordering::Acquire) != 2 {
            return None;
        }
        let p = self.payload.load(Ordering::Acquire);
        if self.seq.load(Ordering::Acquire) != 2 {
            return None;
        }
        Some(p)
    }
}

const OLD: u64 = 5;
const NEW: u64 = 6;

fn prefix_scenario() -> Scenario {
    let slot = Arc::new(PreFixSlot::committed(OLD));
    let (w, r) = (Arc::clone(&slot), Arc::clone(&slot));
    Scenario::new(vec![
        Box::new(move || w.record_prefix_shape(NEW)),
        Box::new(move || {
            if let Some(p) = r.read_ticket0() {
                assert_eq!(
                    p, OLD,
                    "torn read accepted: stamp said ticket 0, payload is ticket 1's"
                );
            }
        }),
    ])
}

/// The explorer must find the torn read against the relaxed payload store, and the
/// failing schedule must replay deterministically — this is the regression pinning the
/// `Release` payload stores in the shipped `record`.
#[test]
fn relaxed_payload_stores_admit_a_torn_read() {
    let report = explore(&ModelConfig::default(), prefix_scenario);
    let failure = report.failure.expect(
        "the pre-fix journal shape must admit a torn read; if this starts passing, the \
         model checker lost the weak-memory behavior that motivated the Release fix",
    );
    assert!(failure.message.contains("torn read accepted"), "got: {}", failure.message);
    let replayed = replay(&ModelConfig::default(), prefix_scenario, &failure.schedule)
        .failure
        .expect("failing schedule must replay");
    assert_eq!(replayed.message, failure.message);
}

/// The same slot protocol with the shipped orderings (`Release` payload store) verifies
/// exhaustively — the one-word fix closes the window.
#[test]
fn release_payload_stores_close_the_window() {
    let report = explore(&ModelConfig::default(), || {
        let slot = Arc::new(PreFixSlot::committed(OLD));
        let (w, r) = (Arc::clone(&slot), Arc::clone(&slot));
        Scenario::new(vec![
            Box::new(move || {
                w.seq.store(3, Ordering::Release);
                // ordering: Release — the shipped fix: orders the odd stamp before the
                // payload, so a reader that sees this payload cannot still see stamp 2.
                w.payload.store(NEW, Ordering::Release);
                w.seq.store(4, Ordering::Release);
            }),
            Box::new(move || {
                if let Some(p) = r.read_ticket0() {
                    assert_eq!(p, OLD, "torn read accepted despite Release payload store");
                }
            }),
        ])
    })
    .assert_ok();
    assert!(report.exhausted, "the fixed slot protocol must be fully verified: {report:?}");
}

/// A one-slot span ring as a model scenario sees it: each writer records one event derived
/// from its number `k`, and a reader reads back what the ring accepts.
trait OneSlotRing: Send + Sync + 'static {
    fn record(&self, k: u64);
    /// The accepted events as `(trace_id, stage, worker, duration)`.
    fn accepted(&self) -> Vec<(u64, u16, u32, Duration)>;
}

impl OneSlotRing for SpanJournal {
    fn record(&self, k: u64) {
        SpanJournal::record(self, event(k), stage(k), worker(k), dur(k));
    }

    fn accepted(&self) -> Vec<(u64, u16, u32, Duration)> {
        self.snapshot().events.iter().map(|e| (e.trace_id, e.stage, e.worker, e.duration)).collect()
    }
}

/// Two writers (events 1 and 2) lap each other in one slot while a reader snapshots; every
/// accepted event must be one writer's, whole.
fn lapped_writers_scenario<R: OneSlotRing>(ring: Arc<R>) -> Scenario {
    let (w1, w2) = (Arc::clone(&ring), Arc::clone(&ring));
    Scenario::new(vec![
        Box::new(move || w1.record(1)),
        Box::new(move || w2.record(2)),
        Box::new(move || {
            for (t, s, w, d) in ring.accepted() {
                assert!(t == event(1) || t == event(2), "unknown trace id {t}");
                let k = t - 100;
                assert_eq!((s, w, d), (stage(k), worker(k), dur(k)), "torn event accepted");
            }
        }),
    ])
}

/// The shipped journal with two writers in one slot: the claim makes each slot's writer
/// exclusive, so no schedule accepts a torn event, and once both writers are done the
/// window's ticket is read back or was lost, never skipped without a reason.
#[test]
fn lapped_writers_never_commit_a_torn_event() {
    let report = explore(&ModelConfig::default(), || {
        let j = Arc::new(SpanJournal::new(1));
        let mut scenario = lapped_writers_scenario(Arc::clone(&j));
        scenario.finally = Some(Box::new(move || {
            let snap = j.snapshot();
            assert_eq!(snap.total, 2);
            assert!(snap.skipped <= snap.lost, "skipped without a loss: {snap:?}");
        }));
        scenario
    })
    .assert_ok();
    assert!(report.schedules >= 2, "the race window must actually be explored");
}

/// The claim-free shape of `SpanJournal::record` on one slot: a ticket from the head, then
/// the odd stamp, the payload and the committed stamp, all `Release`, with nothing
/// stopping a second writer of the slot. The reader is the shipped `snapshot` protocol
/// for the window's one ticket.
struct ClaimFreeRing {
    head: AtomicU64,
    seq: AtomicU64,
    trace_id: AtomicU64,
    meta: AtomicU64,
    dur_ns: AtomicU64,
}

impl ClaimFreeRing {
    fn new() -> Self {
        ClaimFreeRing {
            head: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

impl OneSlotRing for ClaimFreeRing {
    fn record(&self, k: u64) {
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        self.seq.store(2 * t + 1, Ordering::Release);
        self.trace_id.store(event(k), Ordering::Release);
        self.meta.store(u64::from(stage(k)) | u64::from(worker(k)) << 16, Ordering::Release);
        self.dur_ns.store(dur(k).as_nanos() as u64, Ordering::Release);
        self.seq.store(2 * t + 2, Ordering::Release);
    }

    fn accepted(&self) -> Vec<(u64, u16, u32, Duration)> {
        let total = self.head.load(Ordering::Relaxed);
        let Some(t) = total.checked_sub(1) else { return Vec::new() };
        if self.seq.load(Ordering::Acquire) != 2 * t + 2 {
            return Vec::new();
        }
        let trace_id = self.trace_id.load(Ordering::Acquire);
        let meta = self.meta.load(Ordering::Acquire);
        let dur_ns = self.dur_ns.load(Ordering::Acquire);
        if self.seq.load(Ordering::Acquire) != 2 * t + 2 {
            return Vec::new();
        }
        vec![(trace_id, meta as u16, (meta >> 16) as u32, Duration::from_nanos(dur_ns))]
    }
}

/// The first failing schedule in the explorer's deterministic DFS order against the
/// claim-free shape: both writers take tickets (0 and 1) and interleave their stores;
/// ticket 0's duration store lands after ticket 1's, ticket 1 commits, and the reader
/// accepts ticket 1's trace id with ticket 0's duration before ticket 0's stale commit.
const CLAIM_FREE_TORN_SCHEDULE: &[usize] = &[0, 0, 0, 0, 0, 3, 0, 3, 0, 4, 3, 0, 0, 0, 0, 0, 0, 1];

/// Without the claim, two writers of one slot interleave their payload stores, and the
/// reader accepts a torn event under the later ticket's committed stamp. The explorer must
/// find such a schedule, and the pinned one must keep reproducing it — the regression
/// behind the claim in the shipped `record`.
#[test]
fn claim_free_writers_tear_a_shared_slot() {
    let cfg = ModelConfig::default();
    let scenario = || lapped_writers_scenario(Arc::new(ClaimFreeRing::new()));
    let failure = explore(&cfg, scenario).failure.expect(
        "two claim-free writers in one slot must admit a torn read; if this starts \
         passing, the model checker lost the interleaving that motivated the claim",
    );
    assert!(failure.message.contains("torn event accepted"), "got: {}", failure.message);
    let pinned = replay(&cfg, scenario, CLAIM_FREE_TORN_SCHEDULE)
        .failure
        .expect("the pinned schedule must replay as a failure");
    assert_eq!(pinned.message, failure.message);
}
