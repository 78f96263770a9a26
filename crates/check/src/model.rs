//! A loom-style bounded model checker: exhaustive DFS over thread interleavings *and*
//! weak-memory read choices, for scenarios written against [`crate::sync`] shim types.
//!
//! # What is explored
//!
//! A scenario is a closure returning a [`Scenario`]: a setup phase (run inline on the
//! controlling thread) plus N thread closures. The explorer runs the scenario once per
//! *schedule*: all model threads execute for real (on a reused worker pool), but every
//! shim-atomic operation parks the thread and hands control to the scheduler, which
//! decides — as an explicit DFS choice point — which parked thread performs its pending
//! operation next. Two kinds of choice point exist:
//!
//! 1. **Thread choice** — which runnable thread steps. Alternatives are ordered
//!    round-robin starting after the thread that stepped last, so the first (default)
//!    schedule is a fine-grained rotation and backtracking explores the rest.
//! 2. **Read choice** — which store a load observes. Each atomic location keeps a bounded
//!    history of stores (its modification order, linearized by the schedule); a load may
//!    read any store not superseded by one that happens-before the loading thread
//!    (C11 write-read coherence via per-thread vector clocks) and not older than the
//!    thread's previous read of the location (read-read coherence). `Acquire` loads
//!    joining a `Release` store's clock is exactly the synchronizes-with edge — so a
//!    `Relaxed` load where an `Acquire` was required shows up as a *stale value the DFS
//!    can actually pick*, and the resulting assertion failure carries a concrete
//!    interleaving trace.
//!
//! The first alternative of a read choice is always the newest store, so the default
//! schedule behaves like a sequentially consistent execution and weak behaviors appear
//! only under backtracking.
//!
//! # Approximations (documented, deliberate)
//!
//! * Modification order is the schedule's execution order (no reordering of stores to the
//!   same location), and `SeqCst` is modeled as `AcqRel` — we do not build the SC total
//!   order. Nothing in this workspace relies on `SeqCst`-only guarantees; the lint wall
//!   keeps it that way.
//! * Release sequences are continued through RMWs (an RMW's store inherits the sync
//!   clock of the store it read when the RMW itself is not `Release`) but broken by
//!   plain relaxed stores, matching C++20.
//! * Store histories are capped at [`ModelConfig::history_cap`]; a load's admissible set
//!   never reaches below the cap. This bounds read choices like the schedule budget
//!   bounds thread choices.
//!
//! # Bounded by default
//!
//! [`ModelConfig::default`] caps the DFS at a fixed schedule budget so model tests stay
//! cheap under plain `cargo test -q`; setting `MSRP_MODEL_EXHAUSTIVE=1` removes the cap
//! and lets every `explore` run to DFS exhaustion. The DFS order is deterministic (no
//! randomness anywhere), so a failing schedule is replayable with [`replay`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Thread id of the controlling (setup / `finally`) pseudo-thread.
const CONTROLLER: usize = 0;

/// How long a scheduler handshake may stall before the model declares itself broken.
/// This is an internal watchdog, not part of the explored semantics.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Panic payload used to unwind model threads after a failure elsewhere; the worker
/// harness swallows it instead of reporting it as a second failure.
struct ModelAbort;

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Maximum number of schedules the DFS runs before giving up on exhaustion. Lifted
    /// to `usize::MAX` when the `MSRP_MODEL_EXHAUSTIVE` environment variable is set to
    /// a non-empty, non-`0` value.
    pub max_schedules: usize,
    /// Per-execution step bound; exceeding it is reported as a failure (livelock).
    pub max_steps: usize,
    /// Stores retained per atomic location for the read-choice history.
    pub history_cap: usize,
}

impl ModelConfig {
    /// The default schedule budget under plain `cargo test -q` (see the guard test
    /// `tests/model_budget_guard.rs`).
    pub const DEFAULT_BUDGET: usize = 3000;

    /// Budget actually in force: `max_schedules`, or unlimited under
    /// `MSRP_MODEL_EXHAUSTIVE=1`.
    pub fn effective_budget(&self) -> usize {
        match std::env::var("MSRP_MODEL_EXHAUSTIVE") {
            Ok(v) if !v.is_empty() && v != "0" => usize::MAX,
            _ => self.max_schedules,
        }
    }

    /// A config with a specific schedule budget (still lifted by the env override).
    pub fn with_budget(max_schedules: usize) -> Self {
        ModelConfig { max_schedules, ..ModelConfig::default() }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { max_schedules: Self::DEFAULT_BUDGET, max_steps: 20_000, history_cap: 16 }
    }
}

/// One concurrent scenario: thread bodies plus an optional quiesced check.
pub struct Scenario {
    /// Thread closures; all are logically spawned at once after setup.
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs on the controlling thread after every model thread finished, with the model
    /// still active (its loads see the joined final state deterministically).
    pub finally: Option<Box<dyn FnOnce() + Send>>,
}

impl Scenario {
    /// A scenario with the given thread bodies and no final check.
    pub fn new(threads: Vec<Box<dyn FnOnce() + Send>>) -> Self {
        Scenario { threads, finally: None }
    }
}

/// Outcome of an [`explore`] / [`replay`] call.
#[derive(Clone, Debug)]
pub struct Report {
    /// Schedules (distinct interleavings) executed.
    pub schedules: usize,
    /// True when the DFS tree was fully explored within the budget.
    pub exhausted: bool,
    /// Deepest decision stack seen (choice points in the longest schedule).
    pub max_depth: usize,
    /// Total scheduler steps across all schedules.
    pub total_steps: usize,
    /// The first failing schedule, if any invariant broke.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with the failing trace if the exploration found a violation; returns the
    /// report otherwise. The usual way to end a model test.
    #[track_caller]
    pub fn assert_ok(self) -> Report {
        if let Some(f) = &self.failure {
            panic!("{}", f.render());
        }
        self
    }
}

/// A concrete failing schedule: the invariant violation plus the exact interleaving.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The panic / violation message.
    pub message: String,
    /// Decision indices reproducing the schedule via [`replay`].
    pub schedule: Vec<usize>,
    /// Human-readable operation trace of the failing execution.
    pub trace: Vec<String>,
}

impl Failure {
    /// Multi-line rendering: message, schedule, trace.
    pub fn render(&self) -> String {
        let mut out =
            format!("model invariant violated: {}\nschedule: {:?}\n", self.message, self.schedule);
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Vector clocks, store histories, lock state
// ---------------------------------------------------------------------------

/// A vector clock over `1 + N` threads (component 0 is the controller).
#[derive(Clone, Debug, Default, PartialEq)]
struct VClock(Vec<u64>);

impl VClock {
    fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }
    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
    fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }
    fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }
}

/// One store in a location's modification order.
#[derive(Clone, Debug)]
struct StoreRec {
    value: u64,
    /// Writing thread and its local time at the store — the happens-before test.
    writer: usize,
    tick: u64,
    /// Clock an acquire load of this store joins (release stores and release-sequence
    /// continuations); `None` for plain relaxed stores.
    sync: Option<VClock>,
}

/// One shim-atomic location.
#[derive(Debug)]
struct Location {
    /// Bounded modification-order suffix; `base` is the global index of `history[0]`.
    history: Vec<StoreRec>,
    base: usize,
    /// Per-thread global index of the last store each thread read (read-read coherence).
    last_read: Vec<usize>,
}

/// One shim-`RwLock` location.
#[derive(Debug, Default)]
struct LockState {
    readers: Vec<usize>,
    writer: Option<usize>,
    /// Release clock: joined by every acquirer, extended by every releaser.
    clock: VClock,
}

/// A pending shim operation, parked at a yield point.
#[derive(Clone, Debug)]
pub(crate) enum AtomOp {
    /// `load(ordering)`
    Load(Ordering),
    /// `store(value, ordering)`
    Store(u64, Ordering),
    /// `fetch_add(value, ordering)` — reads the newest store (RMW atomicity).
    FetchAdd(u64, Ordering),
    /// `fetch_max(value, ordering)`
    FetchMax(u64, Ordering),
    /// `compare_exchange(current, new, success, failure)` — reads the newest store and
    /// writes `new` only when it equals `current`; the thread gets the value read back.
    CompareExchange(u64, u64, Ordering, Ordering),
    /// Acquire a read lock (grantable while no writer holds the lock).
    LockRead,
    /// Acquire the write lock (grantable while nobody holds the lock).
    LockWrite,
    /// Release a read lock.
    UnlockRead,
    /// Release the write lock.
    UnlockWrite,
}

impl AtomOp {
    fn describe(&self, loc: usize) -> String {
        match self {
            AtomOp::Load(o) => format!("a{loc}.load({o:?})"),
            AtomOp::Store(v, o) => format!("a{loc}.store({v}, {o:?})"),
            AtomOp::FetchAdd(v, o) => format!("a{loc}.fetch_add({v}, {o:?})"),
            AtomOp::FetchMax(v, o) => format!("a{loc}.fetch_max({v}, {o:?})"),
            AtomOp::CompareExchange(c, v, s, f) => {
                format!("a{loc}.compare_exchange({c}, {v}, {s:?}, {f:?})")
            }
            AtomOp::LockRead => format!("l{loc}.read()"),
            AtomOp::LockWrite => format!("l{loc}.write()"),
            AtomOp::UnlockRead => format!("l{loc}.read_unlock()"),
            AtomOp::UnlockWrite => format!("l{loc}.write_unlock()"),
        }
    }
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// What a read-modify-write does to a location whose newest value is `old`: the value it
/// stores (`None` for a failed compare-exchange, which only loads) and the ordering that
/// applies. Every RMW reads the newest store, so RMWs on one location never race.
fn rmw_effect(op: &AtomOp, old: u64) -> (Option<u64>, Ordering) {
    match *op {
        AtomOp::FetchAdd(v, o) => (Some(old.wrapping_add(v)), o),
        AtomOp::FetchMax(v, o) => (Some(old.max(v)), o),
        AtomOp::CompareExchange(c, v, s, _) if old == c => (Some(v), s),
        AtomOp::CompareExchange(_, _, _, f) => (None, f),
        _ => unreachable!("not a read-modify-write"),
    }
}

// ---------------------------------------------------------------------------
// Core shared state + thread-local handle
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Setup / `finally`: controller ops apply inline, sequentially consistent.
    Inline,
    /// Model threads running: every op is a scheduled choice point.
    Running,
}

#[derive(Debug)]
struct ThreadState {
    /// Pending parked operation `(location, op)`, if any.
    pending: Option<(usize, AtomOp)>,
    /// Result handed back by the scheduler, consumed by the parked thread.
    result: Option<u64>,
    finished: bool,
    clock: VClock,
}

struct Core {
    phase: Phase,
    threads: Vec<ThreadState>,
    atoms: Vec<Location>,
    locks: Vec<LockState>,
    controller_clock: VClock,
    history_cap: usize,
    step: usize,
    last_ran: usize,
    trace: Vec<String>,
    /// `(chosen, alternatives)` decision stack of this execution.
    decisions: Vec<(usize, usize)>,
    forced: Vec<usize>,
    abort: bool,
    failure: Option<String>,
}

struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
}

/// Thread-local handle: set on the controller during setup/finally and on each worker
/// while it runs a model thread body. `None` means passthrough (normal execution).
#[derive(Clone)]
pub(crate) struct Ctx {
    shared: Arc<Shared>,
    tid: usize,
    run_id: u64,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Globally unique id per execution, to catch shim values leaking across executions.
static RUN_IDS: StdAtomicU64 = StdAtomicU64::new(1);

// ---------------------------------------------------------------------------
// Shim entry points (called from crate::shim)
// ---------------------------------------------------------------------------

impl Ctx {
    /// Registers a new atomic location with an initial value; inline phases only.
    pub(crate) fn register_atom(&self, init: u64) -> (u64, usize) {
        let mut core = self.shared.core.lock().expect("model core poisoned");
        assert_eq!(
            core.phase,
            Phase::Inline,
            "shim atomics must be created during scenario setup, not from model threads"
        );
        let tick = {
            core.controller_clock.tick(CONTROLLER);
            core.controller_clock.get(CONTROLLER)
        };
        let n = core.threads.len() + 1;
        let rec = StoreRec {
            value: init,
            writer: CONTROLLER,
            tick,
            // Setup stores happen-before every model thread (spawn edge), so the sync
            // clock is irrelevant; keep it for uniformity.
            sync: Some(core.controller_clock.clone()),
        };
        core.atoms.push(Location { history: vec![rec], base: 0, last_read: vec![0; n] });
        (self.run_id, core.atoms.len() - 1)
    }

    /// Registers a new lock location; inline phases only.
    pub(crate) fn register_lock(&self) -> (u64, usize) {
        let mut core = self.shared.core.lock().expect("model core poisoned");
        assert_eq!(
            core.phase,
            Phase::Inline,
            "shim locks must be created during scenario setup, not from model threads"
        );
        let clock = core.controller_clock.clone();
        core.locks.push(LockState { readers: Vec::new(), writer: None, clock });
        (self.run_id, core.locks.len() - 1)
    }

    /// Performs one shim operation: parks at the scheduler from model threads, applies
    /// inline from the controller (setup / `finally`).
    pub(crate) fn op(&self, loc: usize, op: AtomOp) -> u64 {
        if self.tid == CONTROLLER {
            let mut core = self.shared.core.lock().expect("model core poisoned");
            assert_eq!(core.phase, Phase::Inline, "controller ops only apply in inline phases");
            return apply_inline(&mut core, loc, &op);
        }
        let mut core = self.shared.core.lock().expect("model core poisoned");
        if core.abort {
            drop(core);
            std::panic::panic_any(ModelAbort);
        }
        core.threads[self.tid - 1].pending = Some((loc, op));
        self.shared.cv.notify_all();
        loop {
            if core.abort {
                core.threads[self.tid - 1].pending = None;
                drop(core);
                std::panic::panic_any(ModelAbort);
            }
            if let Some(r) = core.threads[self.tid - 1].result.take() {
                return r;
            }
            let (c, timeout) =
                self.shared.cv.wait_timeout(core, WATCHDOG).expect("model core poisoned");
            core = c;
            assert!(!timeout.timed_out(), "model scheduler handshake stalled (internal bug)");
        }
    }

    /// Lock release during panic unwinding: updates bookkeeping without parking, so the
    /// unwind can finish even though the thread is no longer scheduled.
    pub(crate) fn release_during_unwind(&self, loc: usize, write: bool) {
        let mut core = self.shared.core.lock().expect("model core poisoned");
        let tid = self.tid;
        let lock = &mut core.locks[loc];
        if write {
            if lock.writer == Some(tid) {
                lock.writer = None;
            }
        } else {
            lock.readers.retain(|&r| r != tid);
        }
        self.shared.cv.notify_all();
    }

    pub(crate) fn run_id(&self) -> u64 {
        self.run_id
    }
}

/// Applies an op sequentially-consistently from the controller (setup / quiesced).
fn apply_inline(core: &mut Core, loc: usize, op: &AtomOp) -> u64 {
    match op {
        AtomOp::LockRead | AtomOp::LockWrite | AtomOp::UnlockRead | AtomOp::UnlockWrite => {
            // Nobody can contend in an inline phase.
            0
        }
        _ => {
            core.controller_clock.tick(CONTROLLER);
            let tick = core.controller_clock.get(CONTROLLER);
            let clock = core.controller_clock.clone();
            let cap = core.history_cap;
            let a = &mut core.atoms[loc];
            let newest = a.history.last().expect("location history never empty").clone();
            match *op {
                AtomOp::Load(_) => newest.value,
                AtomOp::Store(v, o) => {
                    push_store(
                        a,
                        StoreRec {
                            value: v,
                            writer: CONTROLLER,
                            tick,
                            sync: is_release(o).then(|| clock.clone()),
                        },
                        cap,
                    );
                    0
                }
                _ => {
                    let (stored, o) = rmw_effect(op, newest.value);
                    if let Some(nv) = stored {
                        let sync = if is_release(o) { Some(clock) } else { newest.sync };
                        push_store(a, StoreRec { value: nv, writer: CONTROLLER, tick, sync }, cap);
                    }
                    newest.value
                }
            }
        }
    }
}

fn push_store(a: &mut Location, rec: StoreRec, cap: usize) {
    a.history.push(rec);
    if a.history.len() > cap {
        a.history.remove(0);
        a.base += 1;
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// Global indices of the stores a load by `tid` may legally observe, oldest first.
fn admissible(core: &Core, loc: usize, tid: usize) -> Vec<usize> {
    let a = &core.atoms[loc];
    let clock =
        if tid == CONTROLLER { &core.controller_clock } else { &core.threads[tid - 1].clock };
    // Write-read coherence floor: the newest store that happens-before the loader.
    let mut floor = a.base;
    for (i, s) in a.history.iter().enumerate() {
        if clock.get(s.writer) >= s.tick {
            floor = a.base + i;
        }
    }
    // Read-read coherence floor: never go behind this thread's previous read.
    floor = floor.max(a.last_read.get(tid).copied().unwrap_or(0)).max(a.base);
    (floor..a.base + a.history.len()).collect()
}

/// One selectable alternative at a decision point.
#[derive(Clone, Debug)]
struct Alt {
    tid: usize,
    /// For loads: global index of the store to read. Ignored otherwise.
    read_idx: usize,
}

/// Enumerates the alternatives at the current state, deterministic order: threads in
/// round-robin rotation starting after `last_ran`; for loads, newest store first.
fn alternatives(core: &Core) -> Vec<Alt> {
    let n = core.threads.len();
    let mut alts = Vec::new();
    for k in 0..n {
        let tid = (core.last_ran + k) % n + 1;
        let t = &core.threads[tid - 1];
        if t.finished {
            continue;
        }
        let Some((loc, op)) = &t.pending else { continue };
        match op {
            AtomOp::Load(_) => {
                let mut idxs = admissible(core, *loc, tid);
                idxs.reverse(); // newest first: the default path is the SC execution
                for read_idx in idxs {
                    alts.push(Alt { tid, read_idx });
                }
            }
            AtomOp::LockRead => {
                if core.locks[*loc].writer.is_none() {
                    alts.push(Alt { tid, read_idx: 0 });
                }
            }
            AtomOp::LockWrite => {
                let l = &core.locks[*loc];
                if l.writer.is_none() && l.readers.is_empty() {
                    alts.push(Alt { tid, read_idx: 0 });
                }
            }
            _ => alts.push(Alt { tid, read_idx: 0 }),
        }
    }
    alts
}

/// Applies the chosen alternative's pending op; returns the value handed to the thread.
fn apply(core: &mut Core, alt: &Alt) -> u64 {
    let tid = alt.tid;
    let (loc, op) = core.threads[tid - 1].pending.take().expect("chosen thread must be parked");
    core.threads[tid - 1].clock.tick(tid);
    let cap = core.history_cap;
    let (result, note) = match op {
        AtomOp::Load(o) => {
            let (value, sync, from) = {
                let a = &core.atoms[loc];
                let s = &a.history[alt.read_idx - a.base];
                (s.value, s.sync.clone(), format!("t{}@{}", s.writer, s.tick))
            };
            if is_acquire(o) {
                if let Some(sc) = &sync {
                    core.threads[tid - 1].clock.join(sc);
                }
            }
            let a = &mut core.atoms[loc];
            let lr = &mut a.last_read;
            if lr.len() <= tid {
                lr.resize(tid + 1, 0);
            }
            lr[tid] = alt.read_idx;
            (value, format!(" -> {value} [from {from}]"))
        }
        AtomOp::Store(v, o) => {
            let tick = core.threads[tid - 1].clock.get(tid);
            let sync = is_release(o).then(|| core.threads[tid - 1].clock.clone());
            push_store(&mut core.atoms[loc], StoreRec { value: v, writer: tid, tick, sync }, cap);
            (0, String::new())
        }
        AtomOp::FetchAdd(..) | AtomOp::FetchMax(..) | AtomOp::CompareExchange(..) => {
            let newest = core.atoms[loc].history.last().expect("history never empty").clone();
            let (stored, o) = rmw_effect(&op, newest.value);
            if is_acquire(o) {
                if let Some(sc) = &newest.sync {
                    core.threads[tid - 1].clock.join(sc);
                }
            }
            if let Some(nv) = stored {
                let tick = core.threads[tid - 1].clock.get(tid);
                let sync = if is_release(o) {
                    Some(core.threads[tid - 1].clock.clone())
                } else {
                    // Release-sequence continuation: an RMW carries its predecessor's sync.
                    newest.sync.clone()
                };
                let rec = StoreRec { value: nv, writer: tid, tick, sync };
                push_store(&mut core.atoms[loc], rec, cap);
            }
            // Reading the newest store also moves the coherence floor.
            let last = core.atoms[loc].base + core.atoms[loc].history.len() - 1;
            let lr = &mut core.atoms[loc].last_read;
            if lr.len() <= tid {
                lr.resize(tid + 1, 0);
            }
            lr[tid] = last;
            (newest.value, format!(" -> {}", newest.value))
        }
        AtomOp::LockRead => {
            let clock = core.locks[loc].clock.clone();
            core.threads[tid - 1].clock.join(&clock);
            core.locks[loc].readers.push(tid);
            (0, String::new())
        }
        AtomOp::LockWrite => {
            let clock = core.locks[loc].clock.clone();
            core.threads[tid - 1].clock.join(&clock);
            core.locks[loc].writer = Some(tid);
            (0, String::new())
        }
        AtomOp::UnlockRead => {
            let tclock = core.threads[tid - 1].clock.clone();
            let l = &mut core.locks[loc];
            l.readers.retain(|&r| r != tid);
            l.clock.join(&tclock);
            (0, String::new())
        }
        AtomOp::UnlockWrite => {
            let tclock = core.threads[tid - 1].clock.clone();
            let l = &mut core.locks[loc];
            if l.writer == Some(tid) {
                l.writer = None;
            }
            l.clock.join(&tclock);
            (0, String::new())
        }
    };
    let step = core.step;
    core.trace.push(format!("step {step:>3}: t{tid} {}{note}", op.describe(loc)));
    result
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

enum Job {
    Run { body: Box<dyn FnOnce() + Send>, ctx: Ctx },
    Shutdown,
}

struct Pool {
    senders: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(n: usize) -> Self {
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("model-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawning a model worker failed"),
            );
        }
        Pool { senders, handles }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Shutdown => return,
            Job::Run { body, ctx } => {
                let shared = Arc::clone(&ctx.shared);
                let tid = ctx.tid;
                set_ctx(Some(ctx));
                let outcome = catch_unwind(AssertUnwindSafe(body));
                set_ctx(None);
                let mut core = shared.core.lock().expect("model core poisoned");
                if let Err(payload) = outcome {
                    if payload.downcast_ref::<ModelAbort>().is_none() && core.failure.is_none() {
                        core.failure = Some(panic_message(payload));
                        core.abort = true;
                    }
                }
                core.threads[tid - 1].finished = true;
                core.threads[tid - 1].pending = None;
                shared.cv.notify_all();
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked with a non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Execution + DFS driver
// ---------------------------------------------------------------------------

struct ExecResult {
    decisions: Vec<(usize, usize)>,
    trace: Vec<String>,
    failure: Option<String>,
    steps: usize,
}

fn run_once<F>(pool: &Pool, cfg: &ModelConfig, scenario: &mut F, forced: &[usize]) -> ExecResult
where
    F: FnMut() -> Scenario,
{
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            phase: Phase::Inline,
            threads: Vec::new(),
            atoms: Vec::new(),
            locks: Vec::new(),
            controller_clock: VClock::new(1),
            history_cap: cfg.history_cap,
            step: 0,
            last_ran: 0,
            trace: Vec::new(),
            decisions: Vec::new(),
            forced: forced.to_vec(),
            abort: false,
            failure: None,
        }),
        cv: Condvar::new(),
    });
    let run_id = RUN_IDS.fetch_add(1, Ordering::Relaxed);
    let ctx = Ctx { shared: Arc::clone(&shared), tid: CONTROLLER, run_id };

    // Setup: build the scenario with the model active so shim values register.
    set_ctx(Some(ctx.clone()));
    let scn = scenario();
    set_ctx(None);
    let n = scn.threads.len();
    assert!(n <= pool.senders.len(), "scenario thread count grew between schedules");

    {
        let mut core = shared.core.lock().expect("model core poisoned");
        // Spawn edges: every thread starts with the controller's setup clock.
        let spawn_clock = core.controller_clock.clone();
        for _ in 0..n {
            core.threads.push(ThreadState {
                pending: None,
                result: None,
                finished: false,
                clock: spawn_clock.clone(),
            });
        }
        core.phase = Phase::Running;
    }
    for (i, body) in scn.threads.into_iter().enumerate() {
        let ctx = Ctx { shared: Arc::clone(&shared), tid: i + 1, run_id };
        pool.senders[i].send(Job::Run { body, ctx }).expect("model worker died");
    }

    // Schedule loop.
    let mut core = shared.core.lock().expect("model core poisoned");
    loop {
        // Wait until every live thread is parked or finished.
        loop {
            let settled = core
                .threads
                .iter()
                .all(|t| t.finished || (t.pending.is_some() && t.result.is_none()));
            if settled {
                break;
            }
            let (c, timeout) = shared.cv.wait_timeout(core, WATCHDOG).expect("model core poisoned");
            core = c;
            assert!(!timeout.timed_out(), "model threads never settled (internal bug)");
        }
        if core.threads.iter().all(|t| t.finished) {
            break;
        }
        if core.failure.is_some() || core.abort {
            // Failure already recorded: release every parked thread and let it unwind.
            core.abort = true;
            shared.cv.notify_all();
            let (c, _) = shared.cv.wait_timeout(core, WATCHDOG).expect("model core poisoned");
            core = c;
            continue;
        }
        if core.step >= cfg.max_steps {
            core.failure = Some(format!("execution exceeded {} steps (livelock?)", cfg.max_steps));
            core.abort = true;
            shared.cv.notify_all();
            continue;
        }
        let alts = alternatives(&core);
        if alts.is_empty() {
            let parked: Vec<usize> = core
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.finished)
                .map(|(i, _)| i + 1)
                .collect();
            core.failure = Some(format!("deadlock: threads {parked:?} all blocked"));
            core.abort = true;
            shared.cv.notify_all();
            continue;
        }
        let d = core.decisions.len();
        let chosen = core.forced.get(d).copied().unwrap_or(0).min(alts.len() - 1);
        core.decisions.push((chosen, alts.len()));
        let alt = alts[chosen].clone();
        core.step += 1;
        let result = apply(&mut core, &alt);
        core.last_ran = alt.tid % core.threads.len().max(1);
        core.threads[alt.tid - 1].result = Some(result);
        shared.cv.notify_all();
    }

    // Quiesced: run the final check inline with the joined view of every thread.
    core.phase = Phase::Inline;
    let joined: Vec<VClock> = core.threads.iter().map(|t| t.clock.clone()).collect();
    for c in &joined {
        core.controller_clock.join(c);
    }
    let failure_so_far = core.failure.clone();
    drop(core);
    if failure_so_far.is_none() {
        if let Some(finally) = scn.finally {
            set_ctx(Some(ctx));
            let outcome = catch_unwind(AssertUnwindSafe(finally));
            set_ctx(None);
            if let Err(payload) = outcome {
                let mut core = shared.core.lock().expect("model core poisoned");
                if core.failure.is_none() {
                    core.failure = Some(panic_message(payload));
                }
            }
        }
    }

    let core = shared.core.lock().expect("model core poisoned");
    ExecResult {
        decisions: core.decisions.clone(),
        trace: core.trace.clone(),
        failure: core.failure.clone(),
        steps: core.step,
    }
}

/// Explores bounded interleavings of `scenario` by DFS over schedule and read choices.
///
/// The scenario closure is invoked once per schedule and must rebuild its state from
/// scratch each time (the explorer asserts the thread count stays constant). Returns the
/// exploration [`Report`]; use [`Report::assert_ok`] to fail the test on violations.
pub fn explore<F>(cfg: &ModelConfig, mut scenario: F) -> Report
where
    F: FnMut() -> Scenario,
{
    let n = {
        // Probe the thread count once without running anything.
        let probe = scenario();
        probe.threads.len()
    };
    let pool = Pool::new(n);
    let budget = cfg.effective_budget();
    let mut prefix: Vec<usize> = Vec::new();
    let mut report =
        Report { schedules: 0, exhausted: false, max_depth: 0, total_steps: 0, failure: None };
    loop {
        let exec = run_once(&pool, cfg, &mut scenario, &prefix);
        report.schedules += 1;
        report.max_depth = report.max_depth.max(exec.decisions.len());
        report.total_steps += exec.steps;
        if let Some(message) = exec.failure {
            report.failure = Some(Failure {
                message,
                schedule: exec.decisions.iter().map(|&(c, _)| c).collect(),
                trace: exec.trace,
            });
            return report;
        }
        // Backtrack: bump the deepest decision that still has untried alternatives.
        let mut decisions = exec.decisions;
        let mut advanced = false;
        while let Some((chosen, nalts)) = decisions.pop() {
            if chosen + 1 < nalts {
                prefix = decisions.iter().map(|&(c, _)| c).collect();
                prefix.push(chosen + 1);
                advanced = true;
                break;
            }
        }
        if !advanced {
            report.exhausted = true;
            return report;
        }
        if report.schedules >= budget {
            return report;
        }
    }
}

/// Runs exactly one execution, forced along `schedule` (decisions beyond the prefix take
/// the first alternative). Used to replay a [`Failure::schedule`] deterministically.
pub fn replay<F>(cfg: &ModelConfig, mut scenario: F, schedule: &[usize]) -> Report
where
    F: FnMut() -> Scenario,
{
    let n = scenario().threads.len();
    let pool = Pool::new(n);
    let exec = run_once(&pool, cfg, &mut scenario, schedule);
    Report {
        schedules: 1,
        exhausted: false,
        max_depth: exec.decisions.len(),
        total_steps: exec.steps,
        failure: exec.failure.map(|message| Failure {
            message,
            schedule: exec.decisions.iter().map(|&(c, _)| c).collect(),
            trace: exec.trace,
        }),
    }
}
