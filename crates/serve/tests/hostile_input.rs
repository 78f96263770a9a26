//! Hostile-protocol-input property suite: seed-pinned fuzz of `parse_request`,
//! `validate_query`, the service loop, and the protocol session itself. The invariant
//! under test is that *no input a client can send may kill a serving worker*: every line
//! either parses (and then either validates or is answered as unroutable) or is rejected
//! with an error value; nothing panics. The session fuzz adds that every request gets
//! exactly the replies it is owed, and that every fatal input ends the session after one
//! `ERR`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::io::{self, BufReader, Read};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use msrp_core::MsrpParams;
use msrp_graph::generators::{connected_gnm, weighted_connected_gnm};
use msrp_graph::{Edge, Graph};
use msrp_obs::is_well_formed;
use msrp_serve::{
    format_answer, format_stats, format_weighted_answer, parse_metrics_header, parse_request,
    parse_stats, run_session, validate_query, Epoch, EpochOracle, ObsConfig, Query, QueryService,
    Request, RouteOracle, ServiceConfig, Services, SessionEnd, ShardedOracle,
    WeightedShardedOracle, MAX_BATCH, MAX_LINE_BYTES,
};

const N: usize = 48;
const SOURCES: [usize; 3] = [0, 16, 32];

fn service_under_test() -> QueryService {
    let mut rng = StdRng::seed_from_u64(71);
    let g = connected_gnm(N, 120, &mut rng).unwrap().freeze();
    QueryService::start(
        ShardedOracle::build(&g, &SOURCES, &MsrpParams::default(), 2),
        &ServiceConfig { workers: 3 },
    )
}

/// A seed-pinned stream of hostile lines: random verbs, wrong arities, giant and boundary
/// numbers, non-numeric tokens, u == v edges, trailing garbage, and — deliberately often —
/// a grammatically valid `Q` line whose ids may still be wildly out of range (the shape the
/// headline bug was triggered by).
fn hostile_line(rng: &mut StdRng) -> String {
    let verb = match rng.gen_range(0..15usize) {
        0..=4 => "Q",
        5..=6 => "QW",
        7 => "B",
        8 => "BW",
        9 => "STATS",
        10 => "METRICS",
        11 => "QUIT",
        12 => "q",
        13 => "FLY",
        _ => "",
    };
    let token = |rng: &mut StdRng| -> String {
        match rng.gen_range(0..10usize) {
            0..=4 => rng.gen_range(0..2 * N).to_string(),
            5 => u64::MAX.to_string(),
            6 => "999999999".to_string(),
            7 => "-3".to_string(),
            8 => "x9".to_string(),
            _ => (N - 1).to_string(),
        }
    };
    let arity = if rng.gen_range(0..2usize) == 0 { 4 } else { rng.gen_range(0..6usize) };
    let mut line = verb.to_string();
    for _ in 0..arity {
        line.push(' ');
        line.push_str(&token(rng));
    }
    line
}

#[test]
fn fuzzed_lines_never_kill_a_worker() {
    let service = service_under_test();
    let reference = service.oracle().clone();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mut parsed_queries = 0usize;
    let mut rejected_lines = 0usize;
    let mut rejected_ids = 0usize;
    let mut batch = Vec::new();
    for _ in 0..4000 {
        let line = hostile_line(&mut rng);
        match parse_request(&line) {
            Err(_) => rejected_lines += 1,
            Ok(Request::Stats)
            | Ok(Request::Metrics)
            | Ok(Request::Quit)
            | Ok(Request::Batch(_))
            | Ok(Request::WeightedBatch(_)) => {}
            // The unweighted service under test treats `QW` ids exactly like `Q` ids.
            Ok(Request::Query(q)) | Ok(Request::WeightedQuery(q)) => {
                parsed_queries += 1;
                if validate_query(&q, N).is_err() {
                    rejected_ids += 1;
                }
                // Defense in depth: even UNvalidated queries go straight to the workers.
                batch.push(q);
            }
        }
        if batch.len() >= 64 {
            let answers = service.answer_batch(&batch);
            for (q, a) in batch.iter().zip(&answers) {
                assert_eq!(*a, reference.query(*q), "q={q:?}");
            }
            batch.clear();
        }
    }
    let answers = service.answer_batch(&batch);
    assert_eq!(answers.len(), batch.len());
    // The workload actually exercised all three rejection layers.
    assert!(rejected_lines > 100, "rejected_lines = {rejected_lines}");
    assert!(parsed_queries > 100, "parsed_queries = {parsed_queries}");
    assert!(rejected_ids > 10, "rejected_ids = {rejected_ids}");
    // Every worker is still alive and exact after the storm.
    let good = Query::new(0, N - 1, Edge::new(0, 1));
    for _ in 0..service.worker_count() * 2 {
        assert_eq!(service.answer_batch(&[good])[0], reference.query(good));
    }
    let metrics = service.shutdown();
    assert!(metrics.queries_total >= parsed_queries as u64);
}

#[test]
fn boundary_queries_answer_without_panicking() {
    let service = service_under_test();
    // Exactly-at-the-boundary and far-out ids, in one batch.
    let hostile = [
        Query::new(0, N, Edge::new(0, 1)), // first out-of-range target
        Query::new(0, N - 1, Edge::new(N - 1, N)), // first out-of-range endpoint
        Query::new(N, 0, Edge::new(0, 1)), // out-of-range source
        Query::new(0, usize::MAX, Edge::new(0, 1)),
        Query::new(0, 0, Edge::new(usize::MAX - 1, usize::MAX)),
    ];
    assert_eq!(service.answer_batch(&hostile), vec![None; hostile.len()]);
    // In-range but pointless (u == v is unrepresentable as an Edge, so the closest legal
    // hostile shape is a non-existent edge) still answers exactly.
    let absent_edge = Query::new(0, 5, Edge::new(0, N - 1));
    let direct = service.oracle().query(absent_edge);
    assert_eq!(service.answer_batch(&[absent_edge])[0], direct);
    service.shutdown();
}

#[test]
fn giant_batch_headers_parse_without_allocation() {
    // `B <k>` is length-delimited; parsing the header must not allocate k of anything
    // (the front end enforces its own MAX_BATCH before reserving). u64::MAX parses as a
    // legal usize on 64-bit targets; anything larger is rejected as malformed.
    assert_eq!(parse_request("B 18446744073709551615"), Ok(Request::Batch(usize::MAX)));
    assert!(parse_request("B 18446744073709551616").is_err());
    assert!(parse_request("B -1").is_err());
}

#[test]
fn weighted_service_survives_the_same_hostility() {
    let mut rng = StdRng::seed_from_u64(72);
    let g = weighted_connected_gnm(N, 120, 1000, &mut rng).unwrap().freeze();
    let service = QueryService::start(
        WeightedShardedOracle::build(&g, &SOURCES, 2),
        &ServiceConfig { workers: 2 },
    );
    let mut fuzz_rng = StdRng::seed_from_u64(0xBEEF);
    let mut batch = Vec::new();
    for _ in 0..1500 {
        // The weighted service serves the `QW` verb, but any parsed query shape must be
        // equally survivable — both verbs feed the same Query ids.
        match parse_request(&hostile_line(&mut fuzz_rng)) {
            Ok(Request::WeightedQuery(q)) | Ok(Request::Query(q)) => batch.push(q),
            _ => {}
        }
    }
    let reference: Vec<_> = batch.iter().map(|&q| service.oracle().query(q)).collect();
    assert_eq!(service.answer_batch(&batch), reference);
    let good = Query::new(0, N - 1, Edge::new(0, 1));
    assert_eq!(service.answer_batch(&[good])[0], service.oracle().query(good));
    service.shutdown();
}

/// The churn storm: hostile lines and valid queries fired at an epoch-swapping service
/// *while* rebuild-and-publish cycles are in flight. Two invariants:
///
/// 1. **No worker dies** — every fuzzed batch is answered, and the pool still answers
///    exactly after the storm.
/// 2. **No batch mixes epochs** — every batch's answers equal, query for query, the answer
///    set of a *single* published epoch (old or new; which one depends on timing, but never
///    a blend).
#[test]
fn churn_storm_never_mixes_epochs_within_a_batch() {
    let mut rng = StdRng::seed_from_u64(74);
    let g0 = connected_gnm(N, 130, &mut rng).unwrap();
    let oracle0 = ShardedOracle::build_bk_csr(&g0.freeze(), &SOURCES, 2);
    let service = QueryService::start(EpochOracle::new(oracle0), &ServiceConfig { workers: 3 });
    // Every epoch that has ever been current, for the pinning check. Pushes happen inside
    // the same critical section as the publish, so any epoch a batch can possibly have
    // pinned is in this list by the time the storm thread locks it.
    let published: Mutex<Vec<Arc<Epoch>>> = Mutex::new(vec![service.oracle().current()]);
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            let mut g = g0.clone();
            let mut churn_rng = StdRng::seed_from_u64(75);
            let mut down: Vec<Edge> = Vec::new();
            for _ in 0..8 {
                let repair = !down.is_empty() && churn_rng.gen_range(0..2usize) == 0;
                let e = if repair {
                    let e = down.swap_remove(churn_rng.gen_range(0..down.len()));
                    let (u, v) = e.endpoints();
                    g.add_edge(u, v).unwrap();
                    e
                } else {
                    let edges = g.edge_vec();
                    let e = edges[churn_rng.gen_range(0..edges.len())];
                    let (u, v) = e.endpoints();
                    g.remove_edge(u, v).unwrap();
                    down.push(e);
                    e
                };
                let event_at = std::time::Instant::now();
                let rebuild_at = std::time::Instant::now();
                let (next, stats) =
                    service.oracle().current().oracle.rebuild_bk_csr(&g.freeze(), e);
                let rebuilt_in = rebuild_at.elapsed();
                let mut log = published.lock().unwrap();
                let epoch = service.oracle().publish(next);
                service.shared_metrics().record_epoch_swap(
                    epoch.id,
                    event_at.elapsed(),
                    rebuilt_in,
                    &stats,
                );
                log.push(epoch);
            }
        });
        // The storm: interleave fuzzed lines (unvalidated, straight at the workers) with
        // well-formed queries, in mixed batches, while the swapper runs.
        let mut fuzz_rng = StdRng::seed_from_u64(0xCAFE);
        for round in 0..60usize {
            let mut batch = Vec::new();
            while batch.len() < 24 {
                match parse_request(&hostile_line(&mut fuzz_rng)) {
                    Ok(Request::Query(q)) | Ok(Request::WeightedQuery(q)) => batch.push(q),
                    _ => {}
                }
                batch.push(Query::new(
                    SOURCES[batch.len() % SOURCES.len()],
                    fuzz_rng.gen_range(0..N),
                    Edge::new(0, 1),
                ));
            }
            let answers = service.answer_batch(&batch);
            let epochs = published.lock().unwrap().clone();
            let consistent = epochs
                .iter()
                .any(|ep| batch.iter().zip(&answers).all(|(q, a)| *a == ep.oracle.query(*q)));
            assert!(
                consistent,
                "round {round}: batch matches no single epoch (epochs seen: {})",
                epochs.len()
            );
        }
        swapper.join().expect("swapper thread panicked");
    });
    // Quiescent now: every answer must come from the final epoch, and every worker lives.
    let last = service.oracle().current();
    assert_eq!(last.id, 8);
    let good = Query::new(SOURCES[1], N - 1, Edge::new(0, 1));
    for _ in 0..service.worker_count() * 2 {
        assert_eq!(service.answer_batch(&[good])[0], last.oracle.query(good));
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.epoch, 8);
    assert_eq!(metrics.staleness_window.count, 8);
    assert_eq!(metrics.rebuild_latency.count, 8);
    assert_eq!(metrics.rebuild.sources_total, 8 * SOURCES.len());
    assert!(metrics.queries_total > 0);
}

/// A pass-through oracle that parks every worker consulting it on an *empty* batch until the
/// test has passed both barriers. A worker dequeues its next batch only after it has
/// journaled its previous one, so once `W` empty batches have parked all `W` workers of the
/// pool (`arrived` has `W + 1` parties), every batch answered before them is fully journaled
/// and no other span can land until `release`. That is how a test waits for the workers'
/// after-reply journaling without sleeping.
struct Quiesce<O> {
    inner: O,
    arrived: Barrier,
    release: Barrier,
}

impl<O> Quiesce<O> {
    fn new(inner: O, workers: usize) -> Self {
        Quiesce { inner, arrived: Barrier::new(workers + 1), release: Barrier::new(workers + 1) }
    }
}

impl<O: RouteOracle> RouteOracle for Quiesce<O> {
    type Answer = O::Answer;

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn query_routed(&self, q: Query) -> (Option<usize>, Option<O::Answer>) {
        self.inner.query_routed(q)
    }

    fn query_batch_routed(&self, queries: &[Query]) -> Vec<(Option<usize>, Option<O::Answer>)> {
        if queries.is_empty() {
            self.arrived.wait();
            self.release.wait();
        }
        self.inner.query_batch_routed(queries)
    }
}

/// The metrics plane under the storm: `METRICS` parses strictly however it is mangled, and
/// the exposition rendered *while* epoch swaps and hostile batches are in flight is
/// well-formed on every single scrape — a scraper never sees a torn or malformed page, the
/// pinned `STATS` grammar round-trips mid-storm, and no worker dies serving either verb.
#[test]
fn metrics_scrapes_stay_well_formed_during_epoch_swap_storm() {
    // Parse-boundary hostility first: only the bare verb is the verb.
    assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
    for line in ["METRIC", "METRICSS", "metrics", "METRICS 1", "METRICS x", "METRICS METRICS"] {
        assert!(parse_request(line).is_err(), "line {line:?} must be rejected at parse");
    }
    let mut rng = StdRng::seed_from_u64(76);
    let g0 = connected_gnm(N, 130, &mut rng).unwrap();
    let oracle0 = ShardedOracle::build_bk_csr(&g0.freeze(), &SOURCES, 2);
    let workers = 3;
    let service = QueryService::start_observed(
        Quiesce::new(EpochOracle::new(oracle0), workers),
        &ServiceConfig { workers },
        &ObsConfig {
            // Deliberately tiny ring: the storm must wrap it, so scrapes race overwrites.
            journal_capacity: 64,
            slow_query_threshold: Some(Duration::ZERO),
            slow_log_capacity: 4,
            trace_seed: 0xFEED,
        },
    );
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            let mut g = g0.clone();
            let mut churn_rng = StdRng::seed_from_u64(77);
            for _ in 0..6 {
                let edges = g.edge_vec();
                let e = edges[churn_rng.gen_range(0..edges.len())];
                let (u, v) = e.endpoints();
                g.remove_edge(u, v).unwrap();
                let event_at = std::time::Instant::now();
                let (next, stats) =
                    service.oracle().inner.current().oracle.rebuild_bk_csr(&g.freeze(), e);
                let rebuilt_in = event_at.elapsed();
                let epoch = service.oracle().inner.publish(next);
                service.shared_metrics().record_epoch_swap(
                    epoch.id,
                    event_at.elapsed(),
                    rebuilt_in,
                    &stats,
                );
            }
        });
        let mut fuzz_rng = StdRng::seed_from_u64(0xD00F);
        for round in 0..50usize {
            let mut batch = Vec::new();
            while batch.len() < 16 {
                if let Ok(Request::Query(q) | Request::WeightedQuery(q)) =
                    parse_request(&hostile_line(&mut fuzz_rng))
                {
                    batch.push(q);
                }
                batch.push(Query::new(
                    SOURCES[batch.len() % SOURCES.len()],
                    fuzz_rng.gen_range(0..N),
                    Edge::new(0, 1),
                ));
            }
            service.answer_batch(&batch);
            // Scrape mid-storm: the pinned STATS grammar round-trips, and the exposition
            // is well-formed even with swaps and journal wraps in flight.
            let stats_line = format_stats(&service.metrics());
            parse_stats(&stats_line).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            let text = service.render_metrics();
            assert!(is_well_formed(&text), "round {round}: malformed exposition:\n{text}");
            assert!(text.contains("msrp_queries_total"), "round {round}");
            assert!(text.contains("msrp_journal_events_total"), "round {round}");
        }
        swapper.join().expect("swapper thread panicked");
    });
    // Workers journal after replying, so park them all before counting: then the 50
    // answered batches are journaled and nothing else is.
    let parked: Vec<_> = (0..workers).map(|_| service.submit(&[])).collect();
    service.oracle().arrived.wait();
    let journal = service.journal_snapshot().expect("journal armed");
    service.oracle().release.wait();
    for batch in parked {
        assert!(batch.wait().is_empty());
    }
    // The ring wrapped (drops counted, never blocked) and the plane still renders cleanly.
    assert!(journal.total >= 150 && journal.total.is_multiple_of(3), "total = {}", journal.total);
    assert!(journal.dropped > 0, "a 64-slot ring must wrap under 50 batches");
    assert!(service.slow_queries_total() > 0, "zero threshold must capture slow queries");
    // Quiescent: the final epoch serves, the last scrape is well-formed, workers live.
    let last = service.oracle().inner.current();
    assert_eq!(last.id, 6);
    let good = Query::new(SOURCES[1], N - 1, Edge::new(0, 1));
    for _ in 0..service.worker_count() * 2 {
        assert_eq!(service.answer_batch(&[good])[0], last.oracle.query(good));
    }
    assert!(is_well_formed(&service.render_metrics()));
    let metrics = service.shutdown();
    assert_eq!(metrics.epoch, 6);
    assert_eq!(metrics.rebuild_latency.count, 6);
}

/// The BK-built service under the same storm: a graph with isolated vertices and a pendant
/// bridge, served from `ShardedOracle::build_bk_csr` shards. No fuzzed line may kill a
/// worker; unroutable ids answer `(None, None)`; answers stay bit-for-bit equal to the
/// `build_exact` reference throughout.
#[test]
fn bk_built_service_survives_hostility() {
    // 0..40 form a connected gnm component; 40..48 stay isolated (hostile "query an
    // isolated vertex" territory). Sources include an isolated vertex on purpose.
    let mut rng = StdRng::seed_from_u64(73);
    let core = connected_gnm(40, 100, &mut rng).unwrap();
    let mut g = Graph::new(N);
    for e in core.edges() {
        let (u, v) = e.endpoints();
        g.add_edge(u, v).unwrap();
    }
    let sources = [0usize, 16, 32, 44]; // 44 is isolated: every query from it is ∞ or local
    let csr = g.freeze();
    let service = QueryService::start(
        ShardedOracle::build_bk_csr(&csr, &sources, 2),
        &ServiceConfig { workers: 3 },
    );
    let reference = msrp_oracle::ReplacementPathOracle::build_exact(&csr, &sources);

    // Targeted hostile shapes first: out-of-range ids, non-tree edges, absent edges between
    // components, self-loops (rejected at parse), and queries on isolated vertices.
    for line in ["Q 0 5 7 7", "QW 0 5 7 7", "Q 1 2", "BW -9", "QW x 1 2 3"] {
        assert!(parse_request(line).is_err(), "line {line:?} must be rejected at parse");
    }
    let absent_edge = Edge::new(0, 41); // crosses into the isolated block: never a graph edge
    let hostile = [
        Query::new(0, N, Edge::new(0, 1)), // first out-of-range target
        Query::new(0, 999_999_999, Edge::new(0, 1)), // far out-of-range target
        Query::new(usize::MAX, 0, Edge::new(0, 1)), // out-of-range source
        Query::new(0, 0, Edge::new(N - 1, N)), // out-of-range endpoint
        Query::new(0, 0, Edge::new(usize::MAX - 1, usize::MAX)), // both endpoints hostile
    ];
    for q in hostile {
        assert_eq!(service.oracle().query_routed(q), (None, None), "q={q:?}");
    }
    let in_range = [
        Query::new(44, 3, Edge::new(0, 1)), // isolated source: base distance is ∞
        Query::new(0, 45, Edge::new(0, 1)), // isolated target
        Query::new(44, 45, absent_edge),    // isolated to isolated, absent edge
        Query::new(0, 3, absent_edge),      // absent (non-tree, non-graph) edge
        Query::new(16, 39, Edge::new(41, 47)), // edge fully inside the isolated block
    ];
    for q in in_range {
        assert_eq!(
            service.answer_batch(&[q])[0],
            reference.replacement_distance(q.source, q.target, q.avoid),
            "q={q:?}"
        );
    }

    // Then the seeded storm, unvalidated, straight at the workers.
    let mut fuzz_rng = StdRng::seed_from_u64(0xB00C);
    let mut batch = Vec::new();
    for _ in 0..2000 {
        match parse_request(&hostile_line(&mut fuzz_rng)) {
            Ok(Request::Query(q)) | Ok(Request::WeightedQuery(q)) => batch.push(q),
            _ => {}
        }
        if batch.len() >= 64 {
            for (q, a) in batch.iter().zip(service.answer_batch(&batch)) {
                let expected = if q.target >= N || q.avoid.hi() >= N {
                    None
                } else {
                    reference.replacement_distance(q.source, q.target, q.avoid)
                };
                assert_eq!(a, expected, "q={q:?}");
            }
            batch.clear();
        }
    }
    // Every worker survived and still answers exactly.
    let good = Query::new(0, 39, Edge::new(0, 1));
    for _ in 0..service.worker_count() * 2 {
        assert_eq!(
            service.answer_batch(&[good])[0],
            reference.replacement_distance(0, 39, Edge::new(0, 1))
        );
    }
    service.shutdown();
}

/// The memory-exhaustion regression: a client streaming megabytes of newline-free bytes.
/// `read_line` would buffer the whole storm (the line buffer grows until the allocator
/// gives out); `read_line_bounded` must terminate at the cap with `TooLong` and never
/// let the line buffer grow past it — resident memory per connection stays bounded no
/// matter how much the client sends.
#[test]
fn newline_free_storm_never_grows_the_line_buffer_past_the_cap() {
    use msrp_serve::{read_line_bounded, LineOutcome, MAX_LINE_BYTES};
    use std::io::{BufReader, Read};

    /// 8 MiB of newline-free hostility, delivered in awkward chunk sizes.
    struct Storm {
        remaining: usize,
        chunk: usize,
    }
    impl Read for Storm {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = self.remaining.min(self.chunk).min(buf.len());
            for b in &mut buf[..take] {
                *b = b'x';
            }
            self.remaining -= take;
            // Vary the chunk size so cap boundaries land mid-chunk, on-chunk, and
            // one-past-chunk across iterations.
            self.chunk = (self.chunk % 7777) + 1;
            Ok(take)
        }
    }

    let storm_bytes = 8 * 1024 * 1024;
    let mut reader = BufReader::new(Storm { remaining: storm_bytes, chunk: 4096 });
    let mut line = String::new();
    let outcome = read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES).unwrap();
    assert_eq!(outcome, LineOutcome::TooLong, "a newline-free storm must be cut off");
    assert_eq!(line.len(), MAX_LINE_BYTES, "the reported prefix is exactly the cap");
    assert!(
        line.capacity() <= 2 * MAX_LINE_BYTES,
        "the line buffer must stay near the cap, not grow toward the {storm_bytes}-byte storm \
         (capacity = {})",
        line.capacity()
    );
    // The untouched remainder proves the reader stopped at the cap instead of draining
    // (and therefore buffering) the storm: at most the cap plus one BufReader refill was
    // ever pulled off the wire.
    let mut drained = 0usize;
    let mut sink = [0u8; 65536];
    loop {
        let got = reader.read(&mut sink).unwrap();
        if got == 0 {
            break;
        }
        drained += got;
    }
    assert!(
        drained >= storm_bytes - MAX_LINE_BYTES - 2 * 8192,
        "almost all of the storm must still be on the wire, only {drained} bytes were left"
    );
}

/// Pins the `METRICS` wire-framing invariant: the header announces
/// `text.lines().count()` lines and the body is then written raw, so the rendered text
/// must end in exactly one `\n` — a missing final newline would make the client's k-line
/// read swallow the next reply, a doubled one would desynchronize it a line early.
#[test]
fn metrics_body_matches_its_own_line_count_header() {
    use std::io::{BufRead, BufReader, Write};

    let service = service_under_test();
    // Exercise the service so the histograms have buckets (more exposition lines).
    service.answer_batch(&[Query::new(0, 5, Edge::new(0, 1))]);

    for _ in 0..3 {
        let text = service.render_metrics();
        assert!(text.ends_with('\n'), "rendered metrics must end with a newline");
        assert!(!text.ends_with("\n\n"), "rendered metrics must not end with a blank line");
        assert_eq!(
            text.lines().count(),
            text.bytes().filter(|&b| b == b'\n').count(),
            "every line is newline-terminated, so the header count equals the wire count"
        );

        // Round-trip the exact framing `run_session` uses: write header + raw
        // body, then read the announced number of lines back and require byte equality.
        let mut wire = Vec::new();
        writeln!(wire, "{}", msrp_serve::format_metrics_header(text.lines().count())).unwrap();
        wire.write_all(text.as_bytes()).unwrap();
        // The next reply on the connection must start exactly after the body.
        writeln!(wire, "STATS_SENTINEL").unwrap();

        let mut reader = BufReader::new(&wire[..]);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let k = msrp_serve::parse_metrics_header(line.trim_end()).unwrap();
        let mut body = String::new();
        for _ in 0..k {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "body shorter than its header");
            body.push_str(&line);
        }
        assert_eq!(body, text, "k header lines must reassemble the exact rendered text");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "STATS_SENTINEL", "framing must not eat the next reply");
        assert!(is_well_formed(&body), "reassembled exposition must be well-formed");
    }
    service.shutdown();
}

/// The three shapes of [`Services`] a process can serve, each answering inline.
fn session_services(hop: bool, weighted: bool) -> Services {
    let config = ServiceConfig { workers: 0 };
    let mut rng = StdRng::seed_from_u64(81);
    let g = connected_gnm(N, 120, &mut rng).unwrap().freeze();
    let wg = weighted_connected_gnm(N, 120, 1000, &mut rng).unwrap().freeze();
    Services {
        hop: hop
            .then(|| QueryService::start(ShardedOracle::build_bk_csr(&g, &SOURCES, 2), &config)),
        weighted: weighted
            .then(|| QueryService::start(WeightedShardedOracle::build(&wg, &SOURCES, 2), &config)),
    }
}

/// An in-memory client stream that, once its bytes run out, either ends (EOF) or fails
/// the way a socket read timeout does.
struct Client {
    bytes: io::Cursor<Vec<u8>>,
    stall: Option<io::ErrorKind>,
}

impl Read for Client {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.bytes.read(buf)? {
            0 => self.stall.map_or(Ok(0), |kind| Err(kind.into())),
            n => Ok(n),
        }
    }
}

/// One line of what a session owes, in order.
#[derive(Debug)]
enum Owed {
    /// Exactly this line.
    Line(String),
    /// Any `ERR` line (a parse or validation error, whose wording the protocol owns).
    Err,
    /// A parseable `STATS` line.
    Stats,
    /// A `METRICS k` header and the `k` lines it announces.
    Metrics,
}

/// A `Q` (or `QW`) line from a served source with in-range ids (the avoided pair need not
/// be an edge), or, one time in four, an out-of-range target.
fn query_line(rng: &mut StdRng, verb: &str) -> String {
    let s = SOURCES[rng.gen_range(0..SOURCES.len())];
    let t =
        if rng.gen_range(0..4usize) == 0 { N + rng.gen_range(0..N) } else { rng.gen_range(0..N) };
    let u = rng.gen_range(0..N - 1);
    format!("{verb} {s} {t} {u} {}", rng.gen_range(u + 1..N))
}

/// A seed-pinned hostile client: [`hostile_line`]s (whose `B`/`BW` headers swallow
/// whatever lines follow), batches and single queries of either metric, the metrics verbs,
/// and now and then a session-ending request; its stream then ends or stalls.
fn hostile_session(rng: &mut StdRng) -> Client {
    let mut lines = Vec::new();
    for _ in 0..rng.gen_range(1..40usize) {
        match rng.gen_range(0..40usize) {
            0..=11 => lines.push(hostile_line(rng)),
            12..=21 => {
                let (header, verb) =
                    if rng.gen_range(0..2usize) == 0 { ("B", "Q") } else { ("BW", "QW") };
                let k = rng.gen_range(0..6usize);
                lines.push(format!("{header} {k}"));
                for _ in 0..k {
                    // One line in 24 belongs to the other metric or is not a query.
                    lines.push(match rng.gen_range(0..24usize) {
                        0 => hostile_line(rng),
                        _ => query_line(rng, verb),
                    });
                }
            }
            22..=31 => {
                let verb = if rng.gen_range(0..2usize) == 0 { "Q" } else { "QW" };
                lines.push(query_line(rng, verb));
            }
            32 => lines.push("STATS".into()),
            33 => lines.push("METRICS".into()),
            34 => lines.push(format!("B {}", MAX_BATCH + 1 + rng.gen_range(0..4usize))),
            35 => lines.push("x".repeat(MAX_LINE_BYTES + 1)),
            36 => lines.push("STOP".into()),
            _ => lines.push(hostile_line(rng)),
        }
    }
    let stall = match rng.gen_range(0..4usize) {
        0 => Some(io::ErrorKind::TimedOut),
        1 => Some(io::ErrorKind::WouldBlock),
        _ => None,
    };
    let bytes: Vec<u8> = lines.iter().flat_map(|l| l.bytes().chain([b'\n'])).collect();
    Client { bytes: io::Cursor::new(bytes), stall }
}

/// The reply one query is owed: the oracle's answer, an `ERR` for an out-of-range id, or
/// `None` when the process does not serve the query's metric.
fn owed_answer(services: &Services, q: Query, weighted: bool) -> Option<Owed> {
    // The oracles answer out-of-range ids as unroutable, so the answer is safe to compute.
    let (vertex_count, answer) = if weighted {
        let s = services.weighted.as_ref()?;
        (s.oracle().vertex_count(), format_weighted_answer(s.oracle().query(q)))
    } else {
        let s = services.hop.as_ref()?;
        (s.oracle().vertex_count(), format_answer(s.oracle().query(q)))
    };
    Some(match validate_query(&q, vertex_count) {
        Ok(()) => Owed::Line(answer),
        Err(_) => Owed::Err,
    })
}

/// What a session owes a client that sends `lines` and then stalls (or hangs up): a
/// model of the protocol written from its specification, independent of the session.
fn owed_replies(services: &Services, lines: &[&str], stalls: bool) -> (Vec<Owed>, SessionEnd) {
    let mut owed = Vec::new();
    let mut lines = lines.iter();
    let end_of_input = |mut owed: Vec<Owed>| {
        if stalls {
            owed.push(Owed::Line("ERR idle timeout".into()));
        }
        (owed, SessionEnd::Closed)
    };
    let fatal = |mut owed: Vec<Owed>, why: String| {
        owed.push(Owed::Line(format!("ERR {why}")));
        (owed, SessionEnd::Closed)
    };
    loop {
        let Some(line) = lines.next() else { return end_of_input(owed) };
        if line.len() > MAX_LINE_BYTES {
            return fatal(owed, "line too long".into());
        }
        if *line == "STOP" {
            owed.push(Owed::Line("OK stopping".into()));
            return (owed, SessionEnd::Stop);
        }
        let (k, weighted) =
            match parse_request(line) {
                Err(_) => {
                    owed.push(Owed::Err);
                    continue;
                }
                Ok(Request::Query(q)) => {
                    owed.push(owed_answer(services, q, false).unwrap_or_else(|| {
                        Owed::Line("ERR this server is weighted: use QW".into())
                    }));
                    continue;
                }
                Ok(Request::WeightedQuery(q)) => {
                    owed.push(owed_answer(services, q, true).unwrap_or_else(|| {
                        Owed::Line("ERR this server is hop-metric: use Q".into())
                    }));
                    continue;
                }
                Ok(Request::Stats) => {
                    owed.push(Owed::Stats);
                    continue;
                }
                Ok(Request::Metrics) => {
                    owed.push(Owed::Metrics);
                    continue;
                }
                Ok(Request::Quit) => return (owed, SessionEnd::Closed),
                Ok(Request::Batch(k)) => (k, false),
                Ok(Request::WeightedBatch(k)) => (k, true),
            };
        let served = if weighted { services.weighted.is_some() } else { services.hop.is_some() };
        if !served {
            let other = if weighted { "hop-metric: use B" } else { "weighted: use BW" };
            return fatal(owed, format!("this server is {other}"));
        }
        if k > MAX_BATCH {
            return fatal(owed, format!("batch size {k} exceeds the limit of {MAX_BATCH}"));
        }
        let mut replies = Vec::new();
        for _ in 0..k {
            let Some(line) = lines.next() else { return end_of_input(owed) };
            if line.len() > MAX_LINE_BYTES {
                return fatal(owed, "line too long".into());
            }
            match (parse_request(line), weighted) {
                (Ok(Request::Query(q)), false) | (Ok(Request::WeightedQuery(q)), true) => {
                    replies.push(owed_answer(services, q, weighted).expect("served"));
                }
                _ => {
                    let verb = if weighted { "QW" } else { "Q" };
                    return fatal(owed, format!("batch lines must be {verb} queries"));
                }
            }
        }
        owed.extend(replies);
    }
}

#[test]
fn fuzzed_sessions_owe_exactly_their_replies_and_fatal_input_ends_them() {
    let mut rng = StdRng::seed_from_u64(0x5E55);
    // Last reply of each session (or how it ended), to prove every fatal path was driven.
    let mut endings = std::collections::BTreeMap::<String, usize>::new();
    let mut answered = 0usize;
    for (hop, weighted) in [(true, false), (false, true), (true, true)] {
        let services = session_services(hop, weighted);
        for session in 0..300 {
            let client = hostile_session(&mut rng);
            let sent = String::from_utf8_lossy(client.bytes.get_ref()).into_owned();
            let sent: Vec<&str> = sent.lines().collect();
            let (owed, want_end) = owed_replies(&services, &sent, client.stall.is_some());
            let mut out = Vec::new();
            let end = run_session(BufReader::new(client), &mut out, &services)
                .expect("in-memory I/O never fails, and stalls end the session with an ERR");
            let ctx = || format!("shape ({hop}, {weighted}) session {session}: {sent:?}");
            assert_eq!(end, want_end, "{}", ctx());
            let out = String::from_utf8(out).expect("replies are UTF-8");
            let mut got = out.lines();
            for o in &owed {
                let line = got.next().unwrap_or_else(|| panic!("missing {o:?}: {}", ctx()));
                match o {
                    Owed::Line(want) => assert_eq!(line, want, "{}", ctx()),
                    Owed::Err => assert!(line.starts_with("ERR "), "{line:?}: {}", ctx()),
                    Owed::Stats => assert!(parse_stats(line).is_ok(), "{line:?}: {}", ctx()),
                    Owed::Metrics => {
                        let k = parse_metrics_header(line).expect("METRICS header");
                        let body: Vec<&str> = got.by_ref().take(k).collect();
                        assert_eq!(body.len(), k, "short METRICS body: {}", ctx());
                        assert!(is_well_formed(&(body.join("\n") + "\n")), "{}", ctx());
                    }
                }
            }
            assert_eq!(got.next(), None, "a reply nobody asked for: {}", ctx());
            answered += owed
                .iter()
                .filter(
                    |o| matches!(o, Owed::Line(l) if !l.starts_with("ERR") && l != "OK stopping"),
                )
                .count();
            let ending = match (owed.last(), end) {
                (_, SessionEnd::Stop) => "STOP".to_string(),
                (Some(Owed::Line(l)), _) if l.starts_with("ERR ") => {
                    l.split(|c: char| c.is_ascii_digit()).next().unwrap_or(l).to_string()
                }
                _ => "EOF or QUIT".to_string(),
            };
            *endings.entry(ending).or_default() += 1;
        }
    }
    for fatal in [
        "ERR line too long",
        "ERR idle timeout",
        "ERR batch size ",
        "ERR batch lines must be Q queries",
        "ERR batch lines must be QW queries",
        "ERR this server is weighted: use BW",
        "ERR this server is hop-metric: use B",
        "STOP",
        "EOF or QUIT",
    ] {
        assert!(
            endings.get(fatal).is_some_and(|&n| n > 0),
            "never ended by {fatal:?}: {endings:?}"
        );
    }
    assert!(answered > 1500, "only {answered} answers were checked against the oracle");
}
