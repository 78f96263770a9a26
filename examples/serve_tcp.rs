//! The TCP front end of the replacement-path query service: the sharded oracle behind a real
//! socket, speaking the newline-delimited text protocol of `msrp::serve::protocol`.
//!
//! Four modes:
//!
//! ```text
//! cargo run --release --example serve_tcp                      # self-contained smoke run
//! cargo run --release --example serve_tcp -- --metrics         # smoke run with tracing on
//! cargo run --release --example serve_tcp -- --serve ADDR      # serve until a client sends STOP
//! cargo run --release --example serve_tcp -- --client ADDR     # drive an external server, then STOP it
//! ```
//!
//! The default mode is what CI runs: it starts the server on an OS-assigned localhost port,
//! connects a client over the real socket, issues single and batched queries — hop-metric
//! `Q`/`B` lines served from Bernstein–Karger-built shards and weighted `QW`/`BW` lines
//! served from the weighted oracle — cross-checks every answer against single-threaded
//! in-process oracles, exercises the `STATS` and `METRICS` metrics plane, and stops the
//! server with `STOP`. The `--serve` / `--client` pair runs the same code split across two
//! processes. The server is `msrp::serve::serve`, the bounded accept loop `msrpctl serve`
//! also runs: every connection gets its own thread and the answers are computed on it.
//! `--metrics` is the same smoke run with the full observability plane on — span journal,
//! slow-query log, seed-stable trace ids — and dumps the per-stage span accounting, the
//! slow-query replay lines, and the complete text exposition before exiting.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use msrp::core::MsrpParams;
use msrp::graph::generators::{connected_gnm, weighted_connected_gnm};
use msrp::graph::{Edge, Graph, WeightedCsrGraph};
use msrp::obs::is_well_formed;
use msrp::oracle::{ReplacementPathOracle, WeightedReplacementOracle};
use msrp::serve::{
    format_answer, format_query, format_weighted_answer, format_weighted_query,
    parse_metrics_header, parse_stats, random_queries, serve, BatchStage, ObsConfig, Query,
    QueryService, ServiceConfig, Services, ShardedOracle, WeightedShardedOracle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The demo workload is pinned so server and client (possibly separate processes) agree on
/// the graph and sources without exchanging them.
const GRAPH_SEED: u64 = 99;
const N: usize = 96;
const M: usize = 240;
const SOURCES: [usize; 4] = [0, 24, 48, 72];
const SHARDS: usize = 2;
/// The weighted demo graph served behind the `QW`/`BW` verbs (its own seed stream, its own
/// dimensions, so a confused client cannot mistake one metric's ids for the other's).
const WEIGHTED_SEED: u64 = 977;
const WN: usize = 64;
const WM: usize = 160;
const W_MAX_WEIGHT: u64 = 1000;
const WSOURCES: [usize; 3] = [0, 21, 42];

fn demo_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    connected_gnm(N, M, &mut rng).expect("valid demo parameters")
}

fn weighted_demo_graph() -> WeightedCsrGraph {
    let mut rng = StdRng::seed_from_u64(WEIGHTED_SEED);
    weighted_connected_gnm(WN, WM, W_MAX_WEIGHT, &mut rng).expect("valid demo parameters").freeze()
}

/// Starts both metric services: the hop metric from Bernstein–Karger-built shards (the real
/// BK preprocessing, serving bit-for-bit what `build`/`build_exact` shards would), and the
/// weighted metric from Dijkstra-tree shards. Each answers on the connection's own thread.
fn start_services(obs: &ObsConfig) -> Services {
    let g = demo_graph().freeze();
    let config = ServiceConfig { workers: 0 };
    let hop = ShardedOracle::build_bk_csr(&g, &SOURCES, SHARDS);
    let weighted = WeightedShardedOracle::build(&weighted_demo_graph(), &WSOURCES, SHARDS);
    Services {
        hop: Some(QueryService::start_observed(hop, &config, obs)),
        weighted: Some(QueryService::start_observed(weighted, &config, obs)),
    }
}

/// The observability plane the `--metrics` mode turns on: span journal, slow-query log (a
/// zero threshold captures every batch — this is a demo, and it proves the replay payloads
/// flow end to end), and seed-stable trace ids.
fn metrics_obs_config() -> ObsConfig {
    ObsConfig {
        journal_capacity: 4096,
        slow_query_threshold: Some(Duration::ZERO),
        slow_log_capacity: 8,
        trace_seed: GRAPH_SEED,
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the serve_tcp server");
        Conn { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send a request line");
    }

    /// The next reply line, or `None` once the server has closed the connection.
    fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line).expect("read a reply");
        (read > 0).then(|| line.trim_end().to_string())
    }

    fn expect_err(&mut self, sent: &str) {
        let reply = self.reply().unwrap_or_default();
        assert!(reply.starts_with("ERR"), "{sent:?} must draw ERR, got {reply:?}");
    }
}

/// Drives one metric's verbs (`Q`/`B` or `QW`/`BW`): `singles` single queries, hostile
/// lines that must each draw `ERR`, a batch whose out-of-range line is answered in place,
/// and one batch of the remaining queries. Every answer must equal `want` (the in-process
/// oracle's answer, formatted) for the same query.
fn check_metric(
    conn: &mut Conn,
    format: fn(&Query) -> String,
    batch: &str,
    queries: &[Query],
    singles: usize,
    hostile: &[String],
    want: impl Fn(&Query) -> String,
) {
    for q in &queries[..singles] {
        conn.send(&format(q));
        assert_eq!(conn.reply(), Some(want(q)), "socket answer for {q:?} must match the oracle");
    }
    // Regression: out-of-range ids used to panic the serving worker. Each must draw an
    // `ERR` over the real socket, and the answers that follow prove the server survived.
    for line in hostile {
        conn.send(line);
        conn.expect_err(line);
    }
    let out_of_range = format(&Query::new(0, 999_999_999, Edge::new(0, 1)));
    conn.send(&format!("{batch} 3"));
    for line in [format(&queries[0]), out_of_range.clone(), format(&queries[1])] {
        conn.send(&line);
    }
    assert_eq!(conn.reply(), Some(want(&queries[0])));
    conn.expect_err(&out_of_range);
    assert_eq!(conn.reply(), Some(want(&queries[1])));
    let rest = &queries[singles..];
    conn.send(&format!("{batch} {}", rest.len()));
    for q in rest {
        conn.send(&format(q));
    }
    for q in rest {
        assert_eq!(conn.reply(), Some(want(q)), "batched answer for {q:?} must match the oracle");
    }
}

/// `--client`: issue a seed-pinned workload over the socket, verify every answer against a
/// local single-threaded oracle, print what happened, and stop the server.
fn run_client(addr: &str) {
    let g = demo_graph();
    let reference = ReplacementPathOracle::build(&g.freeze(), &SOURCES, &MsrpParams::default());
    let queries = random_queries(&g, &SOURCES, 64, &mut StdRng::seed_from_u64(7));
    let wg = weighted_demo_graph();
    let wreference = WeightedReplacementOracle::build(&wg, &WSOURCES);
    let wedges: Vec<_> = wg.edge_vec().iter().map(|&(e, _)| e).collect();
    let mut wrng = StdRng::seed_from_u64(8);
    let wqueries: Vec<Query> = (0..24)
        .map(|_| {
            let s = WSOURCES[wrng.gen_range(0..WSOURCES.len())];
            Query::new(s, wrng.gen_range(0..WN), wedges[wrng.gen_range(0..wedges.len())])
        })
        .collect();
    let hostile = [
        "Q 0 999999999 0 1".to_string(),            // target out of range
        format!("Q 0 1 0 {N}"),                     // edge endpoint just past the boundary
        "Q 18446744073709551615 1 0 1".to_string(), // u64::MAX source
    ];
    let whostile = [
        "QW 0 999999999 0 1".to_string(),            // target out of range
        format!("QW 0 1 0 {WN}"),                    // endpoint just past the weighted bound
        "QW 18446744073709551615 1 0 1".to_string(), // u64::MAX source
        "QW 0 1 7 7".to_string(),                    // self-loop edge key, rejected at parse
    ];

    let mut conn = Conn::connect(addr);
    check_metric(&mut conn, format_query, "B", &queries, 16, &hostile, |q| {
        format_answer(reference.replacement_distance(q.source, q.target, q.avoid))
    });
    check_metric(&mut conn, format_weighted_query, "BW", &wqueries, 8, &whostile, |q| {
        format_weighted_answer(wreference.replacement_distance(q.source, q.target, q.avoid))
    });
    // Metrics over the wire, part 1: the one-line machine-parseable STATS probe. The reply
    // must parse under the pinned format and round-trip exactly.
    conn.send("STATS");
    let stats_line = conn.reply().expect("STATS reply");
    let stats = parse_stats(&stats_line).expect("STATS reply parses under the pinned format");
    assert_eq!(stats.to_string(), stats_line, "STATS reply must round-trip");
    assert!(stats.queries >= queries.len() as u64, "server counted {}", stats.queries);
    println!("server reports: {stats_line}");
    // Part 2: the full Prometheus-style exposition behind the METRICS verb, length-delimited
    // by its header line.
    conn.send("METRICS");
    let k = parse_metrics_header(&conn.reply().expect("METRICS header")).expect("header parses");
    let exposition: String =
        (0..k).map(|_| conn.reply().expect("short METRICS reply") + "\n").collect();
    assert!(is_well_formed(&exposition), "exposition must be well-formed:\n{exposition}");
    assert!(exposition.contains("msrp_queries_total"), "core families must be present");
    assert!(exposition.contains("msrp_batch_latency_seconds_count"));
    println!("client fetched a {k}-line well-formed METRICS exposition");
    // Last on this connection: a batch header over the server's limit draws an ERR and
    // closes the connection (the client might already have pipelined the batch lines, so
    // continuing would desynchronize replies).
    conn.send("B 999999999");
    conn.expect_err("B 999999999");
    assert_eq!(conn.reply(), None, "the server must close the connection after that header");

    // Regression, on its own connection: a newline-free line past the byte cap must draw
    // `ERR line too long` and a close — `read_line` used to buffer such a line without
    // bound, handing any client a memory-exhaustion primitive. Exactly cap+1 bytes then a
    // write shutdown: the server provably consumes every byte before replying, so the
    // close is a clean FIN and the ERR cannot be lost to a reset.
    let mut storm = Conn::connect(addr);
    let oversized = vec![b'x'; msrp::serve::MAX_LINE_BYTES + 1];
    storm.writer.write_all(&oversized).expect("send newline-free storm");
    storm.writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert_eq!(storm.reply().as_deref(), Some("ERR line too long"));
    assert_eq!(storm.reply(), None, "the server must close the connection after it");
    println!(
        "a {}-byte newline-free line drew `ERR line too long` and a clean close",
        oversized.len()
    );

    // Last, on a third connection: STOP ends the server's accept loop.
    let mut stop = Conn::connect(addr);
    stop.send("STOP");
    assert_eq!(stop.reply().as_deref(), Some("OK stopping"), "STOP must be acknowledged");

    println!(
        "client verified {} hop-metric answers ({} single + {} batched) and {} weighted \
         answers against the in-process oracles, and {} hostile lines drew ERR replies \
         without killing a worker",
        queries.len(),
        16,
        queries.len() - 16,
        wqueries.len(),
        hostile.len() + whostile.len() + 4
    );
}

/// The self-contained smoke run: server thread + client, one real localhost socket. With an
/// enabled [`ObsConfig`] (the `--metrics` mode) it additionally dumps and checks the whole
/// observability plane after the client is done.
fn smoke_run(obs: &ObsConfig) {
    let services = start_services(obs);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    println!(
        "demo server on {addr}: σ={} hop-metric sources (BK-built shards) + σ={} \
         weighted sources, {SHARDS} shards, answers on each connection's thread, tracing {}",
        SOURCES.len(),
        WSOURCES.len(),
        if obs.enabled() { "on" } else { "off" }
    );
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, &services));
        run_client(&addr);
        server.join().expect("server thread").expect("serve");
    });
    let service = services.hop.expect("both metrics are served");
    if obs.enabled() {
        dump_observability(&service, obs);
    }
    let metrics = service.shutdown();
    let wmetrics = services.weighted.expect("both metrics are served").shutdown();
    println!(
        "served {} hop-metric + {} weighted queries over TCP; batch latency [{}]",
        metrics.queries_total,
        wmetrics.queries_total,
        metrics.batch_latency.summary()
    );
}

/// Prints (and sanity-checks) the span-journal stage accounting, the slow-query replay
/// lines, and the full text exposition of an observed service.
fn dump_observability(service: &QueryService, obs: &ObsConfig) {
    let journal = service.journal_snapshot().expect("tracing is on in this mode");
    assert!(journal.total > 0, "the client's batches must have journaled spans");
    assert_eq!(journal.total % 3, 0, "every batch journals exactly three spans");
    println!("\nspan journal: {} events recorded, {} dropped", journal.total, journal.dropped);
    for (code, total, count) in journal.totals_by_stage() {
        let stage = BatchStage::from_code(code).map_or("unknown", BatchStage::name);
        println!("  {stage:<10} {count:>5} spans  {total:>12.1?} total");
    }
    let slow = service.slow_queries();
    assert!(!slow.is_empty(), "a zero threshold must capture batches");
    println!(
        "slow-query log: {} batches over {:?} (showing the latest replayable entries):",
        service.slow_queries_total(),
        obs.slow_query_threshold.expect("threshold set in this mode")
    );
    for entry in slow.iter().rev().take(3) {
        let head = entry.payload.first().map(format_query).unwrap_or_default();
        println!(
            "  trace={:#018x} latency={:>9.1?} batch of {:>2}: {head} …",
            entry.trace_id,
            entry.latency,
            entry.payload.len()
        );
    }
    let exposition = service.render_metrics();
    assert!(is_well_formed(&exposition), "server-side exposition must be well-formed");
    assert!(exposition.contains("msrp_journal_events_total"));
    assert!(exposition.contains("msrp_span_seconds_total"));
    assert!(exposition.contains("msrp_slow_queries_total"));
    println!("\nfull text exposition (what the METRICS verb serves):\n{exposition}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7411");
            let services = start_services(&ObsConfig::default());
            let listener = TcpListener::bind(addr).expect("bind server address");
            println!("serving replacement-path queries on {addr} (STOP to shut down)");
            serve(listener, &services).expect("serve");
            println!("stopped");
        }
        Some("--client") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7411");
            run_client(addr);
        }
        Some("--metrics") => smoke_run(&metrics_obs_config()),
        Some(other) => {
            eprintln!("unknown mode `{other}` (expected --serve, --client, or --metrics)");
            std::process::exit(2);
        }
        None => smoke_run(&ObsConfig::default()),
    }
}
