//! `wire_lockstep`: the real `msrpctl serve`, booted from a snapshot the benchmark writes
//! to a per-run state directory, answering one connection's closed-loop `Q` lines with one
//! request outstanding.
//!
//! The traced run cannot look inside the child process, so it hosts a replica of
//! `msrpctl`'s connection loop in this process: the same public calls in the same order
//! (`read_line_bounded`, `parse_request`, `validate_query`, the service, `format_answer`,
//! write + flush) over a real localhost socket, with client and server spans on one clock.

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use msrp::serve::{
    format_answer, format_query, parse_request, parse_stats, read_line_bounded, validate_query,
    LineOutcome, Query, QueryService, Request, ServiceConfig, ShardedOracle, MAX_LINE_BYTES,
};

use crate::common::{
    self, ns, Metrics, Outcome, Requests, ServiceTrace, SetupTimes, MAX_TRACED_REQUESTS, SHARDS,
    TRUTH_SAMPLE,
};
use crate::Args;

/// Blocks per run, each a set-up (build, snapshot, spawn) then a measured stretch;
/// `setup_s`, `build_s` and `boot_s` are medians over the blocks' set-ups.
const BLOCKS: usize = 10;
const SIGMA: usize = 4;
const POOL: usize = 1 << 16;
/// A reply slower than this counts as a failed request and ends the run's load.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest wait for `msrpctl serve` to publish its address, or to exit after `STOP`.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);

/// The run's state directory, removed with everything in it when dropped.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A child process that is killed and reaped if dropped while it still runs.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// One client connection speaking the line protocol, with a read timeout.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line (newline included) and returns the reply line.
    fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

/// A running `msrpctl serve` and the connection the benchmark holds to it.
struct Server {
    proc: Proc,
    conn: Conn,
}

impl Server {
    /// Spawns `msrpctl serve NAME 127.0.0.1:0` and connects once it has written its
    /// address file. Returns the server and the instant its address appeared.
    fn spawn(msrpctl: &Path, dir: &Path, name: &str) -> Result<(Server, Instant), String> {
        let addr_file = dir.join(format!("{name}.addr"));
        let child = Command::new(msrpctl)
            .args(["serve", name, "127.0.0.1:0", "--state-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", msrpctl.display()))?;
        let mut proc = Proc(child);
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let addr: SocketAddr = loop {
            if let Some(addr) =
                fs::read_to_string(&addr_file).ok().and_then(|a| a.trim().parse().ok())
            {
                break addr;
            }
            if let Ok(Some(status)) = proc.0.try_wait() {
                return Err(format!("msrpctl serve exited while booting: {status}"));
            }
            if Instant::now() >= deadline {
                return Err("msrpctl serve did not publish its address".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let ready = Instant::now();
        let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((Server { proc, conn }, ready))
    }

    /// `STOP`, then waits for the process to exit: `true` when it acknowledged and exited 0.
    fn stop(mut self) -> bool {
        let acknowledged = matches!(self.conn.round_trip("STOP\n"), Ok("OK stopping"));
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let exited = loop {
            match self.proc.0.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => break false,
            }
        };
        acknowledged && exited
    }
}

/// The client side of a closed-loop, one-outstanding run.
#[derive(Default)]
struct Lockstep {
    /// Round-trip times, ns.
    rtt: Vec<i64>,
    /// Traced runs only: request write start, write done, reply read.
    stamps: Vec<[Instant; 3]>,
    mismatched: u64,
    /// Why the connection broke (a timeout, a reset), if it did.
    broken: Option<String>,
}

impl Lockstep {
    /// Counts this run's requests and failures into `out`.
    fn tally(&self, out: &mut Outcome) {
        let broken = u64::from(self.broken.is_some());
        out.tally(self.rtt.len() as u64 + broken, self.mismatched + broken, || {
            match &self.broken {
                Some(why) => format!("connection broke: {why}"),
                None => "replies differ from the in-process oracle".into(),
            }
        });
    }
}

fn lockstep(
    conn: &mut Conn,
    lines: &[String],
    want: &[String],
    until: Instant,
    traced: bool,
) -> Lockstep {
    let mut r = Lockstep::default();
    let mut i = 0usize;
    while Instant::now() < until && !(traced && r.rtt.len() >= MAX_TRACED_REQUESTS) {
        let k = i % lines.len();
        let c0 = Instant::now();
        if let Err(e) = conn.writer.write_all(lines[k].as_bytes()) {
            r.broken = Some(format!("send: {e}"));
            break;
        }
        let c1 = traced.then(Instant::now);
        conn.line.clear();
        let read = conn.reader.read_line(&mut conn.line);
        let c2 = Instant::now();
        match read {
            Ok(0) => r.broken = Some("server closed the connection".into()),
            Err(e) => r.broken = Some(format!("receive: {e}")),
            Ok(_) => {}
        }
        if r.broken.is_some() {
            break;
        }
        r.rtt.push(ns(c2 - c0));
        if let Some(c1) = c1 {
            r.stamps.push([c0, c1, c2]);
        }
        r.mismatched += u64::from(conn.line.trim_end() != want[k]);
        i += 1;
    }
    r
}

/// `msrpctl`'s connection loop, cut to what a `Q`-only client reaches.
fn replica_plain(stream: TcpStream, service: &QueryService) -> io::Result<()> {
    let vertex_count = service.oracle().vertex_count();
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES)? {
            LineOutcome::Line => {}
            LineOutcome::Eof | LineOutcome::TooLong => return Ok(()),
        }
        match parse_request(line.trim_end()) {
            Ok(Request::Query(q)) => match validate_query(&q, vertex_count) {
                Ok(()) => writeln!(writer, "{}", format_answer(service.answer_batch(&[q])[0]))?,
                Err(e) => writeln!(writer, "ERR {e}")?,
            },
            Ok(Request::Quit) => return Ok(()),
            Ok(_) => writeln!(writer, "ERR the replica answers Q lines only")?,
            Err(e) => writeln!(writer, "ERR {e}")?,
        }
        writer.flush()?;
    }
}

/// Server-side spans of one request: each stage timed by its own clock reads.
struct ServerSpan {
    line_returned: Instant,
    parse: i64,
    validate: i64,
    enqueue: i64,
    wait: i64,
    format: i64,
    write: [Instant; 2],
}

/// [`replica_plain`] with a span around every call.
fn replica_traced(stream: TcpStream, service: &QueryService) -> io::Result<Vec<ServerSpan>> {
    let vertex_count = service.oracle().vertex_count();
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut spans = Vec::with_capacity(MAX_TRACED_REQUESTS);
    loop {
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES)? {
            LineOutcome::Line => {}
            LineOutcome::Eof | LineOutcome::TooLong => return Ok(spans),
        }
        let line_returned = Instant::now();
        let p0 = Instant::now();
        let request = parse_request(line.trim_end());
        let p1 = Instant::now();
        let q = match request {
            Ok(Request::Query(q)) => q,
            Ok(Request::Quit) => return Ok(spans),
            other => {
                writeln!(writer, "ERR unexpected request {other:?}")?;
                writer.flush()?;
                continue;
            }
        };
        let v0 = Instant::now();
        let valid = validate_query(&q, vertex_count);
        let v1 = Instant::now();
        if let Err(e) = valid {
            writeln!(writer, "ERR {e}")?;
            writer.flush()?;
            continue;
        }
        let e0 = Instant::now();
        let pending = service.submit(&[q]);
        let e1 = Instant::now();
        let answers = pending.wait();
        let w1 = Instant::now();
        let f0 = Instant::now();
        let text = format_answer(answers[0]);
        let f1 = Instant::now();
        let s0 = Instant::now();
        writeln!(writer, "{text}")?;
        writer.flush()?;
        let s1 = Instant::now();
        spans.push(ServerSpan {
            line_returned,
            parse: ns(p1 - p0),
            validate: ns(v1 - v0),
            enqueue: ns(e1 - e0),
            wait: ns(w1 - e1),
            format: ns(f1 - f0),
            write: [s0, s1],
        });
    }
}

/// Serves one connection from the replica on a fresh localhost listener while the client
/// runs its closed loop for `block`; returns both sides' records.
fn replica_block(
    service: &QueryService,
    lines: &[String],
    want: &[String],
    block: Duration,
    traced: bool,
) -> Result<(Lockstep, Vec<ServerSpan>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| -> io::Result<Vec<ServerSpan>> {
            let (stream, _) = listener.accept()?;
            if traced {
                replica_traced(stream, service)
            } else {
                replica_plain(stream, service).map(|()| Vec::new())
            }
        });
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let run = lockstep(&mut conn, lines, want, Instant::now() + block, traced);
        // QUIT (or, failing that, the EOF of the drop) ends the replica's loop.
        let _ = conn.writer.write_all(b"QUIT\n");
        drop(conn);
        let spans =
            server.join().expect("replica thread panicked").map_err(|e| format!("replica: {e}"))?;
        Ok((run, spans))
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let graph = common::hop_graph(args.seed)?;
    let csr = graph.freeze();
    let edges = graph.edge_vec();
    let sources = common::sources(SIGMA);
    let probe = common::probe_query(&sources, &edges);
    let probe_line = format!("{}\n", format_query(&probe));
    let block = common::block_seconds(args, BLOCKS);
    let config = ServiceConfig::default();
    let dir = StateDir(args.tmp.join(format!("wire-{}", std::process::id())));
    fs::create_dir_all(&dir.0).map_err(|e| format!("create {}: {e}", dir.0.display()))?;

    let mut out = Outcome::new();
    let mut times = SetupTimes::default();
    let (mut spawn_ms, mut first_reply_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs: Option<Inputs> = None;
    let (mut plain, mut trace, mut wire) =
        (Requests::default(), ServiceTrace::default(), WireTrace::default());
    let mut last = None;
    for b in 0..BLOCKS {
        drop(last.take());
        let name = format!("block{b}");
        let t0 = Instant::now();
        let oracle = ShardedOracle::build_bk_csr(&csr, &sources, SHARDS);
        let t1 = Instant::now();
        let bytes = oracle.to_snapshot(&csr);
        let t2 = Instant::now();
        let snap = dir.0.join(format!("{name}.snap"));
        fs::write(&snap, &bytes).map_err(|e| format!("write {}: {e}", snap.display()))?;
        let t3 = Instant::now();
        let (mut server, ready) = Server::spawn(&args.msrpctl, &dir.0, &name)?;
        let reply = server.conn.round_trip(&probe_line).map(str::to_string);
        let t4 = Instant::now();
        let probe_want = format_answer(oracle.query(probe));
        out.check(matches!(reply.as_deref(), Ok(r) if r == probe_want), || {
            format!("probe reply {reply:?}, want {probe_want}")
        });
        times.setup.push((t4 - t0).as_secs_f64());
        times.build.push((t1 - t0).as_secs_f64());
        times.encode.push((t2 - t1).as_secs_f64());
        times.boot.push((t4 - t3).as_secs_f64());
        spawn_ms.push(1e3 * (ready - t3).as_secs_f64());
        first_reply_ms.push(1e3 * (t4 - ready).as_secs_f64());

        let inputs = inputs.get_or_insert_with(|| {
            let mix = common::query_mix(&sources, &edges, POOL, args.seed, |s, t| {
                oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
            });
            let expected: Vec<_> = mix.queries.iter().map(|&q| oracle.query(q)).collect();
            let sample = &mix.queries[..TRUTH_SAMPLE];
            let misses = common::hop_truth_misses(&csr, sample, &expected[..TRUTH_SAMPLE]);
            out.tally(TRUTH_SAMPLE as u64, misses, || {
                "oracle answers differ from avoiding-BFS truth".into()
            });
            Inputs {
                lines: mix.queries.iter().map(|q| format!("{}\n", format_query(q))).collect(),
                want: expected.iter().map(|&a| format_answer(a)).collect(),
                pool: mix.queries,
                on_path_share: mix.on_path_share,
            }
        });

        if !args.trace {
            let run = lockstep(
                &mut server.conn,
                &inputs.lines,
                &inputs.want,
                Instant::now() + block,
                false,
            );
            run.tally(&mut out);
            if run.broken.is_none() {
                let stats = server.conn.round_trip("STATS\n").map_err(|e| e.to_string());
                let counted = stats.and_then(|line| parse_stats(line).map_err(|e| e.to_string()));
                let sent = 1 + run.rtt.len() as u64;
                out.check(counted.as_ref().is_ok_and(|s| s.queries == sent), || {
                    format!("STATS reply {counted:?}, client sent {sent} queries")
                });
            }
            rss.push(
                common::peak_rss_mb(&server.proc.0.id().to_string())
                    .ok_or("no VmHWM for msrpctl")?,
            );
            out.check(server.stop(), || "msrpctl did not acknowledge STOP and exit 0".into());
            plain.append(Requests { wall: run.rtt, ..Requests::default() });
            last = Some((oracle, bytes.len(), None));
            continue;
        }

        // Traced runs: the replica serves the block from the same snapshot, in-process.
        out.check(server.stop(), || "msrpctl did not acknowledge STOP and exit 0".into());
        let d0 = Instant::now();
        let (_, booted) = ShardedOracle::from_snapshot(&bytes).map_err(|e| format!("boot: {e}"))?;
        times.decode.push(d0.elapsed().as_secs_f64());
        let traced = common::block_traced(args, b);
        let service = match traced {
            true => QueryService::start_observed(booted, &config, &common::traced_obs(args.seed)),
            false => QueryService::start(booted, &config),
        };
        let (run, spans) = replica_block(&service, &inputs.lines, &inputs.want, block, traced)?;
        run.tally(&mut out);
        if traced {
            out.check(spans.len() == run.stamps.len(), || {
                format!(
                    "replica served {} requests, client completed {}",
                    spans.len(),
                    run.stamps.len()
                )
            });
            let reqs = wire.add(&run, &spans);
            trace.add(&service, args.seed, reqs);
        } else {
            plain.append(Requests { wall: run.rtt, ..Requests::default() });
        }
        last = Some((oracle, bytes.len(), Some(service)));
    }
    let (oracle, snapshot_len, service) = last.expect("BLOCKS > 0");
    let inputs = inputs.expect("BLOCKS > 0");
    times.report(&mut out.metrics);
    if !args.trace {
        out.metrics.set("request_p50_us", common::quantile(&plain.wall, 0.5) / 1e3);
        out.metrics.set("peak_rss_mb", common::median(&rss));
        out.metrics.set("snapshot_mb", snapshot_len as f64 / 1e6);
        return Ok(out);
    }
    trace.report(&mut out, &plain, wire.unaccounted_share());
    let m = &mut out.metrics;
    wire.report(m);
    let service = service.expect("traced runs keep the last block's replica service");
    m.set_p50_p99_ns("oracle.lookup", &common::lookup_ns(service.oracle(), &inputs.pool));
    m.set("oracle.on_path_share", inputs.on_path_share);
    m.set("msrpctl.spawn_ms", common::median(&spawn_ms));
    m.set("msrpctl.first_reply_ms", common::median(&first_reply_ms));
    let same = common::bk_profile(m, &csr, &sources, &oracle);
    out.check(same, || "profiled build differs from the untraced build".into());
    Ok(out)
}

/// The wire and protocol stages of traced requests, accumulated over traced blocks.
#[derive(Default)]
struct WireTrace {
    send: Vec<i64>,
    read: Vec<i64>,
    parse: Vec<i64>,
    validate: Vec<i64>,
    format: Vec<i64>,
    write: Vec<i64>,
    recv: Vec<i64>,
    /// Summed round trips, and the summed stage spans inside them.
    wall: i64,
    staged: i64,
}

impl WireTrace {
    /// Adds one traced block; returns its requests for the service breakdown.
    fn add(&mut self, run: &Lockstep, spans: &[ServerSpan]) -> Requests {
        let mut reqs = Requests::default();
        for ((c, s), &rtt) in run.stamps.iter().zip(spans).zip(&run.rtt) {
            let (send, read) = (ns(c[1] - c[0]), signed_ns(c[1], s.line_returned));
            let (write, recv) = (ns(s.write[1] - s.write[0]), signed_ns(s.write[1], c[2]));
            self.send.push(send);
            self.read.push(read);
            self.parse.push(s.parse);
            self.validate.push(s.validate);
            self.format.push(s.format);
            self.write.push(write);
            self.recv.push(recv);
            self.wall += rtt;
            self.staged +=
                send + read + s.parse + s.validate + s.enqueue + s.wait + s.format + write + recv;
            reqs.wall.push(rtt);
            reqs.enqueue.push(s.enqueue);
            reqs.wait.push(s.wait);
        }
        reqs
    }

    fn report(&self, m: &mut Metrics) {
        m.set_p50_p99_ns("client.send", &self.send);
        m.set_p50_p99_ns("serve.wire.read", &self.read);
        m.set_p50_p99_ns("serve.protocol.parse", &self.parse);
        m.set_p50_p99_ns("serve.protocol.validate", &self.validate);
        m.set_p50_p99_ns("serve.protocol.format", &self.format);
        m.set_p50_p99_ns("serve.wire.write", &self.write);
        m.set_p50_p99_ns("client.recv", &self.recv);
    }

    fn unaccounted_share(&self) -> f64 {
        (self.wall - self.staged) as f64 / self.wall.max(1) as f64
    }
}

/// The query pool, its request lines, the expected reply lines, and the on-path share.
struct Inputs {
    pool: Vec<Query>,
    lines: Vec<String>,
    want: Vec<String>,
    on_path_share: f64,
}

/// `to - from` in ns, negative when `to` came first (two threads' clocks interleave).
fn signed_ns(from: Instant, to: Instant) -> i64 {
    match to.checked_duration_since(from) {
        Some(d) => ns(d),
        None => -ns(from - to),
    }
}
