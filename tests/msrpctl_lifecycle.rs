//! The `msrpctl` binary end to end, against a throwaway state directory: `create`, then
//! `serve` on an ephemeral port (found through `NAME.addr`), a seeded `Q`/`QW` mix and a
//! `B k` batch whose every reply must equal the in-process oracle booted from the same
//! snapshot, `STATS` accounting, the connection cap under a storm of sockets, the client
//! subcommands' timeout, a `STOP` that makes the server exit 0, and a snapshot of an older
//! format version that `list` shows as stale and `serve` refuses.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

use msrp::graph::{Edge, Vertex};
use msrp::serve::{
    format_answer, format_query, format_weighted_answer, format_weighted_query, parse_stats, Query,
    ShardedOracle, WeightedShardedOracle, MAX_CONNECTIONS,
};
use msrp::snap::{fnv1a64_lanes, inspect, SnapError, SNAP_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MSRPCTL: &str = env!("CARGO_BIN_EXE_msrpctl");
/// Longer than any reply this suite waits for; a stuck server fails the test, not hangs it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A state directory unique to this process and test, removed with its contents on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> StateDir {
        let dir = std::env::temp_dir().join(format!("msrpctl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        StateDir(dir)
    }

    /// Runs `msrpctl ARGS --state-dir DIR` to completion.
    fn run<S: AsRef<OsStr>>(&self, args: impl IntoIterator<Item = S>) -> Output {
        Command::new(MSRPCTL)
            .args(args)
            .arg("--state-dir")
            .arg(&self.0)
            .output()
            .expect("run msrpctl")
    }

    /// `msrpctl create NAME ARGS`, returning the snapshot bytes it wrote.
    fn create(&self, name: &str, args: &[&str]) -> Vec<u8> {
        let out = self.run(["create", name].iter().chain(args));
        assert!(out.status.success(), "create failed: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(self.0.join(format!("{name}.snap"))).expect("read snapshot")
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `msrpctl serve`, killed if the test fails before stopping it.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the server's final `stopped after …` line has a reader.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `msrpctl serve NAME 127.0.0.1:0` and blocks on its first stdout line, which
    /// it prints only after writing `NAME.addr`.
    fn start(dir: &StateDir, name: &str) -> Server {
        let mut child = Command::new(MSRPCTL)
            .args(["serve", name, "127.0.0.1:0", "--state-dir"])
            .arg(&dir.0)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn msrpctl serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read serve banner");
        assert!(banner.starts_with("serving snapshot"), "unexpected banner {banner:?}");
        let addr = std::fs::read_to_string(dir.0.join(format!("{name}.addr")))
            .expect("serve writes NAME.addr before its banner");
        let addr = addr.trim().parse().expect("NAME.addr holds a socket address");
        Server { child, addr, stdout }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(self.addr).expect("connect to msrpctl serve");
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
        Conn { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    /// Waits for the process to exit; returns its last stdout line and whether it exited 0.
    fn wait(mut self) -> (String, bool) {
        let mut rest = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line).expect("read serve stdout") > 0 {
            rest = std::mem::take(&mut line);
        }
        let status = self.child.wait().expect("wait for msrpctl serve");
        (rest.trim_end().to_string(), status.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn round_trip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send request");
        self.next_line().expect("a reply, not EOF")
    }

    /// The next line the server sent, or `None` at EOF.
    fn next_line(&mut self) -> Option<String> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line).expect("read from the server");
        (read > 0).then(|| line.trim_end().to_string())
    }
}

/// A seeded query mix: even queries avoid an edge of the canonical `s–t` path (so the
/// answer is a real replacement distance), odd ones a uniform graph edge.
fn query_mix(
    sources: &[Vertex],
    n: usize,
    edges: &[Edge],
    count: usize,
    seed: u64,
    path: impl Fn(Vertex, Vertex) -> Option<Vec<Vertex>>,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    while queries.len() < count {
        let s = sources[rng.gen_range(0..sources.len())];
        let t = rng.gen_range(0..n);
        if queries.len() % 2 == 1 {
            queries.push(Query::new(s, t, edges[rng.gen_range(0..edges.len())]));
        } else if let Some(p) = path(s, t).filter(|p| p.len() >= 2) {
            let k = rng.gen_range(0..p.len() - 1);
            queries.push(Query::new(s, t, Edge::new(p[k], p[k + 1])));
        }
    }
    queries
}

fn stats_queries(reply: &str) -> u64 {
    parse_stats(reply).unwrap_or_else(|e| panic!("bad STATS reply {reply:?}: {e:?}")).queries
}

#[test]
fn hop_server_answers_like_the_in_process_oracle_and_stops_cleanly() {
    let dir = StateDir::new("hop");
    let bytes = dir.create("demo", &["--n", "300", "--sources", "4", "--shards", "2"]);
    let (g, oracle) = ShardedOracle::from_snapshot(&bytes).expect("snapshot boots");
    let queries = query_mix(&oracle.sources(), 300, &g.edge_vec(), 400, 17, |s, t| {
        oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
    });

    let server = Server::start(&dir, "demo");
    let mut conn = server.connect();
    let (singles, batch) = queries.split_at(336);
    for q in singles {
        assert_eq!(conn.round_trip(&format_query(q)), format_answer(oracle.query(*q)), "{q:?}");
    }
    assert_eq!(stats_queries(&conn.round_trip("STATS")), singles.len() as u64);
    assert_eq!(conn.round_trip("QW 0 1 0 1"), "ERR this server is hop-metric: use Q");
    // A batch: one reply per line, in order, with an in-place ERR for an out-of-range id.
    writeln!(conn.writer, "B {}", batch.len() + 1).expect("send batch header");
    for q in &batch[..32] {
        writeln!(conn.writer, "{}", format_query(q)).expect("send batch line");
    }
    writeln!(conn.writer, "Q 0 300 0 1").expect("send out-of-range batch line");
    for q in &batch[32..] {
        writeln!(conn.writer, "{}", format_query(q)).expect("send batch line");
    }
    for q in &batch[..32] {
        assert_eq!(conn.next_line().unwrap(), format_answer(oracle.query(*q)), "{q:?}");
    }
    let err = conn.next_line().unwrap();
    assert!(err.starts_with("ERR") && err.contains("out of range"), "{err}");
    for q in &batch[32..] {
        assert_eq!(conn.next_line().unwrap(), format_answer(oracle.query(*q)), "{q:?}");
    }
    assert_eq!(stats_queries(&conn.round_trip("STATS")), 400);
    // A batch for the other metric is refused, and ends the connection: its lines may
    // already be on the wire.
    assert_eq!(conn.round_trip("BW 2"), "ERR this server is hop-metric: use B");
    assert_eq!(conn.next_line(), None);

    // The client subcommands reach the same server through NAME.addr.
    let q = queries[0];
    let (u, v) = q.avoid.endpoints();
    let out = dir.run(format!("query demo {} {} {u} {v}", q.source, q.target).split(' '));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), format_answer(oracle.query(q)));
    let out = dir.run(["stats", "demo"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stats_queries(String::from_utf8_lossy(&out.stdout).trim_end()), 401);

    let out = dir.run(["stop", "demo"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), "OK stopping");
    let (last, exited_ok) = server.wait();
    assert!(exited_ok, "msrpctl serve must exit 0 after STOP");
    assert_eq!(last, "stopped after 401 queries");
    assert!(!dir.0.join("demo.addr").exists(), "serve removes NAME.addr on the way out");
}

#[test]
fn weighted_server_answers_qw_like_the_in_process_oracle() {
    let dir = StateDir::new("weighted");
    let bytes = dir.create("wdemo", &["--weighted", "--n", "200", "--sources", "3"]);
    let (g, oracle) = WeightedShardedOracle::from_snapshot(&bytes).expect("snapshot boots");
    let edges: Vec<Edge> = g.edge_vec().into_iter().map(|(e, _)| e).collect();
    let queries = query_mix(&oracle.sources(), 200, &edges, 300, 23, |s, t| {
        oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
    });

    let server = Server::start(&dir, "wdemo");
    let mut conn = server.connect();
    for q in &queries {
        let want = format_weighted_answer(oracle.query(*q));
        assert_eq!(conn.round_trip(&format_weighted_query(q)), want, "{q:?}");
    }
    assert_eq!(conn.round_trip("Q 0 1 0 1"), "ERR this server is weighted: use QW");
    assert_eq!(stats_queries(&conn.round_trip("STATS")), queries.len() as u64);
    assert_eq!(conn.round_trip("STOP"), "OK stopping");
    let (last, exited_ok) = server.wait();
    assert!(exited_ok, "msrpctl serve must exit 0 after STOP");
    assert_eq!(last, format!("stopped after {} queries", queries.len()));
}

#[test]
fn client_subcommands_succeed_while_another_client_holds_a_connection() {
    let dir = StateDir::new("held");
    let bytes = dir.create("demo", &["--n", "64"]);
    let (_, oracle) = ShardedOracle::from_snapshot(&bytes).expect("snapshot boots");
    let server = Server::start(&dir, "demo");
    // An idle connection holds one session; every other client is still served.
    let mut holder = server.connect();
    let out = dir.run(["stats", "demo"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stats_queries(String::from_utf8_lossy(&out.stdout).trim_end()), 0);
    let out = dir.run(["query", "demo", "0", "37", "0", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let want = format_answer(oracle.query(Query::new(0, 37, Edge::new(0, 1))));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), want);
    let out = dir.run(["stop", "demo"]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), "OK stopping");
    // STOP closes the holder's connection too, and the server exits without waiting it out.
    assert_eq!(holder.next_line(), None, "the holder reads EOF after STOP");
    let (last, exited_ok) = server.wait();
    assert!(exited_ok, "msrpctl serve must exit 0 after STOP");
    assert_eq!(last, "stopped after 1 queries");
}

#[test]
fn client_subcommands_time_out_against_a_server_that_never_replies() {
    let dir = StateDir::new("mute");
    // The kernel completes the handshake for this listener, but nobody ever reads or
    // replies, so the client's read of the reply has to time out.
    let mute = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = mute.local_addr().expect("local addr");
    std::fs::write(dir.0.join("demo.addr"), format!("{addr}\n")).expect("write");
    let out = dir.run(["stats", "demo"]);
    assert!(!out.status.success(), "stats must fail, not hang, against a mute server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: ") && stderr.contains("timed out"), "stderr: {stderr}");
}

#[test]
fn connection_storm_is_capped_and_every_admitted_client_is_served() {
    let dir = StateDir::new("storm");
    let bytes = dir.create("demo", &["--n", "128"]);
    let (g, oracle) = ShardedOracle::from_snapshot(&bytes).expect("snapshot boots");
    let queries =
        query_mix(&oracle.sources(), 128, &g.edge_vec(), MAX_CONNECTIONS + 1, 31, |s, t| {
            oracle.shards()[oracle.shard_for(s)?].canonical_path(s, t)
        });
    let server = Server::start(&dir, "demo");
    let mut conns: Vec<Conn> = (0..MAX_CONNECTIONS + 3).map(|_| server.connect()).collect();
    // The server accepts in connection order, so the first MAX_CONNECTIONS sockets take
    // every slot and the last three are turned away without being read.
    for mut turned_away in conns.split_off(MAX_CONNECTIONS) {
        assert_eq!(turned_away.next_line().as_deref(), Some("ERR busy"));
        assert_eq!(turned_away.next_line(), None, "a turned-away socket is closed");
    }
    for (conn, q) in conns.iter_mut().zip(&queries) {
        assert_eq!(conn.round_trip(&format_query(q)), format_answer(oracle.query(*q)), "{q:?}");
    }
    // One thread per admitted connection, plus the accept loop's.
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string(format!("/proc/{}/status", server.child.id()))
            .expect("read the server's /proc status");
        let threads: usize = status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|t| t.trim().parse().ok())
            .expect("a Threads: line");
        assert!(threads <= MAX_CONNECTIONS + 1, "{threads} threads for {MAX_CONNECTIONS} clients");
    }
    // A slot is released before its socket closes, so once the quitter reads EOF a new
    // client is admitted at once.
    let mut quitter = conns.pop().expect("admitted connections");
    writeln!(quitter.writer, "QUIT").expect("send QUIT");
    assert_eq!(quitter.next_line(), None);
    let mut late = server.connect();
    let q = queries[MAX_CONNECTIONS];
    assert_eq!(late.round_trip(&format_query(&q)), format_answer(oracle.query(q)));
    // STOP from one admitted client ends the process while the others are still open.
    assert_eq!(conns[0].round_trip("STOP"), "OK stopping");
    let (last, exited_ok) = server.wait();
    assert!(exited_ok, "msrpctl serve must exit 0 after STOP");
    assert_eq!(last, format!("stopped after {} queries", MAX_CONNECTIONS + 1));
    for conn in conns.iter_mut().skip(1).chain([&mut late]) {
        assert_eq!(conn.next_line(), None, "STOP closes every live connection");
    }
}

#[test]
fn a_version_one_snapshot_is_listed_stale_and_refused_by_serve() {
    let dir = StateDir::new("stale");
    let current = dir.create("old", &["--n", "64"]);
    // Stamp the file as format version 1, then 2, and re-stamp its whole-file checksum,
    // which covers every byte but its own eight: the file is intact, only old.
    for version in [1u32, 2] {
        let mut bytes = current.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let mut covered = bytes[..32].to_vec();
        covered.extend_from_slice(&bytes[40..]);
        bytes[32..40].copy_from_slice(&fnv1a64_lanes(&covered).to_le_bytes());
        std::fs::write(dir.0.join("old.snap"), &bytes).expect("plant the old file");
        let skew = SnapError::UnsupportedVersion { found: version, supported: SNAP_VERSION };
        assert_eq!(inspect(&bytes).err(), Some(skew.clone()));

        let out = dir.run(["list"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let row = stdout.lines().find(|l| l.starts_with("old ")).expect("a row for the file");
        assert!(row.contains("STALE") && row.ends_with(&skew.to_string()), "{row}");

        let out = dir.run(["serve", "old", "127.0.0.1:0"]);
        assert!(!out.status.success(), "serve must refuse a version-{version} file");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&skew.to_string()) && stderr.contains("msrpctl create"),
            "{stderr}"
        );
        assert!(!dir.0.join("old.addr").exists(), "a refused boot never binds");
    }
}

#[test]
fn removed_and_unknown_flags_are_rejected() {
    let dir = StateDir::new("flags");
    for args in [&["serve", "demo", "127.0.0.1:0", "--workers", "2"][..], &["list", "--n", "3"]] {
        let out = dir.run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{args:?}");
    }
}

#[test]
fn client_subcommands_fail_fast_without_a_server() {
    let dir = StateDir::new("absent");
    let out = dir.run(["stats", "demo"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not serving"));
    // A stale address file whose port nobody listens on: connect is refused at once.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    std::fs::write(dir.0.join("demo.addr"), format!("{addr}\n")).expect("write");
    let out = dir.run(["stop", "demo"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("connect to"));
}
