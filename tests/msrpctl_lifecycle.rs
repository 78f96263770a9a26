//! The `msrpctl` binary end to end, against a throwaway state directory: `create`, then
//! `serve` on an ephemeral port (found through `NAME.addr`), a seeded `Q`/`QW` mix whose
//! every reply must equal the in-process oracle booted from the same snapshot, `STATS`
//! accounting, the client subcommands' timeout, and a `STOP` that makes the server exit 0.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

use msrp::graph::{Edge, Vertex};
use msrp::serve::{
    format_answer, format_query, format_weighted_answer, format_weighted_query, parse_stats, Query,
    ShardedOracle, WeightedShardedOracle,
};
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
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line.trim_end().to_string()
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
    for q in &queries {
        assert_eq!(conn.round_trip(&format_query(q)), format_answer(oracle.query(*q)), "{q:?}");
    }
    assert_eq!(stats_queries(&conn.round_trip("STATS")), queries.len() as u64);
    assert_eq!(conn.round_trip("QW 0 1 0 1"), "ERR this server is hop-metric: use Q");
    // The sequential server takes the next connection once this one quits.
    writeln!(conn.writer, "QUIT").expect("send QUIT");
    drop(conn);

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
fn client_subcommands_time_out_while_another_client_holds_the_server() {
    let dir = StateDir::new("held");
    dir.create("demo", &["--n", "64"]);
    let server = Server::start(&dir, "demo");
    // An idle connection: the sequential server reads from it and accepts nothing else.
    let mut holder = server.connect();
    let out = dir.run(["stats", "demo"]);
    assert!(!out.status.success(), "stats must fail, not hang, while the server is held");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: ") && stderr.contains("timed out"), "stderr: {stderr}");
    // The holder is still served, and STOP from it shuts the server down.
    assert_eq!(holder.round_trip("STOP"), "OK stopping");
    assert!(server.wait().1, "msrpctl serve must exit 0 after STOP");
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
