//! `msrpctl`: fleet lifecycle CLI for snapshot-backed replacement-path servers.
//!
//! A *state directory* (default `./.msrpctl`) holds named snapshots (`NAME.snap`, the
//! `msrp-snap` binary format) and, for running servers, their address files
//! (`NAME.addr`). The subcommands walk a snapshot through its whole life:
//!
//! ```text
//! msrpctl create demo --n 512 --sources 4 --shards 2     # build + persist a snapshot
//! msrpctl list                                           # table of snapshots + status
//! msrpctl serve demo 127.0.0.1:7412                      # boot a server FROM the snapshot
//! msrpctl stats demo                                     # one-line STATS probe
//! msrpctl query demo 0 17 3 9                            # one replacement-path query
//! msrpctl stop demo                                      # graceful remote shutdown
//! ```
//!
//! `serve` never runs the solver: it validates the snapshot's checksums, adopts the
//! frozen graph and oracle shards (`ShardedOracle::from_snapshot`), and starts answering
//! — that boot-vs-rebuild gap is measured by experiment E15 and by perfbench's `boot_s`
//! and `build_s`. It hands the socket to `msrp_serve::serve`, the bounded accept loop shared with
//! the `serve_tcp` example: up to `MAX_CONNECTIONS` clients at once, each on its own
//! thread with an idle timeout, answering every `Q`/`QW` line and `B`/`BW` batch inline
//! (a zero-worker `QueryService`). A client past the cap is told `ERR busy`, and the
//! admin verb `STOP` closes every connection and exits the `serve` process.
//!
//! The client subcommands (`stats`, `query`, `stop`) give up after [`CLIENT_TIMEOUT`] on
//! connect, send and reply, so a server that does not answer makes them fail with an
//! error instead of hanging.
//!
//! Everything is deterministic: `create` builds from a seeded generator, so two hosts
//! running the same `create` line produce byte-identical snapshots.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use msrp::graph::generators::{connected_gnm, weighted_connected_gnm};
use msrp::serve::{
    serve, QueryService, ServiceConfig, Services, ShardedOracle, WeightedShardedOracle,
    IDLE_TIMEOUT, MAX_CONNECTIONS,
};
use msrp::snap::{inspect, SnapError, SnapInfo, SnapKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEFAULT_STATE_DIR: &str = ".msrpctl";
const DEFAULT_WEIGHT_MAX: u64 = 1000;
/// How long a client subcommand waits to connect, to send, and for the reply.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn usage() -> ExitCode {
    eprintln!(
        "msrpctl — fleet lifecycle for snapshot-backed replacement-path servers

USAGE:
  msrpctl create NAME [--n N] [--m M] [--sources K] [--shards S] [--seed SEED] [--weighted]
  msrpctl list
  msrpctl serve NAME ADDR
  msrpctl stats NAME
  msrpctl query NAME SOURCE TARGET AVOID_U AVOID_V
  msrpctl stop NAME

Every subcommand also accepts --state-dir DIR (default ./{DEFAULT_STATE_DIR}).
`create` defaults: --n 256, --m 4·n, --sources 4, --shards 2, --seed 42, hop metric.
`serve` answers up to {MAX_CONNECTIONS} connections at once, each on its own thread, and
closes one that is idle for {}s; STOP (`msrpctl stop`) shuts the server down.
`stats`, `query` and `stop` fail after {}s without a connection or a reply.",
        IDLE_TIMEOUT.as_secs(),
        CLIENT_TIMEOUT.as_secs()
    );
    ExitCode::from(2)
}

/// Minimal flag parser: positionals in order, `--flag value` pairs, `--weighted` bare.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let takes_value = name != "weighted";
                if takes_value {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), Some(v.clone())));
                } else {
                    flags.push((name.to_string(), None));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a valid number")),
        }
    }

    fn state_dir(&self) -> PathBuf {
        PathBuf::from(self.flag("state-dir").unwrap_or(DEFAULT_STATE_DIR))
    }

    /// Rejects flags the subcommand does not take (`--state-dir` is always allowed), so a
    /// misspelt or removed flag fails instead of being ignored.
    fn allow_only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(n, _)| n != "state-dir" && !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

/// Snapshot names become file names; keep them path-safe.
fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)) {
        return Err(format!("invalid snapshot name {name:?} (use [A-Za-z0-9._-])"));
    }
    Ok(())
}

fn snap_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.snap"))
}

fn addr_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.addr"))
}

fn evenly_spread(n: usize, sigma: usize) -> Vec<usize> {
    (0..sigma).map(|i| i * n / sigma).collect()
}

fn cmd_create(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("create needs a NAME")?;
    validate_name(name)?;
    let n: usize = args.num("n", 256)?;
    let m: usize = args.num("m", 4 * n)?;
    let sigma: usize = args.num("sources", 4)?;
    let shards: usize = args.num("shards", 2)?;
    let seed: u64 = args.num("seed", 42)?;
    if n < 2 || sigma == 0 || sigma > n || shards == 0 {
        return Err("need n ≥ 2 and 0 < sources ≤ n and shards ≥ 1".into());
    }
    let dir = args.state_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create state dir: {e}"))?;
    let sources = evenly_spread(n, sigma);
    let mut rng = StdRng::seed_from_u64(seed);
    // The builders clamp the shard count to σ, so the built oracle's count is reported.
    let (bytes, shards) = if args.has("weighted") {
        let g = weighted_connected_gnm(n, m, DEFAULT_WEIGHT_MAX, &mut rng)
            .map_err(|e| format!("generator rejected the parameters: {e}"))?
            .freeze();
        let oracle = WeightedShardedOracle::build(&g, &sources, shards);
        (oracle.to_snapshot(&g), oracle.shard_count())
    } else {
        let g = connected_gnm(n, m, &mut rng)
            .map_err(|e| format!("generator rejected the parameters: {e}"))?
            .freeze();
        let oracle = ShardedOracle::build_bk_csr(&g, &sources, shards);
        (oracle.to_snapshot(&g), oracle.shard_count())
    };
    let path = snap_path(&dir, name);
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "created {} ({} bytes): n={n} m={m} σ={sigma} shards={shards} seed={seed} kind={}",
        path.display(),
        bytes.len(),
        if args.has("weighted") { SnapKind::Weighted } else { SnapKind::HopMetric },
    );
    Ok(())
}

/// Renders rows as a fixed-width table (header + one line per row).
fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    println!("{}", line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", line(row));
    }
}

fn cmd_list(args: &Args) -> Result<(), String> {
    let dir = args.state_dir();
    let mut rows = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(_) => {
            println!("no state dir at {} (run `msrpctl create` first)", dir.display());
            return Ok(());
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name().to_str().and_then(|f| f.strip_suffix(".snap")).map(String::from)
        })
        .collect();
    names.sort();
    for name in names {
        let path = snap_path(&dir, &name);
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let status = std::fs::read_to_string(addr_path(&dir, &name))
            .map(|a| format!("serving {}", a.trim()))
            .unwrap_or_else(|_| "-".to_string());
        match inspect(&bytes) {
            Ok(SnapInfo { kind, vertex_count, edge_count, source_count, shard_count, .. }) => {
                rows.push(vec![
                    name,
                    kind.to_string(),
                    vertex_count.to_string(),
                    edge_count.to_string(),
                    source_count.to_string(),
                    shard_count.to_string(),
                    bytes.len().to_string(),
                    status,
                ]);
            }
            // A corrupt or stale snapshot is listed, not hidden: the operator should see it.
            Err(e) => rows.push(vec![
                name,
                match e {
                    SnapError::UnsupportedVersion { .. } => "STALE".into(),
                    _ => "CORRUPT".into(),
                },
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                bytes.len().to_string(),
                e.to_string(),
            ]),
        }
    }
    if rows.is_empty() {
        println!("no snapshots in {}", dir.display());
    } else {
        print_table(
            &["NAME", "KIND", "VERTICES", "EDGES", "SOURCES", "SHARDS", "BYTES", "STATUS"],
            &rows,
        );
    }
    Ok(())
}

/// Boots the snapshot's service, hop or weighted by its kind, answering on the thread
/// of each connection.
fn boot(bytes: &[u8]) -> Result<Services, String> {
    let config = ServiceConfig { workers: 0 };
    let rejected = |e| match e {
        SnapError::UnsupportedVersion { .. } => {
            format!("snapshot rejected: {e}; re-create it with `msrpctl create`")
        }
        _ => format!("snapshot rejected: {e}"),
    };
    Ok(match inspect(bytes).map_err(rejected)?.kind {
        SnapKind::HopMetric => {
            let (_g, oracle) = ShardedOracle::from_snapshot(bytes).map_err(rejected)?;
            Services { hop: Some(QueryService::start(oracle, &config)), weighted: None }
        }
        SnapKind::Weighted => {
            let (_g, oracle) = WeightedShardedOracle::from_snapshot(bytes).map_err(rejected)?;
            Services { hop: None, weighted: Some(QueryService::start(oracle, &config)) }
        }
    })
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("serve needs a NAME")?;
    validate_name(name)?;
    let addr = args.positional.get(1).ok_or("serve needs an ADDR (e.g. 127.0.0.1:7412)")?;
    let dir = args.state_dir();
    let path = snap_path(&dir, name);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let services = boot(&bytes)?;
    let listener = TcpListener::bind(addr.as_str()).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let addr_file = addr_path(&dir, name);
    std::fs::write(&addr_file, format!("{local}\n"))
        .map_err(|e| format!("write {}: {e}", addr_file.display()))?;
    println!("serving snapshot {name} on {local} (adopted, not rebuilt); STOP to shut down");
    let served = serve(listener, &services);
    let _ = std::fs::remove_file(&addr_file);
    served.map_err(|e| format!("serve: {e}"))?;
    let queries = services.hop.map_or(0, |s| s.shutdown().queries_total)
        + services.weighted.map_or(0, |s| s.shutdown().queries_total);
    println!("stopped after {queries} queries");
    Ok(())
}

/// Describes a failed socket step, calling a timeout a timeout (reads report it as
/// `WouldBlock` on some platforms and `TimedOut` on others).
fn io_error(step: &str, addr: SocketAddr, e: io::Error) -> String {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => format!(
            "{step} {addr} timed out after {}s (is the server at that address answering?)",
            CLIENT_TIMEOUT.as_secs()
        ),
        _ => format!("{step} {addr}: {e}"),
    }
}

/// Connects to the server recorded in `NAME.addr`, with [`CLIENT_TIMEOUT`] on the
/// connect and on every later read and write.
fn connect(dir: &Path, name: &str) -> Result<TcpStream, String> {
    let addr_file = addr_path(dir, name);
    let addr = std::fs::read_to_string(&addr_file)
        .map_err(|_| format!("{name} is not serving (no {})", addr_file.display()))?;
    let addr: SocketAddr =
        addr.trim().parse().map_err(|e| format!("{}: bad address: {e}", addr_file.display()))?;
    let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)
        .map_err(|e| io_error("connect to", addr, e))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    Ok(stream)
}

/// Sends one line and reads one reply line.
fn round_trip(stream: TcpStream, request: &str) -> Result<String, String> {
    let addr = stream.peer_addr().map_err(|e| format!("peer addr: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{request}").map_err(|e| io_error("send to", addr, e))?;
    writer.flush().map_err(|e| io_error("send to", addr, e))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| io_error("read reply from", addr, e))?;
    if line.is_empty() {
        return Err("server closed the connection without replying".into());
    }
    Ok(line.trim_end().to_string())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("stats needs a NAME")?;
    validate_name(name)?;
    let reply = round_trip(connect(&args.state_dir(), name)?, "STATS")?;
    println!("{reply}");
    Ok(())
}

fn cmd_stop(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("stop needs a NAME")?;
    validate_name(name)?;
    let reply = round_trip(connect(&args.state_dir(), name)?, "STOP")?;
    println!("{reply}");
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("query needs a NAME")?;
    validate_name(name)?;
    let ids: Vec<&String> = args.positional.iter().skip(1).collect();
    if ids.len() != 4 {
        return Err("query needs SOURCE TARGET AVOID_U AVOID_V".into());
    }
    for id in &ids {
        if id.parse::<u64>().is_err() {
            return Err(format!("{id:?} is not a vertex id"));
        }
    }
    let dir = args.state_dir();
    // The verb depends on the snapshot's metric; inspect() tells us which.
    let path = snap_path(&dir, name);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let info = inspect(&bytes).map_err(|e| format!("snapshot rejected: {e}"))?;
    let verb = match info.kind {
        SnapKind::HopMetric => "Q",
        SnapKind::Weighted => "QW",
    };
    let request = format!("{verb} {} {} {} {}", ids[0], ids[1], ids[2], ids[3]);
    let reply = round_trip(connect(&dir, name)?, &request)?;
    println!("{reply}");
    Ok(())
}

/// A subcommand's entry point.
type Subcommand = fn(&Args) -> Result<(), String>;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        return usage();
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let (run, flags): (Subcommand, &[&str]) = match command.as_str() {
        "create" => (cmd_create, &["n", "m", "sources", "shards", "seed", "weighted"]),
        "list" => (cmd_list, &[]),
        "serve" => (cmd_serve, &[]),
        "stats" => (cmd_stats, &[]),
        "query" => (cmd_query, &[]),
        "stop" => (cmd_stop, &[]),
        _ => {
            eprintln!("unknown command {command:?}");
            return usage();
        }
    };
    if let Err(e) = args.allow_only(flags) {
        eprintln!("error: {e}");
        return usage();
    }
    let result = run(&args);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
