//! The one implementation of the wire. [`run_session`] answers one client's request lines
//! over any `BufRead` and `Write` (so tests drive it with no socket and no clock), and it
//! alone owns the per-request bounds: [`MAX_LINE_BYTES`] per line, [`MAX_BATCH`] lines per
//! batch, and an in-place `ERR` for a batch line whose ids fail validation. Any other
//! error in a batch, an over-long line, or a timed-out read ends the session after one
//! `ERR`: past those, the client's next bytes cannot be told apart from the bad request.
//!
//! [`serve`] is the accept loop around it: at most [`MAX_CONNECTIONS`] sessions, each on
//! its own thread with [`IDLE_TIMEOUT`] on every read and write, and each computing its
//! answers inline (the services should run with `ServiceConfig { workers: 0 }`), so the
//! connection cap also bounds the threads that compute.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use crate::protocol::{
    format_answer, format_metrics_header, format_stats, format_weighted_answer, parse_request,
    validate_query, ProtocolError, Request,
};
use crate::service::{Query, QueryService, RouteOracle, ShardedOracle, WeightedShardedOracle};
use crate::wire::{read_line_bounded, LineOutcome, MAX_LINE_BYTES};

/// Largest batch a client may announce in one `B k` / `BW k` header. A bigger header is
/// refused before anything is allocated, since `k` comes straight off the wire.
pub const MAX_BATCH: usize = 4096;

/// Most sessions [`serve`] runs at once. The next connection is told `ERR busy` and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// How long an admitted socket may wait for a read or a write before its session ends.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The services one process serves: the hop metric behind `Q`/`B`, the weighted metric
/// behind `QW`/`BW`, or both. A query for a metric the process does not serve draws an
/// `ERR` naming the verb to use. `STATS` and `METRICS` report the hop service when there
/// is one, else the weighted one.
#[derive(Debug)]
pub struct Services {
    /// The service behind `Q` and `B`.
    pub hop: Option<QueryService>,
    /// The service behind `QW` and `BW`.
    pub weighted: Option<QueryService<WeightedShardedOracle>>,
}

/// How a session ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// EOF, `QUIT`, or a fatal `ERR`: the connection is done.
    Closed,
    /// The client sent `STOP` and was told `OK stopping`: the whole server should stop.
    Stop,
}

/// The reply to `STATS` or `METRICS` from a process that serves neither metric.
const NO_ORACLE: &str = "this server serves no oracle";

/// One metric's side of the protocol: its service, if the process serves that metric,
/// and how its requests and answers are spelled.
struct Lane<'a, O: RouteOracle> {
    service: Option<&'a QueryService<O>>,
    format: fn(Option<O::Answer>) -> String,
    /// The verb of this metric's batch lines.
    verb: &'static str,
    /// The replies to a single query and to a batch header when `service` is `None`.
    wrong_query: &'static str,
    wrong_batch: &'static str,
}

impl Services {
    fn hop_lane(&self) -> Lane<'_, ShardedOracle> {
        Lane {
            service: self.hop.as_ref(),
            format: format_answer,
            verb: "Q",
            wrong_query: "this server is weighted: use QW",
            wrong_batch: "this server is weighted: use BW",
        }
    }

    fn weighted_lane(&self) -> Lane<'_, WeightedShardedOracle> {
        Lane {
            service: self.weighted.as_ref(),
            format: format_weighted_answer,
            verb: "QW",
            wrong_query: "this server is hop-metric: use Q",
            wrong_batch: "this server is hop-metric: use B",
        }
    }

    fn stats(&self) -> Option<String> {
        let hop = self.hop.as_ref().map(|s| s.metrics());
        hop.or_else(|| self.weighted.as_ref().map(|s| s.metrics())).map(|m| format_stats(&m))
    }

    fn exposition(&self) -> Option<String> {
        let hop = self.hop.as_ref().map(|s| s.render_metrics());
        hop.or_else(|| self.weighted.as_ref().map(|s| s.render_metrics()))
    }
}

/// Serves one client until EOF, `QUIT`, `STOP` or a fatal error, writing every reply to
/// `writer`. `Err` is an I/O failure other than a read timeout.
pub fn run_session<R: BufRead, W: Write>(
    reader: R,
    writer: W,
    services: &Services,
) -> io::Result<SessionEnd> {
    let mut session = Session { reader, writer, line: String::new(), services };
    loop {
        let end = session.respond()?;
        session.writer.flush()?;
        if let Some(end) = end {
            return Ok(end);
        }
    }
}

struct Session<'a, R, W> {
    reader: R,
    writer: W,
    line: String,
    services: &'a Services,
}

/// `Some` once a request has ended the session.
type Step = io::Result<Option<SessionEnd>>;

impl<R: BufRead, W: Write> Session<'_, R, W> {
    /// Reads one top-level request and writes its replies.
    fn respond(&mut self) -> Step {
        if let Some(end) = self.read_line()? {
            return Ok(Some(end));
        }
        if self.line.trim_end() == "STOP" {
            writeln!(self.writer, "OK stopping")?;
            return Ok(Some(SessionEnd::Stop));
        }
        let services = self.services;
        match parse_request(&self.line) {
            Ok(Request::Query(q)) => self.single(&services.hop_lane(), q)?,
            Ok(Request::WeightedQuery(q)) => self.single(&services.weighted_lane(), q)?,
            Ok(Request::Batch(k)) => return self.batch(&services.hop_lane(), k),
            Ok(Request::WeightedBatch(k)) => return self.batch(&services.weighted_lane(), k),
            Ok(Request::Stats) => match services.stats() {
                Some(stats) => writeln!(self.writer, "{stats}")?,
                None => writeln!(self.writer, "ERR {NO_ORACLE}")?,
            },
            Ok(Request::Metrics) => match services.exposition() {
                // Length-delimited: the header counts the lines of the body.
                Some(text) => {
                    writeln!(self.writer, "{}", format_metrics_header(text.lines().count()))?;
                    self.writer.write_all(text.as_bytes())?;
                }
                None => writeln!(self.writer, "ERR {NO_ORACLE}")?,
            },
            Ok(Request::Quit) => return Ok(Some(SessionEnd::Closed)),
            Err(e) => writeln!(self.writer, "ERR {e}")?,
        }
        Ok(None)
    }

    /// Reads the next line. `Some` when the session must end instead: at EOF, or after
    /// one `ERR` for an over-long line or a timed-out read.
    fn read_line(&mut self) -> Step {
        match read_line_bounded(&mut self.reader, &mut self.line, MAX_LINE_BYTES) {
            Ok(LineOutcome::Line) => Ok(None),
            Ok(LineOutcome::Eof) => Ok(Some(SessionEnd::Closed)),
            Ok(LineOutcome::TooLong) => self.fatal("line too long"),
            // A socket read timeout surfaces as either kind, depending on the platform.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                self.fatal("idle timeout")
            }
            Err(e) => Err(e),
        }
    }

    /// Writes `ERR why` and ends the session.
    fn fatal(&mut self, why: &str) -> Step {
        writeln!(self.writer, "ERR {why}")?;
        Ok(Some(SessionEnd::Closed))
    }

    /// Answers one `Q` or `QW` line. Ids are validated against the served graph before
    /// the query reaches the oracle.
    fn single<O: RouteOracle>(&mut self, lane: &Lane<'_, O>, q: Query) -> io::Result<()> {
        let Some(service) = lane.service else {
            return writeln!(self.writer, "ERR {}", lane.wrong_query);
        };
        match validate_query(&q, service.oracle().vertex_count()) {
            Ok(()) => writeln!(self.writer, "{}", (lane.format)(service.answer_batch(&[q])[0])),
            Err(e) => writeln!(self.writer, "ERR {e}"),
        }
    }

    /// Reads and answers the `k` lines of a `B k` or `BW k` batch: one reply per line, in
    /// order, with an in-place `ERR` for a line whose ids fail validation.
    fn batch<O: RouteOracle>(&mut self, lane: &Lane<'_, O>, k: usize) -> Step {
        // The client may already have sent the k lines, and answering them as requests
        // would shift every later reply; so a header that is refused ends the session.
        let Some(service) = lane.service else {
            return self.fatal(lane.wrong_batch);
        };
        if k > MAX_BATCH {
            return self.fatal(&format!("batch size {k} exceeds the limit of {MAX_BATCH}"));
        }
        let vertex_count = service.oracle().vertex_count();
        let mut slots: Vec<Result<usize, ProtocolError>> = Vec::with_capacity(k);
        let mut queries = Vec::with_capacity(k);
        for _ in 0..k {
            if let Some(end) = self.read_line()? {
                return Ok(Some(end));
            }
            let q = match parse_request(&self.line) {
                Ok(Request::Query(q)) if lane.verb == "Q" => q,
                Ok(Request::WeightedQuery(q)) if lane.verb == "QW" => q,
                _ => return self.fatal(&format!("batch lines must be {} queries", lane.verb)),
            };
            let slot = validate_query(&q, vertex_count).map(|()| queries.len());
            if slot.is_ok() {
                queries.push(q);
            }
            slots.push(slot);
        }
        let answers = service.answer_batch(&queries);
        for slot in slots {
            match slot {
                Ok(i) => writeln!(self.writer, "{}", (lane.format)(answers[i]))?,
                Err(e) => writeln!(self.writer, "ERR {e}")?,
            }
        }
        Ok(None)
    }
}

/// The live sessions of one [`serve`] call: a clone of each admitted socket, so `STOP`
/// can shut them all down, under the admission number that releases it.
#[derive(Default)]
struct Live {
    sockets: Vec<(u64, TcpStream)>,
    admitted: u64,
    stopping: bool,
}

impl Live {
    fn admit(&mut self, stream: &TcpStream) -> Option<u64> {
        if self.sockets.len() >= MAX_CONNECTIONS {
            return None;
        }
        self.admitted += 1;
        self.sockets.push((self.admitted, stream.try_clone().ok()?));
        Some(self.admitted)
    }

    fn release(&mut self, id: u64) {
        self.sockets.retain(|(live, _)| *live != id);
    }

    /// Shutting a socket down ends its session at the next read or write.
    fn stop(&mut self) {
        self.stopping = true;
        for (_, socket) in &self.sockets {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

/// Serves every connection on `listener` with its own [`run_session`] thread until a
/// client sends `STOP`, then shuts down the live connections and returns once their
/// threads are gone. A connection past [`MAX_CONNECTIONS`] is sent `ERR busy` and closed
/// unread. A session's slot is freed before its socket closes, so a client that has read
/// EOF can reconnect at once. A failed `accept` is logged and skipped.
///
/// # Errors
///
/// Only if the listener's own address cannot be read.
pub fn serve(listener: TcpListener, services: &Services) -> io::Result<()> {
    // STOP wakes the accept loop by connecting to it, through loopback if bound to any.
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        let loopback =
            if wake.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        wake.set_ip(loopback);
    }
    let live = Mutex::new(Live::default());
    let lock = || live.lock().expect("no thread panics while it holds the live-session lock");
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    eprintln!("accept: {e}");
                    continue;
                }
            };
            let id = {
                let mut live = lock();
                if live.stopping {
                    break;
                }
                live.admit(&stream)
            };
            let Some(id) = id else {
                let _ = (&stream).write_all(b"ERR busy\n");
                continue;
            };
            let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
                let end = stream
                    .set_read_timeout(Some(IDLE_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(IDLE_TIMEOUT)))
                    .and_then(|()| {
                        run_session(BufReader::new(&stream), BufWriter::new(&stream), services)
                    });
                lock().release(id);
                match end {
                    Ok(SessionEnd::Closed) => {}
                    Ok(SessionEnd::Stop) => {
                        lock().stop();
                        if let Err(e) = TcpStream::connect(wake) {
                            eprintln!("wake the accept loop at {wake}: {e}");
                        }
                    }
                    Err(e) => eprintln!("connection error: {e}"),
                }
            });
            if let Err(e) = spawned {
                eprintln!("spawn a session thread: {e}");
                lock().release(id);
            }
        }
    });
    Ok(())
}
