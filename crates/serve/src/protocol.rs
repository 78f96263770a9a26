//! The newline-delimited text protocol spoken by the TCP front end.
//!
//! Every message is one line of whitespace-separated ASCII tokens; a batch is length-delimited
//! by its header line. Requests:
//!
//! ```text
//! Q <source> <target> <u> <v>   one hop-metric query avoiding edge (u, v); one reply line
//! B <k>                         batch header: exactly k `Q` lines follow; k reply lines
//! QW <source> <target> <u> <v>  one *weighted* query, served by the weighted oracle
//! BW <k>                        weighted batch header: exactly k `QW` lines follow
//! STATS                         one reply line summarizing the service metrics
//! METRICS                       length-delimited Prometheus-style text exposition
//! QUIT                          close the connection
//! ```
//!
//! The `STATS` reply is itself machine-parseable (see [`StatsReply`]): a pinned sequence of
//! `key=value` tokens carrying totals, the served epoch, and the p99s of the batch-latency,
//! staleness-window, and rebuild-latency histograms. The `METRICS` reply is multi-line, so
//! it is length-delimited like batches are: a `METRICS <k>` header line followed by exactly
//! `k` lines of exposition text (rendered by
//! [`render_exposition`](crate::exposition::render_exposition)).
//!
//! Answers are a single token per query: a decimal distance (hop count for `Q`/`B`, weight
//! for `QW`/`BW`), `INF` (the failure disconnects the target), or `NOSRC` (the queried
//! source is not served by any shard). The grammar is deliberately tiny — `std::net` plus
//! line buffering is the whole transport — but it is the real serving boundary:
//! `examples/serve_tcp.rs` drives it (both metrics) across a localhost socket in CI.

use std::fmt;
use std::str::FromStr;

use msrp_graph::{Distance, Edge, Weight, INFINITE_DISTANCE, INFINITE_WEIGHT};

use crate::metrics::MetricsSnapshot;
use crate::service::Query;

/// A parsed request line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `Q s t u v` — answer one hop-metric query.
    Query(Query),
    /// `B k` — a batch of `k` queries follows, one `Q` line each.
    Batch(usize),
    /// `QW s t u v` — answer one weighted query (routed to the weighted oracle).
    WeightedQuery(Query),
    /// `BW k` — a weighted batch of `k` queries follows, one `QW` line each.
    WeightedBatch(usize),
    /// `STATS` — report service metrics as one `key=value` line.
    Stats,
    /// `METRICS` — report the full Prometheus-style text exposition (length-delimited).
    Metrics,
    /// `QUIT` — close the connection.
    Quit,
}

/// A malformed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// What went wrong, for the error reply.
    pub message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        ProtocolError { message: message.into() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn parse_token<T: FromStr>(token: Option<&str>, what: &str) -> Result<T, ProtocolError> {
    token
        .ok_or_else(|| ProtocolError::new(format!("missing {what}")))?
        .parse()
        .map_err(|_| ProtocolError::new(format!("malformed {what}")))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| ProtocolError::new("empty request line"))?;
    let parse_query = |tokens: &mut std::str::SplitWhitespace<'_>| {
        let source = parse_token(tokens.next(), "source vertex")?;
        let target = parse_token(tokens.next(), "target vertex")?;
        let u = parse_token(tokens.next(), "edge endpoint")?;
        let v: usize = parse_token(tokens.next(), "edge endpoint")?;
        if u == v {
            // A self-loop edge key is unrepresentable (`Edge::new` would panic); reject at
            // the parse boundary so no hostile line can reach that assertion.
            return Err(ProtocolError::new("avoided edge endpoints must differ"));
        }
        Ok(Query::new(source, target, Edge::new(u, v)))
    };
    let request = match verb {
        "Q" => Request::Query(parse_query(&mut tokens)?),
        "QW" => Request::WeightedQuery(parse_query(&mut tokens)?),
        "B" => Request::Batch(parse_token(tokens.next(), "batch size")?),
        "BW" => Request::WeightedBatch(parse_token(tokens.next(), "batch size")?),
        "STATS" => Request::Stats,
        "METRICS" => Request::Metrics,
        "QUIT" => Request::Quit,
        other => return Err(ProtocolError::new(format!("unknown verb `{other}`"))),
    };
    if tokens.next().is_some() {
        return Err(ProtocolError::new("trailing tokens"));
    }
    Ok(request)
}

/// Renders a query as a `Q` request line (without the newline).
pub fn format_query(q: &Query) -> String {
    let (u, v) = q.avoid.endpoints();
    format!("Q {} {} {u} {v}", q.source, q.target)
}

/// Renders a query as a `QW` request line (without the newline): same ids, weighted metric.
pub fn format_weighted_query(q: &Query) -> String {
    let (u, v) = q.avoid.endpoints();
    format!("QW {} {} {u} {v}", q.source, q.target)
}

/// Validates a parsed query's vertex ids against the served graph.
///
/// [`parse_request`] checks the *grammar* of a line; this checks its *semantics*: every id
/// must name a vertex of the graph behind the service. The TCP front end calls it before a
/// query is ever enqueued and turns the error into an `ERR` reply line — the fix for the
/// remotely-triggerable worker panic where `Q 0 999999999 0 1` reached the shortest-path
/// tree's unchecked `dist[t]` indexing (the sharded oracles additionally treat such ids as
/// unroutable, as defense in depth).
///
/// # Errors
///
/// Returns a [`ProtocolError`] naming the first out-of-range id.
pub fn validate_query(q: &Query, vertex_count: usize) -> Result<(), ProtocolError> {
    let check = |what: &str, v: usize| {
        if v >= vertex_count {
            Err(ProtocolError::new(format!(
                "{what} {v} out of range (graph has {vertex_count} vertices)"
            )))
        } else {
            Ok(())
        }
    };
    check("source vertex", q.source)?;
    check("target vertex", q.target)?;
    let (u, v) = q.avoid.endpoints();
    check("edge endpoint", u)?;
    check("edge endpoint", v)
}

/// Renders one answer token: `NOSRC`, `INF`, or the decimal distance.
pub fn format_answer(answer: Option<Distance>) -> String {
    match answer {
        None => "NOSRC".to_string(),
        Some(INFINITE_DISTANCE) => "INF".to_string(),
        Some(d) => d.to_string(),
    }
}

/// Renders one *weighted* answer token: `NOSRC`, `INF`, or the decimal weight (the `QW`/`BW`
/// mirror of [`format_answer`]).
pub fn format_weighted_answer(answer: Option<Weight>) -> String {
    match answer {
        None => "NOSRC".to_string(),
        Some(INFINITE_WEIGHT) => "INF".to_string(),
        Some(w) => w.to_string(),
    }
}

/// The parsed form of a `STATS` reply line.
///
/// The wire format is pinned (round-trip tested): seven `key=value` tokens, in exactly this
/// order, after the `STATS` prefix:
///
/// ```text
/// STATS queries=<u64> unroutable=<u64> epoch=<u64> batch_p50_ns=<u64> batch_p99_ns=<u64>
///       staleness_p99_ns=<u64> rebuild_p99_ns=<u64>
/// ```
///
/// Quantiles are log₂-bucket upper bounds in nanoseconds (see
/// [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile)); the staleness and
/// rebuild fields are zero until the first epoch swap. Dashboards that need more than seven
/// numbers should speak `METRICS` instead — `STATS` stays a one-line health probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StatsReply {
    /// Total queries answered (including unroutable ones).
    pub queries: u64,
    /// Queries no shard could serve.
    pub unroutable: u64,
    /// Currently served epoch id (0 until the first churn swap).
    pub epoch: u64,
    /// Median batch compute latency, in nanoseconds.
    pub batch_p50_ns: u64,
    /// 99th-percentile batch compute latency, in nanoseconds.
    pub batch_p99_ns: u64,
    /// 99th-percentile staleness window of epoch swaps, in nanoseconds.
    pub staleness_p99_ns: u64,
    /// 99th-percentile oracle rebuild latency of epoch swaps, in nanoseconds.
    pub rebuild_p99_ns: u64,
}

/// Key names of the `STATS` reply, in wire order. `parse_stats` enforces this order exactly,
/// so the format cannot drift without the round-trip test noticing.
const STATS_KEYS: [&str; 7] = [
    "queries",
    "unroutable",
    "epoch",
    "batch_p50_ns",
    "batch_p99_ns",
    "staleness_p99_ns",
    "rebuild_p99_ns",
];

impl StatsReply {
    /// Derives the reply from a metrics snapshot.
    pub fn from_snapshot(m: &MetricsSnapshot) -> Self {
        let p99_ns = |h: &crate::HistogramSnapshot| h.p99().as_nanos().min(u64::MAX.into()) as u64;
        StatsReply {
            queries: m.queries_total,
            unroutable: m.unroutable_total,
            epoch: m.epoch,
            batch_p50_ns: m.batch_latency.p50().as_nanos().min(u64::MAX.into()) as u64,
            batch_p99_ns: p99_ns(&m.batch_latency),
            staleness_p99_ns: p99_ns(&m.staleness_window),
            rebuild_p99_ns: p99_ns(&m.rebuild_latency),
        }
    }

    fn values(&self) -> [u64; 7] {
        [
            self.queries,
            self.unroutable,
            self.epoch,
            self.batch_p50_ns,
            self.batch_p99_ns,
            self.staleness_p99_ns,
            self.rebuild_p99_ns,
        ]
    }
}

impl fmt::Display for StatsReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "STATS")?;
        for (key, value) in STATS_KEYS.iter().zip(self.values()) {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

/// Renders the `STATS` reply line (without the newline) for a metrics snapshot.
pub fn format_stats(m: &MetricsSnapshot) -> String {
    StatsReply::from_snapshot(m).to_string()
}

/// Parses a `STATS` reply line (the inverse of [`format_stats`]).
///
/// Strict by design: the prefix, every key, and the key *order* must match [`StatsReply`]'s
/// pinned format, and no trailing tokens are allowed — a client that parses today keeps
/// parsing tomorrow, or this function's tests fail loudly first.
pub fn parse_stats(line: &str) -> Result<StatsReply, ProtocolError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("STATS") => {}
        _ => return Err(ProtocolError::new("stats reply must start with STATS")),
    }
    let mut values = [0u64; 7];
    for (key, slot) in STATS_KEYS.iter().zip(values.iter_mut()) {
        let token = tokens
            .next()
            .ok_or_else(|| ProtocolError::new(format!("missing stats field `{key}`")))?;
        let value = token
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| ProtocolError::new(format!("expected `{key}=…`, got `{token}`")))?;
        *slot = value
            .parse()
            .map_err(|_| ProtocolError::new(format!("malformed stats value `{token}`")))?;
    }
    if tokens.next().is_some() {
        return Err(ProtocolError::new("trailing tokens in stats reply"));
    }
    let [queries, unroutable, epoch, batch_p50_ns, batch_p99_ns, staleness_p99_ns, rebuild_p99_ns] =
        values;
    Ok(StatsReply {
        queries,
        unroutable,
        epoch,
        batch_p50_ns,
        batch_p99_ns,
        staleness_p99_ns,
        rebuild_p99_ns,
    })
}

/// Renders the `METRICS` reply header (without the newline): exactly `lines` lines of
/// exposition text follow it.
pub fn format_metrics_header(lines: usize) -> String {
    format!("METRICS {lines}")
}

/// Parses a `METRICS <k>` reply header, returning the number of exposition lines that
/// follow (the inverse of [`format_metrics_header`]).
pub fn parse_metrics_header(line: &str) -> Result<usize, ProtocolError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("METRICS") => {}
        _ => return Err(ProtocolError::new("metrics reply must start with METRICS")),
    }
    let count = parse_token(tokens.next(), "metrics line count")?;
    if tokens.next().is_some() {
        return Err(ProtocolError::new("trailing tokens in metrics header"));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // No client parses answer tokens, so the parsers are test-only: the reference
    // inverses the format round trips are checked against.

    /// Parses one answer token (the inverse of [`format_answer`]).
    fn parse_answer(line: &str) -> Result<Option<Distance>, ProtocolError> {
        match line.trim() {
            "NOSRC" => Ok(None),
            "INF" => Ok(Some(INFINITE_DISTANCE)),
            token => token
                .parse::<Distance>()
                .ok()
                .filter(|&d| d != INFINITE_DISTANCE)
                .map(Some)
                .ok_or_else(|| ProtocolError::new(format!("malformed answer `{token}`"))),
        }
    }

    /// Parses one weighted answer token (the inverse of [`format_weighted_answer`]).
    fn parse_weighted_answer(line: &str) -> Result<Option<Weight>, ProtocolError> {
        match line.trim() {
            "NOSRC" => Ok(None),
            "INF" => Ok(Some(INFINITE_WEIGHT)),
            token => {
                token.parse::<Weight>().ok().filter(|&w| w != INFINITE_WEIGHT).map(Some).ok_or_else(
                    || ProtocolError::new(format!("malformed weighted answer `{token}`")),
                )
            }
        }
    }

    #[test]
    fn requests_round_trip() {
        let q = Query::new(3, 7, Edge::new(9, 2));
        let line = format_query(&q);
        assert_eq!(line, "Q 3 7 2 9"); // Edge::new canonicalizes endpoint order
        assert_eq!(parse_request(&line), Ok(Request::Query(q)));
        assert_eq!(parse_request("B 16"), Ok(Request::Batch(16)));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in ["", "Q 1 2 3", "Q 1 2 3 x", "Q 1 2 3 3", "B", "B -1", "FLY 1", "QUIT now"] {
            assert!(parse_request(line).is_err(), "line {line:?} must be rejected");
        }
    }

    #[test]
    fn weighted_requests_round_trip() {
        let q = Query::new(4, 1, Edge::new(8, 3));
        let line = format_weighted_query(&q);
        assert_eq!(line, "QW 4 1 3 8");
        assert_eq!(parse_request(&line), Ok(Request::WeightedQuery(q)));
        assert_eq!(parse_request("BW 7"), Ok(Request::WeightedBatch(7)));
        // The weighted verbs reject exactly the malformed shapes the hop-metric verbs do.
        for line in ["QW 1 2 3", "QW 1 2 3 3", "QW 1 2 3 x", "BW", "BW -1", "QW 1 2 3 4 5"] {
            assert!(parse_request(line).is_err(), "line {line:?} must be rejected");
        }
    }

    #[test]
    fn weighted_answers_round_trip() {
        use msrp_graph::INFINITE_WEIGHT;
        for answer in [None, Some(INFINITE_WEIGHT), Some(0), Some(u64::from(u32::MAX))] {
            assert_eq!(parse_weighted_answer(&format_weighted_answer(answer)), Ok(answer));
        }
        assert!(parse_weighted_answer("x").is_err());
        assert!(
            parse_weighted_answer("18446744073709551615").is_err(),
            "INFINITE_WEIGHT must be spelled INF"
        );
    }

    #[test]
    fn answers_round_trip() {
        for answer in [None, Some(INFINITE_DISTANCE), Some(0), Some(41)] {
            assert_eq!(parse_answer(&format_answer(answer)), Ok(answer));
        }
        assert!(parse_answer("x").is_err());
        assert!(parse_answer("4294967295").is_err(), "INFINITE_DISTANCE must be spelled INF");
    }

    #[test]
    fn metrics_verb_parses_strictly() {
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("  METRICS  "), Ok(Request::Metrics));
        for line in ["METRIC", "metrics", "METRICS 3", "METRICS now please", "METRICSX"] {
            assert!(parse_request(line).is_err(), "line {line:?} must be rejected");
        }
    }

    #[test]
    fn stats_reply_round_trips_and_the_format_is_pinned() {
        use crate::metrics::ServiceMetrics;
        use msrp_oracle::RebuildStats;
        use std::time::Duration;
        let m = ServiceMetrics::new(2, 2);
        m.record_batch_queries(&[5, 7], 1);
        m.record_batch(0, Duration::from_nanos(100)); // bucket upper bound 128
        m.record_epoch_swap(
            3,
            Duration::from_nanos(1000), // bucket upper bound 1024
            Duration::from_nanos(500),  // bucket upper bound 512
            &RebuildStats::default(),
        );
        let line = format_stats(&m.snapshot());
        assert_eq!(
            line,
            "STATS queries=13 unroutable=1 epoch=3 batch_p50_ns=128 batch_p99_ns=128 \
             staleness_p99_ns=1024 rebuild_p99_ns=512",
            "the STATS wire format is pinned; update parse_stats and this test together"
        );
        let reply = parse_stats(&line).expect("pinned format must parse");
        assert_eq!(reply, StatsReply::from_snapshot(&m.snapshot()));
        assert_eq!(parse_stats(&reply.to_string()), Ok(reply), "round trip");
    }

    #[test]
    fn stats_reply_of_a_fresh_service_is_all_zeros_and_parses() {
        use crate::metrics::ServiceMetrics;
        let line = format_stats(&ServiceMetrics::new(1, 1).snapshot());
        let reply = parse_stats(&line).unwrap();
        assert_eq!(reply.queries, 0);
        assert_eq!(reply.epoch, 0);
        assert_eq!(reply.staleness_p99_ns, 0, "no swap yet → zero, not garbage");
    }

    #[test]
    fn malformed_stats_replies_are_rejected() {
        let good = "STATS queries=1 unroutable=0 epoch=0 batch_p50_ns=0 batch_p99_ns=0 \
                    staleness_p99_ns=0 rebuild_p99_ns=0";
        assert!(parse_stats(good).is_ok());
        for line in [
            "",
            "STATS",
            "STAT queries=1",
            // Reordered keys: the order is part of the pinned format.
            "STATS unroutable=0 queries=1 epoch=0 batch_p50_ns=0 batch_p99_ns=0 \
             staleness_p99_ns=0 rebuild_p99_ns=0",
            // Malformed value.
            "STATS queries=x unroutable=0 epoch=0 batch_p50_ns=0 batch_p99_ns=0 \
             staleness_p99_ns=0 rebuild_p99_ns=0",
            // Missing last field.
            "STATS queries=1 unroutable=0 epoch=0 batch_p50_ns=0 batch_p99_ns=0 \
             staleness_p99_ns=0",
        ] {
            assert!(parse_stats(line).is_err(), "line {line:?} must be rejected");
        }
        // Trailing tokens are rejected too.
        assert!(parse_stats(&format!("{good} extra=1")).is_err());
    }

    #[test]
    fn metrics_headers_round_trip() {
        for n in [0usize, 1, 57, 4096] {
            assert_eq!(parse_metrics_header(&format_metrics_header(n)), Ok(n));
        }
        for line in ["", "METRICS", "METRICS x", "METRICS -1", "METRICS 3 4", "STATS 3"] {
            assert!(parse_metrics_header(line).is_err(), "line {line:?} must be rejected");
        }
    }

    #[test]
    fn errors_display_their_message() {
        let err = parse_request("FLY").unwrap_err();
        assert!(err.to_string().contains("unknown verb"));
    }

    #[test]
    fn validation_rejects_out_of_range_ids() {
        let n = 10;
        assert!(validate_query(&Query::new(0, 9, Edge::new(3, 4)), n).is_ok());
        for (q, what) in [
            (Query::new(10, 0, Edge::new(0, 1)), "source"),
            (Query::new(0, 999_999_999, Edge::new(0, 1)), "target"),
            (Query::new(0, 1, Edge::new(2, 10)), "endpoint"),
            (Query::new(0, 1, Edge::new(usize::MAX - 1, usize::MAX)), "endpoint"),
        ] {
            let err = validate_query(&q, n).unwrap_err();
            assert!(err.to_string().contains(what), "{q:?}: {err}");
            assert!(err.to_string().contains("out of range"), "{q:?}: {err}");
        }
        // The empty graph rejects everything.
        assert!(validate_query(&Query::new(0, 0, Edge::new(0, 1)), 0).is_err());
    }
}
