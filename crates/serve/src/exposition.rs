//! Prometheus-style text rendering of the service's metrics — the machine-readable twin of
//! the one-line `STATS` reply.
//!
//! [`render_exposition`] turns a [`MetricsSnapshot`] (plus, when observability is on, a
//! span-journal dump and slow-query counters packaged as an [`ObsReport`]) into the classic
//! `# HELP`/`# TYPE`/sample text format, with every metric under the `msrp_` prefix and
//! every duration in seconds. The output always satisfies `msrp_obs::is_well_formed` — the
//! hostile-input suite storms the renderer during live epoch swaps to pin that down.

use std::time::Duration;

use msrp_obs::{Exposition, JournalSnapshot};

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::service::BatchStage;

/// The observability-plane half of an exposition: journal dump and slow-query accounting,
/// produced by [`QueryService::render_metrics`](crate::QueryService::render_metrics) when
/// tracing is on.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Span journal snapshot (absent when span tracing is off).
    pub journal: Option<JournalSnapshot>,
    /// Total batches that ever exceeded the slow-query threshold.
    pub slow_total: u64,
    /// The configured slow-query threshold (absent when the log is off).
    pub slow_threshold: Option<Duration>,
}

fn histogram(e: &mut Exposition, name: &str, help: &str, h: &HistogramSnapshot) {
    e.histogram_log2(name, help, &h.buckets, h.sum_ns as f64 * 1e-9);
}

/// Renders the full text exposition of a metrics snapshot; pass an [`ObsReport`] to also
/// emit the journal and slow-query families.
pub fn render_exposition(m: &MetricsSnapshot, obs: Option<&ObsReport>) -> String {
    let mut e = Exposition::new();
    e.counter(
        "msrp_queries_total",
        "Queries answered by the service, including unroutable ones.",
        m.queries_total as f64,
    );
    e.counter(
        "msrp_unroutable_total",
        "Queries whose source no shard serves or whose ids were out of range.",
        m.unroutable_total as f64,
    );
    e.gauge("msrp_epoch", "Currently served epoch id (0 until the first swap).", m.epoch as f64);
    e.counter_family("msrp_shard_queries_total", "Queries routed to each oracle shard.");
    for (i, &count) in m.shard_queries.iter().enumerate() {
        e.sample("msrp_shard_queries_total", &[("shard", &i.to_string())], count as f64);
    }
    e.counter_family(
        "msrp_worker_batches_total",
        "Batches answered on each lane: a pool worker, or lane 0 when answered inline.",
    );
    for (i, &count) in m.worker_batches.iter().enumerate() {
        e.sample("msrp_worker_batches_total", &[("worker", &i.to_string())], count as f64);
    }
    histogram(
        &mut e,
        "msrp_batch_latency_seconds",
        "Per-batch compute latency recorded by the answering lane.",
        &m.batch_latency,
    );
    histogram(
        &mut e,
        "msrp_staleness_window_seconds",
        "Epoch-swap staleness window: churn-event arrival to new-epoch publish.",
        &m.staleness_window,
    );
    histogram(
        &mut e,
        "msrp_rebuild_latency_seconds",
        "Oracle reconstruction time of each epoch swap.",
        &m.rebuild_latency,
    );
    e.counter_family(
        "msrp_rebuild_sources_total",
        "Sources processed by each rung of the incremental rebuild ladder.",
    );
    e.counter_family(
        "msrp_rebuild_rung_seconds_total",
        "Wall time spent in each rung of the incremental rebuild ladder.",
    );
    for (rung, count, time) in m.rebuild.rungs() {
        e.sample("msrp_rebuild_sources_total", &[("rung", rung)], count as f64);
        e.sample("msrp_rebuild_rung_seconds_total", &[("rung", rung)], time.as_secs_f64());
    }
    e.counter(
        "msrp_rebuild_cuts_total",
        "Tree-edge cuts a from-scratch rebuild would have re-solved, over all swaps.",
        m.rebuild.cuts_total as f64,
    );
    e.counter(
        "msrp_rebuild_cuts_recomputed_total",
        "Tree-edge cuts the incremental rebuilds actually re-solved.",
        m.rebuild.cuts_recomputed as f64,
    );
    if let Some(obs) = obs {
        if let Some(journal) = &obs.journal {
            e.counter(
                "msrp_journal_events_total",
                "Span events ever recorded into the journal ring buffer.",
                journal.total as f64,
            );
            e.counter(
                "msrp_journal_dropped_total",
                "Span events lost to ring wrap (drops are counted, never blocked on).",
                journal.dropped as f64,
            );
            e.counter_family(
                "msrp_span_seconds_total",
                "Wall time of retained journal spans, by batch stage.",
            );
            e.counter_family(
                "msrp_span_count_total",
                "Number of retained journal spans, by batch stage.",
            );
            for (code, total, count) in journal.totals_by_stage() {
                let stage = match BatchStage::from_code(code) {
                    Some(s) => s.name(),
                    None => "unknown",
                };
                e.sample("msrp_span_seconds_total", &[("stage", stage)], total.as_secs_f64());
                e.sample("msrp_span_count_total", &[("stage", stage)], count as f64);
            }
        }
        if let Some(threshold) = obs.slow_threshold {
            e.gauge(
                "msrp_slow_query_threshold_seconds",
                "Latency threshold of the slow-query log.",
                threshold.as_secs_f64(),
            );
            e.counter(
                "msrp_slow_queries_total",
                "Batches that exceeded the slow-query threshold.",
                obs.slow_total as f64,
            );
        }
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrp_obs::is_well_formed;
    use msrp_oracle::RebuildStats;
    use std::time::Duration;

    fn demo_snapshot() -> MetricsSnapshot {
        use crate::metrics::ServiceMetrics;
        let m = ServiceMetrics::new(2, 3);
        m.record_batch_queries(&[5, 7], 1);
        m.record_batch(1, Duration::from_micros(90));
        m.record_epoch_swap(
            3,
            Duration::from_micros(400),
            Duration::from_micros(250),
            &RebuildStats {
                sources_total: 4,
                sources_reused: 1,
                sources_patched: 2,
                sources_rebuilt: 1,
                cuts_total: 40,
                cuts_recomputed: 9,
                reuse_time: Duration::from_nanos(700),
                patch_time: Duration::from_micros(60),
                rebuild_time: Duration::from_micros(180),
            },
        );
        m.snapshot()
    }

    #[test]
    fn plain_exposition_is_well_formed_and_complete() {
        let text = render_exposition(&demo_snapshot(), None);
        assert!(is_well_formed(&text), "not well-formed:\n{text}");
        assert!(text.contains("msrp_queries_total 13\n"));
        assert!(text.contains("msrp_unroutable_total 1\n"));
        assert!(text.contains("msrp_epoch 3\n"));
        assert!(text.contains("msrp_shard_queries_total{shard=\"1\"} 7\n"));
        assert!(text.contains("msrp_worker_batches_total{worker=\"1\"} 1\n"));
        assert!(text.contains("msrp_batch_latency_seconds_count 1\n"));
        assert!(text.contains("msrp_rebuild_sources_total{rung=\"patch\"} 2\n"));
        assert!(text.contains("msrp_rebuild_rung_seconds_total{rung=\"rebuild\"} 1.8e-4\n"));
        assert!(text.contains("msrp_rebuild_cuts_recomputed_total 9\n"));
        // Observability families are absent without an ObsReport.
        assert!(!text.contains("msrp_journal"));
        assert!(!text.contains("msrp_slow"));
    }

    #[test]
    fn obs_report_adds_journal_and_slowlog_families() {
        use msrp_obs::SpanJournal;
        let journal = SpanJournal::new(16);
        journal.record(11, BatchStage::QueueWait.code(), 0, Duration::from_micros(5));
        journal.record(11, BatchStage::Compute.code(), 0, Duration::from_micros(80));
        journal.record(11, BatchStage::Reply.code(), 0, Duration::from_micros(2));
        let report = ObsReport {
            journal: Some(journal.snapshot()),
            slow_total: 2,
            slow_threshold: Some(Duration::from_millis(50)),
        };
        let text = render_exposition(&demo_snapshot(), Some(&report));
        assert!(is_well_formed(&text), "not well-formed:\n{text}");
        assert!(text.contains("msrp_journal_events_total 3\n"));
        assert!(text.contains("msrp_journal_dropped_total 0\n"));
        assert!(text.contains("msrp_span_count_total{stage=\"compute\"} 1\n"));
        assert!(text.contains("msrp_span_seconds_total{stage=\"queue_wait\"} 5e-6\n"));
        assert!(text.contains("msrp_slow_queries_total 2\n"));
        assert!(text.contains("msrp_slow_query_threshold_seconds 5e-2\n"));
    }
}
