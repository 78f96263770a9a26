//! Service observability: log-bucketed latency histograms and throughput counters.
//!
//! Latencies are recorded into power-of-two buckets (`bucket i` holds samples with
//! `2^(i-1) ns < latency ≤ 2^i ns`; bucket 0 also absorbs 0 ns samples), so a histogram is
//! 64 atomic counters regardless of how
//! many samples it absorbs, and quantiles are read off the cumulative bucket counts with at
//! most 2× relative error — the standard trade-off for serving-side p50/p99 tracking. All
//! counters are atomics: recording is lock-free and safe from any worker or client thread.
//!
//! Atomics go through [`msrp_check::sync`] (plain `std` re-exports in normal builds),
//! so `crates/check/tests/model_metrics.rs` can run `record`/`snapshot` under the
//! bounded model checker and pin the snapshot-tearing contract documented on
//! [`HistogramSnapshot::quantile`].

use msrp_check::sync::{AtomicU64, Ordering};
use std::time::Duration;

use msrp_oracle::RebuildStats;

/// Number of log buckets; `2^63 ns` is centuries, so 64 buckets cover every `Duration`.
const BUCKET_COUNT: usize = 64;

/// A lock-free latency histogram with logarithmic buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    /// Low word of the 128-bit nanosecond sum. A single `u64` of nanoseconds wraps after
    /// ~21 months of accumulated latency — reachable at sustained load — and a wrapped sum
    /// silently corrupts the mean, so the accumulator is widened instead: `sum_lo` wraps
    /// freely and `sum_hi` counts the wraps.
    sum_lo: AtomicU64,
    /// High word of the nanosecond sum: incremented once per `sum_lo` wrap. `fetch_add` is
    /// linearizable, so exactly one recorder observes each 2^64 crossing (its pre-add value
    /// plus its addend overflows) and carries.
    sum_hi: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding a sample of `ns` nanoseconds: `ceil(log2(ns))`, with 0 ns
    /// mapping to bucket 0.
    fn bucket_index(ns: u64) -> usize {
        (64 - ns.leading_zeros() as usize)
            .saturating_sub(usize::from(ns.is_power_of_two()))
            .min(BUCKET_COUNT - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        // ordering: Relaxed — histogram counters are deliberately unsynchronized with
        // each other; snapshots are statistical, and `quantile` is written to tolerate
        // counters that run ahead of the buckets (see `HistogramSnapshot::quantile` and
        // crates/check/tests/model_metrics.rs). Each counter only needs atomicity.
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same statistical-counter contract as the bucket add above.
        self.count.fetch_add(1, Ordering::Relaxed);
        // Wrapping fetch_add plus carry detection: the recorder whose addend crossed the
        // 2^64 boundary (pre-add value + addend overflows) bumps the high word, and
        // linearizability of fetch_add guarantees every crossing has exactly one such
        // recorder — the sum stays exact for centuries of accumulated latency.
        // ordering: Relaxed — the carry protocol needs only RMW atomicity (exactly one
        // recorder observes each wrap), not any cross-location ordering.
        let prev = self.sum_lo.fetch_add(ns, Ordering::Relaxed);
        if prev.checked_add(ns).is_none() {
            // ordering: Relaxed — carry increment; monotonic, readers tolerate lag.
            self.sum_hi.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Relaxed — running max; fetch_max atomicity alone keeps it exact.
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting (individual counters are read
    /// atomically; the histogram keeps absorbing samples while a snapshot is taken).
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed (all loads below) — a reporting snapshot is allowed to tear
        // across counters; every consumer (quantile, mean, merge) is written against
        // that weaker contract, and the model test pins it.
        let hi = self.sum_hi.load(Ordering::Relaxed);
        let lo = self.sum_lo.load(Ordering::Relaxed); // ordering: Relaxed — see above
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(), // ordering: Relaxed — see above
            count: self.count.load(Ordering::Relaxed), // ordering: Relaxed — see above
            sum_ns: (u128::from(hi) << 64) | u128::from(lo),
            max_ns: self.max_ns.load(Ordering::Relaxed), // ordering: Relaxed — see above
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], with quantile accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`buckets[i]` holds samples in `(2^(i-1), 2^i]` ns; bucket 0
    /// additionally absorbs 0 ns, so the quantile over-estimate bound of "at most the bucket
    /// upper bound, within 2×" holds for every recordable sample).
    pub buckets: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds. 128-bit: the histogram's accumulator carries
    /// across `u64` wraps, so the sum (and hence the mean) stays exact at any load.
    pub sum_ns: u128,
    /// Largest sample in nanoseconds (exact, not bucketed).
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile sample (`0 < q ≤ 1`), or zero
    /// when the histogram is empty. Bucketing makes this an over-estimate by at most 2×.
    ///
    /// The rank is derived from the *bucket sum*, not the snapshot's `count` field: the two
    /// are loaded by separate atomic reads while workers keep recording, so `count` can run
    /// ahead of the buckets. A rank computed from the larger `count` may exceed every
    /// cumulative bucket total, silently turning p50 into `max_ns` under load; within the
    /// buckets alone the snapshot is always self-consistent.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = (q * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(if i >= 63 { u64::MAX } else { 1u64 << i });
            }
        }
        unreachable!("rank {rank} ≤ bucket sum {total} is always reached in the scan")
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Largest recorded latency (exact).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean latency (exact: the 128-bit sum never wraps).
    pub fn mean(&self) -> Duration {
        let mean_ns = self.sum_ns.checked_div(u128::from(self.count)).unwrap_or(0);
        Duration::from_nanos(mean_ns.min(u128::from(u64::MAX)) as u64)
    }

    /// Combines two snapshots into one as if every sample had been recorded into a single
    /// histogram: bucket-wise sums, summed counts and sums, max of maxes. Associative and
    /// commutative (pinned by `tests/metrics_properties.rs`), so shard- or worker-local
    /// histograms can be folded in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let bucket = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..len)
                .map(|i| bucket(&self.buckets, i) + bucket(&other.buckets, i))
                .collect(),
            count: self.count + other.count,
            sum_ns: self.sum_ns + other.sum_ns,
            max_ns: self.max_ns.max(other.max_ns),
        }
    }

    /// One-line human-readable summary (`n=… p50=… p99=… max=…`).
    pub fn summary(&self) -> String {
        format!(
            "n={} p50={:.1?} p99={:.1?} max={:.1?}",
            self.count,
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

/// Shared counters of a running [`QueryService`](crate::QueryService).
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Latency of whole batches, recorded by the lane that answered the batch.
    pub batch_latency: LatencyHistogram,
    /// Staleness window of each epoch swap: churn-event arrival → new epoch published.
    /// Queries answered inside this window legitimately see the pre-event graph.
    pub staleness_window: LatencyHistogram,
    /// Oracle reconstruction time of each epoch swap (the rebuild alone, excluding the
    /// publish itself).
    pub rebuild_latency: LatencyHistogram,
    /// Currently served epoch id (0 until the first swap).
    epoch: AtomicU64,
    queries_total: AtomicU64,
    unroutable_total: AtomicU64,
    shard_queries: Vec<AtomicU64>,
    worker_batches: Vec<AtomicU64>,
    sources_total: AtomicU64,
    sources_reused_total: AtomicU64,
    sources_patched_total: AtomicU64,
    sources_rebuilt_total: AtomicU64,
    cuts_recomputed_total: AtomicU64,
    cuts_total: AtomicU64,
    reuse_time_ns: AtomicU64,
    patch_time_ns: AtomicU64,
    rebuild_time_ns: AtomicU64,
}

impl ServiceMetrics {
    /// Creates zeroed metrics for a service with the given shard count and `lanes` batch
    /// counters: one per pool worker, or one for a zero-worker service answering inline.
    pub fn new(shards: usize, lanes: usize) -> Self {
        ServiceMetrics {
            batch_latency: LatencyHistogram::new(),
            staleness_window: LatencyHistogram::new(),
            rebuild_latency: LatencyHistogram::new(),
            epoch: AtomicU64::new(0),
            queries_total: AtomicU64::new(0),
            unroutable_total: AtomicU64::new(0),
            shard_queries: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            worker_batches: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            sources_total: AtomicU64::new(0),
            sources_reused_total: AtomicU64::new(0),
            sources_patched_total: AtomicU64::new(0),
            sources_rebuilt_total: AtomicU64::new(0),
            cuts_recomputed_total: AtomicU64::new(0),
            cuts_total: AtomicU64::new(0),
            reuse_time_ns: AtomicU64::new(0),
            patch_time_ns: AtomicU64::new(0),
            rebuild_time_ns: AtomicU64::new(0),
        }
    }

    /// Records one epoch swap: the new epoch id, the staleness window (event arrival →
    /// publish), the rebuild latency, and the incremental-rebuild work accounting.
    pub fn record_epoch_swap(
        &self,
        epoch: u64,
        staleness: Duration,
        rebuild: Duration,
        stats: &RebuildStats,
    ) {
        // ordering: Relaxed — published epoch id is advisory for dashboards; the
        // authoritative epoch travels through `EpochOracle`'s lock. fetch_max keeps it
        // monotonic under out-of-order swap recording.
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        self.staleness_window.record(staleness);
        self.rebuild_latency.record(rebuild);
        // ordering: Relaxed — independent statistical accumulators; atomicity per
        // counter is all a reporting snapshot relies on.
        let add = |counter: &AtomicU64, v: u64| counter.fetch_add(v, Ordering::Relaxed);
        add(&self.sources_total, stats.sources_total as u64);
        add(&self.sources_reused_total, stats.sources_reused as u64);
        add(&self.sources_patched_total, stats.sources_patched as u64);
        add(&self.sources_rebuilt_total, stats.sources_rebuilt as u64);
        add(&self.cuts_recomputed_total, stats.cuts_recomputed as u64);
        add(&self.cuts_total, stats.cuts_total as u64);
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        add(&self.reuse_time_ns, ns(stats.reuse_time));
        add(&self.patch_time_ns, ns(stats.patch_time));
        add(&self.rebuild_time_ns, ns(stats.rebuild_time));
    }

    /// Flushes one batch's worth of routing counts: `shard_counts[i]` queries were routed to
    /// shard `i`, plus `unroutable` queries whose source no shard serves.
    ///
    /// Workers tally locally and flush once per batch — per-query atomic increments from
    /// every worker would contend on the shared cache lines and serialize the pool (measured
    /// in the `service_throughput` bench).
    pub fn record_batch_queries(&self, shard_counts: &[u64], unroutable: u64) {
        let mut total = unroutable;
        for (counter, &count) in self.shard_queries.iter().zip(shard_counts) {
            if count > 0 {
                // ordering: Relaxed — per-shard tallies; statistical-counter contract.
                counter.fetch_add(count, Ordering::Relaxed);
            }
            total += count;
        }
        // ordering: Relaxed — totals may momentarily disagree with the per-shard split
        // in a snapshot; consumers treat the counters as independent.
        self.queries_total.fetch_add(total, Ordering::Relaxed);
        if unroutable > 0 {
            // ordering: Relaxed — same statistical-counter contract.
            self.unroutable_total.fetch_add(unroutable, Ordering::Relaxed);
        }
    }

    /// Records one completed batch on `lane` (a pool worker, or 0 for an inline service).
    pub fn record_batch(&self, lane: usize, latency: Duration) {
        // ordering: Relaxed — per-lane batch tally; statistical-counter contract.
        self.worker_batches[lane].fetch_add(1, Ordering::Relaxed);
        self.batch_latency.record(latency);
    }

    /// Takes a reporting snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // ordering: Relaxed — reporting loads of independent statistical counters; the
        // snapshot is allowed to tear across them (see `LatencyHistogram::snapshot`).
        let ld = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            batch_latency: self.batch_latency.snapshot(),
            staleness_window: self.staleness_window.snapshot(),
            rebuild_latency: self.rebuild_latency.snapshot(),
            epoch: ld(&self.epoch),
            queries_total: ld(&self.queries_total),
            unroutable_total: ld(&self.unroutable_total),
            shard_queries: self.shard_queries.iter().map(&ld).collect(),
            worker_batches: self.worker_batches.iter().map(&ld).collect(),
            rebuild: RebuildStats {
                sources_total: ld(&self.sources_total) as usize,
                sources_reused: ld(&self.sources_reused_total) as usize,
                sources_patched: ld(&self.sources_patched_total) as usize,
                sources_rebuilt: ld(&self.sources_rebuilt_total) as usize,
                cuts_total: ld(&self.cuts_total) as usize,
                cuts_recomputed: ld(&self.cuts_recomputed_total) as usize,
                reuse_time: Duration::from_nanos(ld(&self.reuse_time_ns)),
                patch_time: Duration::from_nanos(ld(&self.patch_time_ns)),
                rebuild_time: Duration::from_nanos(ld(&self.rebuild_time_ns)),
            },
        }
    }
}

/// A point-in-time copy of [`ServiceMetrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batch latency histogram.
    pub batch_latency: HistogramSnapshot,
    /// Staleness-window histogram of epoch swaps (empty until the first swap).
    pub staleness_window: HistogramSnapshot,
    /// Rebuild-latency histogram of epoch swaps (empty until the first swap).
    pub rebuild_latency: HistogramSnapshot,
    /// Currently served epoch id (0 until the first swap).
    pub epoch: u64,
    /// Total queries answered (including unroutable ones).
    pub queries_total: u64,
    /// Queries whose source belonged to no shard.
    pub unroutable_total: u64,
    /// Queries routed to each shard.
    pub shard_queries: Vec<u64>,
    /// Batches answered on each lane: one per pool worker, or a single lane 0 when the
    /// service answers on the submitting thread.
    pub worker_batches: Vec<u64>,
    /// Incremental-rebuild work accounting, merged over every recorded swap (so
    /// `sources_total`/`cuts_total` are the work a from-scratch rebuild per event would
    /// have done, and the reuse/patch/rebuild split is the measured saving).
    pub rebuild: RebuildStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(5), 3);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(LatencyHistogram::bucket_index(1025), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn quantiles_come_from_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 7, upper bound 128
        }
        h.record(Duration::from_nanos(1 << 20)); // bucket 20
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50(), Duration::from_nanos(128));
        assert_eq!(snap.p99(), Duration::from_nanos(128));
        assert_eq!(snap.quantile(1.0), Duration::from_nanos(1 << 20));
        assert_eq!(snap.max(), Duration::from_nanos(1 << 20));
        assert!(snap.mean() >= Duration::from_nanos(100));
        assert!(snap.summary().contains("n=100"));
    }

    #[test]
    fn quantile_survives_count_running_ahead_of_buckets() {
        // Regression: `snapshot()` loads `count` after the buckets, so a racing `record`
        // can leave `count` larger than the bucket sum. A rank derived from `count` was
        // then never reached and p50 silently fell through to `max_ns`. The rank must come
        // from the buckets themselves.
        let racy = HistogramSnapshot {
            buckets: {
                let mut b = vec![0u64; 64];
                b[7] = 10; // ten samples ≤ 128 ns actually visible in the buckets
                b
            },
            count: 25, // 15 records landed between the two loads
            sum_ns: 10 * 100,
            max_ns: 1 << 30, // and one of them was huge
        };
        assert_eq!(racy.p50(), Duration::from_nanos(128));
        assert_eq!(racy.p99(), Duration::from_nanos(128));
        assert_eq!(racy.quantile(1.0), Duration::from_nanos(128));
    }

    #[test]
    fn epoch_swaps_are_recorded_and_merged() {
        let m = ServiceMetrics::new(1, 1);
        assert_eq!(m.snapshot().epoch, 0);
        let stats = RebuildStats {
            sources_total: 4,
            sources_reused: 1,
            sources_patched: 2,
            sources_rebuilt: 1,
            cuts_total: 40,
            cuts_recomputed: 9,
            reuse_time: Duration::from_nanos(300),
            patch_time: Duration::from_micros(4),
            rebuild_time: Duration::from_micros(20),
        };
        m.record_epoch_swap(1, Duration::from_micros(80), Duration::from_micros(50), &stats);
        m.record_epoch_swap(2, Duration::from_micros(120), Duration::from_micros(60), &stats);
        let snap = m.snapshot();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.staleness_window.count, 2);
        assert_eq!(snap.rebuild_latency.count, 2);
        let mut expected = stats;
        expected.merge(&stats);
        assert_eq!(snap.rebuild, expected);
        assert!(snap.rebuild.strictly_less_than_full());
    }

    #[test]
    fn sum_survives_the_u64_wrap_boundary() {
        // Regression: the old accumulator was a single wrapping u64 of nanoseconds, so two
        // maximal samples wrapped it to u64::MAX - 1 and the mean silently collapsed. The
        // widened accumulator must carry across the boundary and keep the mean exact.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::from_nanos(2));
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        let true_sum = 2 * u128::from(u64::MAX) + 2;
        assert_eq!(snap.sum_ns, true_sum, "sum must not wrap");
        assert!(snap.sum_ns > u128::from(u64::MAX), "the boundary was actually crossed");
        assert_eq!(snap.mean(), Duration::from_nanos((true_sum / 3) as u64));
    }

    #[test]
    fn merge_combines_like_a_single_histogram() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for (h, ns) in [(&a, 100u64), (&a, 5000), (&b, 70), (&b, 1 << 30)] {
            h.record(Duration::from_nanos(ns));
            both.record(Duration::from_nanos(ns));
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        // Merging with an empty snapshot is the identity.
        assert_eq!(merged.merge(&LatencyHistogram::new().snapshot()), merged);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), Duration::ZERO);
        assert_eq!(snap.mean(), Duration::ZERO);
    }

    #[test]
    fn service_metrics_count_per_shard_and_worker() {
        let m = ServiceMetrics::new(2, 3);
        m.record_batch_queries(&[1, 2], 1);
        m.record_batch(2, Duration::from_micros(5));
        let snap = m.snapshot();
        assert_eq!(snap.queries_total, 4);
        assert_eq!(snap.unroutable_total, 1);
        assert_eq!(snap.shard_queries, vec![1, 2]);
        assert_eq!(snap.worker_batches, vec![0, 0, 1]);
        assert_eq!(snap.batch_latency.count, 1);
    }
}
