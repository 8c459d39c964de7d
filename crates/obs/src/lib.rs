//! Observability layer: metrics registry, Prometheus exposition, and the
//! runtime trace filter.
//!
//! A collector daemon that holds thousands of sessions for months needs
//! to answer operational questions — updates/s per collector, where
//! pipeline time goes, which sessions flap, how many alerts fired by
//! kind — without restarting or attaching a debugger. This crate is the
//! cross-cutting layer every other crate reports into:
//!
//! - [`Registry`] hands out cheap [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handles. Registration takes a lock once; the handles themselves are
//!   `Arc`-shared relaxed atomics, so the hot path is lock-free and
//!   allocation-free.
//! - [`Registry::render`] emits the whole registry in Prometheus text
//!   format, deterministically name- and label-sorted, so two registries
//!   fed the same data render byte-identically regardless of
//!   registration order or thread interleaving.
//! - [`Histogram`] uses fixed log2 buckets (no configuration, no
//!   allocation); [`HistogramSnapshot`] is the plain mergeable form used
//!   by per-shard pipeline profiles.
//! - [`trace`] hosts the per-target, hot-reloadable [`TraceFilter`], so
//!   any crate can emit runtime-filtered diagnostics.
//!
//! Scrape points: the `kcc daemon` control socket answers a `metrics`
//! command with [`Registry::render`] output, and `kcc report` and
//! `kcc watch` write the same text to `--metrics-out FILE` on completion.

pub mod trace;

pub use trace::{TraceConfig, TraceFilter, TraceLevel};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// `i` (1..=64) holds values in `[2^(i-1), 2^i)`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for an observed value (log2 with 0 in its own bucket).
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`, i.e. the Prometheus `le` value.
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Monotonically increasing counter (relaxed atomic; lock-free).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (relaxed atomic; lock-free).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (use a negative value to subtract).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log2 histogram (relaxed atomics; lock-free,
/// allocation-free to observe).
///
/// Values land in one of `HISTOGRAM_BUCKETS` (65) power-of-two buckets, so
/// there is nothing to configure and observing costs two relaxed
/// `fetch_add`s. Suited to latency-style distributions where a factor-2
/// resolution is enough.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds a plain snapshot (e.g. one shard's profile) into this
    /// histogram.
    pub fn record(&self, snap: &HistogramSnapshot) {
        for (bucket, count) in self.buckets.iter().zip(snap.buckets) {
            if count != 0 {
                bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A plain copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for (dst, src) in snap.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        snap.sum = self.sum.load(Ordering::Relaxed);
        snap
    }
}

/// Plain (non-atomic) histogram with the same buckets as [`Histogram`].
///
/// This is the single-threaded form used on hot paths that are already
/// partitioned — each per-collector pipeline records into its own
/// snapshot and the merge step adds them together. Addition commutes, so
/// the merged result is independent of thread count and merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        // Wrapping to match the atomic form, where fetch_add wraps.
        self.sum = self.sum.wrapping_add(value);
    }

    /// Adds another snapshot's observations to this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets) {
            *dst += src;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// The kind of a metric family (one `# TYPE` line per family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    /// Series keyed by the sorted label set, so exposition order is
    /// independent of registration order.
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// Handle-based metrics registry with deterministic Prometheus text
/// exposition.
///
/// Registration (cold path) takes a mutex and returns an `Arc` handle;
/// updating a metric through its handle (hot path) is a relaxed atomic
/// op. Registering the same name + label set again returns the existing
/// handle, so independent components can share a series without
/// coordination. Registering the same name with a different metric kind
/// panics — a family has exactly one type.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Registers (or finds) a counter with the given labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, labels, Kind::Counter, || Handle::Counter(Arc::default())) {
            Handle::Counter(c) => c,
            _ => unreachable!("registry returned mismatched handle kind"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Registers (or finds) a gauge with the given labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, labels, Kind::Gauge, || Handle::Gauge(Arc::default())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("registry returned mismatched handle kind"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Registers (or finds) a histogram with the given labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, labels, Kind::Histogram, || Handle::Histogram(Arc::default())) {
            Handle::Histogram(h) => h,
            _ => unreachable!("registry returned mismatched handle kind"),
        }
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (key, _) in labels {
            assert!(valid_name(key), "invalid label name {key:?} on {name}");
        }
        let mut key: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        key.sort();

        let mut inner = self.inner.lock().unwrap();
        let family = inner
            .entry(name.to_string())
            .or_insert_with(|| Family { kind, series: BTreeMap::new() });
        assert!(
            family.kind == kind,
            "metric {name} already registered as {}, requested {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// The value of a registered counter (0 when absent) — a test and
    /// assertion convenience; production readers use the handles.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let mut key: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        key.sort();
        let inner = self.inner.lock().unwrap();
        match inner.get(name).and_then(|f| f.series.get(&key)) {
            Some(Handle::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format.
    ///
    /// Output is deterministic: families are name-sorted, series within
    /// a family are label-sorted, and histogram buckets are emitted
    /// cumulatively up to the highest non-empty bucket plus `+Inf`. Two
    /// registries holding the same data render byte-identically no
    /// matter the order metrics were registered or updated in.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, family) in inner.iter() {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => {
                        render_series(&mut out, name, labels, &[], &c.get().to_string());
                    }
                    Handle::Gauge(g) => {
                        render_series(&mut out, name, labels, &[], &g.get().to_string());
                    }
                    Handle::Histogram(h) => render_histogram(&mut out, name, labels, &h.snapshot()),
                }
            }
        }
        out
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Writes one sample line: `name{labels,extra} value`.
fn render_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let highest = (0..HISTOGRAM_BUCKETS).rev().find(|&i| snap.buckets[i] != 0);
    let mut cumulative = 0u64;
    if let Some(highest) = highest {
        for i in 0..=highest.min(HISTOGRAM_BUCKETS - 2) {
            cumulative += snap.buckets[i];
            let le = bucket_upper_bound(i).to_string();
            render_series(out, &bucket_name, labels, &[("le", &le)], &cumulative.to_string());
        }
    }
    let count = snap.count();
    render_series(out, &bucket_name, labels, &[("le", "+Inf")], &count.to_string());
    render_series(out, &format!("{name}_sum"), labels, &[], &snap.sum.to_string());
    render_series(out, &format!("{name}_count"), labels, &[], &count.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("updates_total");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = reg.gauge("queue_depth");
        g.set(5);
        g.add(-2);
        g.set_max(1);
        assert_eq!(g.get(), 3);
        g.set_max(7);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.counter_value("updates_total", &[]), 10);
    }

    #[test]
    fn re_registration_shares_the_handle() {
        let reg = Registry::new();
        let a = reg.counter_with("alerts_total", &[("kind", "prefix-hijack")]);
        let b = reg.counter_with("alerts_total", &[("kind", "prefix-hijack")]);
        a.inc();
        b.inc();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.counter_with("m", &[("a", "1"), ("b", "2")]);
        let b = reg.counter_with("m", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("m");
        reg.gauge("m");
    }

    #[test]
    fn render_is_sorted_and_prometheus_shaped() {
        let reg = Registry::new();
        reg.gauge("z_gauge").set(-4);
        reg.counter_with("a_total", &[("collector", "rrc01")]).add(2);
        reg.counter_with("a_total", &[("collector", "rrc00")]).add(1);
        let h = reg.histogram("lat_nanos");
        h.observe(0);
        h.observe(1);
        h.observe(5);
        assert_eq!(
            reg.render(),
            "# TYPE a_total counter\n\
             a_total{collector=\"rrc00\"} 1\n\
             a_total{collector=\"rrc01\"} 2\n\
             # TYPE lat_nanos histogram\n\
             lat_nanos_bucket{le=\"0\"} 1\n\
             lat_nanos_bucket{le=\"1\"} 2\n\
             lat_nanos_bucket{le=\"3\"} 2\n\
             lat_nanos_bucket{le=\"7\"} 3\n\
             lat_nanos_bucket{le=\"+Inf\"} 3\n\
             lat_nanos_sum 6\n\
             lat_nanos_count 3\n\
             # TYPE z_gauge gauge\n\
             z_gauge -4\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("m", &[("path", "a\"b\\c\nd")]).inc();
        assert_eq!(reg.render(), "# TYPE m counter\nm{path=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn histogram_snapshot_merge_commutes() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        for v in [1u64, 3, 900, 1 << 40] {
            a.observe(v);
        }
        for v in [0u64, 2, 2, 1 << 20] {
            b.observe(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.sum(), a.sum().wrapping_add(b.sum()));
    }

    #[test]
    fn atomic_histogram_matches_snapshot_path() {
        let h = Histogram::default();
        let mut local = HistogramSnapshot::default();
        for v in [0u64, 1, 7, 1 << 33, u64::MAX] {
            h.observe(v);
            local.observe(v);
        }
        assert_eq!(h.snapshot(), local);
        let h2 = Histogram::default();
        h2.record(&local);
        assert_eq!(h2.snapshot(), local);
        assert_eq!(h2.count(), 5);
    }
}
