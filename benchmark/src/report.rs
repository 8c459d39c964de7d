//! Metric catalogue and result reporting.
//!
//! The catalogue below is the one list of metric names; `BENCHMARK.json`
//! repeats it for the driver and a package test keeps the two equal. A
//! run's last stdout line is the machine-readable result; everything a
//! person reads is printed before it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::quote;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The gated metrics: each is reported by every workload and is never 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_bytes", "bytes", Lower, 0.25),
    e2e("peak_state_bytes", "bytes", Lower, 0.10),
];

/// The ungated metrics of a traced run; a layer idle on a workload
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end in the issue, ungated here: they exist on one workload
    // only (or must be 0), and a gated metric must exist on all.
    layer("events_per_s", "1/s", Higher),
    layer("ingest_latency_p50_us", "us", Lower),
    layer("failed_share", "share", Lower),
    layer("tracegen.gen_ns_per_update", "ns", Lower),
    layer("tracegen.updates", "count", Higher),
    layer("mrt.write_ns_per_record", "ns", Lower),
    layer("mrt.frame_ns_per_record", "ns", Lower),
    layer("mrt.decode_ns_per_update", "ns", Lower),
    layer("mrt.bytes_per_update", "bytes", Lower),
    layer("bgp-wire.encode_ns_per_update", "ns", Lower),
    layer("bgp-wire.bytes_per_update", "bytes", Lower),
    layer("bgp-wire.decode_ns_per_update", "ns", Lower),
    layer("collector.source_ns_per_update", "ns", Lower),
    layer("collector.handoff_ns_per_item", "ns", Lower),
    layer("peer.frame_ns_per_msg", "ns", Lower),
    layer("peer.writeq_ns_per_msg", "ns", Lower),
    layer("peer.ingest_only_updates_per_s", "1/s", Higher),
    layer("peer.handshake_ms_per_session", "ms", Lower),
    layer("peer.ingest_latency_p99_us", "us", Lower),
    layer("peer.ingest_latency_tail_us", "us", Lower),
    layer("peer.ingest_latency_tail_pct", "%", Higher),
    layer("peer.ingest_latency_samples", "count", Higher),
    layer("peer.sender_late_p99_us", "us", Lower),
    layer("core.clean_ns_per_update", "ns", Lower),
    layer("core.clean_drop_share", "share", Lower),
    layer("core.classify_ns_per_update", "ns", Lower),
    layer("core.pipeline_self_ns_per_update", "ns", Lower),
    layer("core.sink_overview_ns_per_update", "ns", Lower),
    layer("core.sink_counts_ns_per_update", "ns", Lower),
    layer("core.sink_watch_ns_per_update", "ns", Lower),
    layer("core.sink_watch_finish_ms", "ms", Lower),
    layer("core.streams", "count", Lower),
    layer("core.state_bytes_per_stream", "bytes", Lower),
    layer("core.watch_alerts", "count", Lower),
    layer("bgp-types.intern_ns_per_acquire", "ns", Lower),
    layer("bgp-types.intern_hit_ratio", "share", Higher),
    layer("topology.generate_s", "s", Lower),
    layer("topology.edges", "count", Lower),
    layer("bgp-sim.compile_s", "s", Lower),
    layer("bgp-sim.converge_ns_per_event", "ns", Lower),
    layer("bgp-sim.flap_ns_per_event", "ns", Lower),
    layer("bgp-sim.cpu_ns_per_event", "ns", Lower),
    layer("bgp-sim.events", "count", Lower),
    layer("bgp-sim.collector_msgs", "count", Lower),
    layer("bgp-sim.interned_attr_bytes", "bytes", Lower),
    layer("bgp-sim.rss_bytes_per_as", "bytes", Lower),
    layer("gap.live_ns_per_update", "ns", Lower),
    layer("gap.offline_ns_per_update", "ns", Lower),
    layer("gap.encode_ns_per_update", "ns", Lower),
    layer("gap.frame_ns_per_update", "ns", Lower),
    layer("gap.decode_ns_per_update", "ns", Lower),
    layer("gap.handoff_ns_per_update", "ns", Lower),
    layer("gap.remainder_ns_per_update", "ns", Lower),
    layer("harness.pass_spread_pct", "%", Lower),
    layer("harness.passes", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.residual_pct", "%", Lower),
];

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (updates sent, passes checked, sessions
    /// dialled, …).
    pub attempted: u64,
    /// Operations that failed: undelivered or misordered updates, decode
    /// errors, passes that disagree with the reference, sessions that
    /// never established.
    pub failed: u64,
    /// Measured values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines for the human report (inputs, counts, statements such as
    /// "traffic crossed loopback").
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `value` under the catalogue name `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "{name} is not in the catalogue");
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Adds `n` attempted operations of which `bad` failed, noting why.
    pub fn check(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.notes.push(format!("FAILED {bad}/{n}: {what}"));
        }
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A recorded value (0 when the workload did not measure it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The machine-readable result: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn result_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, d) in list.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(d.name),
                self.get(d.name),
                quote(d.unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// The human report: every measured metric by name with its unit.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("== {workload} ==\n");
        for line in &self.notes {
            let _ = writeln!(out, "   {line}");
        }
        let _ = writeln!(
            out,
            "   {:<38} {:>16} {}",
            "failed_share",
            format!("{:.6}", self.failed_share()),
            format_args!("share ({} of {} operations)", self.failed, self.attempted)
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let Some(v) = self.values.get(d.name) else { continue };
            if d.name == "failed_share" {
                continue;
            }
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  [gated: may worsen {:.0}%]", b * 100.0));
            let _ = writeln!(out, "   {:<38} {:>16} {}{bound}", d.name, human(*v), d.unit);
        }
        out
    }
}

/// A value with enough digits to read and no more.
fn human(v: f64) -> String {
    let a = v.abs();
    if a >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(10, 0, "passes");
        o.set("setup_s", 0.5);
        o.set("harness.passes", 9.0);
        for traced in [false, true] {
            let v = Json::parse(&o.result_line(traced)).unwrap();
            let Json::Obj(top) = &v else { panic!("not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(m)) = v.get("metrics") else { panic!("no metrics") };
            let want = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(m.len(), want.len());
            assert!(want.iter().all(|d| m.contains_key(d.name)));
        }
        o.check(1, 1, "one bad pass");
        assert_eq!(
            Json::parse(&o.result_line(false)).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
