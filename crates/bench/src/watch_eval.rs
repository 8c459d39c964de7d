//! Scoring the CommunityWatch detector against the labeled fault library.
//!
//! [`kcc_bgp_sim::fault_library`] provides four scripted routing
//! incidents with ground-truth labels; this module replays each one
//! through [`kcc_core::watch::WatchSink`] and scores the outcome:
//! **pass** means the labeled alert kind fired and *no other kind did*
//! (zero false-positive kinds).
//!
//! Phase *k* of a scenario becomes detection window *k*: capture
//! timestamps are remapped onto a fixed [`EVAL_WINDOW_US`] grid
//! (`k * window + offset-within-phase`, clamped into the window), so
//! simulator quiescence and MRAI timing never leak into the detection
//! clock. The clean baseline phases train the [`CommunityProfiler`] —
//! exactly the "train on yesterday, detect on today" split the batch
//! detector uses — and double as the watch service's learning windows.

use std::sync::Arc;

use kcc_bgp_sim::scenario::{run, ScenarioOutcome};
use kcc_bgp_sim::{fault_library, FaultKind, FaultScenario};
use kcc_collector::{SessionKey, UpdateArchive};
use kcc_core::{
    Alert, ArchiveSource, CommunityProfiler, PipelineBuilder, WatchConfig, WatchReport, WatchSink,
};

/// The eval grid's window length: one scenario phase per window, roomy
/// enough that MRAI-delayed intra-phase events stay in their window.
pub const EVAL_WINDOW_US: u64 = 60_000_000;

/// How one fault scenario scored against the detector.
#[derive(Debug)]
pub struct EvalResult {
    /// Scenario name (`fault/…`).
    pub name: String,
    /// The injected — and therefore expected — fault.
    pub kind: FaultKind,
    /// The watch run's full report (alerts in canonical order).
    pub report: WatchReport,
    /// True iff the labeled kind fired and no other kind did.
    pub pass: bool,
}

impl EvalResult {
    /// Distinct alert-kind labels the run raised, in label order.
    pub fn detected_kinds(&self) -> Vec<&'static str> {
        self.report.kind_counts().into_iter().map(|(k, _)| k).collect()
    }
}

/// Converts a range of a scenario's phases into one analysis archive:
/// collector *i* (in [`FaultScenario::collectors`] order) becomes
/// `rrc0i`, sessions are keyed by the sending peer's AS and router IP
/// (the `adapter` convention), and each capture's timestamp is remapped
/// onto the eval window grid — phase *k* lands in window *k*.
pub fn phase_archive(
    outcome: &ScenarioOutcome,
    scenario: &FaultScenario,
    phases: std::ops::Range<usize>,
) -> UpdateArchive {
    let mut archive = UpdateArchive::new(0);
    for k in phases {
        let obs = &outcome.phases[k];
        let phase_start = obs.started.as_micros();
        for (i, collector) in scenario.collectors.iter().enumerate() {
            let name = format!("rrc{i:02}");
            let Some(entries) = obs.collected.get(collector) else { continue };
            for entry in entries {
                let peer_ip = outcome
                    .net
                    .router(entry.from)
                    .map(|r| r.ip)
                    .unwrap_or(std::net::IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
                let key = SessionKey::new(&name, entry.from.asn, peer_ip);
                let mut update = entry.to_route_update();
                let offset = update.time_us.saturating_sub(phase_start).min(EVAL_WINDOW_US - 1);
                update.time_us = (k as u64) * EVAL_WINDOW_US + offset;
                archive.record(&key, update);
            }
        }
    }
    archive
}

/// The watch configuration the eval runs with: the eval window grid,
/// everything else at defaults.
pub fn eval_config() -> WatchConfig {
    WatchConfig { window_us: EVAL_WINDOW_US, ..WatchConfig::default() }
}

/// Runs one labeled scenario end to end: simulate, split
/// baseline/detection, train the profiler on the baseline, stream the
/// whole timeline through the watch sink, score the alert kinds.
pub fn eval_scenario(scenario: &FaultScenario) -> EvalResult {
    let outcome = run(&scenario.spec);
    let train = phase_archive(&outcome, scenario, 0..scenario.fault_phase);
    let full = phase_archive(&outcome, scenario, 0..scenario.spec.phases.len());

    let mut profiler = CommunityProfiler::new();
    profiler.train(&train);

    let sink = WatchSink::new(eval_config()).with_profile(Arc::new(profiler));
    let report = PipelineBuilder::new(ArchiveSource::new(&full))
        .sink(sink)
        .run()
        .expect("archive sources cannot fail")
        .sink
        .finish();

    let detected: Vec<&'static str> = report.kind_counts().into_iter().map(|(k, _)| k).collect();
    let pass = detected == [scenario.kind.label()];
    EvalResult { name: scenario.spec.name.clone(), kind: scenario.kind, report, pass }
}

/// Scores the whole fault library, in library order.
pub fn eval_library() -> Vec<EvalResult> {
    fault_library().iter().map(eval_scenario).collect()
}

/// The alert lines of a report — the stable serialization the
/// determinism tests compare.
pub fn alert_lines(report: &WatchReport) -> Vec<String> {
    report.alerts.iter().map(Alert::to_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_detects_every_fault_with_no_false_kinds() {
        let results = eval_library();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(
                r.pass,
                "{}: expected exactly [{}], got {:?}\nalerts:\n{}",
                r.name,
                r.kind.label(),
                r.detected_kinds(),
                alert_lines(&r.report).join("\n"),
            );
            assert!(!r.report.alerts.is_empty());
        }
    }

    #[test]
    fn baseline_portion_alone_raises_no_alerts() {
        for scenario in &fault_library() {
            let outcome = run(&scenario.spec);
            let train = phase_archive(&outcome, scenario, 0..scenario.fault_phase);
            let mut profiler = CommunityProfiler::new();
            profiler.train(&train);
            let sink = WatchSink::new(eval_config()).with_profile(Arc::new(profiler));
            let report = PipelineBuilder::new(ArchiveSource::new(&train))
                .sink(sink)
                .run()
                .expect("archive sources cannot fail")
                .sink
                .finish();
            assert!(
                report.alerts.is_empty(),
                "{}: clean baseline must be alert-free, got:\n{}",
                scenario.spec.name,
                alert_lines(&report).join("\n"),
            );
        }
    }

    #[test]
    fn eval_is_deterministic() {
        let a = eval_library();
        let b = eval_library();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(alert_lines(&x.report), alert_lines(&y.report), "{}", x.name);
            assert_eq!(x.pass, y.pass, "{}", x.name);
        }
    }

    #[test]
    fn phase_archive_lands_each_phase_in_its_window() {
        let lib = fault_library();
        let scenario = &lib[0];
        let outcome = run(&scenario.spec);
        let full = phase_archive(&outcome, scenario, 0..scenario.spec.phases.len());
        assert!(full.update_count() > 0);
        for (_, rec) in full.sessions() {
            for u in &rec.updates {
                let w = u.time_us / EVAL_WINDOW_US;
                assert!((w as usize) < scenario.spec.phases.len());
            }
        }
        // The fault phase itself must have produced captures somewhere.
        let fault_window = scenario.fault_phase as u64;
        let in_fault_window = full
            .all_updates()
            .into_iter()
            .filter(|(_, u)| u.time_us / EVAL_WINDOW_US == fault_window)
            .count();
        assert!(in_fault_window > 0, "fault phase produced no captures");
    }
}
