//! Runtime-adjustable diagnostics for long-lived processes.
//!
//! A collector that runs for months cannot be restarted to chase one
//! misbehaving peer. [`TraceFilter`] is the knob: a default verbosity
//! plus per-target overrides (`reactor`, `session`, `config`, `ingest`,
//! …), all adjustable at runtime through the config store or the control
//! socket. The hot path pays one relaxed atomic load when tracing is
//! effectively off — the maximum enabled level is cached in an
//! `AtomicU8` — and when a target *is* raised, per-target thresholds are
//! answered from an immutable sorted snapshot cached per thread, so 5k
//! sessions tracing one hot target never serialize behind a lock.
//!
//! Output goes to a pluggable sink (stderr by default); tests install a
//! capturing sink to assert what a level change makes visible.
//!
//! This module lives in `kcc_obs` so every crate — core, collector,
//! watch — can emit runtime-filterable trace lines through the same
//! hot-reloadable config.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Verbosity of one trace line (and threshold of one filter target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Nothing.
    Off = 0,
    /// Session teardown, queue overflow, decode failures.
    #[default]
    Error = 1,
    /// Lifecycle: sessions up/down, config commits, rotation.
    Info = 2,
    /// Per-event detail: timers fired, config diffs applied.
    Debug = 3,
    /// Per-message firehose.
    Trace = 4,
}

impl TraceLevel {
    /// Parses the control-socket spelling (`off|error|info|debug|trace`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "error" => Some(TraceLevel::Error),
            "info" => Some(TraceLevel::Info),
            "debug" => Some(TraceLevel::Debug),
            "trace" => Some(TraceLevel::Trace),
            _ => None,
        }
    }

    /// The control-socket spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Error => "error",
            TraceLevel::Info => "info",
            TraceLevel::Debug => "debug",
            TraceLevel::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> TraceLevel {
        match v {
            0 => TraceLevel::Off,
            1 => TraceLevel::Error,
            2 => TraceLevel::Info,
            3 => TraceLevel::Debug,
            _ => TraceLevel::Trace,
        }
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The declarative half: default level + per-target overrides. Lives in
/// the daemon's config so trace verbosity rides the same
/// candidate/commit cycle as every other setting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Level for targets without an override.
    pub default: TraceLevel,
    /// Per-target overrides (target → level).
    pub targets: BTreeMap<String, TraceLevel>,
}

impl TraceConfig {
    fn max_level(&self) -> TraceLevel {
        self.targets.values().copied().max().unwrap_or(TraceLevel::Off).max(self.default)
    }
}

/// Immutable, name-sorted threshold table built once per `apply` and
/// shared read-only with every thread. Lookups binary-search; no lock.
#[derive(Debug, Default)]
struct Snapshot {
    default: u8,
    targets: Vec<(String, u8)>,
}

impl Snapshot {
    fn from_config(config: &TraceConfig) -> Self {
        Snapshot {
            default: config.default as u8,
            // BTreeMap iteration is already name-sorted.
            targets: config.targets.iter().map(|(t, l)| (t.clone(), *l as u8)).collect(),
        }
    }

    fn level_for(&self, target: &str) -> u8 {
        match self.targets.binary_search_by(|(t, _)| t.as_str().cmp(target)) {
            Ok(i) => self.targets[i].1,
            Err(_) => self.default,
        }
    }
}

thread_local! {
    /// Per-thread cache of the last snapshot consulted: (filter id,
    /// generation, snapshot). One slot suffices — processes have one
    /// long-lived filter; a second filter just refreshes on first use.
    static SNAPSHOT_CACHE: RefCell<Option<(u64, u64, Arc<Snapshot>)>> = const { RefCell::new(None) };
}

/// Process-unique filter ids so the thread-local cache can tell filters
/// apart.
static NEXT_FILTER_ID: AtomicU64 = AtomicU64::new(1);

type Sink = Box<dyn Fn(&str, TraceLevel, &str) + Send + Sync>;

/// The runtime half: applies a [`TraceConfig`] and answers
/// [`enabled`]/[`log`] from the hot path.
///
/// [`enabled`]: TraceFilter::enabled
/// [`log`]: TraceFilter::log
pub struct TraceFilter {
    /// Max enabled level across all targets — the lock-free fast path.
    max_level: AtomicU8,
    /// Bumped on every [`apply`](TraceFilter::apply); threads refresh
    /// their cached snapshot when it moves.
    generation: AtomicU64,
    id: u64,
    snapshot: Mutex<Arc<Snapshot>>,
    /// Counts slow-path snapshot refreshes — lets tests pin that warm
    /// `enabled` checks never touch the mutex.
    refreshes: AtomicU64,
    config: Mutex<TraceConfig>,
    sink: Mutex<Option<Sink>>,
}

impl std::fmt::Debug for TraceFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceFilter")
            .field("max_level", &TraceLevel::from_u8(self.max_level.load(Ordering::Relaxed)))
            .finish()
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            max_level: AtomicU8::new(TraceLevel::default() as u8),
            generation: AtomicU64::new(0),
            id: NEXT_FILTER_ID.fetch_add(1, Ordering::Relaxed),
            snapshot: Mutex::new(Arc::new(Snapshot {
                default: TraceLevel::default() as u8,
                targets: Vec::new(),
            })),
            refreshes: AtomicU64::new(0),
            config: Mutex::new(TraceConfig::default()),
            sink: Mutex::new(None),
        }
    }
}

impl TraceFilter {
    /// A filter applying `config`, writing to stderr.
    pub fn new(config: TraceConfig) -> Self {
        let filter = TraceFilter::default();
        filter.apply(config);
        filter
    }

    /// Replaces the active configuration (called on config commit).
    pub fn apply(&self, config: TraceConfig) {
        let max = config.max_level();
        let snapshot = Arc::new(Snapshot::from_config(&config));
        *self.config.lock().unwrap() = config;
        *self.snapshot.lock().unwrap() = snapshot;
        // Publish after the snapshot swap so a thread observing the new
        // generation refreshes into the new table.
        self.generation.fetch_add(1, Ordering::Release);
        self.max_level.store(max as u8, Ordering::Relaxed);
    }

    /// A copy of the active configuration.
    pub fn config(&self) -> TraceConfig {
        self.config.lock().unwrap().clone()
    }

    /// Whether a line at `level` for `target` would be emitted.
    ///
    /// One relaxed load when the level is above every configured
    /// threshold. When some target is raised, the per-target threshold
    /// comes from a thread-local cached snapshot — no lock is taken
    /// unless the configuration changed since this thread last looked.
    pub fn enabled(&self, target: &str, level: TraceLevel) -> bool {
        if level as u8 > self.max_level.load(Ordering::Relaxed) {
            return false;
        }
        let generation = self.generation.load(Ordering::Acquire);
        SNAPSHOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, cached_generation, snapshot)) = &*cache {
                if *id == self.id && *cached_generation == generation {
                    return level as u8 <= snapshot.level_for(target);
                }
            }
            self.refreshes.fetch_add(1, Ordering::Relaxed);
            let snapshot = Arc::clone(&self.snapshot.lock().unwrap());
            let enabled = level as u8 <= snapshot.level_for(target);
            *cache = Some((self.id, generation, snapshot));
            enabled
        })
    }

    /// Emits one line if enabled. The closure defers formatting cost to
    /// the (rare) enabled case.
    pub fn log(&self, target: &str, level: TraceLevel, line: impl FnOnce() -> String) {
        if !self.enabled(target, level) {
            return;
        }
        let line = line();
        let sink = self.sink.lock().unwrap();
        match &*sink {
            Some(sink) => sink(target, level, &line),
            None => eprintln!("[{level}] {target}: {line}"),
        }
    }

    /// Redirects output (tests capture lines instead of spamming
    /// stderr).
    pub fn set_sink(&self, sink: impl Fn(&str, TraceLevel, &str) + Send + Sync + 'static) {
        *self.sink.lock().unwrap() = Some(Box::new(sink));
    }

    #[cfg(test)]
    fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn default_filter_passes_errors_only() {
        let f = TraceFilter::default();
        assert!(f.enabled("reactor", TraceLevel::Error));
        assert!(!f.enabled("reactor", TraceLevel::Info));
        assert!(!f.enabled("session", TraceLevel::Trace));
    }

    #[test]
    fn per_target_override_beats_default() {
        let mut cfg = TraceConfig::default();
        cfg.targets.insert("session".into(), TraceLevel::Debug);
        let f = TraceFilter::new(cfg);
        assert!(f.enabled("session", TraceLevel::Debug));
        assert!(!f.enabled("reactor", TraceLevel::Debug), "default still error-only");
    }

    #[test]
    fn runtime_apply_changes_visibility_without_restart() {
        let f = TraceFilter::default();
        let lines: Arc<Mutex<Vec<String>>> = Arc::default();
        let captured = Arc::clone(&lines);
        f.set_sink(move |target, level, line| {
            captured.lock().unwrap().push(format!("{level} {target} {line}"));
        });

        f.log("ingest", TraceLevel::Debug, || "invisible".into());
        f.apply(TraceConfig {
            default: TraceLevel::Error,
            targets: [("ingest".to_string(), TraceLevel::Debug)].into(),
        });
        f.log("ingest", TraceLevel::Debug, || "visible".into());
        f.apply(TraceConfig::default());
        f.log("ingest", TraceLevel::Debug, || "invisible again".into());

        assert_eq!(*lines.lock().unwrap(), vec!["debug ingest visible".to_string()]);
    }

    #[test]
    fn disabled_level_never_runs_the_formatter() {
        let f =
            TraceFilter::new(TraceConfig { default: TraceLevel::Off, targets: BTreeMap::new() });
        f.log("reactor", TraceLevel::Error, || panic!("formatted while disabled"));
    }

    #[test]
    fn level_parse_round_trips() {
        for level in [
            TraceLevel::Off,
            TraceLevel::Error,
            TraceLevel::Info,
            TraceLevel::Debug,
            TraceLevel::Trace,
        ] {
            assert_eq!(TraceLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn warm_enabled_checks_never_take_the_lock() {
        let f = TraceFilter::new(TraceConfig {
            default: TraceLevel::Error,
            targets: [("session".to_string(), TraceLevel::Trace)].into(),
        });
        // First check on this thread populates the cache (≤1 refresh;
        // another test on this thread may have warmed a different
        // filter, forcing exactly one here).
        f.enabled("session", TraceLevel::Trace);
        let after_warmup = f.refreshes();
        for _ in 0..10_000 {
            assert!(f.enabled("session", TraceLevel::Trace));
            assert!(!f.enabled("reactor", TraceLevel::Debug));
        }
        assert_eq!(f.refreshes(), after_warmup, "warm checks must not touch the mutex");

        // A config change invalidates exactly once per thread. (The
        // Trace-level check rides the max_level fast path — no refresh.)
        f.apply(TraceConfig {
            default: TraceLevel::Error,
            targets: [("session".to_string(), TraceLevel::Debug)].into(),
        });
        assert!(!f.enabled("session", TraceLevel::Trace));
        assert_eq!(f.refreshes(), after_warmup, "max_level fast path must not refresh");
        for _ in 0..1000 {
            assert!(f.enabled("session", TraceLevel::Debug));
        }
        assert_eq!(f.refreshes(), after_warmup + 1);
    }

    #[test]
    fn raised_target_is_consistent_across_threads() {
        let f = Arc::new(TraceFilter::new(TraceConfig {
            default: TraceLevel::Error,
            targets: [("ingest".to_string(), TraceLevel::Debug)].into(),
        }));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let f = Arc::clone(&f);
                scope.spawn(move || {
                    for _ in 0..5000 {
                        assert!(f.enabled("ingest", TraceLevel::Debug));
                        assert!(!f.enabled("ingest", TraceLevel::Trace));
                        assert!(!f.enabled("other", TraceLevel::Debug));
                    }
                });
            }
        });
        // Each thread refreshed at most once (plus the construction
        // thread's warmup).
        assert!(f.refreshes() <= 5, "refreshes = {}", f.refreshes());
    }
}
