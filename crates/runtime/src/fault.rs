//! Deterministic fault injection: the chaos layer that makes every
//! recovery path in the continuous-ingest loop a *reproducible test*
//! instead of a flake.
//!
//! Production code threads named **fault points** (seams) through its
//! failure-prone operations — `persist.write`, `persist.sync_dir`,
//! `store.publish`, `store.load`, `corpus.poll`, `retrain` — by calling
//! [`check`]/[`check_io`]/[`check_stage`] with the point name. With no
//! plan installed the seam is one relaxed atomic load (free in
//! production). With a plan installed (usually from the `ETAP_FAULTS`
//! environment variable) each hit of a point consults that point's
//! *own* seeded PRNG stream and may inject a fault.
//!
//! ## Spec grammar
//!
//! ```text
//! spec  := entry (',' entry)*
//! entry := point '=' kind ('@' rate)?
//! kind  := 'io' | 'panic' | 'delay:' DURATION     ; DURATION: 250ms | 2s | 40  (bare = ms)
//! rate  := FLOAT                                  ; per-hit probability in [0,1]
//!        | 'once'                                 ; inject on the first hit only
//!        | 'always'                               ; every hit (the default)
//! ```
//!
//! Example: `persist.write=io@0.05,corpus.poll=delay:200ms@0.1,retrain=panic@once`
//!
//! ## Determinism contract
//!
//! Each point draws from `Rng::stream(seed, fnv1a64(point))`, advanced
//! once per hit of *that point* under a per-point lock. The decision
//! sequence at a point therefore depends only on the seed and the
//! number of prior hits of the same point — never on how hits of
//! *different* points interleave across threads. A single-threaded
//! driver (the watch loop) additionally gets a fully deterministic
//! global [`trace`](FaultRegistry::trace): same spec + same seed ⇒ the
//! identical injection sequence, replayable forever.

use crate::hash::fnv1a64;
use crate::rng::Rng;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Environment variable holding the fault spec.
pub const ENV_SPEC: &str = "ETAP_FAULTS";
/// Environment variable holding the injection seed (default
/// [`DEFAULT_SEED`]).
pub const ENV_SEED: &str = "ETAP_FAULT_SEED";
/// Seed used when `ETAP_FAULT_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xFA_017;

/// What a triggered fault does to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with an injected `io::Error`.
    Io,
    /// Stall the operation (slow fetch / hung disk), then let it proceed.
    Delay(Duration),
    /// Panic at the seam (a crashed stage).
    Panic,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io => write!(f, "io"),
            Self::Delay(d) => write!(f, "delay:{}ms", d.as_millis()),
            Self::Panic => write!(f, "panic"),
        }
    }
}

/// How often a point's fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rate {
    Always,
    Once,
    Prob(f64),
}

/// One parsed `point=kind@rate` entry.
#[derive(Debug, Clone)]
struct Arm {
    point: String,
    kind: FaultKind,
    rate: Rate,
}

/// A parsed fault spec plus the seed that makes it deterministic.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    arms: Vec<Arm>,
}

impl FaultPlan {
    /// Parse a spec string (see the module grammar) with an explicit
    /// seed.
    ///
    /// # Errors
    /// A human-readable description of the first malformed entry.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut arms = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (point, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?}: expected point=kind[@rate]"))?;
            let point = point.trim();
            if point.is_empty() {
                return Err(format!("fault entry {entry:?}: empty point name"));
            }
            let (kind_text, rate_text) = match action.split_once('@') {
                Some((k, r)) => (k.trim(), Some(r.trim())),
                None => (action.trim(), None),
            };
            let kind = parse_kind(kind_text)
                .ok_or_else(|| format!("fault entry {entry:?}: unknown kind {kind_text:?}"))?;
            let rate = match rate_text {
                None | Some("always") => Rate::Always,
                Some("once") => Rate::Once,
                Some(p) => {
                    let p: f64 = p
                        .parse()
                        .map_err(|_| format!("fault entry {entry:?}: bad rate {p:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault entry {entry:?}: rate {p} outside [0, 1]"));
                    }
                    Rate::Prob(p)
                }
            };
            if arms.iter().any(|a: &Arm| a.point == point) {
                return Err(format!("fault point {point:?} specified twice"));
            }
            arms.push(Arm {
                point: point.to_string(),
                kind,
                rate,
            });
        }
        Ok(Self { seed, arms })
    }

    /// Read `ETAP_FAULTS` / `ETAP_FAULT_SEED`. `Ok(None)` when unset or
    /// empty.
    ///
    /// # Errors
    /// Propagates spec parse errors (a typo'd chaos spec should abort
    /// loudly, not silently run without faults).
    pub fn from_env() -> Result<Option<Self>, String> {
        let spec = match std::env::var(ENV_SPEC) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Ok(None),
        };
        let seed = std::env::var(ENV_SEED)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Self::parse(&spec, seed).map(Some)
    }

    /// The plan's injection seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }
}

fn parse_kind(text: &str) -> Option<FaultKind> {
    match text {
        "io" => Some(FaultKind::Io),
        "panic" => Some(FaultKind::Panic),
        other => {
            let spec = other.strip_prefix("delay:")?;
            parse_duration(spec).map(FaultKind::Delay)
        }
    }
}

fn parse_duration(text: &str) -> Option<Duration> {
    let text = text.trim();
    if let Some(ms) = text.strip_suffix("ms") {
        return ms.trim().parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(s) = text.strip_suffix('s') {
        return s.trim().parse::<u64>().ok().map(Duration::from_secs);
    }
    text.parse::<u64>().ok().map(Duration::from_millis)
}

/// One injected fault, as recorded in the registry trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Global injection sequence number (0-based).
    pub seq: u64,
    /// Which hit of this point it was (1 = the point's first hit).
    pub hit: u64,
    /// The fault point.
    pub point: String,
    /// What was injected (Display form of [`FaultKind`]).
    pub kind: String,
}

/// Per-point mutable decision state.
struct PointState {
    kind: FaultKind,
    rate: Rate,
    rng: Rng,
    hits: u64,
    fired: bool,
}

/// The live decision engine built from a [`FaultPlan`].
pub struct FaultRegistry {
    seed: u64,
    points: HashMap<String, Mutex<PointState>>,
    injected: AtomicU64,
    seq: AtomicU64,
    trace: Mutex<Vec<TraceEntry>>,
}

impl fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("points", &self.points.keys().collect::<Vec<_>>())
            .field("injected", &self.injected_total())
            .finish()
    }
}

impl FaultRegistry {
    /// Build a registry from a plan: each point gets its own stream of
    /// the plan's seed.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let points = plan
            .arms
            .iter()
            .map(|arm| {
                (
                    arm.point.clone(),
                    Mutex::new(PointState {
                        kind: arm.kind,
                        rate: arm.rate,
                        rng: Rng::stream(plan.seed, fnv1a64(arm.point.as_bytes())),
                        hits: 0,
                        fired: false,
                    }),
                )
            })
            .collect();
        Self {
            seed: plan.seed,
            points,
            injected: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The plan seed this registry's decision streams derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether the current hit of `point` injects a fault.
    /// Advances the point's deterministic decision stream.
    #[must_use]
    pub fn decide(&self, point: &str) -> Option<FaultKind> {
        let state = self.points.get(point)?;
        let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
        state.hits += 1;
        let inject = match state.rate {
            Rate::Always => true,
            Rate::Once => {
                if state.fired {
                    false
                } else {
                    state.fired = true;
                    true
                }
            }
            // Every probabilistic hit consumes exactly one draw, fired
            // or not — that is what keeps the sequence replayable.
            Rate::Prob(p) => state.rng.gen_bool(p),
        };
        if !inject {
            return None;
        }
        let kind = state.kind;
        let hit = state.hits;
        drop(state);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TraceEntry {
                seq,
                hit,
                point: point.to_string(),
                kind: kind.to_string(),
            });
        Some(kind)
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The injection trace so far (clone; cheap at chaos-test scale).
    #[must_use]
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Fast-path gate: seams pay one relaxed load when no plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<FaultRegistry>>> = RwLock::new(None);

/// Install a plan globally; every seam in the process now consults it.
/// Replaces any previous registry. Returns the live registry for trace
/// and counter inspection.
pub fn install(plan: &FaultPlan) -> Arc<FaultRegistry> {
    let registry = Arc::new(FaultRegistry::new(plan));
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&registry));
    ENABLED.store(!plan.is_empty(), Ordering::SeqCst);
    registry
}

/// Install from `ETAP_FAULTS`/`ETAP_FAULT_SEED`. `Ok(None)` when unset.
///
/// # Errors
/// Propagates spec parse errors.
pub fn install_from_env() -> Result<Option<Arc<FaultRegistry>>, String> {
    Ok(FaultPlan::from_env()?.map(|plan| install(&plan)))
}

/// Remove the installed plan (seams go back to the free fast path).
pub fn reset() {
    ENABLED.store(false, Ordering::SeqCst);
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// The installed registry, if any.
#[must_use]
pub fn registry() -> Option<Arc<FaultRegistry>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Total faults injected by the installed registry (0 when none).
#[must_use]
pub fn injected_total() -> u64 {
    registry().map_or(0, |r| r.injected_total())
}

/// The raw seam: decide whether this hit of `point` injects, without
/// acting on it. Delay/panic side effects are the caller's job (most
/// callers want [`check_io`] or [`check_stage`] instead).
#[must_use]
pub fn check(point: &str) -> Option<FaultKind> {
    registry()?.decide(point)
}

/// Act on an injected fault in a fallible-I/O context: `Delay` sleeps
/// then proceeds, `Io` fails with [`io::ErrorKind::Other`], `Panic`
/// panics.
///
/// # Errors
/// The injected `io::Error` (message names the point, so logs and
/// retries are attributable).
///
/// # Panics
/// When the plan says `panic` for this point.
pub fn check_io(point: &str) -> io::Result<()> {
    match check(point) {
        None => Ok(()),
        Some(FaultKind::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultKind::Io) => Err(io::Error::other(format!("injected fault at {point}"))),
        Some(FaultKind::Panic) => panic!("injected panic at {point}"),
    }
}

/// [`check_io`] for `Result<_, String>` stage contexts.
///
/// # Errors
/// The injected failure, as a string.
///
/// # Panics
/// When the plan says `panic` for this point.
pub fn check_stage(point: &str) -> Result<(), String> {
    check_io(point).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses() {
        let plan = FaultPlan::parse(
            "persist.write=io@0.05, corpus.poll=delay:200ms@0.1, retrain=panic@once",
            7,
        )
        .expect("parse");
        assert_eq!(plan.arms.len(), 3);
        assert_eq!(plan.arms[0].kind, FaultKind::Io);
        assert_eq!(plan.arms[0].rate, Rate::Prob(0.05));
        assert_eq!(
            plan.arms[1].kind,
            FaultKind::Delay(Duration::from_millis(200))
        );
        assert_eq!(plan.arms[2].rate, Rate::Once);
        // Default rate is always; bare delay number is milliseconds.
        let plan = FaultPlan::parse("a=io,b=delay:2s,c=delay:40", 7).expect("parse");
        assert_eq!(plan.arms[0].rate, Rate::Always);
        assert_eq!(plan.arms[1].kind, FaultKind::Delay(Duration::from_secs(2)));
        assert_eq!(
            plan.arms[2].kind,
            FaultKind::Delay(Duration::from_millis(40))
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "nokind",
            "p=explode",
            "p=io@1.5",
            "p=io@-0.1",
            "p=io@maybe",
            "=io",
            "p=delay:fast",
            "p=io,p=panic",
        ] {
            assert!(FaultPlan::parse(bad, 1).is_err(), "{bad:?} should fail");
        }
        // Empty specs are fine (no faults).
        assert!(FaultPlan::parse("", 1).expect("empty").is_empty());
    }

    #[test]
    fn once_fires_exactly_once() {
        let plan = FaultPlan::parse("p=panic@once", 3).unwrap();
        let reg = FaultRegistry::new(&plan);
        assert_eq!(reg.decide("p"), Some(FaultKind::Panic));
        for _ in 0..50 {
            assert_eq!(reg.decide("p"), None);
        }
        assert_eq!(reg.injected_total(), 1);
        assert_eq!(reg.trace().len(), 1);
        assert_eq!(reg.trace()[0].hit, 1);
    }

    #[test]
    fn unknown_points_never_inject() {
        let plan = FaultPlan::parse("p=io", 3).unwrap();
        let reg = FaultRegistry::new(&plan);
        assert_eq!(reg.decide("other.point"), None);
        assert_eq!(reg.injected_total(), 0);
    }

    #[test]
    fn probabilistic_decisions_replay_identically() {
        let plan = FaultPlan::parse("a=io@0.3,b=io@0.7", 0xC0FFEE).unwrap();
        let run = || {
            let reg = FaultRegistry::new(&plan);
            let mut decisions = Vec::new();
            for i in 0..200 {
                // Interleave the two points differently on each pass of
                // the inner pattern: per-point streams make the per-point
                // sequence independent of the interleaving.
                if i % 3 == 0 {
                    decisions.push(("b", reg.decide("b").is_some()));
                }
                decisions.push(("a", reg.decide("a").is_some()));
            }
            decisions
        };
        assert_eq!(run(), run());
        // And the per-point sequences match a pure per-point replay.
        let reg = FaultRegistry::new(&plan);
        let a_only: Vec<bool> = (0..200).map(|_| reg.decide("a").is_some()).collect();
        let reg2 = FaultRegistry::new(&plan);
        for _ in 0..50 {
            let _ = reg2.decide("b"); // b hits must not perturb a's stream
        }
        let a_interleaved: Vec<bool> = (0..200).map(|_| reg2.decide("a").is_some()).collect();
        assert_eq!(a_only, a_interleaved);
        // Rate sanity: ~30% of 200 for a.
        let fired = a_only.iter().filter(|&&f| f).count();
        assert!((30..=90).contains(&fired), "{fired}");
    }

    #[test]
    fn check_io_maps_kinds() {
        let plan = FaultPlan::parse("io.point=io,delay.point=delay:1ms", 1).unwrap();
        let reg = FaultRegistry::new(&plan);
        match reg.decide("io.point") {
            Some(FaultKind::Io) => {}
            other => panic!("{other:?}"),
        }
        // Through the global seam helpers.
        let _ = install(&plan);
        let err = check_io("io.point").expect_err("io fault");
        assert!(err.to_string().contains("io.point"), "{err}");
        assert!(check_io("delay.point").is_ok());
        assert!(check_io("unknown").is_ok());
        reset();
        assert!(check_io("io.point").is_ok(), "reset disables injection");
    }

    #[test]
    fn from_env_roundtrip() {
        // Not set → None (do not actually set env vars here: tests run
        // multi-threaded and std::env::set_var is process-global).
        if std::env::var(ENV_SPEC).is_err() {
            assert!(FaultPlan::from_env().expect("ok").is_none());
        }
    }
}
