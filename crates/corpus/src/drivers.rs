//! The sales-driver taxonomy — as a runtime registry, not a closed enum.
//!
//! §2 of the paper: "A sales driver represents a class of events whose
//! existence indicates a high propensity to buy products/services by the
//! companies associated with the events. … ETAP currently considers
//! three sales drivers, viz., mergers & acquisitions, change in
//! management, and revenue growth." The paper also anticipates that
//! "one may want to introduce new categories of sales drivers quite
//! frequently" — so drivers here are **data**: a [`DriverId`] is an
//! interned small integer with a stable string key, and new drivers are
//! registered at runtime (typically from a `DRIVERS v1` file, see the
//! `etap` crate) without recompiling anything.
//!
//! The three paper drivers are pre-registered at fixed ids 0, 1 and 2,
//! so every ordering the pipeline derives from `DriverId`'s `Ord`
//! (ranking tie-breaks, artifact layouts) is bit-identical to the old
//! closed-enum world when only the built-ins are in play.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock, RwLock};

/// An interned sales-driver identifier.
///
/// Copyable and totally ordered by interning index; the stable string
/// [`key`](Self::id) is what artifacts persist (interning order is a
/// per-process detail, the key is forever). The historical name
/// `SalesDriver` remains as a type alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DriverId(u16);

/// The historical name for a sales-driver identifier.
pub type SalesDriver = DriverId;

/// Corpus templates for a data-defined driver: how the synthetic web
/// writes trigger and distractor sentences for it. Placeholders
/// (`{company}`, `{company2}`, `{person}`, `{desig}`, `{money}`,
/// `{pct}`, `{date}`, `{place}`, `{quarter}`, `{year}`, `{product}`)
/// are filled by the corpus `NameGenerator`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriverTemplates {
    /// Trigger-sentence templates (genuine events; must mention
    /// `{company}` so the event has a company to rank).
    pub triggers: Vec<String>,
    /// Distractor-sentence templates (on-topic but not an event).
    pub distractors: Vec<String>,
    /// Headlines for trigger documents.
    pub headlines: Vec<String>,
    /// Headlines for distractor documents.
    pub distractor_headlines: Vec<String>,
}

struct DriverInfo {
    key: &'static str,
    name: &'static str,
    templates: Option<Arc<DriverTemplates>>,
}

struct Registry {
    infos: Vec<DriverInfo>,
    by_key: HashMap<&'static str, u16>,
}

impl Registry {
    fn with_builtins() -> Self {
        let mut r = Self {
            infos: Vec::new(),
            by_key: HashMap::new(),
        };
        for (key, name) in [
            ("mergers_acquisitions", "mergers & acquisitions"),
            ("change_in_management", "change in management"),
            ("revenue_growth", "revenue growth"),
        ] {
            let idx = r.infos.len() as u16;
            r.infos.push(DriverInfo {
                key,
                name,
                templates: None,
            });
            r.by_key.insert(key, idx);
        }
        r
    }
}

fn registry() -> &'static RwLock<Registry> {
    static REG: OnceLock<RwLock<Registry>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Registry::with_builtins()))
}

fn read() -> std::sync::RwLockReadGuard<'static, Registry> {
    registry().read().unwrap_or_else(|e| e.into_inner())
}

fn write() -> std::sync::RwLockWriteGuard<'static, Registry> {
    registry().write().unwrap_or_else(|e| e.into_inner())
}

/// Hard cap on registered drivers: [`DriverSet`] is a 64-bit mask, and
/// sixty-four concurrent sales-driver categories is far beyond any
/// workload the pipeline targets.
pub const MAX_DRIVERS: usize = 64;

#[allow(non_upper_case_globals)]
impl DriverId {
    /// One company acquiring or merging with another (built-in, id 0).
    pub const MergersAcquisitions: DriverId = DriverId(0);
    /// A new executive joining / an executive leaving (built-in, id 1).
    pub const ChangeInManagement: DriverId = DriverId(1);
    /// A company reporting revenue / profit growth (built-in, id 2).
    pub const RevenueGrowth: DriverId = DriverId(2);

    /// The three built-in paper drivers, in canonical order.
    pub const ALL: [DriverId; 3] = [
        DriverId::MergersAcquisitions,
        DriverId::ChangeInManagement,
        DriverId::RevenueGrowth,
    ];

    /// Whether this is one of the three paper built-ins.
    #[must_use]
    pub fn is_builtin(self) -> bool {
        self.0 < 3
    }

    /// The interning index (0-based, registration order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable machine-readable key. This — not the interning index —
    /// is what goes into artifacts and URLs.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            DriverId::MergersAcquisitions => "mergers_acquisitions",
            DriverId::ChangeInManagement => "change_in_management",
            DriverId::RevenueGrowth => "revenue_growth",
            other => read()
                .infos
                .get(other.0 as usize)
                .map_or("unregistered", |i| i.key),
        }
    }

    /// Human-readable name (for the built-ins, as the paper writes it).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriverId::MergersAcquisitions => "mergers & acquisitions",
            DriverId::ChangeInManagement => "change in management",
            DriverId::RevenueGrowth => "revenue growth",
            other => read()
                .infos
                .get(other.0 as usize)
                .map_or("unregistered", |i| i.name),
        }
    }

    /// Register a driver under `key` (display name `name`), returning
    /// its id. Registering an existing key is idempotent: the existing
    /// id is returned (the display name is left as first registered).
    ///
    /// # Errors
    /// [`RegistryFull`] once [`MAX_DRIVERS`] drivers exist.
    pub fn register(key: &str, name: &str) -> Result<DriverId, RegistryFull> {
        let mut reg = write();
        if let Some(&idx) = reg.by_key.get(key) {
            return Ok(DriverId(idx));
        }
        if reg.infos.len() >= MAX_DRIVERS {
            return Err(RegistryFull);
        }
        let key: &'static str = Box::leak(key.to_string().into_boxed_str());
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        let idx = reg.infos.len() as u16;
        reg.infos.push(DriverInfo {
            key,
            name,
            templates: None,
        });
        reg.by_key.insert(key, idx);
        Ok(DriverId(idx))
    }

    /// Look up `key` (or a display name), registering it when unknown.
    /// This is the decode path for persisted artifacts: a warm start
    /// must be able to serve a book naming a driver whose spec file is
    /// not loaded, so the key interns with itself as display name.
    ///
    /// # Errors
    /// [`RegistryFull`] once [`MAX_DRIVERS`] drivers exist.
    pub fn intern(key: &str) -> Result<DriverId, RegistryFull> {
        if let Ok(d) = key.parse::<DriverId>() {
            return Ok(d);
        }
        DriverId::register(key, key)
    }

    /// Every registered driver, in id order (built-ins first).
    #[must_use]
    pub fn registered() -> Vec<DriverId> {
        (0..read().infos.len() as u16).map(DriverId).collect()
    }

    /// Attach corpus templates so the synthetic web can write trigger
    /// and distractor documents for this driver. Replaces any previous
    /// templates.
    pub fn set_templates(self, templates: DriverTemplates) {
        if let Some(info) = write().infos.get_mut(self.0 as usize) {
            info.templates = Some(Arc::new(templates));
        }
    }

    /// This driver's corpus templates, when registered with any.
    /// Built-ins return `None`: their generators are hand-written (and
    /// RNG-draw-exact) in the `templates` module.
    #[must_use]
    pub fn templates(self) -> Option<Arc<DriverTemplates>> {
        read()
            .infos
            .get(self.0 as usize)
            .and_then(|i| i.templates.clone())
    }
}

impl fmt::Display for DriverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DriverId {
    type Err = UnknownDriver;

    /// Strict lookup by key or display name — never registers. Request
    /// paths (URLs, CLI flags) go through this so an unknown key is a
    /// clean error (a 404, not a new registry entry).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let reg = read();
        if let Some(&idx) = reg.by_key.get(s) {
            return Ok(DriverId(idx));
        }
        reg.infos
            .iter()
            .position(|i| i.name == s)
            .map(|i| DriverId(i as u16))
            .ok_or_else(|| UnknownDriver(s.to_string()))
    }
}

/// Error for an unrecognized sales-driver name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDriver(pub String);

impl fmt::Display for UnknownDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown sales driver: {:?}", self.0)
    }
}

impl std::error::Error for UnknownDriver {}

/// Error when the driver registry has reached [`MAX_DRIVERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull;

impl fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "driver registry full ({MAX_DRIVERS} drivers)")
    }
}

impl std::error::Error for RegistryFull {}

/// A copyable set of drivers (a bitmask over interning indices), used
/// by corpus configs to say *which* drivers a synthetic web writes
/// trigger/distractor documents for. Defaults to the three built-ins,
/// keeping the default document stream byte-identical to the
/// closed-enum era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverSet {
    bits: u64,
}

impl DriverSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        Self { bits: 0 }
    }

    /// The three built-in paper drivers.
    #[must_use]
    pub const fn builtin() -> Self {
        Self { bits: 0b111 }
    }

    /// Every driver currently registered.
    #[must_use]
    pub fn all_registered() -> Self {
        let mut s = Self::empty();
        for d in DriverId::registered() {
            s.insert(d);
        }
        s
    }

    /// The set holding exactly `drivers`.
    #[must_use]
    pub fn from_drivers(drivers: &[DriverId]) -> Self {
        let mut s = Self::empty();
        for d in drivers {
            s.insert(*d);
        }
        s
    }

    /// Add one driver.
    pub fn insert(&mut self, d: DriverId) {
        self.bits |= 1u64 << (d.0 as u64 % 64);
    }

    /// Whether `d` is in the set.
    #[must_use]
    pub fn contains(self, d: DriverId) -> bool {
        self.bits & (1u64 << (d.0 as u64 % 64)) != 0
    }

    /// Member count.
    #[must_use]
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Members in ascending id order (the order every corpus RNG draw
    /// sequence iterates, so it must be deterministic).
    pub fn iter(self) -> impl Iterator<Item = DriverId> {
        (0..64u16)
            .filter(move |i| self.bits & (1u64 << i) != 0)
            .map(DriverId)
    }
}

impl Default for DriverSet {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_drivers() {
        assert_eq!(SalesDriver::ALL.len(), 3);
        for d in SalesDriver::ALL {
            assert!(d.is_builtin());
        }
    }

    #[test]
    fn ids_parse_back() {
        for d in SalesDriver::ALL {
            assert_eq!(d.id().parse::<SalesDriver>().unwrap(), d);
            assert_eq!(d.name().parse::<SalesDriver>().unwrap(), d);
        }
        assert!("steel futures".parse::<SalesDriver>().is_err());
    }

    #[test]
    fn display_matches_paper() {
        assert_eq!(
            SalesDriver::MergersAcquisitions.to_string(),
            "mergers & acquisitions"
        );
        assert_eq!(
            SalesDriver::ChangeInManagement.to_string(),
            "change in management"
        );
    }

    #[test]
    fn register_is_idempotent_and_parses_back() {
        let a = DriverId::register("test_reg_widgets", "widget launches").unwrap();
        let b = DriverId::register("test_reg_widgets", "other name").unwrap();
        assert_eq!(a, b);
        assert!(!a.is_builtin());
        assert_eq!(a.id(), "test_reg_widgets");
        assert_eq!(a.name(), "widget launches");
        assert_eq!("test_reg_widgets".parse::<DriverId>().unwrap(), a);
    }

    #[test]
    fn intern_registers_unknown_keys() {
        assert!("test_intern_k".parse::<DriverId>().is_err());
        let d = DriverId::intern("test_intern_k").unwrap();
        assert_eq!(d.name(), "test_intern_k");
        assert_eq!(DriverId::intern("test_intern_k").unwrap(), d);
        // Interning a builtin key returns the builtin.
        assert_eq!(
            DriverId::intern("revenue_growth").unwrap(),
            DriverId::RevenueGrowth
        );
    }

    #[test]
    fn templates_attach_and_fetch() {
        let d = DriverId::register("test_tmpl_drv", "template test").unwrap();
        assert!(d.templates().is_none());
        d.set_templates(DriverTemplates {
            triggers: vec!["{company} did a thing".into()],
            ..DriverTemplates::default()
        });
        let t = d.templates().expect("templates");
        assert_eq!(t.triggers.len(), 1);
        // Builtins have no data templates (hand-written generators).
        assert!(DriverId::RevenueGrowth.templates().is_none());
    }

    #[test]
    fn driver_set_defaults_to_builtins() {
        let s = DriverSet::default();
        assert_eq!(s.len(), 3);
        let members: Vec<DriverId> = s.iter().collect();
        assert_eq!(members, SalesDriver::ALL.to_vec());
        assert!(s.contains(DriverId::RevenueGrowth));
    }

    #[test]
    fn driver_set_insert_iterates_in_id_order() {
        let d = DriverId::register("test_set_member", "set member").unwrap();
        let mut s = DriverSet::empty();
        s.insert(d);
        s.insert(DriverId::MergersAcquisitions);
        let members: Vec<DriverId> = s.iter().collect();
        assert_eq!(members, vec![DriverId::MergersAcquisitions, d]);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(DriverId::RevenueGrowth));
    }
}
