//! The unified metrics registry.
//!
//! Components no longer carry bespoke `u64` fields threaded through
//! constructors and `stats()` plumbing; they ask the registry for a
//! named, optionally scoped handle once, keep the `Arc`, and bump it
//! lock-free. The registry can snapshot every metric at any instant —
//! in deterministic order (BTreeMap), so rendered snapshots are
//! byte-stable artifacts.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use otp_simnet::net::SiteId;

/// A monotone event counter.
///
/// Updates use `AcqRel` and reads `Acquire`. Most counters are pure
/// statistics and would be fine `Relaxed`, but the threaded runtime's
/// admission window compares two counters (`accepted` vs
/// `origin_committed`) across threads, so the handles must order like
/// the bespoke atomics they replaced. The cost difference is noise next
/// to the channel operations surrounding every bump.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh, detached counter (usable without a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::AcqRel);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A signed up/down gauge.
///
/// Updates use `AcqRel` and reads `Acquire`: the threaded runtime's
/// in-flight gauge is *synchronization*, not just a statistic — its
/// provable-quiescence shutdown argument (DESIGN.md §9) needs every
/// decrement's prior writes visible to the thread that observes zero.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh, detached gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (may be negative) and returns the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.0.fetch_add(delta, Ordering::AcqRel) + delta
    }

    /// Replaces the value (a sampled size rather than a running sum).
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Release);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Scope of a metric: cluster-wide, or refined per site / group / epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scope {
    /// Owning site, when site-scoped.
    pub site: Option<u16>,
    /// Ordering group (order-domain index), when group-scoped.
    pub group: Option<u16>,
    /// View epoch, when epoch-scoped.
    pub epoch: Option<u64>,
}

impl Scope {
    /// The cluster-wide (unscoped) scope.
    pub const fn global() -> Self {
        Scope { site: None, group: None, epoch: None }
    }

    /// Scope refined to a site.
    pub const fn site(site: SiteId) -> Self {
        Scope { site: Some(site.raw()), group: None, epoch: None }
    }

    /// Returns this scope refined to ordering group `g`.
    pub const fn group(mut self, g: u16) -> Self {
        self.group = Some(g);
        self
    }

    /// Returns this scope refined to view epoch `e`.
    pub const fn epoch(mut self, e: u64) -> Self {
        self.epoch = Some(e);
        self
    }
}

/// Full identity of a registered metric: name plus scope.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (e.g. `stale_epoch_reject`).
    pub name: String,
    /// Scope the handle was registered under.
    pub scope: Scope,
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        let Scope { site, group, epoch } = self.scope;
        if site.is_none() && group.is_none() && epoch.is_none() {
            return Ok(());
        }
        let mut sep = '{';
        for (label, v) in
            [("site", site.map(u64::from)), ("group", group.map(u64::from)), ("epoch", epoch)]
        {
            if let Some(v) = v {
                write!(f, "{sep}{label}={v}")?;
                sep = ',';
            }
        }
        f.write_str("}")
    }
}

/// One registry value at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
}

/// A deterministic point-in-time view of every registered metric,
/// sorted by [`MetricKey`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(key, value)` pairs in key order.
    pub entries: Vec<(MetricKey, MetricValue)>,
}

impl MetricsSnapshot {
    /// Value of `key` if present, as i64 (counters widen losslessly for
    /// all realistic magnitudes).
    pub fn get(&self, name: &str, scope: Scope) -> Option<i64> {
        let key = MetricKey { name: name.to_owned(), scope };
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
            MetricValue::Counter(c) => *c as i64,
            MetricValue::Gauge(g) => *g,
        })
    }

    /// Sum of every scope of counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                MetricValue::Gauge(_) => 0,
            })
            .sum()
    }

    /// Renders the snapshot as deterministic `key = value` lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            match v {
                MetricValue::Counter(c) => out.push_str(&format!("{k} = {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{k} = {g}\n")),
            }
        }
        out
    }
}

/// The registry. Cheap to share (`Arc<MetricsRegistry>`); handle
/// creation locks briefly, metric updates never lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered as (`name`, `scope`), creating it
    /// at zero on first request. Same key ⇒ same handle.
    pub fn counter(&self, name: &str, scope: Scope) -> Arc<Counter> {
        let key = MetricKey { name: name.to_owned(), scope };
        Arc::clone(
            self.counters
                .lock()
                .expect("metrics registry poisoned")
                .entry(key)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns the gauge registered as (`name`, `scope`), creating it at
    /// zero on first request.
    pub fn gauge(&self, name: &str, scope: Scope) -> Arc<Gauge> {
        let key = MetricKey { name: name.to_owned(), scope };
        Arc::clone(
            self.gauges
                .lock()
                .expect("metrics registry poisoned")
                .entry(key)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Sum of every scope of counter `name` right now.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Snapshots every registered metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(MetricKey, MetricValue)> = Vec::new();
        for (k, c) in self.counters.lock().expect("metrics registry poisoned").iter() {
            entries.push((k.clone(), MetricValue::Counter(c.get())));
        }
        for (k, g) in self.gauges.lock().expect("metrics registry poisoned").iter() {
            entries.push((k.clone(), MetricValue::Gauge(g.get())));
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", Scope::site(SiteId::new(1)));
        let b = reg.counter("x", Scope::site(SiteId::new(1)));
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let other = reg.counter("x", Scope::site(SiteId::new(2)));
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn gauge_goes_up_and_down() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("in_flight", Scope::global());
        assert_eq!(g.add(5), 5);
        assert_eq!(g.add(-2), 3);
        assert_eq!(g.get(), 3);
        g.set(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn snapshot_is_sorted_and_totals_sum_scopes() {
        let reg = MetricsRegistry::new();
        reg.counter("b", Scope::site(SiteId::new(1))).add(2);
        reg.counter("b", Scope::site(SiteId::new(0))).add(3);
        reg.counter("a", Scope::global()).incr();
        reg.gauge("g", Scope::global()).add(-4);
        let snap = reg.snapshot();
        let keys: Vec<String> = snap.entries.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "b{site=0}", "b{site=1}", "g"]);
        assert_eq!(snap.counter_total("b"), 5);
        assert_eq!(reg.counter_total("b"), 5);
        assert_eq!(snap.get("g", Scope::global()), Some(-4));
        assert_eq!(snap.get("missing", Scope::global()), None);
    }

    #[test]
    fn key_display_covers_all_scopes() {
        let k =
            MetricKey { name: "m".into(), scope: Scope::site(SiteId::new(3)).group(1).epoch(9) };
        assert_eq!(k.to_string(), "m{site=3,group=1,epoch=9}");
        let bare = MetricKey { name: "m".into(), scope: Scope::global() };
        assert_eq!(bare.to_string(), "m");
    }

    #[test]
    fn render_is_deterministic_lines() {
        let reg = MetricsRegistry::new();
        reg.counter("z", Scope::global()).incr();
        reg.counter("a", Scope::global()).add(7);
        let rendered = reg.snapshot().render();
        assert_eq!(rendered, "a = 7\nz = 1\n");
    }
}
