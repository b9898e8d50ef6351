//! The hierarchical metric registry and its plain snapshot form.

use crate::metrics::{bucket_of, Counter, Gauge, Histogram, Pow2Hist};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Interns live metric cells by hierarchical, slash-separated name
/// (`"eu/issued"`, `"mem/l3/hits"`, `"agg/stall/mem_latency"`).
///
/// Cells are shared: asking twice for the same name returns the same
/// [`Counter`]/[`Histogram`], so independent workers (e.g. the parallel
/// evaluation harness) accumulate into one process-wide cell with plain
/// relaxed atomics. Lookup takes a mutex, so callers should hold on to the
/// returned `Arc` rather than re-resolving names in hot loops.
///
/// The registry carries an `enabled` flag for call sites that want a single
/// cheap gate around a block of instrumentation; the cells themselves are
/// always safe to touch.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        let r = Self::default();
        r.enabled.store(true, Ordering::Relaxed);
        r
    }

    /// True when instrumentation gated on this registry should run.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns gated instrumentation on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name, Counter::new)
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// Registry gauges are for *live* operational readings (queue depth,
    /// busy workers) sampled at [`snapshot`](Self::snapshot) time; like
    /// snapshot gauges they never flow through [`absorb`](Self::absorb),
    /// so nondeterministic values stay out of the additive counter tree.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name, Gauge::new)
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.hists, name, Histogram::new)
    }

    /// Folds a snapshot into the live cells: counters add, histograms
    /// merge, gauges are deliberately ignored (a point-in-time reading
    /// from one run has no additive meaning process-wide). Addition
    /// commutes, so parallel workers can absorb their per-run snapshots
    /// in any completion order and the final
    /// [`snapshot`](Self::snapshot) is still deterministic.
    pub fn absorb(&self, snap: &TelemetrySnapshot) {
        for (name, v) in snap.counters() {
            self.counter(name).add(v);
        }
        for (name, h) in snap.hists() {
            self.histogram(name).absorb(h);
        }
    }

    /// Point-in-time plain values of every registered cell.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        for (name, c) in self.counters.lock().expect("registry poisoned").iter() {
            snap.set_counter(name, c.get());
        }
        for (name, g) in self.gauges.lock().expect("registry poisoned").iter() {
            snap.set_gauge(name, g.get());
        }
        for (name, h) in self.hists.lock().expect("registry poisoned").iter() {
            snap.set_hist(name, h.snapshot());
        }
        snap
    }
}

/// The cell under `name` in `cells`, created with `make` on first use.
/// A hit clones the `Arc` without allocating; only a miss copies the
/// name into a new key.
fn intern<T>(cells: &Mutex<BTreeMap<String, Arc<T>>>, name: &str, make: fn() -> T) -> Arc<T> {
    let mut map = cells.lock().expect("registry poisoned");
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(make())),
    )
}

/// How a typed statistics struct publishes its fields into a snapshot.
///
/// Implementations turn the ad-hoc fields of `EuStats`, `MemStats`,
/// `CompactionTally`, … into uniformly named counters/histograms under a
/// caller-chosen prefix, making [`TelemetrySnapshot`] the single uniform
/// store behind all the typed accessors.
pub trait Instrument {
    /// Writes this struct's metrics into `snap`, each name prefixed with
    /// `prefix` (no trailing slash; pass `""` for top-level names).
    fn publish(&self, prefix: &str, snap: &mut TelemetrySnapshot);
}

/// Joins a prefix and a metric name with `/`, eliding an empty prefix.
/// Convenience for [`Instrument`] implementations.
pub fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    }
}

/// A plain, mergeable, comparable point-in-time value set.
///
/// Snapshots are what results carry: `SimResult` embeds one per run, the
/// bench harness embeds an aggregate one per report, and the trace analyzer
/// produces one per corpus. Names are hierarchical (slash-separated) and
/// iteration / JSON output is always name-sorted, so snapshot JSON is
/// byte-deterministic for a given value set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Pow2Hist>,
}

impl TelemetrySnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets counter `name` to `v` (overwriting).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Adds `v` to counter `name` (creating it at 0).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Stores histogram `name` (overwriting).
    pub fn set_hist(&mut self, name: &str, h: Pow2Hist) {
        self.hists.insert(name.to_string(), h);
    }

    /// Sets gauge `name` to `v` (overwriting). Gauges are point-in-time
    /// measurements (rates, ratios) rather than additive tallies — they
    /// never flow through [`Registry::absorb`], so nondeterministic values
    /// like wall-clock rates stay out of the deterministic counter tree.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram value, if present.
    pub fn hist(&self, name: &str) -> Option<&Pow2Hist> {
        self.hists.get(name)
    }

    /// Name-sorted counter iterator.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Name-sorted gauge iterator.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Name-sorted histogram iterator.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Pow2Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when no metric is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Publishes `stats` under `prefix` (convenience for [`Instrument`]).
    pub fn publish<I: Instrument + ?Sized>(&mut self, prefix: &str, stats: &I) {
        stats.publish(prefix, self);
    }

    /// Field-wise sum with another snapshot: counters add, histograms
    /// merge; metrics present on one side only are kept as-is.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON rendering (names sorted, fixed field order):
    ///
    /// ```json
    /// {
    ///   "counters": { "eu/issued": 42 },
    ///   "histograms": {
    ///     "profile/channels": { "count": 2, "sum": 17, "buckets": [[16, 2]] }
    ///   }
    /// }
    /// ```
    ///
    /// `buckets` lists `[lower_bound, count]` pairs for occupied
    /// power-of-two buckets only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("    \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("      \"{}\": {v}", crate::json::escape(name)));
        }
        out.push_str(if first { "},\n" } else { "\n    },\n" });
        // Gauges are emitted only when present so snapshots without them
        // render byte-identically to the pre-gauge schema.
        if !self.gauges.is_empty() {
            out.push_str("    \"gauges\": {");
            first = true;
            for (name, v) in &self.gauges {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                out.push_str(&format!("      \"{}\": {v:.3}", crate::json::escape(name)));
            }
            out.push_str("\n    },\n");
        }
        out.push_str("    \"histograms\": {");
        first = true;
        for (name, h) in &self.hists {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let buckets: Vec<String> = h
                .occupied()
                .iter()
                .map(|(lo, c)| format!("[{lo}, {c}]"))
                .collect();
            out.push_str(&format!(
                "      \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                crate::json::escape(name),
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        out.push_str(if first { "}\n" } else { "\n    }\n" });
        out.push_str("  }");
        out
    }

    /// Parses the output of [`to_json`](Self::to_json) back into a
    /// snapshot — the inverse used by external consumers of bench reports
    /// and by the round-trip tests.
    ///
    /// The JSON layer holds all numbers as `f64`, so counter and sum
    /// values round-trip exactly only up to 2^53 — plus the two extremes
    /// 0 and `u64::MAX` (whose `f64` image saturates back to `u64::MAX`).
    /// Every value the workspace emits today is far below the lossy range.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a shape that does not match
    /// the snapshot schema.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        use crate::json::{parse, Json};
        let doc = parse(text)?;
        let mut snap = TelemetrySnapshot::new();
        let section = |doc: &Json, key: &str| -> Result<BTreeMap<String, Json>, String> {
            match doc.get(key) {
                None => Ok(BTreeMap::new()),
                Some(Json::Obj(m)) => Ok(m.clone()),
                Some(_) => Err(format!("\"{key}\" is not an object")),
            }
        };
        for (name, v) in section(&doc, "counters")? {
            let n = v
                .as_num()
                .ok_or_else(|| format!("counter {name:?} is not a number"))?;
            snap.set_counter(&name, n as u64);
        }
        for (name, v) in section(&doc, "gauges")? {
            let n = v
                .as_num()
                .ok_or_else(|| format!("gauge {name:?} is not a number"))?;
            snap.set_gauge(&name, n);
        }
        for (name, v) in section(&doc, "histograms")? {
            let num = |key: &str| -> Result<u64, String> {
                v.get(key)
                    .and_then(Json::as_num)
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("histogram {name:?} lacks numeric \"{key}\""))
            };
            let mut h = Pow2Hist::new();
            h.count = num("count")?;
            h.sum = num("sum")?;
            let buckets = v
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histogram {name:?} lacks \"buckets\""))?;
            for pair in buckets {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    format!("histogram {name:?}: bucket is not a [lo, count] pair")
                })?;
                let (lo, c) = (pair[0].as_num(), pair[1].as_num());
                let (lo, c) = lo
                    .zip(c)
                    .ok_or_else(|| format!("histogram {name:?}: non-numeric bucket"))?;
                h.buckets[bucket_of(lo as u64)] = c as u64;
            }
            snap.set_hist(&name, h);
        }
        Ok(snap)
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name:<40} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<40} {v:.3}")?;
        }
        for (name, h) in &self.hists {
            writeln!(
                f,
                "{name:<40} n={} mean={:.2} p99<={}",
                h.count,
                h.mean(),
                h.quantile_hi(0.99)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_lookups_return_the_same_cell() {
        let r = Registry::new();
        let name = format!("serve/phase_us/{}", "decode");
        assert!(Arc::ptr_eq(&r.counter(&name), &r.counter(&name)));
        assert!(Arc::ptr_eq(&r.gauge(&name), &r.gauge(&name)));
        assert!(Arc::ptr_eq(&r.histogram(&name), &r.histogram(&name)));
        assert!(!Arc::ptr_eq(&r.counter(&name), &r.counter("serve/other")));
        // The registry holds one reference per cell; each lookup hands out
        // another rather than a new cell.
        let held = r.counter(&name);
        assert_eq!(Arc::strong_count(&held), 2);
    }

    #[test]
    fn registry_interns_cells() {
        let r = Registry::new();
        let a = r.counter("x/y");
        let b = r.counter("x/y");
        a.add(2);
        b.inc();
        assert_eq!(r.snapshot().counter("x/y"), Some(3));
        assert!(r.enabled());
        r.set_enabled(false);
        assert!(!r.enabled());
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut a = TelemetrySnapshot::new();
        a.set_counter("c", 2);
        let mut ha = Pow2Hist::new();
        ha.record(3);
        a.set_hist("h", ha);
        let mut b = TelemetrySnapshot::new();
        b.set_counter("c", 5);
        let mut hb = Pow2Hist::new();
        hb.record(9);
        b.set_hist("h", hb);

        let r1 = Registry::new();
        r1.absorb(&a);
        r1.absorb(&b);
        let r2 = Registry::new();
        r2.absorb(&b);
        r2.absorb(&a);
        assert_eq!(r1.snapshot(), r2.snapshot());
        assert_eq!(r1.snapshot().counter("c"), Some(7));
        assert_eq!(r1.snapshot().hist("h").unwrap().count, 2);
        assert_eq!(r1.snapshot().hist("h").unwrap().sum, 12);
    }

    #[test]
    fn snapshot_merge_adds() {
        let mut a = TelemetrySnapshot::new();
        a.set_counter("c", 1);
        let mut h = Pow2Hist::new();
        h.record(4);
        a.set_hist("h", h);
        let mut b = a.clone();
        b.add_counter("c", 9);
        b.add_counter("only_b", 5);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(11));
        assert_eq!(a.counter("only_b"), Some(5));
        assert_eq!(a.hist("h").unwrap().count, 2);
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.histogram("h").record(3);
        let snap = r.snapshot();
        let j1 = snap.to_json();
        let j2 = snap.to_json();
        assert_eq!(j1, j2);
        // Names come out sorted, and the result is valid JSON.
        assert!(j1.find("\"a\"").unwrap() < j1.find("\"b\"").unwrap());
        crate::json::parse(&j1).expect("snapshot JSON parses");
    }

    #[test]
    fn empty_snapshot_json_parses() {
        let snap = TelemetrySnapshot::new();
        assert!(snap.is_empty());
        crate::json::parse(&snap.to_json()).expect("empty snapshot JSON parses");
    }

    #[test]
    fn gauges_render_only_when_present() {
        let mut snap = TelemetrySnapshot::new();
        snap.set_counter("c", 1);
        let without = snap.to_json();
        assert!(!without.contains("\"gauges\""));
        snap.set_gauge("sim/throughput", 1234.5);
        assert_eq!(snap.gauge("sim/throughput"), Some(1234.5));
        let with = snap.to_json();
        assert!(with.contains("\"gauges\""));
        assert!(with.contains("\"sim/throughput\": 1234.500"));
        crate::json::parse(&with).expect("gauge JSON parses");
        // Merge overwrites gauges rather than summing them.
        let mut other = TelemetrySnapshot::new();
        other.set_gauge("sim/throughput", 2.0);
        snap.merge(&other);
        assert_eq!(snap.gauge("sim/throughput"), Some(2.0));
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn registry_gauges_snapshot_but_do_not_absorb() {
        let r = Registry::new();
        let g = r.gauge("serve/queue/depth");
        g.set(3.0);
        r.gauge("serve/queue/depth").set_max(5.0);
        assert_eq!(r.snapshot().gauge("serve/queue/depth"), Some(5.0));
        // Absorbing a snapshot with gauges leaves registry gauges alone.
        let mut snap = TelemetrySnapshot::new();
        snap.set_gauge("serve/queue/depth", 99.0);
        snap.set_gauge("other", 1.0);
        r.absorb(&snap);
        let after = r.snapshot();
        assert_eq!(after.gauge("serve/queue/depth"), Some(5.0));
        assert_eq!(after.gauge("other"), None);
    }

    #[test]
    fn from_json_inverts_to_json() {
        let mut snap = TelemetrySnapshot::new();
        snap.set_counter("eu/issued", 42);
        snap.set_gauge("sim/throughput", 1234.5);
        let mut h = Pow2Hist::new();
        h.record(0);
        h.record(7);
        snap.set_hist("profile/channels", h);
        let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
        // Shape errors are reported, not panicked on.
        assert!(TelemetrySnapshot::from_json("not json").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\": {\"x\": \"y\"}}").is_err());
        assert!(TelemetrySnapshot::from_json("{\"counters\": []}").is_err());
    }

    #[test]
    fn join_elides_empty_prefix() {
        assert_eq!(join("", "x"), "x");
        assert_eq!(join("eu", "x"), "eu/x");
    }
}
