//! The [`Registry`]: a named collection of instruments with a stable
//! snapshot and two renderings — text exposition and flat JSON.

use crate::cells::{Counter, Gauge};
use crate::hist::{HistogramSnapshot, LatencyHistogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A closure sampled at snapshot time for a counter-valued series.
type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
/// A closure sampled at snapshot time for a gauge-valued series.
type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
    CounterFn(CounterFn),
    GaugeFn(GaugeFn),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
            Instrument::CounterFn(_) => "counter_fn",
            Instrument::GaugeFn(_) => "gauge_fn",
        }
    }
}

/// One sampled value in a [`Registry::snapshot`].
///
/// The histogram variant inlines its full 64-bucket state — snapshots
/// are cold-path (scrapes), and keeping the buckets inline means one
/// allocation per snapshot vector, not one per histogram.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A monotone total.
    Counter(u64),
    /// A signed level.
    Gauge(i64),
    /// A sampled floating-point gauge (ratios and the like).
    Float(f64),
    /// A full histogram state.
    Histogram(HistogramSnapshot),
}

/// A name→instrument map. Registration (startup) takes a lock and
/// allocates; recording through the returned `Arc` handles touches
/// neither the registry nor the heap. Snapshots walk the map in name
/// order, so renderings are byte-stable for identical states.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

/// Metric names are `snake_case` identifiers: `[a-z_][a-z0-9_]*`.
/// Keeping the grammar this tight makes the text exposition trivially
/// parseable (`name SP value`, no escaping anywhere).
fn check_name(name: &str) {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) => {
            (c.is_ascii_lowercase() || c == '_')
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        }
        None => false,
    };
    assert!(ok, "metric name {name:?} is not [a-z_][a-z0-9_]*");
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, creating it on first use. Calling
    /// again with the same name returns the same instrument.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, or if `name` is already registered
    /// as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        check_name(name);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind collision.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        check_name(name);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The latency histogram named `name`, creating it on first use.
    /// By repo convention histogram names end in `_nanos` and record
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind collision.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        check_name(name);
        let mut map = self.instruments.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(LatencyHistogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers a counter-valued series sampled from `f` at snapshot
    /// time — for totals a subsystem already tracks in its own
    /// atomics (cache hits, queue parks) that would be wasteful to
    /// double-count. Replaces any previous sampler under `name`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind collision with a
    /// non-sampled instrument.
    pub fn counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        check_name(name);
        let mut map = self.instruments.lock().unwrap();
        if let Some(existing) = map.get(name) {
            assert!(
                matches!(existing, Instrument::CounterFn(_)),
                "metric {name:?} already registered as a {}",
                existing.kind()
            );
        }
        map.insert(name.to_string(), Instrument::CounterFn(Box::new(f)));
    }

    /// Registers a float-gauge series sampled from `f` at snapshot
    /// time (queue depths, hit ratios). Replaces any previous sampler
    /// under `name`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind collision with a
    /// non-sampled instrument.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        check_name(name);
        let mut map = self.instruments.lock().unwrap();
        if let Some(existing) = map.get(name) {
            assert!(
                matches!(existing, Instrument::GaugeFn(_)),
                "metric {name:?} already registered as a {}",
                existing.kind()
            );
        }
        map.insert(name.to_string(), Instrument::GaugeFn(Box::new(f)));
    }

    /// Samples every instrument, in name order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.instruments.lock().unwrap();
        map.iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    Instrument::CounterFn(f) => MetricValue::Counter(f()),
                    Instrument::GaugeFn(f) => MetricValue::Float(f()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Renders the snapshot as the text exposition of PROTOCOL.md
    /// §4.12: one `name SP value LF` line per series, names sorted. A
    /// histogram `h` expands to `h_count`, `h_sum`, `h_p50`, `h_p90`,
    /// `h_p99` and `h_max`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            for (suffix, v) in flatten(&value) {
                out.push_str(&name);
                out.push_str(suffix);
                out.push(' ');
                out.push_str(&v);
                out.push('\n');
            }
        }
        out
    }

    /// Renders the snapshot as one flat JSON object with the same
    /// flattened keys and numeric values as [`Registry::render_text`]
    /// (hand-serialized like the `BENCH_*.json` files — no serde in
    /// the offline build).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, value) in self.snapshot() {
            for (suffix, v) in flatten(&value) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push('"');
                out.push_str(&name);
                out.push_str(suffix);
                out.push_str("\": ");
                out.push_str(&v);
            }
        }
        out.push('}');
        out
    }
}

/// Expands one metric value into `(name suffix, rendered number)`
/// pairs. Floats render finite (non-finite samples become 0, so both
/// expositions stay parseable whatever a sampler returns).
fn flatten(value: &MetricValue) -> Vec<(&'static str, String)> {
    match value {
        MetricValue::Counter(v) => vec![("", v.to_string())],
        MetricValue::Gauge(v) => vec![("", v.to_string())],
        MetricValue::Float(v) => {
            let v = if v.is_finite() { *v } else { 0.0 };
            vec![("", format!("{v:.6}"))]
        }
        MetricValue::Histogram(h) => vec![
            ("_count", h.count().to_string()),
            ("_sum", h.sum.to_string()),
            ("_p50", h.p50().to_string()),
            ("_p90", h.p90().to_string()),
            ("_p99", h.p99().to_string()),
            ("_max", h.max.to_string()),
        ],
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.instruments.lock().unwrap().keys().cloned().collect();
        f.debug_struct("Registry").field("names", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name() {
        let r = Registry::new();
        let a = r.counter("hits_total");
        let b = r.counter("hits_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("depth");
        g.add(5);
        let h = r.histogram("lat_nanos");
        h.record(100);
        r.counter_fn("sampled_total", || 7);
        r.gauge_fn("ratio", || 0.25);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["depth", "hits_total", "lat_nanos", "ratio", "sampled_total"],
            "snapshot is name-sorted"
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collisions_panic() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "is not")]
    fn bad_names_panic() {
        Registry::new().counter("Not-Valid");
    }

    #[test]
    fn text_exposition_grammar() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.gauge("a_level").set(-3);
        r.histogram("lat_nanos").record(5);
        r.gauge_fn("nan_guard", || f64::NAN);
        let text = r.render_text();
        let expected = "a_level -3\n\
                        b_total 2\n\
                        lat_nanos_count 1\n\
                        lat_nanos_sum 5\n\
                        lat_nanos_p50 5\n\
                        lat_nanos_p90 5\n\
                        lat_nanos_p99 5\n\
                        lat_nanos_max 5\n\
                        nan_guard 0.000000\n";
        assert_eq!(text, expected);
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name SP value");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn json_exposition_parses() {
        let r = Registry::new();
        r.counter("total").inc();
        r.histogram("lat_nanos").record(9);
        r.gauge_fn("ratio", || 0.5);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"total\": 1"), "{json}");
        assert!(json.contains("\"lat_nanos_p99\": 9"), "{json}");
        assert!(json.contains("\"ratio\": 0.500000"), "{json}");
    }
}
