//! Sliding-window metric aggregation for live engines.
//!
//! The [`MetricsRegistry`](crate::MetricsRegistry) counters are
//! monotone totals — ideal for post-run scraping, useless for "what is
//! the shed rate *right now*" questions a long-running service gets
//! asked. [`WindowedMetrics`] layers fixed-slot ring buffers on top:
//! every series keeps the last `slots` slots of data, the engine calls
//! [`WindowedMetrics::advance`] once per scheduler tick to rotate the
//! ring, and readers ([`window_total`](WindowedMetrics::window_total)
//! and the OpenMetrics rendering
//! [`render_openmetrics_into`](WindowedMetrics::render_openmetrics_into))
//! see only the window.
//!
//! Series are keyed by a family name plus a sorted label set (tenant
//! and shard ids in practice), and come in three kinds, chosen by the
//! first call that touches the series:
//!
//! - **rate** ([`add`](WindowedMetrics::add)): per-slot `u64` sums —
//!   epochs solved, epochs shed, boundary messages, fault counts;
//! - **gauge** ([`set`](WindowedMetrics::set)): last-write-wins `f64` —
//!   queue depths;
//! - **pool** ([`observe`](WindowedMetrics::observe)): per-slot `f64`
//!   samples pooled for window quantiles — tick latency.
//!
//! Slot rotation is driven by the *caller's* tick, never by wall
//! clock, so the aggregation is deterministic for a given call
//! sequence and costs nothing when nobody ticks it.
//!
//! The type also implements [`InferenceObserver`] so it can ride a
//! [`FanoutObserver`](crate::FanoutObserver) into live runs:
//! [`fold_event`](WindowedMetrics::fold_event) maps the structured
//! event stream (tenant epochs, shed decisions, per-shard
//! [`ObsEvent::BoundaryExchange`] traffic, fault events) onto labeled
//! window series.

use crate::metrics::escape_label_value;
use crate::observer::{InferenceObserver, ObsEvent, RunInfo};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A series key: family name plus sorted `(label, value)` pairs.
type SeriesKey = (String, Vec<(String, String)>);

#[derive(Debug)]
enum SeriesData {
    /// Per-slot sums (counter-over-window semantics).
    Rate(Vec<u64>),
    /// Last written value (point-in-time semantics).
    Gauge(f64),
    /// Per-slot sample pools (quantile-over-window semantics).
    Pool(Vec<Vec<f64>>),
}

#[derive(Debug, Default)]
struct WinState {
    /// Current ring position every write lands in.
    head: usize,
    series: BTreeMap<SeriesKey, SeriesData>,
}

/// Fixed-slot ring-buffer aggregation over labeled metric series.
///
/// Thread-safe behind one mutex: writes are O(label-set) map lookups on
/// the engine's (cold, per-tick) path, never inside BP inner loops.
#[derive(Debug)]
pub struct WindowedMetrics {
    slots: usize,
    state: Mutex<WinState>,
}

impl WindowedMetrics {
    /// A window of `slots` ring slots (clamped to at least 1). One slot
    /// is "the current tick"; [`advance`](WindowedMetrics::advance)
    /// retires the oldest.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        WindowedMetrics {
            slots: slots.max(1),
            state: Mutex::new(WinState::default()),
        }
    }

    /// Ring slots this window was built with.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn locked(&self) -> MutexGuard<'_, WinState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(name: &str, labels: &[(&str, String)]) -> SeriesKey {
        let mut ls: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect();
        ls.sort();
        (name.to_owned(), ls)
    }

    /// Adds `v` to the rate series `name{labels}` in the current slot.
    pub fn add(&self, name: &str, labels: &[(&str, String)], v: u64) {
        let mut st = self.locked();
        let head = st.head;
        let slots = self.slots;
        let data = st
            .series
            .entry(Self::key(name, labels))
            .or_insert_with(|| SeriesData::Rate(vec![0; slots]));
        if let SeriesData::Rate(ring) = data {
            ring[head] += v;
        }
    }

    /// Sets the gauge series `name{labels}` to `v`.
    pub fn set(&self, name: &str, labels: &[(&str, String)], v: f64) {
        let mut st = self.locked();
        let data = st
            .series
            .entry(Self::key(name, labels))
            .or_insert(SeriesData::Gauge(0.0));
        if let SeriesData::Gauge(cur) = data {
            *cur = v;
        }
    }

    /// Appends sample `v` to the pool series `name{labels}` in the
    /// current slot.
    pub fn observe(&self, name: &str, labels: &[(&str, String)], v: f64) {
        let mut st = self.locked();
        let head = st.head;
        let slots = self.slots;
        let data = st
            .series
            .entry(Self::key(name, labels))
            .or_insert_with(|| SeriesData::Pool(vec![Vec::new(); slots]));
        if let SeriesData::Pool(ring) = data {
            ring[head].push(v);
        }
    }

    /// Rotates the ring: the oldest slot of every series is cleared and
    /// becomes the new current slot. Engines call this once per tick.
    pub fn advance(&self) {
        let mut st = self.locked();
        st.head = (st.head + 1) % self.slots;
        let head = st.head;
        for data in st.series.values_mut() {
            match data {
                SeriesData::Rate(ring) => ring[head] = 0,
                SeriesData::Pool(ring) => ring[head].clear(),
                SeriesData::Gauge(_) => {}
            }
        }
    }

    /// Windowed total of a rate series, or `None` if the series does
    /// not exist (or is not a rate).
    #[must_use]
    pub fn window_total(&self, name: &str, labels: &[(&str, String)]) -> Option<u64> {
        let st = self.locked();
        match st.series.get(&Self::key(name, labels)) {
            Some(SeriesData::Rate(ring)) => Some(ring.iter().sum()),
            _ => None,
        }
    }

    /// Folds one structured event into the windowed series the live
    /// telemetry endpoints expose (see module docs for the mapping).
    pub fn fold_event(&self, event: &ObsEvent) {
        match event {
            ObsEvent::EpochAdvanced { tenant, .. } => {
                self.add(
                    "wsnloc_window_epochs_solved",
                    &[("tenant", tenant.to_string())],
                    1,
                );
            }
            ObsEvent::TenantShed { tenant, .. } => {
                self.add(
                    "wsnloc_window_epochs_shed",
                    &[("tenant", tenant.to_string())],
                    1,
                );
            }
            ObsEvent::BoundaryExchange {
                shard, messages, ..
            } => {
                self.add(
                    "wsnloc_window_boundary_messages",
                    &[("shard", shard.to_string())],
                    *messages,
                );
            }
            ObsEvent::MessageDropped { count, .. } => {
                self.add("wsnloc_window_fault_dropped", &[], *count);
            }
            ObsEvent::StaleMessageUsed { count, .. } => {
                self.add("wsnloc_window_fault_stale", &[], *count);
            }
            ObsEvent::NodeDied { .. } => {
                self.add("wsnloc_window_node_deaths", &[], 1);
            }
            ObsEvent::GridUniformFallback { .. } => {
                self.add("wsnloc_window_grid_fallbacks", &[], 1);
            }
            // Context stamps carry no quantity; remaining events have no
            // windowed series (the registry totals still count them).
            _ => {}
        }
    }

    /// Appends the windowed series to an OpenMetrics exposition (the
    /// caller owns the trailing `# EOF`). Rate series render as gauges
    /// holding the windowed total, gauges verbatim, pools as summaries
    /// with `quantile="0.5|0.9|0.99"` plus `_count`/`_sum`.
    pub fn render_openmetrics_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let st = self.locked();
        // Group samples by family name (BTreeMap keys are sorted, so
        // families and their label sets come out in deterministic order).
        let mut last_family = "";
        let fmt_labels = |labels: &[(String, String)]| -> String {
            if labels.is_empty() {
                return String::new();
            }
            let inner: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        for ((name, labels), data) in &st.series {
            match data {
                SeriesData::Rate(ring) => {
                    if last_family != name {
                        let _ = writeln!(out, "# TYPE {name} gauge");
                        let _ = writeln!(
                            out,
                            "# HELP {name} sliding-window total over {} slots",
                            self.slots
                        );
                    }
                    let total: u64 = ring.iter().sum();
                    let _ = writeln!(out, "{name}{} {total}", fmt_labels(labels));
                }
                SeriesData::Gauge(v) => {
                    if last_family != name {
                        let _ = writeln!(out, "# TYPE {name} gauge");
                    }
                    let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels));
                }
                SeriesData::Pool(ring) => {
                    if last_family != name {
                        let _ = writeln!(out, "# TYPE {name} summary");
                        if let Some(unit) = crate::metrics::unit_for_name(name) {
                            let _ = writeln!(out, "# UNIT {name} {unit}");
                        }
                        let _ = writeln!(
                            out,
                            "# HELP {name} sliding-window quantiles over {} slots",
                            self.slots
                        );
                    }
                    let mut pool: Vec<f64> = ring.iter().flatten().copied().collect();
                    pool.sort_by(f64::total_cmp);
                    let pick = |q: f64| -> f64 {
                        if pool.is_empty() {
                            return f64::NAN;
                        }
                        let rank = ((q * pool.len() as f64).ceil() as usize).clamp(1, pool.len());
                        pool[rank - 1]
                    };
                    let base = fmt_labels(labels);
                    for q in ["0.5", "0.9", "0.99"] {
                        let qv: f64 = q.parse().unwrap_or(0.5);
                        let mut with_q: Vec<(String, String)> = labels.clone();
                        with_q.push(("quantile".to_owned(), q.to_owned()));
                        with_q.sort();
                        let _ = writeln!(out, "{name}{} {}", fmt_labels(&with_q), pick(qv));
                    }
                    let _ = writeln!(out, "{name}_count{base} {}", pool.len());
                    let _ = writeln!(out, "{name}_sum{base} {}", pool.iter().sum::<f64>());
                }
            }
            last_family = name;
        }
    }
}

/// Observer adapter: events fold into the window; everything else is a
/// no-op (per-iteration data is too fine-grained for tick-paced slots).
impl InferenceObserver for WindowedMetrics {
    fn on_run_start(&self, _info: &RunInfo) {
        self.add("wsnloc_window_bp_runs", &[], 1);
    }

    fn on_event(&self, event: &ObsEvent) {
        self.fold_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(t: u64) -> Vec<(&'static str, String)> {
        vec![("tenant", t.to_string())]
    }

    fn render(w: &WindowedMetrics) -> String {
        let mut out = String::new();
        w.render_openmetrics_into(&mut out);
        out
    }

    #[test]
    fn rates_retire_with_the_window() {
        let w = WindowedMetrics::new(3);
        w.add("wsnloc_window_epochs_solved", &tenant(1), 2);
        assert_eq!(
            w.window_total("wsnloc_window_epochs_solved", &tenant(1)),
            Some(2)
        );
        w.advance();
        w.add("wsnloc_window_epochs_solved", &tenant(1), 3);
        assert_eq!(
            w.window_total("wsnloc_window_epochs_solved", &tenant(1)),
            Some(5)
        );
        // Two more advances push the first slot out of the window.
        w.advance();
        w.advance();
        assert_eq!(
            w.window_total("wsnloc_window_epochs_solved", &tenant(1)),
            Some(3)
        );
        // Per-tenant isolation: tenant 2 has its own series.
        assert_eq!(
            w.window_total("wsnloc_window_epochs_solved", &tenant(2)),
            None
        );
    }

    #[test]
    fn quantiles_pool_across_slots() {
        let w = WindowedMetrics::new(4);
        for v in [0.1, 0.2] {
            w.observe("wsnloc_window_tick_seconds", &[], v);
        }
        w.advance();
        for v in [0.3, 0.4] {
            w.observe("wsnloc_window_tick_seconds", &[], v);
        }
        // Ceil-rank quantiles over both slots: rank ceil(0.5·4) = 2 and
        // ceil(0.99·4) = 4 of the sorted pool.
        let out = render(&w);
        assert!(out.contains("wsnloc_window_tick_seconds{quantile=\"0.5\"} 0.2\n"));
        assert!(out.contains("wsnloc_window_tick_seconds{quantile=\"0.9\"} 0.4\n"));
        assert!(out.contains("wsnloc_window_tick_seconds{quantile=\"0.99\"} 0.4\n"));
        assert!(out.contains("wsnloc_window_tick_seconds_count 4\n"));
        assert_eq!(
            w.window_total("wsnloc_window_tick_seconds", &[]),
            None,
            "pools have no rate total"
        );
        // Three more advances retire the first slot's samples.
        w.advance();
        w.advance();
        w.advance();
        let out = render(&w);
        assert!(out.contains("wsnloc_window_tick_seconds{quantile=\"0.5\"} 0.3\n"));
        assert!(out.contains("wsnloc_window_tick_seconds_count 2\n"));
    }

    #[test]
    fn events_fold_into_labeled_series() {
        let w = WindowedMetrics::new(8);
        w.fold_event(&ObsEvent::EpochAdvanced {
            tenant: 3,
            epoch: 0,
        });
        w.fold_event(&ObsEvent::TenantShed {
            tenant: 3,
            epoch: 1,
        });
        w.fold_event(&ObsEvent::BoundaryExchange {
            round: 0,
            shard: 5,
            messages: 17,
        });
        w.fold_event(&ObsEvent::MessageDropped {
            iteration: 2,
            count: 4,
        });
        assert_eq!(
            w.window_total("wsnloc_window_epochs_solved", &tenant(3)),
            Some(1)
        );
        assert_eq!(
            w.window_total("wsnloc_window_epochs_shed", &tenant(3)),
            Some(1)
        );
        assert_eq!(
            w.window_total(
                "wsnloc_window_boundary_messages",
                &[("shard", "5".to_owned())]
            ),
            Some(17)
        );
        assert_eq!(w.window_total("wsnloc_window_fault_dropped", &[]), Some(4));
    }

    #[test]
    fn render_is_sorted_and_labeled() {
        let w = WindowedMetrics::new(2);
        w.add("wsnloc_window_epochs_solved", &tenant(10), 4);
        w.add("wsnloc_window_epochs_solved", &tenant(2), 1);
        w.set(
            "wsnloc_window_queue_depth",
            &[("tenant", "we\"ird\n".to_owned())],
            7.0,
        );
        w.observe("wsnloc_window_tick_seconds", &[], 0.25);
        let out = render(&w);
        assert!(out.contains("wsnloc_window_epochs_solved{tenant=\"10\"} 4"));
        assert!(out.contains("wsnloc_window_epochs_solved{tenant=\"2\"} 1"));
        // Label values are escaped per OpenMetrics.
        assert!(out.contains("wsnloc_window_queue_depth{tenant=\"we\\\"ird\\n\"} 7"));
        assert!(out.contains("# TYPE wsnloc_window_tick_seconds summary"));
        assert!(out.contains("# UNIT wsnloc_window_tick_seconds seconds"));
        assert!(out.contains("quantile=\"0.99\""));
        assert!(out.contains("wsnloc_window_tick_seconds_count 1"));
        // One TYPE header per family, not per label set.
        assert_eq!(out.matches("# TYPE wsnloc_window_epochs_solved").count(), 1);
    }

    #[test]
    fn gauges_hold_last_write_across_advances() {
        let w = WindowedMetrics::new(2);
        w.set("wsnloc_window_queue_depth", &tenant(1), 5.0);
        w.advance();
        w.advance();
        assert!(render(&w).contains("wsnloc_window_queue_depth{tenant=\"1\"} 5\n"));
    }
}
