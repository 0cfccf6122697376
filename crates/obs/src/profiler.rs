//! Hierarchical wall-clock profiling: [`Stopwatch`] and [`SpanProfiler`].
//!
//! `Stopwatch` is the single sanctioned timing primitive of the
//! workspace: `cargo xtask lint` rejects `Instant::now()` everywhere
//! outside `wsnloc-obs`, so every measured duration flows through this
//! module and is therefore visible to the profiler and the metrics
//! tier.
//!
//! `SpanProfiler` aggregates labelled spans into a tree with self/child
//! wall-clock attribution. Its [`InferenceObserver`] impl maps the
//! *fixed* BP phase hierarchy (`run` → `model_build`/`prior_init`/
//! `message_passing`/`estimate_extract`, with per-iteration updates
//! under `message_passing`) onto that tree. The mapping is structural,
//! not stack-based, so replaying a recorded trace produces the same tree
//! as the live run that emitted it.
//!
//! [`SpanProfiler::flame_table`] renders the tree as an indented table
//! with calls, total seconds, self seconds (total minus attributed
//! children), and percent of root time.

use crate::observer::{InferenceObserver, IterationRecord, RunInfo, SpanKind};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A started wall-clock timer. The only place the workspace is allowed
/// to read the monotonic clock (enforced by `cargo xtask lint`).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One node of the span tree: a label under a parent, accumulated over
/// every call that hit it.
#[derive(Debug, Clone)]
struct SpanNode {
    label: &'static str,
    children: Vec<usize>,
    /// Seconds explicitly recorded against this node.
    total_secs: f64,
    calls: u64,
}

#[derive(Debug, Default)]
struct ProfState {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
}

impl ProfState {
    /// Index of `label` under `parent`, creating the node if new.
    fn child(&mut self, parent: Option<usize>, label: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&idx| self.nodes[idx].label == label) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode {
            label,
            children: Vec::new(),
            total_secs: 0.0,
            calls: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Walks `path` from the roots, creating nodes as needed, and adds
    /// `secs` and one call to the final node.
    fn record_path(&mut self, path: &[&'static str], secs: f64) {
        let mut parent = None;
        for label in path {
            parent = Some(self.child(parent, label));
        }
        if let Some(idx) = parent {
            self.nodes[idx].total_secs += secs;
            self.nodes[idx].calls += 1;
        }
    }

    /// Display total of a node: explicitly recorded seconds, or the sum
    /// of its children when nothing was recorded directly (aggregate
    /// nodes like `run`).
    fn display_total(&self, idx: usize) -> f64 {
        let n = &self.nodes[idx];
        let child_sum: f64 = n.children.iter().map(|&c| self.display_total(c)).sum();
        if n.total_secs > 0.0 {
            n.total_secs
        } else {
            child_sum
        }
    }
}

/// A hierarchical span profiler: aggregates labelled wall-clock spans
/// into a tree and renders a flame-style attribution table.
///
/// Interior mutability behind a mutex lets it observe runs that report
/// from worker threads; a poisoned lock (a panicking reporter) is
/// recovered because every mutation leaves the tree consistent.
#[derive(Debug, Default)]
pub struct SpanProfiler {
    state: Mutex<ProfState>,
}

impl SpanProfiler {
    /// A fresh, empty profiler.
    #[must_use]
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    fn locked(&self) -> MutexGuard<'_, ProfState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `secs` and one call to the node at `path` (root-first),
    /// creating intermediate nodes as needed. This is how structural
    /// (non-stack) sources like the observer callbacks feed the tree.
    pub fn record_path(&self, path: &[&'static str], secs: f64) {
        self.locked().record_path(path, secs);
    }

    /// Total seconds attributed to the node at `path`, or `None` if no
    /// such span was ever recorded.
    #[must_use]
    pub fn total_secs(&self, path: &[&'static str]) -> Option<f64> {
        let st = self.locked();
        let mut parent: Option<usize> = None;
        for label in path {
            let siblings = match parent {
                Some(p) => &st.nodes[p].children,
                None => &st.roots,
            };
            parent = siblings
                .iter()
                .copied()
                .find(|&idx| st.nodes[idx].label == *label);
            parent?;
        }
        parent.map(|idx| st.display_total(idx))
    }

    /// A cheap, consistent snapshot of the span tree: rows in
    /// depth-first, label-sorted order, each with accumulated calls and
    /// total/self seconds. Safe to call mid-run: the lock is held only
    /// for the copy.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanSnapshotRow> {
        let st = self.locked();
        let mut rows = Vec::with_capacity(st.nodes.len());
        // (node, depth) DFS with label-sorted children.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut roots = st.roots.clone();
        roots.sort_by_key(|&idx| st.nodes[idx].label);
        for &r in roots.iter().rev() {
            stack.push((r, 0));
        }
        while let Some((idx, depth)) = stack.pop() {
            let node = &st.nodes[idx];
            let total = st.display_total(idx);
            let child_sum: f64 = node.children.iter().map(|&c| st.display_total(c)).sum();
            rows.push(SpanSnapshotRow {
                label: node.label,
                depth,
                calls: node.calls,
                total_secs: total,
                self_secs: (total - child_sum).max(0.0),
            });
            let mut kids = node.children.clone();
            kids.sort_by_key(|&c| st.nodes[c].label);
            for &c in kids.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        rows
    }

    /// Renders the span tree as an indented flame table. Children are
    /// sorted by label so the rendering is independent of arrival order
    /// (live runs and trace replays produce identical tables). Built on
    /// [`SpanProfiler::snapshot`], so it too is safe mid-run.
    #[must_use]
    pub fn flame_table(&self) -> String {
        use std::fmt::Write as _;
        let rows = self.snapshot();
        let grand_total: f64 = rows
            .iter()
            .filter(|r| r.depth == 0)
            .map(|r| r.total_secs)
            .sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12} {:>7}",
            "span", "calls", "total s", "self s", "%"
        );
        for row in &rows {
            let pct = if grand_total > 0.0 {
                100.0 * row.total_secs / grand_total
            } else {
                0.0
            };
            let label = format!("{:indent$}{}", "", row.label, indent = 2 * row.depth);
            let _ = writeln!(
                out,
                "{label:<40} {:>8} {:>12.6} {:>12.6} {pct:>7.1}",
                row.calls, row.total_secs, row.self_secs
            );
        }
        out
    }
}

/// One row of a [`SpanProfiler::snapshot`]: a span-tree node in
/// depth-first order with its accumulated attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshotRow {
    /// Span label.
    pub label: &'static str,
    /// Nesting depth (0 = root span).
    pub depth: usize,
    /// Times the span was recorded.
    pub calls: u64,
    /// Display total: explicit seconds, or child sum for aggregates.
    pub total_secs: f64,
    /// Total minus attributed children, floored at zero.
    pub self_secs: f64,
}

/// The fixed BP phase hierarchy: every observed run maps onto
/// `run` → phase spans, with per-iteration updates nested under
/// `message_passing`. Structural rather than stack-based, so live runs
/// and trace replays build identical trees regardless of callback
/// ordering.
impl InferenceObserver for SpanProfiler {
    fn on_run_start(&self, _info: &RunInfo) {
        // Count the run; its display total derives from the children.
        self.record_path(&["run"], 0.0);
    }

    fn on_iteration(&self, record: &IterationRecord) {
        self.record_path(&["run", "message_passing", "iteration"], record.secs);
    }

    fn on_span(&self, span: SpanKind, secs: f64) {
        self.record_path(&["run", span.label()], secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::RunSummary;
    use wsnloc_net::accounting::CommStats;

    fn record(i: usize, secs: f64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            max_shift: 1.0,
            comm: CommStats {
                messages: 2,
                bytes: 48,
            },
            damping: 0.0,
            schedule: "synchronous",
            secs,
            residuals: Vec::new(),
        }
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let w = Stopwatch::start();
        assert!(w.elapsed_secs() >= 0.0);
    }

    #[test]
    fn observer_callbacks_build_the_fixed_hierarchy() {
        let prof = SpanProfiler::new();
        let info = RunInfo {
            backend: "particle",
            nodes: 4,
            free: 2,
            edges: 3,
            max_iterations: 2,
            tolerance: 0.0,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 24,
            seed: 1,
        };
        prof.on_run_start(&info);
        prof.on_span(SpanKind::PriorInit, 0.010);
        prof.on_iteration(&record(0, 0.005));
        prof.on_iteration(&record(1, 0.007));
        prof.on_span(SpanKind::MessagePassing, 0.020);
        prof.on_run_end(&RunSummary {
            iterations: 2,
            converged: true,
            comm: CommStats {
                messages: 4,
                bytes: 96,
            },
        });

        let iter_total = prof
            .total_secs(&["run", "message_passing", "iteration"])
            .expect("iterations recorded");
        assert!((iter_total - 0.012).abs() < 1e-12);
        let mp = prof
            .total_secs(&["run", "message_passing"])
            .expect("message passing recorded");
        assert!((mp - 0.020).abs() < 1e-12);
        // Run total derives from its children (no direct seconds).
        let run = prof.total_secs(&["run"]).expect("run recorded");
        assert!((run - 0.030).abs() < 1e-12);
        // Self time of message_passing excludes the iteration children.
        let table = prof.flame_table();
        let mp_row = table
            .lines()
            .find(|l| l.trim_start().starts_with("message_passing"))
            .expect("message_passing row");
        assert!(mp_row.contains("0.008000"), "self time row: {mp_row}");
    }

    #[test]
    fn ingest_order_does_not_change_the_table() {
        // Live runs report prior_init before the iterations; trace
        // replays deliver all iterations before any span. Same table.
        let live = SpanProfiler::new();
        live.on_span(SpanKind::PriorInit, 0.004);
        live.on_iteration(&record(0, 0.001));
        live.on_span(SpanKind::MessagePassing, 0.002);

        let replayed = SpanProfiler::new();
        replayed.on_iteration(&record(0, 0.001));
        replayed.on_span(SpanKind::PriorInit, 0.004);
        replayed.on_span(SpanKind::MessagePassing, 0.002);

        assert_eq!(live.flame_table(), replayed.flame_table());
    }

    #[test]
    fn profiler_does_not_request_residuals() {
        assert!(!SpanProfiler::new().wants_residuals());
    }

    #[test]
    fn snapshot_works_with_spans_still_open() {
        // A run that has started but not ended: `run` and
        // `message_passing` are still open while we snapshot.
        let prof = SpanProfiler::new();
        prof.on_run_start(&RunInfo {
            backend: "grid",
            nodes: 3,
            free: 2,
            edges: 2,
            max_iterations: 4,
            tolerance: 0.0,
            damping: 0.0,
            schedule: "synchronous",
            message_bytes: 8,
            seed: 1,
        });
        prof.on_iteration(&record(0, 0.5));
        let rows = prof.snapshot();
        let run = rows
            .iter()
            .find(|r| r.label == "run" && r.depth == 0)
            .expect("run row present");
        // The open run has no seconds of its own yet; the recorded
        // iteration drives the display total.
        assert!((run.total_secs - 0.5).abs() < 1e-12);
        let iter = rows
            .iter()
            .find(|r| r.label == "iteration")
            .expect("iteration row present");
        assert_eq!(iter.depth, 2);
        assert_eq!(iter.calls, 1);
        // The snapshot did not freeze the tree: later callbacks still land.
        prof.on_iteration(&record(1, 0.25));
        let after = prof.snapshot();
        let iter_after = after
            .iter()
            .find(|r| r.label == "iteration")
            .expect("iteration row");
        assert_eq!(iter_after.calls, 2);
        assert!((after[0].total_secs - 0.75).abs() < 1e-12);
    }

    #[test]
    fn flame_table_matches_snapshot_rows() {
        let prof = SpanProfiler::new();
        prof.record_path(&["run"], 0.0);
        prof.record_path(&["run", "model_build"], 0.25);
        let table = prof.flame_table();
        for row in prof.snapshot() {
            assert!(table.contains(row.label), "row {} in table", row.label);
        }
    }
}
