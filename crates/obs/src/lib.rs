//! # wsnloc-obs
//!
//! Convergence telemetry and structured observability for the loopy-BP
//! inference stack. Before this crate existed, the only visibility into a
//! BP run was a single wall-clock timestamp; the non-convergence regimes
//! that dominate multipath deployments were invisible until the final
//! posterior came out wrong. This crate makes the loop *observable while it
//! runs*:
//!
//! - [`InferenceObserver`] — the hook trait every BP engine reports into:
//!   run metadata, per-iteration records (per-node belief residuals,
//!   message/byte counts, damping, schedule phase), span-style timings
//!   around model build / prior init / message passing / estimate
//!   extraction, structured events, and a convergence verdict.
//! - [`NullObserver`] — the default. Engines check
//!   [`InferenceObserver::wants_residuals`] before computing anything
//!   observer-only, so a run with the null observer does no residual work
//!   and allocates no trace storage (asserted by the
//!   [`accounting`] counters in tests).
//! - [`TraceObserver`] — records everything into an in-memory [`RunTrace`]
//!   per run, behind a mutex so the synchronous-schedule rayon path can
//!   report from worker threads.
//! - [`TraceSink`] / [`JsonlSink`] — serialize recorded traces to JSON
//!   Lines (`trace.jsonl`), one self-describing record per line, with a
//!   hand-rolled encoder because the build environment has no serde. The
//!   schema is documented in the README ("Observability") and on
//!   [`write_jsonl`]. The sink flushes on drop so panicked runs still
//!   leave parseable lines behind.
//!
//! On top of the raw event stream sits the aggregation tier:
//!
//! - [`MetricsRegistry`] — sharded [`Counter`]s, [`Gauge`]s, and
//!   log-bucket [`Histogram`]s with an OpenMetrics text exporter
//!   ([`MetricsRegistry::render_openmetrics`]).
//! - [`MetricsObserver`] — folds every [`ObsEvent`], iteration record,
//!   and span into a [`MetricsSnapshot`] (per-iteration residual
//!   quantiles, comm totals, fault counts) while mirroring the totals
//!   into a registry. The fold is *order-insensitive*, which is what
//!   makes trace replay equal the live run.
//! - [`SpanProfiler`] — hierarchical wall-clock attribution
//!   (self/child split, flame-table rendering) over the fixed BP span
//!   hierarchy; [`Stopwatch`] is the one sanctioned timing primitive
//!   outside this crate (enforced by `cargo xtask lint`).
//! - [`analyze_str`] / [`replay()`] — parse `trace.jsonl` back into
//!   [`RunTrace`]s and feed them through the same observers a live run
//!   uses, so `repro analyze` and in-process metrics share one path.
//!
//! For *live* deployments (the streaming engine in `wsnloc-serve`) a
//! telemetry tier sits on top of all of the above:
//!
//! - [`WindowedMetrics`] — fixed-slot ring buffers over labeled series
//!   (per-tenant epochs solved/shed, per-shard boundary-message volume,
//!   tick-latency quantile pools) advanced once per engine tick, so
//!   sliding-window rates and quantiles are available while the run is
//!   still going. Rotation is caller-driven, never wall-clock-driven.
//! - [`TelemetryServer`] — a hand-rolled, std-only HTTP/1.1 listener
//!   exposing `/metrics` (OpenMetrics: registry totals + windowed
//!   series), `/healthz` (liveness, last-tick age, span snapshot), and
//!   `/tenants` (JSON rollup) from a [`TelemetryHub`] the engine
//!   updates.
//! - [`SampledObserver`] — seeded run-level trace sampling
//!   ([`SamplePolicy`]) with exact kept/dropped accounting;
//!   [`SamplePolicy::All`] is bit-transparent.
//! - [`ObsEvent::Context`] correlation stamps (tenant / epoch / shard /
//!   outer round) let downstream consumers attribute interleaved event
//!   streams.
//!
//! Residual conventions (what "belief residual" means per backend):
//! grid beliefs report the L1 distance between successive cell-mass
//! vectors (in `[0, 2]`) plus the KL divergence of the new belief from the
//! old; particle and Gaussian beliefs report the belief-mean displacement
//! in meters. All residuals are deterministic functions of the beliefs, so
//! for the synchronous schedule they are bit-identical across thread
//! counts.

#![warn(missing_docs)]

pub mod accounting;
pub mod fold;
pub mod metrics;
pub mod observer;
pub mod profiler;
pub mod replay;
pub mod sampling;
pub mod sink;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use wsnloc_net::accounting::CommStats;

pub use fold::{EventCounts, IterationMetrics, MetricsObserver, MetricsSnapshot};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use observer::{
    FanoutObserver, InferenceObserver, IterationRecord, NodeResidual, NullObserver, ObsEvent,
    RunInfo, RunSummary, SpanKind,
};
pub use profiler::{SpanGuard, SpanProfiler, SpanSnapshotRow, Stopwatch};
pub use replay::{
    analyze_str, parse_json, parse_jsonl, replay, JsonValue, ReplayError, TraceAnalysis,
};
pub use sampling::{SamplePolicy, SampledObserver};
pub use sink::{write_jsonl, JsonlSink, TraceSink, VecSink};
pub use telemetry::{TelemetryHub, TelemetryServer};
pub use trace::{RunTrace, TraceObserver};
pub use window::WindowedMetrics;
