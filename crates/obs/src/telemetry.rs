//! Embedded scrape endpoint: [`TelemetryHub`] + [`TelemetryServer`].
//!
//! Long-running engines need to answer "is it alive, and how fast is it
//! going" *while* they run, without a metrics dependency the build
//! environment does not have. This module hand-rolls the smallest
//! useful HTTP/1.1 surface over [`std::net::TcpListener`]:
//!
//! | route      | content                                             |
//! |------------|-----------------------------------------------------|
//! | `/metrics` | OpenMetrics text: [`MetricsRegistry`] totals plus [`WindowedMetrics`] windowed series, one `# EOF` |
//! | `/healthz` | JSON liveness: tick count, seconds since last tick   |
//! | `/tenants` | JSON rollup the engine publishes per tick           |
//!
//! The server is deliberately primitive: blocking accept loop on one
//! thread, one request per connection, GET only. That is exactly enough
//! for `curl`, Prometheus-style scrapers, and `repro top`, and it keeps
//! the implementation auditable. Shutdown is cooperative: a flag flips,
//! then a loopback connection unblocks `accept` so the thread can exit
//! and be joined — no socket leaks, no detached threads at drop.
//!
//! The [`TelemetryHub`] is the engine-facing half: a cheaply clonable
//! bundle of registry + window that the engine updates
//! ([`TelemetryHub::note_tick`], [`TelemetryHub::set_tenants_json`])
//! and the server reads. Engines
//! own a hub whether or not a server is attached, so instrumentation
//! cost does not depend on whether anyone is scraping.

use crate::metrics::MetricsRegistry;
use crate::profiler::Stopwatch;
use crate::window::WindowedMetrics;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Debug, Default)]
struct HubState {
    /// Stopwatch restarted at every tick; `None` before the first.
    last_tick: Option<Stopwatch>,
    /// Engine-published JSON rollup served verbatim at `/tenants`.
    tenants_json: String,
}

/// Shared telemetry state: the bridge between a live engine (writer)
/// and a [`TelemetryServer`] (reader). Clone freely — all fields are
/// `Arc`s.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    registry: Arc<MetricsRegistry>,
    window: Arc<WindowedMetrics>,
    ticks: Arc<AtomicU64>,
    state: Arc<Mutex<HubState>>,
}

impl TelemetryHub {
    /// A hub over the given registry and window.
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>, window: Arc<WindowedMetrics>) -> Self {
        TelemetryHub {
            registry,
            window,
            ticks: Arc::new(AtomicU64::new(0)),
            state: Arc::new(Mutex::new(HubState::default())),
        }
    }

    fn locked(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The metrics registry this hub exports.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The windowed-series tier this hub exports.
    #[must_use]
    pub fn window(&self) -> &Arc<WindowedMetrics> {
        &self.window
    }

    /// Records that the engine completed a scheduler tick (drives the
    /// `/healthz` last-tick age and tick counter).
    pub fn note_tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.locked().last_tick = Some(Stopwatch::start());
    }

    /// Ticks noted so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Seconds since the last [`TelemetryHub::note_tick`], or `None`
    /// before the first tick.
    #[must_use]
    pub fn last_tick_age_secs(&self) -> Option<f64> {
        self.locked()
            .last_tick
            .as_ref()
            .map(Stopwatch::elapsed_secs)
    }

    /// Publishes the JSON document `/tenants` serves. The engine owns
    /// the shape; the hub stores the string verbatim.
    pub fn set_tenants_json(&self, json: String) {
        self.locked().tenants_json = json;
    }

    /// Body for `/metrics`: registry exposition with the windowed
    /// series spliced in before the single trailing `# EOF`.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut text = self.registry.render_openmetrics();
        if let Some(stripped) = text.strip_suffix("# EOF\n") {
            text.truncate(stripped.len());
        }
        self.window.render_openmetrics_into(&mut text);
        text.push_str("# EOF\n");
        text
    }

    /// Body for `/healthz`: a small JSON liveness document. `ok` is
    /// true once the engine has ticked at least once.
    #[must_use]
    pub fn render_healthz(&self) -> String {
        use std::fmt::Write as _;
        let ticks = self.ticks();
        let age = self.last_tick_age_secs();
        let mut out = String::from("{");
        let _ = write!(out, "\"ok\":{}", ticks > 0);
        let _ = write!(out, ",\"ticks\":{ticks}");
        match age {
            Some(a) => {
                let _ = write!(out, ",\"last_tick_age_secs\":{a}");
            }
            None => out.push_str(",\"last_tick_age_secs\":null"),
        }
        out.push('}');
        out
    }

    /// Body for `/tenants` (empty object before the first publish).
    #[must_use]
    pub fn render_tenants(&self) -> String {
        let st = self.locked();
        if st.tenants_json.is_empty() {
            "{}".to_owned()
        } else {
            st.tenants_json.clone()
        }
    }
}

/// The blocking scrape server (see module docs for routes). Bind with
/// [`TelemetryServer::start`]; port 0 picks a free port, reported by
/// [`TelemetryServer::local_addr`]. Stops (and joins its thread) on
/// [`TelemetryServer::shutdown`] or drop.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `hub` from a
    /// background accept loop until shutdown.
    pub fn start(addr: &str, hub: TelemetryHub) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("wsnloc-telemetry".to_owned())
            .spawn(move || accept_loop(&listener, &hub, &stop_flag))?;
        Ok(TelemetryServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway loopback connection; if that
        // fails the listener is already gone and the thread exits alone.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, hub: &TelemetryHub, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // One short-deadline request per connection: a stalled client
        // cannot wedge the scrape loop for long.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = serve_one(stream, hub);
    }
}

/// Reads one request head, routes it, writes one response.
fn serve_one(mut stream: TcpStream, hub: &TelemetryHub) -> std::io::Result<()> {
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The OpenMetrics media type; plain enough for curl too.
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                hub.render_metrics(),
            ),
            "/healthz" => ("200 OK", "application/json", hub.render_healthz()),
            "/tenants" => ("200 OK", "application/json", hub.render_tenants()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "routes: /metrics /healthz /tenants\n".to_owned(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> TelemetryHub {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("wsnloc_test", "test counter").add(3);
        let window = Arc::new(WindowedMetrics::new(4));
        window.add(
            "wsnloc_window_epochs_solved",
            &[("tenant", "1".to_owned())],
            2,
        );
        TelemetryHub::new(registry, window)
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn metrics_route_serves_registry_and_window_with_single_eof() {
        let mut server = TelemetryServer::start("127.0.0.1:0", hub()).expect("bind");
        let resp = get(server.local_addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("application/openmetrics-text"));
        assert!(resp.contains("wsnloc_test_total 3"));
        assert!(resp.contains("wsnloc_window_epochs_solved{tenant=\"1\"} 2"));
        assert_eq!(resp.matches("# EOF").count(), 1);
        assert!(resp.trim_end().ends_with("# EOF"));
        server.shutdown();
    }

    #[test]
    fn healthz_reports_tick_age() {
        let h = hub();
        let mut server = TelemetryServer::start("127.0.0.1:0", h.clone()).expect("bind");
        let body = |resp: &str| {
            resp.split_once("\r\n\r\n")
                .expect("response body")
                .1
                .to_owned()
        };
        let before = body(&get(server.local_addr(), "/healthz"));
        assert_eq!(
            before,
            r#"{"ok":false,"ticks":0,"last_tick_age_secs":null}"#
        );
        h.note_tick();
        let after = body(&get(server.local_addr(), "/healthz"));
        let age = after
            .strip_prefix(r#"{"ok":true,"ticks":1,"last_tick_age_secs":"#)
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unexpected /healthz body {after}"));
        let age: f64 = age.parse().expect("age is a number");
        assert!(age >= 0.0);
        server.shutdown();
    }

    #[test]
    fn tenants_route_serves_published_json_and_404s_elsewhere() {
        let h = hub();
        h.set_tenants_json("{\"tenants\":[{\"id\":1}]}".to_owned());
        let mut server = TelemetryServer::start("127.0.0.1:0", h).expect("bind");
        let tenants = get(server.local_addr(), "/tenants");
        assert!(tenants.contains("{\"tenants\":[{\"id\":1}]}"));
        let missing = get(server.local_addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.shutdown();
        // Idempotent shutdown and clean drop.
        server.shutdown();
    }
}
