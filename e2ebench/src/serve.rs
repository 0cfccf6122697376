//! Open-loop load against `StreamingEngine`: every tenant observes one
//! static network, its epochs fall due on a fixed period with staggered
//! phases, and a single-threaded generator submits every due epoch
//! before each `tick()`.

use crate::common::{check_finite, ensure, timed, Checked};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsnloc::prelude::*;
use wsnloc_serve::{EngineConfig, MeasurementEpoch, SessionConfig, StreamingEngine};

/// One load phase.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Offered epochs per second over all tenants.
    pub rate: f64,
    /// Seconds during which epochs fall due; the queue drains afterwards.
    pub seconds: f64,
    /// `EngineConfig::capacity_per_tick`.
    pub capacity_per_tick: usize,
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Epochs submitted.
    pub submitted: u64,
    /// Epochs solved.
    pub admitted: u64,
    /// Epochs shed.
    pub shed: u64,
    /// Submit-minus-due seconds of every epoch (generator lateness).
    pub late: Vec<f64>,
    /// Seconds of every `tick()`.
    pub tick: Vec<f64>,
    /// Seconds of every `submit()`.
    pub submit: Vec<f64>,
    /// `pending_total()` before every tick while epochs were falling due.
    pub backlog: Vec<usize>,
}

/// Sleeps until `SPIN` before `at` seconds after `start`, then spins, so
/// the generator wakes on time even when the scheduler is slow to.
fn wait_until(start: Instant, at: f64) {
    const SPIN: f64 = 5e-3;
    let left = at - start.elapsed().as_secs_f64();
    if left > SPIN {
        std::thread::sleep(Duration::from_secs_f64(left - SPIN));
    }
    while start.elapsed().as_secs_f64() < at {
        std::hint::spin_loop();
    }
}

/// Runs one open-loop phase on a fresh engine, one session per network,
/// with `observer` attached through `EngineBuilder::observer`. Fails the
/// run if a solved epoch has a non-finite estimate or if
/// `admitted + shed != submitted`.
pub fn run_load(
    session: &SessionConfig,
    tenants: &[Network],
    load: &Load,
    observer: Arc<dyn InferenceObserver + Send + Sync>,
) -> Checked<LoadStats> {
    let config = EngineConfig {
        capacity_per_tick: load.capacity_per_tick,
        shed_policy: DropPolicy::DecayToPrior { decay: 0.5 },
    };
    let mut engine = StreamingEngine::builder(config)
        .observer(observer)
        .build()
        .map_err(|e| format!("building the engine: {e}"))?;
    let ids: Vec<_> = tenants
        .iter()
        .map(|_| engine.open_session(session.clone()))
        .collect();
    let index: BTreeMap<u64, usize> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.raw(), i))
        .collect();

    let n = tenants.len();
    let period = n as f64 / load.rate;
    let phase = |i: usize| i as f64 * period / n as f64;
    let mut next = vec![0u64; n];
    // Epoch numbers of each tenant's queued epochs, in submit order.
    let mut queued: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
    let mut stats = LoadStats::default();
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        let open = now < load.seconds;
        if open {
            for i in 0..n {
                loop {
                    let due = phase(i) + next[i] as f64 * period;
                    if due > now || due >= load.seconds {
                        break;
                    }
                    let k = next[i];
                    let epoch = MeasurementEpoch::new(tenants[i].clone(), (i as u64) << 32 | k);
                    let (accepted, secs) = timed(|| engine.submit(ids[i], epoch));
                    ensure(accepted, || format!("tenant {i}: submit refused"))?;
                    stats.submit.push(secs);
                    stats.late.push(start.elapsed().as_secs_f64() - due);
                    queued[i].push_back(k);
                    next[i] += 1;
                    stats.submitted += 1;
                }
            }
        }
        let pending = engine.pending_total();
        if pending == 0 {
            if !open {
                break;
            }
            let wake = (0..n)
                .map(|i| phase(i) + next[i] as f64 * period)
                .fold(load.seconds, f64::min);
            wait_until(start, wake);
            continue;
        }
        if open {
            stats.backlog.push(pending);
        }
        let (updates, secs) = timed(|| engine.tick());
        stats.tick.push(secs);
        for u in updates {
            let i = *index
                .get(&u.tenant.raw())
                .ok_or_else(|| format!("update for unknown tenant {}", u.tenant))?;
            let k = queued[i]
                .pop_front()
                .ok_or_else(|| format!("tenant {i}: update without a queued epoch"))?;
            if u.degraded {
                stats.shed += 1;
            } else {
                stats.admitted += 1;
                check_finite(&format!("tenant {i} epoch {k}"), &u.result)?;
            }
        }
    }
    ensure(stats.admitted + stats.shed == stats.submitted, || {
        format!(
            "rate {:.1}: admitted {} + shed {} != submitted {}",
            load.rate, stats.admitted, stats.shed, stats.submitted
        )
    })?;
    ensure(queued.iter().all(VecDeque::is_empty), || {
        format!("rate {:.1}: epochs left queued after the drain", load.rate)
    })?;
    Ok(stats)
}
