//! The message-transport seam between BP engines and the (possibly
//! faulty) communication fabric.
//!
//! Every inter-node BP message conceptually crosses a radio link. A
//! [`Transport`] decides what actually arrives: the perfect transport
//! is a zero-cost pass-through (engines detect it and run the exact
//! fault-free code path, bit-identical to not having a transport at
//! all), while a faulted transport rolls per-directed-link fates each
//! iteration from a [`FaultPlan`] — message loss (i.i.d. or bursty),
//! node death and stale delivery.
//!
//! The state machine per directed link is deliberately simple:
//!
//! * **Fresh delivery** — the receiver sees the sender's current belief
//!   (snapshotted at the iteration boundary, which is exactly what a
//!   real distributed implementation would broadcast) at full weight.
//! * **Stale delivery** — a message arrived, but it is a duplicate of
//!   previously seen content; the link's age resets without a content
//!   refresh.
//! * **Drop** — nothing arrived. The receiver substitutes per the
//!   plan's [`DropPolicy`]: hold the last received content at full
//!   weight, or apply it with weight `decay^age` so a long-silent
//!   neighbor fades back to the receiver's prior.
//! * **Never received** — the link has not delivered anything yet; the
//!   edge contributes nothing, exactly as if it were absent from the
//!   graph this iteration.
//!
//! Dead nodes stop transmitting (their outgoing links stop refreshing)
//! and stop updating (the engine freezes their beliefs), but their
//! neighbors keep localizing from held state.

use std::sync::Arc;

use crate::mrf::SpatialMrf;
use wsnloc_geom::rng::Xoshiro256pp;
use wsnloc_net::faults::{DropPolicy, FaultPlan, LossModel};
use wsnloc_obs::{InferenceObserver, ObsEvent};

/// How an engine's messages reach their receivers.
///
/// [`Transport::perfect`] (also [`Default`]) delivers everything;
/// engines compile it down to the pre-existing fault-free path.
/// [`Transport::faulted`] injects the given [`FaultPlan`]; a
/// [`FaultPlan::none`] plan collapses back to the perfect transport so
/// "no faults" is always the identical code path.
#[derive(Debug, Clone, Default)]
pub struct Transport {
    plan: Option<Arc<FaultPlan>>,
}

impl Transport {
    /// The lossless transport: every message arrives, every node lives.
    #[must_use]
    pub fn perfect() -> Self {
        Transport { plan: None }
    }

    /// A transport that injects `plan`. An identity plan
    /// ([`FaultPlan::is_none`]) collapses to [`Transport::perfect`].
    #[must_use]
    pub fn faulted(plan: Arc<FaultPlan>) -> Self {
        let plan = if plan.is_none() { None } else { Some(plan) };
        Transport { plan }
    }

    /// Instantiates per-run fault state for one BP run, or `None` for
    /// the perfect transport. `run_seed` (the engine's `opts.seed`) is
    /// mixed with the plan seed so trials differ while each run stays
    /// replayable.
    pub(crate) fn session<B: Clone>(
        &self,
        mrf: &SpatialMrf,
        run_seed: u64,
    ) -> Option<TransportSession<B>> {
        self.plan
            .as_ref()
            .map(|p| TransportSession::new(Arc::clone(p), mrf, run_seed))
    }
}

/// Per-run fault state: link fates are rolled once per iteration
/// (sequentially, before the — possibly parallel — node updates), after
/// which the session is consulted read-only.
///
/// Directed links are indexed `2·e` (into `edge.u`, i.e. sent by
/// `edge.v`) and `2·e + 1` (into `edge.v`, sent by `edge.u`).
pub(crate) struct TransportSession<B> {
    plan: Arc<FaultPlan>,
    root: Xoshiro256pp,
    /// Scheduled death iteration per node, `None` = immortal.
    death_at: Vec<Option<usize>>,
    alive: Vec<bool>,
    /// Sender node per directed link.
    senders: Vec<usize>,
    /// Receiver node per directed link.
    receivers: Vec<usize>,
    /// Whether the directed link matters (receiver is a free variable).
    active: Vec<bool>,
    /// Whether the sender is a fixed (anchor) node — its "content" is
    /// its position, so no belief snapshot is kept.
    sender_fixed: Vec<bool>,
    /// Gilbert–Elliott channel state per directed link (`true` = Bad).
    ge_bad: Vec<bool>,
    /// Iterations since the link's content was last refreshed.
    age: Vec<u64>,
    /// Whether the link has ever delivered anything.
    received: Vec<bool>,
    /// Last delivered belief snapshot for free-sender links.
    last: Vec<Option<B>>,
}

impl<B: Clone> TransportSession<B> {
    fn new(plan: Arc<FaultPlan>, mrf: &SpatialMrf, run_seed: u64) -> Self {
        let n = mrf.len();
        let root = Xoshiro256pp::seed_from(plan.seed).split(run_seed);
        let mut death_at = vec![None; n];
        for d in plan.death_schedule(&mrf.free_vars()) {
            if d.node < n {
                death_at[d.node] = Some(d.at_iteration);
            }
        }
        let links = 2 * mrf.edges().len();
        let mut senders = Vec::with_capacity(links);
        let mut receivers = Vec::with_capacity(links);
        let mut active = Vec::with_capacity(links);
        let mut sender_fixed = Vec::with_capacity(links);
        for edge in mrf.edges() {
            // dir 2e: into edge.u; dir 2e+1: into edge.v.
            for (recv, send) in [(edge.u, edge.v), (edge.v, edge.u)] {
                senders.push(send);
                receivers.push(recv);
                active.push(mrf.fixed(recv).is_none());
                sender_fixed.push(mrf.fixed(send).is_some());
            }
        }
        TransportSession {
            plan,
            root,
            death_at,
            alive: vec![true; n],
            senders,
            receivers,
            active,
            sender_fixed,
            ge_bad: vec![false; links],
            age: vec![0; links],
            received: vec![false; links],
            last: (0..links).map(|_| None).collect(),
        }
    }

    /// True iff `u` is still transmitting and updating.
    pub(crate) fn node_alive(&self, u: usize) -> bool {
        self.alive.get(u).copied().unwrap_or(true)
    }

    /// Rolls this iteration's fates: processes scheduled deaths, then
    /// decides per directed link whether a fresh, stale, or no message
    /// arrives, snapshotting sender beliefs for fresh deliveries.
    /// Must be called once at the top of every BP iteration, before the
    /// node updates; `beliefs` is the full belief vector indexed by
    /// node. Emits aggregate fault events into `obs`.
    pub(crate) fn begin_iteration(
        &mut self,
        iter: usize,
        beliefs: &[B],
        obs: &dyn InferenceObserver,
    ) {
        for u in 0..self.death_at.len() {
            if self.alive[u] && self.death_at[u].is_some_and(|t| t <= iter) {
                self.alive[u] = false;
                obs.on_event(&ObsEvent::NodeDied {
                    iteration: iter,
                    node: u,
                });
            }
        }
        let mut dropped = 0u64;
        let mut stale = 0u64;
        let iter_tag = ((iter as u64) + 1) << 32;
        for dir in 0..self.senders.len() {
            if !self.active[dir] || !self.alive[self.receivers[dir]] {
                continue;
            }
            let mut rng = self.root.split(iter_tag | dir as u64);
            let lost = match self.plan.loss {
                LossModel::None => false,
                LossModel::Iid { rate } => rng.f64() < rate,
                LossModel::GilbertElliott {
                    p_bad,
                    p_recover,
                    loss_good,
                    loss_bad,
                } => {
                    let bad = if self.ge_bad[dir] {
                        rng.f64() >= p_recover
                    } else {
                        rng.f64() < p_bad
                    };
                    self.ge_bad[dir] = bad;
                    rng.f64() < if bad { loss_bad } else { loss_good }
                }
            };
            if !self.alive[self.senders[dir]] {
                // A dead sender transmits nothing; the link just ages.
                // Reported through NodeDied, not per-message drops.
                if self.received[dir] {
                    self.age[dir] = self.age[dir].saturating_add(1);
                }
                continue;
            }
            if lost {
                dropped += 1;
                if self.received[dir] {
                    self.age[dir] = self.age[dir].saturating_add(1);
                }
                continue;
            }
            // Delivered. Possibly stale: content is a duplicate of what
            // the receiver already has (only meaningful once something
            // has been received).
            if self.received[dir] && self.plan.stale_prob > 0.0 && rng.f64() < self.plan.stale_prob
            {
                stale += 1;
                self.age[dir] = 0;
                continue;
            }
            self.received[dir] = true;
            self.age[dir] = 0;
            if !self.sender_fixed[dir] {
                self.last[dir] = Some(beliefs[self.senders[dir]].clone());
            }
        }
        if dropped > 0 {
            obs.on_event(&ObsEvent::MessageDropped {
                iteration: iter,
                count: dropped,
            });
        }
        if stale > 0 {
            obs.on_event(&ObsEvent::StaleMessageUsed {
                iteration: iter,
                count: stale,
            });
        }
    }

    /// What edge `e` delivers into its receiver this iteration
    /// (`receiver_is_v` selects which endpoint is receiving): `None` when
    /// nothing has ever arrived on the link, else the staleness discount
    /// `alpha` in `(0, 1]` (`1.0` = full weight) and the held belief
    /// snapshot. The snapshot is `None` for fixed (anchor) senders, whose
    /// content is their position.
    pub(crate) fn delivery(&self, e: usize, receiver_is_v: bool) -> Option<(f64, Option<&B>)> {
        let dir = 2 * e + usize::from(receiver_is_v);
        if !self.received[dir] {
            return None;
        }
        let age = self.age[dir];
        let alpha = if age == 0 {
            1.0
        } else {
            match self.plan.drop_policy {
                DropPolicy::HoldLast => 1.0,
                DropPolicy::DecayToPrior { decay } => {
                    let d = decay.clamp(0.0, 1.0);
                    // Capped at 10_000, the exponent always fits an i32;
                    // try_from keeps the conversion audit-clean.
                    let exp = i32::try_from(age.min(10_000)).unwrap_or(10_000);
                    d.powi(exp).max(1e-12)
                }
            }
        };
        Some((alpha, self.last[dir].as_ref()))
    }

    /// What edge `e` brings into node `u` in a flat engine's update: the
    /// staleness discount and the neighbor belief to read, or `None`
    /// when the link has never delivered (the edge then contributes
    /// nothing). On the perfect transport (`session` is `None`) that is
    /// the live neighbor belief at weight 1, which multiplies exactly
    /// and keeps the fault-free path bit-identical; under faults it is
    /// the held snapshot, or the live belief of an anchor sender.
    pub(crate) fn incoming<'a>(
        session: Option<&'a Self>,
        mrf: &SpatialMrf,
        beliefs: &'a [B],
        e: usize,
        u: usize,
    ) -> Option<(f64, &'a B)> {
        let live = &beliefs[mrf.other_end(e, u)];
        match session {
            None => Some((1.0, live)),
            Some(s) => s
                .delivery(e, mrf.edges()[e].v == u)
                .map(|(alpha, held)| (alpha, held.unwrap_or(live))),
        }
    }
}
