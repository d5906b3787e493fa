//! The runtime invariant oracle.
//!
//! An armed scenario run threads every emission, delivery, and end-of-run
//! state through an [`Oracle`]; the oracle cross-checks them against the
//! simulator's core invariants and records the **first** violation it sees. A
//! violated run still completes — the harness surfaces the violation
//! out-of-band so the fuzzer can shrink the offending configuration instead of
//! dying mid-run.
//!
//! Invariants covered here:
//!
//! * **Packet conservation** — per class, every scheduled `Deliver` is either
//!   consumed by the harness or still queued at the horizon, and every consumed
//!   GPSR delivery resolves to exactly one of {arrival, one forward, one drop}.
//! * **GPSR per-hop sanity / loop freedom** — TTL strictly decreases on every
//!   forward (a finite hop budget, hence no infinite loop), recovery hop counts
//!   stay within [`vanet_net::gpsr::MAX_RECOVERY_HOPS`], every hop spans at most
//!   the radio range, and a greedy→greedy step strictly reduces the distance to
//!   the destination (greedy progress is monotone).
//! * **Partition geometry** — every sampled map point lies in exactly one L1
//!   grid, the 4-L1 ⊂ L2 ⊂ L3 nesting is exact, and each L2/L3 center hosts an
//!   RSU that is wired to its parent.
//! * **Trace/counter reconciliation** — when a tracer rode along without ring
//!   overflow, the metrics registry rebuilt from events must agree with the
//!   `NetCounters` totals per class and drop cause.
//! * **Quiet soundness** — every movement sample the mobility kernel left
//!   out of its flagged set has no turn and the same keys and centre-zone
//!   memberships of the declared trigger geometry at both ends.

use vanet_des::SimTime;
use vanet_geo::TriggerGeometry;
use vanet_mobility::MoveSample;
use vanet_net::counters::PacketClass;
use vanet_net::gpsr::MAX_RECOVERY_HOPS;
use vanet_net::{Emission, GpsrHeader, GpsrMode, NetCounters, NetworkCore, NodeId, Transport};
use vanet_roadnet::partition::{L1Id, L2Id, L3Id, Partition, RsuLevel};

/// Slack (m) tolerated on geometric comparisons (radio range, greedy progress).
const GEOM_EPS: f64 = 1e-6;

/// One broken invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable machine-readable invariant name (e.g. `"packet-conservation"`).
    pub invariant: &'static str,
    /// Human-readable specifics: where, what, by how much.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Snapshot taken just before a `Deliver` event is handed to the network core,
/// consumed by [`Oracle::post_deliver`] right after.
#[derive(Debug)]
pub struct PendingDeliver {
    class: PacketClass,
    /// The GPSR header as it was *before* this hop processed it.
    gpsr: Option<GpsrHeader>,
    /// Per-class drop counter before the hop.
    drops_before: u64,
}

/// The invariant oracle: a per-class packet ledger plus per-hop checks.
///
/// Only the first violation is kept; later ones are usually cascades of the
/// first and would bury it.
#[derive(Debug, Default)]
pub struct Oracle {
    /// `Deliver` emissions scheduled onto the event queue, per class.
    scheduled: [u64; 4],
    /// `Deliver` events popped and handed to the core, per class.
    consumed: [u64; 4],
    /// Consumed deliveries that arrived at a protocol, per class.
    arrivals: [u64; 4],
    /// Consumed GPSR deliveries that produced exactly one onward hop, per class.
    forwards: [u64; 4],
    /// Consumed GPSR deliveries that ended in a routing drop, per class.
    route_drops: [u64; 4],
    violation: Option<Violation>,
}

/// Dense index of a transport's accounting class.
pub fn class_ix<P>(t: &Transport<P>) -> usize {
    t.class().index()
}

impl Oracle {
    /// A fresh oracle with empty ledgers and no violation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation; only the first one is kept.
    pub fn report(&mut self, invariant: &'static str, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation { invariant, detail });
        }
    }

    /// Quiet soundness for one tick: `flagged` must be a subsequence of
    /// `all` (both in id order), and every sample of `all` left out of it
    /// must have no turn and, under `geometry`, the same grid keys and zone
    /// membership at `old_pos` as at `new_pos` (the exact predicates the
    /// protocols evaluate). A quiet sample that fails this is one a protocol
    /// would have acted on and never saw.
    pub fn check_quiet_samples(
        &mut self,
        geometry: &TriggerGeometry,
        all: &[MoveSample],
        flagged: &[MoveSample],
        now: SimTime,
    ) {
        let mut flagged_ids = flagged.iter().map(|s| s.id).peekable();
        let mut missed = 0usize;
        let mut first = None;
        for s in all {
            if flagged_ids.next_if_eq(&s.id).is_some() {
                continue;
            }
            if s.turn.is_some() || !geometry.same_triggers(s.old_pos, s.new_pos) {
                missed += 1;
                first.get_or_insert(s);
            }
        }
        if let Some(id) = flagged_ids.next() {
            self.report(
                "quiet-soundness",
                format!("at {now}: flagged vehicle {} is out of id order", id.0),
            );
        }
        if let Some(s) = first {
            self.report(
                "quiet-soundness",
                format!(
                    "at {now}: {missed} quiet samples turn or cross a watched boundary; \
                     first: vehicle {} from ({}, {}) to ({}, {})",
                    s.id.0, s.old_pos.x, s.old_pos.y, s.new_pos.x, s.new_pos.y
                ),
            );
        }
    }

    /// The first recorded violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Consumes the oracle, yielding the first recorded violation.
    pub fn into_violation(self) -> Option<Violation> {
        self.violation
    }

    /// Ledger hook: the harness is about to schedule these emissions.
    pub fn note_emissions<P>(&mut self, emissions: &[Emission<P>]) {
        for e in emissions {
            self.scheduled[class_ix(&e.transport)] += 1;
        }
    }

    /// Ledger hook: one emission is about to be scheduled.
    pub fn note_emission<P>(&mut self, e: &Emission<P>) {
        self.scheduled[class_ix(&e.transport)] += 1;
    }

    /// `Deliver` events handed to the core so far, all classes together.
    pub fn consumed_deliveries(&self) -> u64 {
        self.consumed.iter().sum()
    }

    /// Called right before a popped `Deliver` event enters the network core.
    pub fn pre_deliver<P>(&mut self, t: &Transport<P>, counters: &NetCounters) -> PendingDeliver {
        let class = t.class();
        self.consumed[class.index()] += 1;
        PendingDeliver {
            class,
            gpsr: t.gpsr_header().copied(),
            drops_before: counters.drop_count(class),
        }
    }

    /// Called right after the core processed the delivery started in
    /// [`Oracle::pre_deliver`]: `arrived_at` is the protocol handoff node (if
    /// any) and `followups` are the onward emissions the harness will schedule.
    ///
    /// The caller must still [`Oracle::note_emissions`] the followups (or use
    /// this method's bookkeeping — it counts them itself).
    pub fn post_deliver<P>(
        &mut self,
        core: &NetworkCore,
        at: NodeId,
        pending: PendingDeliver,
        arrived: bool,
        followups: &[Emission<P>],
    ) {
        self.note_emissions(followups);
        let ix = pending.class.index();
        let drop_delta = core
            .counters
            .drop_count(pending.class)
            .saturating_sub(pending.drops_before);

        let Some(before) = pending.gpsr else {
            // Final-hop local delivery: must arrive, no onward traffic, no drop.
            if !arrived || !followups.is_empty() || drop_delta != 0 {
                self.report(
                    "packet-conservation",
                    format!(
                        "local {:?} delivery at node {}: arrived={} followups={} drops+={}",
                        pending.class,
                        at.0,
                        arrived,
                        followups.len(),
                        drop_delta
                    ),
                );
            } else {
                self.arrivals[ix] += 1;
            }
            return;
        };

        // A consumed GPSR hop resolves to exactly one of: arrival, one onward
        // GPSR emission, or one routing drop.
        let gpsr_followups: Vec<&Emission<P>> = followups
            .iter()
            .filter(|e| matches!(e.transport, Transport::Gpsr(_)))
            .collect();
        let outcomes = u32::from(arrived) + gpsr_followups.len() as u32 + u32::from(drop_delta > 0);
        if outcomes != 1 || drop_delta > 1 || followups.len() != gpsr_followups.len() {
            self.report(
                "packet-conservation",
                format!(
                    "gpsr {:?} hop at node {}: arrived={} onward={} non-gpsr={} drops+={} \
                     (want exactly one outcome)",
                    pending.class,
                    at.0,
                    arrived,
                    gpsr_followups.len(),
                    followups.len() - gpsr_followups.len(),
                    drop_delta
                ),
            );
            return;
        }
        if arrived {
            self.arrivals[ix] += 1;
            return;
        }
        if drop_delta == 1 {
            self.route_drops[ix] += 1;
            return;
        }

        // Forwarded: per-hop GPSR sanity.
        self.forwards[ix] += 1;
        let fwd = gpsr_followups[0];
        let Some(after) = fwd.transport.gpsr_header() else {
            unreachable!("filtered to gpsr transports");
        };
        if after.ttl >= before.ttl {
            self.report(
                "gpsr-loop-freedom",
                format!(
                    "node {} forwarded {:?} without decreasing ttl ({} -> {})",
                    at.0, pending.class, before.ttl, after.ttl
                ),
            );
        }
        if after.recovery_hops > MAX_RECOVERY_HOPS {
            self.report(
                "gpsr-loop-freedom",
                format!(
                    "node {} exceeded the recovery hop budget: {} > {}",
                    at.0, after.recovery_hops, MAX_RECOVERY_HOPS
                ),
            );
        }
        if after.prev != Some(at) {
            self.report(
                "gpsr-loop-freedom",
                format!(
                    "forwarded header's prev pointer is {:?}, expected the forwarder {}",
                    after.prev, at.0
                ),
            );
        }
        let here = core.registry.pos(at);
        let next = core.registry.pos(fwd.to);
        let span = here.distance(next);
        if span > core.radio.range + GEOM_EPS {
            self.report(
                "gpsr-hop-range",
                format!(
                    "hop {} -> {} spans {:.1} m, beyond the {:.1} m radio range",
                    at.0, fwd.to.0, span, core.radio.range
                ),
            );
        }
        if matches!(before.mode, GpsrMode::Greedy) && matches!(after.mode, GpsrMode::Greedy) {
            let my_d = here.distance(after.dst_pos);
            let next_d = next.distance(after.dst_pos);
            if next_d >= my_d + GEOM_EPS {
                self.report(
                    "gpsr-greedy-progress",
                    format!(
                        "greedy hop {} -> {} moved away from the destination \
                         ({:.2} m -> {:.2} m)",
                        at.0, fwd.to.0, my_d, next_d
                    ),
                );
            }
        }
    }

    /// End-of-run conservation: per class, scheduled deliveries must equal
    /// consumed plus those still queued at the horizon, and every consumed
    /// delivery must have resolved to exactly one outcome.
    pub fn end_of_run(&mut self, leftover: [u64; 4]) {
        for (ix, class) in PacketClass::ALL.iter().enumerate() {
            let scheduled = self.scheduled[ix];
            let consumed = self.consumed[ix];
            if scheduled != consumed + leftover[ix] {
                self.report(
                    "packet-conservation",
                    format!(
                        "{class:?}: scheduled {} deliveries but consumed {} with {} left in \
                         the queue",
                        scheduled, consumed, leftover[ix]
                    ),
                );
            }
            let resolved = self.arrivals[ix] + self.forwards[ix] + self.route_drops[ix];
            if resolved != consumed {
                self.report(
                    "packet-conservation",
                    format!(
                        "{class:?}: {} consumed deliveries resolved to {} outcomes \
                         ({} arrivals + {} forwards + {} drops)",
                        consumed,
                        resolved,
                        self.arrivals[ix],
                        self.forwards[ix],
                        self.route_drops[ix]
                    ),
                );
            }
        }
    }

    /// Static partition geometry: exhaustive grid-cell structure checks plus a
    /// deterministic sample of interior points.
    ///
    /// `rsu_positions` supplies the registered network position per `RsuId`
    /// index when RSUs are instantiated as nodes (HLSRG runs); pass `None` for
    /// protocols without an RSU backbone.
    pub fn check_partition(&mut self, p: &Partition, rsu_positions: Option<&[vanet_geo::Point]>) {
        let (nx1, ny1) = p.l1_dims();
        let b0 = p.l1_bbox(L1Id(0));
        let size = p.l1_size();
        let (ox, oy) = (b0.min_x, b0.min_y);
        let (w, h) = (nx1 as f64 * size, ny1 as f64 * size);

        // Deterministic interior sample: off-lattice fractions so no point sits
        // on a cell boundary.
        let steps = 23usize;
        for i in 0..steps {
            for j in 0..steps {
                let fx = (i as f64 + 0.382) / steps as f64;
                let fy = (j as f64 + 0.618) / steps as f64;
                let pt = vanet_geo::Point::new(ox + fx * w, oy + fy * h);
                let l1 = p.l1_of(pt);
                let mut hits = 0u32;
                let mut hit_id = None;
                for ix in 0..p.l1_count() {
                    if p.l1_bbox(L1Id(ix as u32)).contains(pt) {
                        hits += 1;
                        hit_id = Some(L1Id(ix as u32));
                    }
                }
                if hits != 1 || hit_id != Some(l1) {
                    self.report(
                        "partition-coverage",
                        format!(
                            "point ({:.2}, {:.2}) lies in {hits} L1 boxes (l1_of says {:?}, \
                             boxes say {:?})",
                            pt.x, pt.y, l1, hit_id
                        ),
                    );
                    return;
                }
            }
        }

        // Nesting: each L1 box sits inside its L2 parent's box, each L2 inside
        // its L3 parent's, and parents have between 1 and 4 children (exactly 4
        // when the child grid dimensions are even).
        let mut l2_children = vec![0u32; p.l2_count()];
        for ix in 0..p.l1_count() {
            let l1 = L1Id(ix as u32);
            let l2 = p.l1_to_l2(l1);
            l2_children[l2.0 as usize] += 1;
            let (cb, pb) = (p.l1_bbox(l1), p.l2_bbox(l2));
            if cb.min_x < pb.min_x
                || cb.min_y < pb.min_y
                || cb.max_x > pb.max_x + GEOM_EPS
                || cb.max_y > pb.max_y + GEOM_EPS
            {
                self.report(
                    "partition-nesting",
                    format!("L1 {:?} box escapes its L2 parent {:?}", l1, l2),
                );
            }
        }
        let mut l3_children = vec![0u32; p.l3_count()];
        for ix in 0..p.l2_count() {
            let l2 = L2Id(ix as u32);
            let l3 = p.l2_to_l3(l2);
            l3_children[l3.0 as usize] += 1;
            let (cb, pb) = (p.l2_bbox(l2), p.l3_bbox(l3));
            if cb.min_x < pb.min_x
                || cb.min_y < pb.min_y
                || cb.max_x > pb.max_x + GEOM_EPS
                || cb.max_y > pb.max_y + GEOM_EPS
            {
                self.report(
                    "partition-nesting",
                    format!("L2 {:?} box escapes its L3 parent {:?}", l2, l3),
                );
            }
        }
        let l2_exact = nx1 % 2 == 0 && ny1 % 2 == 0;
        let (nx2, ny2) = p.l2_dims();
        let l3_exact = nx2 % 2 == 0 && ny2 % 2 == 0;
        for (ix, &n) in l2_children.iter().enumerate() {
            if n == 0 || n > 4 || (l2_exact && n != 4) {
                self.report(
                    "partition-nesting",
                    format!(
                        "L2 {ix} has {n} L1 children (want {})",
                        if l2_exact { "4" } else { "1..=4" }
                    ),
                );
            }
        }
        for (ix, &n) in l3_children.iter().enumerate() {
            if n == 0 || n > 4 || (l3_exact && n != 4) {
                self.report(
                    "partition-nesting",
                    format!(
                        "L3 {ix} has {n} L2 children (want {})",
                        if l3_exact { "4" } else { "1..=4" }
                    ),
                );
            }
        }

        // RSU placement: every L2/L3 region's center site exists at the right
        // level, L2 sites are wired to their L3 parent, and (when instantiated
        // as nodes) the registry agrees on positions.
        for ix in 0..p.l2_count() {
            let l2 = L2Id(ix as u32);
            let site = &p.rsus()[p.rsu_of_l2(l2).0 as usize];
            if site.level != RsuLevel::L2 || site.l2 != Some(l2) {
                self.report(
                    "partition-rsu",
                    format!("L2 {ix} center RSU is mis-labeled: {site:?}"),
                );
            }
            let parent = p.rsu_of_l3(p.l2_to_l3(l2));
            if !p.are_wired(site.id, parent) {
                self.report(
                    "partition-rsu",
                    format!("L2 {ix} RSU is not wired to its L3 parent {:?}", parent),
                );
            }
        }
        for ix in 0..p.l3_count() {
            let l3 = L3Id(ix as u32);
            let site = &p.rsus()[p.rsu_of_l3(l3).0 as usize];
            if site.level != RsuLevel::L3 || site.l3 != l3 {
                self.report(
                    "partition-rsu",
                    format!("L3 {ix} center RSU is mis-labeled: {site:?}"),
                );
            }
        }
        if let Some(positions) = rsu_positions {
            if positions.len() != p.rsus().len() {
                self.report(
                    "partition-rsu",
                    format!(
                        "registry instantiated {} RSU nodes but the partition has {} sites",
                        positions.len(),
                        p.rsus().len()
                    ),
                );
            } else {
                for (site, &pos) in p.rsus().iter().zip(positions) {
                    if site.pos.distance(pos) > GEOM_EPS {
                        self.report(
                            "partition-rsu",
                            format!(
                                "RSU {:?} registered at ({:.1}, {:.1}) but sited at \
                                 ({:.1}, {:.1})",
                                site.id, pos.x, pos.y, site.pos.x, site.pos.y
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Trace/counter reconciliation: when a complete (no ring overflow) event
    /// trace rode along, the per-class aggregates rebuilt from events must match
    /// the live counters.
    pub fn check_counter_reconciliation(&mut self, core: &NetworkCore) {
        let Some(tracer) = core.tracer.as_deref() else {
            return;
        };
        if tracer.overwritten() > 0 {
            return; // partial trace: totals legitimately diverge
        }
        let m = &tracer.metrics;
        for class in PacketClass::ALL {
            let c = class.index() as u8;
            let pairs = [
                ("radio", m.radio(c), core.counters.radio(class)),
                (
                    "originated",
                    m.originated(c),
                    core.counters.origination_count(class),
                ),
                ("wired", m.wired(c), core.counters.wired(class)),
                ("drops", m.drops(c), core.counters.drop_count(class)),
            ];
            for (name, traced, counted) in pairs {
                if traced != counted {
                    self.report(
                        "trace-reconciliation",
                        format!("{class:?}/{name}: trace says {traced}, counters say {counted}"),
                    );
                }
            }
        }
        let traced_causes = m.drops_by_cause();
        let counted_causes = core.counters.drop_breakdown();
        if traced_causes != counted_causes {
            self.report(
                "trace-reconciliation",
                format!(
                    "drop causes diverge: trace {traced_causes:?} vs counters {counted_causes:?}"
                ),
            );
        }
    }
}
