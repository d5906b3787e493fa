//! The network core: the façade protocols talk to.
//!
//! `NetworkCore` owns the node registry, the radio model, the wired backbone, the
//! radio RNG stream, and the transmission counters. Every send primitive returns a
//! list of [`Emission`]s — `(delay, recipient, transport)` triples — that the
//! simulation harness schedules on its event queue. When a scheduled delivery fires,
//! the harness calls [`NetworkCore::handle_deliver`], which either surfaces the
//! payload to the protocol (final hop) or returns follow-up emissions (GPSR
//! forwarding).
//!
//! Keeping the core emission-based (instead of letting it touch the event queue)
//! makes every primitive a pure-ish function that is easy to test in isolation and
//! lets one queue type serve mobility ticks, protocol timers, and deliveries.

use crate::counters::{NetCounters, PacketClass};
use crate::flood::{directional_broadcast, region_broadcast, FloodScratch};
use crate::gpsr::{GpsrHeader, GpsrScratch, GpsrStep, GpsrTarget};
use crate::node::{NodeId, NodeRegistry};
use crate::radio::RadioConfig;
use crate::wired::WiredNetwork;
use rand::rngs::SmallRng;
use vanet_des::{SimDuration, SimTime};
use vanet_geo::{BBox, Point, Vec2};
use vanet_roadnet::RsuId;
use vanet_trace::{TraceEvent, Tracer};

/// In-flight packet state carried by a scheduled delivery.
#[derive(Debug, Clone)]
pub enum Transport<P> {
    /// Final-hop delivery: hand `payload` to the protocol at the recipient.
    Local {
        /// Accounting class.
        class: PacketClass,
        /// Protocol payload.
        payload: P,
    },
    /// A GPSR packet in flight: the recipient must route it further (or accept it).
    Gpsr {
        /// Routing header.
        header: GpsrHeader,
        /// Accounting class.
        class: PacketClass,
        /// Packet size in bytes (drives per-hop delay).
        size: usize,
        /// Protocol payload.
        payload: P,
    },
}

/// A scheduled future delivery.
#[derive(Debug, Clone)]
pub struct Emission<P> {
    /// Delay from "now" until the delivery fires.
    pub delay: SimDuration,
    /// Receiving node.
    pub to: NodeId,
    /// Packet state.
    pub transport: Transport<P>,
}

/// Outcome of one GPSR routing decision — at most one follow-up, so the per-hop
/// path never allocates.
enum Routed<P> {
    /// The packet is for the node it sits at: hand the payload up.
    Arrived { class: PacketClass, payload: P },
    /// One forwarding emission toward the next hop.
    Forward(Emission<P>),
    /// Dropped (loss, TTL, isolation, or no progress) — already counted.
    Dropped,
}

/// The network façade.
#[derive(Debug)]
pub struct NetworkCore {
    /// Node positions and kinds.
    pub registry: NodeRegistry,
    /// Radio model.
    pub radio: RadioConfig,
    /// RSU backbone.
    pub wired: WiredNetwork,
    /// Transmission accounting.
    pub counters: NetCounters,
    /// Structured event tracer; `None` (the default) costs one pointer test per
    /// potential event. Install with [`Self::set_tracer`].
    pub tracer: Option<Box<Tracer>>,
    rng: SmallRng,
    /// Reused neighbor-query buffer: the per-transmission lookup allocates
    /// nothing once this has grown to the local density.
    neighbor_scratch: Vec<NodeId>,
    /// Reused GPSR routing-decision storage.
    gpsr_scratch: GpsrScratch,
    /// Reused flood working set (dedup maps, frontier, neighbor buffer).
    flood_scratch: FloodScratch,
}

impl NetworkCore {
    /// How many alternative next hops a GPSR hop tries after MAC failures.
    pub const MAX_REROUTES: usize = 3;

    /// Assembles the core. `rng` should be the dedicated radio stream.
    pub fn new(
        registry: NodeRegistry,
        radio: RadioConfig,
        wired: WiredNetwork,
        rng: SmallRng,
    ) -> Self {
        NetworkCore {
            registry,
            radio,
            wired,
            counters: NetCounters::new(),
            tracer: None,
            rng,
            neighbor_scratch: Vec::new(),
            gpsr_scratch: GpsrScratch::default(),
            flood_scratch: FloodScratch::default(),
        }
    }

    /// Installs a tracer; every counter bump below then also emits a
    /// [`TraceEvent`], so trace exports reconcile exactly with the counters.
    pub fn set_tracer(&mut self, tracer: Box<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the tracer, if one was installed.
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.tracer.take()
    }

    /// Advances the tracer's clock; the harness calls this as it pops each
    /// event so emit sites don't need `now` threaded through.
    #[inline]
    pub fn set_trace_now(&mut self, now: SimTime) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.set_now(now);
        }
    }

    /// Records a trace event built by `f` (called only when tracing is on,
    /// with the tracer's current clock).
    #[inline]
    pub fn trace(&mut self, f: impl FnOnce(SimTime) -> TraceEvent) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            let t = tr.now();
            tr.record(f(t));
        }
    }

    /// One-hop broadcast from `from`: every node in range draws reception.
    ///
    /// Costs exactly one transmission regardless of audience (it's a broadcast).
    pub fn broadcast_onehop<P: Clone>(
        &mut self,
        from: NodeId,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Vec<Emission<P>> {
        self.counters.count_origination(class);
        self.counters.count_radio(class, 1);
        self.counters.count_airtime(class, self.radio.tx_time(size));
        self.trace(|t| TraceEvent::Originated {
            t,
            node: from.0,
            class: class.index() as u8,
        });
        self.trace(|t| TraceEvent::RadioHop {
            t,
            node: from.0,
            class: class.index() as u8,
            n: 1,
        });
        let from_pos = self.registry.pos(from);
        let mut out = Vec::new();
        // Take the scratch buffer so iterating it doesn't hold a borrow of self.
        let mut neighbors = std::mem::take(&mut self.neighbor_scratch);
        self.registry
            .nodes_within_into(from_pos, self.radio.range, Some(from), &mut neighbors);
        for &n in &neighbors {
            if self
                .radio
                .link_succeeds_between(from_pos, self.registry.pos(n), &mut self.rng)
            {
                let delay = self.radio.hop_delay(size, &mut self.rng);
                out.push(Emission {
                    delay,
                    to: n,
                    transport: Transport::Local {
                        class,
                        payload: payload.clone(),
                    },
                });
            }
        }
        self.neighbor_scratch = neighbors;
        out
    }

    /// Originates a GPSR unicast toward `dst_pos` / `target`.
    pub fn send_gpsr<P>(
        &mut self,
        from: NodeId,
        target: GpsrTarget,
        dst_pos: Point,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Vec<Emission<P>> {
        self.counters.count_origination(class);
        self.trace(|t| TraceEvent::Originated {
            t,
            node: from.0,
            class: class.index() as u8,
        });
        let header = GpsrHeader::new(target, dst_pos);
        match self.gpsr_process(from, header, class, size, payload) {
            Routed::Arrived { class, payload } => vec![Emission {
                delay: SimDuration::ZERO,
                to: from,
                transport: Transport::Local { class, payload },
            }],
            Routed::Forward(e) => vec![e],
            Routed::Dropped => Vec::new(),
        }
    }

    /// Routes (or accepts) a GPSR packet sitting at `at`.
    ///
    /// On MAC retry exhaustion toward a chosen neighbor, the neighbor is
    /// blacklisted and routing re-runs — the link-layer-feedback reroute of the
    /// original GPSR. Up to [`Self::MAX_REROUTES`] alternatives are tried before
    /// the packet is declared lost.
    fn gpsr_process<P>(
        &mut self,
        at: NodeId,
        header: GpsrHeader,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Routed<P> {
        use crate::counters::DropKind;
        use crate::gpsr::{gpsr_step_scratch, GpsrFailure};

        let mut dead_neighbors: Vec<NodeId> = Vec::new();
        loop {
            let step = gpsr_step_scratch(
                &self.registry,
                self.radio.range,
                at,
                header,
                &dead_neighbors,
                &mut self.gpsr_scratch,
            );
            match step {
                GpsrStep::Arrived => {
                    break Routed::Arrived { class, payload };
                }
                GpsrStep::Forward { next, header: fwd } => {
                    let (pa, pb) = (self.registry.pos(at), self.registry.pos(next));
                    // Inline invariant assertions: cheap per-hop sanity that
                    // also covers non-runner entry points (floods, unit
                    // tests). The runner-side oracle re-checks these without
                    // panicking so fuzz failures shrink cleanly.
                    assert!(
                        fwd.ttl < header.ttl,
                        "gpsr forward must decrement ttl ({} -> {})",
                        header.ttl,
                        fwd.ttl
                    );
                    assert!(
                        fwd.recovery_hops <= crate::gpsr::MAX_RECOVERY_HOPS,
                        "gpsr recovery hop budget exceeded: {}",
                        fwd.recovery_hops
                    );
                    assert!(
                        pa.distance(pb) <= self.radio.range + 1e-6,
                        "gpsr hop spans {:.1} m, beyond the {:.1} m radio range",
                        pa.distance(pb),
                        self.radio.range
                    );
                    let mut attempts = 0u64;
                    let mut success = false;
                    while attempts <= self.radio.retries as u64 {
                        attempts += 1;
                        if self.radio.link_succeeds_between(pa, pb, &mut self.rng) {
                            success = true;
                            break;
                        }
                    }
                    self.counters.count_radio(class, attempts);
                    self.counters
                        .count_airtime(class, self.radio.tx_time(size) * attempts);
                    self.trace(|t| TraceEvent::RadioHop {
                        t,
                        node: at.0,
                        class: class.index() as u8,
                        n: attempts,
                    });
                    if !success {
                        dead_neighbors.push(next);
                        if dead_neighbors.len() > Self::MAX_REROUTES {
                            self.counters.count_drop_kind(class, DropKind::Loss);
                            self.trace(|t| TraceEvent::Dropped {
                                t,
                                node: at.0,
                                class: class.index() as u8,
                                cause: DropKind::Loss.index() as u8,
                            });
                            break Routed::Dropped;
                        }
                        continue; // reroute around the dead link
                    }
                    let mut delay = SimDuration::ZERO;
                    for _ in 0..attempts {
                        delay += self.radio.hop_delay(size, &mut self.rng);
                    }
                    break Routed::Forward(Emission {
                        delay,
                        to: next,
                        transport: Transport::Gpsr {
                            header: fwd,
                            class,
                            size,
                            payload,
                        },
                    });
                }
                GpsrStep::Fail(f) => {
                    let kind = match f {
                        GpsrFailure::TtlExpired => DropKind::Ttl,
                        GpsrFailure::Isolated => DropKind::Isolated,
                        GpsrFailure::NoProgress => DropKind::NoProgress,
                    };
                    self.counters.count_drop_kind(class, kind);
                    self.trace(|t| TraceEvent::Dropped {
                        t,
                        node: at.0,
                        class: class.index() as u8,
                        cause: kind.index() as u8,
                    });
                    break Routed::Dropped;
                }
            }
        }
    }

    /// Wired RSU-to-RSU transfer over the backbone's shortest path.
    pub fn send_wired<P>(
        &mut self,
        from: RsuId,
        to: RsuId,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Vec<Emission<P>> {
        let _ = size; // wired links are fast enough that size is irrelevant
        self.counters.count_origination(class);
        let from_node = self.registry.node_of_rsu(from);
        self.trace(|t| TraceEvent::Originated {
            t,
            node: from_node.0,
            class: class.index() as u8,
        });
        let Some(hops) = self.wired.hops(from, to) else {
            let kind = crate::counters::DropKind::NoRoute;
            self.counters.count_drop_kind(class, kind);
            self.trace(|t| TraceEvent::Dropped {
                t,
                node: from_node.0,
                class: class.index() as u8,
                cause: kind.index() as u8,
            });
            return Vec::new();
        };
        self.counters.count_wired(class, hops as u64);
        self.trace(|t| TraceEvent::WiredHop {
            t,
            node: from_node.0,
            class: class.index() as u8,
            hops: hops as u64,
        });
        let delay = self.wired.link_delay * hops as u64;
        let to_node = self.registry.node_of_rsu(to);
        vec![Emission {
            delay,
            to: to_node,
            transport: Transport::Local { class, payload },
        }]
    }

    /// Directional geo-broadcast along a road corridor (HLSRG's target search).
    #[allow(clippy::too_many_arguments)]
    pub fn geo_broadcast_directional<P: Clone>(
        &mut self,
        from: NodeId,
        start: Point,
        dir: Vec2,
        max_dist: f64,
        lateral_tol: f64,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Vec<Emission<P>> {
        self.counters.count_origination(class);
        self.trace(|t| TraceEvent::Originated {
            t,
            node: from.0,
            class: class.index() as u8,
        });
        let res = directional_broadcast(
            &self.registry,
            &self.radio,
            from,
            start,
            dir,
            max_dist,
            lateral_tol,
            size,
            &mut self.rng,
            &mut self.flood_scratch,
        );
        self.counters.count_radio(class, res.transmissions);
        self.counters
            .count_airtime(class, self.radio.tx_time(size) * res.transmissions);
        self.trace(|t| TraceEvent::RadioHop {
            t,
            node: from.0,
            class: class.index() as u8,
            n: res.transmissions,
        });
        res.deliveries
            .into_iter()
            .map(|(n, delay)| Emission {
                delay,
                to: n,
                transport: Transport::Local {
                    class,
                    payload: payload.clone(),
                },
            })
            .collect()
    }

    /// Region flood inside a grid cell.
    pub fn geo_broadcast_region<P: Clone>(
        &mut self,
        from: NodeId,
        region: &BBox,
        class: PacketClass,
        size: usize,
        payload: P,
    ) -> Vec<Emission<P>> {
        self.counters.count_origination(class);
        self.trace(|t| TraceEvent::Originated {
            t,
            node: from.0,
            class: class.index() as u8,
        });
        let res = region_broadcast(
            &self.registry,
            &self.radio,
            from,
            region,
            size,
            &mut self.rng,
            &mut self.flood_scratch,
        );
        self.counters.count_radio(class, res.transmissions);
        self.counters
            .count_airtime(class, self.radio.tx_time(size) * res.transmissions);
        self.trace(|t| TraceEvent::RadioHop {
            t,
            node: from.0,
            class: class.index() as u8,
            n: res.transmissions,
        });
        res.deliveries
            .into_iter()
            .map(|(n, delay)| Emission {
                delay,
                to: n,
                transport: Transport::Local {
                    class,
                    payload: payload.clone(),
                },
            })
            .collect()
    }

    /// [`handle_deliver_step`](Self::handle_deliver_step) with the follow-up
    /// lifted into a `Vec` — the allocating convenience form for tests and
    /// small drain loops.
    pub fn handle_deliver<P>(
        &mut self,
        to: NodeId,
        transport: Transport<P>,
    ) -> (Option<(PacketClass, P)>, Vec<Emission<P>>) {
        let (arrived, more) = self.handle_deliver_step(to, transport);
        (arrived, more.into_iter().collect())
    }

    /// Processes a fired delivery. Returns the payload if this was the final hop
    /// (for the protocol at `to`), plus at most one follow-up emission (GPSR
    /// forwarding) — so the per-event hot path allocates nothing.
    pub fn handle_deliver_step<P>(
        &mut self,
        to: NodeId,
        transport: Transport<P>,
    ) -> (Option<(PacketClass, P)>, Option<Emission<P>>) {
        match transport {
            Transport::Local { class, payload } => {
                self.trace(|t| TraceEvent::Delivered {
                    t,
                    node: to.0,
                    class: class.index() as u8,
                });
                (Some((class, payload)), None)
            }
            Transport::Gpsr {
                header,
                class,
                size,
                payload,
            } => {
                // Re-run the routing decision at the new holder.
                match self.gpsr_process(to, header, class, size, payload) {
                    Routed::Arrived { class, payload } => {
                        self.trace(|t| TraceEvent::Delivered {
                            t,
                            node: to.0,
                            class: class.index() as u8,
                        });
                        (Some((class, payload)), None)
                    }
                    Routed::Forward(e) => (None, Some(e)),
                    Routed::Dropped => (None, None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vanet_des::SimTime;
    use vanet_mobility::VehicleId;
    use vanet_roadnet::{generate_grid, GridMapSpec, L2Id, L3Id, Partition};

    fn lossless() -> RadioConfig {
        RadioConfig {
            reliable_fraction: 1.0,
            edge_delivery: 1.0,
            ..Default::default()
        }
    }

    fn line_core(n: u32, spacing: f64) -> NetworkCore {
        let mut reg = NodeRegistry::new(500.0);
        for i in 0..n {
            reg.add_vehicle(VehicleId(i), Point::new(i as f64 * spacing, 0.0));
        }
        let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
        let p = Partition::build(&net, 500.0);
        let wired = WiredNetwork::from_partition(&p, SimDuration::from_millis(2));
        NetworkCore::new(reg, lossless(), wired, SmallRng::seed_from_u64(1))
    }

    /// Runs emissions to quiescence, returning final deliveries as (node, class).
    fn drain<P: Clone + std::fmt::Debug>(
        core: &mut NetworkCore,
        mut pending: Vec<Emission<P>>,
    ) -> Vec<(NodeId, PacketClass, P)> {
        let mut q = vanet_des::EventQueue::new();
        for e in pending.drain(..) {
            q.schedule_after(e.delay, (e.to, e.transport));
        }
        let mut out = Vec::new();
        while let Some((_, (to, tr))) = q.pop() {
            let (arrived, more) = core.handle_deliver(to, tr);
            if let Some((class, payload)) = arrived {
                out.push((to, class, payload));
            }
            for e in more {
                q.schedule_after(e.delay, (e.to, e.transport));
            }
        }
        out
    }

    #[test]
    fn broadcast_reaches_neighbors_once() {
        let mut core = line_core(4, 300.0); // only adjacent nodes in range
        let emissions = core.broadcast_onehop(NodeId(1), PacketClass::Update, 64, "hi");
        let got = drain(&mut core, emissions);
        let mut nodes: Vec<u32> = got.iter().map(|(n, _, _)| n.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 2]);
        assert_eq!(core.counters.radio(PacketClass::Update), 1);
        assert_eq!(core.counters.origination_count(PacketClass::Update), 1);
    }

    #[test]
    fn gpsr_end_to_end_with_counting() {
        let mut core = line_core(6, 300.0);
        let dst = NodeId(5);
        let emissions = core.send_gpsr(
            NodeId(0),
            GpsrTarget::Node(dst),
            core.registry.pos(dst),
            PacketClass::Query,
            128,
            "req",
        );
        let got = drain(&mut core, emissions);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, dst);
        // 5 hops on a lossless line.
        assert_eq!(core.counters.radio(PacketClass::Query), 5);
        assert_eq!(core.counters.drop_count(PacketClass::Query), 0);
    }

    #[test]
    fn gpsr_any_at_delivers_to_custodian() {
        let mut core = line_core(6, 300.0);
        // Target position: x = 1500 (node 5's spot), any node within 100 m.
        let emissions = core.send_gpsr(
            NodeId(0),
            GpsrTarget::AnyAt { radius: 100.0 },
            Point::new(1500.0, 0.0),
            PacketClass::Query,
            128,
            42u32,
        );
        let got = drain(&mut core, emissions);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, NodeId(5));
    }

    #[test]
    fn gpsr_self_delivery_when_already_there() {
        let mut core = line_core(3, 300.0);
        let emissions = core.send_gpsr(
            NodeId(0),
            GpsrTarget::AnyAt { radius: 50.0 },
            Point::new(0.0, 0.0),
            PacketClass::Query,
            128,
            (),
        );
        let got = drain(&mut core, emissions);
        assert_eq!(got, vec![(NodeId(0), PacketClass::Query, ())]);
        // No radio transmission for a self-delivery.
        assert_eq!(core.counters.radio(PacketClass::Query), 0);
    }

    #[test]
    fn gpsr_isolated_drops() {
        let mut core = line_core(2, 900.0); // out of range
        let emissions = core.send_gpsr(
            NodeId(0),
            GpsrTarget::Node(NodeId(1)),
            Point::new(900.0, 0.0),
            PacketClass::Query,
            128,
            (),
        );
        assert!(emissions.is_empty());
        assert_eq!(core.counters.drop_count(PacketClass::Query), 1);
    }

    #[test]
    fn wired_transfer_delay_and_counting() {
        let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
        let p = Partition::build(&net, 500.0);
        let mut reg = NodeRegistry::new(500.0);
        // Register a vehicle then all RSUs (ids must be dense per kind).
        reg.add_vehicle(VehicleId(0), Point::new(10.0, 10.0));
        for site in p.rsus() {
            reg.add_rsu(site.id, site.pos);
        }
        let wired = WiredNetwork::from_partition(&p, SimDuration::from_millis(2));
        let mut core = NetworkCore::new(reg, lossless(), wired, SmallRng::seed_from_u64(2));

        let from = p.rsu_of_l2(L2Id(0));
        let to = p.rsu_of_l2(L2Id(3));
        let emissions = core.send_wired(from, to, PacketClass::Collection, 256, "table");
        assert_eq!(emissions.len(), 1);
        assert_eq!(emissions[0].delay, SimDuration::from_millis(4)); // 2 hops via L3 hub
        assert_eq!(emissions[0].to, core.registry.node_of_rsu(to));
        assert_eq!(core.counters.wired(PacketClass::Collection), 2);
        // L3 self-transfer has zero delay.
        let l3 = p.rsu_of_l3(L3Id(0));
        let e = core.send_wired(l3, l3, PacketClass::Collection, 1, ());
        assert_eq!(e[0].delay, SimDuration::ZERO);
    }

    #[test]
    fn directional_broadcast_counts_relays() {
        let mut core = line_core(6, 300.0);
        let emissions = core.geo_broadcast_directional(
            NodeId(0),
            Point::ORIGIN,
            vanet_geo::Vec2::new(1.0, 0.0),
            1500.0,
            50.0,
            PacketClass::Query,
            96,
            "notify",
        );
        let got = drain(&mut core, emissions);
        assert!(got.len() >= 4, "reached {got:?}");
        assert!(core.counters.radio(PacketClass::Query) >= 3);
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let run = |seed: u64| {
            let mut reg = NodeRegistry::new(500.0);
            for i in 0..30u32 {
                reg.add_vehicle(
                    VehicleId(i),
                    Point::new((i % 6) as f64 * 250.0, (i / 6) as f64 * 250.0),
                );
            }
            let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(0));
            let p = Partition::build(&net, 500.0);
            let wired = WiredNetwork::from_partition(&p, SimDuration::from_millis(2));
            let mut core = NetworkCore::new(
                reg,
                RadioConfig::default(),
                wired,
                SmallRng::seed_from_u64(seed),
            );
            let e = core.send_gpsr(
                NodeId(0),
                GpsrTarget::Node(NodeId(29)),
                core.registry.pos(NodeId(29)),
                PacketClass::Query,
                128,
                (),
            );
            let got = drain(&mut core, e);
            (got.len(), core.counters.radio(PacketClass::Query))
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn trace_events_reconcile_with_counters() {
        let mut core = line_core(6, 300.0);
        core.set_tracer(Box::new(Tracer::new(1024)));
        let e = core.send_gpsr(
            NodeId(0),
            GpsrTarget::Node(NodeId(5)),
            core.registry.pos(NodeId(5)),
            PacketClass::Query,
            128,
            "req",
        );
        drain(&mut core, e);
        let e = core.broadcast_onehop(NodeId(1), PacketClass::Update, 64, "up");
        drain(&mut core, e);

        let tr = core.take_tracer().expect("tracer installed");
        assert_eq!(tr.overwritten(), 0);
        for class in PacketClass::ALL {
            let code = class.index() as u8;
            assert_eq!(
                tr.metrics.radio(code),
                core.counters.radio(class),
                "radio mismatch for {class:?}"
            );
            assert_eq!(
                tr.metrics.originated(code),
                core.counters.origination_count(class),
                "origination mismatch for {class:?}"
            );
            assert_eq!(
                tr.metrics.drops(code),
                core.counters.drop_count(class),
                "drop mismatch for {class:?}"
            );
        }
        // The lossless line delivers the query once and the broadcast twice.
        assert_eq!(tr.metrics.delivered(PacketClass::Query.index() as u8), 1);
        assert_eq!(tr.metrics.delivered(PacketClass::Update.index() as u8), 2);
    }

    #[test]
    fn emission_delays_are_positive_sim_times() {
        let mut core = line_core(5, 300.0);
        let emissions = core.broadcast_onehop(NodeId(2), PacketClass::Update, 64, ());
        let mut q = vanet_des::EventQueue::new();
        for e in &emissions {
            assert!(e.delay >= SimDuration::ZERO);
            q.schedule_at(SimTime::ZERO + e.delay, ());
        }
        assert_eq!(q.len(), emissions.len());
    }
}
