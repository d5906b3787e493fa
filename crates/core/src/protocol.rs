//! The HLSRG protocol state machine.
//!
//! One `HlsrgProtocol` instance embodies the whole distributed protocol: the logical
//! L1/L2/L3 tables (physically replicated among grid-center custodians and RSUs),
//! the update rules, the collection pipeline, and query resolution. Physical
//! realism — who actually hears a broadcast, radio loss, GPSR paths, wired
//! latency — lives in [`NetworkCore`]; this module only reacts to deliveries.

use crate::config::HlsrgConfig;
use crate::messages::{
    HlsrgPayload, HlsrgTimer, NotifyPacket, NotifySource, RequestPacket, RequestStage, UpdatePacket,
};
use crate::tables::{L1Entry, L1Table, L2Table, L3Table, UpEntry};
use crate::update::{left_center_zone, update_rule, SampleCells, UpdateReason};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::sync::Arc;
use vanet_des::{SimDuration, SimTime};
use vanet_geo::{Point, TriggerGeometry, ZoneDiscs};
use vanet_mobility::{MoveSample, VehicleId};
use vanet_net::{
    deliveries, Effect, GpsrTarget, LocationService, NetworkCore, NodeId, NodeKind, PacketClass,
    QueryId, QueryLog, TraceEvent,
};
use vanet_roadnet::{L1Id, L2Id, L3Id, Partition, RoadNetwork};

type Fx = Vec<Effect<HlsrgPayload, HlsrgTimer>>;

/// The HLSRG location service.
#[derive(Debug)]
pub struct HlsrgProtocol {
    cfg: HlsrgConfig,
    partition: Arc<Partition>,
    /// Position of each L1 grid's center intersection, indexed by `L1Id`.
    l1_center_pos: Vec<Point>,
    l1_tables: Vec<L1Table>,
    l2_tables: Vec<L2Table>,
    l3_tables: Vec<L3Table>,
    log: QueryLog,
    rng: SmallRng,
    /// Time of the last collection push per L1 grid (departure-push throttle);
    /// `None` = never pushed.
    last_push: Vec<Option<SimTime>>,
    /// Updates triggered per [`UpdateReason`] (diagnostics / ablations).
    reason_counts: [u64; 4],
    /// Query-path stage counters (diagnostics).
    stats: PathStats,
}

/// Counters over the query resolution pipeline, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStats {
    /// Requests processed at an L1 center that found the target.
    pub l1_hits: u64,
    /// Requests processed at an L1 center that missed.
    pub l1_misses: u64,
    /// Requests processed at an L2 RSU that found the target.
    pub l2_hits: u64,
    /// Requests processed at an L2 RSU that missed.
    pub l2_misses: u64,
    /// Requests processed at an L3 RSU that found the target.
    pub l3_hits: u64,
    /// Requests processed at an L3 RSU that missed.
    pub l3_misses: u64,
    /// Directional notifications broadcast.
    pub notify_directional: u64,
    /// Region notifications broadcast.
    pub notify_region: u64,
    /// ACKs sent by destinations.
    pub acks_sent: u64,
    /// Post-discovery data packets delivered to their destination.
    pub data_delivered: u64,
}

impl HlsrgProtocol {
    /// Builds the protocol for a map. `rng` should be the protocol/backoff stream.
    pub fn new(
        net: &RoadNetwork,
        partition: Arc<Partition>,
        cfg: HlsrgConfig,
        rng: SmallRng,
    ) -> Self {
        let l1_center_pos = (0..partition.l1_count() as u32)
            .map(|i| net.pos(partition.l1_center(L1Id(i))))
            .collect();
        let partition_l1_count = partition.l1_count();
        let l1_tables = (0..partition.l1_count())
            .map(|_| L1Table::new(cfg.l1_ttl))
            .collect();
        let l2_tables = (0..partition.l2_count())
            .map(|_| L2Table::new(cfg.l2_ttl))
            .collect();
        let l3_tables = (0..partition.l3_count())
            .map(|_| L3Table::new(cfg.l3_ttl))
            .collect();
        HlsrgProtocol {
            cfg,
            partition,
            l1_center_pos,
            l1_tables,
            l2_tables,
            l3_tables,
            log: QueryLog::new(),
            rng,
            last_push: vec![None; partition_l1_count],
            reason_counts: [0; 4],
            stats: PathStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HlsrgConfig {
        &self.cfg
    }

    /// Pre-sizes every location table for a fleet of `n` vehicles. Entries
    /// spread across the tables of each level, so each table reserves a
    /// per-region share (with slack for uneven density) rather than the full
    /// fleet.
    pub fn reserve_vehicles(&mut self, n: usize) {
        let share = |tables: usize| 2 * n.div_ceil(tables.max(1)) + 8;
        let l1 = share(self.l1_tables.len());
        for t in &mut self.l1_tables {
            t.reserve(l1);
        }
        let l2 = share(self.l2_tables.len());
        for t in &mut self.l2_tables {
            t.reserve(l2);
        }
        let l3 = share(self.l3_tables.len());
        for t in &mut self.l3_tables {
            t.reserve(l3);
        }
    }

    /// Update counts per reason, in [`UpdateReason`] declaration order.
    pub fn reason_counts(&self) -> [u64; 4] {
        self.reason_counts
    }

    /// Live-entry count of an L1 table (diagnostics).
    pub fn l1_table_len(&self, l1: L1Id) -> usize {
        self.l1_tables[l1.0 as usize].len()
    }

    /// Live-entry count of an L2 table (diagnostics).
    pub fn l2_table_len(&self, l2: L2Id) -> usize {
        self.l2_tables[l2.0 as usize].len()
    }

    /// Live-entry count of an L3 table (diagnostics).
    pub fn l3_table_len(&self, l3: L3Id) -> usize {
        self.l3_tables[l3.0 as usize].len()
    }

    fn reason_ix(r: UpdateReason) -> usize {
        match r {
            UpdateReason::ArteryTurn => 0,
            UpdateReason::ArteryL3Crossing => 1,
            UpdateReason::NormalTurnOntoArtery => 2,
            UpdateReason::NormalBoundaryCrossing => 3,
        }
    }

    /// A vehicle that can act for the center of `l1` right now: preferably one in
    /// the custodian zone around the center intersection, else any vehicle in the
    /// grid (it carries the grid's table as it passes through).
    fn find_custodian(&self, core: &NetworkCore, l1: L1Id) -> Option<NodeId> {
        let reg = &core.registry;
        let is_vehicle = |n| matches!(reg.kind(n), NodeKind::Vehicle(_));
        let center = self.l1_center_pos[l1.0 as usize];
        reg.lowest_id_within(center, self.cfg.center_radius, |n, _| is_vehicle(n))
            .or_else(|| {
                // Half-diagonal of the square grid: covers the whole cell.
                let r = self.partition.l1_size() * std::f64::consts::FRAC_1_SQRT_2 + 1.0;
                reg.lowest_id_within(center, r, |n, p| {
                    is_vehicle(n) && self.partition.l1_of(p) == l1
                })
            })
    }

    fn backoff_delay(&mut self, core: &NetworkCore, band: (u32, u32)) -> SimDuration {
        let slots = self.rng.random_range(band.0..=band.1);
        core.radio.backoff(slots)
    }

    // ---- update path ----

    /// Broadcasts one location update for the vehicle described by `s`, whose
    /// new position lies in grid `l1`.
    fn send_update(
        &mut self,
        core: &mut NetworkCore,
        s: &MoveSample,
        l1: L1Id,
        now: SimTime,
    ) -> Fx {
        let node = core.registry.node_of_vehicle(s.id);
        let packet = UpdatePacket {
            vehicle: s.id,
            pos: s.new_pos,
            time: now,
            heading: s.heading,
            road: s.road,
            road_class: s.road_class,
            l1,
        };
        deliveries(core.broadcast_onehop(
            node,
            PacketClass::Update,
            self.cfg.sizes.update,
            HlsrgPayload::Update(packet),
        ))
    }

    fn handle_update(&mut self, core: &mut NetworkCore, at: NodeId, u: UpdatePacket) -> Fx {
        // Every vehicle in a grid is a prospective location server (it will pass
        // the center intersection); a receiver in the update's own grid records
        // the entry into the grid's table, while a receiver in any *other* grid
        // deletes the vehicle from its grid's table (the paper's "old grid" rule).
        if let NodeKind::Vehicle(_) = core.registry.kind(at) {
            let g = self.partition.l1_of(core.registry.pos(at));
            let table = &mut self.l1_tables[g.0 as usize];
            if g == u.l1 {
                table.record(
                    u.vehicle,
                    L1Entry {
                        pos: u.pos,
                        time: u.time,
                        heading: u.heading,
                        road: u.road,
                        road_class: u.road_class,
                        l1: u.l1,
                    },
                );
            } else {
                table.remove(u.vehicle);
            }
        }
        Vec::new()
    }

    // ---- collection pipeline ----

    /// Pushes grid `l1`'s table to its L2 RSU from `server`. Assumes the table
    /// was pruned and is non-empty.
    fn push_l1_table(
        &mut self,
        core: &mut NetworkCore,
        l1: L1Id,
        server: NodeId,
        now: SimTime,
    ) -> Fx {
        let rows = self.l1_tables[l1.0 as usize].summary();
        let size = self.cfg.sizes.table(rows.len());
        let l2 = self.partition.l1_to_l2(l1);
        let rsu = self.partition.rsu_of_l2(l2);
        let rsu_node = core.registry.node_of_rsu(rsu);
        let rsu_pos = core.registry.pos(rsu_node);
        self.last_push[l1.0 as usize] = Some(now);
        deliveries(core.send_gpsr(
            server,
            GpsrTarget::Node(rsu_node),
            rsu_pos,
            PacketClass::Collection,
            size,
            HlsrgPayload::TableToL2 {
                l2,
                from_l1: l1,
                rows,
            },
        ))
    }

    /// True if the grid's table holds entries newer than its last push.
    fn has_unpushed_entries(&self, l1: L1Id) -> bool {
        match self.last_push[l1.0 as usize] {
            None => !self.l1_tables[l1.0 as usize].is_empty(),
            Some(since) => self.l1_tables[l1.0 as usize]
                .iter()
                .any(|(_, e)| e.time > since),
        }
    }

    /// The paper's hand-off: a custodian leaving the center intersection
    /// geo-broadcasts its table in the intersection range (so remaining vehicles
    /// keep serving) and forwards it to the L2 RSU. Throttled to departures that
    /// carry news.
    fn handle_departure(
        &mut self,
        core: &mut NetworkCore,
        l1: L1Id,
        server: NodeId,
        now: SimTime,
    ) -> Fx {
        self.l1_tables[l1.0 as usize].prune(now);
        if self.l1_tables[l1.0 as usize].is_empty() || !self.has_unpushed_entries(l1) {
            return Vec::new();
        }
        // The intersection hand-off broadcast. Within the logical-table model the
        // remaining custodians already share the table; the packet still costs a
        // transmission, which is what the overhead figures count.
        let rows_len = self.l1_tables[l1.0 as usize].len();
        let mut fx = deliveries(core.broadcast_onehop(
            server,
            PacketClass::Collection,
            self.cfg.sizes.table(rows_len),
            HlsrgPayload::TableHandoff { l1 },
        ));
        fx.extend(self.push_l1_table(core, l1, server, now));
        fx
    }

    fn handle_l1_collect(&mut self, core: &mut NetworkCore, l1: L1Id, now: SimTime) -> Fx {
        let mut fx: Fx = vec![Effect::Timer {
            delay: self.cfg.collection_period,
            key: HlsrgTimer::L1Collect { l1 },
        }];
        let table = &mut self.l1_tables[l1.0 as usize];
        table.prune(now);
        if table.is_empty() {
            return fx;
        }
        if self.cfg.collection_mode == crate::config::CollectionMode::OnDeparture
            && !self.has_unpushed_entries(l1)
        {
            // Fallback sweep: only fires for data that departures never carried.
            return fx;
        }
        let Some(server) = self.find_custodian(core, l1) else {
            // Nobody at the intersection right now: the push waits a period.
            return fx;
        };
        let push = self.push_l1_table(core, l1, server, now);
        fx.extend(push);
        fx
    }

    fn handle_l2_push(&mut self, core: &mut NetworkCore, l2: L2Id, now: SimTime) -> Fx {
        let mut fx: Fx = vec![Effect::Timer {
            delay: self.cfg.l2_push_period,
            key: HlsrgTimer::L2Push { l2 },
        }];
        let table = &mut self.l2_tables[l2.0 as usize];
        table.prune(now);
        if table.is_empty() {
            return fx;
        }
        let rows = table.summary();
        let size = self.cfg.sizes.table(rows.len());
        let l3 = self.partition.l2_to_l3(l2);
        let emissions = core.send_wired(
            self.partition.rsu_of_l2(l2),
            self.partition.rsu_of_l3(l3),
            PacketClass::Collection,
            size,
            HlsrgPayload::TableToL3 {
                l3,
                from_l2: l2,
                rows,
            },
        );
        fx.extend(deliveries(emissions));
        fx
    }

    fn merge_into_l2(&mut self, l2: L2Id, from_l1: L1Id, rows: &[(VehicleId, SimTime)]) {
        let table = &mut self.l2_tables[l2.0 as usize];
        for &(v, t) in rows {
            table.record(
                v,
                UpEntry {
                    time: t,
                    from: from_l1,
                },
            );
        }
    }

    // ---- query path ----

    /// Sends `request` from `from` toward whatever its stage addresses.
    fn dispatch_request(
        &mut self,
        core: &mut NetworkCore,
        from: NodeId,
        request: RequestPacket,
    ) -> Fx {
        let size = self.cfg.sizes.request
            + request
                .attach
                .as_ref()
                .map_or(0, |(_, rows)| self.cfg.sizes.table_entry * rows.len());
        match request.stage {
            RequestStage::L1 { l1, .. } => {
                let center = self.l1_center_pos[l1.0 as usize];
                deliveries(core.send_gpsr(
                    from,
                    GpsrTarget::AnyAt {
                        radius: self.cfg.center_radius,
                    },
                    center,
                    PacketClass::Query,
                    size,
                    HlsrgPayload::Request(request),
                ))
            }
            RequestStage::L2 { l2, .. } => {
                let rsu_node = core.registry.node_of_rsu(self.partition.rsu_of_l2(l2));
                let pos = core.registry.pos(rsu_node);
                deliveries(core.send_gpsr(
                    from,
                    GpsrTarget::Node(rsu_node),
                    pos,
                    PacketClass::Query,
                    size,
                    HlsrgPayload::Request(request),
                ))
            }
            RequestStage::L3 { l3, .. } => {
                let rsu_node = core.registry.node_of_rsu(self.partition.rsu_of_l3(l3));
                let pos = core.registry.pos(rsu_node);
                deliveries(core.send_gpsr(
                    from,
                    GpsrTarget::Node(rsu_node),
                    pos,
                    PacketClass::Query,
                    size,
                    HlsrgPayload::Request(request),
                ))
            }
        }
    }

    /// Wired forwarding between RSUs (L2/L3 stages only).
    fn forward_wired(
        &mut self,
        core: &mut NetworkCore,
        from_rsu: vanet_roadnet::RsuId,
        to_rsu: vanet_roadnet::RsuId,
        request: RequestPacket,
    ) -> Fx {
        deliveries(core.send_wired(
            from_rsu,
            to_rsu,
            PacketClass::Query,
            self.cfg.sizes.request,
            HlsrgPayload::Request(request),
        ))
    }

    fn handle_request(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        mut req: RequestPacket,
        now: SimTime,
    ) -> Fx {
        if self.log.is_complete(req.query) {
            return Vec::new(); // answered while this copy was in flight
        }
        if req.budget == 0 {
            return Vec::new(); // loop protection: let the source's timeout recover
        }
        match req.stage {
            RequestStage::L1 { l1, from_l2 } => {
                let entry = self.l1_tables[l1.0 as usize].lookup(req.dst, now);
                match entry {
                    Some(e) => {
                        self.stats.l1_hits += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 1,
                            hit: true,
                        });
                        // Election: holders back off 0–15 slots; the winner serves.
                        let delay = self.backoff_delay(core, self.cfg.backoff_found);
                        vec![Effect::Timer {
                            delay,
                            key: HlsrgTimer::ServeNotify {
                                query: req.query,
                                server: at,
                                source: NotifySource {
                                    pos: e.pos,
                                    heading: e.heading,
                                    road_class: e.road_class,
                                    l1: e.l1,
                                },
                                src: req.src,
                                dst: req.dst,
                            },
                        }]
                    }
                    None => {
                        self.stats.l1_misses += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 1,
                            hit: false,
                        });
                        core.trace(|t| TraceEvent::RouteDecision {
                            t,
                            query: req.query.0,
                            from_level: 1,
                            to_level: if from_l2 { 3 } else { 2 },
                        });
                        // Nobody here knows: back off 17–31 slots, then escalate
                        // with our table attached. A request already routed down by
                        // L2 goes straight to L3 instead of ping-ponging.
                        let delay = self.backoff_delay(core, self.cfg.backoff_notfound);
                        req.budget -= 1;
                        if from_l2 {
                            let l3 = self.partition.l2_to_l3(self.partition.l1_to_l2(l1));
                            req.stage = RequestStage::L3 { l3, from_l3: false };
                        } else {
                            self.l1_tables[l1.0 as usize].prune(now);
                            req.attach = Some((l1, self.l1_tables[l1.0 as usize].summary()));
                            req.stage = RequestStage::L2 {
                                l2: self.partition.l1_to_l2(l1),
                                from_l3: false,
                            };
                        }
                        vec![Effect::Timer {
                            delay,
                            key: HlsrgTimer::Escalate {
                                server: at,
                                request: req,
                            },
                        }]
                    }
                }
            }
            RequestStage::L2 { l2, from_l3 } => {
                if let Some((from_l1, rows)) = req.attach.take() {
                    self.merge_into_l2(l2, from_l1, &rows);
                }
                match self.l2_tables[l2.0 as usize].lookup(req.dst, now) {
                    Some(UpEntry { from: l1, .. }) => {
                        self.stats.l2_hits += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 2,
                            hit: true,
                        });
                        core.trace(|t| TraceEvent::RouteDecision {
                            t,
                            query: req.query.0,
                            from_level: 2,
                            to_level: 1,
                        });
                        req.budget -= 1;
                        req.stage = RequestStage::L1 { l1, from_l2: true };
                        self.dispatch_request(core, at, req)
                    }
                    None if from_l3 => {
                        // The L3 pointer was already stale: everything below has
                        // forgotten this vehicle. Bouncing back up would just
                        // ping-pong; let the source's timeout recover.
                        self.stats.l2_misses += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 2,
                            hit: false,
                        });
                        Vec::new()
                    }
                    None => {
                        self.stats.l2_misses += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 2,
                            hit: false,
                        });
                        core.trace(|t| TraceEvent::RouteDecision {
                            t,
                            query: req.query.0,
                            from_level: 2,
                            to_level: 3,
                        });
                        req.budget -= 1;
                        let l3 = self.partition.l2_to_l3(l2);
                        req.stage = RequestStage::L3 { l3, from_l3: false };
                        self.forward_wired(
                            core,
                            self.partition.rsu_of_l2(l2),
                            self.partition.rsu_of_l3(l3),
                            req,
                        )
                    }
                }
            }
            RequestStage::L3 { l3, from_l3 } => {
                match self.l3_tables[l3.0 as usize].lookup(req.dst, now) {
                    Some(UpEntry { from: l2, .. }) => {
                        self.stats.l3_hits += 1;
                        req.budget -= 1;
                        let parent = self.partition.l2_to_l3(l2);
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 3,
                            hit: true,
                        });
                        core.trace(|t| TraceEvent::RouteDecision {
                            t,
                            query: req.query.0,
                            from_level: 3,
                            to_level: if parent == l3 { 2 } else { 3 },
                        });
                        if parent == l3 {
                            req.stage = RequestStage::L2 { l2, from_l3: true };
                            self.forward_wired(
                                core,
                                self.partition.rsu_of_l3(l3),
                                self.partition.rsu_of_l2(l2),
                                req,
                            )
                        } else {
                            req.stage = RequestStage::L3 {
                                l3: parent,
                                from_l3: true,
                            };
                            self.forward_wired(
                                core,
                                self.partition.rsu_of_l3(l3),
                                self.partition.rsu_of_l3(parent),
                                req,
                            )
                        }
                    }
                    None if from_l3 => {
                        self.stats.l3_misses += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 3,
                            hit: false,
                        });
                        Vec::new() // dead end; the source times out
                    }
                    None => {
                        self.stats.l3_misses += 1;
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 3,
                            hit: false,
                        });
                        // The backbone gives every L3 RSU visibility into its
                        // peers: forward to the one holding the freshest entry.
                        let best = (0..self.l3_tables.len())
                            .filter(|&i| i != l3.0 as usize)
                            .filter_map(|i| {
                                self.l3_tables[i]
                                    .lookup(req.dst, now)
                                    .map(|e| (i as u32, e.time))
                            })
                            .max_by_key(|&(i, t)| (t, std::cmp::Reverse(i)));
                        match best {
                            Some((peer, _)) => {
                                req.budget -= 1;
                                core.trace(|t| TraceEvent::RouteDecision {
                                    t,
                                    query: req.query.0,
                                    from_level: 3,
                                    to_level: 3,
                                });
                                req.stage = RequestStage::L3 {
                                    l3: L3Id(peer),
                                    from_l3: true,
                                };
                                self.forward_wired(
                                    core,
                                    self.partition.rsu_of_l3(l3),
                                    self.partition.rsu_of_l3(L3Id(peer)),
                                    req,
                                )
                            }
                            None => Vec::new(),
                        }
                    }
                }
            }
        }
    }

    fn handle_serve_notify(
        &mut self,
        core: &mut NetworkCore,
        query: QueryId,
        server: NodeId,
        source: NotifySource,
        src: VehicleId,
        dst: VehicleId,
    ) -> Fx {
        if self.log.is_complete(query) {
            return Vec::new();
        }
        // The ACK target: the source's position travels in the notification.
        let src_pos = core.registry.pos(core.registry.node_of_vehicle(src));
        let payload = HlsrgPayload::Notify(NotifyPacket {
            query,
            src,
            dst,
            src_pos,
        });
        match source.road_class {
            vanet_roadnet::RoadClass::Artery => self.stats.notify_directional += 1,
            vanet_roadnet::RoadClass::Normal => self.stats.notify_region += 1,
        }
        let directional = source.road_class == vanet_roadnet::RoadClass::Artery;
        core.trace(|t| TraceEvent::NotifyBroadcast {
            t,
            query: query.0,
            directional,
        });
        let emissions = match source.road_class {
            vanet_roadnet::RoadClass::Artery => core.geo_broadcast_directional(
                server,
                source.pos,
                source.heading.unit(),
                self.cfg.notify_max_dist,
                self.cfg.lateral_tol,
                PacketClass::Query,
                self.cfg.sizes.notify,
                payload,
            ),
            vanet_roadnet::RoadClass::Normal => core.geo_broadcast_region(
                server,
                &self.partition.l1_bbox(source.l1),
                PacketClass::Query,
                self.cfg.sizes.notify,
                payload,
            ),
        };
        deliveries(emissions)
    }

    fn handle_timeout(
        &mut self,
        core: &mut NetworkCore,
        query: QueryId,
        src: VehicleId,
        dst: VehicleId,
    ) -> Fx {
        if self.log.is_complete(query) || self.log.get(query).retried {
            return Vec::new();
        }
        self.log.mark_retried(query);
        core.trace(|t| TraceEvent::QueryRetried { t, query: query.0 });
        // Paper: after 5 s without an ACK, send the request straight to the nearest
        // L3 RSU, which has the widest view.
        let src_node = core.registry.node_of_vehicle(src);
        let pos = core.registry.pos(src_node);
        let l3 = self.partition.l3_of(pos);
        core.trace(|t| TraceEvent::RouteDecision {
            t,
            query: query.0,
            from_level: 0,
            to_level: 3,
        });
        let request = RequestPacket {
            query,
            src,
            dst,
            src_pos: pos,
            stage: RequestStage::L3 { l3, from_l3: false },
            budget: self.cfg.max_escalations,
            attach: None,
        };
        self.dispatch_request(core, src_node, request)
    }
}

impl LocationService for HlsrgProtocol {
    type Payload = HlsrgPayload;
    type Timer = HlsrgTimer;

    fn on_start(&mut self, _core: &mut NetworkCore) -> Fx {
        let mut fx = Vec::new();
        // Stagger the periodic pushes so the whole map doesn't collect at once.
        for i in 0..self.partition.l1_count() as u32 {
            let skew = SimDuration::from_millis(97 * (i as u64 + 1));
            fx.push(Effect::Timer {
                delay: self.cfg.collection_period + skew,
                key: HlsrgTimer::L1Collect { l1: L1Id(i) },
            });
        }
        for i in 0..self.partition.l2_count() as u32 {
            let skew = SimDuration::from_millis(131 * (i as u64 + 1));
            fx.push(Effect::Timer {
                delay: self.cfg.l2_push_period + self.cfg.collection_period + skew,
                key: HlsrgTimer::L2Push { l2: L2Id(i) },
            });
        }
        fx
    }

    fn on_join(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx {
        // Initial registration: every vehicle announces itself unconditionally.
        let mut fx = Vec::new();
        for s in samples {
            let l1 = self.partition.l1_of(s.new_pos);
            fx.extend(self.send_update(core, s, l1, now));
        }
        fx
    }

    fn on_move(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx {
        let mut fx = Vec::new();
        for s in samples {
            let cells = SampleCells::of(&self.partition, s);
            if self.cfg.collection_mode == crate::config::CollectionMode::OnDeparture {
                // Departure hand-off: the vehicle was in some grid's center zone
                // and has left it this tick.
                if let Some(g_old) =
                    left_center_zone(&self.l1_center_pos, self.cfg.center_radius, s, cells)
                {
                    let node = core.registry.node_of_vehicle(s.id);
                    fx.extend(self.handle_departure(core, g_old, node, now));
                }
            }
            let Some(reason) = update_rule(self.cfg.update_policy, s, cells) else {
                continue;
            };
            self.reason_counts[Self::reason_ix(reason)] += 1;
            core.trace(|t| TraceEvent::UpdateTriggered {
                t,
                vehicle: s.id.0,
                artery: s.road_class == vanet_roadnet::RoadClass::Artery,
                reason: Self::reason_ix(reason) as u8,
            });
            fx.extend(self.send_update(core, s, cells.new.0, now));
        }
        fx
    }

    /// The L1 grid (the L3 cell follows from the L1 cell) and, when
    /// departures hand tables off, the L1 centre zones.
    fn trigger_geometry(&self) -> Option<TriggerGeometry> {
        let grid = self.partition.l1_grid();
        let mut geo = TriggerGeometry::default();
        if self.cfg.collection_mode == crate::config::CollectionMode::OnDeparture {
            let (nx, ny) = self.partition.l1_dims();
            geo.zones = Some(ZoneDiscs {
                grid,
                nx,
                ny,
                centres: self.l1_center_pos.clone(),
                radius: self.cfg.center_radius,
            });
        }
        geo.add_grid(grid);
        Some(geo)
    }

    fn on_packet(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        _class: PacketClass,
        payload: HlsrgPayload,
        now: SimTime,
    ) -> Fx {
        match payload {
            HlsrgPayload::Update(u) => self.handle_update(core, at, u),
            // Hand-off broadcasts synchronize custodians; with logical per-grid
            // tables the state is already shared, so receipt is a no-op.
            HlsrgPayload::TableHandoff { .. } => Vec::new(),
            HlsrgPayload::TableToL2 { l2, from_l1, rows } => {
                self.merge_into_l2(l2, from_l1, &rows);
                Vec::new()
            }
            HlsrgPayload::TableToL3 { l3, from_l2, rows } => {
                let table = &mut self.l3_tables[l3.0 as usize];
                for (v, t) in rows {
                    table.record(
                        v,
                        UpEntry {
                            time: t,
                            from: from_l2,
                        },
                    );
                }
                Vec::new()
            }
            HlsrgPayload::Request(req) => self.handle_request(core, at, req, now),
            HlsrgPayload::Notify(n) => {
                if core.registry.kind(at) == NodeKind::Vehicle(n.dst) {
                    self.stats.acks_sent += 1;
                    let src_node = core.registry.node_of_vehicle(n.src);
                    deliveries(core.send_gpsr(
                        at,
                        GpsrTarget::Node(src_node),
                        n.src_pos,
                        PacketClass::Query,
                        self.cfg.sizes.ack,
                        HlsrgPayload::Ack { query: n.query },
                    ))
                } else {
                    Vec::new()
                }
            }
            HlsrgPayload::Ack { query } => {
                let src = self.log.get(query).src;
                if core.registry.kind(at) != NodeKind::Vehicle(src) {
                    return Vec::new();
                }
                let fresh = !self.log.is_complete(query);
                self.log.complete(query, now);
                if fresh {
                    core.trace(|t| TraceEvent::QueryAnswered { t, query: query.0 });
                }
                if !fresh || self.cfg.data_packets_per_session == 0 {
                    return Vec::new();
                }
                // Location in hand: the application traffic the paper's intro
                // motivates now flows over GPSR directly.
                let dst = self.log.get(query).dst;
                let dst_node = core.registry.node_of_vehicle(dst);
                let dst_pos = core.registry.pos(dst_node);
                let mut fx = Vec::new();
                for seq in 0..self.cfg.data_packets_per_session {
                    fx.extend(deliveries(core.send_gpsr(
                        at,
                        GpsrTarget::Node(dst_node),
                        dst_pos,
                        PacketClass::Data,
                        self.cfg.sizes.data,
                        HlsrgPayload::Data {
                            session: query,
                            seq,
                            dst,
                        },
                    )));
                }
                fx
            }
            HlsrgPayload::Data { dst, .. } => {
                if core.registry.kind(at) == NodeKind::Vehicle(dst) {
                    self.stats.data_delivered += 1;
                }
                Vec::new()
            }
        }
    }

    fn on_timer(&mut self, core: &mut NetworkCore, key: HlsrgTimer, now: SimTime) -> Fx {
        match key {
            HlsrgTimer::L1Collect { l1 } => self.handle_l1_collect(core, l1, now),
            HlsrgTimer::L2Push { l2 } => self.handle_l2_push(core, l2, now),
            HlsrgTimer::ServeNotify {
                query,
                server,
                source,
                src,
                dst,
            } => self.handle_serve_notify(core, query, server, source, src, dst),
            HlsrgTimer::Escalate { server, request } => {
                if self.log.is_complete(request.query) {
                    Vec::new()
                } else {
                    self.dispatch_request(core, server, request)
                }
            }
            HlsrgTimer::QueryTimeout { query, src, dst } => {
                self.handle_timeout(core, query, src, dst)
            }
        }
    }

    fn launch_query(
        &mut self,
        core: &mut NetworkCore,
        src: VehicleId,
        dst: VehicleId,
        now: SimTime,
    ) -> Fx {
        let query = self.log.launch(src, dst, now);
        let src_node = core.registry.node_of_vehicle(src);
        let pos = core.registry.pos(src_node);
        // Nearest level center wins: the protocol is distributed when the answer is
        // local and centralized when it isn't.
        let l1 = self.partition.l1_of(pos);
        let l2 = self.partition.l1_to_l2(l1);
        let l3 = self.partition.l2_to_l3(l2);
        let d1 = pos.distance(self.l1_center_pos[l1.0 as usize]);
        let rsu2 = core
            .registry
            .pos(core.registry.node_of_rsu(self.partition.rsu_of_l2(l2)));
        let rsu3 = core
            .registry
            .pos(core.registry.node_of_rsu(self.partition.rsu_of_l3(l3)));
        let (d2, d3) = (pos.distance(rsu2), pos.distance(rsu3));
        let stage = if d1 <= d2 && d1 <= d3 {
            RequestStage::L1 { l1, from_l2: false }
        } else if d2 <= d3 {
            RequestStage::L2 { l2, from_l3: false }
        } else {
            RequestStage::L3 { l3, from_l3: false }
        };
        let level = match stage {
            RequestStage::L1 { .. } => 1,
            RequestStage::L2 { .. } => 2,
            RequestStage::L3 { .. } => 3,
        };
        core.trace(|t| TraceEvent::QueryLaunched {
            t,
            query: query.0,
            src: src.0,
            dst: dst.0,
            level,
        });
        let request = RequestPacket {
            query,
            src,
            dst,
            src_pos: pos,
            stage,
            budget: self.cfg.max_escalations,
            attach: None,
        };
        let mut fx = self.dispatch_request(core, src_node, request);
        fx.push(Effect::Timer {
            delay: self.cfg.query_timeout,
            key: HlsrgTimer::QueryTimeout { query, src, dst },
        });
        fx
    }

    fn query_log(&self) -> &QueryLog {
        &self.log
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let l1_total: usize = self.l1_tables.iter().map(|t| t.len()).sum();
        let l2_total: usize = self.l2_tables.iter().map(|t| t.len()).sum();
        let l3_total: usize = self.l3_tables.iter().map(|t| t.len()).sum();
        vec![
            ("l1_entries", l1_total as f64),
            ("l2_entries", l2_total as f64),
            ("l3_entries", l3_total as f64),
            ("updates_artery_turn", self.reason_counts[0] as f64),
            ("updates_artery_l3", self.reason_counts[1] as f64),
            ("updates_normal_onto_artery", self.reason_counts[2] as f64),
            ("updates_normal_boundary", self.reason_counts[3] as f64),
            ("q_l1_hits", self.stats.l1_hits as f64),
            ("q_l1_misses", self.stats.l1_misses as f64),
            ("q_l2_hits", self.stats.l2_hits as f64),
            ("q_l2_misses", self.stats.l2_misses as f64),
            ("q_l3_hits", self.stats.l3_hits as f64),
            ("q_l3_misses", self.stats.l3_misses as f64),
            ("q_notify_dir", self.stats.notify_directional as f64),
            ("q_notify_region", self.stats.notify_region as f64),
            ("q_acks_sent", self.stats.acks_sent as f64),
            ("data_delivered", self.stats.data_delivered as f64),
        ]
    }

    fn table_sizes(&self) -> [u64; 3] {
        [
            self.l1_tables.iter().map(|t| t.len() as u64).sum(),
            self.l2_tables.iter().map(|t| t.len() as u64).sum(),
            self.l3_tables.iter().map(|t| t.len() as u64).sum(),
        ]
    }

    fn region_entries(&self, out: &mut [u64]) {
        // Every table is homed at a grid whose containing L3 region is fixed
        // by the partition geometry, so per-region load is a pure fold.
        for (i, t) in self.l3_tables.iter().enumerate() {
            if let Some(slot) = out.get_mut(i) {
                *slot += t.len() as u64;
            }
        }
        for (i, t) in self.l2_tables.iter().enumerate() {
            let l3 = self.partition.l2_to_l3(L2Id(i as u32));
            if let Some(slot) = out.get_mut(l3.0 as usize) {
                *slot += t.len() as u64;
            }
        }
        for (i, t) in self.l1_tables.iter().enumerate() {
            let l3 = self
                .partition
                .l2_to_l3(self.partition.l1_to_l2(L1Id(i as u32)));
            if let Some(slot) = out.get_mut(l3.0 as usize) {
                *slot += t.len() as u64;
            }
        }
    }

    /// Location-table soundness: every L1 entry sits in the
    /// table of the grid it was addressed to, its position maps back to that
    /// grid, and it has not drifted beyond the staleness bound of the vehicle's
    /// ground-truth position; upper-level entries carry sane timestamps and
    /// in-range reporter ids.
    fn check_invariants(
        &self,
        core: &NetworkCore,
        now: SimTime,
        max_speed: f64,
        pos_slack: f64,
    ) -> Result<(), String> {
        for (gi, table) in self.l1_tables.iter().enumerate() {
            for (v, e) in table.iter() {
                if e.time > now {
                    return Err(format!("L1[{gi}] entry for {v:?} is from the future"));
                }
                if e.l1 != L1Id(gi as u32) {
                    return Err(format!(
                        "L1[{gi}] stores an entry addressed to {:?} (vehicle {v:?})",
                        e.l1
                    ));
                }
                if self.partition.l1_of(e.pos) != e.l1 {
                    return Err(format!(
                        "L1[{gi}] entry for {v:?} at ({:.1}, {:.1}) maps to {:?}",
                        e.pos.x,
                        e.pos.y,
                        self.partition.l1_of(e.pos)
                    ));
                }
                let truth = core.registry.pos(core.registry.node_of_vehicle(v));
                let age = now.saturating_since(e.time).as_secs_f64();
                let bound = max_speed * age + pos_slack;
                let drift = e.pos.distance(truth);
                if drift > bound {
                    return Err(format!(
                        "L1[{gi}] entry for {v:?} drifted {drift:.1} m from ground truth \
                         (bound {bound:.1} m at age {age:.1} s)"
                    ));
                }
            }
        }
        for (gi, table) in self.l2_tables.iter().enumerate() {
            for (v, e) in table.iter() {
                if e.time > now {
                    return Err(format!("L2[{gi}] entry for {v:?} is from the future"));
                }
                if e.from.0 as usize >= self.partition.l1_count() {
                    return Err(format!(
                        "L2[{gi}] entry for {v:?} reports from unknown L1 {:?}",
                        e.from
                    ));
                }
            }
        }
        for (gi, table) in self.l3_tables.iter().enumerate() {
            for (v, e) in table.iter() {
                if e.time > now {
                    return Err(format!("L3[{gi}] entry for {v:?} is from the future"));
                }
                if e.from.0 as usize >= self.partition.l2_count() {
                    return Err(format!(
                        "L3[{gi}] entry for {v:?} reports from unknown L2 {:?}",
                        e.from
                    ));
                }
            }
        }
        Ok(())
    }

    /// Oracle self-test hook: displace one stored L1 position far off the map.
    /// Deterministic despite HashMap iteration order: picks the smallest vehicle
    /// id in the first non-empty table.
    fn corrupt_location_tables(&mut self) {
        for table in &mut self.l1_tables {
            let Some(v) = table.iter().map(|(v, _)| v).min() else {
                continue;
            };
            let mut e = *table.peek(v).expect("entry for the id just found");
            e.pos = Point::new(e.pos.x + 50_000.0, e.pos.y + 50_000.0);
            table.record(v, e);
            return;
        }
    }
}
