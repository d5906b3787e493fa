//! The RLSMP baseline state machine.
//!
//! Faithful to the behaviour this paper (and the GLOBECOM'08 original) describes:
//!
//! * vehicles send a location update **every time they cross a cell boundary** —
//!   no suppression, which is what makes its update overhead ~2× HLSRG's;
//! * updates are stored by the **cell leader** (vehicles near the cell's geometric
//!   center — a lon/lat point that may fall mid-block);
//! * leaders periodically aggregate their tables to the cluster's **LSC**;
//! * queries go to the LSC; on a miss the LSC **waits and aggregates** for a fixed
//!   time, then forwards the query to the other clusters' LSCs in **spiral order**;
//! * no RSUs, no wired shortcuts, no timeout fallback.

use crate::cells::{CellGrid, CellId, ClusterId};
use crate::config::RlsmpConfig;
use fxhash::FxHashMap;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use vanet_des::{SimDuration, SimTime};
use vanet_geo::Point;
use vanet_mobility::{MoveSample, VehicleId};
use vanet_net::{
    deliveries, Effect, GpsrTarget, LocationService, NetworkCore, NodeId, NodeKind, PacketClass,
    QueryId, QueryLog, TraceEvent,
};

/// Trace-event code for RLSMP's only update trigger (see
/// `vanet_trace::REASON_NAMES`): a cell-boundary crossing.
const REASON_CELL_CROSSING: u8 = 4;

/// A full-detail cell-leader table entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellEntry {
    /// Reported position.
    pub pos: Point,
    /// Update time.
    pub time: SimTime,
}

/// A reduced LSC entry: when, and which cell reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LscEntry {
    /// Update time.
    pub time: SimTime,
    /// Reporting cell.
    pub cell: CellId,
}

/// A vehicle's cell-crossing update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlsmpUpdate {
    /// The updating vehicle.
    pub vehicle: VehicleId,
    /// Its position.
    pub pos: Point,
    /// Send time.
    pub time: SimTime,
    /// The cell being entered.
    pub cell: CellId,
}

/// Where a request currently is in its resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RlsmpStage {
    /// At (or en route to) a cluster's LSC.
    Lsc {
        /// The cluster whose LSC processes the request.
        cluster: ClusterId,
        /// How many spiral hops have been taken (0 = home LSC).
        spiral_idx: u32,
    },
    /// En route to the destination's cell leader.
    Cell {
        /// The cell.
        cell: CellId,
    },
}

/// A location request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlsmpRequest {
    /// Query served.
    pub query: QueryId,
    /// Asking vehicle.
    pub src: VehicleId,
    /// Sought vehicle.
    pub dst: VehicleId,
    /// Source position at launch.
    pub src_pos: Point,
    /// The source's own cluster (the spiral's center).
    pub home: ClusterId,
    /// Current stage.
    pub stage: RlsmpStage,
    /// Whether the home LSC already did its wait-and-aggregate pause.
    pub waited: bool,
}

/// Everything RLSMP puts on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RlsmpPayload {
    /// Cell-crossing update broadcast.
    Update(RlsmpUpdate),
    /// Cell-leader → LSC aggregation.
    AggToLsc {
        /// Destination cluster.
        cluster: ClusterId,
        /// `(vehicle, time, reporting cell)` rows.
        rows: Vec<(VehicleId, SimTime, CellId)>,
    },
    /// A location request.
    Request(RlsmpRequest),
    /// The notification flooded in the destination's cell.
    Notify {
        /// Query served.
        query: QueryId,
        /// Asking vehicle.
        src: VehicleId,
        /// Sought vehicle.
        dst: VehicleId,
        /// Source position for the ACK.
        src_pos: Point,
    },
    /// The destination's acknowledgement.
    Ack {
        /// Query answered.
        query: QueryId,
    },
    /// Post-discovery application data riding GPSR to the located vehicle.
    Data {
        /// The discovery session this packet belongs to.
        session: QueryId,
        /// Packet sequence number within the session.
        seq: u32,
        /// The destination vehicle.
        dst: VehicleId,
    },
}

/// RLSMP timers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RlsmpTimer {
    /// Periodic cell-leader aggregation push.
    Aggregate {
        /// The cell to aggregate.
        cell: CellId,
    },
    /// The LSC's wait-and-aggregate pause expired: re-check, then spiral.
    Recheck {
        /// Node that re-processes the request.
        server: NodeId,
        /// The pending request (with `waited = true`).
        request: RlsmpRequest,
    },
}

type Fx = Vec<Effect<RlsmpPayload, RlsmpTimer>>;

/// The RLSMP location service.
#[derive(Debug)]
pub struct RlsmpProtocol {
    cfg: RlsmpConfig,
    grid: CellGrid,
    cell_tables: Vec<FxHashMap<VehicleId, CellEntry>>,
    lsc_tables: Vec<FxHashMap<VehicleId, LscEntry>>,
    /// Each home cluster's spiral order, filled on the first LSC miss from
    /// that home (see [`Self::spiral`]).
    spirals: Vec<Vec<ClusterId>>,
    log: QueryLog,
    #[allow(dead_code)] // reserved for contention modeling parity with HLSRG
    rng: SmallRng,
    update_count: u64,
    data_delivered: u64,
}

impl RlsmpProtocol {
    /// Builds the protocol over the map `area` covered by the mobility model.
    pub fn new(area: vanet_geo::BBox, cfg: RlsmpConfig, rng: SmallRng) -> Self {
        let grid = CellGrid::new(area, cfg.cell_size, cfg.cluster_dim);
        let cell_tables = vec![FxHashMap::default(); grid.cell_count()];
        let lsc_tables = vec![FxHashMap::default(); grid.cluster_count()];
        let spirals = vec![Vec::new(); grid.cluster_count()];
        RlsmpProtocol {
            cfg,
            grid,
            cell_tables,
            lsc_tables,
            spirals,
            log: QueryLog::new(),
            rng,
            update_count: 0,
            data_delivered: 0,
        }
    }

    /// The cell grid in use.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Pre-sizes the cell and LSC tables for a fleet of `n` vehicles, each
    /// table reserving a per-region share (with slack for uneven density).
    pub fn reserve_vehicles(&mut self, n: usize) {
        let share = |tables: usize| 2 * n.div_ceil(tables.max(1)) + 8;
        let per_cell = share(self.cell_tables.len());
        for t in &mut self.cell_tables {
            t.reserve(per_cell);
        }
        let per_cluster = share(self.lsc_tables.len());
        for t in &mut self.lsc_tables {
            t.reserve(per_cluster);
        }
    }

    /// Total cell-crossing updates sent.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Live entries in a cell table (diagnostics).
    pub fn cell_table_len(&self, c: CellId) -> usize {
        self.cell_tables[c.0 as usize].len()
    }

    /// Live entries in a cluster's LSC table (diagnostics).
    pub fn lsc_table_len(&self, cl: ClusterId) -> usize {
        self.lsc_tables[cl.0 as usize].len()
    }

    /// A vehicle that can act as `cell`'s leader right now: preferably one near
    /// the cell center, else any vehicle inside the cell.
    fn find_leader(&self, core: &NetworkCore, cell: CellId) -> Option<NodeId> {
        let reg = &core.registry;
        let is_vehicle = |n| matches!(reg.kind(n), NodeKind::Vehicle(_));
        let center = self.grid.cell_center(cell);
        reg.lowest_id_within(center, self.cfg.leader_radius, |n, _| is_vehicle(n))
            .or_else(|| {
                let r = self.grid.cell_size() * std::f64::consts::FRAC_1_SQRT_2 + 1.0;
                reg.lowest_id_within(center, r, |n, p| {
                    is_vehicle(n) && self.grid.cell_of(p) == cell
                })
            })
    }

    /// The other clusters in spiral order around `home`. The order depends
    /// only on the grid, so it is computed on the first miss from `home` and
    /// cached; an empty entry means "not computed yet" — a one-cluster grid's
    /// spiral really is empty, and recomputing it costs nothing.
    fn spiral(&mut self, home: ClusterId) -> &[ClusterId] {
        let order = &mut self.spirals[home.0 as usize];
        if order.is_empty() {
            *order = self.grid.spiral_order(home);
        }
        order
    }

    fn prune_cell(&mut self, cell: CellId, now: SimTime) {
        let ttl = self.cfg.cell_ttl;
        self.cell_tables[cell.0 as usize].retain(|_, e| now.saturating_since(e.time) <= ttl);
    }

    fn prune_lsc(&mut self, cl: ClusterId, now: SimTime) {
        let ttl = self.cfg.lsc_ttl;
        self.lsc_tables[cl.0 as usize].retain(|_, e| now.saturating_since(e.time) <= ttl);
    }

    fn merge_lsc(&mut self, cl: ClusterId, rows: &[(VehicleId, SimTime, CellId)]) {
        let table = &mut self.lsc_tables[cl.0 as usize];
        for &(v, time, cell) in rows {
            match table.get(&v) {
                Some(cur) if cur.time > time => {}
                _ => {
                    table.insert(v, LscEntry { time, cell });
                }
            }
        }
    }

    /// Broadcasts one cell-crossing (or registration) update.
    fn send_update(
        &mut self,
        core: &mut NetworkCore,
        v: VehicleId,
        pos: Point,
        now: SimTime,
    ) -> Fx {
        let node = core.registry.node_of_vehicle(v);
        let cell = self.grid.cell_of(pos);
        deliveries(core.broadcast_onehop(
            node,
            PacketClass::Update,
            self.cfg.update_size,
            RlsmpPayload::Update(RlsmpUpdate {
                vehicle: v,
                pos,
                time: now,
                cell,
            }),
        ))
    }

    fn handle_aggregate(&mut self, core: &mut NetworkCore, cell: CellId, now: SimTime) -> Fx {
        let mut fx: Fx = vec![Effect::Timer {
            delay: self.cfg.agg_period,
            key: RlsmpTimer::Aggregate { cell },
        }];
        self.prune_cell(cell, now);
        if self.cell_tables[cell.0 as usize].is_empty() {
            return fx;
        }
        let Some(leader) = self.find_leader(core, cell) else {
            return fx;
        };
        let mut rows: Vec<(VehicleId, SimTime, CellId)> = self.cell_tables[cell.0 as usize]
            .iter()
            .map(|(&v, e)| (v, e.time, cell))
            .collect();
        rows.sort_by_key(|&(v, _, _)| v);
        let cluster = self.grid.cluster_of(cell);
        let lsc = self.grid.lsc_cell(cluster);
        if lsc == cell {
            // The leader *is* at the LSC: merge locally, no transmission needed.
            self.merge_lsc(cluster, &rows);
            return fx;
        }
        let size = self.cfg.table_size(rows.len());
        let emissions = core.send_gpsr(
            leader,
            GpsrTarget::AnyAt {
                radius: self.cfg.leader_radius,
            },
            self.grid.cell_center(lsc),
            PacketClass::Collection,
            size,
            RlsmpPayload::AggToLsc { cluster, rows },
        );
        fx.extend(deliveries(emissions));
        fx
    }

    fn forward_request(
        &mut self,
        core: &mut NetworkCore,
        from: NodeId,
        request: RlsmpRequest,
    ) -> Fx {
        let center = match request.stage {
            RlsmpStage::Lsc { cluster, .. } => self.grid.cell_center(self.grid.lsc_cell(cluster)),
            RlsmpStage::Cell { cell } => self.grid.cell_center(cell),
        };
        deliveries(core.send_gpsr(
            from,
            GpsrTarget::AnyAt {
                radius: self.cfg.leader_radius,
            },
            center,
            PacketClass::Query,
            self.cfg.request_size,
            RlsmpPayload::Request(request),
        ))
    }

    /// The LSC's decision on a miss: wait once, then spiral outward.
    fn miss_at_lsc(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        mut req: RlsmpRequest,
        spiral_idx: u32,
    ) -> Fx {
        if !req.waited && spiral_idx == 0 {
            req.waited = true;
            return vec![Effect::Timer {
                delay: self.cfg.query_wait,
                key: RlsmpTimer::Recheck {
                    server: at,
                    request: req,
                },
            }];
        }
        // Spiral: physically forward the request to the next cluster's LSC.
        match self.spiral(req.home).get(spiral_idx as usize).copied() {
            Some(next) => {
                core.trace(|t| TraceEvent::RouteDecision {
                    t,
                    query: req.query.0,
                    from_level: 2,
                    to_level: 2,
                });
                req.stage = RlsmpStage::Lsc {
                    cluster: next,
                    spiral_idx: spiral_idx + 1,
                };
                self.forward_request(core, at, req)
            }
            None => Vec::new(), // spiral exhausted: the query fails
        }
    }

    fn handle_request(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        req: RlsmpRequest,
        now: SimTime,
    ) -> Fx {
        if self.log.is_complete(req.query) {
            return Vec::new();
        }
        match req.stage {
            RlsmpStage::Lsc {
                cluster,
                spiral_idx,
            } => {
                self.prune_lsc(cluster, now);
                match self.lsc_tables[cluster.0 as usize].get(&req.dst).copied() {
                    Some(LscEntry { cell, .. }) => {
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
                        let mut fwd = req;
                        fwd.stage = RlsmpStage::Cell { cell };
                        self.forward_request(core, at, fwd)
                    }
                    None => {
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 2,
                            hit: false,
                        });
                        self.miss_at_lsc(core, at, req, spiral_idx)
                    }
                }
            }
            RlsmpStage::Cell { cell } => {
                self.prune_cell(cell, now);
                match self.cell_tables[cell.0 as usize].get(&req.dst).copied() {
                    Some(_) => {
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 1,
                            hit: true,
                        });
                        core.trace(|t| TraceEvent::NotifyBroadcast {
                            t,
                            query: req.query.0,
                            directional: false,
                        });
                        // One cell of margin: the destination keeps moving while
                        // the aggregation and the request travel.
                        let bbox = self.grid.cell_bbox(cell).inflate(self.grid.cell_size());
                        deliveries(core.geo_broadcast_region(
                            at,
                            &bbox,
                            PacketClass::Query,
                            self.cfg.notify_size,
                            RlsmpPayload::Notify {
                                query: req.query,
                                src: req.src,
                                dst: req.dst,
                                src_pos: req.src_pos,
                            },
                        ))
                    }
                    None => {
                        // Stale LSC pointer: the query fails here.
                        core.trace(|t| TraceEvent::LevelVisit {
                            t,
                            query: req.query.0,
                            level: 1,
                            hit: false,
                        });
                        Vec::new()
                    }
                }
            }
        }
    }
}

impl LocationService for RlsmpProtocol {
    type Payload = RlsmpPayload;
    type Timer = RlsmpTimer;

    fn on_start(&mut self, _core: &mut NetworkCore) -> Fx {
        (0..self.grid.cell_count() as u32)
            .map(|i| Effect::Timer {
                delay: self.cfg.agg_period + SimDuration::from_millis(89 * (i as u64 + 1)),
                key: RlsmpTimer::Aggregate { cell: CellId(i) },
            })
            .collect()
    }

    fn on_join(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx {
        // Initial registration: every vehicle announces itself unconditionally.
        let mut fx = Vec::new();
        for s in samples {
            self.update_count += 1;
            fx.extend(self.send_update(core, s.id, s.new_pos, now));
        }
        fx
    }

    fn on_move(&mut self, core: &mut NetworkCore, samples: &[MoveSample], now: SimTime) -> Fx {
        let mut fx = Vec::new();
        for s in samples {
            let old_cell = self.grid.cell_of(s.old_pos);
            let new_cell = self.grid.cell_of(s.new_pos);
            if old_cell == new_cell {
                continue;
            }
            self.update_count += 1;
            core.trace(|t| TraceEvent::UpdateTriggered {
                t,
                vehicle: s.id.0,
                artery: false,
                reason: REASON_CELL_CROSSING,
            });
            fx.extend(self.send_update(core, s.id, s.new_pos, now));
        }
        fx
    }

    fn on_packet(
        &mut self,
        core: &mut NetworkCore,
        at: NodeId,
        _class: PacketClass,
        payload: RlsmpPayload,
        now: SimTime,
    ) -> Fx {
        match payload {
            RlsmpPayload::Update(u) => {
                // Any vehicle in a cell is a prospective leader; receivers in the
                // update's cell record, receivers elsewhere delete (old cell rule).
                if let NodeKind::Vehicle(_) = core.registry.kind(at) {
                    let c = self.grid.cell_of(core.registry.pos(at));
                    let table = &mut self.cell_tables[c.0 as usize];
                    if c == u.cell {
                        match table.get(&u.vehicle) {
                            Some(cur) if cur.time > u.time => {}
                            _ => {
                                table.insert(
                                    u.vehicle,
                                    CellEntry {
                                        pos: u.pos,
                                        time: u.time,
                                    },
                                );
                            }
                        }
                    } else {
                        table.remove(&u.vehicle);
                    }
                }
                Vec::new()
            }
            RlsmpPayload::AggToLsc { cluster, rows } => {
                self.merge_lsc(cluster, &rows);
                Vec::new()
            }
            RlsmpPayload::Request(req) => self.handle_request(core, at, req, now),
            RlsmpPayload::Notify {
                query,
                src,
                dst,
                src_pos,
            } => {
                if core.registry.kind(at) == NodeKind::Vehicle(dst) {
                    let src_node = core.registry.node_of_vehicle(src);
                    deliveries(core.send_gpsr(
                        at,
                        GpsrTarget::Node(src_node),
                        src_pos,
                        PacketClass::Query,
                        self.cfg.ack_size,
                        RlsmpPayload::Ack { query },
                    ))
                } else {
                    Vec::new()
                }
            }
            RlsmpPayload::Ack { query } => {
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
                        self.cfg.data_size,
                        RlsmpPayload::Data {
                            session: query,
                            seq,
                            dst,
                        },
                    )));
                }
                fx
            }
            RlsmpPayload::Data { dst, .. } => {
                if core.registry.kind(at) == NodeKind::Vehicle(dst) {
                    self.data_delivered += 1;
                }
                Vec::new()
            }
        }
    }

    fn on_timer(&mut self, core: &mut NetworkCore, key: RlsmpTimer, now: SimTime) -> Fx {
        match key {
            RlsmpTimer::Aggregate { cell } => self.handle_aggregate(core, cell, now),
            RlsmpTimer::Recheck { server, request } => {
                self.handle_request(core, server, request, now)
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
        let home = self.grid.cluster_of(self.grid.cell_of(pos));
        core.trace(|t| TraceEvent::QueryLaunched {
            t,
            query: query.0,
            src: src.0,
            dst: dst.0,
            level: 2,
        });
        let request = RlsmpRequest {
            query,
            src,
            dst,
            src_pos: pos,
            home,
            stage: RlsmpStage::Lsc {
                cluster: home,
                spiral_idx: 0,
            },
            waited: false,
        };
        self.forward_request(core, src_node, request)
    }

    fn query_log(&self) -> &QueryLog {
        &self.log
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let cell_total: usize = self.cell_tables.iter().map(|t| t.len()).sum();
        let lsc_total: usize = self.lsc_tables.iter().map(|t| t.len()).sum();
        vec![
            ("cell_entries", cell_total as f64),
            ("lsc_entries", lsc_total as f64),
            ("updates_sent", self.update_count as f64),
            ("data_delivered", self.data_delivered as f64),
        ]
    }

    fn table_sizes(&self) -> [u64; 3] {
        // RLSMP's flat grid has two tiers: cell-leader tables and LSC tables.
        // They map to the two lowest telemetry slots; there is no third level.
        [
            self.cell_tables.iter().map(|t| t.len() as u64).sum(),
            self.lsc_tables.iter().map(|t| t.len() as u64).sum(),
            0,
        ]
    }

    /// Location-table soundness: every cell-leader entry maps
    /// back to the cell whose table holds it and stays within the staleness
    /// bound of the vehicle's ground-truth position; LSC entries carry sane
    /// timestamps and in-range cell ids.
    fn check_invariants(
        &self,
        core: &NetworkCore,
        now: SimTime,
        max_speed: f64,
        pos_slack: f64,
    ) -> Result<(), String> {
        for (ci, table) in self.cell_tables.iter().enumerate() {
            for (&v, e) in table {
                if e.time > now {
                    return Err(format!("cell[{ci}] entry for {v:?} is from the future"));
                }
                if self.grid.cell_of(e.pos) != CellId(ci as u32) {
                    return Err(format!(
                        "cell[{ci}] entry for {v:?} at ({:.1}, {:.1}) maps to {:?}",
                        e.pos.x,
                        e.pos.y,
                        self.grid.cell_of(e.pos)
                    ));
                }
                let truth = core.registry.pos(core.registry.node_of_vehicle(v));
                let age = now.saturating_since(e.time).as_secs_f64();
                let bound = max_speed * age + pos_slack;
                let drift = e.pos.distance(truth);
                if drift > bound {
                    return Err(format!(
                        "cell[{ci}] entry for {v:?} drifted {drift:.1} m from ground truth \
                         (bound {bound:.1} m at age {age:.1} s)"
                    ));
                }
            }
        }
        for (li, table) in self.lsc_tables.iter().enumerate() {
            for (&v, e) in table {
                if e.time > now {
                    return Err(format!("lsc[{li}] entry for {v:?} is from the future"));
                }
                if e.cell.0 as usize >= self.grid.cell_count() {
                    return Err(format!(
                        "lsc[{li}] entry for {v:?} points at unknown cell {:?}",
                        e.cell
                    ));
                }
            }
        }
        Ok(())
    }

    /// Oracle self-test hook: displace one stored cell position far off the
    /// map, picking the smallest vehicle id in the first non-empty table so the
    /// corruption is deterministic despite HashMap iteration order.
    fn corrupt_location_tables(&mut self) {
        for table in &mut self.cell_tables {
            let Some(&v) = table.keys().min() else {
                continue;
            };
            let e = table.get_mut(&v).expect("entry for the id just found");
            e.pos = Point::new(e.pos.x + 50_000.0, e.pos.y + 50_000.0);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vanet_geo::BBox;

    fn protocol(area: BBox) -> RlsmpProtocol {
        RlsmpProtocol::new(area, RlsmpConfig::default(), SmallRng::seed_from_u64(0))
    }

    #[test]
    fn cached_spiral_equals_spiral_order() {
        // 250 m cells in 4×4 clusters: a 12×12-cluster map, one whose 47×37
        // cells truncate the last cluster column and row, and a one-cluster
        // map, whose spiral is empty however often it is asked for.
        for (area, dims) in [
            (BBox::new(0.0, 0.0, 12_000.0, 12_000.0), (12, 12)),
            (BBox::new(0.0, 0.0, 11_700.0, 9_100.0), (12, 10)),
            (BBox::new(0.0, 0.0, 1000.0, 1000.0), (1, 1)),
        ] {
            let mut p = protocol(area);
            assert_eq!(p.grid().cluster_dims(), dims);
            for h in 0..p.grid().cluster_count() as u32 {
                let home = ClusterId(h);
                let want = p.grid().spiral_order(home);
                assert_eq!(want.len(), p.grid().cluster_count() - 1);
                assert_eq!(p.spiral(home), want, "first (filling) call, home {h}");
                assert_eq!(p.spiral(home), want, "cached call, home {h}");
            }
        }
    }
}
