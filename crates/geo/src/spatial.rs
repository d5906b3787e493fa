//! Uniform-grid spatial hash for neighbor queries.
//!
//! The radio layer asks "which nodes are within 500 m of here?" for every
//! transmission. A bucket grid with cell size equal to the query radius answers that
//! by scanning at most a 3×3 block of buckets — O(1) amortized for uniform traffic.
//!
//! Hot-path design notes:
//!
//! * buckets store `(id, position)` pairs, so a range query touches no other
//!   table — the per-candidate position lookup a plain id bucket would need
//!   was the query's dominant cost;
//! * the bucket array is a **dense core grid** sized to the bounding box of the
//!   tracked points (vehicles stay on the map), so the per-tick position update
//!   and the 3×3 block scan index with plain arithmetic instead of hash probes;
//!   cells outside the (capped) core grid spill into a sparse overflow map, so
//!   pathological outliers cost memory proportional to occupancy, not area;
//! * each id carries a slot record (cell + index within the bucket), so moving a
//!   node is one lookup and one in-place write in the common same-cell case —
//!   no linear bucket scan;
//! * [`SpatialHash::for_each_within`] and [`SpatialHash::query_radius_into`]
//!   visit candidates with zero allocation — the scratch-buffer form is what
//!   the per-transmission paths use in steady state;
//! * the id-keyed maps hash with the vendored deterministic [`fxhash`]
//!   (seedless, so runs stay reproducible; several times cheaper than SipHash
//!   on the small integer keys used here).

use crate::floor_i64;
use crate::point::Point;
use fxhash::FxHashMap;

/// Core grid growth never exceeds this many cells; cells outside go to the
/// sparse overflow map. 2^16 cells ≈ 1.5 MiB of bucket headers — at the radio
/// cell size of 500 m that covers a 128 km × 128 km map, far beyond any
/// scenario, while bounding memory against adversarial coordinates.
const MAX_GRID_CELLS: i128 = 1 << 16;

/// Ids below this use the dense slot table (a flat `Vec` indexed by id); ids
/// at or above it go to the sparse overflow map. Node ids are dense in every
/// simulation, so in practice all slot probes are single array indexings; the
/// cap bounds memory against adversarial sparse ids (2^20 slots ≈ 24 MiB
/// worst case).
const DENSE_SLOT_IDS: u64 = 1 << 20;

/// Where one tracked id currently lives: its cell coordinates and its index
/// within that cell's bucket. Storage routing (core grid vs. overflow) is
/// derived from the cell coordinates, so grid growth never rewrites slots.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: (i64, i64),
    idx: u32,
}

impl Slot {
    /// Dense-table vacancy sentinel. A real bucket index can never reach
    /// `u32::MAX` (that bucket alone would need > 64 GiB).
    const EMPTY: Slot = Slot {
        cell: (0, 0),
        idx: u32::MAX,
    };
}

/// What a batched position update ([`SpatialHash::apply_moves`]) did: how many
/// entries crossed a grid-cell boundary (structural bucket edits) vs. moved
/// within their cell (one in-place position write each).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GridDeltaStats {
    /// Moves that changed cell (unlink + relink) or inserted a new id.
    pub crossed: u64,
    /// Moves that stayed within their cell.
    pub in_place: u64,
}

/// A spatial hash mapping integer keys (node ids) to positions.
///
/// Cell size should be on the order of the common query radius.
#[derive(Debug, Clone)]
pub struct SpatialHash {
    cell: f64,
    /// Dense row-major core grid; empty until the first insert.
    grid: Vec<Vec<(u64, Point)>>,
    /// Cell coordinates of `grid[0]`.
    gx0: i64,
    gy0: i64,
    /// Grid dimensions in cells.
    gw: i64,
    gh: i64,
    /// Non-empty core-grid cells (so `bucket_count` stays O(1)).
    grid_live: usize,
    /// Sparse buckets for cells outside the core grid; empty vecs are dropped.
    overflow: FxHashMap<(i64, i64), Vec<(u64, Point)>>,
    /// Dense slot table for ids below [`DENSE_SLOT_IDS`], indexed by id;
    /// `idx == u32::MAX` marks an untracked id. The per-move probe the mobility
    /// tick makes for every vehicle is one array read instead of a hash probe.
    slots: Vec<Slot>,
    /// Slots for sparse/huge ids past the dense cap.
    slots_over: FxHashMap<u64, Slot>,
    /// Number of tracked ids (the dense table holds vacancies, so its length
    /// is not the count).
    tracked: usize,
}

impl SpatialHash {
    /// Creates a hash with the given bucket edge length in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        Self::with_capacity(cell_size, 0)
    }

    /// [`new`](Self::new) pre-sized for `ids` tracked entries, so steady-state
    /// insertion never rehashes.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn with_capacity(cell_size: f64, ids: usize) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "invalid cell size"
        );
        SpatialHash {
            cell: cell_size,
            grid: Vec::new(),
            gx0: 0,
            gy0: 0,
            gw: 0,
            gh: 0,
            grid_live: 0,
            overflow: FxHashMap::default(),
            slots: vec![Slot::EMPTY; ids.min(DENSE_SLOT_IDS as usize)],
            slots_over: FxHashMap::default(),
            tracked: 0,
        }
    }

    /// Current slot of `id`, if tracked.
    #[inline]
    fn slot(&self, id: u64) -> Option<Slot> {
        if id < DENSE_SLOT_IDS {
            let s = *self.slots.get(id as usize)?;
            (s.idx != u32::MAX).then_some(s)
        } else {
            self.slots_over.get(&id).copied()
        }
    }

    /// Installs or replaces the slot of `id`.
    #[inline]
    fn set_slot(&mut self, id: u64, s: Slot) {
        if id < DENSE_SLOT_IDS {
            if self.slots.len() <= id as usize {
                self.slots.resize(id as usize + 1, Slot::EMPTY);
            }
            self.slots[id as usize] = s;
        } else {
            self.slots_over.insert(id, s);
        }
    }

    /// Forgets the slot of a tracked `id`.
    #[inline]
    fn clear_slot(&mut self, id: u64) {
        if id < DENSE_SLOT_IDS {
            self.slots[id as usize] = Slot::EMPTY;
        } else {
            self.slots_over.remove(&id);
        }
    }

    /// Rewrites the bucket index of a tracked `id` (swap-remove patching).
    #[inline]
    fn patch_slot_idx(&mut self, id: u64, idx: u32) {
        if id < DENSE_SLOT_IDS {
            self.slots[id as usize].idx = idx;
        } else {
            self.slots_over
                .get_mut(&id)
                .expect("tracked id has a slot")
                .idx = idx;
        }
    }

    #[inline]
    fn key(&self, p: Point) -> (i64, i64) {
        (floor_i64(p.x / self.cell), floor_i64(p.y / self.cell))
    }

    /// Linear index of `k` in the core grid, if it falls inside it.
    #[inline]
    fn grid_linear(&self, k: (i64, i64)) -> Option<usize> {
        let (x, y) = k;
        if x >= self.gx0 && x < self.gx0 + self.gw && y >= self.gy0 && y < self.gy0 + self.gh {
            Some(((y - self.gy0) * self.gw + (x - self.gx0)) as usize)
        } else {
            None
        }
    }

    /// Number of tracked ids.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Number of live (non-empty) buckets; bounded by `len()` because overflow
    /// buckets are dropped on removal and emptied grid cells are discounted.
    pub fn bucket_count(&self) -> usize {
        self.grid_live + self.overflow.len()
    }

    /// Current position of `id`, if tracked.
    pub fn position(&self, id: u64) -> Option<Point> {
        let s = self.slot(id)?;
        Some(self.bucket(s.cell)[s.idx as usize].1)
    }

    /// The bucket for `k` (must exist).
    #[inline]
    fn bucket(&self, k: (i64, i64)) -> &Vec<(u64, Point)> {
        match self.grid_linear(k) {
            Some(l) => &self.grid[l],
            None => self.overflow.get(&k).expect("tracked cell has a bucket"),
        }
    }

    /// Mutable bucket for `k` (must exist).
    #[inline]
    fn bucket_mut(&mut self, k: (i64, i64)) -> &mut Vec<(u64, Point)> {
        match self.grid_linear(k) {
            Some(l) => &mut self.grid[l],
            None => self
                .overflow
                .get_mut(&k)
                .expect("tracked cell has a bucket"),
        }
    }

    /// Inserts `id` at `p`, or moves it there if already tracked.
    pub fn upsert(&mut self, id: u64, p: Point) {
        self.upsert_inner(id, p);
    }

    /// [`upsert`](Self::upsert) reporting whether the move was *structural*
    /// (a fresh insert or a cell crossing) rather than an in-place position
    /// write within the current bucket.
    fn upsert_inner(&mut self, id: u64, p: Point) -> bool {
        let nk = self.key(p);
        if let Some(s) = self.slot(id) {
            if s.cell == nk {
                // Same bucket: update the stored position in place.
                self.bucket_mut(nk)[s.idx as usize].1 = p;
                return false;
            }
            self.unlink(s);
        } else {
            self.tracked += 1;
        }
        self.ensure_cell(nk);
        let new_len = {
            let b = self.bucket_mut(nk);
            b.push((id, p));
            b.len()
        };
        if new_len == 1 && self.grid_linear(nk).is_some() {
            self.grid_live += 1;
        }
        let idx = (new_len - 1) as u32;
        self.set_slot(id, Slot { cell: nk, idx });
        true
    }

    /// Applies one tick's movement delta stream in a single pass. **Exactly
    /// equivalent** to calling [`upsert`](Self::upsert) once per `(id, p)` pair
    /// in order — same bucket contents in the same order, the byte-identity
    /// contract the golden and differential suites pin — but shaped for the
    /// mobility hot path: only entries whose grid cell changed touch bucket
    /// structure; everything else is a slot read plus an in-place write of the
    /// stored position. Returns the crossing/in-place split.
    pub fn apply_moves<I>(&mut self, moves: I) -> GridDeltaStats
    where
        I: IntoIterator<Item = (u64, Point)>,
    {
        let mut stats = GridDeltaStats::default();
        for (id, p) in moves {
            if self.upsert_inner(id, p) {
                stats.crossed += 1;
            } else {
                stats.in_place += 1;
            }
        }
        stats
    }

    /// Removes `id`; returns its last position if it was tracked.
    pub fn remove(&mut self, id: u64) -> Option<Point> {
        let s = self.slot(id)?;
        self.clear_slot(id);
        self.tracked -= 1;
        let p = self.bucket(s.cell)[s.idx as usize].1;
        self.unlink(s);
        Some(p)
    }

    /// Detaches the entry at `s` from its bucket (the classic swap-remove, with
    /// the swapped-in entry's slot patched to its new index).
    fn unlink(&mut self, s: Slot) {
        let (moved, emptied) = {
            let b = self.bucket_mut(s.cell);
            b.swap_remove(s.idx as usize);
            (b.get(s.idx as usize).map(|&(m, _)| m), b.is_empty())
        };
        if let Some(m) = moved {
            self.patch_slot_idx(m, s.idx);
        }
        if emptied {
            if self.grid_linear(s.cell).is_some() {
                self.grid_live -= 1;
            } else {
                self.overflow.remove(&s.cell);
            }
        }
    }

    /// Makes sure cell `k` has a bucket to push into: grows the core grid to
    /// cover it when that stays within the cell cap, otherwise routes to the
    /// overflow map.
    fn ensure_cell(&mut self, k: (i64, i64)) {
        if self.grid_linear(k).is_some() {
            return;
        }
        // Proposed bounds: union of the current core box and `k`, with slack on
        // every side so registration sweeps and map-edge traffic grow the grid
        // O(log) times, not per insert.
        // In i128: a saturated key (a point beyond ±2^63 cells) must not
        // overflow the box arithmetic.
        let (kx, ky) = (k.0 as i128, k.1 as i128);
        let (mut x0, mut x1, mut y0, mut y1) = if self.gw == 0 {
            (kx, kx + 1, ky, ky + 1)
        } else {
            let (gx0, gy0) = (self.gx0 as i128, self.gy0 as i128);
            (
                gx0.min(kx),
                (gx0 + self.gw as i128).max(kx + 1),
                gy0.min(ky),
                (gy0 + self.gh as i128).max(ky + 1),
            )
        };
        let slack_x = ((x1 - x0) / 4).max(2);
        let slack_y = ((y1 - y0) / 4).max(2);
        x0 -= slack_x;
        x1 += slack_x;
        y0 -= slack_y;
        y1 += slack_y;
        let cells = (x1 - x0).saturating_mul(y1 - y0);
        let key_range = i64::MIN as i128..=i64::MAX as i128;
        if cells > MAX_GRID_CELLS || ![x0, x1, y0, y1].iter().all(|v| key_range.contains(v)) {
            // Outliers stay in the sparse tier; the core grid keeps its bounds.
            self.overflow.entry(k).or_default();
            return;
        }
        let (x0, x1, y0, y1) = (x0 as i64, x1 as i64, y0 as i64, y1 as i64);
        // Rebuild: move existing buckets to their new linear positions, then
        // pull in any overflow cells the larger box now covers. Slots reference
        // cell coordinates, not storage, so none of them change.
        let (ow, ox0, oy0) = (self.gw, self.gx0, self.gy0);
        let old = std::mem::take(&mut self.grid);
        self.gx0 = x0;
        self.gy0 = y0;
        self.gw = x1 - x0;
        self.gh = y1 - y0;
        self.grid = (0..self.gw * self.gh).map(|_| Vec::new()).collect();
        for (i, b) in old.into_iter().enumerate() {
            if !b.is_empty() {
                let cell = (ox0 + (i as i64 % ow), oy0 + (i as i64 / ow));
                let l = self.grid_linear(cell).expect("grown grid covers old box");
                self.grid[l] = b;
            }
        }
        let absorbed: Vec<(i64, i64)> = self
            .overflow
            .keys()
            .copied()
            .filter(|&c| self.grid_linear(c).is_some())
            .collect();
        for cell in absorbed {
            let b = self.overflow.remove(&cell).expect("key just listed");
            if !b.is_empty() {
                self.grid_live += 1;
            }
            let l = self.grid_linear(cell).expect("cell filtered as in-grid");
            self.grid[l] = b;
        }
        debug_assert!(self.grid_linear(k).is_some());
    }

    /// The entries of cell `(bx, by)`, empty if it has none. `over` says
    /// whether the overflow tier holds anything, so the common case skips
    /// its hash probe.
    #[inline]
    fn entries(&self, bx: i64, by: i64, over: bool) -> &[(u64, Point)] {
        match self.grid_linear((bx, by)) {
            Some(l) => &self.grid[l],
            None if over => self.overflow.get(&(bx, by)).map_or(&[], |v| v),
            None => &[],
        }
    }

    /// Calls `f(id, position)` for every tracked id strictly within `radius` of
    /// `center`, in unspecified order, allocating nothing. This is the primitive
    /// under every other range query.
    #[inline]
    pub fn for_each_within(&self, center: Point, radius: f64, mut f: impl FnMut(u64, Point)) {
        let r_cells = (radius / self.cell).ceil() as i64;
        let (cx, cy) = self.key(center);
        let r_sq = radius * radius;
        let over = !self.overflow.is_empty();
        // Saturating: a centre beyond the i64 cell range (±inf, or |x| above
        // about 2^63 cells) has a saturated key, and the ring around it stops
        // at the end of the key range, which is where its entries sit too.
        for bx in cx.saturating_sub(r_cells)..=cx.saturating_add(r_cells) {
            for by in cy.saturating_sub(r_cells)..=cy.saturating_add(r_cells) {
                for &(id, p) in self.entries(bx, by, over) {
                    if center.distance_sq(p) < r_sq {
                        f(id, p);
                    }
                }
            }
        }
    }

    /// Among the ids strictly within `radius` of `center` and not rejected by
    /// `skip`, the one least by (distance to `target` under `total_cmp`, id),
    /// with that distance: exactly the minimum a [`for_each_within`] pass
    /// would find, allocating nothing.
    ///
    /// It visits the candidate cells in ascending order of a lower bound on
    /// their distance to `target`, and stops once a bound exceeds the best
    /// distance found by more than a rounding tolerance (1e-6 m plus 1e-9 of
    /// the best distance and of the magnitudes of the coordinates involved,
    /// far above the few ulps the bound and the distances can err by). A
    /// pruned cell holds no entry at or below the best distance, so the id
    /// tie-break never needs it. A non-finite `target` makes the tolerance
    /// infinite or NaN, which never prunes, so every cell is visited. Radii
    /// over two cells take the plain pass.
    ///
    /// [`for_each_within`]: Self::for_each_within
    pub fn nearest_to_within(
        &self,
        center: Point,
        radius: f64,
        target: Point,
        mut skip: impl FnMut(u64) -> bool,
    ) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        let mut consider = |id: u64, p: Point, best: &mut Option<(u64, f64)>| {
            if skip(id) {
                return;
            }
            let d = p.distance(target);
            if best.is_none_or(|(bi, bd)| d.total_cmp(&bd).then_with(|| id.cmp(&bi)).is_lt()) {
                *best = Some((id, d));
            }
        };
        let r_cells = (radius / self.cell).ceil() as i64;
        let (cx, cy) = self.key(center);
        // Cell edges are exact in f64 only for keys below 2^53, and a
        // saturated key stands for an unbounded cell, so centres that far out
        // take the plain pass too.
        const EXACT_KEY: u64 = 1 << 52;
        if !(0..=2).contains(&r_cells)
            || cx.unsigned_abs() >= EXACT_KEY
            || cy.unsigned_abs() >= EXACT_KEY
        {
            self.for_each_within(center, radius, |id, p| consider(id, p, &mut best));
            return best;
        }
        let c = self.cell;
        // Lower bound on the distance from `target` to each cell's rectangle.
        let mut cells = [(0.0f64, 0i64, 0i64); 25];
        let mut n = 0;
        for bx in (cx - r_cells)..=(cx + r_cells) {
            for by in (cy - r_cells)..=(cy + r_cells) {
                let dx = (bx as f64 * c - target.x)
                    .max(target.x - (bx + 1) as f64 * c)
                    .max(0.0);
                let dy = (by as f64 * c - target.y)
                    .max(target.y - (by + 1) as f64 * c)
                    .max(0.0);
                cells[n] = ((dx * dx + dy * dy).sqrt(), bx, by);
                n += 1;
            }
        }
        let cells = &mut cells[..n];
        cells.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let scale = target.x.abs()
            + target.y.abs()
            + center.x.abs()
            + center.y.abs()
            + 2.0 * (r_cells + 1) as f64 * c;
        let r_sq = radius * radius;
        let over = !self.overflow.is_empty();
        for &(bound, bx, by) in cells.iter() {
            if let Some((_, bd)) = best {
                if bound > bd + 1e-6 + 1e-9 * (bd + scale) {
                    break;
                }
            }
            for &(id, p) in self.entries(bx, by, over) {
                if center.distance_sq(p) < r_sq {
                    consider(id, p, &mut best);
                }
            }
        }
        best
    }

    /// Writes all ids strictly within `radius` of `center` into `out` (cleared
    /// first), sorted by id. Reusing one buffer across calls makes the query
    /// allocation-free in steady state.
    pub fn query_radius_into(&self, center: Point, radius: f64, out: &mut Vec<u64>) {
        out.clear();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out.sort_unstable();
    }

    /// All ids strictly within `radius` of `center` (excluding none — the caller
    /// filters out the querying node itself if needed). Order is deterministic:
    /// sorted by id. Allocating convenience form of
    /// [`query_radius_into`](Self::query_radius_into).
    pub fn query_radius(&self, center: Point, radius: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.query_radius_into(center, radius, &mut out);
        out
    }

    /// Like [`query_radius`](Self::query_radius) but without the deterministic sort —
    /// for callers that re-sort or fold commutatively.
    pub fn query_radius_unsorted(&self, center: Point, radius: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id, _| out.push(id));
        out
    }

    /// The tracked id nearest to `center`, if any, with its distance.
    ///
    /// Falls back to a full scan; use for infrequent queries (e.g. picking a cell
    /// leader), not per-packet work.
    pub fn nearest(&self, center: Point) -> Option<(u64, f64)> {
        self.iter()
            .map(|(id, p)| (id, center.distance(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
    }

    /// Iterates over all tracked `(id, position)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Point)> + '_ {
        self.grid
            .iter()
            .chain(self.overflow.values())
            .flatten()
            .map(|&(id, p)| (id, p))
    }

    /// Test-only structural snapshot: every non-empty bucket keyed by cell
    /// coordinates, entries in stored order — the representation the
    /// byte-order contract is pinned against. See [`BucketDump`].
    #[cfg(test)]
    fn dump(&self) -> BucketDump {
        let mut out: BucketDump = Vec::new();
        for y in 0..self.gh {
            for x in 0..self.gw {
                let b = &self.grid[(y * self.gw + x) as usize];
                if !b.is_empty() {
                    out.push(((self.gx0 + x, self.gy0 + y), b.clone()));
                }
            }
        }
        for (&c, b) in &self.overflow {
            if !b.is_empty() {
                out.push((c, b.clone()));
            }
        }
        out.sort_by_key(|&(c, _)| c);
        out
    }
}

/// Bucket-structure snapshot returned by [`SpatialHash::dump`]: non-empty
/// buckets keyed by cell coordinates, entries in stored order.
#[cfg(test)]
type BucketDump = Vec<((i64, i64), Vec<(u64, Point)>)>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centres_beyond_the_key_range_do_not_overflow() {
        // A centre whose cell key saturates: ±inf, or ±1e300 (about 2e297
        // cells at 500 m). Every distance from an infinite centre is inf or
        // NaN, so it finds nothing; a 1e300 centre finds the entries that
        // share its saturated cell, exactly as a scan would.
        let mut h = SpatialHash::new(500.0);
        h.upsert(1, Point::new(1e300, 0.0));
        h.upsert(2, Point::new(1e300, 300.0));
        h.upsert(3, Point::new(-1e300, -300.0));
        h.upsert(4, Point::ORIGIN);
        h.upsert(5, Point::new(f64::INFINITY, 0.0));
        for c in [
            Point::new(f64::INFINITY, 0.0),
            Point::new(f64::NEG_INFINITY, 0.0),
            Point::new(0.0, f64::INFINITY),
            Point::new(0.0, f64::NEG_INFINITY),
        ] {
            assert!(h.query_radius(c, 1_000.0).is_empty(), "{c:?}");
            assert_eq!(h.nearest_to_within(c, 1_000.0, c, |_| false), None);
        }
        let far = Point::new(1e300, 0.0);
        assert_eq!(h.query_radius(far, 1_000.0), vec![1, 2]);
        assert_eq!(h.query_radius(Point::new(-1e300, 0.0), 1_000.0), vec![3]);
        let target = Point::new(1e300, 300.0);
        assert_eq!(
            h.nearest_to_within(far, 1_000.0, target, |_| false),
            Some((2, 0.0))
        );
        assert_eq!(
            h.nearest_to_within(far, 1_000.0, target, |id| id == 2),
            Some((1, 300.0))
        );
        assert_eq!(h.query_radius(Point::ORIGIN, 1_000.0), vec![4]);
    }

    #[test]
    fn insert_query_remove() {
        let mut h = SpatialHash::new(100.0);
        h.upsert(1, Point::new(0.0, 0.0));
        h.upsert(2, Point::new(50.0, 0.0));
        h.upsert(3, Point::new(500.0, 0.0));
        assert_eq!(h.query_radius(Point::ORIGIN, 100.0), vec![1, 2]);
        h.remove(2);
        assert_eq!(h.query_radius(Point::ORIGIN, 100.0), vec![1]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn radius_is_strict() {
        let mut h = SpatialHash::new(10.0);
        h.upsert(1, Point::new(10.0, 0.0));
        assert!(h.query_radius(Point::ORIGIN, 10.0).is_empty());
        assert_eq!(h.query_radius(Point::ORIGIN, 10.0 + 1e-9), vec![1]);
    }

    #[test]
    fn upsert_moves_across_buckets() {
        let mut h = SpatialHash::new(10.0);
        h.upsert(7, Point::new(5.0, 5.0));
        h.upsert(7, Point::new(95.0, 95.0));
        assert!(h.query_radius(Point::new(5.0, 5.0), 3.0).is_empty());
        assert_eq!(h.query_radius(Point::new(95.0, 95.0), 3.0), vec![7]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn upsert_within_bucket_updates_stored_position() {
        // Buckets carry (id, position) pairs; a small move inside one bucket
        // must update the pair, not just the slot record.
        let mut h = SpatialHash::new(100.0);
        h.upsert(1, Point::new(10.0, 10.0));
        h.upsert(1, Point::new(90.0, 90.0));
        assert!(h.query_radius(Point::new(10.0, 10.0), 5.0).is_empty());
        assert_eq!(h.query_radius(Point::new(90.0, 90.0), 5.0), vec![1]);
    }

    #[test]
    fn negative_coordinates_work() {
        let mut h = SpatialHash::new(50.0);
        h.upsert(1, Point::new(-120.0, -30.0));
        assert_eq!(h.query_radius(Point::new(-100.0, -30.0), 25.0), vec![1]);
    }

    #[test]
    fn nearest_breaks_ties_by_id() {
        let mut h = SpatialHash::new(10.0);
        h.upsert(5, Point::new(1.0, 0.0));
        h.upsert(2, Point::new(-1.0, 0.0));
        assert_eq!(h.nearest(Point::ORIGIN), Some((2, 1.0)));
        assert_eq!(SpatialHash::new(1.0).nearest(Point::ORIGIN), None);
    }

    #[test]
    fn query_results_sorted() {
        let mut h = SpatialHash::new(10.0);
        for id in [9u64, 3, 7, 1] {
            h.upsert(id, Point::new(id as f64, 0.0));
        }
        assert_eq!(h.query_radius(Point::ORIGIN, 100.0), vec![1, 3, 7, 9]);
    }

    #[test]
    fn scratch_query_reuses_buffer_and_matches_owned() {
        let mut h = SpatialHash::new(50.0);
        for id in 0u64..40 {
            h.upsert(
                id,
                Point::new((id * 7 % 100) as f64, (id * 13 % 100) as f64),
            );
        }
        let mut scratch = Vec::new();
        for probe in [Point::ORIGIN, Point::new(50.0, 50.0), Point::new(99.0, 0.0)] {
            h.query_radius_into(probe, 60.0, &mut scratch);
            assert_eq!(scratch, h.query_radius(probe, 60.0));
        }
        // A stale buffer from the previous query is fully replaced.
        h.query_radius_into(Point::new(-1e6, -1e6), 1.0, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn position_tracks_latest_upsert() {
        let mut h = SpatialHash::new(25.0);
        assert_eq!(h.position(4), None);
        h.upsert(4, Point::new(3.0, 4.0));
        assert_eq!(h.position(4), Some(Point::new(3.0, 4.0)));
        h.upsert(4, Point::new(400.0, -90.0));
        assert_eq!(h.position(4), Some(Point::new(400.0, -90.0)));
        assert_eq!(h.remove(4), Some(Point::new(400.0, -90.0)));
        assert_eq!(h.position(4), None);
    }

    #[test]
    fn far_outliers_use_the_sparse_tier() {
        // Two points ~2·10^6 m apart would need an absurd dense grid; the cap
        // routes the second one to the overflow map and queries still see it.
        let mut h = SpatialHash::new(10.0);
        h.upsert(1, Point::new(0.0, 0.0));
        h.upsert(2, Point::new(1e6, 1e6));
        assert_eq!(h.query_radius(Point::new(1e6, 1e6), 5.0), vec![2]);
        assert_eq!(h.query_radius(Point::ORIGIN, 5.0), vec![1]);
        assert_eq!(h.len(), 2);
        // And it comes back if it wanders near the core region.
        h.upsert(2, Point::new(5.0, 0.0));
        assert_eq!(h.query_radius(Point::ORIGIN, 6.0), vec![1, 2]);
    }

    #[test]
    fn apply_moves_equals_upserts_and_reports_crossings() {
        let mut a = SpatialHash::new(10.0);
        let mut b = SpatialHash::new(10.0);
        let trace = [
            (1u64, 5.0, 5.0),
            (2, 6.0, 6.0),
            (1, 7.0, 5.0),  // same cell: in place
            (1, 15.0, 5.0), // crosses into the next cell
            (3, 5.5, 5.5),
            (2, 6.5, 6.0), // in place
        ];
        for &(id, x, y) in &trace {
            a.upsert(id, Point::new(x, y));
        }
        let stats = b.apply_moves(trace.iter().map(|&(id, x, y)| (id, Point::new(x, y))));
        assert_eq!(stats.crossed, 4); // 3 fresh inserts + 1 cell crossing
        assert_eq!(stats.in_place, 2);
        assert_eq!(a.dump(), b.dump());
        assert_eq!(a.len(), b.len());
        assert_eq!(b.position(1), Some(Point::new(15.0, 5.0)));
    }

    #[test]
    fn long_random_walk_keeps_bucket_count_bounded() {
        // Empty buckets are dropped (overflow) or discounted (grid), so however
        // far vehicles roam, live buckets never exceed the number of tracked ids.
        let mut h = SpatialHash::new(100.0);
        let ids = 25u64;
        // A deterministic LCG walk spanning thousands of distinct cells.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut step = |id: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 16) % 2_000_000) as f64 - 1_000_000.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((state >> 16) % 2_000_000) as f64 - 1_000_000.0;
            (id, Point::new(x, y))
        };
        for round in 0..2000 {
            for id in 0..ids {
                let (id, p) = step(id);
                h.upsert(id, p);
            }
            assert!(
                h.bucket_count() <= ids as usize,
                "round {round}: {} buckets for {ids} ids",
                h.bucket_count()
            );
        }
        assert_eq!(h.len(), ids as usize);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Incremental delta application is byte-identical to the sequential
        /// upsert reference — same buckets, same in-bucket entry order, same
        /// counters — for any trace and any batch chunking, and agrees with a
        /// from-scratch rebuild of the final positions on every range query.
        #[test]
        fn delta_application_matches_reference(
            moves in proptest::collection::vec((0u64..24, -40.0f64..40.0, -40.0f64..40.0), 1..400),
            splits in proptest::collection::vec(1usize..40, 0..20),
            probes in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0, 1.0f64..30.0), 1..8),
        ) {
            let mut seq = SpatialHash::new(10.0);
            let mut bat = SpatialHash::with_capacity(10.0, 24);
            for &(id, x, y) in &moves {
                seq.upsert(id, Point::new(x, y));
            }
            // Same trace through apply_moves, in arbitrary batch sizes.
            let mut rest: &[(u64, f64, f64)] = &moves;
            let mut si = 0;
            let mut total = GridDeltaStats::default();
            while !rest.is_empty() {
                let take = splits.get(si).copied().unwrap_or(rest.len()).min(rest.len());
                si += 1;
                let (batch, tail) = rest.split_at(take);
                let stats =
                    bat.apply_moves(batch.iter().map(|&(id, x, y)| (id, Point::new(x, y))));
                total.crossed += stats.crossed;
                total.in_place += stats.in_place;
                rest = tail;
            }
            prop_assert_eq!(total.crossed + total.in_place, moves.len() as u64);
            prop_assert_eq!(seq.dump(), bat.dump());
            prop_assert_eq!(seq.len(), bat.len());
            prop_assert_eq!(seq.bucket_count(), bat.bucket_count());
            // A rebuild from the final positions must see the same world
            // through every query (bucket order may differ; results may not).
            let mut last: std::collections::BTreeMap<u64, Point> = Default::default();
            for &(id, x, y) in &moves {
                last.insert(id, Point::new(x, y));
            }
            let mut rebuilt = SpatialHash::new(10.0);
            for (&id, &p) in &last {
                rebuilt.upsert(id, p);
            }
            for &(x, y, r) in &probes {
                let c = Point::new(x, y);
                prop_assert_eq!(bat.query_radius(c, r), rebuilt.query_radius(c, r));
                let mut got = Vec::new();
                bat.for_each_within(c, r, |id, p| got.push((id, p)));
                got.sort_by_key(|&(id, _)| id);
                let mut want = Vec::new();
                rebuilt.for_each_within(c, r, |id, p| want.push((id, p)));
                want.sort_by_key(|&(id, _)| id);
                prop_assert_eq!(got, want);
            }
            // Slot-visible positions agree with the reference too.
            for id in 0u64..24 {
                prop_assert_eq!(bat.position(id), seq.position(id));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The pruned search returns exactly the minimum by (distance to the
        /// target under `total_cmp`, id) that a brute-force pass over
        /// `for_each_within` finds. Lattice placements collide and sit at
        /// equal distances from lattice targets; targets fall inside and
        /// outside the disk, or are NaN or infinite; `far` moves the lattice
        /// into the overflow tier; the radius spans 1, 2 and (taking the
        /// plain pass) 3 cells.
        #[test]
        fn nearest_to_within_matches_bruteforce(
            pts in proptest::collection::vec((0u8..16, 0u8..16), 1..80),
            far in any::<bool>(),
            (cx, cy) in (0u8..16, 0u8..16),
            target in prop_oneof![
                (-12i8..28, -12i8..28).prop_map(|(x, y)| (x as f64 * 25.0, y as f64 * 25.0)),
                (-300.0f64..700.0, -300.0f64..700.0),
                Just((f64::NAN, 0.0)),
                Just((f64::INFINITY, 100.0)),
                Just((-100.0, f64::NEG_INFINITY)),
                Just((f64::INFINITY, f64::NAN)),
            ],
            (cell, radius) in (
                prop_oneof![Just(100.0), Just(150.0)],
                prop_oneof![Just(100.0), Just(150.0), Just(200.0), Just(300.0)],
            ),
            skip_mask in any::<u64>(),
        ) {
            let offset = if far { 1e7 } else { 0.0 };
            let spot = |x: f64, y: f64| Point::new(offset + x, offset + y);
            let mut h = SpatialHash::new(cell);
            // An anchor at the origin fixes the core grid there, so a far
            // lattice lands in the overflow tier.
            h.upsert(1_000, Point::ORIGIN);
            for (i, &(x, y)) in pts.iter().enumerate() {
                h.upsert(i as u64, spot(x as f64 * 25.0, y as f64 * 25.0));
            }
            let center = spot(cx as f64 * 25.0, cy as f64 * 25.0);
            let target = spot(target.0, target.1);
            let skip = |id: u64| (skip_mask >> (id % 64)) & 1 == 1;
            let mut want: Option<(u64, f64)> = None;
            h.for_each_within(center, radius, |id, p| {
                let d = p.distance(target);
                if !skip(id)
                    && want.is_none_or(|(wi, wd)| d.total_cmp(&wd).then(id.cmp(&wi)).is_lt())
                {
                    want = Some((id, d));
                }
            });
            let got = h.nearest_to_within(center, radius, target, skip);
            prop_assert_eq!(
                got.map(|(i, d)| (i, d.to_bits())),
                want.map(|(i, d)| (i, d.to_bits())),
                "center {:?} target {:?} radius {} cell {}",
                center,
                target,
                radius,
                cell
            );
        }
    }
}
