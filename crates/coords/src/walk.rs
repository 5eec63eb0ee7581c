//! Split walks: the order a RecordReader visits the cells of a split.
//!
//! A split `Iᵢ` is a slab of `K`, and SIDR knows before any Map task
//! runs which extraction instance — which `k′` — each of its cells
//! folds into (§3). Read row-major, a split yields its intermediate
//! keys out of order, so the map side has to comparison-sort them.
//! Walked instance by instance in `K′` row-major order, the same cells
//! make a structural Map's emissions *born sorted*: every partition
//! receives its records in key order, and the values of one key keep
//! the relative order a row-major walk gives them.
//!
//! [`WalkOrder`] places a tiling in the variable's absolute space;
//! [`SplitWalk`] walks one split under it. The unit tiling
//! ([`WalkOrder::row_major`]) makes every cell its own instance, which
//! is exactly the plain row-major walk.
//!
//! The walk reads the split in *bands* of consecutive dimension-0 rows:
//! one instance row (`tile[0]` rows, clipped to the split) holds every
//! cell of the instances it meets, so a band never has to reach past
//! it. Short rows are gathered into a band until it reaches
//! [`BAND_CELLS`] cells; an instance row is never cut, so a band holds
//! fewer than `BAND_CELLS` cells plus one instance row.

use crate::coord::Coord;
use crate::error::CoordError;
use crate::shape::Shape;
use crate::slab::Slab;
use crate::tiling::Tiling;
use crate::Result;

/// Band size, in cells, up to which consecutive short rows are read
/// together.
pub const BAND_CELLS: u64 = 1 << 16;

/// A tiling placed in absolute coordinates: instance `j` along
/// dimension `d` covers `[origin + j·stride, origin + j·stride + tile)`
/// for `j < grid`. Cells outside every instance (stride gaps,
/// discarded partial instances, cells outside the tiled region) fold
/// into no key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkOrder {
    origin: Vec<u64>,
    tile: Vec<u64>,
    stride: Vec<u64>,
    grid: Vec<u64>,
}

impl WalkOrder {
    /// The unit tiling: every cell is its own instance, so the walk is
    /// plain row-major order.
    pub fn row_major(rank: usize) -> Self {
        WalkOrder {
            origin: vec![0; rank],
            tile: vec![1; rank],
            stride: vec![1; rank],
            grid: vec![u64::MAX; rank],
        }
    }

    /// Instance by instance over `tiling`, whose space starts at the
    /// absolute coordinate `origin` (a query region's corner).
    pub fn instances(tiling: &Tiling, origin: &Coord) -> Result<Self> {
        if origin.rank() != tiling.space().rank() {
            return Err(CoordError::RankMismatch {
                expected: tiling.space().rank(),
                actual: origin.rank(),
            });
        }
        Ok(WalkOrder {
            origin: origin.components().to_vec(),
            tile: tiling.tile().extents().to_vec(),
            stride: tiling.stride().to_vec(),
            grid: tiling.grid().to_vec(),
        })
    }

    fn rank(&self) -> usize {
        self.origin.len()
    }

    /// True when position `c` of dimension `dim` lies inside an
    /// instance.
    fn inside(&self, dim: usize, c: u64) -> bool {
        let Some(rel) = c.checked_sub(self.origin[dim]) else {
            return false;
        };
        let j = rel / self.stride[dim];
        j < self.grid[dim] && rel - j * self.stride[dim] < self.tile[dim]
    }

    /// The instance-covered pieces of `[lo, hi)` along `dim`, ascending.
    fn segments(&self, dim: usize, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let (o, t, s) = (self.origin[dim], self.tile[dim], self.stride[dim]);
        let mut out = Vec::new();
        let mut j = lo.saturating_sub(o) / s;
        while j < self.grid[dim] {
            let Some(start) = j.checked_mul(s).and_then(|x| x.checked_add(o)) else {
                break;
            };
            if start >= hi {
                break;
            }
            let (a, b) = (start.max(lo), start.saturating_add(t).min(hi));
            if a < b {
                out.push((a, b));
            }
            j += 1;
        }
        out
    }

    /// The maximal run of dimension-0 rows from `row` (clipped to
    /// `end`) that lies in one instance row, or in none:
    /// `(run_end, inside)`.
    fn run(&self, row: u64, end: u64) -> (u64, bool) {
        let (o, t, s) = (self.origin[0], self.tile[0], self.stride[0]);
        if row < o {
            return (o.min(end), false);
        }
        let j = (row - o) / s;
        if j >= self.grid[0] {
            return (end, false);
        }
        let start = o + j * s; // <= row, so no overflow
        let inst_end = start.saturating_add(t);
        if row < inst_end {
            (inst_end.min(end), true)
        } else {
            (start.saturating_add(s).min(end), false)
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Between runs: the next call enters the band's next run.
    Idle,
    /// Instance cells of an instance run, instance by instance.
    Instances,
    /// The cells of an instance run that fold into no instance.
    Leftover,
    /// Every cell of a run that holds no instance cell, row-major.
    Rows,
}

/// Walks one split in the order of a [`WalkOrder`].
///
/// Drive it band by band: [`SplitWalk::next_band`] names the slab to
/// read, then [`SplitWalk::next_cell`] yields each of its cells as an
/// absolute coordinate plus its row-major offset in that band. Inside a
/// band, each instance row yields its instances in `K′` row-major order
/// (the cells of `instance ∩ split` row-major), then the row's cells
/// that fold into no instance; rows outside every instance row come
/// row-major. Every cell of the split is yielded exactly once.
pub struct SplitWalk {
    order: WalkOrder,
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Instance-covered pieces of every dimension past the first
    /// (index 0 unused).
    segs: Vec<Vec<(u64, u64)>>,
    /// Some cell of an instance row folds into no instance.
    row_gaps: bool,
    /// Row-major strides of a band's buffer.
    strides: Vec<u64>,
    /// First dimension-0 row not yet handed out in a band.
    next_row: u64,
    /// The current band's and run's dimension-0 rows.
    band: (u64, u64),
    run: (u64, u64),
    phase: Phase,
    /// `cur` is the phase's first cell and has not been yielded yet.
    fresh: bool,
    cur: Vec<u64>,
    /// Current instance: segment index per dimension past the first.
    seg: Vec<usize>,
    /// Bounds the cell odometer runs within.
    cell_lo: Vec<u64>,
    cell_hi: Vec<u64>,
}

impl SplitWalk {
    /// Prepares the walk of `slab` under `order`.
    pub fn new(slab: &Slab, order: &WalkOrder) -> Result<Self> {
        let n = slab.rank();
        if order.rank() != n {
            return Err(CoordError::RankMismatch {
                expected: n,
                actual: order.rank(),
            });
        }
        let lo = slab.corner().components().to_vec();
        let hi = slab.end().into_components();
        let segs: Vec<Vec<(u64, u64)>> = (0..n)
            .map(|d| {
                if d == 0 {
                    Vec::new()
                } else {
                    order.segments(d, lo[d], hi[d])
                }
            })
            .collect();
        let row_gaps =
            (1..n).any(|d| segs[d].iter().map(|(a, b)| b - a).sum::<u64>() != hi[d] - lo[d]);
        let mut strides = vec![1u64; n];
        for d in (0..n - 1).rev() {
            strides[d] = strides[d + 1] * (hi[d + 1] - lo[d + 1]);
        }
        Ok(SplitWalk {
            order: order.clone(),
            next_row: lo[0],
            band: (lo[0], lo[0]),
            run: (lo[0], lo[0]),
            phase: Phase::Idle,
            fresh: false,
            cur: lo.clone(),
            seg: vec![0; n],
            cell_lo: lo.clone(),
            cell_hi: hi.clone(),
            lo,
            hi,
            segs,
            row_gaps,
            strides,
        })
    }

    /// Moves to the next band and returns the slab to read for it, or
    /// `None` once the split is exhausted. The band's cells then come
    /// from [`SplitWalk::next_cell`].
    pub fn next_band(&mut self) -> Option<Slab> {
        let (start, end_max) = (self.next_row, self.hi[0]);
        if start >= end_max {
            return None;
        }
        let budget = (BAND_CELLS / self.strides[0]).max(1);
        let mut end = start;
        while end < end_max && end - start < budget {
            let (run_end, inside) = self.order.run(end, end_max);
            end = if inside {
                run_end
            } else {
                run_end.min(start.saturating_add(budget))
            };
        }
        self.next_row = end;
        self.band = (start, end);
        self.run = (start, start);
        self.phase = Phase::Idle;
        let mut corner = self.lo.clone();
        corner[0] = start;
        let mut extents: Vec<u64> = self.hi.iter().zip(&self.lo).map(|(h, l)| h - l).collect();
        extents[0] = end - start;
        let shape = Shape::new(extents).expect("band rows and split extents are non-empty");
        Some(Slab::new(Coord::new(corner), shape).expect("band lies inside the split"))
    }

    /// The next cell of the current band: its absolute coordinate and
    /// its row-major offset in the band's buffer. `None` once the band
    /// is exhausted.
    pub fn next_cell(&mut self) -> Option<(&[u64], usize)> {
        loop {
            let found = match self.phase {
                Phase::Idle => {
                    if !self.enter_next_run() {
                        return None;
                    }
                    continue;
                }
                Phase::Instances => self.step_instance(),
                Phase::Leftover => self.step_box(true),
                Phase::Rows => self.step_box(false),
            };
            if found {
                let mut offset = (self.cur[0] - self.band.0) * self.strides[0];
                for d in 1..self.cur.len() {
                    offset += (self.cur[d] - self.lo[d]) * self.strides[d];
                }
                return Some((&self.cur, offset as usize));
            }
            if self.phase == Phase::Instances && self.row_gaps {
                self.enter_box(Phase::Leftover);
            } else {
                self.phase = Phase::Idle;
            }
        }
    }

    fn enter_next_run(&mut self) -> bool {
        let start = self.run.1;
        if start >= self.band.1 {
            return false;
        }
        let (end, inside) = self.order.run(start, self.band.1);
        self.run = (start, end);
        // A split that misses every instance along some dimension has
        // no instance cells in any row.
        if !inside || self.segs[1..].iter().any(Vec::is_empty) {
            self.enter_box(Phase::Rows);
        } else {
            self.cell_lo[0] = start;
            self.cell_hi[0] = end;
            for d in 1..self.cur.len() {
                self.seg[d] = 0;
                (self.cell_lo[d], self.cell_hi[d]) = self.segs[d][0];
            }
            self.cur.copy_from_slice(&self.cell_lo);
            self.phase = Phase::Instances;
            self.fresh = true;
        }
        true
    }

    /// Starts a row-major pass over the whole current run.
    fn enter_box(&mut self, phase: Phase) {
        self.cell_lo.copy_from_slice(&self.lo);
        self.cell_hi.copy_from_slice(&self.hi);
        (self.cell_lo[0], self.cell_hi[0]) = self.run;
        self.cur.copy_from_slice(&self.cell_lo);
        self.phase = phase;
        self.fresh = true;
    }

    fn step_instance(&mut self) -> bool {
        if std::mem::take(&mut self.fresh) || advance(&mut self.cur, &self.cell_lo, &self.cell_hi) {
            return true;
        }
        // This instance is done: move to the next one, last dimension
        // fastest. The odometer left every cell position at its lower
        // bound, so only the dimensions whose segment changes move.
        for d in (1..self.cur.len()).rev() {
            self.seg[d] += 1;
            let wrapped = self.seg[d] == self.segs[d].len();
            if wrapped {
                self.seg[d] = 0;
            }
            (self.cell_lo[d], self.cell_hi[d]) = self.segs[d][self.seg[d]];
            self.cur[d] = self.cell_lo[d];
            if !wrapped {
                return true;
            }
        }
        false
    }

    fn step_box(&mut self, leftovers_only: bool) -> bool {
        loop {
            if !std::mem::take(&mut self.fresh)
                && !advance(&mut self.cur, &self.cell_lo, &self.cell_hi)
            {
                return false;
            }
            if !leftovers_only || (1..self.cur.len()).any(|d| !self.order.inside(d, self.cur[d])) {
                return true;
            }
        }
    }
}

/// Advances `cur` to the next position of the box `[lo, hi)` in
/// row-major order, in place. Returns `false` (with `cur` back at
/// `lo`) once the box is exhausted.
#[inline]
pub(crate) fn advance(cur: &mut [u64], lo: &[u64], hi: &[u64]) -> bool {
    for d in (0..cur.len()).rev() {
        cur[d] += 1;
        if cur[d] < hi[d] {
            return true;
        }
        cur[d] = lo[d];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::PartialPolicy;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn slab(corner: &[u64], sh: &[u64]) -> Slab {
        Slab::new(Coord::from(corner), shape(sh)).unwrap()
    }

    /// Every `(coord, offset)` the walk yields, with the offset checked
    /// against the band it came from.
    fn walk(s: &Slab, order: &WalkOrder) -> Vec<Coord> {
        let mut w = SplitWalk::new(s, order).unwrap();
        let mut out = Vec::new();
        while let Some(band) = w.next_band() {
            let cells: Vec<Coord> = band.iter_coords().collect();
            while let Some((c, off)) = w.next_cell() {
                assert_eq!(cells[off].components(), c, "offset {off} in {band}");
                out.push(Coord::from(c));
            }
        }
        out
    }

    #[test]
    fn unit_tiling_is_row_major() {
        let s = slab(&[1, 2, 3], &[3, 4, 5]);
        let got = walk(&s, &WalkOrder::row_major(3));
        assert_eq!(got, s.iter_coords().collect::<Vec<_>>());
    }

    #[test]
    fn rank_one_rows_are_banded_not_cell_by_cell() {
        let s = slab(&[0], &[BAND_CELLS * 2 + 5]);
        let mut w = SplitWalk::new(&s, &WalkOrder::row_major(1)).unwrap();
        let mut bands = 0;
        while w.next_band().is_some() {
            bands += 1;
            while w.next_cell().is_some() {}
        }
        assert_eq!(bands, 3);
    }

    #[test]
    fn instances_come_in_key_order_then_leftovers() {
        // {2,2} tiles with stride {3,3} over a {6,6} region at {1,1}:
        // row 3 and column 3 of the region are gaps.
        let tiling = Tiling::with_stride(
            shape(&[6, 6]),
            shape(&[2, 2]),
            vec![3, 3],
            PartialPolicy::Discard,
        )
        .unwrap();
        let order = WalkOrder::instances(&tiling, &Coord::from([1, 1])).unwrap();
        let s = slab(&[0, 0], &[8, 8]);
        let got = walk(&s, &order);
        let mut want: Vec<Coord> = s.iter_coords().collect();
        let mut sorted = got.clone();
        sorted.sort();
        want.sort();
        assert_eq!(sorted, want, "every cell exactly once");
        // Instance keys are non-decreasing in walk order.
        let keys: Vec<Coord> = got
            .iter()
            .filter_map(|c| {
                let rel = c.checked_sub(&Coord::from([1, 1])).ok()?;
                tiling.instance_of(&rel).ok().flatten()
            })
            .collect();
        assert_eq!(keys.len(), 16);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        // Within one instance, cells stay row-major.
        let inst0: Vec<&Coord> = got
            .iter()
            .filter(|c| slab(&[1, 1], &[2, 2]).contains(c))
            .collect();
        assert_eq!(
            inst0,
            vec![
                &Coord::from([1, 1]),
                &Coord::from([1, 2]),
                &Coord::from([2, 1]),
                &Coord::from([2, 2])
            ]
        );
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        assert!(SplitWalk::new(&slab(&[0, 0], &[2, 2]), &WalkOrder::row_major(3)).is_err());
    }
}
