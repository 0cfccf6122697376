//! Uniform spatial hash grid for radius queries.
//!
//! Building a connectivity graph naively is O(N²) distance checks; the
//! simulator instead bins node positions into cells of the query radius and
//! only inspects the 3×3 cell neighborhood. At constant density this keeps
//! network construction linear in N, up to the million-node deployments of
//! the scale sweep. A query costs time in proportion to the points in its
//! cell neighborhood, so many coincident points make each query over them
//! expensive: `ShardLayout::build` queries each distinct point once.

use crate::aabb::Aabb;
use crate::vec2::Vec2;

/// A grid over a bounding box holding indices of inserted points.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    bounds: Aabb,
    cell: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<u32>>,
    points: Vec<Vec2>,
}

impl SpatialGrid {
    /// Builds a grid over `points` with the given cell size (normally the
    /// query radius). Points outside `bounds` clamp into the border cells.
    pub fn build(bounds: Aabb, cell: f64, points: &[Vec2]) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        let nx = (bounds.width() / cell).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell).ceil().max(1.0) as usize;
        let mut grid = SpatialGrid {
            bounds,
            cell,
            nx,
            ny,
            cells: vec![Vec::new(); nx * ny],
            points: points.to_vec(),
        };
        for (i, &p) in points.iter().enumerate() {
            let c = grid.cell_of(p);
            grid.cells[c].push(i as u32);
        }
        grid
    }

    #[inline]
    fn cell_coords(&self, p: Vec2) -> (usize, usize) {
        let cx = ((p.x - self.bounds.min.x) / self.cell) as isize;
        let cy = ((p.y - self.bounds.min.y) / self.cell) as isize;
        (
            cx.clamp(0, self.nx as isize - 1) as usize,
            cy.clamp(0, self.ny as isize - 1) as usize,
        )
    }

    #[inline]
    fn cell_of(&self, p: Vec2) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.nx + cx
    }

    /// Indices of all points within `radius` of `query` (inclusive), in
    /// ascending index order. The query point itself is included when it was
    /// inserted and lies within the radius — callers filter self-matches.
    pub fn within(&self, query: Vec2, radius: f64) -> Vec<usize> {
        let r2 = radius * radius;
        let (cx, cy) = self.cell_coords(query);
        // How many cells the radius spans (cell size may differ from radius).
        let span = (radius / self.cell).ceil() as isize;
        let mut out = Vec::new();
        for dy in -span..=span {
            let y = cy as isize + dy;
            if y < 0 || y >= self.ny as isize {
                continue;
            }
            for dx in -span..=span {
                let x = cx as isize + dx;
                if x < 0 || x >= self.nx as isize {
                    continue;
                }
                for &idx in &self.cells[y as usize * self.nx + x as usize] {
                    if self.points[idx as usize].dist_sq(query) <= r2 {
                        out.push(idx as usize);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no points stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn brute_force(points: &[Vec2], q: Vec2, r: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(q) <= r * r)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut rng = Xoshiro256pp::seed_from(11);
        let bounds = Aabb::from_size(100.0, 100.0);
        let points: Vec<Vec2> = (0..500)
            .map(|_| rng.point_in(bounds.min, bounds.max))
            .collect();
        let grid = SpatialGrid::build(bounds, 15.0, &points);
        for _ in 0..50 {
            let q = rng.point_in(bounds.min, bounds.max);
            assert_eq!(grid.within(q, 15.0), brute_force(&points, q, 15.0));
        }
    }

    #[test]
    fn radius_larger_than_cell_size() {
        let mut rng = Xoshiro256pp::seed_from(12);
        let bounds = Aabb::from_size(50.0, 50.0);
        let points: Vec<Vec2> = (0..200)
            .map(|_| rng.point_in(bounds.min, bounds.max))
            .collect();
        let grid = SpatialGrid::build(bounds, 5.0, &points);
        for _ in 0..20 {
            let q = rng.point_in(bounds.min, bounds.max);
            assert_eq!(grid.within(q, 18.0), brute_force(&points, q, 18.0));
        }
    }

    #[test]
    fn includes_boundary_points() {
        let bounds = Aabb::from_size(10.0, 10.0);
        let points = vec![Vec2::new(0.0, 0.0), Vec2::new(3.0, 0.0)];
        let grid = SpatialGrid::build(bounds, 3.0, &points);
        // Exactly at radius: inclusive.
        assert_eq!(grid.within(Vec2::ZERO, 3.0), vec![0, 1]);
    }

    #[test]
    fn out_of_bounds_points_are_found() {
        let bounds = Aabb::from_size(10.0, 10.0);
        let points = vec![Vec2::new(-2.0, -2.0), Vec2::new(12.0, 12.0)];
        let grid = SpatialGrid::build(bounds, 2.0, &points);
        assert_eq!(grid.within(Vec2::new(-1.0, -1.0), 3.0), vec![0]);
        assert_eq!(grid.within(Vec2::new(11.0, 11.0), 3.0), vec![1]);
    }

    #[test]
    fn empty_grid() {
        let grid = SpatialGrid::build(Aabb::from_size(1.0, 1.0), 1.0, &[]);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), 0);
        assert!(grid.within(Vec2::ZERO, 10.0).is_empty());
    }
}
