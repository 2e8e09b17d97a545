//! Initial material states.
//!
//! TeaLeaf decks describe the problem as a background state plus a list of
//! regions (rectangles, circles, points) with their own density and energy —
//! the classic deck has a cold background and a hot square in one corner.

use crate::grid::Grid;

/// The geometric extent of a state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Geometry {
    /// Applies everywhere (the background state).
    Everywhere,
    /// Axis-aligned rectangle `[x_min, x_max] × [y_min, y_max]`.
    Rectangle {
        /// Lower x bound.
        x_min: f64,
        /// Upper x bound.
        x_max: f64,
        /// Lower y bound.
        y_min: f64,
        /// Upper y bound.
        y_max: f64,
    },
    /// Circle centred at `(x, y)` with the given radius.
    Circle {
        /// Centre x.
        x: f64,
        /// Centre y.
        y: f64,
        /// Radius.
        radius: f64,
    },
    /// A single cell containing the point `(x, y)`.
    Point {
        /// Point x.
        x: f64,
        /// Point y.
        y: f64,
    },
}

/// A material state: geometry plus density and specific energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct State {
    /// Region the state applies to.
    pub geometry: Geometry,
    /// Material density.
    pub density: f64,
    /// Specific energy.
    pub energy: f64,
}

impl State {
    /// The default background state of the standard TeaLeaf deck.
    pub fn background(density: f64, energy: f64) -> Self {
        State {
            geometry: Geometry::Everywhere,
            density,
            energy,
        }
    }

    /// Whether the cell `(i, j)` of `grid` belongs to this state's region
    /// (TeaLeaf applies a state to a cell when the cell centre is inside the
    /// region).
    pub fn contains_cell(&self, grid: &Grid, i: usize, j: usize) -> bool {
        let (cx, cy) = grid.cell_centre(i, j);
        match self.geometry {
            Geometry::Everywhere => true,
            Geometry::Rectangle {
                x_min,
                x_max,
                y_min,
                y_max,
            } => cx >= x_min && cx < x_max && cy >= y_min && cy < y_max,
            Geometry::Circle { x, y, radius } => {
                let dx = cx - x;
                let dy = cy - y;
                dx * dx + dy * dy <= radius * radius
            }
            Geometry::Point { x, y } => {
                let (xl, xh, yl, yh) = grid.cell_bounds(i, j);
                x >= xl && x < xh && y >= yl && y < yh
            }
        }
    }
}

/// Fills the density and energy fields from an ordered list of states (later
/// states overwrite earlier ones, as in TeaLeaf).
///
/// The separable geometries are not tested cell by cell: a background state
/// is a `fill`, and a rectangle's predicate splits into one test per column
/// and one per row ([`State::contains_cell`] compares the two coordinates of
/// the cell centre independently).
pub fn apply_states(grid: &Grid, states: &[State], density: &mut [f64], energy: &mut [f64]) {
    assert_eq!(density.len(), grid.cells());
    assert_eq!(energy.len(), grid.cells());
    for state in states {
        match state.geometry {
            Geometry::Everywhere => {
                density.fill(state.density);
                energy.fill(state.energy);
            }
            Geometry::Rectangle {
                x_min,
                x_max,
                y_min,
                y_max,
            } => {
                let columns: Vec<usize> = (0..grid.nx)
                    .filter(|&i| {
                        let cx = grid.cell_centre(i, 0).0;
                        cx >= x_min && cx < x_max
                    })
                    .collect();
                for j in 0..grid.ny {
                    let cy = grid.cell_centre(0, j).1;
                    if cy >= y_min && cy < y_max {
                        for &i in &columns {
                            density[grid.index(i, j)] = state.density;
                            energy[grid.index(i, j)] = state.energy;
                        }
                    }
                }
            }
            Geometry::Circle { .. } | Geometry::Point { .. } => {
                for j in 0..grid.ny {
                    for i in 0..grid.nx {
                        if state.contains_cell(grid, i, j) {
                            density[grid.index(i, j)] = state.density;
                            energy[grid.index(i, j)] = state.energy;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_plus_rectangle() {
        let grid = Grid::new(10, 10, 10.0, 10.0);
        let states = [
            State::background(0.2, 1.0),
            State {
                geometry: Geometry::Rectangle {
                    x_min: 0.0,
                    x_max: 5.0,
                    y_min: 0.0,
                    y_max: 2.0,
                },
                density: 1.0,
                energy: 2.5,
            },
        ];
        let mut density = vec![0.0; grid.cells()];
        let mut energy = vec![0.0; grid.cells()];
        apply_states(&grid, &states, &mut density, &mut energy);
        assert_eq!(density[grid.index(0, 0)], 1.0);
        assert_eq!(energy[grid.index(4, 1)], 2.5);
        assert_eq!(density[grid.index(5, 0)], 0.2);
        assert_eq!(energy[grid.index(9, 9)], 1.0);
    }

    #[test]
    fn circle_and_point() {
        let grid = Grid::new(10, 10, 10.0, 10.0);
        let circle = State {
            geometry: Geometry::Circle {
                x: 5.0,
                y: 5.0,
                radius: 1.6,
            },
            density: 2.0,
            energy: 3.0,
        };
        assert!(circle.contains_cell(&grid, 5, 5));
        assert!(circle.contains_cell(&grid, 4, 5));
        assert!(!circle.contains_cell(&grid, 1, 1));

        let point = State {
            geometry: Geometry::Point { x: 7.3, y: 2.8 },
            density: 5.0,
            energy: 5.0,
        };
        assert!(point.contains_cell(&grid, 7, 2));
        assert!(!point.contains_cell(&grid, 7, 3));
        assert!(!point.contains_cell(&grid, 6, 2));
    }

    /// The separable fast paths against the per-cell predicate, on regions
    /// that straddle the domain edge, miss it, or are empty.
    #[test]
    fn fields_equal_the_per_cell_predicate() {
        let grid = Grid::new(13, 9, 10.0, 4.5);
        let rectangle = |x_min, x_max, y_min, y_max, value| State {
            geometry: Geometry::Rectangle {
                x_min,
                x_max,
                y_min,
                y_max,
            },
            density: value,
            energy: value + 0.5,
        };
        let states = [
            State::background(0.2, 1.0),
            rectangle(0.0, 5.0, 0.0, 2.0, 1.0),
            rectangle(-3.0, 1.2, 3.9, 40.0, 2.0),
            rectangle(4.0, 4.0, 0.0, 4.5, 3.0),
            rectangle(20.0, 30.0, 0.0, 4.5, 4.0),
            State {
                geometry: Geometry::Circle {
                    x: 6.0,
                    y: 2.0,
                    radius: 1.7,
                },
                density: 5.0,
                energy: 5.5,
            },
            State {
                geometry: Geometry::Point { x: 9.9, y: 0.1 },
                density: 6.0,
                energy: 6.5,
            },
            rectangle(5.5, 7.5, 1.0, 3.0, 7.0),
        ];
        let (mut density, mut energy) = (vec![0.0; grid.cells()], vec![0.0; grid.cells()]);
        apply_states(&grid, &states, &mut density, &mut energy);
        let (mut want_d, mut want_e) = (vec![0.0; grid.cells()], vec![0.0; grid.cells()]);
        for state in &states {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    if state.contains_cell(&grid, i, j) {
                        want_d[grid.index(i, j)] = state.density;
                        want_e[grid.index(i, j)] = state.energy;
                    }
                }
            }
        }
        assert_eq!(density, want_d);
        assert_eq!(energy, want_e);
        // Every state above left a mark except the empty and the outside
        // rectangle.
        for value in [0.2, 1.0, 2.0, 5.0, 6.0, 7.0] {
            assert!(density.contains(&value), "{value}");
        }
        assert!(!density.contains(&3.0) && !density.contains(&4.0));
    }

    #[test]
    fn later_states_overwrite_earlier_ones() {
        let grid = Grid::new(4, 4, 4.0, 4.0);
        let states = [
            State::background(1.0, 1.0),
            State {
                geometry: Geometry::Everywhere,
                density: 9.0,
                energy: 9.0,
            },
        ];
        let mut density = vec![0.0; grid.cells()];
        let mut energy = vec![0.0; grid.cells()];
        apply_states(&grid, &states, &mut density, &mut energy);
        assert!(density.iter().all(|&d| d == 9.0));
        assert!(energy.iter().all(|&e| e == 9.0));
    }
}
