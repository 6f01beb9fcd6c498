//! Planar geometry substrate for unit-disk-graph clustering.
//!
//! This crate provides the geometric machinery needed by the fault-tolerant
//! clustering algorithms of Kuhn, Moscibroda and Wattenhofer (ICDCS 2006):
//!
//! * [`Point`] — points in the Euclidean plane with distance queries,
//! * [`Disk`] — closed disks, containment and intersection tests,
//! * [`SpatialGrid`] — a uniform cell grid stored as one flat table
//!   (per-cell offsets and one index array, `O(n)` memory for any input),
//!   answering *range queries* ("all points within distance `r` of `q`")
//!   in expected `O(1)` time per reported point, used to build unit disk
//!   graphs with 100 000+ nodes and by the Section 5 analysis and audits,
//! * [`hex`] — hexagonal lattice coverings of the plane by disks
//!   (the paper's Figure 1), and
//! * [`cover`] — disk-covering counts `α(i)` from Lemma 5.3 together with
//!   numeric verification helpers.
//!
//! # Example
//!
//! ```
//! use ftclust_geometry::{Point, SpatialGrid};
//!
//! let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(3.0, 3.0)];
//! let grid = SpatialGrid::build(&pts, 1.0);
//! let near_origin = grid.within(Point::new(0.0, 0.0), 1.0);
//! assert_eq!(near_origin.len(), 2); // the origin itself and (0.5, 0)
//! ```

mod disk;
mod grid;
mod point;

pub mod cover;
pub mod hex;

pub use disk::Disk;
pub use grid::SpatialGrid;
pub use point::Point;
