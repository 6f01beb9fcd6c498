//! # ftclust — fault-tolerant clustering for ad hoc and sensor networks
//!
//! A reproduction of **Kuhn, Moscibroda & Wattenhofer, "Fault-Tolerant
//! Clustering in Ad Hoc and Sensor Networks" (ICDCS 2006)**: distributed
//! approximation algorithms for the minimum **k-fold dominating set**
//! problem (k-MDS), in general graphs and in unit disk graphs.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — the paper's algorithms (distributed LP approximation,
//!   randomized rounding, the `O(log log n)` UDG algorithm) plus baselines,
//!   validators, bounds and fault-tolerance analysis,
//! * [`graphs`] — graph representation and generators (including unit disk
//!   graphs),
//! * [`geometry`] — planar geometry (spatial grids, hexagonal coverings),
//! * [`netsim`] — the synchronous message-passing simulator with
//!   `O(log n)`-bit message accounting and fault injection,
//! * [`lp`] — covering-LP solvers used for lower bounds,
//! * [`render`] — SVG visualization of deployments and backbones.
//!
//! # Quickstart
//!
//! ```
//! use ftclust::core::prelude::*;
//! use ftclust::graphs::generators;
//!
//! // A random geometric network of 300 sensors.
//! let udg = generators::random_udg(300, 6.0, 1.0, 42);
//!
//! // A 2-fold dominating set via the O(log log n) UDG algorithm.
//! let result = UdgAlgorithm::new(2).seed(7).run(&udg).unwrap();
//! assert!(is_k_dominating(udg.graph(), &result.set, 2, Semantics::Strict));
//! ```

pub use ftclust_core as core;
pub use ftclust_geometry as geometry;
pub use ftclust_graphs as graphs;
pub use ftclust_lp as lp;
pub use ftclust_netsim as netsim;

pub mod render;
