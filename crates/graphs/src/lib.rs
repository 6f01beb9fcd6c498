//! Graph substrate for distributed clustering algorithms.
//!
//! Provides the graph machinery used by the k-fold dominating set
//! algorithms of Kuhn, Moscibroda and Wattenhofer (ICDCS 2006):
//!
//! * [`Graph`] — a compact, immutable undirected graph in CSR form with
//!   sorted adjacency, `O(log δ)` edge queries and per-directed-edge *slot*
//!   indices (used by the distributed LP algorithm to store the per-neighbor
//!   dual variables `α_{j,i}`, `β_{j,i}`),
//! * [`GraphBuilder`] — validated incremental construction,
//! * [`UnitDiskGraph`] — nodes embedded in the plane, edges between nodes at
//!   Euclidean distance ≤ `radius`, with distance sensing
//!   (the paper's Section 5 model),
//! * [`generators`] — seeded random and structured graph families for the
//!   experiment sweeps (Erdős–Rényi, random geometric, Barabási–Albert,
//!   grids, trees, …),
//! * [`traversal`] — BFS, connected components, induced subgraphs,
//! * [`stats`] — degree statistics,
//! * [`io`] — plain-text edge-list and position serialization,
//! * [`mobility`] — the random-waypoint mobility model (Section 1 of the
//!   paper lists mobility among the reasons clustering needs fault
//!   tolerance).
//!
//! # Example
//!
//! ```
//! use ftclust_graphs::{Graph, NodeId};
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(NodeId::new(0)), 2);
//! assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
//! # Ok::<(), ftclust_graphs::GraphError>(())
//! ```

mod builder;
mod error;
mod geometric;
mod graph;

pub mod generators;
pub mod io;
pub mod mobility;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use geometric::UnitDiskGraph;
pub use graph::{Graph, NodeId};
