//! Distributed approximation algorithms for **fault-tolerant clustering**:
//! the minimum k-fold dominating set problem (k-MDS) in general graphs and
//! unit disk graphs.
//!
//! This crate implements the algorithms of *Kuhn, Moscibroda & Wattenhofer,
//! "Fault-Tolerant Clustering in Ad Hoc and Sensor Networks" (ICDCS 2006)*:
//!
//! * [`fractional`] — **Algorithm 1**: the distributed LP approximation of
//!   the fractional k-MDS relaxation `(PP)`. `O(t²)` rounds, approximation
//!   ratio `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})` (Theorem 4.5), with the dual
//!   solution `(y, z)` extracted as a *verified lower-bound certificate*.
//! * [`rounding`] — **Algorithm 2**: distributed randomized rounding of a
//!   fractional solution into an integral k-fold dominating set, losing a
//!   factor `ln(Δ+1) + O(1)` in expectation (Theorem 4.6), in `O(1)`
//!   rounds, with a deterministic repair step guaranteeing feasibility.
//! * [`general`] — the end-to-end pipeline (Algorithm 1 + Algorithm 2).
//! * [`udg`] — **Algorithm 3**: the `O(log log n)` unit-disk-graph
//!   algorithm with expected `O(1)` approximation ratio (Theorem 5.7):
//!   Part I sparsifies *active* nodes over radius-doubling rounds into an
//!   `O(1)`-dense leader set; Part II extends it to a k-fold dominating
//!   set.
//! * [`promotion`] — the promotion loop that Algorithm 3's Part II and
//!   coverage repair share.
//! * [`baselines`] — comparison algorithms: the centralized greedy
//!   multi-cover (`H(Δ+1)`-approximation), an exact branch-and-bound
//!   optimum for small instances, a JRS-style randomized distributed
//!   baseline, a one-round local heuristic, and a grid heuristic for UDGs.
//! * [`connect`] — extension: connected backbones from (k-fold)
//!   dominating sets, the virtual-backbone use case of Section 1.
//! * [`repair`] — extension: distributed coverage repair after live
//!   churn, restoring strict k-domination among the survivors via local
//!   re-election (the Part II promotion loop, seeded with the survivors).
//! * [`validate`] — k-domination checking under both the paper's
//!   Section 1 semantics and the LP `(PP)` semantics.
//! * [`fault`] — survivability analysis under node failures (the paper's
//!   motivation for `k > 1`).
//! * [`bounds`] — the closed-form bounds of the theorems, for
//!   measured-vs-predicted experiment tables.
//!
//! Every randomized component is deterministic given a seed. Every
//! distributed algorithm runs as a **message-passing protocol** on
//! [`ftclust_netsim`] (paper-faithful, metering rounds and message bits).
//! Algorithms 1 and 2 and coverage repair also have an **engine** running
//! the same per-round mathematics in memory; it draws per-node randomness
//! from the same streams, so both give identical outputs seed-for-seed.
//! Algorithm 3 has no engine: [`udg::UdgAlgorithm::run`] runs the
//! protocol, which is the faster of the two.
//!
//! # Quickstart
//!
//! ```
//! use ftclust_core::prelude::*;
//! use ftclust_graphs::generators;
//!
//! // A 2-fold dominating set on a random geometric network.
//! let udg = generators::random_udg(400, 8.0, 1.0, 42);
//! let result = UdgAlgorithm::new(2).seed(7).run(&udg)?;
//! assert!(is_k_dominating(udg.graph(), &result.set, 2, Semantics::Strict));
//!
//! // The general-graph pipeline on an arbitrary topology.
//! let g = generators::gnp(300, 0.05, 1);
//! let inst = Instance::uniform_clamped(&g, 2);
//! let run = GeneralPipeline::new(4).seed(3).run(&inst)?;
//! assert!(is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf));
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod error;
mod instance;
mod set;

pub mod baselines;
pub mod bounds;
pub mod connect;
pub mod fault;
pub mod fractional;
pub mod general;
pub mod portfolio;
pub mod promotion;
pub mod repair;
pub mod rounding;
pub mod udg;
pub mod validate;

pub use error::KmdsError;
pub use instance::Instance;
pub use set::DominatingSet;

/// Convenient glob import of the crate's main types.
pub mod prelude {
    pub use crate::baselines::{exact_kmds, greedy_kmds, local_heuristic};
    pub use crate::connect::connect_dominating_set;
    pub use crate::fractional::{solve_fractional, FractionalParams};
    pub use crate::general::GeneralPipeline;
    pub use crate::portfolio::{recommend, Algorithm, PortfolioRun, Workload};
    pub use crate::repair::{repair_coverage, surviving_instance};
    pub use crate::rounding::round_fractional;
    pub use crate::udg::UdgAlgorithm;
    pub use crate::validate::{
        certified_ratio, coverage, is_k_dominating, is_k_dominating_instance, Semantics,
    };
    pub use crate::{DominatingSet, Instance, KmdsError};
}
