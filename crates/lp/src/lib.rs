//! Covering linear programs: exact solving and dual certificates.
//!
//! The fractional relaxation of the k-fold dominating set problem — the
//! paper's LP `(PP)` — is a **covering LP with box constraints**:
//!
//! ```text
//!     minimize    c·x
//!     subject to  A x ≥ b        (A ≥ 0, b ≥ 0)
//!                 0 ≤ x ≤ u
//! ```
//!
//! This crate provides
//!
//! * [`CoveringLp`] — the problem representation with feasibility checking,
//! * [`solve`] — an exact dense two-phase simplex for small/medium
//!   instances (used to *measure* the approximation ratios the paper only
//!   bounds analytically),
//! * dual-certificate utilities ([`CoveringLp::is_dual_feasible`],
//!   [`CoveringLp::dual_value`]) — any feasible dual solution of `(DP)`
//!   lower-bounds the primal optimum by weak duality. The distributed LP
//!   algorithm of the paper produces such certificates after scaling by
//!   `κ = t(Δ+1)^{1/t}` (Lemma 4.4), which yields valid lower bounds at
//!   network sizes far beyond what the simplex can handle.
//!
//! # Example
//!
//! ```
//! use ftclust_lp::{CoveringLp, solve};
//!
//! // min x0 + x1  s.t.  x0 + x1 >= 1.5, x <= 1.
//! let mut lp = CoveringLp::new(2);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], 1.5)?;
//! let sol = solve(&lp)?;
//! assert!((sol.value - 1.5).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod covering;
mod error;
mod simplex;

pub use covering::{CoveringLp, LpSolution};
pub use error::LpError;
pub use simplex::solve;
