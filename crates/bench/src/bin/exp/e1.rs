//! **E1 — Theorem 4.5**: the fractional solution of Algorithm 1 is within
//! `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})` of the LP optimum, and the ratio
//! improves as `t` grows.
//!
//! For n ≤ 200 the LP optimum comes from the exact simplex; at every size
//! the run's own dual certificate provides a second, independently valid
//! lower bound.

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, Family};
use ftclust_bench::table::{f2, f3, Table};
use ftclust_core::bounds::theorem_4_5_bound;
use ftclust_core::fractional::{solve_fractional, FractionalParams};
use ftclust_core::Instance;
use ftclust_lp::solve as lp_solve;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E1: fractional approximation ratio vs t (Theorem 4.5)");
    println!("ratio_lp   = Σx / exact LP optimum (n ≤ 200)");
    println!("ratio_cert = Σx / own dual certificate (always valid)");
    println!();
    let mut table = Table::new(&[
        "family",
        "n",
        "k",
        "t",
        "delta",
        "sum_x",
        "lp_opt",
        "ratio_lp",
        "ratio_cert",
        "ratio_tight",
        "bound45",
    ]);
    let mut configs = Vec::new();
    for family in [Family::Gnp, Family::Ba, Family::Grid, Family::Rgg] {
        for (n, k) in [(200u32, 1u32), (200, 3), (1000, 2)] {
            configs.push((family, n, k));
        }
    }
    // One parallel task per (family, n, k) cell; each emits its four
    // t-rows, appended in configuration order.
    let rows = run_trials_par(0..configs.len() as u64, |ci| {
        let (family, n, k) = configs[ci as usize];
        let g = family.build(n, 7);
        let inst = Instance::uniform_clamped(&g, k);
        let lp_opt = if g.node_count() <= 200 {
            lp_solve(&inst.to_lp()).ok().map(|s| s.value)
        } else {
            None
        };
        let mut out = Vec::new();
        for t in [1u32, 2, 4, 8] {
            let sol =
                solve_fractional(&inst, &FractionalParams::new(t)).expect("validated instance");
            assert!(sol.is_primal_feasible(&inst, 1e-7));
            assert!(sol.is_scaled_dual_feasible(&inst, 1e-7));
            let ratio_lp = lp_opt.map(|o| sol.value / o.max(1e-12));
            let ratio_cert = sol.value / sol.lower_bound.max(1e-12);
            let tight = sol.tightened_lower_bound(&inst);
            let ratio_tight = sol.value / tight.max(1e-12);
            let bound = theorem_4_5_bound(t, sol.delta);
            if let Some(r) = ratio_lp {
                assert!(r <= bound + 1e-6, "Theorem 4.5 violated");
            }
            out.push(cells![
                family.name(),
                g.node_count(),
                k,
                t,
                sol.delta,
                f2(sol.value),
                lp_opt.map_or_else(|| "-".into(), f2),
                ratio_lp.map_or_else(|| "-".into(), f3),
                f3(ratio_cert),
                f3(ratio_tight),
                f2(bound)
            ]);
        }
        out
    });
    table.push_rows(rows.into_iter().flatten());
    table.print();
    println!();
    println!("expected shape: ratio_lp well under bound45 and falling as t grows;");
    println!("ratio_cert is looser (the certificate pays the κ scaling); ratio_tight");
    println!("(scaling by the dual's measured violation instead of κ) sits between.");
    Ok(())
}
