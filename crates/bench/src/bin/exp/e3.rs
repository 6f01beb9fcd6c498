//! **E3 — Theorem 4.6**: randomized rounding loses an expected factor
//! `≈ ln(Δ+1) + O(1)` over the fractional value and is always feasible
//! (with the repair step).

use ftclust_bench::families::{run_trials_par, Family};
use ftclust_bench::stats::{mean, stddev};
use ftclust_bench::table::{f2, f3, Table};
use ftclust_core::fractional::{solve_fractional, FractionalParams};
use ftclust_core::rounding::{round_fractional, RoundingParams};
use ftclust_core::validate::{is_k_dominating_instance, Semantics};
use ftclust_core::Instance;

const TRIALS: u64 = 50;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E3: rounding blowup E[|S|]/Σx vs ln(Δ+1) (Theorem 4.6), {TRIALS} seeds");
    println!();
    let mut table = Table::new(&[
        "family", "n", "k", "delta", "sum_x", "E|S|", "std", "blowup", "ln(d+1)", "feas%",
    ]);
    for family in [Family::Gnp, Family::Ba, Family::Rgg] {
        for (n, k) in [(300u32, 1u32), (300, 2), (1000, 2)] {
            let g = family.build(n, 11);
            let inst = Instance::uniform_clamped(&g, k);
            let sol = solve_fractional(&inst, &FractionalParams::new(4)).unwrap();
            // Each trial's randomness comes solely from its seed, so the
            // fan-out reproduces the serial trial loop exactly.
            let trials = run_trials_par(0..TRIALS, |seed| {
                let out =
                    round_fractional(&inst, &sol.x, sol.delta, seed, &RoundingParams::default());
                let feasible = is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf);
                (feasible, out.set.len() as f64)
            });
            let feasible = trials.iter().filter(|(f, _)| *f).count() as u64;
            let sizes: Vec<f64> = trials.iter().map(|(_, s)| *s).collect();
            assert_eq!(feasible, TRIALS, "repair must guarantee feasibility");
            let m = mean(&sizes);
            table.row(&[
                &family.name(),
                &g.node_count(),
                &k,
                &sol.delta,
                &f2(sol.value),
                &f2(m),
                &f2(stddev(&sizes)),
                &f3(m / sol.value.max(1e-12)),
                &f3(((sol.delta + 1) as f64).ln()),
                &"100.0",
            ]);
        }
    }
    table.print();
    println!();
    println!("expected shape: blowup tracks ln(Δ+1) within a small additive constant;");
    println!("feasibility is 100% in every row (deterministic repair).");
    Ok(())
}
