//! **E13 — ablations** of the design choices the algorithms rely on:
//!
//! 1. fresh random identifiers per Part-I round (the independence
//!    argument of Lemma 5.5) vs. identifiers fixed at the start,
//! 2. the rounding repair step (deterministic feasibility) on vs. off,
//! 3. engine vs. protocol executions of Algorithm 1 (must agree
//!    bit-for-bit),
//! 4. exact vs. over-estimated knowledge of Δ in Algorithm 1.

use ftclust_bench::families::{run_trials_par, udg_workload, Family};
use ftclust_bench::stats::mean;
use ftclust_bench::table::{f2, f3, Table};
use ftclust_core::fractional::{
    protocol::run_fractional_stack, solve_fractional, FractionalParams,
};
use ftclust_core::rounding::{round_fractional, RoundingParams};
use ftclust_core::udg::{IdMode, UdgAlgorithm};
use ftclust_core::validate::{is_k_dominating_instance, Semantics};
use ftclust_core::Instance;
use ftclust_netsim::exec::Stack;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E13a: fresh vs fixed identifiers in Part I (10 seeds, k = 1)");
    println!();
    let mut t1 = Table::new(&["deployment", "mode", "mean_leaders", "mean_p1_max_disk"]);
    for (name, udg) in [
        ("uniform", udg_workload(5000, 15.0, 3)),
        (
            "dense",
            ftclust_graphs::generators::random_udg_in_square(5000, 5.0, 1.0, 4),
        ),
    ] {
        for mode in [IdMode::FreshPerRound, IdMode::FixedAtStart] {
            let trials = run_trials_par(0..10u64, |seed| {
                let run = UdgAlgorithm::new(1)
                    .seed(seed)
                    .id_mode(mode)
                    .run(&udg)
                    .unwrap();
                let occ =
                    ftclust_core::udg::analysis::members_per_half_disk(&udg, &run.leaders).unwrap();
                (run.leaders.len() as f64, occ.max as f64)
            });
            let leaders: Vec<f64> = trials.iter().map(|(l, _)| *l).collect();
            let max_disk: Vec<f64> = trials.iter().map(|(_, m)| *m).collect();
            t1.row(&[
                &name,
                &format!("{mode:?}"),
                &f2(mean(&leaders)),
                &f2(mean(&max_disk)),
            ]);
        }
    }
    t1.print();
    println!();

    println!("E13b: rounding repair on/off (feasibility %, mean size; 50 seeds)");
    println!();
    let g = ftclust_graphs::generators::cycle(400);
    let inst = Instance::uniform(&g, 1).expect("cycle fits k=1");
    let sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
    let mut t2 = Table::new(&["repair", "feasible%", "mean_size"]);
    for repair in [true, false] {
        let params = RoundingParams { repair };
        let trials = run_trials_par(0..50u64, |seed| {
            let out = round_fractional(&inst, &sol.x, sol.delta, seed, &params);
            let feasible = is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf);
            (feasible, out.set.len() as f64)
        });
        let feas = trials.iter().filter(|(f, _)| *f).count() as u32;
        let sizes: Vec<f64> = trials.iter().map(|(_, s)| *s).collect();
        t2.row(&[&repair, &f2(feas as f64 * 2.0), &f2(mean(&sizes))]);
    }
    t2.print();
    println!();

    println!("E13c: engine vs protocol equality (bit-for-bit, all algorithms)");
    let g = Family::Gnp.build(150, 9);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(3);
    let engine = solve_fractional(&inst, &params).unwrap();
    let proto = run_fractional_stack(&inst, &params, Stack::new())
        .unwrap()
        .0
        .solution;
    assert_eq!(engine, proto);
    println!("  fractional engine == protocol: yes");
    println!();

    println!("E13e: Algorithm 1 without global Δ knowledge (2-hop max, t = 4)");
    println!();
    let mut t5 = Table::new(&["knowledge", "sum_x", "lower_bound", "certified_ratio"]);
    let global = solve_fractional(&inst, &FractionalParams::new(4)).unwrap();
    let local = solve_fractional(&inst, &FractionalParams::new(4).without_global_delta()).unwrap();
    assert!(local.is_primal_feasible(&inst, 1e-7));
    assert!(local.is_scaled_dual_feasible(&inst, 1e-7));
    for (name, sol) in [("global", &global), ("two-hop max", &local)] {
        t5.row(&[
            &name,
            &f2(sol.value),
            &f2(sol.lower_bound),
            &f3(sol.value / sol.lower_bound.max(1e-12)),
        ]);
    }
    t5.print();
    println!();

    println!("E13d: Algorithm 1 with over-estimated Δ (t = 4)");
    println!();
    let mut t4 = Table::new(&["delta_used", "true_delta", "sum_x", "ratio_vs_exact_delta"]);
    let exact = solve_fractional(&inst, &FractionalParams::new(4)).unwrap();
    for factor in [1usize, 2, 4, 16] {
        let hint = g.max_degree() * factor;
        let sol = solve_fractional(&inst, &FractionalParams::new(4).with_delta_hint(hint)).unwrap();
        assert!(
            sol.is_primal_feasible(&inst, 1e-7),
            "feasibility must survive bad hints"
        );
        t4.row(&[
            &hint,
            &g.max_degree(),
            &f2(sol.value),
            &f3(sol.value / exact.value),
        ]);
    }
    t4.print();
    println!();
    println!("expected shapes: (a) fixed ids inflate the dense-deployment leader");
    println!("count; (b) repair-off loses feasibility on a large fraction of seeds");
    println!("while saving little; (c) equality always holds; (d) over-estimating Δ");
    println!("stays feasible and degrades the value gracefully.");
    Ok(())
}
