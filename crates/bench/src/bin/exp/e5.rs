//! **E5 — Theorem 5.7**: the UDG algorithm runs in `O(log log n)` rounds
//! and its output stays within a constant factor of the optimum as `n`
//! grows (measured against the disk-packing lower bound and, at small n,
//! the exact LP).

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, udg_workload};
use ftclust_bench::table::{f2, Table};
use ftclust_core::bounds::udg_packing_lower_bound;
use ftclust_core::udg::{protocol::run_udg_stack, theta_schedule, UdgAlgorithm};
use ftclust_core::validate::{is_k_dominating, Semantics};
use ftclust_netsim::exec::Stack;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E5: UDG algorithm scaling (Theorem 5.7)");
    println!("pack_lb = disk-packing lower bound on OPT; ratio = |S| / (k·pack_lb)");
    println!("(OPT ≥ pack_lb always; OPT ≈ k·pack_lb on dense uniform deployments,");
    println!(" so flat `ratio` across three orders of magnitude of n is the O(1) claim)");
    println!();
    let mut table = Table::new(&[
        "n",
        "k",
        "p1_rounds",
        "sched",
        "p2_iters",
        "sim_rounds",
        "|S|",
        "pack_lb",
        "ratio",
    ]);
    let sizes = [100u32, 1000, 10_000, 100_000];
    let rows = run_trials_par(0..sizes.len() as u64, |ni| {
        let n = sizes[ni as usize];
        let udg = udg_workload(n, 12.0, n as u64);
        let pack = udg_packing_lower_bound(&udg).max(1);
        let mut out = Vec::new();
        for k in [1u32, 3] {
            let (proto, _) =
                run_udg_stack(&udg, &UdgAlgorithm::new(k).seed(5), Stack::new()).expect("protocol");
            let run = proto.run;
            assert!(is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict));
            out.push(cells![
                n,
                k,
                run.part1_rounds,
                theta_schedule(n as usize, 1.0).expect("radius 1").len(),
                run.part2_iterations,
                proto.metrics.rounds,
                run.set.len(),
                pack,
                f2(run.set.len() as f64 / (k as usize * pack) as f64)
            ]);
        }
        out
    });
    table.push_rows(rows.into_iter().flatten());
    table.print();
    println!();
    println!("expected shape: p1_rounds grows like ⌈log_1.5 log2 n⌉ (5→7 over the");
    println!("sweep); p2_iters stays O(1); ratio flat in n (constant approximation).");
    Ok(())
}
