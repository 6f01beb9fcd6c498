//! **E11 — comparison against prior work**: greedy \[20\] tracks its
//! `H(Δ+1)` guarantee, the UDG algorithm beats the geometric grid
//! heuristic and prior distributed baselines on clustered deployments.

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, udg_workload};
use ftclust_bench::table::{f2, Table};
use ftclust_core::baselines::{greedy_kmds, grid_clustering, jrs_kmds};
use ftclust_core::bounds::udg_packing_lower_bound;
use ftclust_core::udg::UdgAlgorithm;
use ftclust_core::validate::Semantics;
use ftclust_core::Instance;
use ftclust_graphs::generators;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E11: k-MDS solution sizes across algorithms on UDG deployments, k = 2");
    println!();
    let mut table = Table::new(&[
        "deployment",
        "n",
        "pack_lb",
        "udg_alg",
        "grid",
        "greedy",
        "jrs",
        "jrs_rounds",
    ]);
    let k = 2u32;
    let workloads: Vec<(&str, ftclust_graphs::UnitDiskGraph)> = vec![
        ("uniform d=8", udg_workload(3000, 8.0, 1)),
        ("uniform d=25", udg_workload(3000, 25.0, 2)),
        (
            "clustered",
            generators::clustered_udg(3000, 12, 40.0, 1.0, 1.0, 3),
        ),
        ("sparse d=4", udg_workload(3000, 4.0, 4)),
    ];
    let rows = run_trials_par(0..workloads.len() as u64, |wi| {
        let (name, udg) = &workloads[wi as usize];
        let inst = Instance::uniform_clamped(udg.graph(), k);
        let udg_run = UdgAlgorithm::new(k).seed(6).run(udg).expect("udg");
        let grid = grid_clustering(udg, k);
        let greedy = greedy_kmds(&inst, Semantics::Strict);
        let jrs = jrs_kmds(&inst, Semantics::Strict, 6);
        cells![
            name,
            udg.node_count(),
            udg_packing_lower_bound(udg),
            udg_run.set.len(),
            grid.len(),
            greedy.len(),
            jrs.set.len(),
            jrs.rounds
        ]
    });
    table.push_rows(rows);
    table.print();

    println!();
    println!("greedy vs its H(Δ+1) guarantee on general graphs (exact LP denominator):");
    let mut h_table = Table::new(&["n", "k", "delta", "greedy", "lp_opt", "ratio", "H(d+1)"]);
    for (n, k) in [(120u32, 1u32), (120, 3)] {
        let g = generators::gnp(n, 10.0 / n as f64, 5);
        let inst = Instance::uniform_clamped(&g, k);
        let lp = ftclust_lp::solve(&inst.to_lp()).expect("simplex").value;
        let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
        let delta = g.max_degree();
        let h: f64 = (1..=delta + 1).map(|i| 1.0 / i as f64).sum();
        table_row_check(greedy.len() as f64, lp, h);
        h_table.row(&[
            &n,
            &k,
            &delta,
            &greedy.len(),
            &f2(lp),
            &f2(greedy.len() as f64 / lp.max(1e-12)),
            &f2(h),
        ]);
    }
    h_table.print();
    println!();
    println!("expected shape: udg_alg close to the packing bound and well under the");
    println!("grid heuristic on non-uniform deployments; greedy ratio under H(Δ+1).");
    Ok(())
}

fn table_row_check(greedy: f64, lp_opt: f64, h: f64) {
    assert!(
        greedy <= (h + 1.0) * lp_opt + 1e-6,
        "greedy exceeded its H(Δ+1) guarantee"
    );
}
