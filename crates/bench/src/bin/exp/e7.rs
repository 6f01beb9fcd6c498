//! **E7 — Lemma 5.2**: the number of active nodes decays
//! super-geometrically (`x' ≲ √m·log m` per disk per round) once the
//! consideration radius is large enough for disks to be populated.
//! Also counts Part I's orphans: nodes left with no leader within one hop,
//! which Lemma 5.1 rules out but the capped θ schedule allows.

use ftclust_bench::families::{run_trials_par, udg_workload};
use ftclust_bench::table::{f2, Table};
use ftclust_core::udg::{theta_schedule, UdgAlgorithm};
use ftclust_graphs::generators;

fn print_series(label: &str, n: u32, history: &[usize], orphans: usize) {
    let mut table = Table::new(&["round", "theta", "active", "shrink", "sqrt(prev)"]);
    let schedule = theta_schedule(n as usize, 1.0).expect("radius 1");
    let mut prev = n as usize;
    for (i, &a) in history.iter().enumerate() {
        table.row(&[
            &(i + 1),
            &format!("{:.4}", schedule[i]),
            &a,
            &f2(prev as f64 / a.max(1) as f64),
            &f2((prev as f64).sqrt()),
        ]);
        prev = a;
    }
    println!("{label} (n = {n}):");
    table.print();
    println!("orphans (no Part I leader within one hop): {orphans}");
    println!();
}

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E7: per-round active-node decay in Part I (Lemma 5.2)");
    println!();
    // Two independent deployments: the uniform one with moderate density,
    // and a dense one where mid-game disks hold thousands of nodes (the
    // regime where the √m collapse is most visible). Run as a parallel
    // pair; the dense deployment is reused by the census below.
    let dense = generators::random_udg_in_square(20_000, 8.0, 1.0, 5);
    let histories = run_trials_par(0..2u64, |which| {
        let udg = if which == 0 {
            udg_workload(20_000, 15.0, 4)
        } else {
            dense.clone()
        };
        let run = UdgAlgorithm::new(1).seed(1).run(&udg).expect("udg");
        let g = udg.graph();
        let orphans = g
            .nodes()
            .filter(|&v| !g.closed_neighbors(v).any(|u| run.leaders.contains(u)))
            .count();
        (run.active_history, orphans)
    });
    let labels = ["uniform deployment", "dense deployment (8×8 area)"];
    for (label, (history, orphans)) in labels.into_iter().zip(&histories) {
        print_series(label, 20_000, history, *orphans);
    }

    // The lemma's own per-disk statement: x'_i ≤ δ·√m_i·ln m_i.
    println!("per-disk census of the dense deployment (Lemma 5.2 verbatim):");
    let census = ftclust_core::udg::analysis::lemma_5_2_census(&dense, 1).expect("census");
    let mut t = Table::new(&[
        "round",
        "theta",
        "disks(m>=2)",
        "max x'/(sqrt(m)ln m)",
        "delta=1 ok",
    ]);
    for c in &census {
        t.row(&[
            &c.round,
            &format!("{:.4}", c.theta),
            &c.active_disks,
            &f2(c.max_ratio),
            &f2(c.delta1_fraction),
        ]);
    }
    t.print();
    println!();
    println!("expected shape: shrink factors start near 1 (θ too small for any");
    println!("interaction), spike far above 2 in the middle rounds (the √m regime),");
    println!("then flatten as counts approach the O(1)-per-disk floor. The census");
    println!("shows the per-disk ratio x'/(√m·ln m) bounded by a small constant δ");
    println!("in every round — Lemma 5.2's statement, measured disk by disk.");
    println!("Orphans are the nodes Part II's join-itself rule exists for.");
    Ok(())
}
