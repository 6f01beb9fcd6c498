//! **E6 — Lemma 5.5 / Lemma 5.6**: the expected number of leaders in any
//! radius-1/2 disk is `O(1)` after Part I and `O(k)` after Part II,
//! independent of `n` and the deployment density.

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, udg_workload};
use ftclust_bench::table::{f2, Table};
use ftclust_core::udg::{analysis::members_per_half_disk, UdgAlgorithm};

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E6: set members per radius-1/2 disk (Lemmas 5.5 and 5.6)");
    println!();
    let mut table = Table::new(&[
        "n", "avg_deg", "k", "p1_max", "p1_mean", "p2_max", "p2_mean",
    ]);
    let configs = [
        (1000u32, 8.0),
        (1000, 25.0),
        (10_000, 8.0),
        (10_000, 25.0),
        (50_000, 12.0),
    ];
    let rows = run_trials_par(0..configs.len() as u64, |ci| {
        let (n, deg) = configs[ci as usize];
        let udg = udg_workload(n, deg, n as u64 + deg as u64);
        let mut out = Vec::new();
        for k in [1u32, 4] {
            let run = UdgAlgorithm::new(k)
                .seed(9)
                .run(&udg)
                .expect("udg algorithm");
            let p1 = members_per_half_disk(&udg, &run.leaders).expect("non-empty");
            let p2 = members_per_half_disk(&udg, &run.set).expect("non-empty");
            out.push(cells![
                n,
                deg,
                k,
                p1.max,
                f2(p1.mean_nonempty),
                p2.max,
                f2(p2.mean_nonempty)
            ]);
        }
        out
    });
    table.push_rows(rows.into_iter().flatten());
    table.print();
    println!();
    println!("expected shape: p1_max / p1_mean flat in n and density (Lemma 5.5, O(1));");
    println!("p2 columns scale with k but not with n (Lemma 5.6, O(k)).");
    Ok(())
}
