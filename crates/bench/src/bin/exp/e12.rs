//! **E12 — Lemma 5.3 and Figure 1**: the hexagonal covering counts used
//! throughout the Section 5 analysis, computed exactly.

use ftclust_bench::cells;
use ftclust_bench::families::run_trials_par;
use ftclust_bench::table::{f2, Table};
use ftclust_geometry::cover;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E12: hexagonal disk-cover geometry (Lemma 5.3, Figure 1)");
    println!("alpha(theta) = number of radius-(theta/2) lattice disks intersecting");
    println!("the radius-1/2 disk C; Lemma 5.3 bounds it by eta/theta^2,");
    println!("eta = 16*pi/(3*sqrt(3)) = {:.4}", cover::eta());
    println!();
    let mut table = Table::new(&[
        "theta",
        "alpha",
        "lemma_bound",
        "packing_bound",
        "covers_C",
        "disks_in_D",
    ]);
    let thetas = [0.02f64, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0];
    let rows = run_trials_par(0..thetas.len() as u64, |ti| {
        let theta = thetas[ti as usize];
        let alpha = cover::alpha_constructive(theta);
        let lemma = cover::eta() / (theta * theta);
        let packing = cover::alpha_bound(theta);
        assert!(
            (alpha as f64) < lemma,
            "Lemma 5.3 violated at theta={theta}"
        );
        assert!((alpha as f64) <= packing.ceil());
        let covers = cover::alpha_cover_is_complete(theta, 200);
        assert!(covers, "constructive cover incomplete at theta={theta}");
        let in_d = cover::disks_covered_by_d(theta);
        assert_eq!(in_d, 19, "Figure 1's 19-disk claim violated");
        cells![theta, alpha, f2(lemma), f2(packing), covers, in_d]
    });
    table.push_rows(rows);
    table.print();
    println!();
    println!("expected shape: alpha grows as Θ(1/theta²) while staying below both");
    println!("bounds; every cover is complete; D always intersects exactly 19 disks");
    println!("(the Figure 1 picture), independent of theta.");
    Ok(())
}
