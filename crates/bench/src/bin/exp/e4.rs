//! **E4 — end-to-end comparison**: the LP pipeline (Algorithms 1+2)
//! against the exact optimum (small n), the centralized greedy, the
//! JRS-style distributed baseline and the one-round local heuristic.

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, Family};
use ftclust_bench::stats::mean;
use ftclust_bench::table::{f2, Table};
use ftclust_core::baselines::{exact_kmds, greedy_kmds, jrs_kmds, local_heuristic};
use ftclust_core::general::GeneralPipeline;
use ftclust_core::validate::Semantics;
use ftclust_core::Instance;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E4a: true approximation ratios on small instances (vs exact OPT, 10 seeds)");
    println!();
    let mut small = Table::new(&[
        "family",
        "n",
        "k",
        "opt",
        "pipeline/opt",
        "greedy/opt",
        "jrs/opt",
        "local/opt",
    ]);
    for family in [Family::Gnp, Family::Grid] {
        for k in [1u32, 2] {
            let trials = run_trials_par(0..10u64, |seed| {
                let g = family.build(24, 50 + seed);
                let inst = Instance::uniform_clamped(&g, k);
                let opt = exact_kmds(&inst, Semantics::CoverSelf)?;
                let o = opt.len().max(1) as f64;
                let run = GeneralPipeline::new(3).seed(seed).run(&inst).unwrap();
                Some((
                    o,
                    run.set.len() as f64 / o,
                    greedy_kmds(&inst, Semantics::CoverSelf).len() as f64 / o,
                    jrs_kmds(&inst, Semantics::CoverSelf, seed).set.len() as f64 / o,
                    local_heuristic(&inst).len() as f64 / o,
                ))
            });
            let mut pipe = Vec::new();
            let mut greedy_r = Vec::new();
            let mut jrs_r = Vec::new();
            let mut local_r = Vec::new();
            let mut opt_sz = Vec::new();
            for (o, p, gr, j, l) in trials.into_iter().flatten() {
                opt_sz.push(o);
                pipe.push(p);
                greedy_r.push(gr);
                jrs_r.push(j);
                local_r.push(l);
            }
            small.row(&[
                &family.name(),
                &24,
                &k,
                &f2(mean(&opt_sz)),
                &f2(mean(&pipe)),
                &f2(mean(&greedy_r)),
                &f2(mean(&jrs_r)),
                &f2(mean(&local_r)),
            ]);
        }
    }
    small.print();

    println!();
    println!("E4b: set sizes at scale (exact OPT unavailable; greedy as yardstick)");
    println!();
    let mut large = Table::new(&[
        "family",
        "n",
        "k",
        "pipeline",
        "greedy",
        "jrs",
        "jrs_rounds",
        "local",
        "trivial",
    ]);
    let mut configs = Vec::new();
    for family in [Family::Gnp, Family::Ba, Family::Rgg] {
        for (n, k) in [(2000u32, 2u32), (2000, 3)] {
            configs.push((family, n, k));
        }
    }
    let rows = run_trials_par(0..configs.len() as u64, |ci| {
        let (family, n, k) = configs[ci as usize];
        let g = family.build(n, 9);
        let inst = Instance::uniform_clamped(&g, k);
        let run = GeneralPipeline::new(4).seed(1).run(&inst).unwrap();
        let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
        let jrs = jrs_kmds(&inst, Semantics::CoverSelf, 1);
        let local = local_heuristic(&inst);
        cells![
            family.name(),
            g.node_count(),
            k,
            run.set.len(),
            greedy.len(),
            jrs.set.len(),
            jrs.rounds,
            local.len(),
            g.node_count()
        ]
    });
    large.push_rows(rows);
    large.print();
    println!();
    println!("expected shape: greedy smallest (it is centralized and sequential);");
    println!("the O(t²)-round pipeline within ~ln(Δ) of it; jrs comparable but needing");
    println!("Ω(log n)-scale rounds; the local heuristic cheap but largest.");
    Ok(())
}
