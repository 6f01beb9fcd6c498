//! **E17 — algorithm-portfolio leaderboard**: the paper's competitors as
//! first-class metered protocols (`ftclust_core::portfolio`), swept over
//! graph families × demands × fault regimes and scored against the LP
//! dual certificates of Algorithm 1.
//!
//! Per cell the leaderboard reports set size, the **certified
//! approximation ratio** `|S| / lower_bound` (via
//! `validate::certified_ratio`, which rejects degenerate certificates
//! instead of printing `inf`/`NaN`), logical rounds, messages, bits,
//! retransmissions, and **survivability** — whether the faulted run
//! reproduced the fault-free set bit-for-bit while staying a valid
//! `CoverSelf` cover. The closing section condenses the table into the
//! `recommend(workload)` heuristic and prints its decision corners.
//!
//! `--smoke` is the CI-sized run; `--json <p>` writes the leaderboard
//! to `p`.

use crate::{check_conservation, write_output};
use ftclust_bench::families::Family;
use ftclust_bench::json_escape;
use ftclust_bench::table::Table;
use ftclust_core::fractional::{solve_fractional, FractionalParams};
use ftclust_core::portfolio::{
    recommend, run_cgreedy_stack, run_dkm_stack, run_pb_stack, Algorithm, PortfolioRun, Workload,
};
use ftclust_core::validate::{certified_ratio, is_k_dominating_instance, Semantics};
use ftclust_core::{Instance, KmdsError};
use ftclust_graphs::NodeId;
use ftclust_netsim::exec::Stack;
use ftclust_netsim::{AdversaryPlan, ChurnPlan, EventLog};

/// The three contenders, in presentation order.
const ALGOS: [Algorithm; 3] = [
    Algorithm::PensoBarbosa,
    Algorithm::DeurerKuhnMaus,
    Algorithm::CentralGreedy,
];

/// One fault regime of the sweep.
#[derive(Clone, Copy)]
struct Regime {
    name: &'static str,
    build: fn() -> Stack,
}

/// Fault-free, i.i.d. loss behind the reliable transport, and
/// loss + a crash/recovery window + a duplicate/corrupt adversary — the
/// regimes every protocol must survive bit-for-bit (the ARQ masks all
/// three fault sources).
const REGIMES: [Regime; 3] = [
    Regime {
        name: "none",
        build: Stack::new,
    },
    Regime {
        name: "lossy",
        build: || Stack::new().lossy(0.1),
    },
    Regime {
        name: "chaos",
        build: || {
            Stack::new()
                .lossy(0.05)
                .churned(
                    ChurnPlan::none()
                        .crash(NodeId::new(3), 2)
                        .recover(NodeId::new(3), 8),
                )
                .adversarial(AdversaryPlan::new(0xE17).duplicate(0.05).corrupt(0.05))
        },
    },
];

fn run_algo(
    algo: Algorithm,
    inst: &Instance<'_>,
    stack: Stack,
) -> Result<(PortfolioRun, Option<EventLog>), KmdsError> {
    match algo {
        Algorithm::PensoBarbosa => run_pb_stack(inst, stack),
        Algorithm::DeurerKuhnMaus => run_dkm_stack(inst, stack),
        Algorithm::CentralGreedy => run_cgreedy_stack(inst, stack),
        Algorithm::KuhnMoscibrodaWattenhofer => {
            unreachable!("the paper's pipeline is benchmarked in E13–E16")
        }
    }
}

/// One leaderboard cell.
struct Cell {
    family: &'static str,
    k: u32,
    regime: &'static str,
    algo: &'static str,
    set_size: usize,
    ratio: f64,
    rounds: u64,
    messages: u64,
    bits: u64,
    retransmits: u64,
    survived: bool,
}

/// Per-algorithm aggregate over all cells (the numbers behind
/// `recommend`).
#[derive(Default)]
struct Aggregate {
    cells: usize,
    ratio_sum: f64,
    rounds_sum: u64,
    bits_sum: u64,
    survived: usize,
}

pub(crate) fn run(opts: &crate::Opts) -> std::io::Result<()> {
    let smoke = opts.smoke;
    let n: u32 = if smoke { 60 } else { 200 };
    let families: &[Family] = if smoke {
        &[Family::Gnp, Family::Rgg]
    } else {
        &[Family::Gnp, Family::Ba, Family::Rgg]
    };
    let demands: &[u32] = if smoke { &[1, 2] } else { &[1, 3] };
    println!(
        "E17: portfolio leaderboard, n={n}, families {:?}, k {:?}, regimes {:?}",
        families.iter().map(|f| f.name()).collect::<Vec<_>>(),
        demands,
        REGIMES.map(|r| r.name)
    );
    println!("ratios are |S| / LP-dual lower bound (certified; degenerate certificates");
    println!("are a typed error, never inf/NaN); faulted cells must reproduce the");
    println!("fault-free set bit-for-bit behind the reliable transport.");
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    let mut table = Table::new(&[
        "family", "k", "regime", "algo", "|S|", "ratio", "rounds", "msgs", "bits", "retx", "ok",
    ]);
    for &family in families {
        let g = family.build(n, 0xE17);
        for &k in demands {
            let inst = Instance::uniform_clamped(&g, k);
            let dual = solve_fractional(&inst, &FractionalParams::new(2))
                .expect("LP dual certificate")
                .lower_bound;
            for algo in ALGOS {
                // The fault-free reference for the survivability check.
                let (reference, _) = run_algo(algo, &inst, Stack::new())
                    .unwrap_or_else(|e| panic!("{} fault-free: {e}", algo.name()));
                for regime in &REGIMES {
                    let (run, _) = run_algo(algo, &inst, (regime.build)())
                        .unwrap_or_else(|e| panic!("{} under {}: {e}", algo.name(), regime.name));
                    check_conservation(&run.metrics, algo.name());
                    let survived = run.set == reference.set
                        && is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf);
                    assert!(
                        survived,
                        "{} diverged under {} on {}/k={k}",
                        algo.name(),
                        regime.name,
                        family.name()
                    );
                    let ratio = certified_ratio(run.set.len() as f64, dual)
                        .expect("LP dual certificate is non-degenerate on these instances");
                    table.push_row(vec![
                        family.name().to_string(),
                        k.to_string(),
                        regime.name.to_string(),
                        algo.name().to_string(),
                        run.set.len().to_string(),
                        format!("{ratio:.2}"),
                        run.logical_rounds.to_string(),
                        run.metrics.messages.to_string(),
                        run.metrics.total_bits.to_string(),
                        run.metrics.retransmits.to_string(),
                        if survived { "yes" } else { "NO" }.to_string(),
                    ]);
                    cells.push(Cell {
                        family: family.name(),
                        k,
                        regime: regime.name,
                        algo: algo.name(),
                        set_size: run.set.len(),
                        ratio,
                        rounds: run.logical_rounds,
                        messages: run.metrics.messages,
                        bits: run.metrics.total_bits,
                        retransmits: run.metrics.retransmits,
                        survived,
                    });
                }
            }
        }
    }
    table.print();
    println!();

    // --- Aggregates: the measured basis of `recommend`. ------------------
    let mut aggs: Vec<(Algorithm, Aggregate)> =
        ALGOS.iter().map(|&a| (a, Aggregate::default())).collect();
    for c in &cells {
        let agg = aggs
            .iter_mut()
            .find(|(a, _)| a.name() == c.algo)
            .map(|(_, agg)| agg)
            .expect("cell algo is one of ALGOS");
        agg.cells += 1;
        agg.ratio_sum += c.ratio;
        agg.rounds_sum += c.rounds;
        agg.bits_sum += c.bits;
        agg.survived += usize::from(c.survived);
    }
    let mut leaderboard =
        Table::new(&["algo", "mean ratio", "mean rounds", "mean bits", "survival"]);
    for (algo, agg) in &aggs {
        let cells_f = agg.cells as f64;
        leaderboard.push_row(vec![
            algo.name().to_string(),
            format!("{:.2}", agg.ratio_sum / cells_f),
            format!("{:.1}", agg.rounds_sum as f64 / cells_f),
            format!("{:.0}", agg.bits_sum as f64 / cells_f),
            format!("{}/{}", agg.survived, agg.cells),
        ]);
    }
    println!("leaderboard (means over all cells):");
    leaderboard.print();
    println!();

    // --- The auto-selection heuristic distilled from the table. ----------
    println!("recommend(workload) decision corners:");
    let corners = [
        ("central coordinator available", true, false, false),
        ("distributed, certificate needed", false, false, true),
        ("distributed, set size critical", false, true, false),
        ("distributed, latency critical", false, false, false),
    ];
    for (label, centralized_ok, set_size_critical, needs_certificate) in corners {
        let algo = recommend(&Workload {
            centralized_ok,
            set_size_critical,
            needs_certificate,
        });
        println!("  {label:<34} -> {}", algo.name());
    }
    println!();

    if let Some(path) = &opts.json {
        let mut j = String::from("{\n  \"schema\": 1,\n");
        j.push_str(&format!("  \"smoke\": {smoke},\n  \"n\": {n},\n"));
        j.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"family\": \"{}\", \"k\": {}, \"regime\": \"{}\", \"algo\": \"{}\", \
                 \"set_size\": {}, \"ratio\": {:.4}, \"rounds\": {}, \"messages\": {}, \
                 \"bits\": {}, \"retransmits\": {}, \"survived\": {}}}{}\n",
                json_escape(c.family),
                c.k,
                json_escape(c.regime),
                json_escape(c.algo),
                c.set_size,
                c.ratio,
                c.rounds,
                c.messages,
                c.bits,
                c.retransmits,
                c.survived,
                if i + 1 < cells.len() { "," } else { "" }
            ));
        }
        j.push_str("  ],\n");
        j.push_str("  \"leaderboard\": [\n");
        for (i, (algo, agg)) in aggs.iter().enumerate() {
            let cells_f = agg.cells as f64;
            j.push_str(&format!(
                "    {{\"algo\": \"{}\", \"mean_ratio\": {:.4}, \"mean_rounds\": {:.2}, \
                 \"mean_bits\": {:.1}, \"survival_rate\": {:.4}}}{}\n",
                json_escape(algo.name()),
                agg.ratio_sum / cells_f,
                agg.rounds_sum as f64 / cells_f,
                agg.bits_sum as f64 / cells_f,
                agg.survived as f64 / cells_f,
                if i + 1 < aggs.len() { "," } else { "" }
            ));
        }
        j.push_str("  ]\n}\n");
        write_output(path, "JSON report", &j)?;
    }

    println!("expected shape: cgreedy posts the smallest sets (and trivially few");
    println!("rounds — it only distributes a centrally computed answer); dkm tracks");
    println!("it closely from purely local span elections; pb pays for its");
    println!("coverage-oblivious 1-bit elections with larger sets but the lowest");
    println!("distributed message volume. Every faulted cell survives bit-for-bit:");
    println!("the reliable transport masks loss, the crash window and the");
    println!("adversary's duplicates/corruption alike.");
    Ok(())
}
