//! **E2 — Theorem 4.5 (time) + model**: Algorithm 1 as a message-passing
//! protocol uses exactly `2t² + 3` rounds and `O(log n)`-bit messages.
//! Fails unless every row has that round count and no message larger
//! than the protocol's stated bound, `LpMsg::MAX_BITS` (three of this
//! repo's fixed-point values, `3·VALUE_BITS`).

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, Family};
use ftclust_bench::table::Table;
use ftclust_core::fractional::protocol::{run_fractional_stack, LpMsg};
use ftclust_core::fractional::FractionalParams;
use ftclust_core::Instance;
use ftclust_netsim::exec::Stack;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E2: measured round complexity and message sizes of Algorithm 1");
    println!();
    let mut table = Table::new(&[
        "n",
        "t",
        "rounds",
        "2t^2+3",
        "messages",
        "max_bits",
        "mean_bits",
        "log2(n)",
    ]);
    let sizes = [100u32, 400, 1600];
    let rows = run_trials_par(0..sizes.len() as u64, |ni| {
        let n = sizes[ni as usize];
        let g = Family::Gnp.build(n, 3);
        let inst = Instance::uniform_clamped(&g, 2);
        let mut out = Vec::new();
        for t in [1u32, 2, 4, 6] {
            let (run, _) = run_fractional_stack(&inst, &FractionalParams::new(t), Stack::new())
                .expect("protocol completes");
            let predicted = 2 * (t as u64).pow(2) + 3;
            assert_eq!(run.metrics.rounds, predicted, "round count mismatch");
            assert!(
                run.metrics.max_message_bits <= LpMsg::MAX_BITS as u64,
                "n = {n}, t = {t}: a message of {} bits exceeds LpMsg::MAX_BITS",
                run.metrics.max_message_bits
            );
            out.push(cells![
                g.node_count(),
                t,
                run.metrics.rounds,
                predicted,
                run.metrics.messages,
                run.metrics.max_message_bits,
                format!("{:.1}", run.metrics.mean_message_bits()),
                format!("{:.1}", (g.node_count() as f64).log2())
            ]);
        }
        out
    });
    table.push_rows(rows.into_iter().flatten());
    table.print();
    println!();
    println!("expected shape: rounds = 2t²+3 exactly (independent of n); max message");
    println!("bits bounded by a constant multiple of log2(n) (the dual exchange's three");
    println!("32-bit values, 3·VALUE_BITS = 96 bits, dominate at these sizes — see the");
    println!("encoding note in fractional::protocol).");
    Ok(())
}
