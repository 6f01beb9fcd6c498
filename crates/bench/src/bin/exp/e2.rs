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
    let runs = run_trials_par(0..sizes.len() as u64, |ni| {
        let g = Family::Gnp.build(sizes[ni as usize], 3);
        let inst = Instance::uniform_clamped(&g, 2);
        [1u32, 2, 4, 6].map(|t| {
            let (run, _) = run_fractional_stack(&inst, &FractionalParams::new(t), Stack::new())
                .expect("protocol completes");
            (g.node_count(), t, run.metrics)
        })
    });
    // Checked here, not in the trials: a broken bound is one error.
    for (n, t, m) in runs.iter().flatten() {
        let predicted = 2 * u64::from(*t).pow(2) + 3;
        if m.rounds != predicted {
            return Err(std::io::Error::other(format!(
                "E2: n = {n}, t = {t}: {} rounds, not 2t²+3 = {predicted}",
                m.rounds
            )));
        }
        if m.max_message_bits > LpMsg::MAX_BITS as u64 {
            return Err(std::io::Error::other(format!(
                "E2: n = {n}, t = {t}: a message of {} bits exceeds LpMsg::MAX_BITS = {}",
                m.max_message_bits,
                LpMsg::MAX_BITS
            )));
        }
        table.push_row(cells![
            n,
            t,
            m.rounds,
            predicted,
            m.messages,
            m.max_message_bits,
            format!("{:.1}", m.mean_message_bits()),
            format!("{:.1}", (*n as f64).log2())
        ]);
    }
    table.print();
    println!();
    println!("expected shape: rounds = 2t²+3 exactly (independent of n); max message");
    println!("bits bounded by a constant multiple of log2(n) (the dual exchange's three");
    println!("32-bit values, 3·VALUE_BITS = 96 bits, dominate at these sizes — see the");
    println!("encoding note in fractional::protocol).");
    Ok(())
}
