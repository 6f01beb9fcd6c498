//! **E8 — the `O(log n)` message-size model**: maximum message size of
//! both protocols, measured in bits, against `log₂ n`. Fails unless every
//! message fits its protocol's stated bound: `UdgMsg::max_bits(n)`, the
//! paper's `[1, n⁴]` identifier (`1 + 4·⌈log₂ n⌉` bits), and
//! `LpMsg::MAX_BITS`, three of this repo's fixed-point values
//! (`3·VALUE_BITS`).

use ftclust_bench::cells;
use ftclust_bench::families::{run_trials_par, udg_workload, Family};
use ftclust_bench::table::{f2, Table};
use ftclust_core::fractional::protocol::{run_fractional_stack, LpMsg};
use ftclust_core::fractional::FractionalParams;
use ftclust_core::udg::protocol::{run_udg_stack, UdgMsg};
use ftclust_core::udg::UdgAlgorithm;
use ftclust_core::Instance;
use ftclust_netsim::exec::Stack;

pub(crate) fn run(_: &crate::Opts) -> std::io::Result<()> {
    println!("E8: maximum message size (bits) vs log2(n)");
    println!();
    let mut table = Table::new(&[
        "n",
        "log2(n)",
        "lp_max_bits",
        "lp/logn",
        "udg_max_bits",
        "udg/logn",
    ]);
    let sizes = [100u32, 400, 1600, 6400];
    let rows = run_trials_par(0..sizes.len() as u64, |ni| {
        let n = sizes[ni as usize];
        let g = Family::Gnp.build(n, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        let lp = run_fractional_stack(&inst, &FractionalParams::new(3), Stack::new())
            .expect("lp protocol")
            .0
            .metrics;
        let udg = udg_workload(n, 10.0, n as u64);
        let u = run_udg_stack(&udg, &UdgAlgorithm::new(2).seed(3), Stack::new())
            .expect("udg protocol")
            .0
            .metrics;
        (n, lp.max_message_bits, u.max_message_bits)
    });
    // Checked here, not in the trials: a broken bound is one error.
    for &(n, lp_bits, udg_bits) in &rows {
        let udg_bound = UdgMsg::max_bits(n as usize);
        if udg_bits > udg_bound as u64 {
            return Err(std::io::Error::other(format!(
                "E8: n = {n}: a UDG message of {udg_bits} bits exceeds UdgMsg::max_bits = {udg_bound}"
            )));
        }
        if lp_bits > LpMsg::MAX_BITS as u64 {
            return Err(std::io::Error::other(format!(
                "E8: n = {n}: an LP message of {lp_bits} bits exceeds LpMsg::MAX_BITS = {}",
                LpMsg::MAX_BITS
            )));
        }
        let log2n = f64::from(n).log2();
        table.push_row(cells![
            n,
            f2(log2n),
            lp_bits,
            f2(lp_bits as f64 / log2n),
            udg_bits,
            f2(udg_bits as f64 / log2n)
        ]);
    }
    table.print();
    println!();
    println!("expected shape: the UDG protocol's biggest message is the [1, n⁴]");
    println!("identifier, 1 + 4·⌈log2 n⌉ bits — the udg/logn column sits at ≈ 4.");
    println!("The LP protocol's biggest message is the dual exchange's three 32-bit");
    println!("values, 3·VALUE_BITS = 96 bits (an O(log Δ·t)-bit encoding exists; see");
    println!("fractional::protocol), so lp_max_bits is constant — comfortably O(log n).");
    Ok(())
}
