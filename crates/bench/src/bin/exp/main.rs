//! The experiment runner: every experiment of the suite is a module of
//! this one binary.
//!
//! ```text
//! cargo run --release -p ftclust-bench --bin exp -- e5              # one experiment
//! cargo run --release -p ftclust-bench --bin exp -- e16 --smoke --json e16.json
//! cargo run --release -p ftclust-bench --bin exp -- all [--smoke]   # E1–E17 in order
//! ```
//!
//! `exp all` runs every experiment but `perf` in process, one after
//! another, each after a one-line header. Each experiment fans its own
//! trials out over `FTCLUST_THREADS` workers, and its output is
//! byte-identical at every thread count (CI diffs 1 vs 2 threads).
//! Exit status: 1 when an output file cannot be written, 2 on a usage
//! error, 101 when an experiment's check fails.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an experiment binary: a failed check or an impossible state aborts the run with its message"
)]

use ftclust_netsim::Metrics;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e15;
mod e16;
mod e17;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod perf;

/// What the flags ask of an experiment.
#[derive(Default)]
pub(crate) struct Opts {
    /// `--smoke`: the CI-sized run.
    pub(crate) smoke: bool,
    /// `--json <p>`: where to write the machine-readable report.
    pub(crate) json: Option<PathBuf>,
    /// `--trace <p>`: where to write the JSONL event trace.
    pub(crate) trace: Option<PathBuf>,
    /// `--digest <p>`: where to write the final-state digests.
    pub(crate) digest: Option<PathBuf>,
}

struct Experiment {
    name: &'static str,
    claim: &'static str,
    /// The flags the experiment reads, space-separated.
    flags: &'static str,
    run: fn(&Opts) -> io::Result<()>,
}

const fn exp(
    name: &'static str,
    claim: &'static str,
    flags: &'static str,
    run: fn(&Opts) -> io::Result<()>,
) -> Experiment {
    Experiment {
        name,
        claim,
        flags,
        run,
    }
}

/// Every experiment in `exp all` order; the claims are EXPERIMENTS.md's
/// inventory table.
const REGISTRY: &[Experiment] = &[
    exp("e1", "Theorem 4.5 (ratio), Lemmas 4.1–4.4", "", e1::run),
    exp("e2", "Theorem 4.5 (time), Section 3 model", "", e2::run),
    exp("e3", "Theorem 4.6", "", e3::run),
    exp("e4", "Section 4 end-to-end", "", e4::run),
    exp("e5", "Theorem 5.7", "", e5::run),
    exp("e6", "Lemmas 5.5, 5.6", "", e6::run),
    exp("e7", "Lemma 5.2", "", e7::run),
    exp("e8", "Section 3 (`O(log n)` bits)", "", e8::run),
    exp("e9", "Section 1 motivation", "", e9::run),
    exp("e10", "Section 1 + [13] lower bound", "", e10::run),
    exp("e11", "Section 2 related work", "", e11::run),
    exp("e12", "Lemma 5.3, Figure 1", "", e12::run),
    exp("e13", "design choices", "", e13::run),
    exp(
        "e14",
        "Section 1 motivation, extended to maintenance",
        "--smoke",
        e14::run,
    ),
    exp(
        "e15",
        "Section 3 model, earned over lossy links",
        "--smoke --trace",
        e15::run,
    ),
    exp(
        "e16",
        "Section 3 model under an adversary, Section 1 maintenance",
        "--smoke --json",
        e16::run,
    ),
    exp(
        "e17",
        "Section 2 related work, competitive leaderboard",
        "--smoke --json",
        e17::run,
    ),
    exp(
        "perf",
        "throughput baseline (`BENCH.json`), not a paper claim",
        "--smoke --trace --digest",
        perf::run,
    ),
];

/// Parses the arguments after the program name into the experiment to
/// run (`None` for `all`) and its options.
fn parse(args: &[String]) -> Result<(Option<&'static Experiment>, Opts), String> {
    let (name, flags) = args.split_first().ok_or("no experiment named")?;
    let experiment = REGISTRY.iter().find(|e| e.name == name);
    if experiment.is_none() && name != "all" {
        return Err(format!("unknown experiment `{name}`"));
    }
    let mut opts = Opts::default();
    let mut rest = flags.iter();
    while let Some(flag) = rest.next() {
        let path = match flag.as_str() {
            "--smoke" => None,
            "--json" => Some(&mut opts.json),
            "--trace" => Some(&mut opts.trace),
            "--digest" => Some(&mut opts.digest),
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        match experiment {
            Some(e) if !e.flags.split(' ').any(|f| f == flag) => {
                return Err(format!("`{}` does not read `{flag}`", e.name))
            }
            None if path.is_some() => return Err(format!("`all` does not take `{flag}`")),
            _ => {}
        }
        match path {
            None => opts.smoke = true,
            Some(slot) => match rest.next() {
                Some(p) if !p.starts_with("--") => *slot = Some(PathBuf::from(p)),
                _ => return Err(format!("`{flag}` needs a path")),
            },
        }
    }
    Ok((experiment, opts))
}

fn usage() -> String {
    let rows: Vec<String> = REGISTRY
        .iter()
        .map(|e| format!("  {:<5} {:<25} {}", e.name, e.flags, e.claim))
        .collect();
    format!(
        "usage: exp <experiment> [flags] | exp all [--smoke]\n\n{}",
        rows.join("\n")
    )
}

/// Writes one output file and says so on stderr; a failed write comes
/// back with the file's role and path in its message.
pub(crate) fn write_output(path: &Path, what: &str, contents: &str) -> io::Result<()> {
    std::fs::write(path, contents).map_err(|e| {
        let msg = format!("could not write {what} {}: {e}", path.display());
        io::Error::new(e.kind(), msg)
    })?;
    eprintln!("wrote {what}: {}", path.display());
    Ok(())
}

/// Communication cost of one stack execution, possibly summed over the
/// Algorithm 1 + Algorithm 2 chain.
#[derive(Default, Clone, Copy)]
pub(crate) struct Cost {
    pub(crate) rounds: u64,
    pub(crate) msgs: u64,
    pub(crate) bits: u64,
    pub(crate) retx: u64,
    pub(crate) acks: u64,
    pub(crate) dups: u64,
    pub(crate) corrupted: u64,
    pub(crate) netdup: u64,
}

impl Cost {
    pub(crate) fn add(mut self, m: &Metrics) -> Self {
        self.rounds += m.rounds;
        self.msgs += m.messages;
        self.bits += m.total_bits;
        self.retx += m.retransmits;
        self.acks += m.acks;
        self.dups += m.duplicates_suppressed;
        self.corrupted += m.corrupted;
        self.netdup += m.net_duplicated;
        self
    }
}

/// Checks the conservation law on one execution's metrics: every sent
/// message is delivered, dropped, dead on arrival, erased by corruption
/// or still in flight, and every suppressed duplicate comes from a
/// retransmission or an injected network copy.
pub(crate) fn check_conservation(m: &Metrics, what: &str) {
    let accounted = m.delivered_messages + m.dropped_messages + m.dead_on_arrival + m.corrupted;
    assert!(
        accounted <= m.messages,
        "{what}: more messages accounted than sent"
    );
    assert_eq!(
        m.delivered_messages,
        m.unique_delivered() + m.duplicates_suppressed,
        "{what}: delivered ≠ unique + suppressed duplicates"
    );
    assert!(
        m.duplicates_suppressed <= m.retransmits + m.net_duplicated,
        "{what}: more duplicates suppressed than retransmissions + injected copies"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("exp: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match experiment {
        Some(e) => (e.run)(&opts),
        None => REGISTRY
            .iter()
            .filter(|e| e.name != "perf")
            .enumerate()
            .try_for_each(|(i, e)| {
                if i > 0 {
                    println!();
                }
                println!("=== exp {}: {}", e.name, e.claim);
                (e.run)(&opts)
            }),
    };
    if let Err(e) = result {
        eprintln!("exp: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse, REGISTRY};
    use std::path::PathBuf;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn error(s: &str) -> String {
        match parse(&args(s)) {
            Err(e) => e,
            Ok(_) => panic!("`exp {s}` must be rejected"),
        }
    }

    #[test]
    fn named_experiment_takes_the_flags_it_reads() {
        let Ok((Some(e), opts)) = parse(&args("e16 --smoke --json out.json")) else {
            panic!("e16 --smoke --json out.json must parse");
        };
        assert_eq!(e.name, "e16");
        assert!(opts.smoke);
        assert_eq!(opts.json, Some(PathBuf::from("out.json")));
        assert!(matches!(parse(&args("e1")), Ok((Some(_), _))));
    }

    #[test]
    fn all_takes_smoke_only() {
        assert!(matches!(parse(&args("all --smoke")), Ok((None, o)) if o.smoke));
        assert!(matches!(parse(&args("all")), Ok((None, o)) if !o.smoke));
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(error("e99").contains("unknown experiment"));
        assert!(error("").contains("no experiment"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(error("e5 --bogus-flag").contains("unknown flag"));
        assert!(error("e5 stray").contains("unknown flag"));
    }

    #[test]
    fn flag_the_experiment_does_not_read_is_rejected() {
        assert!(error("e1 --smoke").contains("does not read"));
        assert!(error("e14 --json out.json").contains("does not read"));
    }

    #[test]
    fn path_flag_without_a_path_is_rejected() {
        assert!(error("e17 --json").contains("needs a path"));
        assert!(error("perf --digest --smoke").contains("needs a path"));
    }

    #[test]
    fn path_flag_with_all_is_rejected() {
        assert!(error("all --json out.json").contains("does not take"));
        assert!(error("all --smoke --trace t.jsonl").contains("does not take"));
    }

    #[test]
    fn experiments_inventory_lists_the_registry() {
        let doc = include_str!("../../../../../EXPERIMENTS.md");
        let rows: Vec<&str> = doc.lines().filter(|l| l.starts_with("| `exp ")).collect();
        let want: Vec<String> = REGISTRY
            .iter()
            .map(|e| format!("| `exp {}` | {} |", e.name, e.claim))
            .collect();
        assert_eq!(rows.len(), want.len(), "one inventory row per experiment");
        for (row, want) in rows.iter().zip(&want) {
            assert!(row.starts_with(want.as_str()), "{row:?} is not {want:?}");
        }
    }
}
