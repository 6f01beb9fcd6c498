//! `ftclust` — command-line front end for the fault-tolerant clustering
//! library.
//!
//! ```text
//! ftclust generate --family rgg --nodes 500 --seed 7 --out g.txt [--positions p.txt]
//! ftclust info     --graph g.txt
//! ftclust solve    --graph g.txt --k 2 [--algorithm pipeline|greedy|jrs|local|exact]
//!                  [--t 4] [--seed 0] [--connect] [--out set.txt]
//! ftclust udg      --positions p.txt --radius 1.0 --k 2 [--algorithm udg|grid]
//!                  [--seed 0] [--svg out.svg] [--out set.txt]
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency tree at the workspace's approved set.

use ftclust::core::baselines::{grid_clustering, jrs_kmds};
use ftclust::core::prelude::*;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::graphs::{generators, io, stats, Graph, UnitDiskGraph};
use ftclust::render::{render_svg, SvgOptions};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ftclust generate --family <gnp|ba|grid|tree|rgg|clustered> --nodes <n>
                   [--seed <s>] [--avg-degree <d>] --out <graph.txt>
                   [--positions <pos.txt>]       (rgg/clustered only)
  ftclust info     --graph <graph.txt>
  ftclust solve    --graph <graph.txt> --k <k>
                   [--algorithm <pipeline|greedy|jrs|local|exact>]
                   [--t <t>] [--seed <s>] [--connect] [--out <set.txt>]
  ftclust udg      --positions <pos.txt> --radius <r> --k <k>
                   [--algorithm <udg|grid>] [--seed <s>]
                   [--svg <out.svg>] [--out <set.txt>]";

/// Parsed `--key value` options (plus bare flags mapped to "true").
struct Options(BTreeMap<String, String>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got `{arg}`"))?;
            let value = it
                .next_if(|next| !next.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string()); // bare flag
            if map.insert(key.to_string(), value).is_some() {
                return Err(format!("duplicate option --{key}"));
            }
        }
        Ok(Options(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: `{v}`")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let opts = Options::parse(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&opts),
        "info" => cmd_info(&opts),
        "solve" => cmd_solve(&opts),
        "udg" => cmd_udg(&opts),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn load_graph(opts: &Options) -> Result<Graph, String> {
    let path = opts.require("graph")?;
    io::read_edge_list(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(opts: &Options) -> Result<(), String> {
    let family = opts.require("family")?;
    let n: u32 = opts.parse_num("nodes", 0)?;
    if n == 0 {
        return Err("missing or zero --nodes".into());
    }
    let seed: u64 = opts.parse_num("seed", 0)?;
    let avg: f64 = opts.parse_num("avg-degree", 10.0)?;
    // The geometric families spread the nodes over an area of n·π/avg.
    let area = n as f64 * std::f64::consts::PI / avg;
    if !(avg.is_finite() && avg > 0.0 && area.is_finite()) {
        return Err(format!(
            "--avg-degree must be positive and finite, got {avg}"
        ));
    }
    let out = opts.require("out")?;
    let (graph, positions): (Graph, Option<Vec<ftclust::geometry::Point>>) = match family {
        "gnp" => (generators::gnp(n, (avg / n as f64).min(1.0), seed), None),
        "ba" => {
            let attach = ((avg / 2.0) as u32).max(1);
            if attach >= n {
                return Err(format!(
                    "family `ba` attaches {attach} edges per node, which needs more than {n} --nodes"
                ));
            }
            (generators::barabasi_albert(n, attach, seed), None)
        }
        "grid" => {
            let side = (n as f64).sqrt().round().max(2.0) as u32;
            (generators::grid_2d(side, side), None)
        }
        "tree" => (generators::random_tree(n, seed), None),
        "rgg" => {
            let udg = generators::random_udg(n, avg, 1.0, seed);
            (udg.graph().clone(), Some(udg.positions().to_vec()))
        }
        "clustered" => {
            let side = area.sqrt();
            let udg = generators::clustered_udg(n, (n / 100).max(2), side, side / 20.0, 1.0, seed);
            (udg.graph().clone(), Some(udg.positions().to_vec()))
        }
        other => return Err(format!("unknown family `{other}`")),
    };
    write_file(out, &io::write_edge_list(&graph))?;
    println!("wrote {graph} to {out}");
    if let Some(pts) = positions {
        if let Some(pos_path) = opts.get("positions") {
            write_file(pos_path, &io::write_positions(&pts))?;
            println!("wrote {} positions to {pos_path}", pts.len());
        }
    } else if opts.get("positions").is_some() {
        return Err(format!("family `{family}` has no positions"));
    }
    Ok(())
}

fn cmd_info(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let s = stats::degree_stats(&g);
    let comps = ftclust::graphs::traversal::connected_components(&g);
    println!("{g}");
    println!(
        "degrees: min {} / mean {:.2} / max {}",
        s.min, s.mean, s.max
    );
    println!("connected components: {}", comps.component_count());
    Ok(())
}

fn print_set_summary(g: &Graph, set: &DominatingSet, k: u32) {
    println!(
        "set size: {} of {} nodes ({:.1}%)",
        set.len(),
        g.node_count(),
        100.0 * set.len() as f64 / g.node_count().max(1) as f64
    );
    println!(
        "k = {k}: strict-valid = {}, cover-self-valid = {}",
        is_k_dominating(g, set, k, Semantics::Strict),
        is_k_dominating(g, set, k, Semantics::CoverSelf),
    );
}

fn save_set(opts: &Options, set: &DominatingSet) -> Result<(), String> {
    if let Some(path) = opts.get("out") {
        let ids: Vec<String> = set.ids().map(|v| v.raw().to_string()).collect();
        write_file(path, &(ids.join("\n") + "\n"))?;
        println!("wrote {} node ids to {path}", set.len());
    }
    Ok(())
}

fn cmd_solve(opts: &Options) -> Result<(), String> {
    let g = load_graph(opts)?;
    let k: u32 = opts.parse_num("k", 1)?;
    let t: u32 = opts.parse_num("t", 4)?;
    if t == 0 {
        return Err("--t must be at least 1".into());
    }
    let seed: u64 = opts.parse_num("seed", 0)?;
    let inst = Instance::uniform_clamped(&g, k);
    let algorithm = opts.get("algorithm").unwrap_or("pipeline");
    let set = match algorithm {
        "pipeline" => {
            let run = GeneralPipeline::new(t)
                .seed(seed)
                .run(&inst)
                .map_err(|e| e.to_string())?;
            println!(
                "fractional value {:.2}, certified ratio ≤ {:.2}",
                run.fractional.value,
                run.certified_ratio().unwrap_or(f64::NAN)
            );
            run.set
        }
        "greedy" => greedy_kmds(&inst, Semantics::CoverSelf),
        "jrs" => {
            let out = jrs_kmds(&inst, Semantics::CoverSelf, seed);
            println!("jrs iterations: {}, rounds: {}", out.iterations, out.rounds);
            out.set
        }
        "local" => local_heuristic(&inst),
        "exact" => exact_kmds(&inst, Semantics::CoverSelf)
            .ok_or("instance too large for the exact solver (max 40 nodes)")?,
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    print_set_summary(&g, &set, k);
    let set = if opts.flag("connect") {
        let (cds, added) = connect_dominating_set(&g, &set).map_err(|e| e.to_string())?;
        println!(
            "connected backbone: +{added} connectors → {} nodes",
            cds.len()
        );
        cds
    } else {
        set
    };
    save_set(opts, &set)
}

fn cmd_udg(opts: &Options) -> Result<(), String> {
    let pos_path = opts.require("positions")?;
    let pts = io::read_positions(&read_file(pos_path)?).map_err(|e| format!("{pos_path}: {e}"))?;
    let radius: f64 = opts.parse_num("radius", 1.0)?;
    let k: u32 = opts.parse_num("k", 1)?;
    let seed: u64 = opts.parse_num("seed", 0)?;
    let udg = UnitDiskGraph::build(pts, radius).map_err(|e| e.to_string())?;
    println!("{udg}");
    let algorithm = opts.get("algorithm").unwrap_or("udg");
    let set = match algorithm {
        "udg" => {
            if k == 0 {
                return Err("--k must be at least 1 for Algorithm 3".into());
            }
            let run = UdgAlgorithm::new(k)
                .seed(seed)
                .run(&udg)
                .map_err(|e| e.to_string())?;
            println!(
                "part I: {} leaders in {} rounds; part II: {} iterations",
                run.leaders.len(),
                run.part1_rounds,
                run.part2_iterations
            );
            run.set
        }
        "grid" => grid_clustering(&udg, k),
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    print_set_summary(udg.graph(), &set, k);
    if let Some(svg_path) = opts.get("svg") {
        let options = SvgOptions {
            draw_edges: udg.graph().edge_count() <= 20_000,
            ..Default::default()
        };
        write_file(svg_path, &render_svg(&udg, &set, &options))?;
        println!("wrote visualization to {svg_path}");
    }
    save_set(opts, &set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn options_parse_pairs_and_flags() {
        let o = Options::parse(&strs(&["--k", "3", "--connect", "--t", "2"])).unwrap();
        assert_eq!(o.get("k"), Some("3"));
        assert!(o.flag("connect"));
        assert_eq!(o.parse_num::<u32>("t", 0).unwrap(), 2);
        assert_eq!(o.parse_num::<u32>("absent", 9).unwrap(), 9);
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn options_reject_junk() {
        assert!(Options::parse(&strs(&["positional"])).is_err());
        assert!(Options::parse(&strs(&["--a", "1", "--a", "2"])).is_err());
        let o = Options::parse(&strs(&["--n", "abc"])).unwrap();
        assert!(o.parse_num::<u32>("n", 0).is_err());
    }

    /// Argument tokens for the parser fuzz: options, an empty key,
    /// values, a lone dash, and tokens that only look like options.
    const TOKENS: [&str; 9] = ["--k", "--t", "--", "-", "3", "", "--seed=1", "é", "-5"];
    const KEYS: [&str; 4] = ["k", "t", "seed", "connect"];
    const VALUES: [&str; 5] = ["3", "true", "-1", "x y", ""];

    proptest::proptest! {
        #[test]
        fn options_parse_never_panics(picks in proptest::collection::vec(0..TOKENS.len(), 0..10)) {
            let args = strs(&picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>());
            let keys = args.iter().filter(|a| a.starts_with("--")).count();
            match Options::parse(&args) {
                Ok(o) => {
                    proptest::prop_assert_eq!(o.0.len(), keys);
                    for (i, arg) in args.iter().enumerate() {
                        if let Some(key) = arg.strip_prefix("--") {
                            let want = match args.get(i + 1) {
                                Some(v) if !v.starts_with("--") => v.as_str(),
                                _ => "true",
                            };
                            proptest::prop_assert_eq!(o.get(key), Some(want));
                        }
                    }
                }
                Err(e) => proptest::prop_assert!(
                    e.starts_with("expected an option") || e.starts_with("duplicate option"),
                    "{e}"
                ),
            }
        }

        /// `--key value` pairs and bare flags (value index `VALUES.len()`)
        /// parse to their values and `"true"`; a repeated key is an error.
        #[test]
        fn options_map_flags_and_reject_duplicates(
            spec in proptest::collection::vec((0..KEYS.len(), 0..=VALUES.len()), 0..6)
        ) {
            let mut args = Vec::new();
            for &(k, v) in &spec {
                args.push(format!("--{}", KEYS[k]));
                args.extend(VALUES.get(v).map(ToString::to_string));
            }
            let mut keys: Vec<usize> = spec.iter().map(|&(k, _)| k).collect();
            keys.sort_unstable();
            keys.dedup();
            match Options::parse(&args) {
                Ok(o) => {
                    proptest::prop_assert_eq!(keys.len(), spec.len());
                    proptest::prop_assert_eq!(o.0.len(), spec.len());
                    for &(k, v) in &spec {
                        let want = VALUES.get(v).copied().unwrap_or("true");
                        proptest::prop_assert_eq!(o.get(KEYS[k]), Some(want));
                    }
                }
                Err(e) => {
                    proptest::prop_assert!(keys.len() < spec.len(), "{e}");
                    proptest::prop_assert!(e.starts_with("duplicate option"), "{e}");
                }
            }
        }
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn generate_rejects_bad_degrees() {
        let out = std::env::temp_dir().join("ftclust_cli_bad_degree.txt");
        let _ = std::fs::remove_file(&out);
        for (family, avg) in [
            ("gnp", "-1"),
            ("gnp", "nan"),
            ("gnp", "0"),
            ("rgg", "-1"),
            ("rgg", "0"),
            ("rgg", "NaN"),
            ("rgg", "1e-320"),
            ("clustered", "-1"),
            ("clustered", "inf"),
            ("ba", "inf"),
            ("ba", "100"),
        ] {
            let args = [
                "generate",
                "--family",
                family,
                "--nodes",
                "50",
                "--avg-degree",
                avg,
                "--out",
                out.to_str().unwrap(),
            ];
            assert!(run(&strs(&args)).is_err(), "{family} --avg-degree {avg}");
            assert!(!out.exists(), "{family} --avg-degree {avg} wrote a graph");
        }
    }

    #[test]
    fn solve_and_udg_reject_bad_parameters() {
        let dir = std::env::temp_dir().join("ftclust_cli_bad_params");
        std::fs::create_dir_all(&dir).unwrap();
        let g_path = dir.join("g.txt");
        let p_path = dir.join("p.txt");
        let (g, p) = (g_path.to_str().unwrap(), p_path.to_str().unwrap());
        let generate = [
            "generate",
            "--family",
            "rgg",
            "--nodes",
            "40",
            "--out",
            g,
            "--positions",
            p,
        ];
        run(&strs(&generate)).unwrap();
        let solve = |extra: &[&str]| run(&strs(&[&["solve", "--graph", g], extra].concat()));
        assert!(solve(&["--t", "0"]).is_err(), "solve --t 0");
        assert!(solve(&["--k", "0"]).is_ok(), "solve --k 0 is the empty set");
        for radius in ["0", "-1", "nan", "inf"] {
            let args = ["udg", "--positions", p, "--radius", radius];
            assert!(run(&strs(&args)).is_err(), "udg --radius {radius}");
        }
        let udg_k0 = |algorithm| {
            run(&strs(&[
                "udg",
                "--positions",
                p,
                "--k",
                "0",
                "--algorithm",
                algorithm,
            ]))
        };
        assert!(udg_k0("udg").is_err(), "udg --k 0");
        assert!(udg_k0("grid").is_ok(), "grid --k 0 is the empty set");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_solve_udg_roundtrip() {
        let dir = std::env::temp_dir().join("ftclust_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g_path = dir.join("g.txt");
        let p_path = dir.join("p.txt");
        let s_path = dir.join("s.txt");
        let svg_path = dir.join("v.svg");
        run(&strs(&[
            "generate",
            "--family",
            "rgg",
            "--nodes",
            "120",
            "--seed",
            "5",
            "--out",
            g_path.to_str().unwrap(),
            "--positions",
            p_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&strs(&["info", "--graph", g_path.to_str().unwrap()])).unwrap();
        run(&strs(&[
            "solve",
            "--graph",
            g_path.to_str().unwrap(),
            "--k",
            "2",
            "--algorithm",
            "greedy",
            "--connect",
            "--out",
            s_path.to_str().unwrap(),
        ]))
        .unwrap();
        let ids = std::fs::read_to_string(&s_path).unwrap();
        assert!(!ids.trim().is_empty());
        run(&strs(&[
            "udg",
            "--positions",
            p_path.to_str().unwrap(),
            "--radius",
            "1.0",
            "--k",
            "2",
            "--svg",
            svg_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(std::fs::read_to_string(&svg_path)
            .unwrap()
            .starts_with("<svg"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
