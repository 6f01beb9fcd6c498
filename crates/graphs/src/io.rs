//! Plain-text edge-list serialization.
//!
//! Format: first line `n <node_count>`, then one `u v` pair per line.
//! Lines starting with `#` and blank lines are ignored. This is the common
//! interchange format for graph benchmarks and keeps the crate free of
//! heavyweight serialization dependencies (the [`crate::Graph`] type also
//! derives serde for embedding in larger result records).

use crate::{Graph, GraphBuilder, GraphError};
use std::fmt::Write as _;

/// Serializes a graph to the edge-list format.
///
/// # Example
///
/// ```
/// use ftclust_graphs::{Graph, io};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let text = io::write_edge_list(&g);
/// let back = io::read_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok::<(), ftclust_graphs::GraphError>(())
/// ```
pub fn write_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.node_count());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.raw(), v.raw());
    }
    out
}

/// Parses a graph from the edge-list format.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed input and the usual
/// construction errors for invalid edges.
pub fn read_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut builder: Option<GraphBuilder> = None;
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parse_err = |reason: &str| GraphError::Parse {
            line: lineno + 1,
            reason: reason.to_string(),
        };
        if let Some(rest) = line.strip_prefix("n ") {
            if builder.is_some() {
                return Err(parse_err("duplicate node-count header"));
            }
            let n: u32 = rest
                .trim()
                .parse()
                .map_err(|_| parse_err("invalid node count"))?;
            builder = Some(GraphBuilder::new(n));
        } else {
            let b = builder
                .as_mut()
                .ok_or_else(|| parse_err("edge before `n` header"))?;
            let mut it = line.split_whitespace();
            let u: u32 = it
                .next()
                .ok_or_else(|| parse_err("missing first endpoint"))?
                .parse()
                .map_err(|_| parse_err("invalid first endpoint"))?;
            let v: u32 = it
                .next()
                .ok_or_else(|| parse_err("missing second endpoint"))?
                .parse()
                .map_err(|_| parse_err("invalid second endpoint"))?;
            if it.next().is_some() {
                return Err(parse_err("trailing tokens after edge"));
            }
            b.add_edge(u, v)?;
        }
    }
    Ok(builder
        .ok_or(GraphError::Parse {
            line: 0,
            reason: "missing `n` header".into(),
        })?
        .build())
}

/// Serializes node positions, one `x y` pair per line.
///
/// # Example
///
/// ```
/// use ftclust_geometry::Point;
/// use ftclust_graphs::io;
///
/// let pts = vec![Point::new(0.5, 1.25), Point::new(3.0, 4.0)];
/// let text = io::write_positions(&pts);
/// assert_eq!(io::read_positions(&text)?, pts);
/// # Ok::<(), ftclust_graphs::GraphError>(())
/// ```
pub fn write_positions(points: &[ftclust_geometry::Point]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(out, "{} {}", p.x, p.y);
    }
    out
}

/// Parses node positions from the `x y`-per-line format. Lines starting
/// with `#` and blank lines are ignored.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed input.
pub fn read_positions(text: &str) -> Result<Vec<ftclust_geometry::Point>, GraphError> {
    let mut out = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parse_err = |reason: &str| GraphError::Parse {
            line: lineno + 1,
            reason: reason.to_string(),
        };
        let mut it = line.split_whitespace();
        let x: f64 = it
            .next()
            .ok_or_else(|| parse_err("missing x"))?
            .parse()
            .map_err(|_| parse_err("invalid x"))?;
        let y: f64 = it
            .next()
            .ok_or_else(|| parse_err("missing y"))?
            .parse()
            .map_err(|_| parse_err("invalid y"))?;
        if it.next().is_some() {
            return Err(parse_err("trailing tokens after position"));
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(parse_err("non-finite coordinate"));
        }
        out.push(ftclust_geometry::Point::new(x, y));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use ftclust_geometry::Point;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Edge-list tokens for the parser fuzz. Every number is at most 64,
    /// so no header asks for a large graph.
    const EDGE_TOKENS: [&str; 12] = [
        "n", "#", "0", "1", "5", "17", "64", "-1", "x", "1.5", "n3", "+2",
    ];
    /// Position tokens: finite, non-finite, out-of-range and junk numbers.
    const POSITION_TOKENS: [&str; 13] = [
        "0", "1.5", "-2e3", "nan", "inf", "-inf", "1e400", "x", "#", "0x1", "+3", ".5", "1_0",
    ];
    const SEPARATORS: [&str; 3] = [" ", "\t", "  "];

    /// One input line: mostly edges, sometimes a header or a run of
    /// random tokens.
    fn edge_line() -> impl Strategy<Value = String> {
        (
            0..6usize,
            0..=64u32,
            0..=64u32,
            vec((0..EDGE_TOKENS.len(), 0..3usize), 0..4),
        )
            .prop_map(|(kind, a, b, tokens)| match kind {
                0 => format!("n {a}"),
                1..=3 => format!("{a} {b}"),
                _ => tokens
                    .iter()
                    .map(|&(t, sep)| format!("{}{}", EDGE_TOKENS[t], SEPARATORS[sep]))
                    .collect(),
            })
    }

    /// One input line: mostly a finite `x y` pair, sometimes a run of
    /// random tokens.
    fn position_line() -> impl Strategy<Value = String> {
        (
            0..4usize,
            coordinate(),
            coordinate(),
            vec((0..POSITION_TOKENS.len(), 0..3usize), 0..5),
        )
            .prop_map(|(kind, x, y, tokens)| match kind {
                0..=2 => format!("{x} {y}"),
                _ => tokens
                    .iter()
                    .map(|&(t, sep)| format!("{}{}", POSITION_TOKENS[t], SEPARATORS[sep]))
                    .collect(),
            })
    }

    /// A finite coordinate: uniform, or one of the extreme finite values.
    fn coordinate() -> impl Strategy<Value = f64> {
        (0..6usize, -1e9..1e9f64).prop_map(|(kind, x)| match kind {
            0 => f64::MAX,
            1 => f64::MIN_POSITIVE,
            2 => -0.0,
            3 => 5e-324,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn edge_list_parser_never_panics(header in 0..=65u32, lines in vec(edge_line(), 0..8)) {
            // 65 stands for no leading header.
            let text = if header > 64 { String::new() } else { format!("n {header}\n") } + &lines.join("\n");
            let lines = text.lines().collect::<Vec<_>>();
            match read_edge_list(&text) {
                Ok(g) => {
                    prop_assert!(g.node_count() <= 64);
                    prop_assert!(g.edge_count() <= lines.len());
                }
                Err(GraphError::Parse { line, .. }) => prop_assert!(line <= lines.len()),
                Err(e) => prop_assert!(
                    matches!(e, GraphError::NodeOutOfRange { .. } | GraphError::SelfLoop { .. }),
                    "{e:?}"
                ),
            }
        }

        #[test]
        fn positions_parser_never_panics(lines in vec(position_line(), 0..8)) {
            let text = lines.join("\n");
            match read_positions(&text) {
                Ok(points) => {
                    prop_assert!(points.len() <= lines.len());
                    prop_assert!(points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
                }
                Err(e) => prop_assert!(
                    matches!(e, GraphError::Parse { line, .. } if line >= 1 && line <= lines.len()),
                    "{e:?}"
                ),
            }
        }

        #[test]
        fn edge_lists_roundtrip_generator_graphs(family in 0..4usize, n in 1..60u32, seed in 0..1000u64) {
            let g = match family {
                0 => generators::gnp(n, 0.15, seed),
                1 => generators::random_tree(n, seed),
                2 => generators::grid_2d(n % 8 + 1, n / 8 + 1),
                _ => generators::star(n),
            };
            prop_assert_eq!(read_edge_list(&write_edge_list(&g)).unwrap(), g);
        }

        #[test]
        fn positions_roundtrip_finite_points(coords in vec((coordinate(), coordinate()), 0..20)) {
            let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let back = read_positions(&write_positions(&points)).unwrap();
            prop_assert_eq!(back.len(), points.len());
            for (a, b) in back.iter().zip(&points) {
                prop_assert_eq!((a.x.to_bits(), a.y.to_bits()), (b.x.to_bits(), b.y.to_bits()));
            }
        }
    }

    #[test]
    fn positions_roundtrip() {
        let pts = vec![
            ftclust_geometry::Point::new(0.125, -3.5),
            ftclust_geometry::Point::new(1e-9, 42.0),
        ];
        assert_eq!(read_positions(&write_positions(&pts)).unwrap(), pts);
        assert!(read_positions("# c\n\n1 2\n").unwrap().len() == 1);
    }

    #[test]
    fn malformed_positions_rejected() {
        assert!(matches!(
            read_positions("1\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_positions("1 2 3\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_positions("a b\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_positions("1 nan\n"),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn roundtrip_random_graph() {
        let g = generators::gnp(40, 0.15, 7);
        assert_eq!(read_edge_list(&write_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = generators::empty(4);
        assert_eq!(read_edge_list(&write_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = read_edge_list("# header\n\nn 3\n# an edge\n0 1\n\n 1 2 \n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(read_edge_list(""), Err(GraphError::Parse { .. })));
        assert!(matches!(
            read_edge_list("0 1\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("n x\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_edge_list("n 2\n0\n"),
            Err(GraphError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            read_edge_list("n 2\n0 1 2\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_edge_list("n 2\nn 2\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            read_edge_list("n 2\n0 5\n"),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        ));
    }
}
