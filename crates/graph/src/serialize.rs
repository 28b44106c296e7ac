//! Plain-text graph serialization.
//!
//! The format is a minimal edge list:
//!
//! ```text
//! # comment lines start with '#'
//! n 5
//! 0 1
//! 1 2
//! ```
//!
//! The `n <count>` header fixes the vertex count (isolated vertices would
//! otherwise be lost).
//!
//! [`write_text`] is the one serializer: it streams the format line by
//! line into a sink, so a caller that only hashes the bytes (the serve
//! tier's content key) never builds the text. [`to_text`] collects the
//! same lines into a `String`.

use crate::{Graph, GraphError, NodeId};

/// Serializes `g` to the edge-list text format.
pub fn to_text(g: &Graph) -> String {
    let mut out = Vec::new();
    write_text(g, |line| out.extend_from_slice(line));
    String::from_utf8(out).expect("the edge-list format is ASCII")
}

/// Streams `g` in the edge-list text format into `sink`, one call per
/// line, newline included: the `n <count>` header, then `u v` for each
/// edge in [`Graph::edges`] order. The bytes are exactly [`to_text`]'s.
pub fn write_text(g: &Graph, mut sink: impl FnMut(&[u8])) {
    let mut line = Line::default();
    line.push(b"n ");
    line.push_decimal(g.node_count() as u64);
    sink(line.end());
    for (u, v) in g.edges() {
        line.push_decimal(u64::from(u.raw()));
        line.push(b" ");
        line.push_decimal(u64::from(v.raw()));
        sink(line.end());
    }
}

/// One line of the text format, assembled on the stack. The longest
/// line is the header: `n `, a 20-digit count and the newline.
#[derive(Default)]
struct Line {
    buf: [u8; 24],
    len: usize,
}

impl Line {
    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends `v` in decimal, without leading zeros.
    fn push_decimal(&mut self, mut v: u64) {
        let end = self.len + v.checked_ilog10().map_or(1, |d| d as usize + 1);
        for digit in self.buf[self.len..end].iter_mut().rev() {
            *digit = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len = end;
    }

    /// Terminates the line and hands it out; the next push starts a
    /// new one.
    fn end(&mut self) -> &[u8] {
        self.push(b"\n");
        let len = std::mem::take(&mut self.len);
        &self.buf[..len]
    }
}

/// Parses a graph from the edge-list text format.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input, and the usual
/// construction errors for invalid edges.
pub fn from_text(text: &str) -> Result<Graph, GraphError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("n ") {
            let parsed = rest
                .trim()
                .parse::<usize>()
                .map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: format!("bad vertex count: {e}"),
                })?;
            n = Some(parsed);
            continue;
        }
        let mut parts = line.split_whitespace();
        let (a, b) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "expected two endpoints".into(),
                })
            }
        };
        let u = a.parse::<u32>().map_err(|e| GraphError::Parse {
            line: lineno,
            message: format!("bad endpoint: {e}"),
        })?;
        let v = b.parse::<u32>().map_err(|e| GraphError::Parse {
            line: lineno,
            message: format!("bad endpoint: {e}"),
        })?;
        edges.push((u, v));
    }
    let n = n.unwrap_or_else(|| {
        edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
    });
    Graph::from_edges(n, edges)
}

/// Renders a graph (and an optional highlighted cycle) as a GraphViz DOT
/// string, used by the Figure 1 reproduction binary.
pub fn to_dot(g: &Graph, highlight: &[NodeId]) -> String {
    let mut out = String::from("graph G {\n");
    let hl: std::collections::HashSet<NodeId> = highlight.iter().copied().collect();
    for v in g.nodes() {
        if hl.contains(&v) {
            out.push_str(&format!("  {} [style=filled, fillcolor=gold];\n", v.raw()));
        }
    }
    let hl_edges: std::collections::HashSet<(NodeId, NodeId)> = highlight
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let v = highlight[(i + 1) % highlight.len()];
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    for (u, v) in g.edges() {
        if !highlight.is_empty() && hl_edges.contains(&(u, v)) {
            out.push_str(&format!(
                "  {} -- {} [penwidth=3, color=red];\n",
                u.raw(),
                v.raw()
            ));
        } else {
            out.push_str(&format!("  {} -- {};\n", u.raw(), v.raw()));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// The `format!` rendering `to_text` had before it streamed: the
    /// reference its bytes must keep.
    fn reference_text(g: &Graph) -> String {
        let mut out = String::new();
        out.push_str(&format!("n {}\n", g.node_count()));
        for (u, v) in g.edges() {
            out.push_str(&format!("{} {}\n", u.raw(), v.raw()));
        }
        out
    }

    #[test]
    fn text_matches_the_reference_rendering_across_decimal_boundaries() {
        // Ids on both sides of every power of ten up to 10,000, as either
        // endpoint, and vertex counts on both sides of each boundary.
        let ids = [
            0u32, 1, 8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001, 9998, 9999, 10_000,
        ];
        for n in [
            1usize, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10_000, 10_001,
        ] {
            let n_ids: Vec<u32> = ids.iter().copied().filter(|&v| (v as usize) < n).collect();
            let edges = n_ids
                .iter()
                .flat_map(|&u| n_ids.iter().filter(move |&&v| u < v).map(move |&v| (u, v)));
            let g = Graph::from_edges(n, edges).unwrap();
            assert_eq!(to_text(&g), reference_text(&g), "n = {n}");
        }
        let g = generators::erdos_renyi(120, 0.1, 4);
        assert_eq!(to_text(&g), reference_text(&g));
    }

    #[test]
    fn text_of_an_edgeless_graph_is_its_header() {
        for n in [0, 1, 7] {
            let g = Graph::empty(n);
            assert_eq!(to_text(&g), format!("n {n}\n"));
            assert_eq!(to_text(&g), reference_text(&g));
        }
    }

    #[test]
    fn write_text_hands_out_one_line_per_call() {
        let g = Graph::from_edges(12, [(0, 11), (3, 10)]).unwrap();
        let mut lines = Vec::new();
        write_text(&g, |line| {
            lines.push(String::from_utf8(line.to_vec()).unwrap())
        });
        assert_eq!(lines, ["n 12\n", "0 11\n", "3 10\n"]);
    }

    #[test]
    fn roundtrip() {
        let g = generators::erdos_renyi(25, 0.15, 11);
        let text = to_text(&g);
        let h = from_text(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_with_isolated_vertices() {
        let g = Graph::from_edges(6, [(0, 1)]).unwrap();
        let h = from_text(&to_text(&g)).unwrap();
        assert_eq!(h.node_count(), 6);
        assert_eq!(h.edge_count(), 1);
    }

    #[test]
    fn parse_comments_and_blank_lines() {
        let g = from_text("# header\n\nn 3\n0 1\n# mid\n1 2\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parse_infers_n_without_header() {
        let g = from_text("0 1\n1 4\n").unwrap();
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            from_text("0\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_text("0 x\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_text("n 2\n0 5\n"),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn dot_output_mentions_highlight() {
        let g = generators::cycle(4);
        let dot = to_dot(
            &g,
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
            ],
        );
        assert!(dot.contains("fillcolor=gold"));
        assert!(dot.contains("color=red"));
        assert!(dot.starts_with("graph G {"));
    }
}
