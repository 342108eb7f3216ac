//! Spans recorded by the traced replay, self-time arithmetic, and the
//! Chrome-trace export (the array-of-events format
//! `altx-kernel/src/trace.rs::chrome_trace_json` emits).

/// A stage of the request pipeline: a span name and the stage whose
/// span encloses it. Each stage occurs at most once per request, so
/// `(request, stage)` identifies a span and `parent` needs no span ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    pub name: &'static str,
    pub parent: Option<u8>,
}

/// One timed interval. Spans of one request share `req`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub req: u32,
    /// Index into the stage table.
    pub stage: u8,
    /// Recording thread, for the trace viewer's lanes.
    pub tid: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover. Children of one parent never overlap each
/// other (stages of a request run in sequence), so the covered part is
/// the sum of each child's overlap with the parent. Returned in input
/// order as `(stage, self_ns)`.
pub fn self_times(spans: &[Span], stages: &[Stage]) -> Vec<(u8, u64)> {
    // (req, parent stage) -> covered ns, accumulated in one pass.
    let mut covered: std::collections::HashMap<(u32, u8), u64> = std::collections::HashMap::new();
    let by_key: std::collections::HashMap<(u32, u8), &Span> =
        spans.iter().map(|s| ((s.req, s.stage), s)).collect();
    for s in spans {
        let Some(parent) = stages[s.stage as usize].parent else {
            continue;
        };
        if let Some(p) = by_key.get(&(s.req, parent)) {
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            *covered.entry((s.req, parent)).or_default() += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&(s.req, s.stage)).copied().unwrap_or(0);
            (s.stage, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

/// Chrome-trace JSON: one complete (`"ph":"X"`) event per span,
/// timestamps in microseconds. `args.id` is the request id every span
/// of a request shares; `args.parent` names the enclosing stage.
pub fn chrome_trace_json(spans: &[Span], stages: &[Stage], cat: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let stage = &stages[s.stage as usize];
        let parent = stage.parent.map_or("", |p| stages[p as usize].name);
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
            stage.name,
            cat,
            s.start_ns as f64 / 1_000.0,
            s.dur_ns() as f64 / 1_000.0,
            s.tid,
            s.req,
            parent,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: &[Stage] = &[
        Stage {
            name: "request",
            parent: None,
        },
        Stage {
            name: "decode",
            parent: Some(0),
        },
        Stage {
            name: "job",
            parent: Some(0),
        },
        Stage {
            name: "execute",
            parent: Some(2),
        },
    ];

    fn span(req: u32, stage: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req,
            stage,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(1, 1, 5, 15),
            span(1, 2, 20, 90),
            span(1, 3, 30, 80),
            // A second request must not leak into the first.
            span(2, 0, 200, 260),
            span(2, 2, 210, 250),
        ];
        let selfs = self_times(&spans, STAGES);
        assert_eq!(
            selfs,
            vec![(0, 20), (1, 10), (2, 20), (3, 50), (0, 20), (2, 40)]
        );
        // Per request, self times add back up to the root's duration.
        let req1: u64 = selfs[..4].iter().map(|(_, ns)| ns).sum();
        assert_eq!(req1, 100);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = [span(1, 0, 10, 50), span(1, 1, 40, 70)];
        assert_eq!(self_times(&spans, STAGES), vec![(0, 30), (1, 30)]);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let spans = [span(7, 0, 1_000, 3_500), span(7, 1, 1_200, 1_300)];
        let json = chrome_trace_json(&spans, STAGES, "serial");
        assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"), "{json}");
        assert!(json.contains("\"args\":{\"id\":7,\"parent\":\"request\"}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n]"));
    }
}
