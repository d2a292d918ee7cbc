//! Trace artifact serialisers.
//!
//! Two formats, both hand-rolled (the workspace has zero external crates)
//! and both fully deterministic — pure integer values, fixed key order,
//! cells serialised in declaration order:
//!
//! * [`chrome_document`] — Chrome trace-event JSON (the "JSON Array Format"
//!   with `"X"` complete events), loadable by Perfetto / `chrome://tracing`.
//!   Timestamps are **simulated cycles** written into the `ts`/`dur`
//!   microsecond fields: absolute magnitudes are meaningless, relative
//!   structure is exact. Each cell becomes one process (`pid` = declaration
//!   index) named by its labels.
//! * [`metrics_document`] — the `results/<id>.trace.json` sidecar: per-cell
//!   histogram summaries (count/sum/mean/p50/p90/p99/max), counters, and
//!   the epoch time-series.

use crate::TraceReport;
use std::fmt::Write as _;

/// A JSON string literal: quoted, with `"` and `\` escaped and every
/// control character escaped as RFC 8259 requires. The workspace's one
/// string escaper for hand-rolled JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialises labelled cell reports as one Chrome trace-event JSON document.
/// Cell `i` appears as process `i`, named `label`. Span names carry no
/// label; the process lane does.
pub fn chrome_document(cells: &[(String, &TraceReport)]) -> String {
    let mut out = String::from("{\n\"traceEvents\": [\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (pid, (label, report)) in cells.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_str(label)
            ),
        );
        for ev in &report.events {
            let mut args = String::new();
            // Explicit nesting: Perfetto infers "X"-event nesting from
            // ts/dur containment on a track, but the span ids make the
            // tree queryable (and unambiguous for zero-duration children).
            if ev.id != 0 {
                let _ = write!(args, "\"span_id\":{},\"parent_id\":{}", ev.id, ev.parent);
            }
            for (k, v) in ev.used_args() {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "{}:{v}", json_str(k));
            }
            let ph = if ev.dur > 0 { "X" } else { "i" };
            let mut line = format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"{ph}\",\"ts\":{},",
                json_str(ev.name),
                json_str(ev.cat),
                ev.ts
            );
            if ev.dur > 0 {
                let _ = write!(line, "\"dur\":{},", ev.dur);
            } else {
                line.push_str("\"s\":\"t\",");
            }
            let _ = write!(line, "\"pid\":{pid},\"tid\":0,\"args\":{{{args}}}}}");
            push(&mut out, &mut first, line);
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ns\",\n");
    out.push_str("\"otherData\": {\"clock_domain\": \"simulated cycles\"}\n}\n");
    out
}

fn hist_json(name: &str, h: &crate::LogHistogram) -> String {
    format!(
        "{{ \"name\": {}, \"count\": {}, \"sum\": {}, \"mean\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }}",
        json_str(name),
        h.count(),
        h.sum(),
        h.mean(),
        h.percentile(50),
        h.percentile(90),
        h.percentile(99),
        h.max()
    )
}

/// Serialises cell reports as the `results/<id>.trace.json` metrics sidecar.
/// `cells` carries `(row, col, report)` in declaration order.
pub fn metrics_document(id: &str, cells: &[(String, String, &TraceReport)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"id\": {},", json_str(id));
    out.push_str("  \"cells\": [");
    for (i, (row, col, r)) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"row\": {},", json_str(row));
        let _ = writeln!(out, "      \"col\": {},", json_str(col));
        let _ = writeln!(
            out,
            "      \"events_kept\": {}, \"events_dropped\": {}, \"frames_dropped\": {},",
            r.events.len(),
            r.dropped_events,
            r.dropped_frames
        );
        out.push_str("      \"histograms\": [");
        for (j, (name, h)) in r.hists.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n        ");
            out.push_str(&hist_json(name, h));
        }
        if !r.hists.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("],\n      \"counters\": [");
        for (j, (name, v)) in r.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{ \"name\": {}, \"value\": {v} }}",
                json_str(name)
            );
        }
        if !r.counters.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("],\n      \"epoch_fields\": [");
        for (j, f) in r.epoch_fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(f));
        }
        out.push_str("],\n      \"epochs\": [");
        for (j, row) in r.epochs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let vals: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            let _ = write!(
                out,
                "\n        {{ \"epoch\": {}, \"end_cycle\": {}, \"values\": [{}] }}",
                row.epoch,
                row.end_cycle,
                vals.join(", ")
            );
        }
        if !r.epochs.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    if !cells.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, Tracer};

    fn sample_report() -> TraceReport {
        let mut t = Tracer::new(TraceConfig::default());
        t.span(100, 610, "read", "op", &[("addr", 64)]);
        t.instant(800, "amnt.transition", "amnt", &[("old", 1), ("new", 2)]);
        t.record("read.wait", 610);
        t.add("ops", 1);
        t.sample_epoch(0, 250_000, &[("reads", 1)]);
        t.report().unwrap()
    }

    #[test]
    fn chrome_document_shape() {
        let r = sample_report();
        let doc = chrome_document(&[("canneal/amnt".to_string(), &r)]);
        assert!(doc.starts_with("{\n\"traceEvents\": [\n"));
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("\"name\":\"canneal/amnt\""));
        assert!(doc.contains("\"ph\":\"X\",\"ts\":100,\"dur\":610"));
        assert!(doc.contains("\"ph\":\"i\",\"ts\":800"));
        assert!(doc.contains("\"addr\":64"));
        // Balanced braces/brackets: crude but catches truncation.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn chrome_document_carries_span_nesting() {
        let mut t = Tracer::new(TraceConfig::default());
        let read = t.push_span(100, "read", "op", &[("addr", 64)]);
        t.push_span(110, "meta.fill", "meta", &[]);
        t.pop_span(150);
        t.pop_span(710);
        let r = t.report().unwrap();
        let doc = chrome_document(&[("cell".to_string(), &r)]);
        assert!(doc.contains(&format!("\"span_id\":{read},\"parent_id\":0")));
        assert!(doc.contains(&format!("\"parent_id\":{read}")));
        // Child "X" event is time-contained in its parent for the flame view.
        assert!(doc.contains("\"ph\":\"X\",\"ts\":110,\"dur\":40"));
        assert!(doc.contains("\"ph\":\"X\",\"ts\":100,\"dur\":610"));
    }

    #[test]
    fn metrics_document_shape() {
        let r = sample_report();
        let doc = metrics_document("fig4", &[("canneal".to_string(), "amnt".to_string(), &r)]);
        assert!(doc.contains("\"id\": \"fig4\""));
        assert!(doc.contains("\"row\": \"canneal\""));
        assert!(doc.contains("\"frames_dropped\": 0,"));
        assert!(doc.contains("\"name\": \"read.wait\""));
        assert!(doc.contains("\"p99\": 610"));
        assert!(doc.contains("\"epoch_fields\": [\"reads\"]"));
        assert!(doc.contains("\"values\": [1]"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_cells_serialise_cleanly() {
        let doc = metrics_document("x", &[]);
        assert!(doc.contains("\"cells\": []"));
        let r = TraceReport::default();
        let doc = chrome_document(&[("a".to_string(), &r)]);
        assert!(doc.contains("process_name"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
