//! Cross-run sidecar diffing: the engine behind the `trace_diff` binary.
//!
//! Compares two parsed `results/<id>.trace.json` documents cell by cell —
//! event ledger scalars, histogram summaries, counters, epoch fields and
//! every epoch-row value — and returns one [`DiffEntry`] per divergence.
//! The comparison mirrors the serialiser's own structure, so "no entries"
//! means the observable documents agree everywhere the determinism
//! contract speaks: a self-diff is empty by construction, and a diff
//! between two runs localises drift to the exact counter, bucket, or
//! epoch cell that moved.
//!
//! Numeric values compare under a relative tolerance: `a` and `b` agree
//! when `|a - b| <= tol * max(|a|, |b|)`. The default tolerance is 0 —
//! sidecars are simulated-cycle artifacts and byte-determinism is the
//! contract — but a small tolerance lets the same tool compare runs that
//! *legitimately* differ (e.g. across a calibrated model change).

use crate::json::Json;
use amnt_trace::json_str;
use std::fmt::Write as _;

/// One localised divergence between two sidecar documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Where: `<row>/<col> <section> <name> <field>`, outer-to-inner.
    pub path: String,
    /// The left document's value at `path` (`-` when absent).
    pub a: String,
    /// The right document's value at `path` (`-` when absent).
    pub b: String,
}

fn entry(out: &mut Vec<DiffEntry>, path: String, a: impl ToString, b: impl ToString) {
    out.push(DiffEntry {
        path,
        a: a.to_string(),
        b: b.to_string(),
    });
}

fn numbers_agree(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Compares `"key": <number>` members of two objects at `path`.
fn diff_scalar(out: &mut Vec<DiffEntry>, path: &str, key: &str, a: &Json, b: &Json, tol: f64) {
    let (va, vb) = (
        a.get(key).and_then(Json::as_f64),
        b.get(key).and_then(Json::as_f64),
    );
    match (va, vb) {
        (Some(x), Some(y)) if numbers_agree(x, y, tol) => {}
        (None, None) => {}
        _ => entry(
            out,
            format!("{path} {key}"),
            va.map(fmt_num).unwrap_or_else(|| "-".into()),
            vb.map(fmt_num).unwrap_or_else(|| "-".into()),
        ),
    }
}

/// Diffs two named-object lists (histograms or counters) under `path`,
/// matching by `"name"` and comparing the `fields` of each match.
fn diff_named_list(
    out: &mut Vec<DiffEntry>,
    path: &str,
    section: &str,
    fields: &[&str],
    a: &Json,
    b: &Json,
    tol: f64,
) {
    let items = |doc: &Json| -> Vec<Json> {
        doc.get(section)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (la, lb) = (items(a), items(b));
    let name_of = |j: &Json| {
        j.get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    for ia in &la {
        let name = name_of(ia);
        match lb.iter().find(|ib| name_of(ib) == name) {
            None => entry(out, format!("{path} {section} {name}"), "present", "-"),
            Some(ib) => {
                for f in fields {
                    diff_scalar(out, &format!("{path} {section} {name}"), f, ia, ib, tol);
                }
            }
        }
    }
    for ib in &lb {
        let name = name_of(ib);
        if !la.iter().any(|ia| name_of(ia) == name) {
            entry(out, format!("{path} {section} {name}"), "-", "present");
        }
    }
}

fn diff_epochs(out: &mut Vec<DiffEntry>, path: &str, a: &Json, b: &Json, tol: f64) {
    let fields = |doc: &Json| -> Vec<String> {
        doc.get("epoch_fields")
            .and_then(Json::as_arr)
            .map(|fs| {
                fs.iter()
                    .map(|f| f.as_str().unwrap_or_default().to_string())
                    .collect()
            })
            .unwrap_or_default()
    };
    let (fa, fb) = (fields(a), fields(b));
    if fa != fb {
        entry(
            out,
            format!("{path} epoch_fields"),
            fa.join(","),
            fb.join(","),
        );
        return; // rows are not comparable under different schemas
    }
    let rows = |doc: &Json| -> Vec<Json> {
        doc.get("epochs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (ra, rb) = (rows(a), rows(b));
    if ra.len() != rb.len() {
        entry(out, format!("{path} epochs rows"), ra.len(), rb.len());
    }
    for (i, (ea, eb)) in ra.iter().zip(&rb).enumerate() {
        let row_path = format!("{path} epochs[{i}]");
        diff_scalar(out, &row_path, "epoch", ea, eb, tol);
        diff_scalar(out, &row_path, "end_cycle", ea, eb, tol);
        let vals = |e: &Json| -> Vec<f64> {
            e.get("values")
                .and_then(Json::as_arr)
                .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default()
        };
        let (va, vb) = (vals(ea), vals(eb));
        for (j, field) in fa.iter().enumerate() {
            match (va.get(j), vb.get(j)) {
                (Some(&x), Some(&y)) if numbers_agree(x, y, tol) => {}
                (x, y) => entry(
                    &mut *out,
                    format!("{row_path} {field}"),
                    x.map(|v| fmt_num(*v)).unwrap_or_else(|| "-".into()),
                    y.map(|v| fmt_num(*v)).unwrap_or_else(|| "-".into()),
                ),
            }
        }
    }
}

/// The histogram summary fields `metrics_document` serialises.
const HIST_FIELDS: [&str; 7] = ["count", "sum", "mean", "p50", "p90", "p99", "max"];

/// Diffs two parsed metrics sidecars. Entries come back in document order
/// (left document first for matched cells) — empty means "agree under
/// `tol`".
pub fn diff_documents(a: &Json, b: &Json, tol: f64) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    let id = |doc: &Json| {
        doc.get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    if id(a) != id(b) {
        entry(&mut out, "id".to_string(), id(a), id(b));
    }
    let cells = |doc: &Json| -> Vec<Json> {
        doc.get("cells")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let label = |c: &Json| -> String {
        format!(
            "{}/{}",
            c.get("row").and_then(Json::as_str).unwrap_or_default(),
            c.get("col").and_then(Json::as_str).unwrap_or_default()
        )
    };
    let (ca, cb) = (cells(a), cells(b));
    for cell_a in &ca {
        let name = label(cell_a);
        let Some(cell_b) = cb.iter().find(|c| label(c) == name) else {
            entry(&mut out, format!("cell {name}"), "present", "-");
            continue;
        };
        for key in ["events_kept", "events_dropped", "frames_dropped"] {
            diff_scalar(&mut out, &name, key, cell_a, cell_b, tol);
        }
        diff_named_list(
            &mut out,
            &name,
            "histograms",
            &HIST_FIELDS,
            cell_a,
            cell_b,
            tol,
        );
        diff_named_list(&mut out, &name, "counters", &["value"], cell_a, cell_b, tol);
        diff_epochs(&mut out, &name, cell_a, cell_b, tol);
    }
    for cell_b in &cb {
        let name = label(cell_b);
        if !ca.iter().any(|c| label(c) == name) {
            entry(&mut out, format!("cell {name}"), "-", "present");
        }
    }
    out
}

/// Renders a diff as the `trace_diff --json` machine-readable report.
pub fn report_json(a_path: &str, b_path: &str, tol: f64, entries: &[DiffEntry]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"a\": {},", json_str(a_path));
    let _ = writeln!(out, "  \"b\": {},", json_str(b_path));
    let _ = writeln!(out, "  \"tolerance\": {tol},");
    let _ = writeln!(out, "  \"differences\": {},", entries.len());
    out.push_str("  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{ \"path\": {}, \"a\": {}, \"b\": {} }}",
            json_str(&e.path),
            json_str(&e.a),
            json_str(&e.b)
        );
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(shift: u64) -> amnt_trace::TraceReport {
        let mut t = amnt_trace::Tracer::new(amnt_trace::TraceConfig::default());
        t.push_span(10, "read", "op", &[]);
        t.pop_span(200 + shift);
        t.record("read.wait", 190 + shift);
        t.add("ops", 3 + shift);
        t.sample_epoch(0, 250_000, &[("reads", 5 + shift), ("writes", 2)]);
        t.report().unwrap()
    }

    fn doc(shift: u64) -> Json {
        let rep = report(shift);
        let s = amnt_trace::metrics_document(
            "probe",
            &[("canneal".to_string(), "amnt".to_string(), &rep)],
        );
        Json::parse(&s).unwrap()
    }

    #[test]
    fn self_diff_is_empty() {
        let a = doc(0);
        assert!(diff_documents(&a, &a, 0.0).is_empty());
        // And across two identical constructions.
        assert!(diff_documents(&a, &doc(0), 0.0).is_empty());
    }

    #[test]
    fn drift_localises_to_the_moved_cells() {
        let (a, b) = (doc(0), doc(7));
        let diffs = diff_documents(&a, &b, 0.0);
        assert!(!diffs.is_empty());
        let paths: Vec<&str> = diffs.iter().map(|e| e.path.as_str()).collect();
        assert!(
            paths.iter().any(|p| p.contains("counters ops value")),
            "{paths:?}"
        );
        assert!(
            paths.iter().any(|p| p.contains("epochs[0] reads")),
            "{paths:?}"
        );
        assert!(
            paths.iter().any(|p| p.contains("histograms read.wait")),
            "{paths:?}"
        );
        // Untouched values don't appear.
        assert!(
            !paths.iter().any(|p| p.ends_with("epochs[0] writes")),
            "{paths:?}"
        );
    }

    #[test]
    fn tolerance_absorbs_small_relative_drift() {
        let (a, b) = (doc(0), doc(7));
        // Largest relative drift here: ops 3 -> 10 (70%). At 75% everything
        // numeric is within tolerance.
        assert!(diff_documents(&a, &b, 0.75).is_empty());
        assert!(!diff_documents(&a, &b, 0.05).is_empty());
    }

    #[test]
    fn structural_differences_are_reported() {
        let a = doc(0);
        let b = Json::parse(r#"{"id": "probe", "cells": []}"#).unwrap();
        let diffs = diff_documents(&a, &b, 0.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "cell canneal/amnt");
        assert_eq!((diffs[0].a.as_str(), diffs[0].b.as_str()), ("present", "-"));
    }

    #[test]
    fn json_report_shape() {
        let entries = vec![DiffEntry {
            path: "x y".to_string(),
            a: "1".to_string(),
            b: "2".to_string(),
        }];
        let s = report_json("a.json", "b.json", 0.0, &entries);
        assert!(s.contains("\"differences\": 1,"));
        assert!(s.contains("\"path\": \"x y\""));
        let parsed = Json::parse(&s).unwrap();
        assert_eq!(parsed.get("differences").unwrap().as_f64(), Some(1.0));
        let empty = report_json("a", "a", 0.0, &[]);
        assert!(Json::parse(&empty).is_ok());
        assert!(empty.contains("\"entries\": []"));
    }

    #[test]
    fn json_report_escapes_control_characters() {
        let entries = vec![DiffEntry {
            path: "cell\tname\n\"q\"".to_string(),
            a: "1".to_string(),
            b: "2".to_string(),
        }];
        let s = report_json("dir\twith tab/a.json", "b.json", 0.0, &entries);
        assert!(!s.contains('\t'), "raw tab in report: {s}");
        let parsed = Json::parse(&s).unwrap();
        assert_eq!(
            parsed.get("a").and_then(Json::as_str),
            Some("dir\twith tab/a.json")
        );
        let entry = &parsed.get("entries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            entry.get("path").and_then(Json::as_str),
            Some("cell\tname\n\"q\"")
        );
    }
}
