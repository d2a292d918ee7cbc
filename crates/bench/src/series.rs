//! Epoch-series perfgate checks: regression gates over the *time axis* of
//! a `results/<id>.trace.json` sidecar, not just its end-of-run scalars.
//!
//! A flat `cell` directive can pin "AMNT's final subtree hit rate is X";
//! only a series directive can pin "and it *recovers* within K epochs of a
//! subtree transition" — the dynamic claim §5's locality argument actually
//! makes. Directive grammar (whitespace-split, evaluated by `perfgate`):
//!
//! ```text
//! series <artifact> <row> <col> <field> recovers_within <K>
//! series <artifact> <row> <col> <field> monotone
//! series <artifact> <row> <col> <field> bounded_drop <D>
//! series <artifact> <row> <col> <field> final_at_least <V>
//! series <artifact> <row> <col> <field> final_at_most <V>
//! ```
//!
//! `<artifact>` resolves to `results/<artifact>.trace.json`; `<row>`/
//! `<col>` select the cell (spaces in labels written as underscores, as in
//! flat directives). `<field>` is either a raw epoch-row field (one of the
//! sidecar's `epoch_fields`) or a derived per-epoch ratio:
//! `subtree_hit_rate` (= subtree_hits / (subtree_hits + subtree_misses))
//! or `meta_hit_rate` (= meta_cache_hits / (meta_cache_hits +
//! meta_cache_misses)); epochs where the denominator is zero carry no
//! sample and are skipped.
//!
//! Forms:
//!
//! * `recovers_within K` — for every epoch with a `subtree_transitions`
//!   pulse, some epoch within the next `K` rows must bring the (ratio)
//!   field back to at least its whole-run cumulative value. Transitions in
//!   the final row (nothing after to observe) are skipped.
//! * `monotone` — consecutive sampled values never decrease.
//! * `bounded_drop D` — consecutive sampled values never drop by more
//!   than `D` (absolute).
//! * `final_at_least` / `final_at_most V` — the series' final value:
//!   whole-run cumulative ratio for derived fields, last sampled row for
//!   raw fields (the gauge reading at harvest).

use crate::json::Json;

/// A cell's epoch series, decoded from a parsed trace sidecar.
pub struct EpochSeries {
    fields: Vec<String>,
    /// Row-major values, one inner vec per epoch row.
    rows: Vec<Vec<f64>>,
}

impl EpochSeries {
    /// Extracts the `(row, col)` cell's series from a parsed
    /// `*.trace.json` document. Labels compare with spaces normalised to
    /// underscores, matching perfgate's flat-directive convention.
    pub fn from_sidecar(doc: &Json, row: &str, col: &str) -> Result<EpochSeries, String> {
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("sidecar has no cells array")?;
        let cell = cells
            .iter()
            .find(|c| {
                let label = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_str)
                        .map(|s| s.replace(' ', "_"))
                        .unwrap_or_default()
                };
                label("row") == row && label("col") == col
            })
            .ok_or_else(|| format!("no cell ({row}, {col}) in sidecar"))?;
        let fields = cell
            .get("epoch_fields")
            .and_then(Json::as_arr)
            .ok_or("cell has no epoch_fields")?
            .iter()
            .map(|f| f.as_str().unwrap_or_default().to_string())
            .collect();
        let rows = cell
            .get("epochs")
            .and_then(Json::as_arr)
            .ok_or("cell has no epochs")?
            .iter()
            .map(|r| {
                r.get("values")
                    .and_then(Json::as_arr)
                    .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
                    .ok_or("epoch row has no values".to_string())
            })
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        Ok(EpochSeries { fields, rows })
    }

    fn field_index(&self, name: &str) -> Result<usize, String> {
        self.fields
            .iter()
            .position(|f| f == name)
            .ok_or_else(|| format!("no epoch field '{name}'"))
    }

    fn raw(&self, name: &str) -> Result<Vec<f64>, String> {
        let i = self.field_index(name)?;
        self.rows
            .iter()
            .map(|r| r.get(i).copied().ok_or("short epoch row".to_string()))
            .collect()
    }

    /// Per-row samples of `field`: `Some(v)` for raw fields, ratio rows
    /// are `None` where the denominator is zero.
    fn samples(&self, field: &str) -> Result<Vec<Option<f64>>, String> {
        match ratio_parts(field) {
            None => Ok(self.raw(field)?.into_iter().map(Some).collect()),
            Some((hit, miss)) => {
                let (h, m) = (self.raw(hit)?, self.raw(miss)?);
                Ok(h.iter()
                    .zip(&m)
                    .map(|(&h, &m)| if h + m > 0.0 { Some(h / (h + m)) } else { None })
                    .collect())
            }
        }
    }

    /// The series' final value: cumulative ratio for derived fields, last
    /// sampled value for raw fields.
    fn final_value(&self, field: &str) -> Result<f64, String> {
        match ratio_parts(field) {
            None => self
                .raw(field)?
                .last()
                .copied()
                .ok_or_else(|| "empty series".to_string()),
            Some(_) => self.cumulative_ratio(field),
        }
    }

    fn cumulative_ratio(&self, field: &str) -> Result<f64, String> {
        let (hit, miss) = ratio_parts(field).ok_or_else(|| format!("'{field}' is not a ratio"))?;
        let h: f64 = self.raw(hit)?.iter().sum();
        let m: f64 = self.raw(miss)?.iter().sum();
        if h + m > 0.0 {
            Ok(h / (h + m))
        } else {
            Err(format!("'{field}' never sampled (denominator 0)"))
        }
    }
}

/// The hit/miss field pair behind a derived ratio field, if `field` is one.
fn ratio_parts(field: &str) -> Option<(&'static str, &'static str)> {
    match field {
        "subtree_hit_rate" => Some(("subtree_hits", "subtree_misses")),
        "meta_hit_rate" => Some(("meta_cache_hits", "meta_cache_misses")),
        _ => None,
    }
}

/// Evaluates one `series` directive body (everything after the artifact
/// id) against a parsed sidecar. `Ok` carries a short success description,
/// `Err` the failure reason.
pub fn eval_directive(doc: &Json, args: &[&str]) -> Result<String, String> {
    let [row, col, field, form, rest @ ..] = args else {
        return Err("series needs: <row> <col> <field> <form> [param]".to_string());
    };
    let series = EpochSeries::from_sidecar(doc, row, col)?;
    let param = |what: &str| -> Result<f64, String> {
        rest.first()
            .ok_or_else(|| format!("{form} needs {what}"))?
            .parse::<f64>()
            .map_err(|_| format!("bad {what} '{}'", rest[0]))
    };
    match *form {
        "recovers_within" => {
            let k = param("an epoch count")? as usize;
            let target = series.cumulative_ratio(field)?;
            let pulses = series.raw("subtree_transitions")?;
            let samples = series.samples(field)?;
            let mut checked = 0usize;
            for (i, &p) in pulses.iter().enumerate() {
                if p <= 0.0 || i + 1 >= samples.len() {
                    continue;
                }
                checked += 1;
                let window = &samples[i + 1..(i + 1 + k).min(samples.len())];
                if !window.iter().flatten().any(|&v| v >= target) {
                    return Err(format!(
                        "transition at epoch row {i}: {field} never regained its \
                         run-level {target:.4} within {k} rows"
                    ));
                }
            }
            Ok(format!(
                "{checked} transition(s) re-reached {field} >= {target:.4} within {k} epochs"
            ))
        }
        "monotone" | "bounded_drop" => {
            let drop = if *form == "monotone" {
                0.0
            } else {
                param("a drop bound")?
            };
            let samples: Vec<f64> = series.samples(field)?.into_iter().flatten().collect();
            if samples.is_empty() {
                return Err(format!("'{field}' has no sampled epochs"));
            }
            for (i, w) in samples.windows(2).enumerate() {
                if w[1] < w[0] - drop {
                    return Err(format!(
                        "{field} fell {:.4} -> {:.4} between sampled rows {i} and {} \
                         (allowed drop {drop})",
                        w[0],
                        w[1],
                        i + 1
                    ));
                }
            }
            Ok(format!(
                "{field} held across {} sampled epochs (drop <= {drop})",
                samples.len()
            ))
        }
        "final_at_least" | "final_at_most" => {
            let bound = param("a bound")?;
            let v = series.final_value(field)?;
            let ok = if *form == "final_at_least" {
                v >= bound
            } else {
                v <= bound
            };
            if ok {
                Ok(format!("{field} final = {v:.4} (bound {bound})"))
            } else {
                Err(format!("{field} final = {v:.4} violates {form} {bound}"))
            }
        }
        other => Err(format!("unknown series form '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sidecar with a hand-built epoch series: hit rate dips after a
    /// transition pulse and recovers two rows later.
    fn sidecar() -> Json {
        let mut t = amnt_trace::Tracer::new(amnt_trace::TraceConfig::default());
        let rows: [(u64, u64, u64, u64); 5] = [
            // (hits, misses, transitions, stale)
            (90, 10, 0, 1),
            (20, 30, 1, 2), // transition: rate collapses to 0.4
            (60, 20, 0, 3), // 0.75 — still below run level
            (95, 5, 0, 4),  // 0.95 — recovered
            (90, 10, 0, 5),
        ];
        for (i, (h, m, tr, stale)) in rows.iter().enumerate() {
            t.sample_epoch(
                i as u64,
                (i as u64 + 1) * 1000,
                &[
                    ("subtree_hits", *h),
                    ("subtree_misses", *m),
                    ("subtree_transitions", *tr),
                    ("stale_lines", *stale),
                ],
            );
        }
        let rep = t.report().unwrap();
        let doc = amnt_trace::metrics_document(
            "probe",
            &[("canneal".to_string(), "amnt".to_string(), &rep)],
        );
        Json::parse(&doc).expect("sidecar parses")
    }

    #[test]
    fn recovers_within_passes_and_fails_at_the_right_window() {
        let doc = sidecar();
        // Run-level rate = 355/420 ≈ 0.845; regained at row 3 (0.95),
        // two rows after the pulse at row 1.
        let ok = eval_directive(
            &doc,
            &[
                "canneal",
                "amnt",
                "subtree_hit_rate",
                "recovers_within",
                "2",
            ],
        );
        assert!(ok.is_ok(), "{ok:?}");
        let too_tight = eval_directive(
            &doc,
            &[
                "canneal",
                "amnt",
                "subtree_hit_rate",
                "recovers_within",
                "1",
            ],
        );
        assert!(too_tight.is_err(), "{too_tight:?}");
    }

    #[test]
    fn monotone_and_bounded_drop() {
        let doc = sidecar();
        assert!(eval_directive(&doc, &["canneal", "amnt", "stale_lines", "monotone"]).is_ok());
        // Hit rate drops 0.9 -> 0.4 at the transition: monotone fails,
        // a 0.6 drop bound holds.
        assert!(
            eval_directive(&doc, &["canneal", "amnt", "subtree_hit_rate", "monotone"]).is_err()
        );
        assert!(eval_directive(
            &doc,
            &["canneal", "amnt", "subtree_hit_rate", "bounded_drop", "0.6"]
        )
        .is_ok());
        assert!(eval_directive(
            &doc,
            &["canneal", "amnt", "subtree_hit_rate", "bounded_drop", "0.3"]
        )
        .is_err());
    }

    #[test]
    fn final_value_forms() {
        let doc = sidecar();
        // Cumulative ratio ≈ 0.845.
        assert!(eval_directive(
            &doc,
            &[
                "canneal",
                "amnt",
                "subtree_hit_rate",
                "final_at_least",
                "0.8"
            ]
        )
        .is_ok());
        assert!(eval_directive(
            &doc,
            &[
                "canneal",
                "amnt",
                "subtree_hit_rate",
                "final_at_most",
                "0.8"
            ]
        )
        .is_err());
        // Raw field: last sampled row (stale gauge = 5).
        assert!(eval_directive(
            &doc,
            &["canneal", "amnt", "stale_lines", "final_at_most", "5"]
        )
        .is_ok());
    }

    #[test]
    fn unknown_cells_fields_and_forms_error() {
        let doc = sidecar();
        assert!(eval_directive(&doc, &["nope", "amnt", "stale_lines", "monotone"]).is_err());
        assert!(eval_directive(&doc, &["canneal", "amnt", "no_field", "monotone"]).is_err());
        assert!(eval_directive(&doc, &["canneal", "amnt", "stale_lines", "wiggly"]).is_err());
    }
}
