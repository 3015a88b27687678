//! Turning a finished run into its outputs: the end-to-end values, the
//! printed table, the artifact, and the one-line result the driver reads.

use crate::env;
use crate::harness::Ctx;
use crate::json::Json;
use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Median, quartiles and count of the per-repetition samples behind
    /// the value, where there are any.
    pub samples: Option<Summary>,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Row {
    /// `false` when the per-repetition interquartile range exceeds the
    /// metric's regression bound: this run alone cannot tell a
    /// regression of that size from noise.
    pub fn resolved(&self) -> bool {
        match (self.samples, self.bound) {
            (Some(s), Some(bound)) => s.iqr_share() <= bound,
            _ => true,
        }
    }
}

/// The end-to-end metrics of a finished run, every one of them.
pub fn end_to_end(ctx: &Ctx) -> Vec<Row> {
    let off = ctx.median("program.off_s");
    let ratios: Vec<f64> = ctx
        .get("program.on_s")
        .iter()
        .zip(ctx.get("program.off_s"))
        .map(|(on, off)| on / off)
        .collect();
    END_TO_END
        .iter()
        .map(|&(name, unit, bound)| {
            let (value, samples) = match name {
                // Ratio of medians over interleaved Off/on repetitions:
                // drift hits both sides, and neither median is at the
                // mercy of one short Off run.
                "program_slowdown" => (
                    if off > 0.0 {
                        ctx.median("program.on_s") / off
                    } else {
                        0.0
                    },
                    Summary::of(&ratios),
                ),
                "peak_rss_mb" => (env::peak_rss_mb(), None),
                _ => (ctx.median(name), ctx.summary(name)),
            };
            Row {
                name,
                unit,
                value,
                samples,
                bound: Some(bound),
            }
        })
        .collect()
}

/// The per-layer metrics of a finished traced run, every one of them; a
/// layer that did not run reads 0.
pub fn per_layer(ctx: &Ctx) -> Vec<Row> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Row {
            name,
            unit,
            value: ctx.layers.get(name).copied().unwrap_or(0.0),
            samples: None,
            bound: None,
        })
        .collect()
}

/// Prints every metric by name with unit, median, quartiles and sample
/// count.
pub fn print_table(rows: &[Row], judged: bool) {
    println!(
        "{:<38} {:>16} {:<9} {:>14} {:>14} {:>4}  note",
        "metric", "value", "unit", "q1", "q3", "n"
    );
    for row in rows {
        let (q1, q3, n) = match row.samples {
            Some(s) => (
                format!("{:.6}", s.q1),
                format!("{:.6}", s.q3),
                s.n.to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let note = if judged && !row.resolved() {
            format!(
                "UNRESOLVED: iqr {:.1}% > bound {:.0}%",
                row.samples.map_or(0.0, |s| s.iqr_share() * 100.0),
                row.bound.unwrap_or(0.0) * 100.0
            )
        } else {
            String::new()
        };
        println!(
            "{:<38} {:>16.6} {:<9} {:>14} {:>14} {:>4}  {}",
            row.name, row.value, row.unit, q1, q3, n, note
        );
    }
}

fn value_unit(value: f64, unit: &str) -> Vec<(String, Json)> {
    vec![
        ("value".to_owned(), Json::Num(value)),
        ("unit".to_owned(), Json::str(unit)),
    ]
}

fn row_json(row: &Row, judged: bool) -> Json {
    let mut pairs = value_unit(row.value, row.unit);
    if let Some(s) = row.samples {
        pairs.push(("n".into(), Json::Int(s.n as u64)));
        pairs.push(("q1".into(), Json::Num(s.q1)));
        pairs.push(("median".into(), Json::Num(s.median)));
        pairs.push(("q3".into(), Json::Num(s.q3)));
    }
    if let Some(bound) = row.bound {
        pairs.push(("bound".into(), Json::Num(bound)));
        pairs.push(("resolved".into(), Json::Bool(!judged || row.resolved())));
    }
    Json::Obj(pairs)
}

/// The artifact written to `benchmark/out/`: environment header, every
/// reported metric, the gate's tally, every sample series' summary and
/// (traced runs) the spans.
pub fn artifact(ctx: &Ctx, workload: &str, rows: &[Row]) -> Json {
    let judged = !ctx.cfg.smoke;
    let series = ctx.samples.iter().filter_map(|(name, values)| {
        let s = Summary::of(values)?;
        Some((
            *name,
            Json::obj([
                ("n", Json::Int(s.n as u64)),
                ("q1", Json::Num(s.q1)),
                ("median", Json::Num(s.median)),
                ("q3", Json::Num(s.q3)),
            ]),
        ))
    });
    Json::obj([
        (
            "environment",
            env::header(
                workload,
                ctx.cfg.seed,
                ctx.cfg.seconds,
                ctx.cfg.traced,
                ctx.cfg.smoke,
                &ctx.constants,
            ),
        ),
        (
            if ctx.cfg.traced {
                "per_layer"
            } else {
                "end_to_end"
            },
            Json::obj(rows.iter().map(|r| (r.name, row_json(r, judged)))),
        ),
        (
            "also",
            Json::obj(
                ctx.also
                    .iter()
                    .map(|&(name, unit, value)| (name, Json::Obj(value_unit(value, unit)))),
            ),
        ),
        ("failed_share", Json::Num(ctx.gate.failed_share())),
        ("attempted", Json::Int(ctx.gate.attempted)),
        ("failed", Json::Int(ctx.gate.failed)),
        (
            "misses",
            Json::Arr(
                ctx.gate
                    .misses
                    .iter()
                    .map(|m| Json::str(m.clone()))
                    .collect(),
            ),
        ),
        ("series", Json::obj(series)),
        (
            "spans",
            Json::Arr(ctx.spans.iter().map(|s| s.to_json()).collect()),
        ),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(ctx: &Ctx, rows: &[Row]) -> String {
    Json::obj([
        ("correct", Json::Bool(ctx.gate.failed == 0)),
        ("attempted", Json::Int(ctx.gate.attempted.max(1))),
        ("failed", Json::Int(ctx.gate.failed)),
        (
            "metrics",
            Json::obj(
                rows.iter()
                    .map(|r| (r.name, Json::Obj(value_unit(r.value, r.unit)))),
            ),
        ),
    ])
    .line()
}
