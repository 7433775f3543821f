//! The metric catalogue and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::trace::GROUPS;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics every untraced run reports, on every workload.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("latency_ms_p50", "ms", "lower"),
        def("throughput_per_s", "1/s", "higher"),
    ]
}

/// The per-layer metrics every traced run reports, on every workload (0
/// where the workload does not exercise the layer).
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for role in ["fwd", "dgrad", "wgrad"] {
        v.push(def(format!("qgemm.{role}.pack_ms"), "ms", "lower"));
        v.push(def(format!("qgemm.{role}.accum_ms"), "ms", "lower"));
        v.push(def(format!("qgemm.{role}.calls"), "count", "lower"));
        v.push(def(format!("qgemm.{role}.mac_steps"), "count", "lower"));
        v.push(def(format!("qgemm.{role}.ns_per_mac"), "ns", "lower"));
    }
    v.push(def("qgemm.weight_pack_reuse", "ratio", "higher"));
    for group in GROUPS {
        v.push(def(format!("tensor.{group}.fwd_ms"), "ms", "lower"));
        v.push(def(format!("tensor.{group}.bwd_ms"), "ms", "lower"));
        v.push(def(format!("tensor.{group}.self_ms"), "ms", "lower"));
    }
    v.extend([
        def("tensor.nongemm_share", "ratio", "lower"),
        def("trainer.outside_model_ms", "ms", "lower"),
        def("trainer.replica_busy_frac", "ratio", "higher"),
        def("data.batch_ms", "ms", "lower"),
        def("io.ckpt_save_ms", "ms", "lower"),
        def("io.ckpt_bytes", "bytes", "lower"),
        def("eval.qgemm.fwd.pack_ms", "ms", "lower"),
        def("eval.qgemm.fwd.accum_ms", "ms", "lower"),
        def("eval.tensor.self_ms", "ms", "lower"),
        def("serve.mean_batch", "count", "higher"),
        def("serve.worker_imbalance", "ratio", "lower"),
        def("serve.model_busy_frac", "ratio", "lower"),
        def("serve.queue_wait_us_p50", "us", "lower"),
        def("serve.shed", "count", "lower"),
        def("serve.expired", "count", "lower"),
        def("serve.gen_late_ms_tail", "ms", "lower"),
        def("trace.overhead_frac", "ratio", "lower"),
    ]);
    v
}

/// True when `name` is made of `[A-Za-z0-9_.-]` only and starts with a
/// letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number: the value with all its digits, 0 for a non-finite one.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}` over `defs`, taking
/// each value from `values` (0 when absent).
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&d.name),
                number(v),
                string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
