//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds, compiled in from the
//! repository's `BENCHMARK.json` so the file and the binary cannot
//! disagree.

use serde::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as printed and as keyed in result files.
    pub name: String,
    /// Unit string (`ev/s`, `us`, `s`, ...).
    pub unit: String,
    /// `true` when a larger value is an improvement.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the baseline median
    /// (end-to-end metrics only; per-layer metrics are unbounded).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures by default.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees (reported untraced).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in contract.
    pub fn get() -> &'static Spec {
        static SPEC: OnceLock<Spec> = OnceLock::new();
        SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let str_field = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: str_field(m, "name")?,
                        unit: str_field(m, "unit")?,
                        higher_is_better: str_field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_int)
                .ok_or("missing `run_seconds`")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric called `name`, from either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The metrics a run reports: end-to-end untraced, per-layer
    /// traced.
    pub fn reported(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_parses_with_bounds_on_end_to_end_metrics_only() {
        let spec = Spec::get();
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        let setup = spec.metric("setup_s").unwrap().bound.unwrap();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup && m.bound.unwrap() <= 0.25));
    }
}
