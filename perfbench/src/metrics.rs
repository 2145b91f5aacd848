//! Metric catalogue and the result line.
//!
//! Every name the benchmark can emit is declared here, once, with its
//! unit; `BENCHMARK.json` lists the same names (a test keeps the two in
//! step). End-to-end metrics are host wall-clock figures measured with
//! tracing off. Per-layer metrics come from the traced run only; a layer
//! a workload does not exercise reads 0 there.

use std::collections::BTreeMap;

/// A metric name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Host-time metrics a user of the simulator sees, on every workload.
pub const END_TO_END: &[Def] =
    &[def("items_per_s", "1/s"), def("peak_rss_mb", "MiB"), def("setup_s", "s")];

/// The five `enw_dse::Lane`s, in `Lane::all()` order, as metric names.
pub const DSE_EVAL: [&str; 5] = [
    "dse.eval.crossbar.ns_per_eval",
    "dse.eval.xmann.ns_per_eval",
    "dse.eval.cam.ns_per_eval",
    "dse.eval.recsys.ns_per_eval",
    "dse.eval.serve.ns_per_eval",
];

/// Traced-run metrics, named `<module>.<what>` after the crate they
/// measure. `s/op` is host seconds per op of the workload.
pub const PER_LAYER: &[Def] = &[
    def("crossbar.forward.s", "s/op"),
    def("crossbar.backward.s", "s/op"),
    def("crossbar.update.s", "s/op"),
    def("crossbar.update.pulses", "count/op"),
    def("crossbar.reduce.partials", "count/op"),
    def("crossbar.forward.pct_roofline", "%"),
    def("nn.train_step.s", "s/op"),
    def("nn.self.s", "s/op"),
    def("parallel.speedup_2t", "x"),
    def("parallel.allocs_per_op", "count/op"),
    def("serve.try_run.s", "s/op"),
    def("serve.backend.s", "s/op"),
    def("serve.scheduler.self.s", "s/op"),
    def("serve.batches", "count/op"),
    def("serve.batch_size.mean", "count"),
    def("serve.shed", "count/op"),
    def("serve.rejected", "count/op"),
    def("crossbar.infer.ns_per_req", "ns"),
    def("numerics.matvec.gflops", "GFLOP/s"),
    def("cam.search.ns_per_req", "ns"),
    def("recsys.predict.ns_per_req", "ns"),
    def("fleet.sim.s", "s/op"),
    def("fleet.ring.ns_per_pick", "ns"),
    def("fleet.shard.ns_per_batch", "ns"),
    def("fleet.shard.gather_gbps", "GB/s"),
    def("fleet.cache_miss_ratio", "ratio"),
    def("fleet.rebalanced_bytes", "B/op"),
    def("fleet.scale_events", "count/op"),
    def(DSE_EVAL[0], "ns"),
    def(DSE_EVAL[1], "ns"),
    def(DSE_EVAL[2], "ns"),
    def(DSE_EVAL[3], "ns"),
    def(DSE_EVAL[4], "ns"),
    def("dse.search.self.s", "s/op"),
    def("dse.feasible_ratio", "ratio"),
    def("trace.overhead_frac", "ratio"),
    def("host.stream_triad_gbps", "GB/s"),
    def("host.fma_gflops", "GFLOP/s"),
];

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Values collected by one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue: an undeclared metric is
    /// a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the measured region.
    pub attempted: u64,
    /// Ops whose call failed or whose digest differed from the reference.
    pub failed: u64,
    /// Whole-run checks beyond the per-op digests.
    pub checks_ok: bool,
    pub values: Values,
    /// `sim.*` and other log lines printed before the result.
    pub lines: Vec<String>,
}

/// The catalogue a run with tracing `traced` reports.
pub fn catalogue(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Human-readable `name = value unit` lines for the reported metrics.
pub fn metric_lines(out: &Outcome, traced: bool) -> Vec<String> {
    catalogue(traced)
        .iter()
        .map(|d| format!("{} = {} {}", d.name, out.values.get(d.name).unwrap_or(0.0), d.unit))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A missing per-layer value reads 0; a missing or
/// non-finite end-to-end value makes the run incorrect.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let mut correct = out.checks_ok && out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::new();
    for d in catalogue(traced) {
        let v = match out.values.get(d.name) {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            None => {
                correct &= traced;
                0.0
            }
        };
        // Rust's shortest round-trip form: every digit, never an exponent.
        fields.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// `"name": "<value>"` entries of one top-level array in BENCHMARK.json.
    fn json_names(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let i = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[i + f.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = rest[open..].find('"').expect("value closes");
                    rest[open..open + close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let pairs = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
        };
        assert_eq!(json_names(&json, "end_to_end"), pairs(END_TO_END));
        assert_eq!(json_names(&json, "per_layer"), pairs(PER_LAYER));
    }

    #[test]
    fn result_line_reports_the_whole_catalogue() {
        let mut out = Outcome { attempted: 3, checks_ok: true, ..Outcome::default() };
        for d in END_TO_END {
            out.values.set(d.name, 1.25);
        }
        let line = result_json(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for d in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
        out.values.set("setup_s", f64::NAN);
        assert!(result_json(&out, false).starts_with("{\"correct\": false"));
        let traced =
            result_json(&Outcome { attempted: 1, checks_ok: true, ..Outcome::default() }, true);
        assert!(traced.starts_with("{\"correct\": true"), "missing layers read 0: {traced}");
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Values::default().set("no.such.metric", 1.0);
    }
}
