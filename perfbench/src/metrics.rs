//! The benchmark's metric catalogue and its result record.
//!
//! Every workload reports every metric of the mode it runs in: the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! Per-layer metrics of a layer a workload does not exercise read 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name, unit and the direction that counts as better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false),
    m("checkpoints_per_s", "checkpoints/s", true),
    m("latency_p50_ms", "ms", false),
    m("latency_p90_ms", "ms", false),
    m("availability", "ratio", true),
    m("peak_rss_mb", "MB", false),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("testbed.step_calls", "count", false),
    m("testbed.step_s", "s", false),
    m("testbed.new_calls", "count", false),
    m("testbed.new_s", "s", false),
    m("testbed.fork_calls", "count", false),
    m("testbed.fork_s", "s", false),
    m("testbed.fork_sim_s", "s", false),
    m("testbed.fork_useful_ratio", "ratio", true),
    m("monitor.extract_calls", "count", false),
    m("monitor.extract_s", "s", false),
    m("ml.predict_calls", "count", false),
    m("ml.predict_rows", "count", false),
    m("ml.predict_s", "s", false),
    m("ml.fit_calls", "count", false),
    m("ml.fit_rows", "count", false),
    m("ml.fit_s", "s", false),
    m("ml.mean_ttf_error_s", "s", false),
    m("fleet.epochs", "count", false),
    m("fleet.advance_s", "s", false),
    m("fleet.predict_s", "s", false),
    m("fleet.publish_s", "s", false),
    m("adapt.publish_calls", "count", false),
    m("adapt.publish_s", "s", false),
    m("adapt.ingested", "count", true),
    m("adapt.shed", "count", false),
    m("adapt.ingest_batch_s", "s", false),
    m("adapt.refits", "count", true),
    m("adapt.refit_s", "s", false),
    m("adapt.swap_latency_s", "s", false),
    m("adapt.generations", "count", true),
    m("adapt.generations_per_trigger", "ratio", true),
    m("adapt.latency_samples", "count", true),
    m("journal.appends", "count", false),
    m("journal.fsyncs", "count", false),
    m("journal.bytes", "bytes", false),
    m("obs.trace_overhead_ratio", "ratio", false),
    m("bench.probe_coverage", "ratio", true),
    m("bench.generator_lag_max_ms", "ms", false),
];

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (workload-specific, see the workload docs).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Failed checks, one line each; the run is correct when empty.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check (does not touch `failed`: a check can fail
    /// without an operation failing, e.g. a missing metric).
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    pub fn note(&mut self, message: impl Into<String>) {
        self.notes.push(message.into());
    }

    /// Checks that exactly the metrics of `defs` are present and finite,
    /// recording a problem for each one that is not.
    pub fn require(&mut self, defs: &[MetricDef]) {
        for def in defs {
            if !valid_name(def.name) {
                self.problems.push(format!("metric name {:?} is not legal", def.name));
            }
            match self.values.get(def.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.problems.push(format!("metric {} is not finite: {v}", def.name)),
                None => self.problems.push(format!("metric {} was not measured", def.name)),
            }
        }
        let extra: Vec<&str> =
            self.values.keys().copied().filter(|k| !defs.iter().any(|d| d.name == *k)).collect();
        for name in extra {
            self.problems.push(format!("metric {name} is not in this mode's catalogue"));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// metric of `defs` with its unit. Non-finite values are written as
    /// `null` (and `require` has already made the run incorrect).
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = match self.values.get(def.name) {
                Some(v) if v.is_finite() => format!("{v:?}"),
                _ => "null".to_string(),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit);
        }
        out.push_str("}}");
        out
    }

    /// A fuller JSON record for the results file: the result line's fields
    /// plus the workload, seed, mode, notes and problems.
    pub fn record(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
        defs: &[MetricDef],
    ) -> String {
        let strings =
            |items: &[String]| items.iter().map(|s| json_string(s)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds:?}, \"trace\": {trace}, \
             \"result\": {}, \"notes\": [{}], \"problems\": [{}]}}\n",
            json_string(workload),
            self.result_line(defs),
            strings(&self.notes),
            strings(&self.problems)
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "illegal metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!def.unit.is_empty() && def.unit.len() <= 16, "bad unit for {}", def.name);
        }
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        assert!(valid_name("adapt.refit_s"));
        assert!(valid_name("p90-ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// The catalogue here and the one in `BENCHMARK.json` must agree on
    /// every name, unit and direction.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let open = start + text[start..].find('[').expect("section is a list");
            let close = open + text[open..].find(']').expect("list is closed");
            text[open..close]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let q1 = rest.find('"').expect("string value") + 1;
                        let q2 = q1 + rest[q1..].find('"').expect("closed string");
                        rest[q1..q2].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expect = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher_is_better { "higher" } else { "lower" };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), expect(END_TO_END));
        assert_eq!(section("per_layer"), expect(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.set("setup_s", 0.5);
        let line = outcome.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        outcome.require(END_TO_END);
        assert!(!outcome.correct(), "missing metrics make the run incorrect");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
