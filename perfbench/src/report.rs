//! What one run reports: the host it ran on, its metrics, and the
//! single JSON result line the benchmark contract asks for.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (examples trained, requests sent).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Checks that failed outside any single operation (a quality floor,
    /// a deployment that did not start). Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics of the untraced run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Sample counts and other context, printed but not scored.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric { name, unit, value });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric { name, unit, value });
    }

    /// Records a line of context.
    pub fn detail(&mut self, key: &str, value: impl ToString) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation and check passed and every metric is a
    /// finite number.
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.problems.is_empty()
            && self.reported(traced).iter().all(|m| m.value.is_finite())
    }

    /// The metrics the result line carries: per-layer when traced,
    /// end-to-end otherwise.
    pub fn reported(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(traced),
            self.attempted,
            self.failed
        );
        for (i, m) in self.reported(traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite float at full precision, or `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host block: CPU model, usable cores, the ISA the vectorized
/// kernels dispatch to, and the build profile. Numbers from different
/// hosts are not comparable; this is how a reader tells them apart.
pub fn host_block() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cpu\": {}, \"nproc\": {}, \"isa\": {}, \"profile\": {}}}",
        json_string(&cpu),
        nproc(),
        json_string(slide_kernels::dispatched_isa(
            slide_kernels::KernelMode::Vectorized
        )),
        json_string(profile)
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resident-memory high-water mark of this process, MiB (Linux
/// `VmHWM`); NaN where the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e("latency_ms", "ms", 1.25);
        o.layer("hits", "count", 7.0);
        assert_eq!(
            o.result_line(false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(o.result_line(true).contains("\"hits\""));
        o.e2e("broken", "s", f64::NAN);
        assert!(!o.correct(false));
        assert!(o.result_line(false).contains("null"));
    }
}
