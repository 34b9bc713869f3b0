//! Output: one JSON object on the last line of stdout, a table on stderr.

use std::fmt::Write;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // JSON has no NaN or infinity; an undefined ratio reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub clients: usize,
    pub traced: bool,
    pub attempted: usize,
    pub failed: usize,
    pub timed_s: f64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} seed={} clients={} trace={} samples={} failed={} timed_s={:.2} cores={}",
            self.workload,
            self.seed,
            self.clients,
            u8::from(self.traced),
            self.attempted,
            self.failed,
            self.timed_s,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{:<44}{:>16.4} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::json::Json;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "w",
            seed: 1,
            clients: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            timed_s: 1.0,
            metrics: vec![
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("undefined", f64::NAN, "share"),
            ],
        };
        let line = report.json_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(doc.get("attempted").is_some() && doc.get("failed").is_some());
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("latency_ms").unwrap().get("value").is_some());
        assert_eq!(
            metrics
                .get("latency_ms")
                .unwrap()
                .get("unit")
                .and_then(Json::as_str),
            Some("ms")
        );
        assert!(line.contains("\"undefined\":{\"value\":0,"));
        assert!(report.table().contains("latency_ms"));
    }
}
