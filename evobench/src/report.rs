//! The result of one run: a readable table on stdout, then one JSON object
//! as the last line.

/// End-to-end metrics (untraced run), with units. Every workload prints all
/// of them; see `evobench/README.md` for the meaning on each workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("rmse_cm", "cm"),
    ("coverage_pct", "%"),
    ("ok_ratio", "ratio"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units. A metric whose layer is not
/// on the workload's path is printed as 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 47] = [
    // Training: engine replay of execution slot 0.
    ("engine.new_ms", "ms"),
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.accept_ratio", "ratio"),
    ("engine.viable_ratio", "ratio"),
    ("engine.unattributed_us", "us"),
    // Training: offspring pipeline replayed through the public kernels.
    ("selection.select_ns", "ns"),
    ("crossover.uniform_ns", "ns"),
    ("mutation.mutate_ns", "ns"),
    ("mutation.genes_rewritten", "count"),
    ("dataset.refill_ns", "ns"),
    ("population.copy_gene_ns", "ns"),
    ("bitset.and_ns", "ns"),
    ("bitset.matched_rows", "count"),
    ("parallel.gram_us", "us"),
    ("linalg.solve_us", "us"),
    ("regress.fit_us", "us"),
    ("replacement.victim_ns", "ns"),
    // Training: campaign and I/O.
    ("supervisor.executions", "count"),
    ("supervisor.retries", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("tsdata.load_ms", "ms"),
    ("predict.compile_ms", "ms"),
    ("predict.holdout_ns_per_window", "ns"),
    // Serving: client spans per request.
    ("client.connect_us", "us"),
    ("client.send_us", "us"),
    ("client.wait_us", "us"),
    ("client.read_us", "us"),
    ("client.warmup_requests", "count"),
    ("client.warmup_failed", "count"),
    ("client.requests", "count"),
    ("client.failed", "count"),
    // Serving: server counters.
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("server.abstentions", "count"),
    ("server.unattributed_us", "us"),
    // Serving: request stages replayed through the public API.
    ("http.read_request_us", "us"),
    ("http.write_response_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("registry.get_ns", "ns"),
    ("registry.reload_ms", "ms"),
    ("compiled.predict_ns", "ns"),
    ("compiled.firing_rules_mean", "count"),
    // Both: traced minus untraced time of the same work, in percent.
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    value: f64,
    samples: usize,
}

/// Collects the metrics and counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<Entry>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed in the measured phase.
    pub failed: u64,
    /// Correctness-gate failures; any one makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    /// Record a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry {
            name,
            value,
            samples,
        });
    }

    /// Record a gate failure.
    pub fn violation(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.violations.len() < 20 {
            eprintln!("correctness gate failed: {message}");
        }
        self.violations.push(message);
    }

    /// Check a gate.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.violation(message());
        }
    }

    /// Print the table of `names` and the final JSON line. Returns whether
    /// every gate held. A metric with no finite value is a gate failure.
    pub fn finish(mut self, names: &[(&'static str, &'static str)], fill_missing: bool) -> bool {
        let mut rows = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let entry = match self.entries.iter().find(|e| e.name == name) {
                Some(e) => e.clone(),
                None if fill_missing => Entry {
                    name,
                    value: 0.0,
                    samples: 0,
                },
                None => {
                    self.violation(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !entry.value.is_finite() {
                self.violation(format!("metric {name} is not finite ({})", entry.value));
                continue;
            }
            rows.push((entry, unit));
        }
        println!(
            "{:<32} {:>18} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for (e, unit) in &rows {
            println!(
                "{:<32} {:>18.6} {:<6} {:>9}",
                e.name, e.value, unit, e.samples
            );
        }
        if self.attempted == 0 {
            self.violation("the measured phase attempted nothing");
        }
        let correct = self.violations.is_empty();
        let metrics: Vec<String> = rows
            .iter()
            .map(|(e, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    e.name, e.value, unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}
