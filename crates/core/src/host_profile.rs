//! Host-side runtime profiling: run the real hybrid pipeline with the
//! `ufc-trace` recorder live and aggregate what it saw.
//!
//! This is the runtime twin of [`crate::profile`]: where
//! `profile_stream` asks the cycle simulator what a trace *would*
//! cost on the modeled accelerator, [`profile_host`] measures what
//! the host evaluator stack *actually* spends — per-operation span
//! latencies down to the NTT kernels, plus decrypt-side noise gauges
//! diffed against the static `NoiseSchedule` bound ("headroom
//! drift"). `ufc-profile --host` is the CLI surface.

use ufc_telemetry::host::{self, HostReport};
use ufc_telemetry::trace::{self, HostTrace};
use ufc_telemetry::MetricsRegistry;
use ufc_workloads::host::{run_threshold_knn, HostKnnRun, HostRunConfig};

/// Runtime-vs-static noise comparison for one host run.
///
/// The static side is the `NoiseSchedule` worst-case CKKS precision
/// bound computed by `ufc-verify`'s abstract interpreter over the
/// run's op trace (a conservative floor, evaluated at the named
/// parameter set); the measured side is the decrypt-side precision
/// the run actually achieved. `drift_bits` is measured − bound:
/// positive means real headroom above the static floor, and a
/// negative value flags the soundness problem the empirical suite in
/// `ufc-verify` exists to catch.
#[derive(Debug, Clone, Copy)]
pub struct NoiseDrift {
    /// Decrypt-side measured precision, bits.
    pub measured_bits: f64,
    /// Static schedule lower bound (worst op), bits.
    pub static_bound_bits: f64,
    /// `measured_bits - static_bound_bits`.
    pub drift_bits: f64,
}

/// Everything one recorded host run produced.
#[derive(Debug)]
pub struct HostProfile {
    /// The raw recording (feeds the Perfetto/JSONL exports).
    pub host_trace: HostTrace,
    /// Aggregated span/kernel/gauge views.
    pub report: HostReport,
    /// The pipeline outputs (correctness flags, op trace, noise).
    pub run: HostKnnRun,
    /// Comparison of measured against static noise, when the op trace had
    /// CKKS ops for the static pass to bound.
    pub noise_drift: Option<NoiseDrift>,
}

impl HostProfile {
    /// Span counters, latency histograms and noise gauges folded into
    /// a registry (deterministic serialization).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        host::fold_into_registry(&self.host_trace, &mut reg);
        if let Some(d) = &self.noise_drift {
            reg.set_gauge("noise/static_bound_bits", d.static_bound_bits);
            reg.set_gauge("noise/headroom_drift_bits", d.drift_bits);
        }
        reg
    }

    /// The recording as span/gauge JSON lines.
    pub fn jsonl(&self) -> String {
        host::to_jsonl(&self.host_trace)
    }
}

/// Runs the hybrid k-NN host pipeline with the recorder enabled and
/// returns the aggregated profile.
///
/// Fails if another recording is already live in this process (the
/// recorder is process-global).
pub fn profile_host(cfg: &HostRunConfig) -> Result<HostProfile, String> {
    let recorder =
        trace::record().ok_or("a runtime trace recording is already live in this process")?;
    let run = run_threshold_knn(cfg);
    let host_trace = recorder.finish();
    let report = host::report(&host_trace);
    let schedule =
        ufc_verify::noise_checks::noise_schedule(&run.trace, &ufc_verify::NoiseOptions::default());
    let noise_drift = schedule.min_precision_bits.map(|bound| NoiseDrift {
        measured_bits: run.measured_precision_bits,
        static_bound_bits: bound,
        drift_bits: run.measured_precision_bits - bound,
    });
    Ok(HostProfile {
        host_trace,
        report,
        run,
        noise_drift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single #[test]: the recorder is process-global and the cargo
    // harness runs tests concurrently in threads.
    #[test]
    fn host_profile_records_the_whole_stack() {
        let profile = profile_host(&HostRunConfig::default()).expect("no other recording");
        assert!(profile.run.all_correct());
        assert!(!profile.host_trace.spans.is_empty());

        let keys: Vec<&str> = profile
            .report
            .spans
            .iter()
            .map(|a| a.key.as_str())
            .collect();
        // Every layer of the stack shows up: workload stage markers,
        // CKKS ops, scheme switch, TFHE ops, math kernels.
        for expect in [
            "workload/hybrid_knn",
            "ckks/encrypt",
            "ckks/rescale",
            "switch/extract_batch[b8]",
            "tfhe/blind_rotate",
            "tfhe/pbs",
        ] {
            assert!(keys.contains(&expect), "missing span {expect} in {keys:?}");
        }
        assert!(
            keys.iter().any(|k| k.starts_with("math/ntt_forward[")),
            "NTT spans must carry the kernel tag: {keys:?}"
        );
        // The kernel view holds only tagged spans.
        assert!(!profile.report.kernels.is_empty());
        assert!(profile.report.kernels.iter().all(|a| a.key.contains('[')));

        // Gauges: measured precision + phase margins arrived.
        assert!(profile
            .report
            .gauges
            .iter()
            .any(|(n, _)| n == "ckks/measured_precision_bits"));
        assert!(profile
            .report
            .gauges
            .iter()
            .any(|(n, _)| n == "tfhe/phase_margin"));

        // Noise drift is computed against the static schedule bound.
        let drift = profile.noise_drift.expect("trace has CKKS ops");
        assert_eq!(
            drift.drift_bits,
            drift.measured_bits - drift.static_bound_bits
        );

        // Metrics registry carries counters, histograms, and gauges.
        let m = profile.metrics();
        assert!(m.get("host/span/workload/hybrid_knn/count") >= 1);
        assert!(m.histogram("host/span/tfhe/pbs/ns").is_some());
        assert!(m.gauge("noise/headroom_drift_bits").is_some());

        // JSONL lines parse.
        let jsonl = profile.jsonl();
        assert!(jsonl.lines().count() > 10);
        for line in jsonl.lines().take(5) {
            serde_json::from_str(line).expect("jsonl line parses");
        }
    }
}
