//! Real-execution hybrid k-NN pipeline for host profiling.
//!
//! The other modules in this crate *generate traces analytically* at
//! paper scale; this one actually **runs** the hybrid pipeline at
//! test scale on the host evaluator stack — CKKS arithmetic (encrypt,
//! plaintext multiply, rescale, rotate, add), the CKKS→LWE extraction
//! bridge, one comparator programmable bootstrap per candidate, and a
//! TFHE gate sweep — so the `ufc-trace` recorder has something real
//! to measure. `ufc-profile --host` drives [`run_threshold_knn`] with
//! the recorder live and reports the spans; the run also emits the
//! decrypt-side noise gauges (`ckks/measured_precision_bits`,
//! `tfhe/phase_margin`) that feed the noise headroom-drift metric.
//!
//! Everything is seeded and the pipeline is single-path, so two runs
//! with the same [`HostRunConfig`] produce identical ciphertext bits
//! (the tracing bit-identity suite in `tests/trace_identity.rs`
//! depends on this).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_isa::trace::Trace;
use ufc_switch::hybrid::HybridEnv;
use ufc_tfhe::gates::{self, Gate};

/// Configuration for one host pipeline run.
#[derive(Debug, Clone)]
pub struct HostRunConfig {
    /// RNG seed for keys, encryption randomness, and bridge setup.
    pub seed: u64,
    /// Candidate messages for the comparator stage (must fit in
    /// `0..space/2`).
    pub values: Vec<u64>,
    /// Comparator threshold: the PBS computes `m >= threshold`.
    pub threshold: u64,
    /// TFHE message space for the comparator stage.
    pub space: u64,
}

impl Default for HostRunConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            values: vec![0, 1, 2, 3, 2, 1],
            threshold: 2,
            space: 8,
        }
    }
}

/// Everything one [`run_threshold_knn`] execution produced.
#[derive(Debug)]
pub struct HostKnnRun {
    /// Comparator bits decrypted from the TFHE stage.
    pub bits: Vec<bool>,
    /// Plaintext-computed expected comparator bits.
    pub expected_bits: Vec<bool>,
    /// The CKKS-op trace the evaluator accumulated across the run
    /// (arithmetic stage + extraction), for the static noise pass.
    pub trace: Trace,
    /// Decrypt-side precision measured on the CKKS arithmetic stage,
    /// in bits (`-log2(max slot error)`).
    pub measured_precision_bits: f64,
    /// `(gate name, homomorphic output, plaintext expectation)` for
    /// the gate sweep.
    pub gate_results: Vec<(&'static str, bool, bool)>,
}

impl HostKnnRun {
    /// Whether every homomorphic result matched its plaintext
    /// expectation.
    pub fn all_correct(&self) -> bool {
        self.bits == self.expected_bits
            && self.gate_results.iter().all(|(_, got, want)| got == want)
    }
}

/// Runs the hybrid threshold-k-NN pipeline for real at test scale.
///
/// Deterministic for a fixed config; instrumented end to end with
/// `ufc-trace` spans (category `workload` for the stage markers, with
/// the library crates' own spans nested underneath).
pub fn run_threshold_knn(cfg: &HostRunConfig) -> HostKnnRun {
    let _run = ufc_trace::span_n("workload", "hybrid_knn", cfg.values.len() as u64);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut env = {
        let _setup = ufc_trace::span("workload", "setup");
        HybridEnv::new_test_scale(&mut rng)
    };

    // --- CKKS arithmetic stage: an inner-product-style fragment
    // (mul_plain → rescale → rotate → add), checked against the same
    // computation on plaintext to measure achieved precision.
    let measured_precision_bits = {
        let _arith = ufc_trace::span("workload", "ckks_arith");
        let slots = env.ckks.context().slots();
        let vals: Vec<f64> = (0..slots)
            .map(|i| ((i % 7) as f64) * 0.125 - 0.375)
            .collect();
        let weights: Vec<f64> = (0..slots).map(|i| ((i % 5) as f64) * 0.25 - 0.5).collect();
        env.ckks_keys
            .gen_rotation_key(env.ckks.context(), &env.ckks_sk, 1, &mut rng);
        let ct = env.ckks.encrypt_real(&vals, &env.ckks_keys, &mut rng);
        let pt_w = env.ckks.encode_real(&weights, ct.level);
        let prod = env.ckks.rescale(&env.ckks.mul_plain(&ct, &pt_w));
        let rot = env.ckks.rotate(&prod, 1, &env.ckks_keys);
        let sum = env.ckks.add(&prod, &rot);
        let reference: Vec<f64> = (0..slots)
            .map(|i| vals[i] * weights[i] + vals[(i + 1) % slots] * weights[(i + 1) % slots])
            .collect();
        env.ckks
            .measured_precision_bits(&sum, &env.ckks_sk, &reference)
    };

    // --- Scheme switch + comparator PBS per candidate. take_trace
    // inside also drains the arithmetic-stage ops recorded above.
    let (bits, trace) = {
        let _cmp = ufc_trace::span_n("workload", "threshold_compare", cfg.values.len() as u64);
        env.threshold_compare(&cfg.values, cfg.threshold, cfg.space, &mut rng)
            .expect("candidate count fits the test-scale ring")
    };
    let expected_bits: Vec<bool> = cfg.values.iter().map(|&v| v >= cfg.threshold).collect();

    // --- TFHE gate sweep: every supported gate once, with the
    // decrypt-side phase-margin gauge firing per decryption.
    let gate_results = {
        let _gates = ufc_trace::span_n("workload", "tfhe_gates", Gate::ALL.len() as u64);
        let a = gates::encrypt_bool(&env.tfhe, &env.tfhe_keys, true, &mut rng);
        let b = gates::encrypt_bool(&env.tfhe, &env.tfhe_keys, false, &mut rng);
        Gate::ALL
            .iter()
            .map(|&g| {
                let out = gates::apply_gate(&env.tfhe, &env.tfhe_keys, g, &a, &b);
                let got = gates::decrypt_bool(&env.tfhe, &env.tfhe_keys, &out);
                (g.name(), got, g.eval(true, false))
            })
            .collect()
    };

    HostKnnRun {
        bits,
        expected_bits,
        trace,
        measured_precision_bits,
        gate_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_run_is_correct_and_deterministic() {
        let cfg = HostRunConfig::default();
        let a = run_threshold_knn(&cfg);
        assert!(
            a.all_correct(),
            "results: {:?} {:?}",
            a.bits,
            a.gate_results
        );
        assert!(
            a.measured_precision_bits > 5.0,
            "precision {} bits",
            a.measured_precision_bits
        );
        assert!(!a.trace.ops.is_empty());
        let b = run_threshold_knn(&cfg);
        assert_eq!(a.bits, b.bits);
        assert_eq!(
            a.measured_precision_bits, b.measured_precision_bits,
            "same seed must reproduce the same noise"
        );
        assert_eq!(a.trace.ops.len(), b.trace.ops.len());
    }
}
