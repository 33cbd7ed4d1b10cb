//! `knn_hybrid`: one threshold-kNN query on the test-scale
//! `HybridEnv` (CKKS N = 64, TFHE n = 64 / N = 256).
//!
//! An op runs a CKKS inner-product fragment (encrypt, plaintext
//! multiply, rescale, rotate, add, decrypt, decode) whose precision
//! is checked against plaintext, then `threshold_compare` over a
//! batch of candidates: one batched CKKS-to-LWE extraction and one
//! comparator bootstrap per candidate. Every comparator bit is
//! checked against plaintext.

use crate::workload::{model, op_seed, OpFacts, Workload};
use crate::workloads::ckks_step::check_precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_isa::trace::{Trace, TraceOp};
use ufc_math::ntt::NttContext;
use ufc_switch::hybrid::HybridEnv;

/// Candidates compared per query.
pub const CANDIDATES: usize = 8;
/// TFHE message space of the comparator; candidates lie in
/// `0..SPACE / 2`.
const SPACE: u64 = 8;
const ROTATION: isize = 1;
/// Precision the CKKS fragment must reach.
pub const PRECISION_FLOOR_BITS: f64 = 10.0;
/// Paper parameter sets the query's trace is modelled at.
const SIM_CKKS: &str = "C2";
const SIM_TFHE: &str = "T4";

/// Both schemes' contexts and keys, and the extraction bridge.
pub struct KnnHybrid {
    seed: u64,
    env: HybridEnv,
    trace: Option<Trace>,
}

/// Generated query: slot vectors for the CKKS fragment, candidates
/// and threshold for the comparator stage, and what both must give.
pub struct Input {
    values: Vec<f64>,
    weights: Vec<f64>,
    expected_slots: Vec<f64>,
    candidates: Vec<u64>,
    threshold: u64,
    expected_bits: Vec<bool>,
    rng_seed: u64,
}

/// Decoded fragment, comparator bits, and the evaluator's record.
pub struct Output {
    /// Decoded slots of the inner-product fragment.
    pub slots: Vec<f64>,
    /// Decrypted comparator bits, or why the batch was refused.
    pub bits: Result<Vec<bool>, String>,
    /// CKKS and switch ops the evaluator recorded.
    pub trace: Trace,
}

/// Compares comparator bits with their plaintext expectation.
pub fn check_bits(got: &Result<Vec<bool>, String>, want: &[bool]) -> Result<(), String> {
    match got {
        Err(why) => Err(format!("threshold_compare refused the batch: {why}")),
        Ok(g) if g == want => Ok(()),
        Ok(g) => Err(format!("comparator bits {g:?} != expected {want:?}")),
    }
}

impl Workload for KnnHybrid {
    type Input = Input;
    type Output = Output;
    const WORK_UNIT: &'static str = "candidates";

    fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = HybridEnv::new_test_scale(&mut rng);
        env.ckks_keys
            .gen_rotation_key(env.ckks.context(), &env.ckks_sk, ROTATION, &mut rng);
        Self {
            seed,
            env,
            trace: None,
        }
    }

    fn input(&mut self, index: u64) -> Input {
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, index));
        let slots = self.env.ckks.context().slots();
        let mut draw =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect() };
        let (values, weights) = (draw(slots), draw(slots));
        let expected_slots = (0..slots)
            .map(|i| {
                let j = (i + ROTATION as usize) % slots;
                values[i] * weights[i] + values[j] * weights[j]
            })
            .collect();
        let candidates: Vec<u64> = (0..CANDIDATES)
            .map(|_| rng.gen_range(0..SPACE / 2))
            .collect();
        let threshold = rng.gen_range(1..SPACE / 2);
        Input {
            expected_bits: candidates.iter().map(|&v| v >= threshold).collect(),
            values,
            weights,
            expected_slots,
            candidates,
            threshold,
            rng_seed: rng.gen_range(0..u64::MAX),
        }
    }

    fn run(&mut self, input: &Input) -> Output {
        let mut rng = StdRng::seed_from_u64(input.rng_seed);
        let (ev, env) = (&self.env.ckks, &self.env);
        let ct = ev.encrypt_real(&input.values, &env.ckks_keys, &mut rng);
        let w = ev.encode_real(&input.weights, ct.level);
        let prod = ev.rescale(&ev.mul_plain(&ct, &w));
        let sum = ev.add(&prod, &ev.rotate(&prod, ROTATION, &env.ckks_keys));
        let coeffs = ev.decrypt_coeffs(&sum, &env.ckks_sk);
        let slots = {
            let _span = ufc_trace::span("ckks", "decode");
            ev.encoder().decode_real(&coeffs, sum.scale)
        };
        // threshold_compare drains the evaluator's trace, so the
        // fragment's ops and the extraction land in one trace.
        let (bits, trace) =
            match env.threshold_compare(&input.candidates, input.threshold, SPACE, &mut rng) {
                Ok((bits, trace)) => (Ok(bits), trace),
                Err(e) => (Err(e.to_string()), ev.take_trace()),
            };
        Output { slots, bits, trace }
    }

    fn check(&mut self, input: &Input, output: &Output) -> Result<OpFacts, String> {
        let bits = check_precision(&output.slots, &input.expected_slots, PRECISION_FLOOR_BITS)?;
        check_bits(&output.bits, &input.expected_bits)?;
        let mut trace = output.trace.clone().with_ckks(SIM_CKKS).with_tfhe(SIM_TFHE);
        trace.name = "knn_hybrid".into();
        trace.push(TraceOp::TfhePbs {
            batch: CANDIDATES as u32,
        });
        let cycles = model(std::slice::from_ref(&trace))?.cycles;
        self.trace.get_or_insert(trace);
        Ok(OpFacts {
            work: CANDIDATES as u64,
            precision_bits: Some(bits),
            sim_cycles: cycles,
        })
    }

    fn sim_traces(&self) -> Vec<Trace> {
        self.trace.iter().cloned().collect()
    }

    fn rings(&self) -> Vec<&NttContext> {
        let ckks = self.env.ckks.context();
        let mut rings = vec![self.env.tfhe.ntt()];
        rings.extend((0..ckks.q_moduli().len()).map(|i| ckks.ntt_q(i)));
        rings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_comparator_bit_fails_the_check() {
        let want = [true, false, true];
        assert!(check_bits(&Ok(want.to_vec()), &want).is_ok());
        assert!(check_bits(&Ok(vec![true, true, true]), &want).is_err());
        assert!(check_bits(&Ok(vec![true, false]), &want).is_err());
        assert!(check_bits(&Err("index out of range".into()), &want).is_err());
    }
}
