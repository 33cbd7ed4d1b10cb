//! End-to-end hybrid FHE programs (Fig. 1): CKKS for throughput
//! arithmetic, TFHE for exact non-linear functions, with both bridges
//! in between. Used functionally at test scale; the k-NN workload
//! generator mirrors this structure analytically at paper scale.

use crate::error::SwitchError;
use crate::extract::{encode_coefficients, CkksToLwe};
use rand::Rng;
use ufc_ckks::{CkksContext, Evaluator as CkksEvaluator, KeySet, SecretKey};
use ufc_isa::trace::Trace;
use ufc_math::plane::RnsPlane;
use ufc_tfhe::{programmable_bootstrap, TfheContext, TfheKeys};

/// A complete hybrid environment: both schemes' contexts, keys and
/// the extraction bridge.
#[derive(Debug)]
pub struct HybridEnv {
    /// CKKS evaluator (with tracer).
    pub ckks: CkksEvaluator,
    /// CKKS secret key (kept for tests/decryption).
    pub ckks_sk: SecretKey,
    /// CKKS evaluation keys.
    pub ckks_keys: KeySet,
    /// TFHE context.
    pub tfhe: TfheContext,
    /// TFHE keys.
    pub tfhe_keys: TfheKeys,
    /// CKKS→LWE extraction bridge.
    pub bridge: CkksToLwe,
}

impl HybridEnv {
    /// Builds a hybrid environment at reduced (test) scale.
    pub fn new_test_scale<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let ckks_ctx = CkksContext::new(64, 3, 2, 2, 36, 34);
        let ckks_sk = SecretKey::generate(&ckks_ctx, rng);
        let ckks_keys = KeySet::generate(&ckks_ctx, &ckks_sk, rng);
        let tfhe = TfheContext::new(64, 256, 7, 3, 6, 4);
        let tfhe_keys = TfheKeys::generate(&tfhe, rng);
        let bridge = CkksToLwe::new(&ckks_ctx, &ckks_sk, &tfhe, &tfhe_keys, rng);
        Self {
            ckks: CkksEvaluator::new(ckks_ctx),
            ckks_sk,
            ckks_keys,
            tfhe,
            tfhe_keys,
            bridge,
        }
    }

    /// Runs the hybrid "argmin comparator" kernel at the heart of
    /// encrypted k-NN: distances are computed in CKKS (here:
    /// coefficient-packed inputs), then each candidate is extracted
    /// and compared against a threshold with one TFHE programmable
    /// bootstrap. Returns the decrypted comparator bits (for test
    /// validation) and the combined trace.
    ///
    /// # Errors
    ///
    /// Propagates [`SwitchError`] from the batched extraction (only
    /// possible if `values` outruns the ring dimension).
    pub fn threshold_compare<R: Rng + ?Sized>(
        &self,
        values: &[u64],
        threshold: u64,
        space: u64,
        rng: &mut R,
    ) -> Result<(Vec<bool>, Trace), SwitchError> {
        // CKKS stage: encrypt the (coefficient-packed) values. A full
        // k-NN would compute distances homomorphically first; the
        // workload generator models that part at paper scale.
        let pt = encode_coefficients(self.ckks.context(), values, space);
        let ct =
            self.ckks
                .encrypt_plaintext(&pt, &self.ckks_keys, self.ckks.context().max_level(), rng);
        // Scheme switch: extract one LWE per value on the batched fast
        // path (bit-identical to the per-index loop).
        let indices: Vec<usize> = (0..values.len()).collect();
        let lwes = self
            .bridge
            .extract_batch(&self.ckks, &ct, &indices, &self.tfhe)?;
        // TFHE stage: comparator LUT f(m) = (m >= threshold).
        let tv = comparator_test_vector(&self.tfhe, threshold, space);
        let bits: Vec<bool> = lwes
            .iter()
            .map(|lwe| {
                let out = programmable_bootstrap(&self.tfhe, &self.tfhe_keys, lwe, &tv);
                out.decrypt(&self.tfhe, &self.tfhe_keys.lwe_sk, space) == 1
            })
            .collect();
        Ok((bits, self.ckks.take_trace()))
    }
}

/// Test vector for the comparator `f(m) = 1 if m ≥ threshold else 0`
/// over messages `0..space/2`.
pub fn comparator_test_vector(ctx: &TfheContext, threshold: u64, space: u64) -> RnsPlane {
    ufc_tfhe::lut_test_vector(ctx, move |m| u64::from(m >= threshold), space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hybrid_threshold_compare_end_to_end() {
        let mut rng = StdRng::seed_from_u64(101);
        let env = HybridEnv::new_test_scale(&mut rng);
        let values = [0u64, 1, 2, 3, 2, 1];
        let (bits, trace) = env.threshold_compare(&values, 2, 8, &mut rng).unwrap();
        let expect: Vec<bool> = values.iter().map(|&v| v >= 2).collect();
        assert_eq!(bits, expect);
        // The trace must show the scheme switch.
        assert!(trace
            .ops
            .iter()
            .any(|op| matches!(op, ufc_isa::trace::TraceOp::Extract { .. })));
    }

    #[test]
    fn comparator_lut_shape() {
        let ctx = TfheContext::new(16, 64, 7, 2, 6, 3);
        let tv = comparator_test_vector(&ctx, 2, 8);
        assert_eq!(tv.dim(), 64);
        // Low-phase region encodes 0, higher regions encode 1.
        assert_eq!(ctx.decode(tv.limb(0)[0], 8), 0);
        assert_eq!(ctx.decode(tv.limb(0)[40], 8), 1);
    }
}
