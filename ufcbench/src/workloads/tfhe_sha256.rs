//! `tfhe_sha256`: homomorphic SHA-256 compression of one block in a
//! reduced configuration (8-bit words, one round, Sklansky prefix
//! adder) on the test-scale TFHE context (n = 64, N = 256).
//!
//! An op hashes a generated message of up to one block through
//! `sha256::host::hom_digest_with`: encrypt every input bit, evaluate
//! the compression circuit gate by bootstrapped gate, decrypt. The
//! digest is compared bit for bit with the plaintext reference.

use crate::workload::{model, op_seed, OpFacts, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_isa::trace::{Trace, TraceOp};
use ufc_math::ntt::NttContext;
use ufc_tfhe::gates::{apply_gate, decrypt_bool, encrypt_bool, Gate};
use ufc_tfhe::{TfheContext, TfheKeys};
use ufc_workloads::sha256::{self, host, reference, AdderKind, ShaParams};

const WORD_BITS: u32 = 8;
const ROUNDS: u32 = 1;
const ADDER: AdderKind = AdderKind::Prefix;
/// Paper parameter set the circuit's trace is modelled at.
const SIM_PARAMS: &str = "T1";

/// TFHE context and keys.
pub struct TfheSha256 {
    seed: u64,
    ctx: TfheContext,
    keys: TfheKeys,
    params: ShaParams,
}

/// A generated message and its reference digest.
pub struct Input {
    msg: Vec<u8>,
    expected: Vec<u8>,
    rng_seed: u64,
}

/// Decrypted digest and the run's block and gate counts.
pub struct Output {
    /// Digest decrypted from the homomorphic run.
    pub digest: Vec<u8>,
    /// Compression blocks the padded message took.
    pub blocks: usize,
    /// Bootstrapped gates evaluated.
    pub gates: usize,
}

impl TfheSha256 {
    /// The compression circuit's trace over `blocks` blocks.
    fn trace(&self, blocks: usize) -> Trace {
        sha256::generate(SIM_PARAMS, &self.params, ADDER, blocks as u32)
    }
}

/// Bootstrapped gates in a gate-level trace: the widths of its PBS
/// batches.
pub fn trace_gates(trace: &Trace) -> u64 {
    trace
        .ops
        .iter()
        .map(|op| match op {
            TraceOp::TfhePbs { batch } => u64::from(*batch),
            _ => 0,
        })
        .sum()
}

/// Compares a decrypted digest with the reference, bit for bit.
pub fn check_digest(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let wrong: u32 = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g ^ w).count_ones())
        .sum();
    Err(format!(
        "digest {got:02x?} != reference {want:02x?} ({wrong} bits differ)"
    ))
}

impl Workload for TfheSha256 {
    type Input = Input;
    type Output = Output;
    const WORK_UNIT: &'static str = "gates";

    fn setup(seed: u64) -> Self {
        let ctx = host::test_context();
        let keys = TfheKeys::generate(&ctx, &mut StdRng::seed_from_u64(seed));
        Self {
            seed,
            ctx,
            keys,
            params: ShaParams::new(WORD_BITS, ROUNDS),
        }
    }

    /// One bootstrapped gate: an op takes seconds, so a whole one
    /// would cost a fifth of the run.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, u64::MAX));
        let a = encrypt_bool(&self.ctx, &self.keys, true, &mut rng);
        let b = encrypt_bool(&self.ctx, &self.keys, false, &mut rng);
        let out = apply_gate(&self.ctx, &self.keys, Gate::Xor, &a, &b);
        if decrypt_bool(&self.ctx, &self.keys, &out) {
            Ok(())
        } else {
            Err("warm-up XOR(1, 0) decrypted to 0".into())
        }
    }

    fn input(&mut self, index: u64) -> Input {
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, index));
        // Padding appends one 0x80 byte and the length field: the
        // rest of one block is message.
        let max_len = self.params.block_bytes() - 1 - self.params.len_bytes();
        let len = rng.gen_range(0..=max_len);
        let msg: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        Input {
            expected: reference::digest(&self.params, &msg),
            msg,
            rng_seed: rng.gen_range(0..u64::MAX),
        }
    }

    fn run(&mut self, input: &Input) -> Output {
        let mut rng = StdRng::seed_from_u64(input.rng_seed);
        let run = host::hom_digest_with(
            &self.ctx,
            &self.keys,
            &mut rng,
            &self.params,
            ADDER,
            &input.msg,
        );
        Output {
            digest: run.digest,
            blocks: run.blocks,
            gates: run.gates,
        }
    }

    fn check(&mut self, input: &Input, output: &Output) -> Result<OpFacts, String> {
        check_digest(&output.digest, &input.expected)?;
        // The library does not hand the op's circuit out, so the
        // op's trace is the generator's for the op's block count.
        let trace = self.trace(output.blocks);
        let gates = trace_gates(&trace);
        if gates != output.gates as u64 {
            return Err(format!(
                "{} gates evaluated, the circuit's trace has {gates}",
                output.gates
            ));
        }
        Ok(OpFacts {
            work: gates,
            precision_bits: None,
            sim_cycles: model(&[trace])?.cycles,
        })
    }

    fn sim_traces(&self) -> Vec<Trace> {
        vec![self.trace(1)]
    }

    fn rings(&self) -> Vec<&NttContext> {
        vec![self.ctx.ntt()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trace_has_one_pbs_per_evaluated_gate() {
        let p = ShaParams::new(WORD_BITS, ROUNDS);
        let circuit_gates = trace_gates(&sha256::generate(SIM_PARAMS, &p, ADDER, 1));
        assert_eq!(circuit_gates, 730);
        assert_eq!(
            trace_gates(&sha256::generate(SIM_PARAMS, &p, ADDER, 2)),
            2 * circuit_gates
        );
    }

    #[test]
    fn a_flipped_digest_bit_fails_the_check() {
        let p = ShaParams::new(WORD_BITS, ROUNDS);
        let want = reference::digest(&p, b"abc");
        assert!(check_digest(&want, &want).is_ok());
        let mut got = want.clone();
        got[0] ^= 1;
        let err = check_digest(&got, &want).unwrap_err();
        assert!(err.contains("1 bits differ"), "{err}");
    }
}
