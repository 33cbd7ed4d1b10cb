//! `ckks_step`: one multiply/rescale/rotate-and-sum chain at
//! N = 2^13 with six 36-bit limbs and dnum 3.
//!
//! An op encrypts two vectors `a` and `b`, then at each level from
//! the top down to level 1 computes `x <- rotsum(rescale(x * b))`,
//! where `rotsum(x) = s + rot(s, 4)` and `s = x + rot(x, 1) +
//! rot(x, 2) + rot(x, 3)`. The three rotations of `x` share their
//! input and go through one hoisted decomposition; the last one does
//! not and takes the plain key-switched path. The op ends by
//! decrypting and decoding, and the result is compared slot by slot
//! with the same chain on plaintext.

use crate::workload::{model, op_seed, OpFacts, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_ckks::{Ciphertext, CkksContext, Evaluator, KeySet, SecretKey};
use ufc_isa::trace::Trace;
use ufc_math::ntt::NttContext;

const LOG_N: u32 = 13;
const Q_LIMBS: usize = 6;
const P_LIMBS: usize = 2;
const DNUM: usize = 3;
const LIMB_BITS: u32 = 36;
const SCALE_BITS: u32 = 36;
/// Rotations of the hoisted group; one more by `HOISTED.len() + 1`
/// doubles the window to eight slots.
const HOISTED: [isize; 3] = [1, 2, 3];
const TAIL_STEP: isize = 4;
/// The lowest level the chain reaches before decryption.
const LAST_LEVEL: usize = 1;
/// Precision an op must reach; the chain measures well above it.
pub const PRECISION_FLOOR_BITS: f64 = 10.0;
/// Paper parameter set the op's trace is modelled at.
const SIM_PARAMS: &str = "C1";

/// Context, keys and evaluator for the chain.
pub struct CkksStep {
    seed: u64,
    ev: Evaluator,
    sk: SecretKey,
    keys: KeySet,
    trace: Option<Trace>,
}

/// Two generated vectors and the plaintext result of the chain.
pub struct Input {
    a: Vec<f64>,
    b: Vec<f64>,
    expected: Vec<f64>,
    rng_seed: u64,
}

/// Decoded slots and the evaluator's record of the op.
pub struct Output {
    /// Decoded slot values.
    pub slots: Vec<f64>,
    /// Ops the evaluator recorded, for the modelled makespan.
    pub trace: Trace,
}

fn rot(v: &[f64], step: isize) -> Vec<f64> {
    let n = v.len();
    (0..n).map(|i| v[(i + step as usize) % n]).collect()
}

fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// The chain on plaintext, for `levels` multiply steps.
fn plain_chain(a: &[f64], b: &[f64], levels: usize) -> Vec<f64> {
    let mut x = a.to_vec();
    for _ in 0..levels {
        x = x.iter().zip(b).map(|(x, y)| x * y).collect();
        let mut s = x.clone();
        for &r in &HOISTED {
            s = add(&s, &rot(&x, r));
        }
        x = add(&s, &rot(&s, TAIL_STEP));
    }
    x
}

impl CkksStep {
    fn rotsum(&self, x: &Ciphertext) -> Ciphertext {
        let hoisted = self.ev.hoist(x);
        let mut s = x.clone();
        for &r in &HOISTED {
            s = self
                .ev
                .add(&s, &self.ev.rotate_hoisted(x, &hoisted, r, &self.keys));
        }
        let tail = self.ev.rotate(&s, TAIL_STEP, &self.keys);
        self.ev.add(&s, &tail)
    }
}

/// `-log2` of the largest slot error, or minus infinity when a slot
/// is missing or not finite.
pub fn precision_bits(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() || got.iter().any(|g| !g.is_finite()) {
        return f64::NEG_INFINITY;
    }
    let err = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0_f64, f64::max);
    -err.max(f64::MIN_POSITIVE).log2()
}

/// The precision of decoded slots, failing below `floor` bits.
pub fn check_precision(got: &[f64], want: &[f64], floor: f64) -> Result<f64, String> {
    let bits = precision_bits(got, want);
    if bits < floor {
        return Err(format!("precision {bits:.2} bits below the {floor} floor"));
    }
    Ok(bits)
}

impl Workload for CkksStep {
    type Input = Input;
    type Output = Output;
    const WORK_UNIT: &'static str = "chains";

    fn setup(seed: u64) -> Self {
        let ctx = CkksContext::new(1 << LOG_N, Q_LIMBS, P_LIMBS, DNUM, LIMB_BITS, SCALE_BITS);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
        for step in HOISTED.into_iter().chain([TAIL_STEP]) {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        Self {
            seed,
            ev: Evaluator::new(ctx),
            sk,
            keys,
            trace: None,
        }
    }

    fn input(&mut self, index: u64) -> Input {
        let mut rng = StdRng::seed_from_u64(op_seed(self.seed, index));
        let slots = self.ev.context().slots();
        let mut draw = |r: f64| {
            (0..slots)
                .map(|_| rng.gen_range(-r..r))
                .collect::<Vec<f64>>()
        };
        // |b| <= 1/2 keeps the eight-term sums near unit magnitude.
        let (a, b) = (draw(1.0), draw(0.5));
        let levels = self.ev.context().max_level() - LAST_LEVEL;
        Input {
            expected: plain_chain(&a, &b, levels),
            a,
            b,
            rng_seed: rng.gen_range(0..u64::MAX),
        }
    }

    fn run(&mut self, input: &Input) -> Output {
        let mut rng = StdRng::seed_from_u64(input.rng_seed);
        let mut x = self.ev.encrypt_real(&input.a, &self.keys, &mut rng);
        let y = self.ev.encrypt_real(&input.b, &self.keys, &mut rng);
        while x.level > LAST_LEVEL {
            let prod = self.ev.rescale(&self.ev.mul(&x, &y, &self.keys));
            x = self.rotsum(&prod);
        }
        let coeffs = self.ev.decrypt_coeffs(&x, &self.sk);
        let slots = {
            let _span = ufc_trace::span("ckks", "decode");
            self.ev.encoder().decode_real(&coeffs, x.scale)
        };
        Output {
            slots,
            trace: self.ev.take_trace(),
        }
    }

    fn check(&mut self, input: &Input, output: &Output) -> Result<OpFacts, String> {
        let bits = check_precision(&output.slots, &input.expected, PRECISION_FLOOR_BITS)?;
        let mut trace = output.trace.clone().with_ckks(SIM_PARAMS);
        trace.name = "ckks_step".into();
        let cycles = model(std::slice::from_ref(&trace))?.cycles;
        self.trace.get_or_insert(trace);
        Ok(OpFacts {
            work: 1,
            precision_bits: Some(bits),
            sim_cycles: cycles,
        })
    }

    fn sim_traces(&self) -> Vec<Trace> {
        self.trace.iter().cloned().collect()
    }

    fn rings(&self) -> Vec<&NttContext> {
        let ctx = self.ev.context();
        (0..ctx.q_moduli().len())
            .map(|i| ctx.ntt_q(i))
            .chain((0..ctx.p_moduli().len()).map(|i| ctx.ntt_p(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_chain_sums_eight_rotations() {
        let a: Vec<f64> = (0..16).map(f64::from).collect();
        let b = vec![1.0; 16];
        let x = plain_chain(&a, &b, 1);
        // Slot 0 sums a[0..8].
        assert_eq!(x[0], (0..8).map(f64::from).sum::<f64>());
        // Slot 15 wraps: a[15] + a[0..7].
        assert_eq!(x[15], 15.0 + (0..7).map(f64::from).sum::<f64>());
    }

    #[test]
    fn a_corrupted_slot_fails_the_precision_floor() {
        let want = vec![0.5; 8];
        let mut got = want.clone();
        assert!(check_precision(&got, &want, PRECISION_FLOOR_BITS).is_ok());
        got[3] += 1e-2;
        assert!(check_precision(&got, &want, PRECISION_FLOOR_BITS).is_err());
        got[3] = f64::NAN;
        assert!(check_precision(&got, &want, PRECISION_FLOOR_BITS).is_err());
        assert!(check_precision(&got[..7], &want, PRECISION_FLOOR_BITS).is_err());
    }
}
