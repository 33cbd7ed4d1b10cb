//! RLWE ciphertexts over the TFHE ring, with sample extraction —
//! the `Extract` primitive of Table I.

use crate::context::TfheContext;
use crate::lwe::LweCiphertext;
use rand::Rng;
use ufc_math::modops::{from_signed, neg_mod};
use ufc_math::plane::{Form, RnsPlane};
use ufc_math::sample::{gaussian_signed, uniform_plane};

/// An RLWE encryption `(a, b)` with `b = a·s + m + e` over
/// `Z_q[X]/(X^N+1)`: two one-limb planes, kept in coefficient form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlweCiphertext {
    /// Mask polynomial.
    pub a: RnsPlane,
    /// Body polynomial.
    pub b: RnsPlane,
}

impl RlweCiphertext {
    /// The trivial encryption of plaintext polynomial `m`.
    pub fn trivial(m: RnsPlane, ctx: &TfheContext) -> Self {
        Self {
            a: RnsPlane::zero(ctx.ring_dim(), &[ctx.q()], m.form()),
            b: m,
        }
    }

    /// Encrypts plaintext polynomial `m` under ring key `s` (signed
    /// coefficients).
    pub fn encrypt<R: Rng + ?Sized>(
        ctx: &TfheContext,
        s_signed: &[i64],
        m: &RnsPlane,
        rng: &mut R,
    ) -> Self {
        let q = [ctx.q()];
        let n = ctx.ring_dim();
        let a = uniform_plane(rng, n, &q);
        let e = RnsPlane::from_signed(&gaussian_signed(rng, n, ctx.sigma()), &q);
        let mut b = mul_by_key(ctx, &a, s_signed);
        b.add_assign(&e);
        b.add_assign(m);
        Self { a, b }
    }

    /// Computes the phase polynomial `b - a·s`.
    pub fn phase(&self, ctx: &TfheContext, s_signed: &[i64]) -> RnsPlane {
        let mut p = mul_by_key(ctx, &self.a, s_signed);
        p.neg_assign();
        p.add_assign(&self.b);
        p
    }

    /// Homomorphic addition.
    pub fn add(&self, rhs: &Self) -> Self {
        let mut out = self.clone();
        out.a.add_assign(&rhs.a);
        out.b.add_assign(&rhs.b);
        out
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        let mut out = self.clone();
        out.a.sub_assign(&rhs.a);
        out.b.sub_assign(&rhs.b);
        out
    }

    /// Multiplies both components by the monomial `X^k` (`k < 2N`) —
    /// the rotation step of blind rotation.
    pub fn rotate(&self, k: usize) -> Self {
        Self {
            a: self.a.rotate_monomial(k),
            b: self.b.rotate_monomial(k),
        }
    }

    /// Extracts the LWE encryption of coefficient `idx` of the phase,
    /// under the flattened ring key. This is the scheme-switching
    /// `Extract` primitive (§II-D), executed by UFC's near-memory LWE
    /// unit (§IV-B4).
    pub fn sample_extract(&self, idx: usize) -> LweCiphertext {
        let n = self.a.dim();
        let q = self.a.modulus(0);
        let (a, b) = (self.a.limb(0), self.b.limb(0));
        assert!(idx < n, "coefficient index out of range");
        // coeff_idx(a·s) = Σ_{j<=idx} a_{idx-j} s_j - Σ_{j>idx} a_{N+idx-j} s_j.
        let mut a_vec = vec![0u64; n];
        for (j, slot) in a_vec.iter_mut().enumerate() {
            *slot = if j <= idx {
                a[idx - j]
            } else {
                neg_mod(a[n + idx - j], q)
            };
        }
        LweCiphertext {
            a: a_vec,
            b: b[idx],
            q,
        }
    }
}

/// `a · s` for the signed ring key `s`, through the exact NTT product
/// whatever the context's datapath: key material is built exactly.
fn mul_by_key(ctx: &TfheContext, a: &RnsPlane, s_signed: &[i64]) -> RnsPlane {
    let q = ctx.q();
    let s = flatten_ring_key(s_signed, q);
    RnsPlane::from_flat_unchecked(ctx.ntt().negacyclic_mul(a.limb(0), &s), &[q], Form::Coeff)
}

/// Flattens a signed ring key into the LWE key vector used by
/// [`RlweCiphertext::sample_extract`] outputs.
pub fn flatten_ring_key(s_signed: &[i64], q: u64) -> Vec<u64> {
    s_signed.iter().map(|&v| from_signed(v, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::modops::to_signed;

    fn plane(coeffs: Vec<u64>, ctx: &TfheContext) -> RnsPlane {
        RnsPlane::from_flat(coeffs, &[ctx.q()], Form::Coeff)
    }

    fn setup() -> (TfheContext, Vec<i64>, StdRng) {
        let ctx = TfheContext::new(16, 64, 7, 3, 4, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let s: Vec<i64> = (0..64)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..=1i64))
            .collect();
        (ctx, s, rng)
    }

    #[test]
    fn encrypt_phase_is_message_plus_noise() {
        let (ctx, s, mut rng) = setup();
        let m = plane((0..64u64).map(|i| ctx.encode(i % 4, 4)).collect(), &ctx);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let phase = ct.phase(&ctx, &s);
        for (got, want) in phase.limb(0).iter().zip(m.limb(0)) {
            let diff = to_signed(
                if got >= want {
                    got - want
                } else {
                    ctx.q() - (want - got)
                },
                ctx.q(),
            );
            assert!(diff.abs() < 64, "noise too large: {diff}");
        }
    }

    #[test]
    fn rotation_shifts_phase_coefficients() {
        let (ctx, s, mut rng) = setup();
        let m = RnsPlane::monomial(ctx.encode(1, 4), 0, 64, &[ctx.q()]);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let rot = ct.rotate(3);
        let phase = rot.phase(&ctx, &s);
        // Message moved to coefficient 3.
        let dec = ctx.decode(phase.limb(0)[3], 4);
        assert_eq!(dec, 1);
        assert_eq!(ctx.decode(phase.limb(0)[0], 4), 0);
    }

    #[test]
    fn sample_extract_matches_phase_coefficient() {
        let (ctx, s, mut rng) = setup();
        let m = plane(
            (0..64u64).map(|i| ctx.encode((i * 3) % 8, 8)).collect(),
            &ctx,
        );
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let key = flatten_ring_key(&s, ctx.q());
        for idx in [0usize, 1, 17, 63] {
            let lwe = ct.sample_extract(idx);
            assert_eq!(lwe.dim(), 64);
            let dec = lwe.decrypt(&ctx, &key, 8);
            assert_eq!(dec, (idx as u64 * 3) % 8, "idx={idx}");
        }
    }

    #[test]
    fn trivial_extract_roundtrip() {
        let ctx = TfheContext::new(16, 64, 7, 3, 4, 3);
        let m = plane((0..64u64).map(|i| i * 1000).collect(), &ctx);
        let ct = RlweCiphertext::trivial(m.clone(), &ctx);
        let lwe = ct.sample_extract(5);
        assert_eq!(lwe.b, m.limb(0)[5]);
        assert!(lwe.a.iter().all(|&x| x == 0));
    }
}
