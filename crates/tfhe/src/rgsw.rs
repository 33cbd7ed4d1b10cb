//! RGSW ciphertexts, external products and CMux — the engine of
//! TFHE's blind rotation.

use crate::context::{MulBackend, TfheContext};
use crate::rlwe::RlweCiphertext;
use rand::Rng;
use ufc_math::plane::{Form, RnsPlane};

/// An RGSW encryption of a small scalar/monomial `m`: `2·levels` RLWE
/// rows arranged as `Z + m·G` (§II-A3).
///
/// Rows `0..levels` perturb the mask component (`a`-rows); rows
/// `levels..2·levels` perturb the body (`b`-rows).
///
/// On the NTT datapath the four row polynomials per level are also
/// cached in evaluation form at encryption time, so every external
/// product only transforms the *digits* of its RLWE operand (2 forward
/// NTTs per level plus 2 inverse NTTs total, instead of 4 full
/// negacyclic products per level). Mutating `a_rows` / `b_rows` after
/// encryption does not refresh this cache.
#[derive(Debug, Clone)]
pub struct RgswCiphertext {
    /// `a`-rows: RLWE(0) with `m·w_l` added to the mask.
    pub a_rows: Vec<RlweCiphertext>,
    /// `b`-rows: RLWE(m·w_l).
    pub b_rows: Vec<RlweCiphertext>,
    /// Evaluation-form images `[a_row.a, a_row.b, b_row.a, b_row.b]`
    /// per level; empty on the FFT datapath.
    eval_rows: Vec<[RnsPlane; 4]>,
}

impl RgswCiphertext {
    /// Encrypts plaintext polynomial `m` (usually a bit or a monomial)
    /// under ring key `s`.
    pub fn encrypt<R: Rng + ?Sized>(
        ctx: &TfheContext,
        s_signed: &[i64],
        m: &RnsPlane,
        rng: &mut R,
    ) -> Self {
        let levels = ctx.gadget().levels();
        let zero = RnsPlane::zero(ctx.ring_dim(), &[ctx.q()], Form::Coeff);
        let mut a_rows = Vec::with_capacity(levels);
        let mut b_rows = Vec::with_capacity(levels);
        for l in 0..levels {
            let mut mw = m.clone();
            mw.scale_limbs_assign(&[ctx.gadget().weight(l)]);
            // a-row: RLWE(0), then add m·w to the mask.
            let mut row = RlweCiphertext::encrypt(ctx, s_signed, &zero, rng);
            row.a.add_assign(&mw);
            a_rows.push(row);
            // b-row: RLWE(m·w).
            b_rows.push(RlweCiphertext::encrypt(ctx, s_signed, &mw, rng));
        }
        let eval_rows = match ctx.backend() {
            MulBackend::Ntt => {
                let to_eval = |p: &RnsPlane| {
                    let mut e = p.clone();
                    e.ntt_forward(&[ctx.ntt()]);
                    e
                };
                a_rows
                    .iter()
                    .zip(&b_rows)
                    .map(|(ar, br)| {
                        [
                            to_eval(&ar.a),
                            to_eval(&ar.b),
                            to_eval(&br.a),
                            to_eval(&br.b),
                        ]
                    })
                    .collect()
            }
            MulBackend::Fft => Vec::new(),
        };
        Self {
            a_rows,
            b_rows,
            eval_rows,
        }
    }

    /// Encrypts the scalar bit `bit ∈ {0, 1}` (used for bootstrapping
    /// keys).
    pub fn encrypt_bit<R: Rng + ?Sized>(
        ctx: &TfheContext,
        s_signed: &[i64],
        bit: u64,
        rng: &mut R,
    ) -> Self {
        let m = RnsPlane::monomial(bit, 0, ctx.ring_dim(), &[ctx.q()]);
        Self::encrypt(ctx, s_signed, &m, rng)
    }

    /// External product `self ⊡ ct`: returns an RLWE encryption of
    /// `m · phase(ct)`. Decomposes both components of `ct` with the
    /// RGSW gadget and accumulates digit-by-row polynomial products —
    /// the NTT/EWMM-heavy kernel of functional bootstrapping.
    pub fn external_product(&self, ctx: &TfheContext, ct: &RlweCiphertext) -> RlweCiphertext {
        let _span = ufc_trace::span_n("tfhe", "external_product", ctx.ring_dim() as u64);
        let g = ctx.gadget();
        let a_digits = g.decompose_poly(&ct.a);
        let b_digits = g.decompose_poly(&ct.b);
        if ctx.backend() == MulBackend::Ntt {
            // Digit-domain accumulation: forward-transform each digit
            // once, MAC against the cached evaluation-form rows, and
            // invert the two accumulators at the end.
            let ntt = [ctx.ntt()];
            let mut acc_a = RnsPlane::zero(ctx.ring_dim(), &[ctx.q()], Form::Eval);
            let mut acc_b = acc_a.clone();
            for (l, (mut da, mut db)) in a_digits.into_iter().zip(b_digits).enumerate() {
                da.ntt_forward(&ntt);
                db.ntt_forward(&ntt);
                let [ra_a, ra_b, rb_a, rb_b] = &self.eval_rows[l];
                acc_a.mac_assign(&da, ra_a);
                acc_b.mac_assign(&da, ra_b);
                acc_a.mac_assign(&db, rb_a);
                acc_b.mac_assign(&db, rb_b);
            }
            acc_a.ntt_inverse(&ntt);
            acc_b.ntt_inverse(&ntt);
            RlweCiphertext { a: acc_a, b: acc_b }
        } else {
            let mut acc_a = RnsPlane::zero(ctx.ring_dim(), &[ctx.q()], Form::Coeff);
            let mut acc_b = acc_a.clone();
            for l in 0..g.levels() {
                // digit(a)_l × a_row_l + digit(b)_l × b_row_l through
                // the FFT datapath (Strix).
                let da = &a_digits[l];
                let db = &b_digits[l];
                acc_a.add_assign(&ctx.poly_mul(da, &self.a_rows[l].a));
                acc_a.add_assign(&ctx.poly_mul(db, &self.b_rows[l].a));
                acc_b.add_assign(&ctx.poly_mul(da, &self.a_rows[l].b));
                acc_b.add_assign(&ctx.poly_mul(db, &self.b_rows[l].b));
            }
            RlweCiphertext { a: acc_a, b: acc_b }
        }
    }

    /// CMux: returns an encryption of `ct0` if the RGSW bit is 0 and
    /// `ct1` if it is 1: `ct0 + bit ⊡ (ct1 - ct0)`.
    pub fn cmux(
        &self,
        ctx: &TfheContext,
        ct0: &RlweCiphertext,
        ct1: &RlweCiphertext,
    ) -> RlweCiphertext {
        let diff = ct1.sub(ct0);
        ct0.add(&self.external_product(ctx, &diff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::modops::to_signed;

    fn setup() -> (TfheContext, Vec<i64>, StdRng) {
        let ctx = TfheContext::new(16, 128, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let s: Vec<i64> = (0..128).map(|_| rng.gen_range(0..=1i64)).collect();
        (ctx, s, rng)
    }

    fn plane(coeffs: Vec<u64>, ctx: &TfheContext) -> RnsPlane {
        RnsPlane::from_flat(coeffs, &[ctx.q()], Form::Coeff)
    }

    fn phase_error(ctx: &TfheContext, got: &RnsPlane, want: &RnsPlane) -> i64 {
        got.limb(0)
            .iter()
            .zip(want.limb(0))
            .map(|(&g, &w)| {
                to_signed(if g >= w { g - w } else { ctx.q() - (w - g) }, ctx.q()).abs()
            })
            .max()
            .unwrap()
    }

    #[test]
    fn external_product_by_one_is_identity() {
        let (ctx, s, mut rng) = setup();
        let m = plane((0..128u64).map(|i| ctx.encode(i % 4, 4)).collect(), &ctx);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let one = RgswCiphertext::encrypt_bit(&ctx, &s, 1, &mut rng);
        let out = one.external_product(&ctx, &ct);
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &m);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (ctx, s, mut rng) = setup();
        let m = plane(vec![ctx.encode(1, 2); 128], &ctx);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let zero = RgswCiphertext::encrypt_bit(&ctx, &s, 0, &mut rng);
        let out = zero.external_product(&ctx, &ct);
        let z = RnsPlane::zero(128, &[ctx.q()], Form::Coeff);
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &z);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn external_product_by_monomial_rotates() {
        let (ctx, s, mut rng) = setup();
        let m = RnsPlane::monomial(ctx.encode(1, 4), 0, 128, &[ctx.q()]);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let x3 = RnsPlane::monomial(1, 3, 128, &[ctx.q()]);
        let rgsw = RgswCiphertext::encrypt(&ctx, &s, &x3, &mut rng);
        let out = rgsw.external_product(&ctx, &ct);
        let expect = m.rotate_monomial(3);
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &expect);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn cmux_selects() {
        let (ctx, s, mut rng) = setup();
        let m0 = plane(vec![ctx.encode(0, 4); 128], &ctx);
        let m1 = plane(vec![ctx.encode(1, 4); 128], &ctx);
        let ct0 = RlweCiphertext::encrypt(&ctx, &s, &m0, &mut rng);
        let ct1 = RlweCiphertext::encrypt(&ctx, &s, &m1, &mut rng);
        for bit in [0u64, 1] {
            let sel = RgswCiphertext::encrypt_bit(&ctx, &s, bit, &mut rng);
            let out = sel.cmux(&ctx, &ct0, &ct1);
            let want = if bit == 0 { &m0 } else { &m1 };
            let err = phase_error(&ctx, &out.phase(&ctx, &s), want);
            assert!(err < (ctx.q() / 64) as i64, "bit={bit} err={err}");
        }
    }
}
