//! LWE key switching: converts an LWE ciphertext under the flattened
//! ring key (dimension `N`) back to the standard key (dimension `n`)
//! with base-`B_ks` digit decomposition (§II-C3).

use crate::context::TfheContext;
use crate::keys::TfheKeys;
use crate::lwe::LweCiphertext;

/// Key-switches `ct` (under the ring key, dimension `N`) to the small
/// LWE key.
///
/// `out = (0, b) − Σ_{i,j} d_{i,j} · ksk[i][j]` where `d_{i,j}` are
/// the balanced digits of `a_i`.
///
/// # Panics
///
/// Panics if `ct` is not of ring dimension.
pub fn key_switch(ctx: &TfheContext, keys: &TfheKeys, ct: &LweCiphertext) -> LweCiphertext {
    let _span = ufc_trace::span_n("tfhe", "key_switch", ctx.lwe_dim() as u64);
    assert_eq!(ct.dim(), ctx.ring_dim(), "input must be under the ring key");
    let g = ctx.ks_gadget();
    let mut out = LweCiphertext::trivial(ct.b, ctx.lwe_dim(), ctx.q());
    for (i, &ai) in ct.a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &d) in g.decompose_scalar(ai).iter().enumerate() {
            if d == 0 {
                continue;
            }
            out.sub_scaled_assign(&keys.ksk[i][j], d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlwe::RlweCiphertext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::plane::{Form, RnsPlane};

    #[test]
    fn key_switch_preserves_message() {
        let ctx = TfheContext::new(32, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(51);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        let ring_key = keys.ring_key_flat(ctx.q());
        for m in 0..4u64 {
            let enc = ctx.encode(m, 4);
            let big = LweCiphertext::encrypt(&ctx, &ring_key, enc, &mut rng);
            let small = key_switch(&ctx, &keys, &big);
            assert_eq!(small.dim(), 32);
            assert_eq!(small.decrypt(&ctx, &keys.lwe_sk, 4), m, "m={m}");
        }
    }

    #[test]
    fn key_switch_after_extraction() {
        // The full §II-D pipeline step: RLWE → extract → key switch.
        let ctx = TfheContext::new(32, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(52);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        let m = RnsPlane::from_flat(
            (0..256u64).map(|i| ctx.encode(i % 4, 4)).collect(),
            &[ctx.q()],
            Form::Coeff,
        );
        let rlwe = RlweCiphertext::encrypt(&ctx, &keys.ring_sk, &m, &mut rng);
        for idx in [0usize, 7, 100] {
            let extracted = rlwe.sample_extract(idx);
            let switched = key_switch(&ctx, &keys, &extracted);
            assert_eq!(
                switched.decrypt(&ctx, &keys.lwe_sk, 4),
                idx as u64 % 4,
                "idx={idx}"
            );
        }
    }
}
