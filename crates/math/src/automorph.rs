//! Galois automorphisms `X ↦ X^k` of the negacyclic ring — CKKS's
//! `AUTO` primitive (Table I) — including the paper's shuffle-free
//! **automorphism-via-NTT** trick (§IV-C2): instead of wiring an
//! all-to-all permutation network, UFC computes the automorphism by
//! running the NTT with the root ψ replaced by ψ^k.

use crate::modops::{neg_mod, pow_mod};
use crate::ntt::NttContext;

/// Applies the automorphism `f(X) → f(X^k)` in coefficient form,
/// scattering `src` into `dst` — the kernel behind
/// [`crate::plane::RnsPlane::automorph_assign`].
///
/// `k` must be odd (so the map is a ring automorphism of
/// `Z_q[X]/(X^N+1)`). Coefficient `i` moves to `i*k mod 2N`, picking up
/// a sign when it crosses `N`.
///
/// # Panics
///
/// Panics if `k` is even or the slices' lengths differ.
pub fn apply_coeff_slice(src: &[u64], dst: &mut [u64], k: usize, q: u64) {
    assert!(k % 2 == 1, "automorphism exponent must be odd");
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    let two_n = 2 * n;
    for (i, &c) in src.iter().enumerate() {
        let j = (i * k) % two_n;
        if j < n {
            dst[j] = c;
        } else {
            dst[j - n] = neg_mod(c, q);
        }
    }
}

/// Applies the automorphism in evaluation (NTT) form, where it is a
/// pure index permutation (no arithmetic) of `src` into `dst`.
///
/// With the natural-order negacyclic NTT (evaluation point `j` is
/// `ψ^(2j+1)`), the automorphed polynomial's evaluation at point `j`
/// is the original's value at the point `ψ^(k(2j+1))`, i.e. index
/// `j' = (k(2j+1) - 1)/2 mod N`.
///
/// # Panics
///
/// Panics if `k` is even or the slices' lengths differ.
pub fn apply_eval_slice(src: &[u64], dst: &mut [u64], k: usize) {
    assert!(k % 2 == 1, "automorphism exponent must be odd");
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    let two_n = 2 * n;
    for (j, slot) in dst.iter_mut().enumerate() {
        let src_odd = (k * (2 * j + 1)) % two_n;
        debug_assert_eq!(src_odd % 2, 1);
        let src_idx = (src_odd - 1) / 2;
        *slot = src[src_idx];
    }
}

/// The CKKS rotation exponent: rotating packed slots by `r` steps uses
/// the automorphism with `k = 5^r mod 2N` (and conjugation uses
/// `k = 2N - 1`).
pub fn rotation_exponent(r: isize, n: usize) -> usize {
    let two_n = 2 * n as u64;
    // The slot group is generated by 5 with order N/2; negative
    // rotations use the inverse element.
    let order = (n / 2) as isize;
    let r = r.rem_euclid(order) as u64;
    pow_mod(5, r, two_n) as usize
}

/// Builds an [`NttContext`] whose transform computes
/// `NTT(f)(points of ψ^k)` — evaluating the *automorphed* polynomial —
/// without any data shuffle (paper §IV-C2).
///
/// `ψ^k` is again a primitive 2N-th root because `k` is odd.
pub fn ntt_context_for_automorphism(base: &NttContext, k: usize) -> NttContext {
    assert!(k % 2 == 1, "automorphism exponent must be odd");
    let psi_k = pow_mod(base.psi(), k as u64, base.modulus());
    NttContext::with_psi(base.dim(), base.modulus(), psi_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_prime;

    fn ring(n: usize) -> NttContext {
        NttContext::new(n, generate_ntt_prime(n, 40).unwrap())
    }

    fn coeff(src: &[u64], k: usize, q: u64) -> Vec<u64> {
        let mut out = vec![0; src.len()];
        apply_coeff_slice(src, &mut out, k, q);
        out
    }

    fn eval(src: &[u64], k: usize) -> Vec<u64> {
        let mut out = vec![0; src.len()];
        apply_eval_slice(src, &mut out, k);
        out
    }

    fn forward(ctx: &NttContext, p: &[u64]) -> Vec<u64> {
        let mut out = p.to_vec();
        ctx.forward(&mut out);
        out
    }

    #[test]
    fn identity_automorphism() {
        let ctx = ring(16);
        let p: Vec<u64> = (0..16).collect();
        assert_eq!(coeff(&p, 1, ctx.modulus()), p);
        assert_eq!(eval(&p, 1), p);
    }

    #[test]
    fn coeff_map_known_small_case() {
        // N = 4, k = 3: X -> X^3, X^2 -> X^6 = -X^2, X^3 -> X^9 = X.
        let q = ring(4).modulus();
        assert_eq!(coeff(&[10, 20, 30, 40], 3, q), [10, 40, q - 30, 20]);
    }

    #[test]
    fn automorphism_is_multiplicative() {
        // applying k then k' equals applying k*k' mod 2N.
        let q = ring(32).modulus();
        let p: Vec<u64> = (0..32u64).map(|i| i * i + 1).collect();
        assert_eq!(coeff(&coeff(&p, 5, q), 7, q), coeff(&p, 35, q));
    }

    #[test]
    fn eval_form_commutes_with_ntt() {
        // NTT(auto_k(p)) == auto_eval_k(NTT(p)).
        let ctx = ring(32);
        let p: Vec<u64> = (0..32u64).map(|i| 3 * i + 7).collect();
        for k in [3usize, 5, 9, 63] {
            let lhs = forward(&ctx, &coeff(&p, k, ctx.modulus()));
            let rhs = eval(&forward(&ctx, &p), k);
            assert_eq!(lhs, rhs, "k = {k}");
        }
    }

    #[test]
    fn automorphism_via_ntt_trick() {
        // §IV-C2: the NTT with ψ replaced by ψ^k, run on the *original*
        // coefficients, evaluates p at the points (ψ^k)^(2j+1) — which
        // is exactly the evaluation-form automorphism of NTT_ψ(p), so
        // the hardware needs no data shuffle.
        let ctx = ring(16);
        let p: Vec<u64> = (0..16u64).map(|i| 7 * i + 2).collect();
        let k = 5usize;
        let ctx_k = ntt_context_for_automorphism(&ctx, k);
        assert_eq!(forward(&ctx_k, &p), eval(&forward(&ctx, &p), k));
    }

    #[test]
    fn rotation_exponents_are_odd_and_cyclic() {
        let n = 64;
        for r in [-3isize, -1, 0, 1, 2, 31] {
            let k = rotation_exponent(r, n);
            assert_eq!(k % 2, 1, "exponent must be odd");
        }
        assert_eq!(rotation_exponent(0, n), 1);
        // r and r + order give the same exponent.
        assert_eq!(
            rotation_exponent(3, n),
            rotation_exponent(3 + (n as isize / 2), n)
        );
    }

    #[test]
    fn eval_permutation_is_a_bijection() {
        let p: Vec<u64> = (0..64).collect();
        for k in [3usize, 5, 127] {
            let mut sorted = eval(&p, k);
            sorted.sort_unstable();
            assert_eq!(sorted, p, "k = {k}");
        }
    }
}
