//! Gadget (digit) decomposition — the `Decomp` primitive of Table I.
//!
//! TFHE's external products and key switching, and CKKS's hybrid
//! key-switching, all decompose big coefficients into small digits so
//! that multiplying by (noisy) key material keeps noise growth linear
//! in the digit size instead of the coefficient size.

use crate::modops::{add_mod, from_signed, mul_mod};
use crate::plane::{Form, RnsPlane};

/// A base-`2^log_base` gadget with `levels` digits over modulus `q`.
///
/// The gadget vector is `g = (q/B, q/B², …)` in the *approximate*
/// (MSB-first) convention used by TFHE: digit `j` weights
/// `q / B^(j+1)`, so recomposition approximates the input with error
/// at most `q / B^levels / 2` per coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gadget {
    q: u64,
    log_base: u32,
    levels: usize,
}

impl Gadget {
    /// Creates a gadget for modulus `q`, digit base `2^log_base`, and
    /// `levels` digits.
    ///
    /// # Panics
    ///
    /// Panics if `log_base == 0`, `levels == 0`, or the gadget would
    /// exceed 64 bits of precision.
    pub fn new(q: u64, log_base: u32, levels: usize) -> Self {
        assert!(log_base > 0, "digit base must be at least 2");
        assert!(levels > 0, "need at least one digit");
        assert!(
            log_base as usize * levels <= 64,
            "gadget precision exceeds 64 bits"
        );
        Self {
            q,
            log_base,
            levels,
        }
    }

    /// Modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Number of digits.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Digit base `B = 2^log_base`.
    #[inline]
    pub fn base(&self) -> u64 {
        1u64 << self.log_base
    }

    /// The gadget weight of digit `j`: `round(q / B^(j+1))`.
    pub fn weight(&self, j: usize) -> u64 {
        debug_assert!(j < self.levels);
        // Compute round(q / 2^(log_base*(j+1))) without overflow.
        let shift = self.log_base as u64 * (j as u64 + 1);
        if shift >= 64 {
            // q < 2^64 always, so the weight rounds to 0 or 1.
            return if shift > 64 {
                0
            } else {
                u64::from(self.q >> 63 != 0)
            };
        }
        let div = 1u128 << shift;
        ((self.q as u128 + div / 2) / div) as u64
    }

    /// Signed (centered) decomposition of one residue.
    ///
    /// Returns `levels` digits in `[-B/2, B/2]` such that
    /// `sum_j digit_j * weight(j) ≈ v (mod q)` with rounding error
    /// below `weight(levels-1) / 2 + levels` (the approximate-gadget
    /// error TFHE tolerates).
    pub fn decompose_scalar(&self, v: u64) -> Vec<i64> {
        debug_assert!(v < self.q);
        let total_bits = self.log_base as u64 * self.levels as u64;
        // Scale v from modulus q to the 2^total_bits gadget domain,
        // with rounding.
        let scaled = (((v as u128) << total_bits) + self.q as u128 / 2) / self.q as u128;
        let mask = (1u128 << total_bits) - 1;
        let x = scaled & mask;
        // Balanced base-B digits, MSB digit first.
        let b = 1i64 << self.log_base;
        let mut digits = vec![0i64; self.levels];
        let mut carry = 0i64;
        for j in (0..self.levels).rev() {
            let shift = self.log_base as u64 * (self.levels - 1 - j) as u64;
            let mut d = ((x >> shift) & ((b - 1) as u128)) as i64 + carry;
            if d > b / 2 {
                d -= b;
                carry = 1;
            } else {
                carry = 0;
            }
            digits[j] = d;
        }
        // Drop a final carry: it corresponds to adding q (a no-op mod q).
        let _ = x;
        digits
    }

    /// Recomposes digits into a residue: `sum_j digit_j * weight(j) mod q`.
    pub fn recompose_scalar(&self, digits: &[i64]) -> u64 {
        assert_eq!(digits.len(), self.levels, "digit count mismatch");
        let mut acc = 0u64;
        for (j, &d) in digits.iter().enumerate() {
            let term = mul_mod(from_signed(d, self.q), self.weight(j), self.q);
            acc = add_mod(acc, term, self.q);
        }
        acc
    }

    /// Decomposes every coefficient of a one-limb coefficient-form
    /// plane over `q`, producing `levels` digit planes (signed digits
    /// mapped into `Z_q`).
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a single coefficient-form limb over `q`.
    pub fn decompose_poly(&self, p: &RnsPlane) -> Vec<RnsPlane> {
        assert_eq!(p.moduli(), [self.q], "modulus mismatch");
        assert_eq!(
            p.form(),
            Form::Coeff,
            "decomposition needs coefficient form"
        );
        let n = p.dim();
        let mut out: Vec<Vec<u64>> = vec![vec![0; n]; self.levels];
        for (i, &c) in p.limb(0).iter().enumerate() {
            for (j, &d) in self.decompose_scalar(c).iter().enumerate() {
                out[j][i] = from_signed(d, self.q);
            }
        }
        out.into_iter()
            .map(|v| RnsPlane::from_flat_unchecked(v, &[self.q], Form::Coeff))
            .collect()
    }

    /// Worst-case recomposition error bound (per coefficient, absolute
    /// value on centered representatives).
    ///
    /// Two error sources: truncating the scaled value to `total_bits`
    /// of precision (`≤ q / 2^total_bits`), and rounding each gadget
    /// weight `q / B^(j+1)` to an integer (`≤ levels * (B/2) * 1/2`
    /// after weighting by the balanced digits). For prime moduli the
    /// gadget is inherently approximate — the standard situation for
    /// NTT-based TFHE (paper §VII-D).
    pub fn error_bound(&self) -> u64 {
        let total_bits = self.log_base as u64 * self.levels as u64;
        let truncation = if total_bits >= 63 {
            1
        } else {
            (self.q >> total_bits) + 2
        };
        let weight_rounding = self.levels as u64 * (self.base() / 4 + 1);
        truncation + weight_rounding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::to_signed;
    use proptest::prelude::*;

    #[test]
    fn near_exact_when_gadget_covers_modulus() {
        // With 64 bits of precision over a 32-bit modulus the only
        // residual error is the per-weight rounding.
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 8, 8);
        let bound = g.error_bound() as i64;
        for v in [0u64, 1, q - 1, q / 2, 12345678] {
            let rec = g.recompose_scalar(&g.decompose_scalar(v));
            let err = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            assert!(err.abs() <= bound, "v={v} rec={rec} err={err}");
        }
    }

    #[test]
    fn digits_are_balanced() {
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 4, 4);
        for v in (0..q).step_by((q / 257) as usize) {
            for &d in &g.decompose_scalar(v) {
                assert!(d.abs() <= 8, "digit {d} exceeds B/2");
            }
        }
    }

    #[test]
    fn approximate_error_within_bound() {
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 7, 3); // 21 bits of precision < 32
        let bound = g.error_bound() as i64;
        for v in (0..q).step_by((q / 509) as usize) {
            let rec = g.recompose_scalar(&g.decompose_scalar(v));
            let err = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            assert!(
                err.abs() <= bound,
                "v={v} rec={rec} err={err} bound={bound}"
            );
        }
    }

    #[test]
    fn poly_decompose_recompose() {
        let q = crate::prime::generate_ntt_prime(16, 40).unwrap();
        let g = Gadget::new(q, 10, 5); // 50 bits > 40: exact
        let p = RnsPlane::from_flat(
            (0..16u64).map(|i| i * 999_999 % q).collect(),
            &[q],
            Form::Coeff,
        );
        let digits = g.decompose_poly(&p);
        assert_eq!(digits.len(), 5);
        // Recompose: sum_j digits_j * weight_j; approximate per
        // coefficient within the gadget error bound.
        let mut acc = RnsPlane::zero(16, &[q], Form::Coeff);
        for (j, dp) in digits.iter().enumerate() {
            let mut term = dp.clone();
            term.scale_limbs_assign(&[g.weight(j)]);
            acc.add_assign(&term);
        }
        let bound = g.error_bound() as i64;
        for (got, want) in acc.limb(0).iter().zip(p.limb(0)) {
            let err = to_signed(
                if got >= want {
                    got - want
                } else {
                    q - (want - got)
                },
                q,
            );
            assert!(err.abs() <= bound, "err={err} bound={bound}");
        }
    }

    #[test]
    fn weights_are_decreasing() {
        let q = crate::prime::generate_ntt_prime(1024, 50).unwrap();
        let g = Gadget::new(q, 12, 4);
        for j in 1..4 {
            assert!(g.weight(j) < g.weight(j - 1));
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_exact_gadget(v in 0u64..1_152_921_504_598_720_513) {
            let q = 1_152_921_504_598_720_513u64; // 60-bit NTT prime
            let g = Gadget::new(q, 10, 6); // 60 bits precision
            let rec = g.recompose_scalar(&g.decompose_scalar(v % q));
            let v = v % q;
            let diff = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            prop_assert!(diff.abs() <= g.error_bound() as i64);
        }
    }
}
