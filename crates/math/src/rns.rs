//! Residue number systems: CRT representation, Garner reconstruction,
//! fast base conversion (`BConv`, §II-B3) and RNS rescaling.
//!
//! RNS-CKKS represents each big-modulus polynomial as `L` word-size
//! limb polynomials. `BConv` is the dominant MAC workload of CKKS
//! key-switching and the reason SHARP/CraterLake carry wide MAC
//! pipelines; UFC runs the same MACs on its general modular lanes.

use crate::modops::{add_mod, inv_mod, mul_mod, mul_shoup, shoup_precompute, sub_mod};

/// An RNS basis: a list of pairwise-coprime word-size moduli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<u64>,
    /// `qhat_i^{-1} mod q_i` where `qhat_i = Q / q_i`.
    qhat_inv: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from pairwise-coprime moduli.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or the moduli are not pairwise
    /// coprime.
    pub fn new(moduli: Vec<u64>) -> Self {
        assert!(!moduli.is_empty(), "basis needs at least one modulus");
        let qhat_inv = (0..moduli.len())
            .map(|i| {
                let qi = moduli[i];
                // qhat_i mod q_i = prod_{j != i} q_j mod q_i.
                let mut prod = 1u64;
                for (j, &qj) in moduli.iter().enumerate() {
                    if j != i {
                        prod = mul_mod(prod, qj % qi, qi);
                    }
                }
                inv_mod(prod, qi).expect("moduli must be pairwise coprime")
            })
            .collect();
        Self { moduli, qhat_inv }
    }

    /// The moduli, in order.
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of limbs.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// `log2` of the full modulus product, as a float (for level
    /// budgeting).
    pub fn log2_q(&self) -> f64 {
        self.moduli.iter().map(|&q| (q as f64).log2()).sum()
    }

    /// Drops the last modulus, returning the shortened basis (used by
    /// CKKS rescaling, which consumes one limb per multiplication).
    ///
    /// # Panics
    ///
    /// Panics if only one modulus remains.
    pub fn drop_last(&self) -> Self {
        assert!(self.len() > 1, "cannot drop the last remaining modulus");
        Self::new(self.moduli[..self.len() - 1].to_vec())
    }

    /// Decomposes an integer (given as `u128`) into RNS residues.
    pub fn decompose_u128(&self, x: u128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| (x % q as u128) as u64)
            .collect()
    }

    /// Garner (mixed-radix) reconstruction evaluated modulo `m`.
    ///
    /// Computes the unique `x` in `[0, Q)` with the given residues and
    /// returns `x mod m` — using only word-size arithmetic, so it works
    /// for arbitrarily large `Q`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn reconstruct_mod(&self, residues: &[u64], m: u64) -> u64 {
        let digits = self.mixed_radix_digits(residues);
        // x = v0 + q0*(v1 + q1*(v2 + ...)); evaluate Horner-style mod m.
        let mut acc = 0u64;
        for i in (0..self.len()).rev() {
            acc = mul_mod(acc, self.moduli[i] % m, m);
            acc = (acc + digits[i] % m) % m;
        }
        acc
    }

    /// Reconstructs into a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit (i.e. `Q > 2^128` and the
    /// mixed-radix evaluation overflows).
    pub fn reconstruct_u128(&self, residues: &[u64]) -> u128 {
        let digits = self.mixed_radix_digits(residues);
        let mut acc: u128 = 0;
        for i in (0..self.len()).rev() {
            acc = acc
                .checked_mul(self.moduli[i] as u128)
                .and_then(|a| a.checked_add(digits[i] as u128))
                .expect("value exceeds u128");
        }
        acc
    }

    /// Centered reconstruction into `i128` (value in `(-Q/2, Q/2]`).
    pub fn reconstruct_i128(&self, residues: &[u64]) -> i128 {
        let x = self.reconstruct_u128(residues);
        let q: u128 = self.moduli.iter().fold(1u128, |acc, &m| {
            acc.checked_mul(m as u128).expect("Q exceeds u128")
        });
        if x > q / 2 {
            x as i128 - q as i128
        } else {
            x as i128
        }
    }

    /// Mixed-radix digits `v_i` with `x = v0 + q0*v1 + q0*q1*v2 + …`.
    fn mixed_radix_digits(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let k = self.len();
        let mut digits = vec![0u64; k];
        for i in 0..k {
            let qi = self.moduli[i];
            // v_i = (r_i - (v0 + q0*(v1 + ...))) / (q0*...*q_{i-1}) mod q_i
            let mut acc = 0u64;
            for j in (0..i).rev() {
                acc = mul_mod(acc, self.moduli[j] % qi, qi);
                acc = (acc + digits[j] % qi) % qi;
            }
            let mut v = sub_mod(residues[i] % qi, acc % qi, qi);
            for j in 0..i {
                let inv = inv_mod(self.moduli[j] % qi, qi).expect("coprime");
                v = mul_mod(v, inv, qi);
            }
            digits[i] = v;
        }
        digits
    }
}

/// Fast (approximate) base conversion from basis `from` to basis `to`:
/// `BConv(x) = sum_j [x_j * qhat_j^{-1}]_{q_j} * qhat_j mod p_i`
/// (§II-B3). The result may exceed the true value by a small multiple
/// of `Q` (at most `from.len()`), which downstream RNS algorithms
/// tolerate by design.
#[derive(Debug, Clone)]
pub struct BaseConverter {
    from: RnsBasis,
    to: Vec<u64>,
    /// `qhat_j mod p_i`, indexed `[i][j]`.
    qhat_mod_p: Vec<Vec<u64>>,
}

impl BaseConverter {
    /// Precomputes conversion tables from `from` to the moduli of `to`.
    pub fn new(from: &RnsBasis, to: &[u64]) -> Self {
        let qhat_mod_p = to
            .iter()
            .map(|&p| {
                (0..from.len())
                    .map(|j| {
                        let mut prod = 1u64;
                        for (l, &ql) in from.moduli().iter().enumerate() {
                            if l != j {
                                prod = mul_mod(prod, ql % p, p);
                            }
                        }
                        prod
                    })
                    .collect()
            })
            .collect();
        Self {
            from: from.clone(),
            to: to.to_vec(),
            qhat_mod_p,
        }
    }

    /// Source basis.
    pub fn from_basis(&self) -> &RnsBasis {
        &self.from
    }

    /// Target moduli.
    pub fn to_moduli(&self) -> &[u64] {
        &self.to
    }

    /// Converts a single RNS-represented coefficient.
    pub fn convert_scalar(&self, residues: &[u64]) -> Vec<u64> {
        assert_eq!(residues.len(), self.from.len(), "residue count mismatch");
        // y_j = [x_j * qhat_j^{-1}]_{q_j}
        let y: Vec<u64> = residues
            .iter()
            .enumerate()
            .map(|(j, &r)| mul_mod(r, self.from.qhat_inv[j], self.from.moduli[j]))
            .collect();
        self.to
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut acc = 0u64;
                for (j, &yj) in y.iter().enumerate() {
                    acc = (acc + mul_mod(yj % p, self.qhat_mod_p[i][j], p)) % p;
                }
                acc
            })
            .collect()
    }

    /// Converts a polynomial given as one residue row per source
    /// modulus (each row a length-`n` slice); returns the flat
    /// limb-major target buffer (`to.len() · n` words), ready for
    /// [`crate::plane::RnsPlane`] ingestion.
    ///
    /// This is the BConv MAC kernel restructured row-wise: the scaled
    /// residues `y_j = [x_j · qhat_j^{-1}]_{q_j}` are computed once
    /// per source row with a Shoup multiply, then accumulated into
    /// each target limb with Shoup multiplies against the precomputed
    /// `qhat_j mod p_i` — no per-coefficient allocation.
    ///
    /// # Panics
    ///
    /// Panics if the row count differs from the source basis or row
    /// lengths differ.
    pub fn convert_rows(&self, rows: &[&[u64]]) -> Vec<u64> {
        assert_eq!(rows.len(), self.from.len(), "limb count mismatch");
        let n = rows[0].len();
        for r in rows {
            assert_eq!(r.len(), n, "limb dimension mismatch");
        }
        let mut y = vec![0u64; rows.len() * n];
        for (j, row) in rows.iter().enumerate() {
            let qj = self.from.moduli[j];
            let w = self.from.qhat_inv[j];
            let ws = shoup_precompute(w, qj);
            for (dst, &r) in y[j * n..(j + 1) * n].iter_mut().zip(row.iter()) {
                *dst = mul_shoup(r, w, ws, qj);
            }
        }
        let mut out = vec![0u64; self.to.len() * n];
        for (i, &p) in self.to.iter().enumerate() {
            let chunk = &mut out[i * n..(i + 1) * n];
            for j in 0..rows.len() {
                // y_j < q_j may exceed p; the Shoup multiply accepts
                // any u64 operand, so no pre-reduction is needed.
                let t = self.qhat_mod_p[i][j];
                let ts = shoup_precompute(t, p);
                let yrow = &y[j * n..(j + 1) * n];
                for (acc, &yj) in chunk.iter_mut().zip(yrow) {
                    *acc = add_mod(*acc, mul_shoup(yj, t, ts, p), p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use proptest::prelude::*;

    fn basis(k: usize) -> RnsBasis {
        RnsBasis::new(generate_ntt_primes(1 << 10, 40, k))
    }

    #[test]
    fn decompose_reconstruct_small() {
        let b = basis(3);
        for x in [0u128, 1, 42, 1 << 50, (1 << 100) + 12345] {
            let r = b.decompose_u128(x);
            assert_eq!(b.reconstruct_u128(&r), x, "x = {x}");
        }
    }

    #[test]
    fn reconstruct_mod_matches_direct() {
        let b = basis(3);
        let m = 997u64;
        for x in [0u128, 5, 1 << 77, 98765432101234] {
            let r = b.decompose_u128(x);
            assert_eq!(b.reconstruct_mod(&r, m) as u128, x % m as u128);
        }
    }

    #[test]
    fn centered_reconstruction() {
        let b = basis(2);
        let q: u128 = b.moduli().iter().map(|&m| m as u128).product();
        // Encode -5 as Q - 5.
        let r = b.decompose_u128(q - 5);
        assert_eq!(b.reconstruct_i128(&r), -5);
        let r = b.decompose_u128(5);
        assert_eq!(b.reconstruct_i128(&r), 5);
    }

    #[test]
    fn drop_last_shrinks_basis() {
        let b = basis(3);
        let s = b.drop_last();
        assert_eq!(s.len(), 2);
        assert_eq!(s.moduli(), &b.moduli()[..2]);
    }

    #[test]
    fn bconv_is_exact_up_to_q_multiples() {
        let from = basis(3);
        let to = generate_ntt_primes(1 << 10, 41, 2);
        let conv = BaseConverter::new(&from, &to);
        let q: u128 = from.moduli().iter().map(|&m| m as u128).product();
        for x in [0u128, 7, 1 << 90, q - 1, q / 3] {
            let got = conv.convert_scalar(&from.decompose_u128(x));
            for (i, &p) in to.iter().enumerate() {
                // got = (x + e*Q) mod p for some 0 <= e <= L.
                let mut ok = false;
                for e in 0..=from.len() as u128 {
                    if got[i] as u128 == (x + e * q) % p as u128 {
                        ok = true;
                        break;
                    }
                }
                assert!(ok, "x={x} p={p} got={}", got[i]);
            }
        }
    }

    #[test]
    fn bconv_poly_matches_scalar() {
        let from = basis(2);
        let to = generate_ntt_primes(1 << 10, 41, 2);
        let conv = BaseConverter::new(&from, &to);
        let n = 8;
        let limbs: Vec<Vec<u64>> = from
            .moduli()
            .iter()
            .map(|&q| (0..n as u64).map(|i| i * 17 % q).collect())
            .collect();
        let rows: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
        let out = conv.convert_rows(&rows);
        assert_eq!(out.len(), 2 * n);
        for c in 0..n {
            let residues: Vec<u64> = limbs.iter().map(|l| l[c]).collect();
            let expect = conv.convert_scalar(&residues);
            for i in 0..2 {
                assert_eq!(out[i * n + c], expect[i]);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_crt_roundtrip(x in any::<u64>()) {
            let b = basis(2);
            let r = b.decompose_u128(x as u128);
            prop_assert_eq!(b.reconstruct_u128(&r), x as u128);
        }

        #[test]
        fn prop_crt_additive(a in any::<u32>(), c in any::<u32>()) {
            let b = basis(2);
            let ra = b.decompose_u128(a as u128);
            let rc = b.decompose_u128(c as u128);
            let sum: Vec<u64> = ra.iter().zip(&rc).zip(b.moduli())
                .map(|((&x, &y), &q)| (x + y) % q).collect();
            prop_assert_eq!(b.reconstruct_u128(&sum), a as u128 + c as u128);
        }
    }
}
