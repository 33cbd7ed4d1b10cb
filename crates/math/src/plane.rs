//! The flat RNS data plane: the one polynomial type every scheme
//! rides.
//!
//! The paper's unification argument (CKKS and TFHE decompose onto the
//! same butterfly / modular-ALU / decomposition units) applies to the
//! software model too: an [`RnsPlane`] stores all residue limbs of a
//! polynomial in a single `Vec<u64>` with stride `n` (limb `i`
//! occupies `data[i*n .. (i+1)*n]`), plus per-limb moduli and a
//! [`Form`] tag. A CKKS ciphertext component is a multi-limb plane; a
//! TFHE RLWE polynomial is a one-limb plane over the same kernels. All
//! operations are in place and fan out across limbs via
//! [`crate::par::par_limbs`] (a one-limb plane runs inline, with no
//! fan-out); the element-wise kernels (add/sub/hadamard/mac/scale) go
//! through [`crate::simd`]'s static per-op dispatch table: add/sub/scale
//! on AVX2, hadamard/mac on the AVX-512 IFMA 52-bit Barrett below 2⁵⁰,
//! and the bit-identical portable unroll everywhere else. Limb-level
//! fan-out composes with the op-level work-stealing of
//! [`crate::par::par_ops`], which parallelizes *across* independent
//! plane operations in a trace.
//!
//! The quadratic [`negacyclic_mul_schoolbook`] slice function is the
//! oracle the NTT paths are tested against.

use crate::automorph::{apply_coeff_slice, apply_eval_slice};
use crate::modops::{
    add_mod, from_signed, inv_mod, mul_mod, mul_shoup, neg_mod, shoup_precompute, sub_mod, Barrett,
};
use crate::ntt::{NttContext, NttKernel};
use crate::par::par_limbs;
use crate::simd;

/// Which basis a polynomial's limb data is expressed in.
///
/// UFC's compiler tracks this per polynomial because NTT/iNTT macro-ops
/// convert between the two and element-wise ops require matching forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Coefficient (original) form.
    Coeff,
    /// Evaluation (NTT) form.
    Eval,
}

/// A polynomial in RNS representation, stored limb-major in one flat
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPlane {
    /// Limb-major residues: limb `i` is `data[i*n .. (i+1)*n]`.
    data: Vec<u64>,
    /// The modulus of each limb, aligned with the limb order.
    moduli: Vec<u64>,
    /// Ring dimension (the stride between limbs).
    n: usize,
    /// Which basis the residues are expressed in.
    form: Form,
}

impl RnsPlane {
    /// The zero plane of dimension `n` over `moduli`.
    ///
    /// # Panics
    ///
    /// Panics if `moduli` is empty or `n == 0`.
    pub fn zero(n: usize, moduli: &[u64], form: Form) -> Self {
        assert!(n > 0, "ring dimension must be positive");
        assert!(!moduli.is_empty(), "need at least one limb");
        Self {
            data: vec![0; n * moduli.len()],
            moduli: moduli.to_vec(),
            n,
            form,
        }
    }

    /// Wraps a flat limb-major buffer whose residues are **already
    /// reduced** against their limb moduli (checked in debug builds
    /// only — the unchecked ingestion path).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not `n · moduli.len()` for some
    /// `n > 0`, and debug-panics on unreduced residues.
    pub fn from_flat_unchecked(data: Vec<u64>, moduli: &[u64], form: Form) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        assert_eq!(data.len() % moduli.len(), 0, "buffer must be whole limbs");
        let n = data.len() / moduli.len();
        assert!(n > 0, "ring dimension must be positive");
        debug_assert!(
            data.chunks(n)
                .zip(moduli)
                .all(|(chunk, &q)| chunk.iter().all(|&c| c < q)),
            "from_flat_unchecked requires reduced residues"
        );
        Self {
            data,
            moduli: moduli.to_vec(),
            n,
            form,
        }
    }

    /// Wraps a flat limb-major buffer, reducing every residue against
    /// its limb modulus.
    pub fn from_flat(mut data: Vec<u64>, moduli: &[u64], form: Form) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        assert_eq!(data.len() % moduli.len(), 0, "buffer must be whole limbs");
        let n = data.len() / moduli.len();
        for (chunk, &q) in data.chunks_mut(n).zip(moduli) {
            for c in chunk {
                *c %= q;
            }
        }
        Self::from_flat_unchecked(data, moduli, form)
    }

    /// Builds a coefficient-form plane from signed (centered)
    /// coefficients, reduced against every limb modulus.
    pub fn from_signed(signed: &[i64], moduli: &[u64]) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        let n = signed.len();
        let mut data = Vec::with_capacity(n * moduli.len());
        for &q in moduli {
            data.extend(signed.iter().map(|&v| from_signed(v, q)));
        }
        Self::from_flat_unchecked(data, moduli, Form::Coeff)
    }

    /// The monomial `c · X^k` over every limb of `moduli`, in
    /// coefficient form, with negacyclic wrap: `k` may be any value
    /// below `2n`, where `X^n = -1`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 2n`.
    pub fn monomial(c: u64, k: usize, n: usize, moduli: &[u64]) -> Self {
        assert!(k < 2 * n, "monomial exponent must be below 2N");
        let mut p = Self::zero(n, moduli, Form::Coeff);
        for (i, &q) in moduli.iter().enumerate() {
            let limb = p.limb_mut(i);
            if k < n {
                limb[k] = c % q;
            } else {
                limb[k - n] = neg_mod(c % q, q);
            }
        }
        p
    }

    /// A deterministic pseudorandom plane: limb `i` is the splitmix64
    /// stream of `seed + i` reduced mod `moduli[i]`, so the same
    /// arguments always yield the same residues, on every platform.
    /// Used by the cross-kernel conformance suites and the bench
    /// harness, where reproducible inputs matter more than
    /// cryptographic quality.
    pub fn pseudorandom(n: usize, moduli: &[u64], seed: u64, form: Form) -> Self {
        let mut data = Vec::with_capacity(n * moduli.len());
        for (i, &q) in moduli.iter().enumerate() {
            let mut state = seed.wrapping_add(i as u64);
            data.extend((0..n).map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % q
            }));
        }
        Self::from_flat_unchecked(data, moduli, form)
    }

    /// Ring dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of RNS limbs.
    #[inline]
    pub fn limb_count(&self) -> usize {
        self.moduli.len()
    }

    /// The limb moduli, in limb order.
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Modulus of limb `i`.
    #[inline]
    pub fn modulus(&self, i: usize) -> u64 {
        self.moduli[i]
    }

    /// Current basis.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Read-only view of limb `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable view of limb `i`.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole flat buffer.
    #[inline]
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// An explicit copy of the first `count` limbs (the zero-copy
    /// plane has no implicit `clone()` on hot paths; prefix copies are
    /// spelled out).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn prefix(&self, count: usize) -> Self {
        assert!(count > 0 && count <= self.limb_count());
        Self {
            data: self.data[..count * self.n].to_vec(),
            moduli: self.moduli[..count].to_vec(),
            n: self.n,
            form: self.form,
        }
    }

    /// Drops all limbs past the first `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn truncate_limbs(&mut self, count: usize) {
        assert!(count > 0 && count <= self.limb_count());
        self.data.truncate(count * self.n);
        self.moduli.truncate(count);
    }

    fn check(&self, rhs: &Self) {
        assert_eq!(self.n, rhs.n, "plane dimension mismatch");
        assert_eq!(self.moduli, rhs.moduli, "plane moduli mismatch");
        assert_eq!(self.form, rhs.form, "plane form mismatch");
    }

    /// In-place sum: `self ← self + rhs` (forms must match).
    pub fn add_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::add_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// In-place difference: `self ← self - rhs`.
    pub fn sub_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::sub_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// In-place negation.
    pub fn neg_assign(&mut self) {
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            let q = moduli[i];
            for a in chunk.iter_mut() {
                *a = neg_mod(*a, q);
            }
        });
    }

    /// In-place Hadamard product: `self ← self ∘ rhs`.
    ///
    /// # Panics
    ///
    /// Panics unless both planes are in evaluation form.
    pub fn hadamard_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        assert_eq!(
            self.form,
            Form::Eval,
            "hadamard requires evaluation form operands"
        );
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::mul_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// Multiply-accumulate: `self ← self + a ∘ b`. All three planes
    /// must be in evaluation form over the same moduli.
    pub fn mac_assign(&mut self, a: &Self, b: &Self) {
        self.check(a);
        self.check(b);
        assert_eq!(self.form, Form::Eval, "mac requires evaluation form");
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::mac_mod_slice(chunk, a.limb(i), b.limb(i), moduli[i]);
        });
    }

    /// In-place per-limb scalar multiply (Shoup): limb `i` is scaled
    /// by `scalars[i] mod q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the limb count.
    pub fn scale_limbs_assign(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.limb_count(), "one scalar per limb");
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            let q = moduli[i];
            let s = scalars[i] % q;
            let s_shoup = shoup_precompute(s, q);
            simd::scale_shoup_slice(chunk, s, s_shoup, q);
        });
    }

    /// In-place Galois automorphism `X ↦ X^k`, dispatching on the
    /// current form (coefficient scatter or evaluation permutation).
    pub fn automorph_assign(&mut self, k: usize) {
        let (n, moduli, form) = (self.n, &self.moduli, self.form);
        par_limbs(n, &mut self.data, |i, chunk| {
            let src = chunk.to_vec();
            match form {
                Form::Coeff => apply_coeff_slice(&src, chunk, k, moduli[i]),
                Form::Eval => apply_eval_slice(&src, chunk, k),
            }
        });
    }

    /// Multiplies every limb by the monomial `X^k` (`k` taken mod
    /// `2N`; `X^N = -1`) — TFHE's `Rotate` primitive (Table I).
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in coefficient form.
    pub fn rotate_monomial(&self, k: usize) -> Self {
        assert_eq!(self.form, Form::Coeff, "rotation requires coefficient form");
        let mut out = Self::zero(self.n, &self.moduli, Form::Coeff);
        for (i, &q) in self.moduli.iter().enumerate() {
            rotate_monomial_slice(self.limb(i), out.limb_mut(i), k, q);
        }
        out
    }

    /// In-place forward NTT of every limb: coefficient → evaluation
    /// form. `tables[i]` must be the NTT context for limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if the plane is already in evaluation form or a table's
    /// modulus/dimension disagrees with its limb.
    pub fn ntt_forward(&mut self, tables: &[&NttContext]) {
        assert_eq!(self.form, Form::Coeff, "plane already in evaluation form");
        self.apply_tables(tables, false, None);
        self.form = Form::Eval;
    }

    /// In-place inverse NTT of every limb: evaluation → coefficient
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if the plane is already in coefficient form.
    pub fn ntt_inverse(&mut self, tables: &[&NttContext]) {
        assert_eq!(self.form, Form::Eval, "plane already in coefficient form");
        self.apply_tables(tables, true, None);
        self.form = Form::Coeff;
    }

    /// [`Self::ntt_forward`] through an explicitly chosen kernel on
    /// every limb, bypassing each table's own dispatch — the plane
    /// entry point of the cross-kernel conformance suite.
    pub fn ntt_forward_with(&mut self, tables: &[&NttContext], kernel: NttKernel) {
        assert_eq!(self.form, Form::Coeff, "plane already in evaluation form");
        self.apply_tables(tables, false, Some(kernel));
        self.form = Form::Eval;
    }

    /// [`Self::ntt_inverse`] through an explicitly chosen kernel on
    /// every limb.
    pub fn ntt_inverse_with(&mut self, tables: &[&NttContext], kernel: NttKernel) {
        assert_eq!(self.form, Form::Eval, "plane already in coefficient form");
        self.apply_tables(tables, true, Some(kernel));
        self.form = Form::Coeff;
    }

    fn apply_tables(&mut self, tables: &[&NttContext], inverse: bool, kernel: Option<NttKernel>) {
        assert_eq!(tables.len(), self.limb_count(), "one NTT table per limb");
        let (n, moduli) = (self.n, &self.moduli);
        for (t, &q) in tables.iter().zip(moduli) {
            assert_eq!(t.dim(), n, "NTT table dimension mismatch");
            assert_eq!(t.modulus(), q, "NTT table modulus mismatch");
        }
        par_limbs(n, &mut self.data, |i, chunk| match (kernel, inverse) {
            (None, false) => tables[i].forward(chunk),
            (None, true) => tables[i].inverse(chunk),
            (Some(k), false) => tables[i].forward_with(k, chunk),
            (Some(k), true) => tables[i].inverse_with(k, chunk),
        });
    }

    /// Exact RNS rescale: drops the last limb `q_L` and replaces each
    /// remaining limb by `(c_i - [c_L]_{q_i}) · q_L^{-1} mod q_i` —
    /// exact division by `q_L` on centered representatives.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in coefficient form with at least
    /// two limbs.
    pub fn rescale_assign(&mut self) {
        assert_eq!(self.form, Form::Coeff, "rescale requires coefficient form");
        let count = self.limb_count();
        assert!(count >= 2, "rescale needs at least two limbs");
        let n = self.n;
        let q_last = self.moduli[count - 1];
        let moduli = &self.moduli;
        let (head, tail) = self.data.split_at_mut((count - 1) * n);
        let last: &[u64] = tail;
        par_limbs(n, head, |i, chunk| {
            let qi = moduli[i];
            let br = Barrett::new(qi);
            let inv = inv_mod(q_last % qi, qi).expect("coprime moduli");
            let inv_shoup = shoup_precompute(inv, qi);
            for (a, &b) in chunk.iter_mut().zip(last) {
                let b_red = br.reduce_u128(b as u128);
                *a = mul_shoup(sub_mod(*a, b_red, qi), inv, inv_shoup, qi);
            }
        });
        self.truncate_limbs(count - 1);
    }
}

/// Slice form of [`RnsPlane::rotate_monomial`]: writes `src · X^k`
/// into `dst` over `Z_q[X]/(X^N + 1)`, `k` taken mod `2N`.
fn rotate_monomial_slice(src: &[u64], dst: &mut [u64], k: usize, q: u64) {
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    let k = k % (2 * n);
    for (i, &c) in src.iter().enumerate() {
        let mut pos = i + k;
        let mut v = c;
        if pos >= 2 * n {
            pos -= 2 * n;
        }
        if pos >= n {
            pos -= n;
            v = neg_mod(v, q);
        }
        dst[pos] = v;
    }
}

/// Schoolbook negacyclic product in `Z_q[X]/(X^N + 1)`.
///
/// Quadratic-time reference used to validate the NTT-based paths.
///
/// # Panics
///
/// Panics if the operands' lengths differ.
pub fn negacyclic_mul_schoolbook(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "polynomial dimension mismatch");
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = mul_mod(ai, bj, q);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], prod, q);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    const Q1: u64 = 97;
    const Q2: u64 = 193;

    fn sample() -> RnsPlane {
        RnsPlane::from_flat(vec![1, 2, 3, 4, 10, 20, 30, 40], &[Q1, Q2], Form::Coeff)
    }

    /// Applies `f(a_j, b_j, q_i)` to every residue pair of two planes.
    fn per_element(a: &RnsPlane, b: &RnsPlane, f: impl Fn(u64, u64, u64) -> u64) -> RnsPlane {
        let data = (0..a.limb_count())
            .flat_map(|i| {
                let q = a.modulus(i);
                let f = &f;
                a.limb(i)
                    .iter()
                    .zip(b.limb(i))
                    .map(move |(&x, &y)| f(x, y, q))
            })
            .collect();
        RnsPlane::from_flat_unchecked(data, a.moduli(), a.form())
    }

    /// Three 4-coefficient limbs over a small, a 40-bit and a 60-bit
    /// prime, with boundary residues (0, 1, q-1, q/2) in the mix.
    fn edge_planes(form: Form) -> (RnsPlane, RnsPlane) {
        let moduli = [Q1, 1_099_511_922_689, 1_152_921_504_598_720_513];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &q in &moduli {
            a.extend([1, q - 1, 123_456_789 % q, q / 2]);
            b.extend([q - 2, 7, 42, q / 3]);
        }
        (
            RnsPlane::from_flat_unchecked(a, &moduli, form),
            RnsPlane::from_flat_unchecked(b, &moduli, form),
        )
    }

    fn ntt_tables(n: usize, limbs: usize) -> Vec<NttContext> {
        generate_ntt_primes(n, 36, limbs)
            .into_iter()
            .map(|q| NttContext::new(n, q))
            .collect()
    }

    #[test]
    fn layout_is_limb_major() {
        let p = sample();
        assert_eq!(p.dim(), 4);
        assert_eq!(p.limb_count(), 2);
        assert_eq!(p.limb(0), &[1, 2, 3, 4]);
        assert_eq!(p.limb(1), &[10, 20, 30, 40]);
        assert_eq!(p.modulus(1), Q2);
    }

    #[test]
    fn from_signed_reduces_per_limb() {
        let p = RnsPlane::from_signed(&[-1, 0, 5, -48], &[Q1, Q2]);
        assert_eq!(p.limb(0), &[Q1 - 1, 0, 5, 49]);
        assert_eq!(p.limb(1), &[Q2 - 1, 0, 5, Q2 - 48]);
        assert_eq!(p.form(), Form::Coeff);
    }

    #[test]
    fn unchecked_constructor_matches_checked_on_reduced_input() {
        let data = vec![0u64, 1, 95, 96, 0, 1, 191, 192];
        assert_eq!(
            RnsPlane::from_flat_unchecked(data.clone(), &[Q1, Q2], Form::Eval),
            RnsPlane::from_flat(data, &[Q1, Q2], Form::Eval)
        );
    }

    #[test]
    fn elementwise_ops_match_modops_formulas() {
        let (a, b) = edge_planes(Form::Coeff);
        let mut x = a.clone();
        x.add_assign(&b);
        assert_eq!(x, per_element(&a, &b, add_mod));

        let mut x = a.clone();
        x.sub_assign(&b);
        assert_eq!(x, per_element(&a, &b, sub_mod));

        let mut x = a.clone();
        x.neg_assign();
        assert_eq!(x, per_element(&a, &b, |v, _, q| neg_mod(v, q)));

        let scalars = [2, 12345, u64::MAX];
        let mut x = a.clone();
        x.scale_limbs_assign(&scalars);
        let expect: Vec<u64> = (0..3)
            .flat_map(|i| {
                let q = a.modulus(i);
                let s = scalars[i] % q;
                a.limb(i).iter().map(move |&v| mul_mod(v, s, q))
            })
            .collect();
        assert_eq!(x.flat(), &expect[..]);

        let (a, b) = edge_planes(Form::Eval);
        let mut had = a.clone();
        had.hadamard_assign(&b);
        assert_eq!(had, per_element(&a, &b, mul_mod));

        let mut mac = a.clone();
        mac.mac_assign(&a, &b);
        let expect = per_element(&a, &had, add_mod);
        assert_eq!(mac, expect);
    }

    #[test]
    fn prefix_and_truncate() {
        let a = sample();
        let p = a.prefix(1);
        assert_eq!(p.limb_count(), 1);
        assert_eq!(p.limb(0), a.limb(0));
        let mut t = a.clone();
        t.truncate_limbs(1);
        assert_eq!(t, p);
    }

    #[test]
    #[should_panic(expected = "evaluation form")]
    fn hadamard_rejects_coeff_form() {
        let a = sample();
        let mut b = a.clone();
        b.hadamard_assign(&a);
    }

    #[test]
    fn mac_into_zero_is_hadamard() {
        let n = 4;
        let moduli = [Q1, Q2];
        let a = RnsPlane::from_flat(vec![3, 5, 7, 9, 11, 13, 17, 19], &moduli, Form::Eval);
        let b = RnsPlane::from_flat(vec![2, 4, 6, 8, 10, 12, 14, 16], &moduli, Form::Eval);
        let mut acc = RnsPlane::zero(n, &moduli, Form::Eval);
        acc.mac_assign(&a, &b);
        let mut expect = a.clone();
        expect.hadamard_assign(&b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn monomial_wraps_negacyclically() {
        // X^5 in dimension 4 is -X.
        let m = RnsPlane::monomial(1, 5, 4, &[Q1, Q2]);
        assert_eq!(m.limb(0), &[0, Q1 - 1, 0, 0]);
        assert_eq!(m.limb(1), &[0, Q2 - 1, 0, 0]);
        // X^3 stays put.
        let m = RnsPlane::monomial(2, 3, 4, &[Q1]);
        assert_eq!(m.limb(0), &[0, 0, 0, 2]);
    }

    #[test]
    fn schoolbook_mul_known_cases() {
        // (1 + X) * (1 + X) = 1 + 2X + X^2 in Z_97[X]/(X^4+1).
        assert_eq!(
            negacyclic_mul_schoolbook(&[1, 1, 0, 0], &[1, 1, 0, 0], Q1),
            [1, 2, 1, 0]
        );
        // X^2 * X^3 = X^5 = -X in dimension 4.
        assert_eq!(
            negacyclic_mul_schoolbook(&[0, 0, 1, 0], &[0, 0, 0, 1], Q1),
            [0, Q1 - 1, 0, 0]
        );
    }

    #[test]
    fn rotate_matches_monomial_product() {
        let a = RnsPlane::from_flat((1..=16).collect(), &[Q1, Q2], Form::Coeff);
        for k in 0..16 {
            let rotated = a.rotate_monomial(k);
            let m = RnsPlane::monomial(1, k, 8, &[Q1, Q2]);
            for i in 0..2 {
                let via_mul = negacyclic_mul_schoolbook(a.limb(i), m.limb(i), a.modulus(i));
                assert_eq!(rotated.limb(i), &via_mul[..], "k = {k}, limb {i}");
            }
        }
    }

    #[test]
    fn pseudorandom_is_seeded_per_limb() {
        let moduli = [Q1, Q2];
        let p = RnsPlane::pseudorandom(64, &moduli, 9, Form::Eval);
        assert_eq!(p, RnsPlane::pseudorandom(64, &moduli, 9, Form::Eval));
        // Limb 1 of seed 9 is limb 0 of seed 10 (up to the modulus).
        let shifted = RnsPlane::pseudorandom(64, &[Q2], 10, Form::Eval);
        assert_eq!(p.limb(1), shifted.limb(0));
        assert!(p.limb(0).iter().all(|&c| c < Q1));
    }

    #[test]
    fn ntt_roundtrip_and_product_match_schoolbook() {
        let n = 32;
        let tables = ntt_tables(n, 3);
        let refs: Vec<&NttContext> = tables.iter().collect();
        let moduli: Vec<u64> = tables.iter().map(NttContext::modulus).collect();
        let a = RnsPlane::from_signed(&(0..32).map(|i| i % 7).collect::<Vec<_>>(), &moduli);
        let b = RnsPlane::from_signed(&(0..32).map(|i| i % 5 - 2).collect::<Vec<_>>(), &moduli);

        let mut back = a.clone();
        back.ntt_forward(&refs);
        assert_eq!(back.form(), Form::Eval);
        back.ntt_inverse(&refs);
        assert_eq!(back, a);

        let mut prod = a.clone();
        prod.ntt_forward(&refs);
        let mut be = b.clone();
        be.ntt_forward(&refs);
        prod.hadamard_assign(&be);
        prod.ntt_inverse(&refs);
        for (i, &q) in moduli.iter().enumerate() {
            let expect = negacyclic_mul_schoolbook(a.limb(i), b.limb(i), q);
            assert_eq!(prod.limb(i), &expect[..], "limb {i}");
        }
    }

    #[test]
    fn rescale_divides_exactly_scaled_values() {
        // A value v · q_last must rescale to exactly v.
        let moduli = generate_ntt_primes(32, 36, 4);
        let q_last = moduli[3];
        let v: Vec<i64> = (0..32).map(|i| i - 16).collect();
        let data = moduli
            .iter()
            .flat_map(|&q| {
                v.iter()
                    .map(move |&x| mul_mod(from_signed(x, q), q_last % q, q))
            })
            .collect();
        let mut p = RnsPlane::from_flat_unchecked(data, &moduli, Form::Coeff);
        p.rescale_assign();
        assert_eq!(p, RnsPlane::from_signed(&v, &moduli[..3]));
    }

    #[test]
    fn automorphism_consistent_between_forms() {
        let tables = ntt_tables(32, 3);
        let refs: Vec<&NttContext> = tables.iter().collect();
        let moduli: Vec<u64> = tables.iter().map(NttContext::modulus).collect();
        let p = RnsPlane::from_signed(&(0..32).map(|i| i * i % 11).collect::<Vec<_>>(), &moduli);
        let mut via_coeff = p.clone();
        via_coeff.automorph_assign(5);
        via_coeff.ntt_forward(&refs);
        let mut via_eval = p;
        via_eval.ntt_forward(&refs);
        via_eval.automorph_assign(5);
        assert_eq!(via_coeff, via_eval);
    }
}
