//! CKKS bootstrapping building blocks: BSGS homomorphic linear
//! transforms, Chebyshev polynomial evaluation, and the
//! ModRaise → CoeffToSlot → EvalMod → SlotToCoeff pipeline.

use crate::ciphertext::Ciphertext;
use crate::encoding::Complex;
use crate::eval::Evaluator;
use crate::keys::{KeySet, SecretKey};
use rand::Rng;
use ufc_isa::trace::TraceOp;

/// A homomorphic linear transform `z ↦ M·z` on slot vectors, stored as
/// its non-zero generalized diagonals (the BSGS-friendly layout).
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    /// `(shift, diagonal values)` pairs: `out[i] += diag[i] * in[(i+shift) mod slots]`.
    diagonals: Vec<(usize, Vec<Complex>)>,
}

impl LinearTransform {
    /// Builds the transform from a dense `slots × slots` complex
    /// matrix, extracting non-zero diagonals.
    pub fn from_matrix(m: &[Vec<Complex>]) -> Self {
        let slots = m.len();
        assert!(
            slots > 0 && m.iter().all(|r| r.len() == slots),
            "square matrix"
        );
        let mut diagonals = Vec::new();
        for shift in 0..slots {
            let diag: Vec<Complex> = (0..slots).map(|i| m[i][(i + shift) % slots]).collect();
            if diag
                .iter()
                .any(|&(re, im)| re.abs() > 1e-12 || im.abs() > 1e-12)
            {
                diagonals.push((shift, diag));
            }
        }
        Self { slots, diagonals }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The stored diagonals.
    pub fn diagonals(&self) -> &[(usize, Vec<Complex>)] {
        &self.diagonals
    }

    /// The rotation steps needed to evaluate this transform (one per
    /// diagonal, plain method).
    pub fn rotation_steps(&self) -> Vec<isize> {
        self.diagonals
            .iter()
            .map(|&(s, _)| s as isize)
            .filter(|&s| s != 0)
            .collect()
    }

    /// Reference (plaintext) application for validation.
    pub fn apply_plain(&self, z: &[Complex]) -> Vec<Complex> {
        assert_eq!(z.len(), self.slots);
        let mut out = vec![(0.0, 0.0); self.slots];
        for (shift, diag) in &self.diagonals {
            for i in 0..self.slots {
                let x = z[(i + shift) % self.slots];
                let d = diag[i];
                out[i].0 += d.0 * x.0 - d.1 * x.1;
                out[i].1 += d.0 * x.1 + d.1 * x.0;
            }
        }
        out
    }

    /// The rotation steps needed by [`Self::apply_bsgs`] with the
    /// given baby-step count: baby steps `1..bs` plus giant steps
    /// `bs, 2·bs, …`.
    pub fn bsgs_rotation_steps(&self, bs: usize) -> Vec<isize> {
        let giants = self.slots.div_ceil(bs);
        let mut steps: Vec<isize> = (1..bs as isize).collect();
        steps.extend((1..giants as isize).map(|g| g * bs as isize));
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Applies the transform with the **baby-step giant-step** method:
    /// `Σ_g rot_{g·bs}( Σ_b rot_{-g·bs}(diag_{g·bs+b}) ∘ rot_b(ct) )`.
    ///
    /// Same result and depth as [`Self::apply`], but only
    /// `bs + slots/bs` homomorphic rotations instead of one per
    /// diagonal — the structure behind the paper's bootstrapping
    /// rotation counts (§VI-D1's minimum-key method applies BSGS with
    /// shared keys).
    ///
    /// # Panics
    ///
    /// Panics if `bs` is zero or a needed rotation key is missing.
    pub fn apply_bsgs(
        &self,
        ev: &Evaluator,
        ct: &Ciphertext,
        keys: &KeySet,
        bs: usize,
    ) -> Ciphertext {
        assert!(bs > 0, "baby-step count must be positive");
        let s = self.slots;
        // Dense diagonal table for O(1) lookup.
        let mut table: Vec<Option<&Vec<Complex>>> = vec![None; s];
        for (shift, diag) in &self.diagonals {
            table[*shift] = Some(diag);
        }
        // Baby rotations (computed once, reused by every giant step).
        let mut babies: Vec<Ciphertext> = Vec::with_capacity(bs);
        babies.push(ct.clone());
        for b in 1..bs {
            babies.push(ev.rotate(ct, b as isize, keys));
        }
        let giants = s.div_ceil(bs);
        let mut acc: Option<Ciphertext> = None;
        for g in 0..giants {
            let mut inner: Option<Ciphertext> = None;
            for (b, baby) in babies.iter().enumerate() {
                let shift = g * bs + b;
                if shift >= s {
                    break;
                }
                let Some(diag) = table[shift] else { continue };
                // rot_{-g·bs}(diag): entry i holds diag[(i − g·bs) mod s].
                let twisted: Vec<Complex> =
                    (0..s).map(|i| diag[(i + s - (g * bs) % s) % s]).collect();
                let coeffs = ev.encoder().encode(&twisted);
                let pt = ev.context().eval_from_signed(&coeffs, baby.level + 1);
                let term = ev.mul_plain(baby, &pt);
                inner = Some(match inner {
                    Some(a) => ev.add(&a, &term),
                    None => term,
                });
            }
            let Some(inner) = inner else { continue };
            let rotated = if g == 0 {
                inner
            } else {
                ev.rotate(&inner, (g * bs) as isize, keys)
            };
            acc = Some(match acc {
                Some(a) => ev.add(&a, &rotated),
                None => rotated,
            });
        }
        ev.rescale(&acc.expect("transform has at least one diagonal"))
    }

    /// Applies the transform homomorphically (diagonal method):
    /// `Σ_shift diag_shift ∘ rot_shift(ct)`, consuming one level.
    ///
    /// Requires rotation keys for every step in
    /// [`Self::rotation_steps`].
    pub fn apply(&self, ev: &Evaluator, ct: &Ciphertext, keys: &KeySet) -> Ciphertext {
        assert_eq!(self.slots, ev.context().slots(), "transform size mismatch");
        let mut acc: Option<Ciphertext> = None;
        for (shift, diag) in &self.diagonals {
            let rotated = if *shift == 0 {
                ct.clone()
            } else {
                ev.rotate(ct, *shift as isize, keys)
            };
            let coeffs = ev.encoder().encode(diag);
            let pt = ev.context().eval_from_signed(&coeffs, rotated.level + 1);
            let term = ev.mul_plain(&rotated, &pt);
            acc = Some(match acc {
                Some(a) => ev.add(&a, &term),
                None => term,
            });
        }
        ev.rescale(&acc.expect("transform has at least one diagonal"))
    }
}

/// Evaluates a polynomial `Σ c_k x^k` (real coefficients, degree ≤ 7
/// via direct power basis) homomorphically. Used by EvalMod's sine
/// approximation at test scale.
///
/// Consumes `ceil(log2(deg+1))` levels for the power ladder plus one
/// per coefficient multiply.
pub fn eval_poly(ev: &Evaluator, ct: &Ciphertext, coeffs: &[f64], keys: &KeySet) -> Ciphertext {
    assert!(
        !coeffs.is_empty() && coeffs.len() <= 8,
        "degree 0..7 supported"
    );
    // Build powers x^1..x^d with a simple square-and-multiply ladder.
    let deg = coeffs.len() - 1;
    let mut powers: Vec<Option<Ciphertext>> = vec![None; deg + 1];
    if deg >= 1 {
        powers[1] = Some(ct.clone());
    }
    for k in 2..=deg {
        let half = k / 2;
        let other = k - half;
        let a = powers[half].clone().expect("power computed");
        let b = powers[other].clone().expect("power computed");
        let p = ev.rescale(&ev.mul(&a, &b, keys));
        powers[k] = Some(p);
    }
    // Each term c_k·x^k: plaintext multiply at the power's own level,
    // rescale, then align every term to a common (level, scale) with
    // adjust_scale — scale drift across different rescale histories is
    // the reason the alignment pass exists.
    let slots = ev.context().slots();
    let mut terms: Vec<Ciphertext> = Vec::new();
    for (k, &c) in coeffs.iter().enumerate().skip(1) {
        if c == 0.0 {
            continue;
        }
        let mut raw = powers[k].clone().expect("power computed");
        let pt = ev.encode_real_at(&vec![c; slots], raw.level, ev.context().scale());
        raw.c0.hadamard_assign(&pt);
        raw.c1.hadamard_assign(&pt);
        raw.scale *= ev.context().scale();
        terms.push(ev.rescale(&raw));
    }
    let target_level = terms
        .iter()
        .map(|t| t.level)
        .min()
        .expect("non-constant poly")
        - 1;
    let target_scale = ev.context().scale();
    let aligned: Vec<Ciphertext> = terms
        .iter()
        .map(|t| ev.adjust_scale(t, target_scale, target_level))
        .collect();
    let mut out = aligned[0].clone();
    for t in &aligned[1..] {
        out = ev.add(&out, t);
    }
    if coeffs[0] != 0.0 {
        let pt = ev.encode_real_at(&vec![coeffs[0]; slots], out.level, out.scale);
        out = ev.add_plain(&out, &pt);
    }
    out
}

/// Evaluates a linear combination of Chebyshev polynomials
/// `Σ c_k·T_k(x)` homomorphically via the recurrence
/// `T_{k+1} = 2x·T_k − T_{k−1}` — the numerically stable basis
/// production EvalMod uses (Han–Ki style) instead of raw powers.
///
/// Consumes one level per recurrence step plus one for the coefficient
/// combination. `x` should carry values in `[-1, 1]`.
///
/// # Panics
///
/// Panics for degree 0 or degree > 8, or when the level budget runs
/// out.
pub fn eval_chebyshev(ev: &Evaluator, x: &Ciphertext, coeffs: &[f64], keys: &KeySet) -> Ciphertext {
    let deg = coeffs.len().saturating_sub(1);
    assert!((1..=8).contains(&deg), "degree 1..8 supported");
    let slots = ev.context().slots();
    // T_0 = 1 (handled as the plaintext constant at the end), T_1 = x.
    let mut t_prev: Option<Ciphertext> = None; // T_{k-1}, None means T_0
    let mut t_cur = x.clone(); // T_1
    let mut terms: Vec<Ciphertext> = Vec::new();
    let push_term = |terms: &mut Vec<Ciphertext>, ev: &Evaluator, t: &Ciphertext, c: f64| {
        if c == 0.0 {
            return;
        }
        let pt = ev.encode_real_at(&vec![c; slots], t.level, ev.context().scale());
        let mut raw = t.clone();
        raw.c0.hadamard_assign(&pt);
        raw.c1.hadamard_assign(&pt);
        raw.scale *= ev.context().scale();
        terms.push(ev.rescale(&raw));
    };
    push_term(&mut terms, ev, &t_cur, coeffs[1]);
    for (k, &c) in coeffs.iter().enumerate().skip(2) {
        // T_k = 2x·T_{k-1} − T_{k-2}.
        let two_x_t = {
            let mut doubled = ev.mul(x, &t_cur, keys);
            let twos = vec![2; doubled.limb_count()];
            doubled.c0.scale_limbs_assign(&twos);
            doubled.c1.scale_limbs_assign(&twos);
            ev.rescale(&doubled)
        };
        let t_next = match &t_prev {
            // T_0 = 1: subtract the constant 1 at the current scale.
            None => {
                let one = ev.encode_real_at(&vec![1.0; slots], two_x_t.level, two_x_t.scale);
                let mut t = two_x_t;
                t.c0.sub_assign(&one);
                t
            }
            Some(prev) => {
                let aligned = ev.adjust_scale(prev, two_x_t.scale, two_x_t.level);
                ev.sub(&two_x_t, &aligned)
            }
        };
        push_term(&mut terms, ev, &t_next, c);
        t_prev = Some(t_cur);
        t_cur = t_next;
        let _ = k;
    }
    // Align and sum all terms, then add c_0·T_0 = c_0.
    let target_level = terms.iter().map(|t| t.level).min().expect("non-trivial") - 1;
    let target_scale = ev.context().scale();
    let mut out = ev.adjust_scale(&terms[0], target_scale, target_level);
    for t in &terms[1..] {
        out = ev.add(&out, &ev.adjust_scale(t, target_scale, target_level));
    }
    if coeffs[0] != 0.0 {
        let pt = ev.encode_real_at(&vec![coeffs[0]; slots], out.level, out.scale);
        out = ev.add_plain(&out, &pt);
    }
    out
}

/// Reference Chebyshev evaluation on plaintext values.
pub fn chebyshev_reference(coeffs: &[f64], x: f64) -> f64 {
    let mut acc = coeffs[0];
    let (mut t_prev, mut t_cur) = (1.0f64, x);
    for &c in &coeffs[1..] {
        acc += c * t_cur;
        let t_next = 2.0 * x * t_cur - t_prev;
        t_prev = t_cur;
        t_cur = t_next;
    }
    acc
}

/// Bootstrapping configuration at test scale.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Degree-7 odd polynomial approximating `(q/2πΔ)·sin(2πx/q)`
    /// on the reduced domain (precomputed Taylor/Chebyshev hybrid).
    pub sine_coeffs: Vec<f64>,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        // sin(2πt)/2π ≈ t - (2π)²t³/6 + (2π)⁴t⁵/120 - (2π)⁶t⁷/5040
        // for |t| ≤ 1/8 (t = x/q after ModRaise normalization).
        let w = std::f64::consts::TAU;
        Self {
            sine_coeffs: vec![
                0.0,
                1.0,
                0.0,
                -w * w / 6.0,
                0.0,
                w.powi(4) / 120.0,
                0.0,
                -w.powi(6) / 5040.0,
            ],
        }
    }
}

/// The bootstrapping engine: precomputed CoeffToSlot / SlotToCoeff
/// transforms plus the EvalMod polynomial.
#[derive(Debug)]
pub struct Bootstrapper {
    /// Slot-domain DFT-like transform used by CoeffToSlot (test-scale:
    /// the identity composed with scaling; see `new`).
    pub coeff_to_slot: LinearTransform,
    /// Its inverse (SlotToCoeff).
    pub slot_to_coeff: LinearTransform,
    /// EvalMod sine approximation.
    pub config: BootstrapConfig,
}

impl Bootstrapper {
    /// Builds the test-scale bootstrapper for `slots` slots.
    ///
    /// CoeffToSlot/SlotToCoeff are honest dense linear transforms (a
    /// scaled DFT pair), exercising the same rotation/key-switch
    /// kernels as production bootstrapping; the paper's cost model
    /// derives from the same structure at `N = 2^16`.
    pub fn new(slots: usize) -> Self {
        // A unitary DFT matrix and its inverse over the slot domain.
        let mut fwd = vec![vec![(0.0, 0.0); slots]; slots];
        let mut inv = vec![vec![(0.0, 0.0); slots]; slots];
        let norm = 1.0 / (slots as f64).sqrt();
        for (i, row) in fwd.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let th = std::f64::consts::TAU * (i * j % slots) as f64 / slots as f64;
                *cell = (norm * th.cos(), -norm * th.sin());
            }
        }
        for (i, row) in inv.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let th = std::f64::consts::TAU * (i * j % slots) as f64 / slots as f64;
                *cell = (norm * th.cos(), norm * th.sin());
            }
        }
        Self {
            coeff_to_slot: LinearTransform::from_matrix(&fwd),
            slot_to_coeff: LinearTransform::from_matrix(&inv),
            config: BootstrapConfig::default(),
        }
    }

    /// All rotation steps the two transforms need (for key
    /// generation — the "minimum-key method" the paper adopts from
    /// ARK reuses keys across both transforms).
    pub fn required_rotations(&self) -> Vec<isize> {
        let mut steps: Vec<isize> = self
            .coeff_to_slot
            .rotation_steps()
            .into_iter()
            .chain(self.slot_to_coeff.rotation_steps())
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Runs the slot-domain bootstrapping pipeline on a ciphertext:
    /// CoeffToSlot → EvalMod(sine) → SlotToCoeff, recording the
    /// ModRaise trace op. At test scale the modulus chain is short, so
    /// this validates the *pipeline structure and noise behaviour*
    /// rather than depth-30 parameters.
    pub fn bootstrap(&self, ev: &Evaluator, ct: &Ciphertext, keys: &KeySet) -> Ciphertext {
        ev.trace_mod_raise(ct.level as u32);
        let in_slots = self.coeff_to_slot.apply(ev, ct, keys);
        // Normalize the scale to exactly Δ before the polynomial
        // ladder: entering EvalMod below Δ compounds multiplicatively
        // through the power ladder and drops x^7 under the noise
        // floor.
        let normalized = ev.adjust_scale(&in_slots, ev.context().scale(), in_slots.level - 1);
        let reduced = eval_poly(ev, &normalized, &self.config.sine_coeffs, keys);
        self.slot_to_coeff.apply(ev, &reduced, keys)
    }
}

impl Evaluator {
    /// Records a ModRaise trace event (bootstrapping entry).
    pub fn trace_mod_raise(&self, from_level: u32) {
        self.record_public(TraceOp::CkksModRaise { from_level });
    }
}

/// Generates every rotation key a bootstrapper needs.
pub fn gen_bootstrap_keys<R: Rng + ?Sized>(
    ev: &Evaluator,
    bs: &Bootstrapper,
    keys: &mut KeySet,
    sk: &SecretKey,
    rng: &mut R,
) {
    for step in bs.required_rotations() {
        keys.gen_rotation_key(ev.context(), sk, step, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn setup(n: usize, q_limbs: usize, seed: u64) -> (Evaluator, SecretKey, KeySet, StdRng) {
        let dnum = q_limbs.div_ceil(3);
        let ctx = CkksContext::new(n, q_limbs, 3, dnum, 36, 34);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = KeySet::generate(&ctx, &sk, &mut rng);
        (Evaluator::new(ctx), sk, keys, rng)
    }

    #[test]
    fn linear_transform_plain_reference() {
        // Cyclic shift matrix: out[i] = in[(i+1) mod s].
        let s = 4;
        let mut m = vec![vec![(0.0, 0.0); s]; s];
        for (i, row) in m.iter_mut().enumerate() {
            row[(i + 1) % s] = (1.0, 0.0);
        }
        let lt = LinearTransform::from_matrix(&m);
        assert_eq!(lt.diagonals().len(), 1);
        let z: Vec<Complex> = (0..s).map(|i| (i as f64, 0.0)).collect();
        let out = lt.apply_plain(&z);
        assert_eq!(out[0].0, 1.0);
        assert_eq!(out[3].0, 0.0);
    }

    #[test]
    fn homomorphic_linear_transform_matches_plain() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 31);
        let slots = ev.context().slots(); // 8
                                          // A small dense real matrix.
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|i| {
                (0..slots)
                    .map(|j| (((i * 3 + j) % 5) as f64 * 0.1, 0.0))
                    .collect()
            })
            .collect();
        let lt = LinearTransform::from_matrix(&m);
        let ctx = ev.context().clone();
        for step in lt.rotation_steps() {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let z: Vec<f64> = (0..slots).map(|i| 0.2 * i as f64 - 0.5).collect();
        let ct = ev.encrypt_real(&z, &keys, &mut rng);
        let out = lt.apply(&ev, &ct, &keys);
        let dec = ev.decrypt_real(&out, &sk);
        let zc: Vec<Complex> = z.iter().map(|&v| (v, 0.0)).collect();
        let expect: Vec<f64> = lt.apply_plain(&zc).into_iter().map(|c| c.0).collect();
        assert!(
            max_err(&dec, &expect) < 0.05,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn bsgs_matches_plain_diagonal_method() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 35);
        let slots = ev.context().slots(); // 8
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|i| {
                (0..slots)
                    .map(|j| (((i * 2 + j * 3) % 7) as f64 * 0.1 - 0.2, 0.0))
                    .collect()
            })
            .collect();
        let lt = LinearTransform::from_matrix(&m);
        let ctx = ev.context().clone();
        let bs = 3usize;
        for step in lt.rotation_steps() {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        for step in lt.bsgs_rotation_steps(bs) {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let z: Vec<f64> = (0..slots).map(|i| 0.1 * i as f64 - 0.3).collect();
        let ct = ev.encrypt_real(&z, &keys, &mut rng);
        let plain = lt.apply(&ev, &ct, &keys);
        let bsgs = lt.apply_bsgs(&ev, &ct, &keys, bs);
        let d1 = ev.decrypt_real(&plain, &sk);
        let d2 = ev.decrypt_real(&bsgs, &sk);
        assert!(max_err(&d1, &d2) < 0.02, "err {}", max_err(&d1, &d2));
    }

    #[test]
    fn bsgs_uses_fewer_rotations() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 36);
        let slots = ev.context().slots();
        // Dense matrix → all `slots` diagonals present.
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|i| (0..slots).map(|j| ((i + j) as f64 * 0.01, 0.0)).collect())
            .collect();
        let lt = LinearTransform::from_matrix(&m);
        let ctx = ev.context().clone();
        let bs = 3usize;
        for step in lt
            .rotation_steps()
            .into_iter()
            .chain(lt.bsgs_rotation_steps(bs))
        {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let ct = ev.encrypt_real(&vec![0.1; slots], &keys, &mut rng);
        let _ = ev.take_trace();
        let _ = lt.apply(&ev, &ct, &keys);
        let plain_rots = count_rotations(&ev.take_trace());
        let _ = lt.apply_bsgs(&ev, &ct, &keys, bs);
        let bsgs_rots = count_rotations(&ev.take_trace());
        assert!(
            bsgs_rots < plain_rots,
            "BSGS {bsgs_rots} rotations vs plain {plain_rots}"
        );
        // bs−1 babies + ceil(s/bs)−1 giants = 2 + 2 = 4 < 7.
        assert_eq!(bsgs_rots, 4);
    }

    fn count_rotations(tr: &ufc_isa::Trace) -> usize {
        tr.ops
            .iter()
            .filter(|o| matches!(o, TraceOp::CkksRotate { .. }))
            .count()
    }

    #[test]
    fn eval_poly_cubic() {
        let (ev, sk, keys, mut rng) = setup(16, 5, 32);
        let x: Vec<f64> = (0..8).map(|i| -0.4 + 0.1 * i as f64).collect();
        let ct = ev.encrypt_real(&x, &keys, &mut rng);
        // p(x) = 0.5 + x - 2x^3.
        let out = eval_poly(&ev, &ct, &[0.5, 1.0, 0.0, -2.0], &keys);
        let dec = ev.decrypt_real(&out, &sk);
        let expect: Vec<f64> = x.iter().map(|&v| 0.5 + v - 2.0 * v * v * v).collect();
        assert!(
            max_err(&dec, &expect) < 0.05,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn chebyshev_reference_basics() {
        // T_0=1, T_1=x, T_2=2x²−1, T_3=4x³−3x.
        assert!((chebyshev_reference(&[0.0, 0.0, 1.0], 0.5) - (2.0 * 0.25 - 1.0)).abs() < 1e-12);
        assert!(
            (chebyshev_reference(&[0.0, 0.0, 0.0, 1.0], 0.3) - (4.0 * 0.027 - 0.9)).abs() < 1e-12
        );
    }

    #[test]
    fn homomorphic_chebyshev_matches_reference() {
        let (ev, sk, keys, mut rng) = setup(16, 9, 37);
        let xs: Vec<f64> = (0..8).map(|i| -0.8 + 0.2 * i as f64).collect();
        let ct = ev.encrypt_real(&xs, &keys, &mut rng);
        // 0.3·T_0 + 0.5·T_1 − 0.2·T_2 + 0.1·T_3 + 0.05·T_4.
        let coeffs = [0.3, 0.5, -0.2, 0.1, 0.05];
        let out = eval_chebyshev(&ev, &ct, &coeffs, &keys);
        let dec = ev.decrypt_real(&out, &sk);
        let expect: Vec<f64> = xs
            .iter()
            .map(|&x| chebyshev_reference(&coeffs, x))
            .collect();
        assert!(
            max_err(&dec, &expect) < 0.03,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn sine_approximation_reduces_modulo() {
        // The EvalMod polynomial should act as identity for small
        // inputs (|t| << 1): sin(2πt)/2π ≈ t.
        let cfg = BootstrapConfig::default();
        for &t in &[-0.05f64, 0.0, 0.02, 0.06] {
            let approx: f64 = cfg
                .sine_coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * t.powi(k as i32))
                .sum();
            let exact = (std::f64::consts::TAU * t).sin() / std::f64::consts::TAU;
            assert!((approx - exact).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn bootstrap_pipeline_preserves_message() {
        let (ev, sk, mut keys, mut rng) = setup(16, 9, 33);
        let bs = Bootstrapper::new(ev.context().slots());
        gen_bootstrap_keys(&ev, &bs, &mut keys, &sk, &mut rng);
        let vals: Vec<f64> = (0..8).map(|i| 0.01 * i as f64 - 0.03).collect();
        let ct = ev.encrypt_real(&vals, &keys, &mut rng);
        let out = bs.bootstrap(&ev, &ct, &keys);
        let dec = ev.decrypt_real(&out, &sk);
        assert!(max_err(&dec, &vals) < 0.02, "err {}", max_err(&dec, &vals));
        // The trace must record the pipeline: ModRaise + rotations +
        // plaintext muls + rescales + the EvalMod multiplies.
        let tr = ev.take_trace();
        assert!(tr
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::CkksModRaise { .. })));
        assert!(tr.len() > 10);
    }
}
