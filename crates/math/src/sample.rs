//! Randomness for FHE: uniform ring elements, ternary/binary secrets,
//! and rounded-Gaussian noise.
//!
//! Small-norm samples (secrets, noise) come out as centered `i64`
//! coefficients: RNS limbs must be residues of one integer polynomial,
//! so callers reduce a single draw into every limb with
//! [`RnsPlane::from_signed`]. Uniform ring elements are drawn per limb.

use crate::plane::{Form, RnsPlane};
use rand::Rng;

/// Samples a uniformly random coefficient-form plane: limb by limb,
/// `n` draws from `0..q_i` each.
pub fn uniform_plane<R: Rng + ?Sized>(rng: &mut R, n: usize, moduli: &[u64]) -> RnsPlane {
    let mut data = Vec::with_capacity(n * moduli.len());
    for &q in moduli {
        data.extend((0..n).map(|_| rng.gen_range(0..q)));
    }
    RnsPlane::from_flat_unchecked(data, moduli, Form::Coeff)
}

/// Samples a ternary secret: `n` centered coefficients in `{-1,0,1}`.
pub fn ternary_signed<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1..=1)).collect()
}

/// Samples a binary secret vector (for LWE keys).
pub fn binary_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..=1u64)).collect()
}

/// Samples one rounded Gaussian with standard deviation `sigma`.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> i64 {
    // Box–Muller; two uniforms -> one normal.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (z * sigma).round() as i64
}

/// Samples `n` centered rounded-Gaussian noise coefficients.
pub fn gaussian_signed<R: Rng + ?Sized>(rng: &mut R, n: usize, sigma: f64) -> Vec<i64> {
    (0..n).map(|_| gaussian(rng, sigma)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_reduced() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = uniform_plane(&mut rng, 256, &[97, 193]);
        assert!(p.limb(0).iter().all(|&c| c < 97));
        assert!(p.limb(1).iter().all(|&c| c < 193));
    }

    #[test]
    fn ternary_values_are_ternary() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = ternary_signed(&mut rng, 512);
        assert!(s.iter().all(|&c| (-1..=1).contains(&c)));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(9);
        let sigma = 3.2;
        let samples: Vec<i64> = (0..20_000).map(|_| gaussian(&mut rng, sigma)).collect();
        let mean = samples.iter().sum::<i64>() as f64 / samples.len() as f64;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert!(mean.abs() < 0.15, "mean drifted: {mean}");
        assert!(
            (var.sqrt() - sigma).abs() < 0.3,
            "sigma off: {}",
            var.sqrt()
        );
    }

    #[test]
    fn binary_vec_is_binary() {
        let mut rng = StdRng::seed_from_u64(10);
        assert!(binary_vec(&mut rng, 1000).iter().all(|&b| b <= 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = uniform_plane(&mut StdRng::seed_from_u64(42), 64, &[12289]);
        let b = uniform_plane(&mut StdRng::seed_from_u64(42), 64, &[12289]);
        assert_eq!(a, b);
        // Limb by limb: a two-limb draw starts with the one-limb draw.
        let two = uniform_plane(&mut StdRng::seed_from_u64(42), 64, &[12289, 40961]);
        assert_eq!(two.limb(0), a.limb(0));
    }
}
