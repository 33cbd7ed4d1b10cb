//! Equivalence suite for the flat RNS data plane and the Shoup/Harvey
//! NTT kernels.
//!
//! Three claims are exercised here, each a load-bearing invariant of
//! the zero-copy refactor:
//!
//! 1. every [`RnsPlane`] operation is bit-identical to its scalar
//!    definition — the per-element `modops` formula, the slice
//!    automorphism, the single-modulus NTT product — applied limb by
//!    limb;
//! 2. the lazy Harvey butterflies round-trip (and stay fully reduced)
//!    for *every* prime [`generate_ntt_primes`] can emit, across ring
//!    dimensions and modulus widths;
//! 3. limb parallelism is invisible: results are bit-identical no
//!    matter how many worker threads `par_limbs` fans out to.

use proptest::prelude::*;
use ufc_math::automorph::{apply_coeff_slice, apply_eval_slice};
use ufc_math::modops::{add_mod, mul_mod, neg_mod, sub_mod};
use ufc_math::ntt::NttContext;
use ufc_math::par::set_max_threads;
use ufc_math::plane::{negacyclic_mul_schoolbook, Form, RnsPlane};
use ufc_math::prime::generate_ntt_primes;

/// Deterministic splitmix-style generator for bulk test data.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let z = x ^ (x >> 31);
        z.wrapping_mul(0x9E3779B97F4A7C15)
    }
}

fn random_plane(seed: u64, n: usize, moduli: &[u64], form: Form) -> RnsPlane {
    let mut next = stream(seed);
    let mut data = Vec::with_capacity(n * moduli.len());
    for &q in moduli {
        data.extend((0..n).map(|_| next() % q));
    }
    RnsPlane::from_flat_unchecked(data, moduli, form)
}

/// Applies `f(a_j, b_j, q_i)` to every residue pair, limb by limb —
/// the scalar definition a plane kernel must reproduce.
fn per_element(a: &RnsPlane, b: &RnsPlane, f: impl Fn(u64, u64, u64) -> u64) -> Vec<u64> {
    (0..a.limb_count())
        .flat_map(|i| {
            let q = a.modulus(i);
            a.limb(i)
                .iter()
                .zip(b.limb(i))
                .map(|(&x, &y)| f(x, y, q))
                .collect::<Vec<_>>()
        })
        .collect()
}

// ------------------------------- plane vs per-element modops formulas

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Element-wise plane kernels (the `simd` dispatch table) against
    /// the scalar `modops` formulas, over a 3-limb basis.
    #[test]
    fn prop_elementwise_plane_ops_match_modops(seed in any::<u64>()) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 3);
        prop_assert_eq!(moduli.len(), 3);
        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);

        let mut sum = a.clone();
        sum.add_assign(&b);
        prop_assert_eq!(sum.flat(), &per_element(&a, &b, add_mod)[..], "add");

        let mut diff = a.clone();
        diff.sub_assign(&b);
        prop_assert_eq!(diff.flat(), &per_element(&a, &b, sub_mod)[..], "sub");

        let mut neg = a.clone();
        neg.neg_assign();
        let expect = per_element(&a, &b, |x, _, q| neg_mod(x, q));
        prop_assert_eq!(neg.flat(), &expect[..], "neg");

        let scalars: Vec<u64> = {
            let mut next = stream(seed.wrapping_add(2));
            moduli.iter().map(|&q| next() % q).collect()
        };
        let mut scaled = a.clone();
        scaled.scale_limbs_assign(&scalars);
        let expect: Vec<u64> = (0..3)
            .flat_map(|i| {
                let (q, s) = (moduli[i], scalars[i]);
                a.limb(i).iter().map(move |&x| mul_mod(x, s, q))
            })
            .collect();
        prop_assert_eq!(scaled.flat(), &expect[..], "scale_limbs");

        // Hadamard and MAC are evaluation-form-only on the plane.
        let ea = random_plane(seed.wrapping_add(3), n, &moduli, Form::Eval);
        let eb = random_plane(seed.wrapping_add(4), n, &moduli, Form::Eval);

        let mut had = ea.clone();
        had.hadamard_assign(&eb);
        prop_assert_eq!(had.flat(), &per_element(&ea, &eb, mul_mod)[..], "hadamard");

        let mut mac = ea.clone();
        mac.mac_assign(&eb, &had);
        let products = RnsPlane::from_flat_unchecked(
            per_element(&eb, &had, mul_mod),
            &moduli,
            Form::Eval,
        );
        prop_assert_eq!(mac.flat(), &per_element(&ea, &products, add_mod)[..], "mac");
    }

    /// Plane automorphisms against the per-limb slice kernels, in both
    /// bases (coefficient scatter and evaluation permutation).
    #[test]
    fn prop_automorphism_plane_matches_poly(seed in any::<u64>(), r in 0usize..16) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 2);
        let k = 2 * r + 1; // Galois exponents are odd mod 2N.
        for form in [Form::Coeff, Form::Eval] {
            let a = random_plane(seed, n, &moduli, form);
            let mut moved = a.clone();
            moved.automorph_assign(k);
            for i in 0..a.limb_count() {
                let mut expect = vec![0u64; n];
                match form {
                    Form::Coeff => apply_coeff_slice(a.limb(i), &mut expect, k, a.modulus(i)),
                    Form::Eval => apply_eval_slice(a.limb(i), &mut expect, k),
                }
                prop_assert_eq!(moved.limb(i), &expect[..], "form {:?} limb {}", form, i);
            }
        }
    }

    /// The full plane product chain (forward NTT, Hadamard, inverse)
    /// against `NttContext::negacyclic_mul` and the schoolbook oracle,
    /// run limb by limb.
    #[test]
    fn prop_plane_ntt_mul_matches_slice_path(seed in any::<u64>()) {
        let n = 64;
        let moduli = generate_ntt_primes(n, 45, 3);
        let tables: Vec<NttContext> =
            moduli.iter().map(|&q| NttContext::new(n, q)).collect();
        let refs: Vec<&NttContext> = tables.iter().collect();

        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);

        let mut prod = a.clone();
        prod.ntt_forward(&refs);
        let mut be = b.clone();
        be.ntt_forward(&refs);
        prod.hadamard_assign(&be);
        prod.ntt_inverse(&refs);
        prop_assert_eq!(prod.form(), Form::Coeff);

        for (i, table) in tables.iter().enumerate() {
            let expect = table.negacyclic_mul(a.limb(i), b.limb(i));
            prop_assert_eq!(prod.limb(i), &expect[..], "limb {}", i);
            let oracle = negacyclic_mul_schoolbook(a.limb(i), b.limb(i), moduli[i]);
            prop_assert_eq!(&expect, &oracle, "limb {} vs schoolbook", i);
        }
    }

    /// Rescale on the plane against the hand-rolled per-limb formula
    /// `(c_i - c_L) · q_L^{-1} mod q_i` on centered representatives.
    #[test]
    fn prop_rescale_matches_per_limb_formula(seed in any::<u64>()) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 3);
        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let mut dropped = a.clone();
        dropped.rescale_assign();
        prop_assert_eq!(dropped.limb_count(), 2);

        let q_last = moduli[2];
        for (i, &qi) in moduli.iter().enumerate().take(2) {
            let inv = ufc_math::modops::inv_mod(q_last % qi, qi).unwrap();
            for (j, (&got, &c_last)) in
                dropped.limb(i).iter().zip(a.limb(2)).enumerate()
            {
                let c_i = a.limb(i)[j];
                let diff = ufc_math::modops::sub_mod(c_i, c_last % qi, qi);
                let expect = ufc_math::modops::mul_mod(diff, inv, qi);
                prop_assert_eq!(got, expect, "limb {} coeff {}", i, j);
            }
        }
    }
}

// ------------------------------------ Harvey round-trip, every prime

/// Forward/inverse round-trip (and output reduction) for every prime
/// the generator can emit, across ring dimensions and modulus widths —
/// the Shoup tables and lazy-reduction bounds must hold for all of
/// them, not just the benchmark favourites.
#[test]
fn harvey_roundtrip_for_every_generated_prime() {
    let mut checked = 0usize;
    for n in [16usize, 64, 256, 1024] {
        for bits in [17u32, 20, 31, 36, 45, 50, 55, 60, 62] {
            for q in generate_ntt_primes(n, bits, 3) {
                let ctx = NttContext::new(n, q);
                let mut next = stream(q ^ n as u64);
                let original: Vec<u64> = (0..n).map(|_| next() % q).collect();

                let mut buf = original.clone();
                ctx.forward(&mut buf);
                assert!(
                    buf.iter().all(|&c| c < q),
                    "forward output unreduced for q={q} n={n}"
                );
                assert_ne!(buf, original, "forward must not be identity");
                ctx.inverse(&mut buf);
                assert!(
                    buf.iter().all(|&c| c < q),
                    "inverse output unreduced for q={q} n={n}"
                );
                assert_eq!(buf, original, "round-trip failed for q={q} n={n}");

                // The lazy kernels must agree with the seed-faithful
                // textbook chain on the same prime.
                let mut reference = original.clone();
                ctx.forward_reference(&mut reference);
                let mut lazy = original.clone();
                ctx.forward(&mut lazy);
                assert_eq!(lazy, reference, "lazy vs reference for q={q} n={n}");
                checked += 1;
            }
        }
    }
    // 4 dims × 9 widths × up to 3 primes each; a few width/dim combos
    // have fewer than 3 primes in range, but the sweep must stay big.
    assert!(checked > 80, "only {checked} primes exercised");
}

// ------------------------------------------- thread-count invariance

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An identical op sequence on one worker thread and on four must
    /// produce bit-identical planes. The buffer is sized past the
    /// `par_limbs` serial cutoff so the threaded path really runs.
    #[test]
    fn prop_thread_count_never_changes_results(seed in any::<u64>()) {
        let n = 2048;
        let moduli = generate_ntt_primes(n, 50, 8);
        prop_assert_eq!(moduli.len(), 8);
        let tables: Vec<NttContext> =
            moduli.iter().map(|&q| NttContext::new(n, q)).collect();
        let refs: Vec<&NttContext> = tables.iter().collect();

        let run = |threads: usize| -> RnsPlane {
            let prev = set_max_threads(threads);
            let mut a = random_plane(seed, n, &moduli, Form::Coeff);
            let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);
            let mut be = b.clone();
            a.ntt_forward(&refs);
            be.ntt_forward(&refs);
            a.hadamard_assign(&be);
            a.mac_assign(&be, &be);
            a.ntt_inverse(&refs);
            a.automorph_assign(5);
            set_max_threads(prev);
            a
        };

        let serial = run(1);
        let threaded = run(4);
        prop_assert_eq!(serial, threaded);
    }
}
