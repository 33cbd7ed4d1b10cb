//! Double-precision complex FFT and FFT-based negacyclic
//! multiplication — the datapath Strix builds in hardware (§VII-D:
//! "Strix consists of normal 32-bit arithmetic units with 64-bit FFT
//! units due to the double-precision requirement for FFT. Compared to
//! FFT, NTT provides accurate results but requires extra modular
//! reduction").
//!
//! This module exists for two reasons: it backs the Strix-style
//! functional TFHE variant (`ufc-tfhe`'s FFT external products), and
//! its tests quantify the §VII-D trade-off — FFT results carry
//! rounding error that grows with the operand magnitudes, while the
//! NTT path is exact.

use crate::modops::{from_signed, to_signed};

/// A complex number as `(re, im)`.
pub type C64 = (f64, f64);

#[inline]
fn c_add(a: C64, b: C64) -> C64 {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn c_sub(a: C64, b: C64) -> C64 {
    (a.0 - b.0, a.1 - b.1)
}

#[inline]
fn c_mul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// In-place iterative radix-2 complex FFT (Cooley–Tukey,
/// natural-order in/out). `inverse` applies the conjugate transform
/// and the `1/n` normalization.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [C64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let w_len = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[start + j];
                let v = c_mul(data[start + j + len / 2], w);
                data[start + j] = c_add(u, v);
                data[start + j + len / 2] = c_sub(u, v);
                w = c_mul(w, w_len);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.0 *= inv_n;
            x.1 *= inv_n;
        }
    }
}

/// Negacyclic (twisted) forward FFT of signed coefficients: applies
/// the `e^{iπk/N}` twist so the cyclic FFT computes the negacyclic
/// convolution.
pub fn negacyclic_fft(signed: &[i64]) -> Vec<C64> {
    let n = signed.len();
    let mut data: Vec<C64> = signed
        .iter()
        .enumerate()
        .map(|(k, &c)| {
            let th = std::f64::consts::PI * k as f64 / n as f64;
            c_mul((c as f64, 0.0), (th.cos(), th.sin()))
        })
        .collect();
    fft(&mut data, false);
    data
}

/// Inverse of [`negacyclic_fft`], rounding back to signed integers.
///
/// Values must fit `i64`; the modular variant inside
/// [`negacyclic_mul_fft`] handles larger magnitudes.
pub fn negacyclic_ifft(mut data: Vec<C64>) -> Vec<i64> {
    negacyclic_ifft_f64(&mut data)
        .into_iter()
        .map(|v| v.round() as i64)
        .collect()
}

/// Untwisted inverse FFT returning raw `f64` coefficient values.
fn negacyclic_ifft_f64(data: &mut [C64]) -> Vec<f64> {
    let n = data.len();
    fft(data, true);
    data.iter()
        .enumerate()
        .map(|(k, &v)| {
            let th = -std::f64::consts::PI * k as f64 / n as f64;
            c_mul(v, (th.cos(), th.sin())).0
        })
        .collect()
}

/// Negacyclic polynomial product over `Z_q` computed through the
/// double-precision FFT (the Strix datapath). Exact only while the
/// intermediate magnitudes stay below the ~2^52 mantissa budget;
/// beyond that, rounding error leaks into the result — the §VII-D
/// trade-off.
///
/// # Panics
///
/// Panics if the operands' lengths differ.
pub fn negacyclic_mul_fft(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let sa: Vec<i64> = a.iter().map(|&c| to_signed(c, q)).collect();
    let sb: Vec<i64> = b.iter().map(|&c| to_signed(c, q)).collect();
    let fa = negacyclic_fft(&sa);
    let fb = negacyclic_fft(&sb);
    let mut prod: Vec<C64> = fa.iter().zip(&fb).map(|(&x, &y)| c_mul(x, y)).collect();
    // Reduce mod q in the f64 domain: magnitudes can exceed i64, and
    // the residual f64 error here *is* the §VII-D precision loss.
    let qf = q as f64;
    negacyclic_ifft_f64(&mut prod)
        .into_iter()
        .map(|v| {
            let r = v.round().rem_euclid(qf);
            from_signed(r as i64, q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttContext;
    use crate::plane::negacyclic_mul_schoolbook;
    use crate::prime::generate_ntt_prime;

    fn residues(signed: &[i64], q: u64) -> Vec<u64> {
        signed.iter().map(|&v| from_signed(v, q)).collect()
    }

    #[test]
    fn fft_roundtrip() {
        let orig: Vec<C64> = (0..64).map(|i| (i as f64, -(i as f64) / 3.0)).collect();
        let mut data = orig.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn negacyclic_fft_roundtrip() {
        let signed: Vec<i64> = (0..128).map(|i| (i * 37 % 101) - 50).collect();
        let back = negacyclic_ifft(negacyclic_fft(&signed));
        assert_eq!(back, signed);
    }

    #[test]
    fn fft_mul_matches_ntt_for_small_operands() {
        // With small operands the FFT stays within its mantissa
        // budget and agrees exactly with the (always-exact) NTT.
        let n = 256;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let a = residues(&(0..n as i64).map(|i| i % 128 - 64).collect::<Vec<_>>(), q);
        let b = residues(
            &(0..n as i64).map(|i| (i * 7) % 64 - 32).collect::<Vec<_>>(),
            q,
        );
        assert_eq!(negacyclic_mul_fft(&a, &b, q), ctx.negacyclic_mul(&a, &b));
    }

    #[test]
    fn fft_loses_precision_on_large_operands_ntt_does_not() {
        // §VII-D: "NTT provides accurate results". Push operands near
        // the modulus so Σ a_i·b_j reaches ~N·q² ≈ 2^70 >> 2^52: the
        // FFT product must deviate from the exact NTT product.
        let n = 256usize;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let big = (q / 2 - 1) as i64;
        let a = residues(&vec![big; n], q);
        let b = residues(&vec![-big; n], q);
        let exact = ctx.negacyclic_mul(&a, &b);
        let approx = negacyclic_mul_fft(&a, &b, q);
        assert_ne!(exact, approx, "FFT at full magnitude cannot stay exact");
        // Sanity: the schoolbook reference agrees with the NTT.
        assert_eq!(exact, negacyclic_mul_schoolbook(&a, &b, q));
    }

    #[test]
    fn fft_is_accurate_in_the_tfhe_regime() {
        // TFHE external products multiply gadget digits (|d| ≤ B/2)
        // by torus words — the regime Strix's 64-bit FFT is built
        // for. Verify exactness there.
        let n = 1024;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let digits = residues(
            &(0..n as i64).map(|i| (i % 128) - 64).collect::<Vec<_>>(),
            q,
        );
        // Torus operand kept within the product budget:
        // N · B/2 · |m| < 2^52  →  |m| < 2^52 / (2^10 · 2^6) = 2^36.
        let m = residues(
            &(0..n as i64)
                .map(|i| (i * 31415) % (1 << 24))
                .collect::<Vec<_>>(),
            q,
        );
        assert_eq!(
            negacyclic_mul_fft(&digits, &m, q),
            ctx.negacyclic_mul(&digits, &m)
        );
    }
}
