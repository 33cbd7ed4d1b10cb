//! # ufc-math — arithmetic substrate for the UFC reproduction
//!
//! This crate implements, from scratch, every piece of finite-field and
//! polynomial-ring arithmetic that the FHE schemes accelerated by UFC
//! (MICRO 2024) are built on:
//!
//! * 64-bit modular arithmetic: plain, [Barrett][modops::Barrett]
//!   and [Shoup][modops::ShoupMul] reductions (the paper's lanes use
//!   Montgomery; DESIGN.md says why these use Barrett/Shoup),
//! * NTT-friendly prime generation and primitive-root search
//!   ([`prime`]),
//! * the classical iterative number-theoretic transform with three
//!   kernel generations — the seed reference, the Shoup/Harvey
//!   radix-4 kernel (cache-blocked at large `N`), and an AVX-512 IFMA
//!   generation (52-bit `vpmadd52` lanes ([`simd`]) with a
//!   bit-identical portable mirror, moduli below 2⁵⁰) — behind a
//!   per-dimension runtime dispatch ([`ntt`], [`ntt::NttKernel`],
//!   `UFC_NTT_KERNEL`), and the
//!   **constant-geometry (Pease) NTT**
//!   that UFC's interconnect co-design is built around ([`cgntt`]),
//!   plus the double-precision FFT datapath of the Strix baseline
//!   ([`fft`], §VII-D),
//! * the one polynomial type over `Z_q[X]/(X^N + 1)`: the flat
//!   limb-major RNS data plane with in-place kernels ([`plane`]) —
//!   multi-limb for CKKS, one limb for TFHE — and dependency-free
//!   limb parallelism ([`par`]),
//! * residue number systems and fast base conversion (`BConv`)
//!   ([`rns`]),
//! * gadget / digit decomposition used by key-switching and RGSW
//!   external products ([`gadget`]),
//! * automorphism index maps, including the shuffle-free
//!   automorphism-via-NTT trick of the paper's §IV-C2 ([`automorph`]),
//! * secret / noise samplers ([`sample`]).
//!
//! Everything is pure, deterministic (given an RNG) and extensively
//! property-tested. `unsafe` is confined to exactly one module — the
//! AVX2 / AVX-512 IFMA intrinsics backends of [`simd`], gated behind
//! runtime feature detection — and every other module is compiled
//! with `deny(unsafe_code)`.
//!
//! ## Example
//!
//! ```
//! use ufc_math::plane::{negacyclic_mul_schoolbook, Form, RnsPlane};
//! use ufc_math::NttContext;
//!
//! // A negacyclic ring Z_q[X]/(X^8 + 1) with an NTT-friendly prime.
//! let ctx = NttContext::new(8, ufc_math::prime::generate_ntt_prime(8, 40).unwrap());
//! let q = ctx.modulus();
//! let a = RnsPlane::from_flat(vec![1, 2, 3, 4, 5, 6, 7, 8], &[q], Form::Coeff);
//! let b = RnsPlane::from_flat(vec![8, 7, 6, 5, 4, 3, 2, 1], &[q], Form::Coeff);
//!
//! // Product through the plane: forward NTT, Hadamard, inverse NTT.
//! let (mut c, mut eb) = (a.clone(), b.clone());
//! c.ntt_forward(&[&ctx]);
//! eb.ntt_forward(&[&ctx]);
//! c.hadamard_assign(&eb);
//! c.ntt_inverse(&[&ctx]);
//! assert_eq!(c.limb(0), &negacyclic_mul_schoolbook(a.limb(0), b.limb(0), q)[..]);
//! ```

#![deny(unsafe_code)]

pub mod automorph;
pub mod cgntt;
pub mod fft;
pub mod gadget;
pub mod modops;
pub mod ntt;
pub mod par;
pub mod plane;
pub mod prime;
pub mod rns;
pub mod sample;
// The one sanctioned unsafe surface of the workspace: the AVX2 and
// AVX-512 IFMA intrinsics backends behind runtime feature detection. `cargo xtask
// lint` enforces that no other file carries `unsafe`.
#[allow(unsafe_code)]
pub mod simd;

pub use modops::{inv_mod, mul_mod, pow_mod};
pub use ntt::{NttContext, NttKernel};
pub use plane::{Form, RnsPlane};
pub use rns::RnsBasis;
