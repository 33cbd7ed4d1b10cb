//! Op-level work-stealing determinism: a trace of independent plane
//! operations fanned out over [`ufc_math::par::par_ops_on`] must
//! produce bit-identical results at every thread count, even though
//! the self-scheduling queue assigns ops to workers
//! nondeterministically.
//!
//! This is the integration-level twin of the `par` unit tests: the
//! ops here are *real* element-wise plane kernels (hadamard, mac,
//! add), so the test also pins that the per-op SIMD dispatch inside
//! each kernel is schedule-independent — routes depend only on the
//! host and the modulus, never on which worker thread runs the op.

use ufc_math::par::{par_ops_on, set_max_threads};
use ufc_math::plane::{Form, RnsPlane};
use ufc_math::prime::generate_ntt_primes;

/// One independent op of the synthetic trace: a plane plus the two
/// operand planes its kernels consume.
struct TraceOp {
    acc: RnsPlane,
    a: RnsPlane,
    b: RnsPlane,
}

fn build_trace(n: usize, moduli: &[u64], ops: usize) -> Vec<TraceOp> {
    (0..ops)
        .map(|i| {
            let mk =
                |salt: u64| RnsPlane::pseudorandom(n, moduli, salt + 97 * i as u64, Form::Eval);
            TraceOp {
                acc: mk(1),
                a: mk(2),
                b: mk(3),
            }
        })
        .collect()
}

/// Runs the whole trace under `threads` workers and returns the
/// mutated accumulator planes.
fn run_trace(threads: usize, n: usize, moduli: &[u64], ops: usize) -> Vec<RnsPlane> {
    let mut trace = build_trace(n, moduli, ops);
    let prev = set_max_threads(threads);
    par_ops_on(&mut trace, |i, op| {
        // A mixed per-op recipe so adjacent ops cost different
        // amounts — exactly the skew the stealing queue exists for.
        op.acc.hadamard_assign(&op.a);
        op.acc.mac_assign(&op.a, &op.b);
        if i % 2 == 0 {
            op.acc.add_assign(&op.b);
        }
    });
    set_max_threads(prev);
    trace.into_iter().map(|op| op.acc).collect()
}

#[test]
fn trace_results_bit_identical_for_one_and_many_workers() {
    let n = 1 << 10;
    // 50-bit moduli keep every dispatch backend (portable, AVX2,
    // IFMA) eligible on hosts that have them.
    let moduli = generate_ntt_primes(n, 50, 2);
    let ops = 13;
    let serial = run_trace(1, n, &moduli, ops);
    for threads in [2, 4, 8] {
        let parallel = run_trace(threads, n, &moduli, ops);
        assert_eq!(
            serial, parallel,
            "work-stealing trace diverged between 1 and {threads} workers"
        );
    }
}
