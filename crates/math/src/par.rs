//! Dependency-free limb and op parallelism built on
//! `std::thread::scope`.
//!
//! RNS operations are embarrassingly parallel across limbs: every limb
//! is an independent length-`n` vector with its own modulus. This
//! module exposes [`par_limbs`], which splits the flat limb-major
//! buffer of an [`crate::plane::RnsPlane`] into disjoint per-limb
//! chunks and fans them out over scoped threads. No thread pool crate
//! is involved (registry crates are unavailable in this build); scoped
//! threads are spawned per call, which amortizes fine at FHE sizes
//! (an NTT at N = 2^14 dwarfs a thread spawn).
//!
//! One level up, [`par_ops`]/[`par_ops_on`] parallelize across
//! *independent operations in a trace* — e.g. the element-wise ops of
//! one evaluator level, which touch disjoint ciphertexts — with a
//! self-scheduling queue: workers pull the next op index from a shared
//! atomic counter, so an op that finishes early immediately steals the
//! next one instead of idling behind a static partition. That matters
//! for op-level traces, whose per-op costs are far less uniform than
//! per-limb NTT costs.
//!
//! Determinism: limbs are assigned to workers by a fixed round-robin
//! of the limb index, and each limb is processed exactly once by one
//! worker, so results are bit-identical for every thread count. The
//! op-level queue hands out each index exactly once too; because the
//! ops it runs are data-disjoint by contract, the *schedule* may vary
//! between runs but the results never do — pinned by the 1-vs-N test
//! in `crates/math/tests` and consumed by `bench_math --par-ops`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Global cap on worker threads. `0` means "auto" (use
/// `std::thread::available_parallelism`).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum total element count (`n · limbs`) before threads are
/// spawned at all; below this the scoped-spawn overhead outweighs the
/// work and everything runs serially on the caller's thread.
const PAR_MIN_WORK: usize = 1 << 14;

/// Caps the number of worker threads used by [`par_limbs`].
///
/// `0` restores the default (auto-detect). Returns the previous cap.
/// Results never depend on this setting — only wall-clock does.
pub fn set_max_threads(n: usize) -> usize {
    MAX_THREADS.swap(n, Ordering::SeqCst)
}

/// The number of worker threads [`par_limbs`] would use right now.
pub fn effective_threads() -> usize {
    match MAX_THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Applies `f(limb_index, limb_chunk)` to every `n`-element chunk of
/// the flat limb-major buffer `data`, in parallel across limbs when
/// profitable. Every limb of a multi-limb buffer runs under a
/// `math/par_limb` span; a single-limb buffer runs inline without one.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` (for `n > 0`).
pub fn par_limbs<F>(n: usize, data: &mut [u64], f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if n == 0 || data.is_empty() {
        return;
    }
    assert_eq!(data.len() % n, 0, "flat buffer must be whole limbs");
    let limbs = data.len() / n;
    if limbs == 1 {
        // A one-limb buffer (every TFHE polynomial) is not a fan-out:
        // no per-limb span, no thread-count query.
        f(0, data);
        return;
    }
    // Size first: below the cutoff the thread count is irrelevant, and
    // querying it (`available_parallelism`) costs more than a small
    // plane op.
    let threads = if data.len() < PAR_MIN_WORK {
        1
    } else {
        effective_threads().min(limbs)
    };
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(n).enumerate() {
            let _limb = ufc_trace::span_n("math", "par_limb", i as u64);
            f(i, chunk);
        }
        return;
    }
    // Hand each worker a round-robin share of the limbs. chunks_mut
    // yields disjoint borrows, so no synchronization is needed beyond
    // the scope join.
    let mut shares: Vec<Vec<(usize, &mut [u64])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(n).enumerate() {
        shares[i % threads].push((i, chunk));
    }
    std::thread::scope(|scope| {
        for share in shares {
            scope.spawn(|| {
                {
                    let _worker = ufc_trace::span_n("math", "par_worker", share.len() as u64);
                    for (i, chunk) in share {
                        let _limb = ufc_trace::span_n("math", "par_limb", i as u64);
                        f(i, chunk);
                    }
                }
                // Flush inside the closure: scope join only orders
                // closure returns, not TLS destructors, so relying on
                // the Drop-flush would race a `finish` right after
                // the fan-out.
                ufc_trace::flush_current_thread();
            });
        }
    });
}

/// Applies `f(op_index)` to every index in `0..count` exactly once,
/// fanning independent ops out over a self-scheduling worker queue.
///
/// Unlike [`par_limbs`]'s static round-robin, ops are *pulled*: each
/// worker grabs the next index from a shared counter when it finishes
/// its current op, so skewed per-op costs (a bootstrap next to an
/// add) cannot strand work behind a slow static share. `f` must only
/// touch data owned by its own index; under that contract results are
/// independent of the thread count and of the (nondeterministic)
/// schedule.
///
/// Respects [`set_max_threads`]; runs serially on the caller's thread
/// when the cap or the op count leaves a single worker.
pub fn par_ops<F>(count: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = effective_threads().min(count);
    if threads <= 1 {
        for i in 0..count {
            let _op = ufc_trace::span_n("math", "par_op", i as u64);
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                {
                    let _worker = ufc_trace::span_n("math", "par_ops_worker", count as u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let _op = ufc_trace::span_n("math", "par_op", i as u64);
                        f(i);
                    }
                }
                // Flush inside the closure — see par_limbs.
                ufc_trace::flush_current_thread();
            });
        }
    });
}

/// [`par_ops`] over a slice of owned work items: `f(i, &mut items[i])`
/// with exclusive access to each item.
///
/// Exclusivity is threaded through a per-item mutex so the queue stays
/// safe code; every lock is taken exactly once by whichever worker
/// pulled that index, so the locks never contend and cost one
/// uncontended CAS per op.
pub fn par_ops_on<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let slots: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    par_ops(slots.len(), |i| {
        let mut item = slots[i].lock().expect("per-op slot poisoned");
        f(i, &mut item);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_limb_exactly_once() {
        let n = 8;
        let limbs = 5;
        let mut data = vec![0u64; n * limbs];
        par_limbs(n, &mut data, |i, chunk| {
            for x in chunk.iter_mut() {
                *x += i as u64 + 1;
            }
        });
        for (i, chunk) in data.chunks(n).enumerate() {
            assert!(chunk.iter().all(|&x| x == i as u64 + 1));
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Big enough to cross PAR_MIN_WORK so the threaded path runs.
        let n = 4096;
        let limbs = 6;
        let mut serial = vec![1u64; n * limbs];
        let mut parallel = serial.clone();
        let f = |i: usize, chunk: &mut [u64]| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i as u64).wrapping_mul(31).wrapping_add(j as u64);
            }
        };
        let prev = set_max_threads(1);
        par_limbs(n, &mut serial, f);
        set_max_threads(4);
        par_limbs(n, &mut parallel, f);
        set_max_threads(prev);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_ops_runs_every_op_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
        let prev = set_max_threads(4);
        par_ops(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        set_max_threads(prev);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "op {i}");
        }
    }

    #[test]
    fn par_ops_on_results_independent_of_thread_count() {
        let work = |i: usize, buf: &mut Vec<u64>| {
            for (j, x) in buf.iter_mut().enumerate() {
                *x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(j as u64);
            }
        };
        let mut serial: Vec<Vec<u64>> = (0..9).map(|_| vec![0u64; 64]).collect();
        let mut parallel = serial.clone();
        let prev = set_max_threads(1);
        par_ops_on(&mut serial, work);
        set_max_threads(4);
        par_ops_on(&mut parallel, work);
        set_max_threads(prev);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_ops_zero_count_is_a_noop() {
        par_ops(0, |_| panic!("must not be called"));
    }

    #[test]
    fn empty_and_zero_dim_are_noops() {
        let mut data: Vec<u64> = Vec::new();
        par_limbs(4, &mut data, |_, _| panic!("must not be called"));
        let mut data = vec![1u64; 4];
        par_limbs(0, &mut data, |_, _| panic!("must not be called"));
        assert_eq!(data, vec![1u64; 4]);
    }
}
