//! Aggregated span metrics from `par_limbs` must not depend on the
//! worker-thread count: every limb is processed (and traced) exactly
//! once whether the fan-out runs serially or across scoped threads,
//! and the data it produces is bit-identical. A one-limb buffer is not
//! a fan-out and leaves no `math/par_limb` span at all.
//!
//! Single `#[test]`: the `ufc-trace` recorder is process-global and
//! the cargo harness runs tests in one binary concurrently.

use ufc_math::par::{par_limbs, set_max_threads};
use ufc_trace::HostTrace;

/// Big enough to cross the `PAR_MIN_WORK` serial threshold so the
/// 4-thread run really spawns workers.
const N: usize = 4096;
const LIMBS: usize = 8;

/// A deterministic NTT-shaped workload: per-limb butterfly-ish mixing
/// so each chunk's output depends on the limb index and every element.
fn work(i: usize, chunk: &mut [u64]) {
    let twiddle = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).max(3);
    for (j, x) in chunk.iter_mut().enumerate() {
        *x = x
            .wrapping_mul(twiddle)
            .wrapping_add(j as u64)
            .rotate_left((i % 63) as u32);
    }
}

/// Runs one recorded `par_limbs` pass at the given thread cap.
fn recorded_run(threads: usize) -> (Vec<u64>, HostTrace) {
    let mut data: Vec<u64> = (0..N * LIMBS).map(|v| v as u64 | 1).collect();
    let recorder = ufc_trace::record().expect("no other recording is live");
    let prev = set_max_threads(threads);
    par_limbs(N, &mut data, work);
    set_max_threads(prev);
    (data, recorder.finish())
}

/// The trace's `math/par_limb` spans as a sorted list of limb indices
/// — the aggregate view that must be thread-count invariant.
fn limb_details(trace: &HostTrace) -> Vec<u64> {
    let mut details: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "math" && s.name == "par_limb")
        .map(|s| s.detail)
        .collect();
    details.sort_unstable();
    details
}

#[test]
fn span_aggregates_and_data_are_thread_count_invariant() {
    let (serial_data, serial_trace) = recorded_run(1);
    let (par_data, par_trace) = recorded_run(4);

    // Bit-identity of the computation itself.
    assert_eq!(serial_data, par_data, "par_limbs output depends on threads");

    // Every limb traced exactly once, in both modes.
    let want: Vec<u64> = (0..LIMBS as u64).collect();
    assert_eq!(limb_details(&serial_trace), want);
    assert_eq!(limb_details(&par_trace), want);

    // The serial run stays on the caller's thread with no workers; the
    // capped run fans out to exactly 4 worker spans whose shares cover
    // all limbs.
    let workers = |t: &HostTrace| {
        t.spans
            .iter()
            .filter(|s| s.cat == "math" && s.name == "par_worker")
            .map(|s| s.detail)
            .collect::<Vec<u64>>()
    };
    assert!(workers(&serial_trace).is_empty());
    let shares = workers(&par_trace);
    assert_eq!(shares.len(), 4);
    assert_eq!(shares.iter().sum::<u64>(), LIMBS as u64);

    // Worker spans really ran on distinct recorder threads.
    let mut worker_threads: Vec<u32> = par_trace
        .spans
        .iter()
        .filter(|s| s.name == "par_worker")
        .map(|s| s.thread)
        .collect();
    worker_threads.sort_unstable();
    worker_threads.dedup();
    assert_eq!(
        worker_threads.len(),
        4,
        "each worker gets its own thread id"
    );

    // A single limb runs inline: the work happens, no span is left.
    let mut one: Vec<u64> = (0..N).map(|v| v as u64 | 1).collect();
    let expect = {
        let mut e = one.clone();
        work(0, &mut e);
        e
    };
    let recorder = ufc_trace::record().expect("no other recording is live");
    par_limbs(N, &mut one, work);
    let single_trace = recorder.finish();
    assert_eq!(one, expect);
    assert!(
        limb_details(&single_trace).is_empty(),
        "a one-limb buffer must not emit par_limb spans"
    );
}
