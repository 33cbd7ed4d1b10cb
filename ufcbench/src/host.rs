//! Host facts every run records: parallelism, vector extensions, the
//! dispatch routes the library takes, peak memory, and a probe of the
//! host's speed.

use std::time::Instant;
use ufc_math::ntt::NttContext;
use ufc_math::simd;

/// Environment variables that force a kernel or backend. A run with
/// any of them set would not take the route the parent commit takes
/// on the same host, so the benchmark refuses to start.
pub const PINNED_ENV: [&str; 3] = ["UFC_NTT_KERNEL", "UFC_SIMD_DISABLE", "UFC_IFMA_PORTABLE"];

/// A modulus above the IFMA window: routing a multiply for it runs
/// the library's one-shot AVX2-vs-scalar calibration race.
const WIDE_MODULUS: u64 = (1 << 59) - 55;

/// Names of the dispatch-forcing variables `is_set` reports as set
/// (pass `|v| std::env::var_os(v).is_some()` for the process
/// environment).
pub fn forced_env(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    PINNED_ENV.into_iter().filter(|v| is_set(v)).collect()
}

/// Runs the library's lazy one-time probes (feature detection and
/// the element-wise calibration race) so none of them lands inside a
/// timed window.
pub fn settle_dispatch() {
    simd::avx2_available();
    simd::ifma_available();
    simd::ew_dispatch_table(WIDE_MODULUS);
}

/// One line per host fact: parallelism and vector extensions.
pub fn host_lines() -> Vec<String> {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![format!(
        "host available_parallelism={parallelism} limb_threads={} avx2={} ifma={}",
        ufc_math::par::effective_threads(),
        simd::avx2_available(),
        simd::ifma_available()
    )]
}

/// One line per distinct ring shape naming its NTT kernel, then one
/// per distinct modulus width naming its element-wise routes.
pub fn dispatch_lines(rings: &[&NttContext]) -> Vec<String> {
    let bits = |q: u64| 64 - q.leading_zeros();
    let mut kernels: Vec<String> = rings
        .iter()
        .map(|r| {
            let (n, b, k) = (r.dim(), bits(r.modulus()), r.kernel().name());
            format!("ntt_kernel N={n} q={b}b -> {k}")
        })
        .collect();
    kernels.dedup();
    let mut widths: Vec<(u32, u64)> = rings
        .iter()
        .map(|r| (bits(r.modulus()), r.modulus()))
        .collect();
    widths.sort_unstable();
    widths.dedup_by_key(|w| w.0);
    kernels.extend(widths.into_iter().map(|(b, q)| {
        let routes: Vec<String> = simd::ew_dispatch_table(q)
            .into_iter()
            .map(|r| format!("{}={}({})", r.op.name(), r.backend.name(), r.source.name()))
            .collect();
        format!("ew_routes q={b}b {}", routes.join(" "))
    }));
    kernels
}

/// Iterations of [`probe`]: about a millisecond on a current Xeon core.
const PROBE_ITERS: u64 = 100_000;

/// Times one fixed piece of benchmark-owned work and returns its wall
/// time in milliseconds: eight independent multiply-xorshift chains,
/// so it runs at high instruction throughput and touches no memory.
/// On a shared host a neighbour on the same core slows it about as
/// much as it slows the program, and no change to the program can
/// change it, so a time divided by the probe's cancels the host's
/// speed.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..std::hint::black_box(PROBE_ITERS) {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let x = lane
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i ^ k as u64);
            *lane = x ^ (x >> 29) ^ (x << 7);
        }
    }
    std::hint::black_box(lanes);
    start.elapsed().as_secs_f64() * 1e3
}

/// Probe time of the host that host-speed-free times are given for:
/// a wall time `t` with a probe time `p` next to it reports as
/// `t * NOMINAL_PROBE_MS / p`.
pub const NOMINAL_PROBE_MS: f64 = 1.0;

/// Probes until the probes took at least `ms` milliseconds (at least
/// once) and returns their mean time, milliseconds.
pub fn probe_for(ms: f64) -> f64 {
    let mut times = vec![probe()];
    while times.iter().sum::<f64>() < ms {
        times.push(probe());
    }
    times.iter().sum::<f64>() / times.len() as f64
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_forcing_variable_is_refused() {
        assert!(forced_env(|_| false).is_empty());
        assert_eq!(
            forced_env(|v| v == "UFC_SIMD_DISABLE"),
            ["UFC_SIMD_DISABLE"]
        );
        assert_eq!(forced_env(|_| true), PINNED_ENV);
    }
}
