//! The per-layer metrics a traced run reports, and the span keys
//! each one reads.
//!
//! Every span key appears under at most one `self_ms` metric, so the
//! `self_ms` metrics plus `core.unattributed_ms` add up to the op's
//! traced wall time (`core.op_wall_ms`).

use crate::workload::SimTotals;

/// What a traced run measured besides the span keys, for the
/// metrics [`Source::Derived`] computes.
#[derive(Debug, Clone, Default)]
pub struct RunFacts {
    /// Direct-call forward and inverse NTT times on the workload's
    /// busiest ring, microseconds (`None` without a ring).
    pub ntt_us: Option<(f64, f64)>,
    /// Precision of the untraced phase's first op, bits.
    pub precision_bits: Option<f64>,
    /// Median inclusive gate time, microseconds (`None` without
    /// gates).
    pub gate_p50_us: Option<f64>,
    /// Median trace generation time of the set-ups, milliseconds.
    pub trace_gen_ms: f64,
    /// Modelled cost of the workload's traces.
    pub totals: SimTotals,
    /// Simulator self time per op, milliseconds.
    pub sim_self_ms: f64,
    /// Traced op wall time, milliseconds per op.
    pub wall_ms: f64,
    /// Self time of every attributed span key, milliseconds per op.
    pub attributed_ms: f64,
    /// Traced minus untraced median op time, milliseconds.
    pub overhead_ms: f64,
    /// Failed over attempted ops.
    pub fail_ratio: f64,
    /// Untraced work per second of op time.
    pub work_per_s: f64,
}

/// How a per-layer metric is read from the layer times.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Spans per op under the keys.
    Calls(&'static [&'static str]),
    /// Self milliseconds per op under the keys.
    SelfMs(&'static [&'static str]),
    /// Computed from the run's other measurements.
    Derived(fn(&RunFacts) -> f64),
}

/// `(name, unit, source)` of every per-layer metric, in output order.
pub const LAYER_METRICS: &[(&str, &str, Source)] = &[
    (
        "math.ntt_forward.us",
        "us",
        Source::Derived(|f| f.ntt_us.map_or(0.0, |t| t.0)),
    ),
    (
        "math.ntt_inverse.us",
        "us",
        Source::Derived(|f| f.ntt_us.map_or(0.0, |t| t.1)),
    ),
    (
        "math.ntt_forward.calls",
        "count",
        Source::Calls(&["math/ntt_forward"]),
    ),
    (
        "math.ntt_forward.self_ms",
        "ms",
        Source::SelfMs(&["math/ntt_forward"]),
    ),
    (
        "math.ntt_inverse.calls",
        "count",
        Source::Calls(&["math/ntt_inverse"]),
    ),
    (
        "math.ntt_inverse.self_ms",
        "ms",
        Source::SelfMs(&["math/ntt_inverse"]),
    ),
    (
        "math.negacyclic_mul.self_ms",
        "ms",
        Source::SelfMs(&["math/negacyclic_mul"]),
    ),
    (
        "math.par_limb.calls",
        "count",
        Source::Calls(&["math/par_limb"]),
    ),
    (
        "math.par_limb.self_ms",
        "ms",
        Source::SelfMs(&["math/par_limb"]),
    ),
    (
        "math.par_worker.self_ms",
        "ms",
        Source::SelfMs(&["math/par_worker"]),
    ),
    (
        "ckks.encode.self_ms",
        "ms",
        Source::SelfMs(&["ckks/encode"]),
    ),
    (
        "ckks.decode.self_ms",
        "ms",
        Source::SelfMs(&["ckks/decode"]),
    ),
    (
        "ckks.encrypt.self_ms",
        "ms",
        Source::SelfMs(&["ckks/encrypt"]),
    ),
    (
        "ckks.decrypt.self_ms",
        "ms",
        Source::SelfMs(&["ckks/decrypt"]),
    ),
    (
        "ckks.key_switch.calls",
        "count",
        Source::Calls(&["ckks/key_switch"]),
    ),
    (
        "ckks.key_switch.self_ms",
        "ms",
        Source::SelfMs(&["ckks/key_switch"]),
    ),
    ("ckks.mul.self_ms", "ms", Source::SelfMs(&["ckks/mul"])),
    (
        "ckks.mul_plain.self_ms",
        "ms",
        Source::SelfMs(&["ckks/mul_plain"]),
    ),
    (
        "ckks.rescale.self_ms",
        "ms",
        Source::SelfMs(&["ckks/rescale"]),
    ),
    (
        "ckks.rotate.self_ms",
        "ms",
        Source::SelfMs(&["ckks/rotate"]),
    ),
    ("ckks.hoist.self_ms", "ms", Source::SelfMs(&["ckks/hoist"])),
    (
        "ckks.rotate_hoisted.self_ms",
        "ms",
        Source::SelfMs(&["ckks/rotate_hoisted"]),
    ),
    ("ckks.add.self_ms", "ms", Source::SelfMs(&["ckks/add"])),
    (
        "ckks.precision_bits",
        "bits",
        Source::Derived(|f| f.precision_bits.unwrap_or(0.0)),
    ),
    ("tfhe.gate.calls", "count", Source::Calls(&["tfhe/gate"])),
    ("tfhe.gate.self_ms", "ms", Source::SelfMs(&["tfhe/gate"])),
    (
        "tfhe.gate.p50_us",
        "us",
        Source::Derived(|f| f.gate_p50_us.unwrap_or(0.0)),
    ),
    ("tfhe.pbs.calls", "count", Source::Calls(&["tfhe/pbs"])),
    ("tfhe.pbs.self_ms", "ms", Source::SelfMs(&["tfhe/pbs"])),
    (
        "tfhe.blind_rotate.self_ms",
        "ms",
        Source::SelfMs(&["tfhe/blind_rotate"]),
    ),
    (
        "tfhe.external_product.calls",
        "count",
        Source::Calls(&["tfhe/external_product"]),
    ),
    (
        "tfhe.external_product.self_ms",
        "ms",
        Source::SelfMs(&["tfhe/external_product"]),
    ),
    (
        "tfhe.key_switch.self_ms",
        "ms",
        Source::SelfMs(&["tfhe/key_switch"]),
    ),
    (
        "switch.extract.calls",
        "count",
        Source::Calls(&["switch/extract", "switch/extract_batch"]),
    ),
    (
        "switch.extract.self_ms",
        "ms",
        Source::SelfMs(&["switch/extract", "switch/extract_batch"]),
    ),
    (
        "workloads.gate_circuit.self_ms",
        "ms",
        Source::SelfMs(&["workload/gate_circuit"]),
    ),
    (
        "workloads.sha256_host.self_ms",
        "ms",
        Source::SelfMs(&[
            "workload/sha256_host",
            "workload/sha256_build_circuit",
            "workload/sha256_encrypt",
            "workload/sha256_block",
            "workload/sha256_decrypt",
        ]),
    ),
    (
        "workloads.trace_gen_ms",
        "ms",
        Source::Derived(|f| f.trace_gen_ms),
    ),
    (
        "compiler.compile.self_ms",
        "ms",
        Source::SelfMs(&["compiler/compile"]),
    ),
    (
        "compiler.instrs",
        "count",
        Source::Derived(|f| f.totals.instrs as f64),
    ),
    (
        "sim.simulate.self_ms",
        "ms",
        Source::SelfMs(&["sim/simulate"]),
    ),
    (
        "sim.instrs",
        "count",
        Source::Derived(|f| f.totals.instrs as f64),
    ),
    (
        "sim.host_ns_per_instr",
        "ns",
        Source::Derived(|f| f.sim_self_ms * 1e6 / f.totals.instrs.max(1) as f64),
    ),
    (
        "sim.ntt_util",
        "ratio",
        Source::Derived(|f| f.totals.ntt_util()),
    ),
    (
        "sim.hbm_bytes",
        "bytes",
        Source::Derived(|f| f.totals.hbm_bytes as f64),
    ),
    (
        "sim.dep_stall_cycles",
        "cycles",
        Source::Derived(|f| f.totals.dep_stall as f64),
    ),
    (
        "sim.res_stall_cycles",
        "cycles",
        Source::Derived(|f| f.totals.res_stall as f64),
    ),
    ("core.op_wall_ms", "ms", Source::Derived(|f| f.wall_ms)),
    (
        "core.unattributed_ms",
        "ms",
        Source::Derived(|f| f.wall_ms - f.attributed_ms),
    ),
    (
        "core.trace_overhead_ms",
        "ms",
        Source::Derived(|f| f.overhead_ms),
    ),
    (
        "core.fail_ratio",
        "ratio",
        Source::Derived(|f| f.fail_ratio),
    ),
    (
        "workloads.work_per_s",
        "1/s",
        Source::Derived(|f| f.work_per_s),
    ),
];

/// Every span key some `self_ms` metric reads.
pub fn attributed_keys() -> Vec<&'static str> {
    LAYER_METRICS
        .iter()
        .filter_map(|(_, _, src)| match src {
            Source::SelfMs(keys) => Some(*keys),
            _ => None,
        })
        .flatten()
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_keys_attributed_once() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        let mut keys = attributed_keys();
        keys.sort_unstable();
        let k = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), k, "a span key feeds two self_ms metrics");
        assert!(
            !keys.contains(&"core/op"),
            "the root's share is the residual"
        );
    }
}
