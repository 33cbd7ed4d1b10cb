//! Golden test for `ufc-profile --host`: the top-spans table on the
//! committed hybrid-kNN fixture must carry exactly the pinned span
//! kinds with the pinned counts.
//!
//! The host pipeline is fully seeded and single-path, so the *shape*
//! of a recording — which spans fire and how often — is reproducible
//! bit for bit even though the latencies are not. The NTT kernel is
//! forced to `radix4` so the kernel tags don't vary with the host CPU,
//! and the test scale sits below the `par_limbs` threading threshold
//! so no `math/par_worker` spans appear. If you intentionally change
//! the instrumentation or the workload, update the table below.

use std::process::Command;

/// `(span key, count)` pinned for the default `HostRunConfig` (seed 7,
/// six candidates, six gates) under `UFC_NTT_KERNEL=radix4`.
const GOLDEN_SPANS: &[(&str, u64)] = &[
    ("ckks/add", 1),
    ("ckks/decrypt", 1),
    ("ckks/encode", 2),
    ("ckks/encrypt", 2),
    ("ckks/key_switch", 1),
    ("ckks/mul_plain", 1),
    ("ckks/rescale", 1),
    ("ckks/rotate", 1),
    ("math/negacyclic_mul[radix4]", 384),
    ("math/ntt_forward[radix4]", 6347),
    ("math/ntt_inverse[radix4]", 1994),
    ("math/par_limb", 614),
    ("switch/extract_batch[b8]", 1),
    ("tfhe/blind_rotate", 12),
    ("tfhe/external_product", 768),
    ("tfhe/gate[and]", 1),
    ("tfhe/gate[nand]", 1),
    ("tfhe/gate[nor]", 1),
    ("tfhe/gate[or]", 1),
    ("tfhe/gate[xnor]", 1),
    ("tfhe/gate[xor]", 1),
    ("tfhe/key_switch", 12),
    ("tfhe/pbs", 12),
    ("workload/ckks_arith", 1),
    ("workload/hybrid_knn", 1),
    ("workload/setup", 1),
    ("workload/tfhe_gates", 1),
    ("workload/threshold_compare", 1),
];

#[test]
fn host_top_spans_table_matches_golden() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/hybrid_knn_small.trace"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(fixture)
        .args(["--top", "64"])
        .arg("--host")
        .env("UFC_NTT_KERNEL", "radix4")
        .output()
        .expect("run ufc-profile --host");
    assert!(
        out.status.success(),
        "ufc-profile --host failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");

    // Pull `(span, count)` out of the "## host top spans" table.
    let section = stdout
        .split("## host top spans")
        .nth(1)
        .expect("output has a host top-spans section")
        .split("\n##")
        .next()
        .expect("split always yields a first piece");
    let mut got: Vec<(String, u64)> = section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| span") && !l.starts_with("|---"))
        .map(|l| {
            let mut cols = l.split('|').map(str::trim).filter(|c| !c.is_empty());
            let name = cols.next().expect("span column").to_owned();
            let count: u64 = cols
                .next()
                .expect("count column")
                .parse()
                .expect("count parses");
            (name, count)
        })
        .collect();
    got.sort();

    let want: Vec<(String, u64)> = GOLDEN_SPANS
        .iter()
        .map(|&(n, c)| (n.to_owned(), c))
        .collect();
    assert_eq!(
        got, want,
        "host top-spans table drifted from the golden shape \
         (timings may vary; span kinds and counts must not)"
    );

    // The noise-headroom section rides along in the same output.
    assert!(stdout.contains("## noise headroom"), "{stdout}");
    assert!(stdout.contains("headroom drift:"), "{stdout}");
}
