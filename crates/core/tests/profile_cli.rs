//! End-to-end tests for the `ufc-profile` CLI and its committed
//! hybrid-kNN fixture.
//!
//! The fixture is the serialized small k-NN trace
//! (`tests/fixtures/hybrid_knn_small.trace`); regenerate it after an
//! intentional workload/serializer change with
//! `UFC_REGEN_FIXTURES=1 cargo test -p ufc-core --test profile_cli`.

use std::path::PathBuf;
use std::process::Command;
use ufc_isa::serial::trace_to_text;
use ufc_workloads::knn::{self, KnnConfig};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hybrid_knn_small.trace")
}

fn small_knn_text() -> String {
    trace_to_text(&knn::generate(
        "C2",
        "T1",
        KnnConfig {
            candidates: 64,
            dim: 16,
            k: 2,
        },
    ))
}

#[test]
fn fixture_matches_generator() {
    let expected = small_knn_text();
    let path = fixture_path();
    if std::env::var_os("UFC_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &expected).expect("write fixture");
        return;
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with UFC_REGEN_FIXTURES=1)",
            path.display()
        )
    });
    assert_eq!(
        on_disk, expected,
        "fixture is stale; regenerate with UFC_REGEN_FIXTURES=1"
    );
}

#[test]
fn profile_cli_emits_valid_perfetto_and_consistent_summary() {
    let tmp = std::env::temp_dir().join(format!("ufc-profile-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let perfetto = tmp.join("knn.perfetto.json");
    let summary = tmp.join("knn.summary.json");

    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(fixture_path())
        .args(["--perfetto"])
        .arg(&perfetto)
        .args(["--json"])
        .arg(&summary)
        .output()
        .expect("run ufc-profile");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ufc-profile failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("## critical path"), "{stdout}");

    // The Perfetto file parses as JSON and carries >0 slices.
    let text = std::fs::read_to_string(&perfetto).expect("perfetto file");
    let trace = serde_json::from_str(&text).expect("perfetto JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    let slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X"))
        .count();
    assert!(slices > 0, "expected at least one complete event");

    // The JSON summary is self-consistent: the critical path tiles
    // the makespan and both breakdowns account for every cycle.
    let text = std::fs::read_to_string(&summary).expect("summary file");
    let v = serde_json::from_str(&text).expect("summary JSON parses");
    let cycles = v.get("cycles").and_then(serde::Value::as_u64).unwrap();
    assert!(cycles > 0);
    let cp = v.get("critical_path").expect("critical_path");
    let length = cp.get("length").and_then(serde::Value::as_u64).unwrap();
    assert_eq!(length, cycles);
    for breakdown in ["by_kernel", "by_phase"] {
        let total: u64 = cp
            .get(breakdown)
            .and_then(serde::Value::as_array)
            .unwrap()
            .iter()
            .map(|pair| {
                pair.as_array().unwrap()[1]
                    .as_u64()
                    .expect("cycle counts are u64")
            })
            .sum();
        assert_eq!(total, length, "{breakdown} must tile the makespan");
    }
    // Lowering stats rode along for the trace input.
    let compile = v.get("compile").expect("compile stats present");
    assert!(
        compile
            .get("total_instrs")
            .and_then(serde::Value::as_u64)
            .unwrap()
            > 0
    );

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn profile_cli_rejects_garbage_input() {
    let tmp = std::env::temp_dir().join(format!("ufc-profile-garbage-{}", std::process::id()));
    std::fs::write(&tmp, "not a trace\n").expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
        .arg(&tmp)
        .output()
        .expect("run ufc-profile");
    assert!(!out.status.success());
    std::fs::remove_file(&tmp).ok();
}

#[test]
fn profile_cli_exits_2_on_retired_kernel_names() {
    // `radix2` and `simd` named kernel generations that no longer
    // exist; the CLI must refuse them at startup instead of profiling
    // under a fallback kernel.
    for retired in ["radix2", "simd"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ufc-profile"))
            .arg(fixture_path())
            .env("UFC_NTT_KERNEL", retired)
            .output()
            .expect("run ufc-profile");
        assert_eq!(out.status.code(), Some(2), "UFC_NTT_KERNEL={retired}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(retired), "stderr:\n{stderr}");
    }
}
