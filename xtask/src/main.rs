//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! * `lint` — the full static gate: `cargo fmt --check`,
//!   `cargo clippy --workspace -- -D warnings`, then the fixture
//!   corpus through `ufc-lint` (same contract as CI).
//! * `fixtures` — just the `ufc-lint` fixture sweep: every clean
//!   fixture must come back clean, every seeded fixture must produce
//!   at least one diagnostic.
//! * `profile-smoke` — build `ufc-profile`, run it on the small
//!   hybrid-kNN trace fixture, and validate the exported Perfetto
//!   file parses as JSON with at least one slice.
//! * `trace-smoke` — build `ufc-profile`, run it on the fixture with
//!   the host recorder enabled (`--host`), and validate all three
//!   runtime-tracing exports: the merged Perfetto file carries host
//!   slices and track-name metadata, every JSONL line parses, and the
//!   JSON summary has the host metrics block.
//! * `bench-math [--quick]` — build the release `bench_math` harness,
//!   run it writing `BENCH_math.json`, and validate the report shape
//!   (experiment tag, numeric headline speedup, non-empty tables, host
//!   topology block).
//! * `bench-switch [--quick]` — build the release `bench_switch`
//!   harness, run it writing `BENCH_switch.json`, and validate the
//!   report shape (experiment tag, `extract` and `repack` tables each
//!   carrying the batch-size axis, host topology block, O(√n)
//!   rotation-key headline).
//! * `bench-sha256 [--quick]` — build the release `bench_sha256`
//!   harness, run it writing `BENCH_sha256.json`, and validate the
//!   report: `circuit`/`sim`/`host` tables, host topology block, and the headline claims — the prefix
//!   adder's critical path strictly shorter than ripple's, its PLP
//!   utilization strictly higher, and the homomorphic digests
//!   matching the plaintext reference. The structural claims are
//!   deterministic simulator outputs, so they gate `--quick` runs
//!   too.
//!
//! The bench commands write their report at the workspace root, where
//! the committed `BENCH_*.json` lives, only on a full run; `--quick`
//! smoke runs write it under `target/` instead.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    // The CI kernel matrix forces kernels through `UFC_NTT_KERNEL`; a
    // typo'd value must kill the matrix leg, not be silently absorbed
    // by the library's warn-and-fall-back path somewhere downstream.
    if let Err(e) = ufc_math::ntt::NttKernel::from_env() {
        eprintln!("xtask: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("fixtures") => fixtures(),
        Some("unsafe-surface") => unsafe_surface(),
        Some("profile-smoke") => profile_smoke(),
        Some("trace-smoke") => trace_smoke(),
        Some("bench-math") => bench_math(args.iter().any(|a| a == "--quick")),
        Some("bench-switch") => bench_switch(args.iter().any(|a| a == "--quick")),
        Some("bench-sha256") => bench_sha256(args.iter().any(|a| a == "--quick")),
        Some("-h") | Some("--help") | None => {
            eprintln!(
                "usage: cargo xtask \
                 <lint|fixtures|unsafe-surface|profile-smoke|trace-smoke|bench-math|\
                 bench-switch|bench-sha256>"
            );
            eprintln!("  lint           fmt --check + clippy -D warnings + unsafe surface");
            eprintln!("                 + fixture sweep");
            eprintln!("  fixtures       run ufc-lint over crates/verify/tests/fixtures");
            eprintln!("  unsafe-surface assert `unsafe` appears only in crates/math/src/simd.rs");
            eprintln!("  profile-smoke  run ufc-profile on the hybrid-kNN fixture and");
            eprintln!("                 validate its Perfetto export");
            eprintln!("  trace-smoke    run ufc-profile --host on the fixture and validate");
            eprintln!("                 the merged Perfetto, JSONL, and JSON host exports");
            eprintln!("  bench-math     run the math micro-benchmarks, write and validate");
            eprintln!("                 BENCH_math.json (pass --quick for small sizes)");
            eprintln!("  bench-switch   run the scheme-switch boundary benchmarks, write and");
            eprintln!("                 validate BENCH_switch.json (pass --quick for CI smoke)");
            eprintln!("  bench-sha256   run the homomorphic SHA-256 benchmarks, write and");
            eprintln!("                 validate BENCH_sha256.json (pass --quick for CI smoke)");
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; try `cargo xtask --help`");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: xtask always runs from somewhere inside the repo.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest)
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

/// Runs `cargo <args>` at the workspace root, echoing the command.
fn cargo(args: &[&str]) -> bool {
    println!("+ cargo {}", args.join(" "));
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .current_dir(workspace_root())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn lint() -> ExitCode {
    let steps: &[&[&str]] = &[
        &["fmt", "--all", "--check"],
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    ];
    for step in steps {
        if !cargo(step) {
            eprintln!("xtask lint: `cargo {}` failed", step.join(" "));
            return ExitCode::FAILURE;
        }
    }
    if unsafe_surface() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    fixtures()
}

/// Source files allowed to contain the `unsafe` keyword, relative to
/// the workspace root. Everything else under `crates/*/src` must be
/// unsafe-free (and is compiled under `forbid(unsafe_code)` /
/// `deny(unsafe_code)` to match).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/math/src/simd.rs"];

/// Scans the workspace for the `unsafe` keyword outside the sanctioned
/// surface. Line comments are stripped first so prose about safety
/// does not trip the scan; `unsafe_code` (the lint name inside
/// `forbid`/`deny`/`allow` attributes) is not a match because the
/// token boundary check requires a non-identifier character after
/// `unsafe`.
fn unsafe_surface() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for crate_dir in std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(std::result::Result::ok)
    {
        collect_rs_files(&crate_dir.path().join("src"), &mut files);
    }
    files.sort();

    let mut violations = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if UNSAFE_ALLOWLIST.contains(&rel.as_str()) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        for (lineno, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or(line);
            if has_unsafe_token(code) {
                eprintln!(
                    "xtask lint: `unsafe` outside the sanctioned surface: {rel}:{}",
                    lineno + 1
                );
                violations += 1;
            }
        }
    }
    if violations == 0 {
        println!(
            "unsafe surface ok: {} files scanned, unsafe confined to {:?}",
            files.len(),
            UNSAFE_ALLOWLIST
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether `code` contains `unsafe` as a standalone token (not part of
/// a longer identifier such as `unsafe_code`).
fn has_unsafe_token(code: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0 || !rest[..pos].chars().next_back().is_some_and(ident);
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after.chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(std::result::Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn fixtures() -> ExitCode {
    let root = workspace_root();
    if !cargo(&["build", "-q", "-p", "ufc-verify", "--bin", "ufc-lint"]) {
        eprintln!("xtask fixtures: building ufc-lint failed");
        return ExitCode::FAILURE;
    }
    let lint_bin = root.join("target/debug/ufc-lint");
    let dir = root.join("crates/verify/tests/fixtures");
    let mut names: Vec<String> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(std::result::Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".trace") || n.ends_with(".stream"))
            .collect(),
        Err(e) => {
            eprintln!("xtask fixtures: reading {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();

    let mut failed = 0usize;
    for name in &names {
        // Clean fixtures must verify clean; seeded fixtures must
        // produce at least one diagnostic. The transfer fixtures are
        // target-gated: clean by default, flagged under `--target ufc`.
        // The noise fixtures (and the noise-clean pipeline) run under
        // `--noise` — their violations only exist to the noise pass.
        let target_ufc = name.contains("on_unified") || name == "clean_composed.trace";
        let noise = name.contains("noise");
        let expect_clean = name.starts_with("clean") && !target_ufc;
        let mut cmd = Command::new(&lint_bin);
        cmd.current_dir(&dir).arg("--json");
        if target_ufc {
            cmd.args(["--target", "ufc"]);
        }
        if noise {
            cmd.arg("--noise");
        }
        let out = match cmd.arg(name).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("xtask fixtures: running ufc-lint on {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let found = stdout.contains("\"code\":\"");
        let ok = if expect_clean { !found } else { found };
        println!(
            "{} {name}{}",
            if ok { "ok  " } else { "FAIL" },
            if target_ufc { " (--target ufc)" } else { "" }
        );
        if !ok {
            failed += 1;
            eprintln!(
                "  expected {}, ufc-lint said:\n{stdout}",
                if expect_clean { "clean" } else { "diagnostics" }
            );
        }
    }
    println!("{} fixtures, {failed} failed", names.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds `ufc-profile` in release mode, profiles the committed
/// hybrid-kNN trace fixture, and checks that the Perfetto export is
/// valid JSON carrying at least one complete ("X") slice — the same
/// contract the CI profile-smoke job enforces.
fn profile_smoke() -> ExitCode {
    let root = workspace_root();
    if !cargo(&[
        "build",
        "-q",
        "--release",
        "-p",
        "ufc-core",
        "--bin",
        "ufc-profile",
    ]) {
        eprintln!("xtask profile-smoke: building ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let fixture = root.join("crates/core/tests/fixtures/hybrid_knn_small.trace");
    let out_dir = root.join("target/profile-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask profile-smoke: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let perfetto = out_dir.join("hybrid_knn_small.perfetto.json");
    let summary = out_dir.join("hybrid_knn_small.summary.json");
    let bin = root.join("target/release/ufc-profile");
    println!(
        "+ {} {} --perfetto {} --json {}",
        bin.display(),
        fixture.display(),
        perfetto.display(),
        summary.display()
    );
    let status = Command::new(&bin)
        .arg(&fixture)
        .arg("--perfetto")
        .arg(&perfetto)
        .arg("--json")
        .arg(&summary)
        .status();
    if !status.map(|s| s.success()).unwrap_or(false) {
        eprintln!("xtask profile-smoke: ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let text = match std::fs::read_to_string(&perfetto) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask profile-smoke: {}: {e}", perfetto.display());
            return ExitCode::FAILURE;
        }
    };
    let trace = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask profile-smoke: Perfetto file is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let slices = trace
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .map(|events| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X"))
                .count()
        })
        .unwrap_or(0);
    if slices == 0 {
        eprintln!("xtask profile-smoke: Perfetto file has no slices");
        return ExitCode::FAILURE;
    }
    println!(
        "profile-smoke ok: {slices} slices in {}",
        perfetto.display()
    );
    ExitCode::SUCCESS
}

/// Builds `ufc-profile` in release mode, runs the committed hybrid-kNN
/// fixture with the host recorder enabled (`--host`), and validates
/// all three runtime-tracing exports — the same contract the CI
/// trace-smoke job enforces: the merged Perfetto trace parses and
/// carries host-process slices plus track-name metadata, every JSONL
/// span/gauge line parses as JSON, and the JSON summary contains the
/// `host` metrics block.
fn trace_smoke() -> ExitCode {
    let root = workspace_root();
    if !cargo(&[
        "build",
        "-q",
        "--release",
        "-p",
        "ufc-core",
        "--bin",
        "ufc-profile",
    ]) {
        eprintln!("xtask trace-smoke: building ufc-profile failed");
        return ExitCode::FAILURE;
    }
    let fixture = root.join("crates/core/tests/fixtures/hybrid_knn_small.trace");
    let out_dir = root.join("target/trace-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("xtask trace-smoke: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let perfetto = out_dir.join("hybrid_knn_small.merged.perfetto.json");
    let jsonl = out_dir.join("hybrid_knn_small.spans.jsonl");
    let summary = out_dir.join("hybrid_knn_small.host.summary.json");
    let bin = root.join("target/release/ufc-profile");
    println!(
        "+ {} {} --host --perfetto {} --jsonl {} --json {}",
        bin.display(),
        fixture.display(),
        perfetto.display(),
        jsonl.display(),
        summary.display()
    );
    let status = Command::new(&bin)
        .arg(&fixture)
        .arg("--host")
        .arg("--perfetto")
        .arg(&perfetto)
        .arg("--jsonl")
        .arg(&jsonl)
        .arg("--json")
        .arg(&summary)
        .status();
    if !status.map(|s| s.success()).unwrap_or(false) {
        eprintln!("xtask trace-smoke: ufc-profile --host failed");
        return ExitCode::FAILURE;
    }

    // 1. Merged Perfetto: must parse, and the host process
    //    (HOST_PID) must contribute both slices and named tracks.
    let text = match std::fs::read_to_string(&perfetto) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", perfetto.display());
            return ExitCode::FAILURE;
        }
    };
    let trace: serde::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask trace-smoke: Perfetto file is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = trace
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    let on_host = |e: &serde::Value| {
        e.get("pid").and_then(serde::Value::as_u64) == Some(ufc_telemetry::perfetto::HOST_PID)
    };
    let host_slices = events
        .iter()
        .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some("X") && on_host(e))
        .count();
    if host_slices == 0 {
        eprintln!("xtask trace-smoke: merged Perfetto file has no host slices");
        return ExitCode::FAILURE;
    }
    let host_tracks = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(serde::Value::as_str) == Some("thread_name") && on_host(e)
        })
        .count();
    if host_tracks == 0 {
        eprintln!("xtask trace-smoke: merged Perfetto file has no host thread_name metadata");
        return ExitCode::FAILURE;
    }

    // 2. JSONL: every line parses, and both event kinds appear.
    let lines = match std::fs::read_to_string(&jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", jsonl.display());
            return ExitCode::FAILURE;
        }
    };
    let mut span_lines = 0usize;
    let mut gauge_lines = 0usize;
    for (i, line) in lines.lines().enumerate() {
        let v: serde::Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "xtask trace-smoke: JSONL line {} does not parse: {e}",
                    i + 1
                );
                return ExitCode::FAILURE;
            }
        };
        match v.get("event").and_then(serde::Value::as_str) {
            Some("span") => span_lines += 1,
            Some("gauge") => gauge_lines += 1,
            other => {
                eprintln!(
                    "xtask trace-smoke: JSONL line {} has unknown event {other:?}",
                    i + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if span_lines == 0 || gauge_lines == 0 {
        eprintln!(
            "xtask trace-smoke: JSONL export incomplete \
             ({span_lines} span lines, {gauge_lines} gauge lines)"
        );
        return ExitCode::FAILURE;
    }

    // 3. JSON summary: the host metrics block must be present.
    let text = match std::fs::read_to_string(&summary) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-smoke: {}: {e}", summary.display());
            return ExitCode::FAILURE;
        }
    };
    let report: serde::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask trace-smoke: JSON summary is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(host) = report.get("host") else {
        eprintln!("xtask trace-smoke: JSON summary has no `host` block");
        return ExitCode::FAILURE;
    };
    if host
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .is_none()
    {
        eprintln!("xtask trace-smoke: JSON summary host block has no metrics histograms");
        return ExitCode::FAILURE;
    }
    println!(
        "trace-smoke ok: {host_slices} host slices / {host_tracks} host tracks, \
         {span_lines} span + {gauge_lines} gauge JSONL lines"
    );
    ExitCode::SUCCESS
}

/// Builds the release `bin` harness of `ufc-bench`, runs it, and
/// returns its parsed JSON report, after checking the `experiment`
/// tag, with the path it was written to.
///
/// A full run replaces the committed `report` file at the workspace
/// root; a `--quick` smoke run writes `target/<report>` instead, so
/// its small-size numbers never overwrite the committed measurement.
fn run_bench(bin: &str, report: &str, quick: bool) -> Result<(serde::Value, PathBuf), ExitCode> {
    let task = format!("xtask {}", bin.replace('_', "-"));
    let fail = |msg: String| {
        eprintln!("{task}: {msg}");
        ExitCode::FAILURE
    };
    let root = workspace_root();
    if !cargo(&["build", "-q", "--release", "-p", "ufc-bench", "--bin", bin]) {
        return Err(fail(format!("building {bin} failed")));
    }
    let out = if quick {
        root.join("target").join(report)
    } else {
        root.join(report)
    };
    let exe = root.join("target/release").join(bin);
    let mut cmd = Command::new(&exe);
    cmd.arg("--out").arg(&out);
    if quick {
        cmd.arg("--quick");
    }
    println!(
        "+ {} --out {}{}",
        exe.display(),
        out.display(),
        if quick { " --quick" } else { "" }
    );
    if !cmd.status().map(|s| s.success()).unwrap_or(false) {
        return Err(fail(format!("{bin} failed")));
    }
    let text =
        std::fs::read_to_string(&out).map_err(|e| fail(format!("{}: {e}", out.display())))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| fail(format!("report is not valid JSON: {e}")))?;
    if value.get("experiment").and_then(serde::Value::as_str) != Some(bin) {
        return Err(fail(format!("report is missing `experiment: \"{bin}\"`")));
    }
    Ok((value, out))
}

/// Runs the `bench_math` harness (see [`run_bench`] for where the
/// report lands) and validates the report shape — the same contract
/// the CI bench-smoke job enforces.
fn bench_math(quick: bool) -> ExitCode {
    let (report, out) = match run_bench("bench_math", "BENCH_math.json", quick) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    let speedup = report
        .get("headline")
        .and_then(|h| h.get("speedup"))
        .and_then(serde::Value::as_f64);
    let Some(speedup) = speedup else {
        eprintln!("xtask bench-math: report headline has no numeric `speedup`");
        return ExitCode::FAILURE;
    };
    let tables = report
        .get("tables")
        .and_then(serde::Value::as_array)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    if tables.is_empty() {
        eprintln!("xtask bench-math: report has no tables");
        return ExitCode::FAILURE;
    }
    // Element-wise lane coverage: on AVX2 hosts add/sub/scale route to
    // AVX2, so the report must carry their `ew_kernels` rows.
    let avx2 = report
        .get("host")
        .and_then(|h| h.get("avx2"))
        .and_then(serde::Value::as_bool);
    let Some(avx2) = avx2 else {
        eprintln!("xtask bench-math: report host has no boolean `avx2` field");
        return ExitCode::FAILURE;
    };
    // Host-topology contract: the report must say what it ran on —
    // core count, the NTT kernel auto-selection landed on, and the
    // limb-parallel worker count — so committed numbers are
    // interpretable across machines.
    let host = report.get("host");
    for field in ["available_parallelism", "par_threads"] {
        if host
            .and_then(|h| h.get(field))
            .and_then(serde::Value::as_u64)
            .is_none()
        {
            eprintln!("xtask bench-math: report host has no numeric `{field}` field");
            return ExitCode::FAILURE;
        }
    }
    if host
        .and_then(|h| h.get("ntt_kernel"))
        .and_then(serde::Value::as_str)
        .is_none()
    {
        eprintln!("xtask bench-math: report host has no string `ntt_kernel` field");
        return ExitCode::FAILURE;
    }
    let overhead = host
        .and_then(|h| h.get("trace_overhead_pct"))
        .and_then(serde::Value::as_f64);
    let Some(overhead) = overhead else {
        eprintln!("xtask bench-math: report host has no numeric `trace_overhead_pct` field");
        return ExitCode::FAILURE;
    };
    if overhead >= 2.0 {
        eprintln!(
            "xtask bench-math: disabled-recorder tracing overhead {overhead:.2}% \
             breaches the 2% budget"
        );
        return ExitCode::FAILURE;
    }
    if avx2 {
        let ew_rows = tables
            .iter()
            .find(|t| t.get("name").and_then(serde::Value::as_str) == Some("ew_kernels"))
            .and_then(|t| t.get("rows"))
            .and_then(serde::Value::as_array)
            .map(<[serde::Value]>::len)
            .unwrap_or(0);
        if ew_rows == 0 {
            eprintln!("xtask bench-math: AVX2 host but no populated `ew_kernels` table");
            return ExitCode::FAILURE;
        }
    }
    // Per-op dispatch contract: the report must carry the dispatch
    // table (which backend each element-wise op routed to, and
    // whether the route was static or measured) on every host — the
    // portable-only route is a dispatch decision too.
    let table_rows = |name: &str| -> Vec<serde::Value> {
        tables
            .iter()
            .find(|t| t.get("name").and_then(serde::Value::as_str) == Some(name))
            .and_then(|t| t.get("rows"))
            .and_then(serde::Value::as_array)
            .map(<[serde::Value]>::to_vec)
            .unwrap_or_default()
    };
    let col_index = |name: &str, col: &str| -> Option<usize> {
        tables
            .iter()
            .find(|t| t.get("name").and_then(serde::Value::as_str) == Some(name))
            .and_then(|t| t.get("columns"))
            .and_then(serde::Value::as_array)
            .and_then(|cols| cols.iter().position(|c| c.as_str() == Some(col)))
    };
    let ifma = report
        .get("host")
        .and_then(|h| h.get("ifma"))
        .and_then(serde::Value::as_bool)
        .unwrap_or(false);
    // The kernel-crossover contract: `ntt_kernels` times radix-4 and
    // IFMA per ring size and records the kernel `auto_for` picks. Every
    // row must name the pick the dispatch rule implies for this host
    // (IFMA from `RADIX4_MIN_DIM` up, given the hardware; the 36-bit
    // prime always fits), and on full runs IFMA must measure at least
    // as fast as radix-4 wherever it is picked.
    let kernel_rows = table_rows("ntt_kernels");
    let (Some(n_col), Some(speedup_col), Some(auto_col)) = (
        col_index("ntt_kernels", "n"),
        col_index("ntt_kernels", "ifma_speedup"),
        col_index("ntt_kernels", "auto_kernel"),
    ) else {
        eprintln!(
            "xtask bench-math: report has no `ntt_kernels` table with n/ifma_speedup/auto_kernel"
        );
        return ExitCode::FAILURE;
    };
    if kernel_rows.is_empty() {
        eprintln!("xtask bench-math: report has no populated `ntt_kernels` table");
        return ExitCode::FAILURE;
    }
    for row in &kernel_rows {
        let cell = |i: usize| row.as_array().and_then(|c| c.get(i)).cloned();
        let (Some(n), Some(speedup), Some(auto)) = (
            cell(n_col).and_then(|v| v.as_u64()),
            cell(speedup_col).and_then(|v| v.as_f64()),
            cell(auto_col).and_then(|v| v.as_str().map(str::to_owned)),
        ) else {
            eprintln!("xtask bench-math: malformed `ntt_kernels` row {row:?}");
            return ExitCode::FAILURE;
        };
        let n = n as usize;
        let want = if ifma && n >= ufc_math::ntt::RADIX4_MIN_DIM {
            "ifma"
        } else {
            "radix4"
        };
        if auto != want {
            eprintln!(
                "xtask bench-math: `ntt_kernels` N={n} picks {auto}, dispatch rule says {want}"
            );
            return ExitCode::FAILURE;
        }
        if !quick && auto == "ifma" && speedup < 1.0 {
            eprintln!(
                "xtask bench-math: auto_for picks ifma at N={n} but it measured a \
                 {speedup:.2}x speedup over radix-4"
            );
            return ExitCode::FAILURE;
        }
    }
    // Per-op dispatch contract: the report must carry the dispatch
    // table on every host — the portable-only route is a dispatch
    // decision too — and every route is static: the same host and
    // modulus always take the same route.
    let dispatch_rows = table_rows("ew_dispatch");
    if dispatch_rows.is_empty() {
        eprintln!("xtask bench-math: report has no populated `ew_dispatch` table");
        return ExitCode::FAILURE;
    }
    let Some(src_col) = col_index("ew_dispatch", "source") else {
        eprintln!("xtask bench-math: `ew_dispatch` has no `source` column");
        return ExitCode::FAILURE;
    };
    for row in &dispatch_rows {
        let source = row
            .as_array()
            .and_then(|c| c.get(src_col))
            .and_then(serde::Value::as_str);
        if source != Some("static") {
            eprintln!("xtask bench-math: `ew_dispatch` row {row:?} is not a static route");
            return ExitCode::FAILURE;
        }
    }
    // Routing regression gate: every route that leaves the portable
    // unroll (the only `ew_kernels` rows) must not lose to the scalar
    // loop, so each row must hold speedup >= 1.0 on committed full
    // runs. --quick smoke runs keep a jitter allowance for their few
    // repetitions.
    let ew_floor = if quick { 0.90 } else { 1.0 };
    let (Some(k_col), Some(s_col)) = (
        col_index("ew_kernels", "kernel"),
        col_index("ew_kernels", "speedup"),
    ) else {
        eprintln!("xtask bench-math: `ew_kernels` lacks kernel/speedup columns");
        return ExitCode::FAILURE;
    };
    let mut best_hadamard = 0.0f64;
    let mut best_mac = 0.0f64;
    for row in table_rows("ew_kernels") {
        let cells = row
            .as_array()
            .map(<[serde::Value]>::to_vec)
            .unwrap_or_default();
        let kernel = cells
            .get(k_col)
            .and_then(serde::Value::as_str)
            .unwrap_or("");
        let Some(sp) = cells.get(s_col).and_then(serde::Value::as_f64) else {
            eprintln!("xtask bench-math: `ew_kernels` row has no numeric speedup");
            return ExitCode::FAILURE;
        };
        if sp < ew_floor {
            eprintln!(
                "xtask bench-math: element-wise `{kernel}` dispatched at {sp:.2}x vs \
                 scalar — below the {ew_floor:.2} routing floor"
            );
            return ExitCode::FAILURE;
        }
        match kernel {
            "hadamard" => best_hadamard = best_hadamard.max(sp),
            "mac" => best_mac = best_mac.max(sp),
            _ => {}
        }
    }
    // Vector-multiply contract: with an IFMA-capable host the 50-bit
    // rows must show a real hadamard/mac win, not a dispatch no-op.
    if !quick && ifma && (best_hadamard < 1.3 || best_mac < 1.3) {
        eprintln!(
            "xtask bench-math: IFMA host but best hadamard {best_hadamard:.2}x / \
             mac {best_mac:.2}x below the 1.3x vector-multiply gate"
        );
        return ExitCode::FAILURE;
    }
    // Work-stealing contract: multi-core hosts must report the
    // op-level scaling table alongside the limb-level one.
    let cores = report
        .get("host")
        .and_then(|h| h.get("available_parallelism"))
        .and_then(serde::Value::as_u64)
        .unwrap_or(1);
    if cores > 1 && table_rows("op_scaling").is_empty() {
        eprintln!(
            "xtask bench-math: {cores}-core host but no populated `op_scaling` \
             work-stealing table"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench-math ok: {} tables ({} ntt_kernels rows, {} ew rows, best \
         hadamard {best_hadamard:.2}x / mac {best_mac:.2}x), headline speedup \
         {speedup:.2}x in {}",
        tables.len(),
        kernel_rows.len(),
        table_rows("ew_kernels").len(),
        out.display()
    );
    ExitCode::SUCCESS
}

/// Runs the `bench_switch` harness (see [`run_bench`] for where the
/// report lands) and validates the report shape — the same contract
/// the CI bench-switch smoke job enforces.
fn bench_switch(quick: bool) -> ExitCode {
    let (report, out) = match run_bench("bench_switch", "BENCH_switch.json", quick) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    // Both boundary directions must report, and every row must carry
    // the batch-size axis — a report without it cannot answer the
    // question the fast path exists for (how throughput scales with
    // the number of switched ciphertexts).
    let tables = report
        .get("tables")
        .and_then(serde::Value::as_array)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    for name in ["extract", "repack"] {
        let table = tables
            .iter()
            .find(|t| t.get("name").and_then(serde::Value::as_str) == Some(name));
        let Some(table) = table else {
            eprintln!("xtask bench-switch: report has no `{name}` table");
            return ExitCode::FAILURE;
        };
        let has_batch_col = table
            .get("columns")
            .and_then(serde::Value::as_array)
            .is_some_and(|cols| cols.iter().any(|c| c.as_str() == Some("batch")));
        if !has_batch_col {
            eprintln!("xtask bench-switch: `{name}` table has no `batch` column");
            return ExitCode::FAILURE;
        }
        let rows = table
            .get("rows")
            .and_then(serde::Value::as_array)
            .map(<[serde::Value]>::len)
            .unwrap_or(0);
        if rows == 0 {
            eprintln!("xtask bench-switch: report has no populated `{name}` table");
            return ExitCode::FAILURE;
        }
    }
    // Host-topology contract, same as bench-math: committed numbers
    // must say what they ran on.
    let host = report.get("host");
    for field in ["available_parallelism", "par_threads"] {
        if host
            .and_then(|h| h.get(field))
            .and_then(serde::Value::as_u64)
            .is_none()
        {
            eprintln!("xtask bench-switch: report host has no numeric `{field}` field");
            return ExitCode::FAILURE;
        }
    }
    if host
        .and_then(|h| h.get("ntt_kernel"))
        .and_then(serde::Value::as_str)
        .is_none()
    {
        eprintln!("xtask bench-switch: report host has no string `ntt_kernel` field");
        return ExitCode::FAILURE;
    }
    // Headline: the BSGS key-count claim is structural (independent of
    // runner noise), so it gates even --quick runs.
    let headline = report.get("headline");
    let bsgs_keys = headline
        .and_then(|h| h.get("bsgs_rotation_keys"))
        .and_then(serde::Value::as_u64);
    let naive_keys = headline
        .and_then(|h| h.get("naive_rotation_keys"))
        .and_then(serde::Value::as_u64);
    let (Some(bsgs_keys), Some(naive_keys)) = (bsgs_keys, naive_keys) else {
        eprintln!("xtask bench-switch: report headline has no rotation-key counts");
        return ExitCode::FAILURE;
    };
    if bsgs_keys >= naive_keys {
        eprintln!(
            "xtask bench-switch: BSGS holds {bsgs_keys} rotation keys, not fewer than \
             the naive path's {naive_keys}"
        );
        return ExitCode::FAILURE;
    }
    let speedup = headline
        .and_then(|h| h.get("extract_speedup"))
        .and_then(serde::Value::as_f64);
    let Some(speedup) = speedup else {
        eprintln!("xtask bench-switch: report headline has no numeric `extract_speedup`");
        return ExitCode::FAILURE;
    };
    // Timing claims only gate full runs: --quick on a shared CI runner
    // is smoke (does the harness run end to end), not a perf contract.
    if !quick && speedup < 1.0 {
        eprintln!(
            "xtask bench-switch: batched extraction headline speedup {speedup:.2}x \
             is below the per-index path on a full run"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench-switch ok: {} tables, extract headline {speedup:.2}x, rotation keys \
         {bsgs_keys} BSGS vs {naive_keys} naive in {}",
        tables.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

/// Runs the `bench_sha256` harness (see [`run_bench`] for where the
/// report lands) and validates the report — including the experiment's acceptance claims: the
/// parallel-prefix circuit must have a strictly shorter bootstrap
/// critical path AND strictly higher PLP utilization than
/// ripple-carry on the same block, and every homomorphic digest must
/// have matched the plaintext reference. All three claims come from
/// deterministic pipelines (circuit generator, compiler, scheduler,
/// seeded host run), so they gate `--quick` smoke runs too.
fn bench_sha256(quick: bool) -> ExitCode {
    let (report, out) = match run_bench("bench_sha256", "BENCH_sha256.json", quick) {
        Ok(ran) => ran,
        Err(code) => return code,
    };
    // Every layer must report, and every row must carry the adder
    // axis — a table that cannot say which adder produced it cannot
    // answer the depth-vs-gates question the workload exists to
    // measure.
    let tables = report
        .get("tables")
        .and_then(serde::Value::as_array)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    for name in ["circuit", "sim", "host"] {
        let table = tables
            .iter()
            .find(|t| t.get("name").and_then(serde::Value::as_str) == Some(name));
        let Some(table) = table else {
            eprintln!("xtask bench-sha256: report has no `{name}` table");
            return ExitCode::FAILURE;
        };
        let has_adder_col = table
            .get("columns")
            .and_then(serde::Value::as_array)
            .is_some_and(|cols| cols.iter().any(|c| c.as_str() == Some("adder")));
        if !has_adder_col {
            eprintln!("xtask bench-sha256: `{name}` table has no `adder` column");
            return ExitCode::FAILURE;
        }
        let rows = table
            .get("rows")
            .and_then(serde::Value::as_array)
            .map(<[serde::Value]>::len)
            .unwrap_or(0);
        if rows < 2 {
            eprintln!(
                "xtask bench-sha256: `{name}` table has {rows} rows, needs both adder variants"
            );
            return ExitCode::FAILURE;
        }
    }
    // Host-topology contract, same as the other bench reports.
    let host = report.get("host");
    for field in ["available_parallelism", "par_threads"] {
        if host
            .and_then(|h| h.get(field))
            .and_then(serde::Value::as_u64)
            .is_none()
        {
            eprintln!("xtask bench-sha256: report host has no numeric `{field}` field");
            return ExitCode::FAILURE;
        }
    }
    if host
        .and_then(|h| h.get("ntt_kernel"))
        .and_then(serde::Value::as_str)
        .is_none()
    {
        eprintln!("xtask bench-sha256: report host has no string `ntt_kernel` field");
        return ExitCode::FAILURE;
    }
    // The acceptance claims. All deterministic, so no --quick waiver.
    let headline = report.get("headline");
    let field_u64 = |name: &str| {
        headline
            .and_then(|h| h.get(name))
            .and_then(serde::Value::as_u64)
    };
    let field_f64 = |name: &str| {
        headline
            .and_then(|h| h.get(name))
            .and_then(serde::Value::as_f64)
    };
    let (Some(ripple_depth), Some(prefix_depth)) =
        (field_u64("ripple_depth"), field_u64("prefix_depth"))
    else {
        eprintln!("xtask bench-sha256: report headline has no depth pair");
        return ExitCode::FAILURE;
    };
    if prefix_depth >= ripple_depth {
        eprintln!(
            "xtask bench-sha256: prefix critical path ({prefix_depth} levels) is not \
             strictly shorter than ripple's ({ripple_depth})"
        );
        return ExitCode::FAILURE;
    }
    let (Some(ripple_util), Some(prefix_util)) =
        (field_f64("ripple_plp_util"), field_f64("prefix_plp_util"))
    else {
        eprintln!("xtask bench-sha256: report headline has no PLP utilization pair");
        return ExitCode::FAILURE;
    };
    if prefix_util <= ripple_util {
        eprintln!(
            "xtask bench-sha256: prefix PLP utilization ({prefix_util:.4}) is not \
             strictly higher than ripple's ({ripple_util:.4})"
        );
        return ExitCode::FAILURE;
    }
    if headline
        .and_then(|h| h.get("hom_ok"))
        .and_then(serde::Value::as_bool)
        != Some(true)
    {
        eprintln!("xtask bench-sha256: homomorphic digests did not match the reference");
        return ExitCode::FAILURE;
    }
    println!(
        "bench-sha256 ok: {} tables, critical path {prefix_depth} vs {ripple_depth} levels, \
         PLP util {prefix_util:.3} vs {ripple_util:.3}, digests match in {}",
        tables.len(),
        out.display()
    );
    ExitCode::SUCCESS
}
