//! `ufcbench`: the end-to-end and per-layer benchmark of the UFC host
//! FHE stack (CKKS, TFHE, scheme switching) and the trace compiler
//! and cycle simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path ufcbench/Cargo.toml -- \
//!     --workload <ckks_step|tfhe_sha256|knn_hybrid|sim_paper> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run drives a closed loop of checked ops for `--seconds`, split
//! into rounds: each round first sets the workload up several times
//! from nothing (the median over all rounds is `setup_s`). The first
//! round also warms the lazily built tables. Every line but the last
//! is a readable report: host and dispatch facts, each metric with its
//! unit, and the check verdict. The last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs spend half
//! their time untraced and half recording every op, and report
//! per-layer self times, the tracing overhead and the modelled
//! accelerator statistics.
//!
//! Every op and set-up sits next to a probe: a fixed benchmark-owned
//! kernel whose time tracks how fast the shared host runs at that
//! moment (see [`host::probe`]). The result line's times are
//! host-speed-free: `op_mean_probes` is the mean op time over the mean
//! probe time, and `setup_s` the median set-up time scaled to a probe
//! of [`host::NOMINAL_PROBE_MS`]. The wall times are reported beside
//! them.
//!
//! The run refuses to start when an environment variable forces a
//! kernel or backend (see [`host::PINNED_ENV`]).

mod harness;
mod host;
mod layers;
mod metrics;
mod stats;
mod workload;
mod workloads;

use harness::{measure, run_rounds, Phase, Rounds, Tally};
use layers::LayerTimes;
use metrics::{RunFacts, Source, LAYER_METRICS};
use stats::{median, tail};
use std::process::ExitCode;
use std::time::Duration;
use workload::{model, Workload};
use workloads::{CkksStep, KnnHybrid, SimPaper, TfheSha256};

/// Rounds of set-ups and ops: ten set-up bursts of 0.2 s (a
/// few-millisecond set-up needs hundreds of set-ups for a steady
/// median; a half-second one still gets one a round).
const ROUNDS: Rounds = Rounds {
    rounds: 10,
    setup_budget: Duration::from_millis(200),
    setup_reps: (1, 40),
};
/// Samples a tail percentile needs beyond it.
const TAIL_BEYOND: usize = 10;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything a run reports.
struct Outcome {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<Metric>,
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    )
}

/// The precision of the run's first passed op: op 0 is the same in
/// every run with one seed, however long the run.
fn first_precision(phase: &Phase) -> Option<f64> {
    phase.passed.first().and_then(|f| f.precision_bits)
}

/// Readable lines for the untraced phase's end-to-end metrics.
fn end_to_end_lines<W: Workload>(phase: &Phase) -> Vec<String> {
    let mut lines = vec![
        format!(
            "op_mean_probes {} probes (mean op time over mean probe time)",
            phase.op_probes()
        ),
        format!(
            "op_p50_ms {} ms ({} ops)",
            median(&phase.op_ms),
            phase.op_ms.len()
        ),
    ];
    lines.push(match tail(&phase.op_ms, TAIL_BEYOND) {
        Some(t) => format!(
            "op_tail_ms {} ms (p{} of {} ops, {} beyond)",
            t.value, t.pct, t.samples, t.beyond
        ),
        None => format!(
            "op_tail_ms n/a ({} ops leave fewer than {TAIL_BEYOND} beyond the median)",
            phase.op_ms.len()
        ),
    });
    lines.push(format!(
        "probe_ms {} ms (median after each op)",
        median(&phase.probe_ms)
    ));
    lines.push(format!("{}_per_s {} 1/s", W::WORK_UNIT, phase.work_per_s()));
    if let Some(bits) = first_precision(phase) {
        let lowest = phase
            .passed
            .iter()
            .filter_map(|f| f.precision_bits)
            .fold(f64::INFINITY, f64::min);
        lines.push(format!(
            "precision_bits {bits} bits (op 0; lowest passed op {lowest})"
        ));
    }
    lines
}

/// Per-layer metrics of the traced phase, in [`LAYER_METRICS`] order.
fn layer_metrics<W: Workload>(
    w: &W,
    untraced: &Phase,
    traced: &Phase,
    layers: &LayerTimes,
    trace_gen_ms: f64,
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    let gate_us: Vec<f64> = layers
        .stat("tfhe/gate")
        .durations_ns
        .iter()
        .map(|&d| d as f64 / 1e3)
        .collect();
    let facts = RunFacts {
        ntt_us: w.rings().first().map(|r| workload::ntt_call_us(r)),
        precision_bits: first_precision(untraced),
        gate_p50_us: (!gate_us.is_empty()).then(|| median(&gate_us)),
        trace_gen_ms,
        totals: model(&w.sim_traces())?,
        sim_self_ms: layers.self_ms_per_op(&["sim/simulate"]),
        wall_ms: layers.wall_ns / 1e6 / layers.ops.max(1) as f64,
        attributed_ms: layers.self_ms_per_op(&metrics::attributed_keys()),
        overhead_ms: median(&traced.op_ms) - median(&untraced.op_ms),
        fail_ratio: tally.fail_ratio(),
        work_per_s: untraced.work_per_s(),
    };
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit, src)| {
            let value = match src {
                Source::Calls(keys) => layers.calls_per_op(keys),
                Source::SelfMs(keys) => layers.self_ms_per_op(keys),
                Source::Derived(derive) => derive(&facts),
            };
            Metric { name, value, unit }
        })
        .collect())
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut lines = vec![format!(
        "ufcbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    )];
    lines.extend(host::host_lines());
    let mut tally = Tally::default();

    // Traced runs split their time: untraced rounds first, for the
    // overhead baseline, then every op recorded. Their set-ups are
    // recorded, for the trace-generation layer; their set-up times
    // carry the recorder and go unreported.
    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut next = 0;
    let mut setup_spans = Vec::new();
    let run = run_rounds::<W>(
        args.seed,
        untraced_budget,
        ROUNDS,
        &mut next,
        &mut tally,
        args.trace.then_some(&mut setup_spans),
    );
    let (mut w, untraced) = (run.workload, run.phase);
    lines.extend(host::dispatch_lines(&w.rings()));
    let trace_gen_ms = args.trace.then(|| {
        let gen_ms: Vec<f64> = setup_spans
            .iter()
            .filter(|s| (s.cat, s.name) == ("workloads", "trace_gen"))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        if gen_ms.is_empty() {
            0.0
        } else {
            median(&gen_ms)
        }
    });
    let scaled_setup_s: Vec<f64> = run
        .setup_s
        .iter()
        .zip(&run.setup_probe_ms)
        .map(|(s, p)| s * host::NOMINAL_PROBE_MS / p)
        .collect();
    let setup_s = median(&scaled_setup_s);
    let sim_cycles = tally.sim_cycles.unwrap_or(0) as f64;
    let peak_rss_mib = host::peak_rss_mib()?;
    if trace_gen_ms.is_none() {
        lines.push(format!(
            "setup_s {setup_s} s (median of {} set-ups over {} rounds, each scaled by \
             the probe after it; wall-time median {} s)",
            run.setup_s.len(),
            run.rounds,
            median(&run.setup_s)
        ));
    }
    lines.extend(end_to_end_lines::<W>(&untraced));
    lines.push(format!(
        "sim_cycles {sim_cycles} cycles (UFC paper default)"
    ));
    lines.push(format!("peak_rss_mib {peak_rss_mib} MiB"));

    let metrics = match trace_gen_ms {
        None => vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("op_mean_probes", untraced.op_probes(), "probes"),
            Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
            Metric::new("sim_cycles", sim_cycles, "cycles"),
        ],
        Some(trace_gen_ms) => {
            let mut layers = LayerTimes::default();
            let traced_budget = budget - untraced_budget;
            let traced = measure(
                &mut w,
                traced_budget,
                &mut next,
                &mut tally,
                Some(&mut layers),
            );
            let metrics = layer_metrics(&w, &untraced, &traced, &layers, trace_gen_ms, &tally)?;
            lines.push(format!(
                "traced {} ops: op_p50_ms {} ms",
                traced.op_ms.len(),
                median(&traced.op_ms)
            ));
            for m in &metrics {
                lines.push(format!("{} {} {}", m.name, m.value, m.unit));
            }
            // Spans no metric reads, and NTT spans by kernel.
            let attributed = metrics::attributed_keys();
            for (key, stat) in &layers.keys {
                if key.contains('[') || !attributed.contains(&key.as_str()) {
                    lines.push(format!(
                        "span {key}: {} calls/op, {} self ms/op",
                        layers.calls_per_op(&[key]),
                        stat.self_ns / 1e6 / layers.ops.max(1) as f64
                    ));
                }
            }
            metrics
        }
    };

    lines.push(format!(
        "fail_ratio {} ({} of {} ops failed)",
        tally.fail_ratio(),
        tally.failed,
        tally.attempted
    ));
    lines.push(match &tally.first_failure {
        None => "check PASS: every op matched its plaintext expectation".into(),
        Some(why) => format!("check FAIL: {why}"),
    });
    Ok(Outcome {
        lines,
        tally,
        metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ufcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let forced = host::forced_env(|v| std::env::var_os(v).is_some());
    if !forced.is_empty() {
        eprintln!(
            "ufcbench: refusing to run with {} set: it forces a dispatch route",
            forced.join(", ")
        );
        return ExitCode::from(2);
    }
    host::settle_dispatch();
    let outcome = match args.workload.as_str() {
        "ckks_step" => bench::<CkksStep>(&args),
        "tfhe_sha256" => bench::<TfheSha256>(&args),
        "knn_hybrid" => bench::<KnnHybrid>(&args),
        "sim_paper" => bench::<SimPaper>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(o) => {
            for line in &o.lines {
                println!("{line}");
            }
            println!("{}", json_line(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ufcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload knn_hybrid --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "knn_hybrid".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }

    #[test]
    fn result_line_counts_failures() {
        let mut tally = Tally::default();
        tally.record(Err("corrupted".into()));
        let o = Outcome {
            lines: Vec::new(),
            tally,
            metrics: vec![Metric::new("op_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            json_line(&o),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
