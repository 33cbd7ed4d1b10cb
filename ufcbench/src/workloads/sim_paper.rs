//! `sim_paper`: compile and simulate the paper-scale traces on the
//! paper-default UFC.
//!
//! Set-up generates HELR (C1), ResNet-20 (C1), hybrid kNN (C2 x T4)
//! and SHA-256 (T1, 32-bit words, 16 rounds, prefix adder, one
//! block). An op compiles each trace with the default options and
//! simulates it; the modelled makespans must match the first op's.
//! The traces are fixed, so the seed changes nothing here.

use crate::workload::{compile, simulate, OpFacts, Workload};
use ufc_core::Ufc;
use ufc_isa::trace::Trace;
use ufc_math::ntt::NttContext;
use ufc_workloads::sha256::{self, AdderKind, ShaParams};
use ufc_workloads::{helr, knn, resnet};

/// The generated paper traces.
pub struct SimPaper {
    ufc: Ufc,
    traces: Vec<Trace>,
}

/// Modelled makespan and instructions simulated in one op.
pub struct Output {
    /// Summed makespan over the traces, or the first compile error.
    pub result: Result<(u64, u64), String>,
}

/// Generates the four paper traces (timed as the workload layer's
/// trace generation when a recording is live).
pub fn paper_traces() -> Vec<Trace> {
    let _span = ufc_trace::span("workloads", "trace_gen");
    vec![
        helr::generate("C1"),
        resnet::generate("C1"),
        knn::generate("C2", "T4", knn::KnnConfig::default()),
        sha256::generate("T1", &ShaParams::new(32, 16), AdderKind::Prefix, 1),
    ]
}

impl Workload for SimPaper {
    type Input = ();
    type Output = Output;
    const WORK_UNIT: &'static str = "sim_instrs";

    fn setup(_seed: u64) -> Self {
        Self {
            ufc: Ufc::paper_default(),
            traces: paper_traces(),
        }
    }

    fn input(&mut self, _index: u64) {}

    fn run(&mut self, _input: &()) -> Output {
        let mut cycles = 0;
        let mut instrs = 0;
        for trace in &self.traces {
            let stream = match compile(&self.ufc, trace) {
                Ok(s) => s,
                Err(e) => return Output { result: Err(e) },
            };
            let machine = match self.ufc.try_machine_for(trace) {
                Ok(m) => m,
                Err(e) => {
                    return Output {
                        result: Err(e.to_string()),
                    }
                }
            };
            cycles += simulate(&machine, &stream).cycles;
            instrs += stream.len() as u64;
        }
        Output {
            result: Ok((cycles, instrs)),
        }
    }

    fn check(&mut self, _input: &(), output: &Output) -> Result<OpFacts, String> {
        let (cycles, instrs) = output.result.clone()?;
        Ok(OpFacts {
            work: instrs,
            precision_bits: None,
            sim_cycles: cycles,
        })
    }

    fn sim_traces(&self) -> Vec<Trace> {
        self.traces.clone()
    }

    fn rings(&self) -> Vec<&NttContext> {
        Vec::new()
    }
}
