//! The workload interface the measurement loop drives, and the
//! modelled-accelerator pass every workload's trace goes through.

use std::time::Instant;
use ufc_core::{try_compile_with_barriers, Ufc};
use ufc_isa::instr::{InstrStream, MacroInstr};
use ufc_isa::trace::Trace;
use ufc_math::ntt::NttContext;
use ufc_sim::{simulate_with, InstrCost, InstrSchedule, Machine, SimObserver, SimReport};

/// Facts a passed check establishes about one op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpFacts {
    /// Units of work the op completed (bootstrapped gates, simulated
    /// instructions, ...), for the workload's throughput line.
    pub work: u64,
    /// Achieved CKKS precision, `-log2(max slot error)`.
    pub precision_bits: Option<f64>,
    /// Modelled UFC makespan of the op's trace, cycles; the
    /// measurement loop fails an op whose makespan differs from the
    /// first passed op's.
    pub sim_cycles: u64,
}

/// One benchmark workload: a closed loop of identical-shape ops on
/// generated inputs.
///
/// Only [`Workload::setup`] and [`Workload::run`] are timed; inputs
/// and expected results are generated, and outputs are checked,
/// outside the timed window.
pub trait Workload: Sized {
    /// One op's generated input, with what the op must produce.
    type Input;
    /// What one op hands back for checking.
    type Output;

    /// Name of the unit [`OpFacts::work`] counts, e.g. `gates`.
    const WORK_UNIT: &'static str;

    /// Builds everything the ops need (contexts, keys, traces).
    fn setup(seed: u64) -> Self;

    /// Touches every lazily built table once before timing starts: by
    /// default one checked op on an input no measured op uses.
    /// Returns a description of what went wrong, if anything did.
    fn warm_up(&mut self) -> Result<(), String> {
        let input = self.input(u64::MAX);
        let output = self.run(&input);
        self.check(&input, &output).map(|_| ())
    }

    /// Generates op number `index` from the run's seed.
    fn input(&mut self, index: u64) -> Self::Input;

    /// Runs one op (the timed part).
    fn run(&mut self, input: &Self::Input) -> Self::Output;

    /// Checks an op's output against its input's expectation.
    fn check(&mut self, input: &Self::Input, output: &Self::Output) -> Result<OpFacts, String>;

    /// The traces whose modelled cost is the workload's `sim_cycles`.
    fn sim_traces(&self) -> Vec<Trace>;

    /// The NTT rings the op transforms on, the busiest first.
    fn rings(&self) -> Vec<&NttContext>;
}

/// Modelled cost of traces on the paper-default UFC.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Sum of makespans, cycles.
    pub cycles: u64,
    /// Instructions compiled and simulated.
    pub instrs: u64,
    /// Off-chip traffic, bytes.
    pub hbm_bytes: u64,
    /// NTT-unit busy cycles (utilization times makespan).
    pub ntt_busy: f64,
    /// Cycles instructions waited on producers.
    pub dep_stall: u64,
    /// Cycles instructions waited on a busy unit.
    pub res_stall: u64,
}

impl SimTotals {
    /// NTT-unit utilization over the summed makespan.
    pub fn ntt_util(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ntt_busy / self.cycles as f64
        }
    }

    fn add(&mut self, stream: &InstrStream, report: &SimReport) {
        self.cycles += report.cycles;
        self.instrs += stream.len() as u64;
        self.hbm_bytes += report.hbm_bytes;
        self.ntt_busy += report.util("Ntt") * report.cycles as f64;
    }
}

/// Sums the stall split of one simulation.
#[derive(Default)]
struct Stalls {
    dep: u64,
    res: u64,
}

impl SimObserver for Stalls {
    fn on_instr(&mut self, sched: &InstrSchedule, _instr: &MacroInstr, _cost: &InstrCost) {
        self.dep += sched.dep_stall;
        self.res += sched.res_stall;
    }
}

/// Compiles one trace for the paper-default UFC (timed as the
/// compiler layer when a recording is live).
pub fn compile(ufc: &Ufc, trace: &Trace) -> Result<InstrStream, String> {
    let _span = ufc_trace::span("compiler", "compile");
    try_compile_with_barriers(trace, *ufc.options()).map_err(|e| format!("{}: {e}", trace.name))
}

/// Simulates one compiled trace (timed as the simulator layer when a
/// recording is live).
pub fn simulate(machine: &dyn Machine, stream: &InstrStream) -> SimReport {
    let _span = ufc_trace::span("sim", "simulate");
    ufc_sim::simulate(machine, stream)
}

/// Compiles and simulates `traces` outside any op, summing cycles,
/// instructions, traffic and the dependency/resource stall split.
pub fn model(traces: &[Trace]) -> Result<SimTotals, String> {
    let ufc = Ufc::paper_default();
    let mut totals = SimTotals::default();
    for trace in traces {
        let stream = compile(&ufc, trace)?;
        let machine = ufc.try_machine_for(trace).map_err(|e| e.to_string())?;
        let mut obs = Stalls::default();
        let report = simulate_with(&machine, &stream, &mut obs);
        totals.dep_stall += obs.dep;
        totals.res_stall += obs.res;
        totals.add(&stream, &report);
    }
    Ok(totals)
}

/// Seeds a per-op generator from the run seed and the op index, so op
/// `i` is the same in every run with the same seed however many ops
/// came before it.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Median time of one forward and one inverse NTT on `ntt`'s ring,
/// microseconds, timed by calling the kernels directly.
pub fn ntt_call_us(ntt: &NttContext) -> (f64, f64) {
    const BATCHES: usize = 15;
    let n = ntt.dim();
    let calls = (1 << 16) / n.max(1) + 1;
    let mut a: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % ntt.modulus())
        .collect();
    let mut time = |inverse: bool| {
        let mut per_call: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..calls {
                    if inverse {
                        ntt.inverse(std::hint::black_box(&mut a));
                    } else {
                        ntt.forward(std::hint::black_box(&mut a));
                    }
                }
                t.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
            .collect();
        per_call.sort_by(f64::total_cmp);
        per_call[BATCHES / 2]
    };
    (time(false), time(true))
}
