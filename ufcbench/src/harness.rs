//! The closed measurement loop: one client, the next op only after
//! the previous one has finished and been checked.
//!
//! A run is a few rounds, each a burst of timed fresh set-ups and a
//! slice of the op budget. Spreading the set-ups over the run lets
//! `setup_s` sample the same stretch of host time as the ops,
//! instead of one burst at the start.

use crate::host::probe_for;
use crate::layers::{LayerTimes, ROOT};
use crate::stats::median;
use crate::workload::{OpFacts, Workload};
use std::time::{Duration, Instant};
use ufc_trace::HostSpan;

/// Ops attempted and failed, with the first failure's reason, and
/// the makespan every op must repeat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// Why the first failed op failed.
    pub first_failure: Option<String>,
    /// Modelled makespan of the first passed op, cycles.
    pub sim_cycles: Option<u64>,
}

impl Tally {
    /// Counts one checked op; passes its facts through on success.
    /// An op whose modelled makespan differs from the first passed
    /// op's fails.
    pub fn record(&mut self, verdict: Result<OpFacts, String>) -> Option<OpFacts> {
        self.attempted += 1;
        let verdict = verdict.and_then(|facts| {
            let first = *self.sim_cycles.get_or_insert(facts.sim_cycles);
            if first == facts.sim_cycles {
                Ok(facts)
            } else {
                Err(format!(
                    "sim_cycles {} differs from the first op's {first}",
                    facts.sim_cycles
                ))
            }
        });
        match verdict {
            Ok(facts) => Some(facts),
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                None
            }
        }
    }

    /// Failed over attempted (0 when nothing ran).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Share of each op's and set-up's time spent probing the host's speed
/// next to it: half before an op and half after, all after a set-up,
/// and at least one probe each time.
const PROBE_SHARE: f64 = 0.02;

/// What one measured phase saw.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of every op, milliseconds, in run order.
    pub op_ms: Vec<f64>,
    /// Mean [`crate::host::probe`] time around each op, milliseconds.
    pub probe_ms: Vec<f64>,
    /// Facts of the ops that passed their check, in run order.
    pub passed: Vec<OpFacts>,
    /// Work done by passed ops.
    pub work: u64,
    /// Wall time the phase took, ops and their checks, seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Work per second of op time.
    pub fn work_per_s(&self) -> f64 {
        let busy_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        if busy_s == 0.0 {
            0.0
        } else {
            self.work as f64 / busy_s
        }
    }

    /// Mean op time in units of the mean probe time: the op's cost
    /// with the host's speed at the time divided out.
    pub fn op_probes(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / self.probe_ms.iter().sum::<f64>()
    }

    fn extend(&mut self, other: Phase) {
        self.op_ms.extend(other.op_ms);
        self.probe_ms.extend(other.probe_ms);
        self.passed.extend(other.passed);
        self.work += other.work;
        self.elapsed_s += other.elapsed_s;
    }
}

/// How a run spreads its set-ups over its op budget.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    /// Rounds the op budget is split into.
    pub rounds: u32,
    /// Wall time each round's set-ups take at least, unless
    /// `setup_reps.1` finish first.
    pub setup_budget: Duration,
    /// Fewest and most set-ups per round.
    pub setup_reps: (usize, usize),
}

/// What a run of rounds leaves behind.
pub struct RoundsRun<W> {
    /// The last round's build, ready for more ops.
    pub workload: W,
    /// Every round's ops.
    pub phase: Phase,
    /// Every set-up's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// Mean probe time right after each set-up, milliseconds.
    pub setup_probe_ms: Vec<f64>,
    /// Rounds run.
    pub rounds: u32,
}

/// Runs `plan.rounds` rounds of [fresh set-ups, ops] within an op
/// budget of `budget`. A round starts only while at least half a
/// median op of budget is left, and the first always does. The
/// previous round's build is dropped before the next round's
/// set-ups, so one build is alive at a time. The library's lazily
/// built state is process-wide, so only the first round's build is
/// warmed up before its ops. With `setup_spans`, set-ups are
/// recorded and their spans appended; their times then carry the
/// recorder.
pub fn run_rounds<W: Workload>(
    seed: u64,
    budget: Duration,
    plan: Rounds,
    next: &mut u64,
    tally: &mut Tally,
    mut setup_spans: Option<&mut Vec<HostSpan>>,
) -> RoundsRun<W> {
    let budget_s = budget.as_secs_f64();
    let mut phase = Phase::default();
    let mut setup_s = Vec::new();
    let mut setup_probe_ms = Vec::new();
    let mut live: Option<W> = None;
    let mut rounds = 0;
    for round in 0..plan.rounds {
        let left_s = budget_s - phase.elapsed_s;
        if round > 0 && left_s < median(&phase.op_ms) / 2e3 {
            break;
        }
        drop(live.take());
        let recorder = setup_spans
            .is_some()
            .then(|| ufc_trace::record().expect("no other recording is live"));
        let (mut w, times, probes) = time_setups::<W>(seed, plan.setup_budget, plan.setup_reps);
        if let (Some(rec), Some(spans)) = (recorder, setup_spans.as_deref_mut()) {
            spans.extend(rec.finish().spans);
        }
        setup_s.extend(times);
        setup_probe_ms.extend(probes);
        if round == 0 {
            if let Err(why) = w.warm_up() {
                tally.record(Err(format!("warm-up: {why}")));
            }
        }
        let slice = left_s / f64::from(plan.rounds - round);
        phase.extend(measure(
            &mut w,
            Duration::from_secs_f64(slice),
            next,
            tally,
            None,
        ));
        live = Some(w);
        rounds += 1;
    }
    RoundsRun {
        workload: live.expect("the first round always runs"),
        phase,
        setup_s,
        setup_probe_ms,
        rounds,
    }
}

/// Builds the workload from nothing again and again, timing each
/// build, until both `budget` has passed and `reps.0` builds are done,
/// or `reps.1` builds are. Each build is dropped before the next
/// starts, and the host's speed is probed after each. Returns the last
/// build, every build's time in seconds and the probe time after each
/// in milliseconds.
pub fn time_setups<W: Workload>(
    seed: u64,
    budget: Duration,
    reps: (usize, usize),
) -> (W, Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut built = None;
    while times.is_empty()
        || (times.len() < reps.1 && (times.len() < reps.0 || start.elapsed() < budget))
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(W::setup(seed));
        let setup_s = t.elapsed().as_secs_f64();
        times.push(setup_s);
        probes.push(probe_for(PROBE_SHARE * setup_s * 1e3));
    }
    (built.expect("at least one set-up"), times, probes)
}

/// Runs ops back to back for about `budget`, starting at op number
/// `*next`. An op starts only if a median iteration still fits in the
/// budget, and at least one op always runs. The host's speed is
/// probed before and after each op. With `layers`, each op is recorded
/// and its spans folded into per-layer self times.
pub fn measure<W: Workload>(
    w: &mut W,
    budget: Duration,
    next: &mut u64,
    tally: &mut Tally,
    mut layers: Option<&mut LayerTimes>,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut iter_s: Vec<f64> = Vec::new();
    loop {
        if !iter_s.is_empty()
            && start.elapsed().as_secs_f64() + median(&iter_s) > budget.as_secs_f64()
        {
            break;
        }
        let iter = Instant::now();
        let input = w.input(*next);
        *next += 1;
        let last_ms = phase.op_ms.last().copied().unwrap_or(0.0);
        let before = probe_for(PROBE_SHARE / 2.0 * last_ms);
        let recorder = layers
            .is_some()
            .then(|| ufc_trace::record().expect("no other recording is live"));
        let t = Instant::now();
        let output = {
            let _root = ufc_trace::span(ROOT.0, ROOT.1);
            w.run(&input)
        };
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(rec), Some(layers)) = (recorder, layers.as_deref_mut()) {
            let spans = rec.finish().spans;
            assert!(layers.add_op(&spans), "recorded op has a root span");
        }
        phase.op_ms.push(op_ms);
        let after = probe_for(PROBE_SHARE / 2.0 * op_ms);
        phase.probe_ms.push((before + after) / 2.0);
        if let Some(facts) = tally.record(w.check(&input, &output)) {
            phase.work += facts.work;
            phase.passed.push(facts);
        }
        iter_s.push(iter.elapsed().as_secs_f64());
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use ufc_isa::trace::Trace;

    /// Builds alive now, and the most ever alive at once.
    static ALIVE: AtomicUsize = AtomicUsize::new(0);
    static MOST_ALIVE: AtomicUsize = AtomicUsize::new(0);

    /// Doubles its input; every third op's output is corrupted.
    struct Doubler;

    impl Drop for Doubler {
        fn drop(&mut self) {
            ALIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Workload for Doubler {
        type Input = u64;
        type Output = u64;
        const WORK_UNIT: &'static str = "doublings";

        fn setup(_seed: u64) -> Self {
            let alive = ALIVE.fetch_add(1, Ordering::SeqCst) + 1;
            MOST_ALIVE.fetch_max(alive, Ordering::SeqCst);
            Doubler
        }
        fn input(&mut self, index: u64) -> u64 {
            index
        }
        fn run(&mut self, input: &u64) -> u64 {
            std::thread::sleep(Duration::from_millis(2));
            input.wrapping_mul(2) + u64::from(input % 3 == 2)
        }
        fn check(&mut self, input: &u64, output: &u64) -> Result<OpFacts, String> {
            if *output != input.wrapping_mul(2) {
                return Err(format!("{output} != 2 * {input}"));
            }
            Ok(OpFacts {
                work: 1,
                precision_bits: None,
                sim_cycles: 100,
            })
        }
        fn sim_traces(&self) -> Vec<Trace> {
            Vec::new()
        }
        fn rings(&self) -> Vec<&ufc_math::ntt::NttContext> {
            Vec::new()
        }
    }

    #[test]
    fn corrupted_outputs_are_counted_as_failures_traced_or_not() {
        let plan = Rounds {
            rounds: 3,
            setup_budget: Duration::ZERO,
            setup_reps: (2, 2),
        };
        let mut tally = Tally::default();
        let mut next = 0;
        let mut setup_spans = Vec::new();
        let run = run_rounds::<Doubler>(
            1,
            Duration::from_millis(90),
            plan,
            &mut next,
            &mut tally,
            Some(&mut setup_spans),
        );
        assert_eq!(run.rounds, 3);
        assert_eq!(run.setup_s.len(), 6, "two set-ups in each round");
        assert_eq!(run.setup_probe_ms.len(), 6, "a probe after each set-up");
        assert_eq!(MOST_ALIVE.load(Ordering::SeqCst), 1);
        let (mut w, phase) = (run.workload, run.phase);
        assert_eq!(tally.attempted, next);
        assert_eq!(phase.op_ms.len() as u64, next);
        assert_eq!(phase.probe_ms.len(), phase.op_ms.len(), "a probe per op");
        assert!(next >= 3, "ran {next} ops");
        // Ops 2, 5, 8, ... were corrupted.
        assert_eq!(tally.failed, next / 3);
        assert_eq!(phase.passed.len() as u64, next - tally.failed);
        assert_eq!(tally.first_failure.as_deref(), Some("5 != 2 * 2"));
        assert!(tally.fail_ratio() > 0.0);
        assert_eq!(tally.sim_cycles, Some(100));

        // Recorded the same way, every op folds into the layer times,
        // and with no library spans the whole op is the root's. (One
        // test: the recorder is process-global.)
        let mut layers = LayerTimes::default();
        let before = next;
        measure(
            &mut w,
            Duration::from_millis(10),
            &mut next,
            &mut tally,
            Some(&mut layers),
        );
        assert_eq!(layers.ops, next - before);
        let wall_ms = layers.wall_ns / 1e6 / layers.ops as f64;
        assert!((layers.self_ms_per_op(&["core/op"]) - wall_ms).abs() < 1e-9);
    }

    #[test]
    fn op_probes_divides_out_the_probe() {
        let phase = Phase {
            op_ms: vec![10.0, 30.0],
            probe_ms: vec![1.0, 3.0],
            ..Phase::default()
        };
        assert_eq!(phase.op_probes(), 10.0);
        assert!(probe_for(0.0) > 0.0);
    }

    #[test]
    fn a_changed_makespan_is_a_failure() {
        let mut tally = Tally::default();
        let facts = |sim_cycles| {
            Ok(OpFacts {
                sim_cycles,
                ..OpFacts::default()
            })
        };
        // A failed op sets no reference makespan.
        tally.record(Err("corrupted".into()));
        for cycles in [100, 100, 101] {
            tally.record(facts(cycles));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.sim_cycles, Some(100));
        assert_eq!(
            tally.first_failure.as_deref(),
            Some("corrupted"),
            "the first failure is kept"
        );
    }
}
