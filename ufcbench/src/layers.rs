//! Per-layer self times from one recorded op.
//!
//! The benchmark wraps every op in its own root span (`core/op`) and
//! records it with the library's `ufc-trace` recorder. Spans nest by
//! time on each thread; a span opened on a worker thread (the
//! `par_limbs` fan-out) hangs under whatever span was innermost on
//! the op's thread when it started.
//!
//! Self time is assigned by a sweep over the op's wall time: at every
//! instant the innermost open spans (those with no open child) share
//! that instant equally. Two workers running NTTs side by side while
//! the op thread waits in a join each get half of it. Every instant
//! of the op goes to exactly one span or is split among several, so
//! the self times of all spans add up to the op's wall time; the root
//! span's own share is the time no layer claims.

use std::collections::BTreeMap;
use ufc_trace::HostSpan;

/// Category and name of the root span the benchmark opens per op.
pub const ROOT: (&str, &str) = ("core", "op");

/// Span keys whose inclusive durations are kept for percentiles.
const KEEP_DURATIONS: [&str; 1] = ["tfhe/gate"];

/// Aggregate of one span key (`cat/name`) over recorded ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyStat {
    /// Spans recorded under the key.
    pub calls: u64,
    /// Wall-time share attributed to the key, nanoseconds.
    pub self_ns: f64,
    /// Inclusive durations, kept only for [`KEEP_DURATIONS`] keys.
    pub durations_ns: Vec<u64>,
}

/// Per-key self times accumulated over recorded ops.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Ops folded in.
    pub ops: u64,
    /// Sum of the ops' root-span wall times, nanoseconds.
    pub wall_ns: f64,
    /// Per `cat/name` key (NTT kernels also under `cat/name[tag]`
    /// with only `calls` and `self_ns`).
    pub keys: BTreeMap<String, KeyStat>,
}

impl LayerTimes {
    /// Folds one op's spans in. Returns `false` (and folds nothing)
    /// when the spans hold no root span.
    pub fn add_op(&mut self, spans: &[HostSpan]) -> bool {
        let Some(self_ns) = attribute(spans) else {
            return false;
        };
        let root = spans
            .iter()
            .find(|s| (s.cat, s.name) == ROOT)
            .expect("attribute found a root");
        self.ops += 1;
        self.wall_ns += root.dur_ns as f64;
        for (s, &own) in spans.iter().zip(&self_ns) {
            let key = format!("{}/{}", s.cat, s.name);
            if s.cat == "math" && !s.tag.is_empty() {
                let tagged = self.keys.entry(s.key()).or_default();
                tagged.calls += 1;
                tagged.self_ns += own;
            }
            let keep = KEEP_DURATIONS.contains(&key.as_str());
            let stat = self.keys.entry(key).or_default();
            stat.calls += 1;
            stat.self_ns += own;
            if keep {
                stat.durations_ns.push(s.dur_ns);
            }
        }
        true
    }

    /// Calls per op under `cat/name` keys.
    pub fn calls_per_op(&self, keys: &[&str]) -> f64 {
        self.per_op(keys.iter().map(|k| self.stat(k).calls as f64).sum())
    }

    /// Self milliseconds per op under `cat/name` keys.
    pub fn self_ms_per_op(&self, keys: &[&str]) -> f64 {
        self.per_op(keys.iter().map(|k| self.stat(k).self_ns).sum::<f64>() / 1e6)
    }

    /// The stat for one key (empty when the key never appeared).
    pub fn stat(&self, key: &str) -> KeyStat {
        self.keys.get(key).cloned().unwrap_or_default()
    }

    fn per_op(&self, total: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total / self.ops as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Edge {
    // At one instant, ends are processed before starts so that back
    // to back spans on one thread do not nest.
    End,
    Start,
}

/// Self time of every span in `spans` (same order), or `None` without
/// a root span. Spans outside the root's interval get nothing.
pub fn attribute(spans: &[HostSpan]) -> Option<Vec<f64>> {
    let root = spans.iter().position(|s| (s.cat, s.name) == ROOT)?;
    let op_thread = spans[root].thread;
    let lo = spans[root].start_ns;
    let hi = lo + spans[root].dur_ns;

    // (time, edge, tie-break, span). Among starts at one instant the
    // longer span opens first (it is the parent); among ends the
    // shorter closes first.
    let mut events: Vec<(u64, Edge, u64, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        let end = s.start_ns + s.dur_ns;
        if s.dur_ns == 0 || s.start_ns < lo || end > hi {
            continue;
        }
        events.push((s.start_ns, Edge::Start, u64::MAX - s.dur_ns, i));
        events.push((end, Edge::End, s.dur_ns, i));
    }
    events.sort_unstable();

    let mut own = vec![0.0; spans.len()];
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut open = vec![false; spans.len()];
    let mut stacks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    // Innermost open spans, with each span's index in the vector.
    let mut frontier: Vec<usize> = Vec::new();
    let mut slot = vec![usize::MAX; spans.len()];
    let leave = |frontier: &mut Vec<usize>, slot: &mut Vec<usize>, i: usize| {
        let at = slot[i];
        if at == usize::MAX {
            return;
        }
        frontier.swap_remove(at);
        if let Some(&moved) = frontier.get(at) {
            slot[moved] = at;
        }
        slot[i] = usize::MAX;
    };
    let join = |frontier: &mut Vec<usize>, slot: &mut Vec<usize>, i: usize| {
        if slot[i] == usize::MAX {
            slot[i] = frontier.len();
            frontier.push(i);
        }
    };

    let mut now = lo;
    for &(t, edge, _, i) in &events {
        if t > now && !frontier.is_empty() {
            let share = (t - now) as f64 / frontier.len() as f64;
            for &f in &frontier {
                own[f] += share;
            }
        }
        now = now.max(t);
        let th = spans[i].thread;
        match edge {
            Edge::Start => {
                let p = stacks.get(&th).and_then(|s| s.last().copied()).or_else(|| {
                    (th != op_thread)
                        .then(|| stacks.get(&op_thread).and_then(|s| s.last().copied()))
                        .flatten()
                });
                parent[i] = p;
                if let Some(p) = p {
                    open_children[p] += 1;
                    leave(&mut frontier, &mut slot, p);
                }
                open[i] = true;
                stacks.entry(th).or_default().push(i);
                join(&mut frontier, &mut slot, i);
            }
            Edge::End => {
                let stack = stacks.entry(th).or_default();
                if let Some(at) = stack.iter().rposition(|&x| x == i) {
                    stack.remove(at);
                }
                open[i] = false;
                leave(&mut frontier, &mut slot, i);
                if let Some(p) = parent[i] {
                    open_children[p] -= 1;
                    if open[p] && open_children[p] == 0 {
                        join(&mut frontier, &mut slot, p);
                    }
                }
            }
        }
    }
    Some(own)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &'static str, start: u64, dur: u64, thread: u32) -> HostSpan {
        HostSpan {
            cat,
            name,
            tag: "",
            detail: 0,
            start_ns: start,
            dur_ns: dur,
            thread,
        }
    }

    #[test]
    fn nested_spans_split_wall_time() {
        // op [0,100) on thread 1: mul [10,60) containing ntt [20,40);
        // rescale [60,90) fans out to two workers [62,88) each
        // running an ntt [65,85).
        let spans = vec![
            span("core", "op", 0, 100, 1),
            span("ckks", "mul", 10, 50, 1),
            span("math", "ntt_forward", 20, 20, 1),
            span("ckks", "rescale", 60, 30, 1),
            span("math", "par_worker", 62, 26, 2),
            span("math", "par_worker", 62, 26, 3),
            span("math", "ntt_forward", 65, 20, 2),
            span("math", "ntt_forward", 65, 20, 3),
        ];
        let own = attribute(&spans).unwrap();
        let total: f64 = own.iter().sum();
        assert!(
            (total - 100.0).abs() < 1e-9,
            "self times sum to wall: {total}"
        );
        assert_eq!(own[0], 20.0, "root keeps [0,10) and [90,100)");
        assert_eq!(own[1], 30.0);
        assert_eq!(own[2], 20.0);
        assert_eq!(own[3], 4.0, "rescale keeps [60,62) and [88,90)");
        // Each worker: half of [62,65) and [85,88).
        assert_eq!(own[4], 3.0);
        assert_eq!(own[5], 3.0);
        // Each worker ntt: half of [65,85).
        assert_eq!(own[6], 10.0);
        assert_eq!(own[7], 10.0);
    }

    #[test]
    fn no_root_no_attribution() {
        assert!(attribute(&[span("ckks", "mul", 0, 5, 1)]).is_none());
    }

    #[test]
    fn layer_times_average_per_op() {
        let mut lt = LayerTimes::default();
        for _ in 0..2 {
            assert!(lt.add_op(&[
                span("core", "op", 0, 4_000_000, 1),
                span("tfhe", "gate", 0, 3_000_000, 1),
            ]));
        }
        assert_eq!(lt.ops, 2);
        assert_eq!(lt.calls_per_op(&["tfhe/gate"]), 1.0);
        assert_eq!(lt.self_ms_per_op(&["tfhe/gate"]), 3.0);
        assert_eq!(lt.self_ms_per_op(&["core/op"]), 1.0);
        assert_eq!(lt.stat("tfhe/gate").durations_ns, vec![3_000_000; 2]);
    }
}
