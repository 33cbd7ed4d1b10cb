//! Micro-benchmarks for the `ufc-math` data plane: Shoup/Harvey NTT
//! kernels vs the pre-refactor reference kernels, the radix-4 vs IFMA
//! kernel generations, per-op dispatched element-wise kernels,
//! negacyclic multiplication, TFHE external products, limb-parallel
//! RNS transforms and op-level work stealing.
//!
//! ```text
//! bench_math [--quick] [--out <path>]
//! ```
//!
//! Emits `BENCH_math.json` (or `--out`) with one table per kernel
//! family — including `ntt_kernels` (radix-4 vs IFMA per ring size at
//! a 36-bit prime, with IFMA's paired median speedup and the kernel
//! `auto_for` picks), `ew_kernels` (scalar loop vs dispatched backend
//! for every element-wise route that leaves the portable unroll, at a
//! 59-bit and a 50-bit prime), `ew_dispatch` (the static dispatch
//! table itself), `trace_overhead` (instrumented vs raw NTT entry
//! points as interleaved pairs) and `op_scaling` (work-stealing over
//! independent plane ops) — and a `headline` object recording the
//! single-thread negacyclic-multiply speedup at the largest ring
//! dimension. `--quick` restricts sizes and repetitions for CI smoke
//! runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use ufc_bench::{cell, JsonReport};
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::par;
use ufc_math::plane::{Form, RnsPlane};
use ufc_math::prime::{generate_ntt_prime, generate_ntt_primes};
use ufc_math::sample::uniform_plane;
use ufc_tfhe::context::TfheContext;
use ufc_tfhe::rgsw::RgswCiphertext;
use ufc_tfhe::rlwe::RlweCiphertext;

struct Opts {
    quick: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_math.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match it.next() {
                Some(p) => opts.out = p,
                None => usage_error("--out needs a value"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    opts
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: bench_math [--quick] [--out <path>]");
    std::process::exit(2);
}

/// Best-of-`reps` wall time of one call, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Interleaved A/B timing: `rounds` rounds, each timing `calls`
/// back-to-back calls of `a` and then of `b` (the order alternates per
/// round, so neither side always runs second on a warm cache). Returns
/// the per-round nanoseconds per call of each side; pairing round `i`
/// of `a` with round `i` of `b` cancels host drift slower than a
/// round.
fn paired_ns(
    rounds: usize,
    calls: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    a();
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        if round % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    (ta, tb)
}

/// Median of a nonempty sample.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn main() {
    let opts = parse_opts();
    // Benchmark runs must fail fast on a typo'd kernel override: the
    // library would only warn and fall back, which here would silently
    // measure the wrong kernel.
    if let Err(e) = NttKernel::from_env() {
        usage_error(&e.to_string());
    }
    let mut rng = StdRng::seed_from_u64(0x0f1e2d3c);
    let sizes: Vec<usize> = if opts.quick {
        vec![1 << 10, 1 << 11, 1 << 12]
    } else {
        vec![1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14]
    };
    let reps = |n: usize| -> usize {
        let base = if opts.quick { 1 << 21 } else { 1 << 24 };
        (base / n).clamp(3, 4096)
    };
    // Interleaved pairs for the ratio and overhead tables: many short
    // pairs, so the two halves of a pair see the same host state.
    let pairs = if opts.quick { 401 } else { 2001 };

    let mut json = JsonReport::new("bench_math");

    // ------------------------------------------------ NTT fwd/inverse
    println!("# ufc-math data-plane micro-benchmarks\n");
    println!("## Negacyclic NTT (Harvey lazy vs seed reference)\n");
    println!("| N | fwd lazy (µs) | fwd ref (µs) | inv lazy (µs) | inv ref (µs) |");
    println!("|---|---|---|---|---|");
    let ntt_table = json.table(
        "ntt",
        &[
            "n",
            "forward_lazy_ns",
            "forward_reference_ns",
            "inverse_lazy_ns",
            "inverse_reference_ns",
        ],
    );
    for &n in &sizes {
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n);
        // Each rep transforms the same fresh input (copied in inside
        // the timed region, an equal small cost for both kernels):
        // iterating a forward transform on its own output would drift
        // the value distribution and with it the branchy butterflies'
        // timing.
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = data.clone();
        let fwd = time_ns(r, || {
            buf.copy_from_slice(&data);
            ctx.forward(&mut buf);
        });
        let eval = buf.clone();
        let inv = time_ns(r, || {
            buf.copy_from_slice(&eval);
            ctx.inverse(&mut buf);
        });
        let fwd_ref = time_ns(r, || {
            buf.copy_from_slice(&data);
            ctx.forward_reference(&mut buf);
        });
        let inv_ref = time_ns(r, || {
            buf.copy_from_slice(&eval);
            ctx.inverse_reference(&mut buf);
        });
        ntt_table.push(vec![
            cell(n as u64),
            cell(fwd),
            cell(fwd_ref),
            cell(inv),
            cell(inv_ref),
        ]);
        println!(
            "| {n} | {:.1} | {:.1} | {:.1} | {:.1} |",
            fwd / 1e3,
            fwd_ref / 1e3,
            inv / 1e3,
            inv_ref / 1e3
        );
    }

    // ----------------------------------- radix-4 vs IFMA, per ring size
    // The committed evidence for `NttKernel::auto_for`'s crossover:
    // both surviving lazy generations at the workloads' 36-bit limb
    // width, timed as interleaved fwd+inv pairs so host drift lands on
    // both sides of each ratio. On hosts without AVX-512 IFMA the
    // portable mirror lanes run — bit-identical, but then a fallback
    // measurement, flagged by host.ifma in the report.
    let ifma_hw = ufc_math::simd::ifma_available();
    println!(
        "\n## NTT kernel generations: radix-4 vs IFMA at a 36-bit prime (AVX-512 IFMA {})\n",
        if ifma_hw {
            "active"
        } else {
            "absent: portable lanes"
        }
    );
    println!("| N | radix4 fwd+inv (µs) | ifma fwd+inv (µs) | ifma speedup | auto_for |");
    println!("|---|---|---|---|---|");
    let kernel_table = json.table(
        "ntt_kernels",
        &[
            "n",
            "bits",
            "radix4_ns",
            "ifma_ns",
            "ifma_speedup",
            "auto_kernel",
        ],
    );
    let kernel_sizes: Vec<usize> = if opts.quick {
        vec![1 << 8, 1 << 12, 1 << 13]
    } else {
        vec![1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 13, 1 << 14]
    };
    for &n in &kernel_sizes {
        let q = generate_ntt_prime(n, 36).expect("36-bit NTT prime");
        let ctx = NttContext::try_new_with_kernel(n, q, NttKernel::Reference)
            .expect("36-bit prime fits every generation");
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut eval = data.clone();
        ctx.forward_with(NttKernel::Radix4, &mut eval);
        let mut check = data.clone();
        ctx.forward_with(NttKernel::Ifma, &mut check);
        assert_eq!(check, eval, "ifma forward diverged from radix-4 at n={n}");
        ctx.inverse_with(NttKernel::Ifma, &mut check);
        assert_eq!(check, data, "ifma inverse failed to round-trip at n={n}");
        let round_trip = |kernel: NttKernel, buf: &mut Vec<u64>| {
            buf.copy_from_slice(&data);
            ctx.forward_with(kernel, buf);
            ctx.inverse_with(kernel, buf);
        };
        let (mut b4, mut bi) = (data.clone(), data.clone());
        // Calls per sample: enough that the smallest ring's sample spans
        // tens of microseconds, one call from N = 2^12 up.
        let (r4, ri) = paired_ns(
            pairs / 4,
            ((1usize << 12) / n).max(1),
            || round_trip(NttKernel::Radix4, &mut b4),
            || round_trip(NttKernel::Ifma, &mut bi),
        );
        // Median over pairs of radix-4 time / IFMA time.
        let ratios: Vec<f64> = r4.iter().zip(&ri).map(|(a, b)| a / b).collect();
        let (r4_ns, ifma_ns, speedup) = (median(&r4), median(&ri), median(&ratios));
        let auto = NttKernel::auto_for(n, q).name();
        kernel_table.push(vec![
            cell(n as u64),
            cell(36u64),
            cell(r4_ns),
            cell(ifma_ns),
            cell(speedup),
            cell(auto),
        ]);
        println!(
            "| {n} | {:.2} | {:.2} | {speedup:.2}x | {auto} |",
            r4_ns / 1e3,
            ifma_ns / 1e3
        );
    }

    // ------------------------------------------- element-wise kernels
    // The RNS plane's add/sub/hadamard/mac/scale go through the
    // static per-op dispatch table; measure every dispatched route
    // that leaves the portable unroll against the scalar loop it
    // replaced, at one prime outside the IFMA window (59 bits) and
    // one inside it (50 bits). A portable route is the scalar loop
    // unrolled, so its ratio would only measure noise and is not a
    // row. Every row's speedup is expected at >= 1.0 — the xtask
    // validator gates on it.
    println!("\n## Element-wise plane kernels (scalar loop vs dispatched backend)\n");
    let mut ew_rows = Vec::new();
    let mut ew_dispatch_rows = Vec::new();
    {
        use ufc_math::modops::{add_mod, mul_mod, shoup_precompute, sub_mod, Barrett};
        use ufc_math::simd::{self, EwOp};
        let n = if opts.quick { 1 << 13 } else { 1 << 15 };
        for bits in [59u32, 50] {
            let q = generate_ntt_prime(1 << 10, bits).expect("NTT prime");
            let br = Barrett::new(q);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let c: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let s = rng.gen_range(1..q);
            let ss = shoup_precompute(s, q);
            let r = reps(n);
            let mut buf = a.clone();
            println!("### {bits}-bit prime (q = {q})\n");
            println!("| kernel | scalar (µs) | dispatched (µs) | speedup | backend | source |");
            println!("|---|---|---|---|---|---|");
            // (op, scalar loop, simd call) per kernel; each rep
            // re-seeds the destination so both sides do identical
            // memory traffic.
            let mut rows: Vec<(EwOp, f64, f64)> = Vec::new();
            macro_rules! ew {
                ($op:expr, $scalar:expr, $simd:expr) => {{
                    let scalar = time_ns(r, || {
                        buf.copy_from_slice(&a);
                        $scalar(&mut buf);
                    });
                    let scalar_out = buf.clone();
                    let simd_t = time_ns(r, || {
                        buf.copy_from_slice(&a);
                        $simd(&mut buf);
                    });
                    assert_eq!(buf, scalar_out, "{} kernels diverged", $op.name());
                    rows.push(($op, scalar, simd_t));
                }};
            }
            ew!(
                EwOp::Add,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = add_mod(*xi, bi, q);
                },
                |x: &mut Vec<u64>| simd::add_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Sub,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = sub_mod(*xi, bi, q);
                },
                |x: &mut Vec<u64>| simd::sub_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Mul,
                |x: &mut Vec<u64>| for (xi, &bi) in x.iter_mut().zip(&b) {
                    *xi = br.mul(*xi, bi);
                },
                |x: &mut Vec<u64>| simd::mul_mod_slice(x, &b, q)
            );
            ew!(
                EwOp::Mac,
                |x: &mut Vec<u64>| for ((xi, &bi), &ci) in x.iter_mut().zip(&b).zip(&c) {
                    *xi = add_mod(*xi, mul_mod(bi, ci, q), q);
                },
                |x: &mut Vec<u64>| simd::mac_mod_slice(x, &b, &c, q)
            );
            ew!(
                EwOp::Scale,
                |x: &mut Vec<u64>| for xi in x.iter_mut() {
                    *xi = br.mul(*xi, s);
                },
                |x: &mut Vec<u64>| simd::scale_shoup_slice(x, s, ss, q)
            );
            for (op, scalar, simd_t) in rows {
                let speedup = scalar / simd_t;
                let route = simd::ew_route(op, q);
                if route.backend == simd::EwBackend::Portable {
                    continue;
                }
                let name = match op {
                    EwOp::Mul => "hadamard",
                    other => other.name(),
                };
                ew_rows.push(vec![
                    cell(name),
                    cell(bits as u64),
                    cell(n as u64),
                    cell(scalar),
                    cell(simd_t),
                    cell(speedup),
                    cell(route.backend.name()),
                    cell(route.source.name()),
                ]);
                println!(
                    "| {name} | {:.1} | {:.1} | {speedup:.2}x | {} | {} |",
                    scalar / 1e3,
                    simd_t / 1e3,
                    route.backend.name(),
                    route.source.name()
                );
            }
            println!();
            for route in simd::ew_dispatch_table(q) {
                ew_dispatch_rows.push(vec![
                    cell(bits as u64),
                    cell(q),
                    cell(route.op.name()),
                    cell(route.backend.name()),
                    cell(route.source.name()),
                ]);
            }
        }
    }
    let ew_table = json.table(
        "ew_kernels",
        &[
            "kernel",
            "bits",
            "n",
            "scalar_ns",
            "simd_ns",
            "speedup",
            "backend",
            "source",
        ],
    );
    for row in ew_rows {
        ew_table.push(row);
    }
    let ew_dispatch_table = json.table("ew_dispatch", &["bits", "q", "op", "backend", "source"]);
    for row in ew_dispatch_rows {
        ew_dispatch_table.push(row);
    }

    // ------------------------------------------- negacyclic multiply
    println!("\n## Negacyclic multiply (single thread)\n");
    println!("| N | lazy (µs) | seed (µs) | speedup |");
    println!("|---|---|---|---|");
    let mul_table = json.table(
        "negacyclic_mul",
        &["n", "lazy_ns", "reference_ns", "speedup"],
    );
    let mut headline_n = 0usize;
    let mut headline_speedup = 0.0f64;
    let mut headline_lazy = 0.0f64;
    let mut headline_ref = 0.0f64;
    for &n in &sizes {
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let r = reps(n);
        let a = uniform_plane(&mut rng, n, &[q]);
        let b = uniform_plane(&mut rng, n, &[q]);
        let (a, b) = (a.limb(0), b.limb(0));
        let lazy = time_ns(r, || {
            std::hint::black_box(ctx.negacyclic_mul(a, b));
        });
        let seed = time_ns(r, || {
            std::hint::black_box(ctx.negacyclic_mul_reference(a, b));
        });
        let speedup = seed / lazy;
        mul_table.push(vec![cell(n as u64), cell(lazy), cell(seed), cell(speedup)]);
        println!(
            "| {n} | {:.1} | {:.1} | {speedup:.2}x |",
            lazy / 1e3,
            seed / 1e3
        );
        if n >= headline_n {
            headline_n = n;
            headline_speedup = speedup;
            headline_lazy = lazy;
            headline_ref = seed;
        }
    }

    // ------------------------------------------------ external product
    println!("\n## TFHE external product (3-level gadget)\n");
    println!("| N | cached-eval (µs) | seed (µs) | speedup |");
    println!("|---|---|---|---|");
    let ep_table = json.table(
        "external_product",
        &["n", "external_product_ns", "reference_ns", "speedup"],
    );
    let ep_sizes: Vec<usize> = sizes.iter().copied().filter(|&n| n <= 1 << 14).collect();
    for &n in &ep_sizes {
        let ctx = TfheContext::new(16, n, 7, 3, 6, 4);
        let s: Vec<i64> = (0..n).map(|_| rng.gen_range(0..=1i64)).collect();
        let q = [ctx.q()];
        let m = RnsPlane::monomial(1, 1, n, &q);
        let rgsw = RgswCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let zero = RnsPlane::zero(n, &q, Form::Coeff);
        let ct = RlweCiphertext::encrypt(&ctx, &s, &zero, &mut rng);
        let r = reps(n).min(64);
        let ep = time_ns(r, || {
            std::hint::black_box(rgsw.external_product(&ctx, &ct));
        });
        // Seed shape: one full negacyclic product per digit-row pair
        // (4 per level) through the `%`-based kernels, instead of
        // transforming only the digits and MAC-ing against cached
        // evaluation-form rows.
        let g = ctx.gadget();
        let ntt = ctx.ntt();
        let ep_ref = time_ns(r.min(8), || {
            let a_digits = g.decompose_poly(&ct.a);
            let b_digits = g.decompose_poly(&ct.b);
            let mut acc_a = zero.clone();
            let mut acc_b = zero.clone();
            let mac = |acc: &mut RnsPlane, digit: &RnsPlane, row: &RnsPlane| {
                let prod = ntt.negacyclic_mul_reference(digit.limb(0), row.limb(0));
                acc.add_assign(&RnsPlane::from_flat_unchecked(prod, &q, Form::Coeff));
            };
            for l in 0..g.levels() {
                mac(&mut acc_a, &a_digits[l], &rgsw.a_rows[l].a);
                mac(&mut acc_a, &b_digits[l], &rgsw.b_rows[l].a);
                mac(&mut acc_b, &a_digits[l], &rgsw.a_rows[l].b);
                mac(&mut acc_b, &b_digits[l], &rgsw.b_rows[l].b);
            }
            std::hint::black_box((acc_a, acc_b));
        });
        let speedup = ep_ref / ep;
        ep_table.push(vec![cell(n as u64), cell(ep), cell(ep_ref), cell(speedup)]);
        println!(
            "| {n} | {:.1} | {:.1} | {speedup:.2}x |",
            ep / 1e3,
            ep_ref / 1e3
        );
    }

    // ------------------------------------------------- thread scaling
    let limbs = 8usize;
    let plane_n = if opts.quick { 1 << 12 } else { 1 << 13 };
    let moduli = generate_ntt_primes(plane_n, 36, limbs);
    assert_eq!(moduli.len(), limbs, "not enough 36-bit primes");
    let tables: Vec<NttContext> = moduli
        .iter()
        .map(|&q| NttContext::new(plane_n, q))
        .collect();
    let table_refs: Vec<&NttContext> = tables.iter().collect();
    let signed: Vec<i64> = (0..plane_n)
        .map(|_| rng.gen_range(-1000..1000i64))
        .collect();
    let plane = RnsPlane::from_signed(&signed, &moduli);
    let thread_counts = [1usize, par::effective_threads().max(2)];
    println!("\n## RNS plane NTT scaling ({limbs} limbs, N = {plane_n})\n");
    println!("| threads | fwd+inv (µs) |");
    println!("|---|---|");
    let scale_table = json.table("rns_thread_scaling", &["threads", "forward_inverse_ns"]);
    let mut single_result: Option<RnsPlane> = None;
    for &threads in &thread_counts {
        let prev = par::set_max_threads(threads);
        let mut buf = plane.clone();
        let t = time_ns(if opts.quick { 3 } else { 32 }, || {
            buf.ntt_forward(&table_refs);
            buf.ntt_inverse(&table_refs);
        });
        par::set_max_threads(prev);
        // Determinism check: the transform must be bit-identical for
        // every thread count.
        match &single_result {
            None => single_result = Some(buf),
            Some(first) => assert_eq!(first, &buf, "thread-count nondeterminism"),
        }
        scale_table.push(vec![cell(threads as u64), cell(t)]);
        println!("| {threads} | {:.1} |", t / 1e3);
    }

    // --------------------------------------- op-level work stealing
    // One tier above limb fan-out: a trace of *independent*
    // element-wise plane ops (the shape of one evaluator level over
    // disjoint ciphertexts), distributed over the self-scheduling
    // par_ops queue. Workers pull the next op when they finish their
    // current one, so skewed per-op costs cannot strand work behind a
    // static partition. Results are asserted bit-identical between
    // the 1-thread and N-thread runs — scheduling must never leak
    // into values.
    let op_count = if opts.quick { 8 } else { 24 };
    let op_moduli = generate_ntt_primes(plane_n, 50, 2);
    let build_ops = |count: usize| -> Vec<(RnsPlane, RnsPlane, RnsPlane)> {
        (0..count)
            .map(|i| {
                let mk = |salt: u64| {
                    RnsPlane::pseudorandom(plane_n, &op_moduli, salt + 131 * i as u64, Form::Eval)
                };
                (mk(1), mk(2), mk(3))
            })
            .collect()
    };
    println!("\n## Op-level work stealing ({op_count} independent plane ops, N = {plane_n})\n");
    println!("| threads | wall (µs) | speedup |");
    println!("|---|---|---|");
    let op_scale_table = json.table("op_scaling", &["threads", "ops", "wall_ns", "speedup"]);
    let op_threads = [1usize, par::effective_threads().max(2)];
    let mut op_serial_result: Option<Vec<RnsPlane>> = None;
    let mut op_serial_ns = 0.0f64;
    for &threads in &op_threads {
        let mut wall = f64::INFINITY;
        let mut result = None;
        for _ in 0..(if opts.quick { 2 } else { 6 }) {
            let mut ops = build_ops(op_count);
            let prev = par::set_max_threads(threads);
            let t = Instant::now();
            par::par_ops_on(&mut ops, |i, (acc, a, b)| {
                acc.hadamard_assign(a);
                acc.mac_assign(a, b);
                if i % 2 == 0 {
                    acc.add_assign(b);
                }
            });
            wall = wall.min(t.elapsed().as_nanos() as f64);
            par::set_max_threads(prev);
            result = Some(ops.into_iter().map(|(acc, _, _)| acc).collect::<Vec<_>>());
        }
        let result = result.expect("at least one timed rep");
        match &op_serial_result {
            None => {
                op_serial_result = Some(result);
                op_serial_ns = wall;
            }
            Some(first) => assert_eq!(
                first, &result,
                "op-level work stealing produced thread-count-dependent results"
            ),
        }
        let speedup = op_serial_ns / wall;
        op_scale_table.push(vec![
            cell(threads as u64),
            cell(op_count as u64),
            cell(wall),
            cell(speedup),
        ]);
        println!("| {threads} | {:.1} | {speedup:.2}x |", wall / 1e3);
    }

    // ------------------------------------------- disabled-trace cost
    // Every NTT entry point now opens a `ufc_trace` span. With no
    // recorder live that site must be free (one relaxed atomic load):
    // compare the instrumented dispatch (`forward`) against the raw
    // kernel path (`forward_with`, no span site) as interleaved pairs.
    // The overhead is the median of the per-pair differences over the
    // median raw time, so drift between rounds cancels and the gate
    // gives the same verdict on re-runs.
    println!("\n## Disabled-recorder tracing overhead\n");
    println!("| N | fwd instrumented (µs) | fwd raw (µs) | overhead (%) |");
    println!("|---|---|---|---|");
    let overhead_table = json.table(
        "trace_overhead",
        &["n", "instrumented_ns", "raw_ns", "overhead_pct"],
    );
    let mut worst_overhead_pct = 0.0f64;
    for &n in &sizes {
        assert!(
            !ufc_trace::enabled(),
            "recorder must be off for the overhead bench"
        );
        let q = generate_ntt_prime(n, 60).expect("60-bit NTT prime");
        let ctx = NttContext::new(n, q);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let (mut bi, mut br) = (data.clone(), data.clone());
        // One call per sample, many pairs: the two halves of a pair
        // run microseconds apart, so they see the same host state.
        let (inst, raws) = paired_ns(
            pairs,
            1,
            || {
                bi.copy_from_slice(&data);
                ctx.forward(&mut bi);
            },
            || {
                br.copy_from_slice(&data);
                ctx.forward_with(ctx.kernel(), &mut br);
            },
        );
        let diffs: Vec<f64> = inst.iter().zip(&raws).map(|(i, r)| i - r).collect();
        let (instrumented, raw) = (median(&inst), median(&raws));
        let pct = median(&diffs) / raw * 100.0;
        worst_overhead_pct = worst_overhead_pct.max(pct);
        overhead_table.push(vec![
            cell(n as u64),
            cell(instrumented),
            cell(raw),
            cell(pct),
        ]);
        println!(
            "| {n} | {:.2} | {:.2} | {:.2} |",
            instrumented / 1e3,
            raw / 1e3,
            pct
        );
    }
    println!("\nworst disabled-recorder overhead: {worst_overhead_pct:.2}% (budget: < 2%)");

    // ------------------------------------------------ host context
    // The lazy/seed ratio is bounded by how fast the host retires the
    // seed kernel's 128-by-64-bit `%` (hardware division): record both
    // primitive costs so reports from different machines can be
    // compared. Thread-scaling rows are likewise meaningless without
    // the scheduler-visible core count next to them.
    let (mul_mod_ns, mul_shoup_ns) = {
        use ufc_math::modops::{mul_mod, mul_shoup_lazy, shoup_precompute};
        let q = generate_ntt_prime(1 << 12, 60).expect("60-bit NTT prime");
        let xs: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
        let ws: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
        let wss: Vec<u64> = ws.iter().map(|&w| shoup_precompute(w, q)).collect();
        let mut acc = xs.clone();
        let t_mod = time_ns(256, || {
            for (x, &w) in acc.iter_mut().zip(&ws) {
                *x = mul_mod(*x, w, q);
            }
        }) / 4096.0;
        let mut acc = xs.clone();
        let t_shoup = time_ns(256, || {
            for ((x, &w), &wshoup) in acc.iter_mut().zip(&ws).zip(&wss) {
                let r = mul_shoup_lazy(*x, w, wshoup, q);
                *x = if r >= q { r - q } else { r };
            }
        }) / 4096.0;
        (t_mod, t_shoup)
    };
    let avx2 = ufc_math::simd::avx2_available();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "\nHost: {cores} core(s) visible; mul_mod {mul_mod_ns:.2} ns vs \
         mul_shoup_lazy {mul_shoup_ns:.2} ns per op."
    );

    // ------------------------------------------------------- headline
    println!(
        "\nHeadline: negacyclic mul at N = {headline_n}: {headline_speedup:.2}x \
         over the seed kernel ({:.1} µs vs {:.1} µs).",
        headline_lazy / 1e3,
        headline_ref / 1e3
    );

    #[derive(serde::Serialize)]
    struct Host {
        available_parallelism: u64,
        avx2: bool,
        ifma: bool,
        ntt_kernel: String,
        par_threads: u64,
        trace_overhead_pct: f64,
        mul_mod_ns: f64,
        mul_shoup_lazy_ns: f64,
        simd_note: String,
    }
    #[derive(serde::Serialize)]
    struct Headline {
        n: u64,
        lazy_ns: f64,
        reference_ns: f64,
        speedup: f64,
    }
    #[derive(serde::Serialize)]
    struct Output {
        experiment: String,
        quick: bool,
        host: Host,
        headline: Headline,
        tables: Vec<ufc_bench::JsonTable>,
    }
    let out = Output {
        experiment: json.experiment.clone(),
        quick: opts.quick,
        host: Host {
            available_parallelism: cores as u64,
            avx2,
            ifma: ifma_hw,
            // The kernel generation the dispatcher actually picks at
            // the largest benched size and its 60-bit prime (env
            // override included).
            ntt_kernel: {
                let top = *sizes.last().expect("sizes nonempty");
                let q = generate_ntt_prime(top, 60).expect("60-bit NTT prime");
                NttKernel::select_for(top, q)
                    .unwrap_or_else(|e| usage_error(&e.to_string()))
                    .name()
                    .to_owned()
            },
            par_threads: ufc_math::par::effective_threads() as u64,
            trace_overhead_pct: worst_overhead_pct,
            mul_mod_ns,
            mul_shoup_lazy_ns: mul_shoup_ns,
            simd_note: "Element-wise ops are routed per (op, modulus) by a static table: \
                        add/sub/scale take AVX2; hadamard/mac take AVX-512 IFMA (vpmadd52, \
                        52-bit Barrett) for moduli below 2^50; everything else runs the \
                        portable unroll. ew_kernels rows cover only the non-portable routes; \
                        the >= 1.3x hadamard/mac rows come from the IFMA window. NTTs run \
                        radix-4, or IFMA from N = 2^13 up when the modulus fits (see \
                        ntt_kernels). UFC_SIMD_DISABLE overrides routing for A/B runs."
                .to_owned(),
        },
        headline: Headline {
            n: headline_n as u64,
            lazy_ns: headline_lazy,
            reference_ns: headline_ref,
            speedup: headline_speedup,
        },
        tables: json.tables,
    };
    let value = serde::Serialize::to_value(&out);
    if let Err(e) = std::fs::write(&opts.out, value.to_json_pretty()) {
        eprintln!("--out {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("benchmark report written to {}", opts.out);
}
