//! Host-kernel microbenchmark — the real computation the simulator still
//! executes, after the zero-copy data plane and batched kernels.
//!
//! Not a thesis figure: like `simcore`, this measures the *host* cost of
//! the workloads' compute and data movement, pinning three optimizations:
//!
//! 1. **SHA-1 child derivation** — scalar `sha1_child` (message build +
//!    padding + full compress per child) vs batched `sha1_children`
//!    (shared message template, precomputed round prefix, unrolled rolling
//!    schedule, SSE2 four-children-per-lane compression on x86-64). UTS
//!    tree generation at Fig 3.3 scale runs ~4.1 M of these.
//! 2. **FFT butterflies** — the plain radix-2 sweep vs the fused radix-4
//!    passes of `FftPlan::transform` (bit-identical results, half the
//!    passes over the data).
//! 3. **Bulk element transfers** — the historical staged path (fresh word
//!    `Vec` + per-element decode round trip) vs `memget_elems_into` decoding
//!    straight from the source segment. Virtual time must be identical; the
//!    run asserts it.
//!
//! The metrics go to `BENCH_hostkern.json`; `--check` fails when any
//! headline metric regressed more than 2x against the committed baseline.

use std::hint::black_box;
use std::time::Instant;

use hupc::fft::{Complex, Direction, FftPlan};
use hupc::prelude::*;
use hupc::upc::PgasElem;
use hupc::uts::{sha1, sha1_child, sha1_children};

use crate::{Metrics, Table};

/// SHA-1 child derivation throughput in MB/s (64-byte compressed block per
/// child), scalar vs batched. Both walk the same parent chain.
fn sha1_throughput(parents: usize, batch: u32) -> (f64, f64) {
    let blocks = parents as f64 * batch as f64;
    let mb = blocks * 64.0 / 1e6;

    let mut parent = sha1(b"hostkern");
    let t0 = Instant::now();
    for _ in 0..parents {
        let mut acc = 0u8;
        for i in 0..batch {
            acc ^= sha1_child(&parent, i)[0];
        }
        parent[0] ^= black_box(acc);
    }
    let scalar = mb / t0.elapsed().as_secs_f64();

    let mut parent = sha1(b"hostkern");
    let t0 = Instant::now();
    for _ in 0..parents {
        let mut acc = 0u8;
        sha1_children(&parent, 0..batch, |_, d| acc ^= d[0]);
        parent[0] ^= black_box(acc);
    }
    let batched = mb / t0.elapsed().as_secs_f64();
    (scalar, batched)
}

/// FFT throughput in Mflop/s (model count: 5·n·log₂n per transform),
/// radix-2 reference sweep vs the fused radix-4 transform.
fn fft_throughput(n: usize, iters: usize) -> (f64, f64) {
    let plan = FftPlan::new(n);
    let mut s = 0x9E3779B97F4A7C15u64;
    let signal: Vec<Complex> = (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Complex::new(
                ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0,
                ((s >> 23) as f64 % 1e3) / 1e3,
            )
        })
        .collect();
    let mflop = plan.flops() * iters as f64 / 1e6;

    let mut data = signal.clone();
    let t0 = Instant::now();
    for _ in 0..iters {
        plan.transform_radix2(&mut data, Direction::Forward);
        plan.transform_radix2(&mut data, Direction::Inverse);
    }
    black_box(&data);
    let radix2 = 2.0 * mflop / t0.elapsed().as_secs_f64();

    let mut data = signal;
    let t0 = Instant::now();
    for _ in 0..iters {
        plan.transform(&mut data, Direction::Forward);
        plan.transform(&mut data, Direction::Inverse);
    }
    black_box(&data);
    let radix4 = 2.0 * mflop / t0.elapsed().as_secs_f64();
    (radix2, radix4)
}

/// Bulk-transfer host throughput in Melems/s: thread 0 repeatedly pulls
/// thread 1's block of `[f64; 2]` elements, staged (the historical
/// Vec-of-words + decode round trip) or zero-copy (`memget_elems_into`).
/// Returns throughputs plus each run's virtual end time — the caller
/// asserts they are identical.
fn bulk_throughput(count: usize, iters: usize) -> ((f64, f64), (u64, u64)) {
    fn run(count: usize, iters: usize, zero_copy: bool) -> (f64, u64) {
        let job = UpcJob::new(UpcConfig::test_default(2, 1)); // PSHM path
        let a = job.alloc_shared::<[f64; 2]>(2 * count, count);
        let t0 = Instant::now();
        let stats = job.run(move |upc| {
            let me = upc.mythread();
            for i in a.indices_with_affinity(me) {
                a.poke(&upc, i, [i as f64, 2.0 * i as f64]);
            }
            upc.barrier();
            if me == 0 {
                let mut sink = 0.0f64;
                if zero_copy {
                    let mut out = Vec::new();
                    for _ in 0..iters {
                        a.memget_elems_into(&upc, count, count, &mut out);
                        sink += out[count / 2][0];
                    }
                } else {
                    for _ in 0..iters {
                        // The pre-zero-copy `memget_elems`, inlined.
                        let mut words = vec![0u64; count * 2];
                        upc.memget(1, a.word_of(count), &mut words);
                        let out: Vec<[f64; 2]> =
                            words.chunks_exact(2).map(<[f64; 2]>::from_words).collect();
                        sink += out[count / 2][0];
                    }
                }
                black_box(sink);
            }
            upc.barrier();
        });
        let host = t0.elapsed().as_secs_f64();
        (count as f64 * iters as f64 / host / 1e6, stats.end_time)
    }
    let (staged, vt_staged) = run(count, iters, false);
    let (zero, vt_zero) = run(count, iters, true);
    ((staged, zero), (vt_staged, vt_zero))
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let (parents, batch) = if quick { (2_000, 256) } else { (20_000, 256) };
    let (fft_n, fft_iters) = if quick { (1 << 12, 200) } else { (1 << 14, 500) };
    let (bulk_count, bulk_iters) = if quick { (4_096, 500) } else { (4_096, 5_000) };

    // Warm up once so first-run costs (allocator, thread machinery) don't
    // land in a timed region.
    sha1_throughput(50, 64);
    fft_throughput(1 << 8, 10);

    let (sha_scalar, sha_batched) = sha1_throughput(parents, batch);
    let (fft_r2, fft_r4) = fft_throughput(fft_n, fft_iters);
    let ((bulk_staged, bulk_zero), (vt_staged, vt_zero)) =
        bulk_throughput(bulk_count, bulk_iters);
    assert_eq!(
        vt_staged, vt_zero,
        "zero-copy bulk path changed virtual time"
    );

    let (sha_speedup, fft_speedup, bulk_speedup) =
        (sha_batched / sha_scalar, fft_r4 / fft_r2, bulk_zero / bulk_staged);
    let mut m = Metrics::default();
    m.push("sha1_scalar_mb_s", sha_scalar);
    m.push("sha1_batched_mb_s", sha_batched);
    m.push("sha1_speedup", sha_speedup);
    m.push("fft_radix2_mflops", fft_r2);
    m.push("fft_radix4_mflops", fft_r4);
    m.push("fft_speedup", fft_speedup);
    m.push("bulk_staged_melems_s", bulk_staged);
    m.push("bulk_zero_copy_melems_s", bulk_zero);
    m.push("bulk_speedup", bulk_speedup);

    let mut t1 = Table::new(
        format!("Host kernel — SHA-1 child derivation ({parents} parents × {batch} children)"),
        &["kernel", "MB/s", "speedup"],
    );
    t1.row(vec![
        "scalar sha1_child".into(),
        format!("{sha_scalar:.1}"),
        "1.00x".into(),
    ]);
    t1.row(vec![
        "batched sha1_children".into(),
        format!("{sha_batched:.1}"),
        format!("{sha_speedup:.2}x"),
    ]);

    let mut t2 = Table::new(
        format!("Host kernel — FFT butterflies (n = {fft_n}, {fft_iters} round trips)"),
        &["kernel", "Mflop/s", "speedup"],
    );
    t2.row(vec![
        "radix-2 sweep".into(),
        format!("{fft_r2:.0}"),
        "1.00x".into(),
    ]);
    t2.row(vec![
        "fused radix-4".into(),
        format!("{fft_r4:.0}"),
        format!("{fft_speedup:.2}x"),
    ]);

    let mut t3 = Table::new(
        format!(
            "Host data plane — bulk [f64; 2] transfers ({bulk_count} elems × {bulk_iters} gets, \
             PSHM)"
        ),
        &["path", "Melems/s", "speedup"],
    );
    t3.row(vec![
        "staged Vec + decode".into(),
        format!("{bulk_staged:.1}"),
        "1.00x".into(),
    ]);
    t3.row(vec![
        "memget_elems_into".into(),
        format!("{bulk_zero:.1}"),
        format!("{bulk_speedup:.2}x"),
    ]);

    (vec![t1, t2, t3], m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_probes_agree_on_virtual_time_and_report_positive_rates() {
        let ((staged, zero), (vt_a, vt_b)) = bulk_throughput(256, 4);
        assert_eq!(vt_a, vt_b);
        assert!(staged > 0.0 && zero > 0.0);
        let (s, b) = sha1_throughput(20, 32);
        assert!(s > 0.0 && b > 0.0);
        let (r2, r4) = fft_throughput(64, 4);
        assert!(r2 > 0.0 && r4 > 0.0);
    }
}
