//! Exact latency quantiles against a sorted-array reference.

use hupc_ledger::stats::{quantile, rank_index};

/// The definition, spelled out on a sorted copy: the smallest sample with
/// at least `q·n` samples at or below it.
fn reference(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let need = q * n as f64;
    *sorted
        .iter()
        .enumerate()
        .find(|(i, _)| (i + 1) as f64 >= need)
        .map(|(_, v)| v)
        .expect("non-empty")
}

/// Deterministic xorshift samples with a chosen number of distinct values,
/// so ties are common when `distinct` is small.
fn samples(n: usize, distinct: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % distinct
        })
        .collect()
}

#[test]
fn matches_sorted_reference_with_ties_and_small_n() {
    let qs = [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
    for n in [1, 2, 3, 4, 7, 10, 99, 100, 101, 1000, 4097] {
        for distinct in [1, 2, 5, 1 << 40] {
            let data = samples(n, distinct, n as u64 * 31 + distinct);
            for q in qs {
                let mut scratch = data.clone();
                assert_eq!(
                    quantile(&mut scratch, q),
                    Some(reference(&data, q)),
                    "n={n} distinct={distinct} q={q}"
                );
            }
        }
    }
}

#[test]
fn small_cases_by_hand() {
    assert_eq!(quantile(&mut [], 0.5), None);
    assert_eq!(quantile(&mut [7], 0.999), Some(7));
    // Nearest rank: p50 of an even count is the lower middle sample.
    assert_eq!(quantile(&mut [4, 1, 3, 2], 0.5), Some(2));
    assert_eq!(quantile(&mut [5, 5, 5, 9], 0.75), Some(5));
    assert_eq!(quantile(&mut [5, 5, 5, 9], 0.76), Some(9));
    assert_eq!(rank_index(64_000, 0.999), 63_935);
}
