//! Small helpers shared by the workloads: a seeded generator, quantiles,
//! peak resident memory, and multiset comparison of result rows.

use std::collections::HashMap;

use aspen_stream::DeltaBatch;
use aspen_types::{Tuple, Value};

/// SplitMix64: a tiny seeded generator, so the inputs depend only on the
/// seed and this file, not on any library's generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Skewed pick in `0..n`: low indices are hot (the first `k` of `n`
    /// take a `sqrt(k / n)` share).
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u) * n as f64) as usize % n.max(1)
    }

    /// A float rounded to 1/16, so sums of a few thousand stay exact.
    pub fn sixteenths(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + self.unit() * (hi - lo)) * 16.0).round() / 16.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result rows as value vectors (timestamps dropped), sorted.
pub fn rows(tuples: &[Tuple]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = tuples.iter().map(|t| t.values().to_vec()).collect();
    out.sort();
    out
}

/// Whether two sorted row lists are equal; with `tolerant`, numbers
/// compare within a relative 1e-6 (incrementally maintained float
/// aggregates accumulate rounding error over retractions).
pub fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>], tolerant: bool) -> bool {
    if !tolerant {
        return got == want;
    }
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| value_close(a, b)))
}

fn value_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// A multiset of result rows rebuilt from pushed deltas.
#[derive(Default)]
pub struct PushLedger {
    counts: HashMap<Vec<Value>, i64>,
}

impl PushLedger {
    pub fn apply(&mut self, batches: &[DeltaBatch]) {
        for batch in batches {
            for d in batch.iter() {
                let key = d.tuple.values().to_vec();
                let n = self.counts.entry(key.clone()).or_insert(0);
                *n += d.sign;
                if *n == 0 {
                    self.counts.remove(&key);
                }
            }
        }
    }

    /// Whether the accumulated deltas equal the snapshot's multiset.
    pub fn matches(&self, snapshot: &[Tuple]) -> bool {
        self.matches_rows(&rows(snapshot))
    }

    /// Whether the accumulated deltas equal a multiset of rows.
    pub fn matches_rows(&self, want: &[Vec<Value>]) -> bool {
        let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
        for row in want {
            *counts.entry(row.clone()).or_insert(0) += 1;
        }
        counts == self.counts
    }
}
