//! The benchmark's own arithmetic: percentiles, span self time, seeds
//! and result digests. Kept free of program types so it can be tested
//! on its own.

/// Candidate percentiles for a reported tail, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// Fewest samples that must lie beyond a percentile before it is
/// reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of unsorted `samples` (`q` in `(0, 1]`);
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest rank of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p75 is unsupported.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted `samples`, 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Length of the part of `[start, end)` covered by the union of
/// `children`, each clipped to the parent interval.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part of it that child
/// spans cover. Overlapping children (kernels on parallel resource
/// managers) are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// splitmix64 finalizer: the mixing step for seeds and digests.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workload seed of operation `index` in a run seeded `seed`.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    mix(mix(0x7065_7266_6265_6e63, seed), index)
}

/// The simulated outputs of one scenario that the correctness gate
/// compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Scenario fingerprint.
    pub fingerprint: u64,
    /// Simulated makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Task records in the result.
    pub tasks: u64,
    /// Application instances completed.
    pub apps_completed: u64,
    /// Scheduler invocations.
    pub sched_invocations: u64,
    /// Modeled busy time per PE, in PE-id order, in nanoseconds.
    pub pe_busy_ns: Vec<u64>,
}

impl Outcome {
    /// A 64-bit digest over every field, in a fixed order.
    pub fn digest(&self) -> u64 {
        let mut h = mix(0x6469_6765_7374, self.fingerprint);
        for v in [self.makespan_ns, self.tasks, self.apps_completed, self.sched_invocations] {
            h = mix(h, v);
        }
        h = mix(h, self.pe_busy_ns.len() as u64);
        for &b in &self.pe_busy_ns {
            h = mix(h, b);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000), Some(0.99));
        // One sample fewer and p99 has only 9 beyond: fall back to p95.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50), (45, 60)]), 50);
        // Children spilling past the parent are clipped.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        // A child covering everything leaves zero.
        assert_eq!(self_time(10, 20, &[(0, 30)]), 0);
        // Touching intervals merge without a gap.
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20);
        // Empty and outside children are ignored.
        assert_eq!(covered(0, 100, &[(5, 5), (200, 300)]), 0);
    }

    fn outcome() -> Outcome {
        Outcome {
            fingerprint: 0xabc,
            makespan_ns: 99_670_000,
            tasks: 6000,
            apps_completed: 480,
            sched_invocations: 12_000,
            pe_busy_ns: vec![1, 2, 3],
        }
    }

    #[test]
    fn digest_is_stable_and_covers_every_field() {
        let base = outcome();
        assert_eq!(base.digest(), outcome().digest());
        let variants = [
            Outcome { fingerprint: 0xabd, ..outcome() },
            Outcome { makespan_ns: 99_670_001, ..outcome() },
            Outcome { tasks: 6001, ..outcome() },
            Outcome { apps_completed: 479, ..outcome() },
            Outcome { sched_invocations: 12_001, ..outcome() },
            Outcome { pe_busy_ns: vec![1, 3, 2], ..outcome() },
            Outcome { pe_busy_ns: vec![1, 2, 3, 0], ..outcome() },
        ];
        for v in variants {
            assert_ne!(v.digest(), base.digest(), "{v:?}");
        }
    }

    #[test]
    fn op_seeds_differ_per_index_and_run() {
        assert_ne!(op_seed(0, 0), op_seed(0, 1));
        assert_ne!(op_seed(0, 0), op_seed(1, 0));
        assert_eq!(op_seed(5, 9), op_seed(5, 9));
    }
}
