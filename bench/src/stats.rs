//! Percentiles, and the quiet-windows rule every timed end-to-end metric
//! is reported by.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of unsorted latencies, in microseconds.
pub fn percentile_us(nanos: &[u64], p: f64) -> f64 {
    let mut v = nanos.to_vec();
    v.sort_unstable();
    percentile(&v, p) as f64 / 1e3
}

/// Ops per second of waiting: closed loop, one caller, so the measured
/// time is the time spent inside ops — generator and oracle do not count.
pub fn ops_per_s(nanos: &[u64]) -> f64 {
    nanos.len() as f64 / (nanos.iter().sum::<u64>() as f64 / 1e9)
}

/// Median of a few floats: the middle one, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A reported value and, beside it, how well its own run backs it up.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub value: f64,
    /// Max − min of the values the reported one stands for.
    pub spread: f64,
    /// Samples behind the value: ops per pooled window, or set-ups made.
    pub samples: Vec<u64>,
}

fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    max - values.iter().copied().fold(f64::MAX, f64::min)
}

/// Repeated set-ups: their median.
pub fn median_of(values: &[f64]) -> Reported {
    Reported {
        value: median(values),
        spread: spread(values),
        samples: vec![values.len() as u64],
    }
}

/// How many of a run's windows are pooled into a reported number.
pub const QUIET_WINDOWS: usize = 3;

/// One metric of a run, from its windows (each the latencies of its ops):
/// rank the windows by the metric itself, pool the ops of the
/// [`QUIET_WINDOWS`] best, and take the metric over the pool. The spread
/// is the max − min of those windows' own values.
///
/// Why not all windows: the sandbox shares its cores with neighbours
/// whose load flips the machine, for seconds at a time, between a quiet
/// level and one 1.2–1.5× slower (a bare arithmetic loop shows the same
/// two levels). What they add to a latency is never negative, so the
/// windows where a metric reads best are the ones they disturbed least.
/// A statistic over all windows reports which level the neighbours were
/// mostly on: cut a four-minute trace of that loop into consecutive 12 s
/// runs, and the runs' median windows have quartiles 18–24 % of the median
/// apart, their best windows 3–10 %.
pub fn over_quiet(
    windows: &[Vec<u64>],
    metric: impl Fn(&[u64]) -> f64,
    lower_is_better: bool,
) -> Reported {
    let mut ranked: Vec<(f64, &Vec<u64>)> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| (metric(w), w))
        .collect();
    assert!(!ranked.is_empty(), "a run measures at least one op");
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    if !lower_is_better {
        ranked.reverse();
    }
    ranked.truncate(QUIET_WINDOWS);
    let pool: Vec<u64> = ranked.iter().flat_map(|(_, w)| w.iter().copied()).collect();
    let own: Vec<f64> = ranked.iter().map(|(v, _)| *v).collect();
    Reported {
        value: metric(&pool),
        spread: spread(&own),
        samples: ranked.iter().map(|(_, w)| w.len() as u64).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        // 200 samples: p90 leaves 20 beyond it.
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 90.0), 180);
        assert_eq!(percentile_us(&[3000, 1000, 2000], 50.0), 2.0);
        // Four ops that took 1 ms each: a thousand a second.
        assert_eq!(ops_per_s(&[1_000_000; 4]), 1000.0);
    }

    #[test]
    fn median_ignores_one_slow_set_up() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let r = median_of(&[100.0, 104.0, 250.0]);
        assert_eq!((r.value, r.spread), (104.0, 150.0));
    }

    #[test]
    fn each_metric_pools_the_windows_where_it_reads_best() {
        let window = |p50: u64| vec![p50 - 1, p50, p50, p50 + 1, p50 + 50];
        let mut stalled = window(1005);
        stalled[4] = 5000; // a quiet median, one stalled op
        let run = vec![
            window(1400),
            window(1010),
            window(1000),
            vec![],
            stalled,
            window(1020),
        ];

        // p50: the three lowest medians, the stalled op's window among
        // them. 15 pooled ops; the spread is how far those medians lie
        // apart.
        let p50 = over_quiet(&run, |w| percentile_us(w, 50.0), true);
        assert_eq!(p50.value, 1.006);
        assert!((p50.spread - 0.01).abs() < 1e-9);
        assert_eq!(p50.samples, vec![5, 5, 5]);
        // p90: ranked by p90, so the stalled window is left out, and three
        // samples lie beyond it where one window alone had a single one.
        let p90 = over_quiet(&run, |w| percentile_us(w, 90.0), true);
        assert_eq!(p90.value, 1.06);
        // Rate: highest wins.
        let rate = over_quiet(&run, ops_per_s, false);
        assert!(rate.value > ops_per_s(&window(1020)));
        // A run with fewer windows than that pools what it has.
        let short = [window(5), window(4)];
        assert_eq!(over_quiet(&short, ops_per_s, false).samples.len(), 2);
    }
}
