//! Sample statistics and span nesting: the quantile, percentile, and
//! self-time helpers every workload reports through.

/// The median of `samples` (the mean of the middle pair for an even
/// count). `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The first and third quartiles, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method), so in-run figures and the cross-run spread agree.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The nearest-rank percentile `p` (0–100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One recorded span: where it ran and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Logical thread id.
    pub tid: u64,
    /// Start, in microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The parent of each span: the innermost span on the same thread that
/// started no later and had not yet ended when it started. Spans on one
/// thread are properly nested (RAII scopes), so a span that starts
/// inside another lies inside it.
pub fn parents(spans: &[Interval]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; an enclosing span that starts in the same
    // microsecond as its child is longer, so it sorts first.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.tid, s.start_us, std::cmp::Reverse(s.dur_us), i)
    });
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid == s.tid && s.start_us < t.start_us + t.dur_us.max(1) {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

/// Each span's self time: its duration minus the durations of its direct
/// children on the same thread (never below zero).
pub fn self_times(spans: &[Interval], parent: &[Option<usize>]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            own[p] = own[p].saturating_sub(spans[i].dur_us);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, start_us: u64, dur_us: u64) -> Interval {
        Interval {
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn parents_follow_nesting_per_thread() {
        let spans = vec![
            span(1, 0, 100), // 0: root on thread 1
            span(1, 10, 30), // 1: child of 0
            span(1, 15, 5),  // 2: grandchild (child of 1)
            span(1, 50, 20), // 3: second child of 0
            span(2, 20, 10), // 4: other thread, overlapping 0 in time
            span(1, 100, 5), // 5: starts as 0 ends: a sibling, not a child
        ];
        let parent = parents(&spans);
        assert_eq!(
            parent,
            vec![None, Some(0), Some(1), Some(0), None, None],
            "{parent:?}"
        );
    }

    #[test]
    fn same_microsecond_start_nests_the_shorter_span() {
        let spans = vec![span(1, 10, 3), span(1, 10, 50)];
        assert_eq!(parents(&spans), vec![Some(1), None]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, 0, 100),
            span(1, 10, 30),
            span(1, 15, 5),
            span(1, 50, 20),
        ];
        let parent = parents(&spans);
        assert_eq!(self_times(&spans, &parent), vec![50, 25, 5, 20]);
    }
}
