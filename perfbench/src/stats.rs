//! The harness's own arithmetic: percentiles with failed operations ranked
//! last, open-loop latency measured from each write's due time, failure
//! shares, and the metric-name character set. Kept free of I/O and clocks
//! so the unit tests below pin every rule exactly.

use std::time::Duration;

/// One operation's latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    /// Completed; the measured latency.
    Done(Duration),
    /// Errored or never acknowledged. The value is a lower bound on its
    /// latency (for an unacknowledged write: the time from its due time to
    /// the end of the run). Failed samples rank above every completed one.
    Failed(Duration),
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) over `samples`, with every
/// failed sample ranked above every completed one. A rank that lands on a
/// failed sample reports its lower bound, raised to the slowest completed
/// latency so the reported order stays monotone. `None` when empty.
pub fn percentile(samples: &[Sample], p: f64) -> Option<Duration> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let mut done: Vec<Duration> = Vec::with_capacity(samples.len());
    let mut failed: Vec<Duration> = Vec::new();
    for s in samples {
        match *s {
            Sample::Done(d) => done.push(d),
            Sample::Failed(d) => failed.push(d),
        }
    }
    let n = samples.len();
    if n == 0 {
        return None;
    }
    done.sort_unstable();
    failed.sort_unstable();
    // p·n is exact for the integer percentiles used here, so the rank has no
    // rounding error (0.55 · 20 would not be exactly 11).
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n); // 1-based
    if rank <= done.len() {
        return Some(done[rank - 1]);
    }
    let slowest = done.last().copied().unwrap_or_default();
    Some(failed[rank - done.len() - 1].max(slowest))
}

/// Mean latency of the completed samples; `None` when none completed.
pub fn mean_done(samples: &[Sample]) -> Option<Duration> {
    let done: Vec<Duration> = samples
        .iter()
        .filter_map(|s| match *s {
            Sample::Done(d) => Some(d),
            Sample::Failed(_) => None,
        })
        .collect();
    let n = u32::try_from(done.len()).ok().filter(|&n| n > 0)?;
    Some(done.iter().sum::<Duration>() / n)
}

/// What happened to one open-loop write. All instants are offsets from the
/// start of the write schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteRecord {
    /// When the schedule said the write should be sent.
    pub due: Duration,
    /// When the writer actually started it (`None`: never started).
    pub start: Option<Duration>,
    /// When it was acknowledged (`None`: errored or still in flight).
    pub acked: Option<Duration>,
}

/// Commit latency of every write due before the end of the run, measured
/// from its due time — so a stalled write also charges the wait it imposes
/// on every write queued behind it. Writes never acknowledged by `run_end`
/// are failed samples whose lower bound is `run_end - due`.
pub fn commit_samples(writes: &[WriteRecord], run_end: Duration) -> Vec<Sample> {
    writes
        .iter()
        .map(|w| match w.acked {
            Some(ack) => Sample::Done(ack.saturating_sub(w.due)),
            None => Sample::Failed(run_end.saturating_sub(w.due)),
        })
        .collect()
}

/// How late the open-loop writer started its writes: the median of
/// `start - due` over the writes it started.
pub fn median_start_lag(writes: &[WriteRecord]) -> Option<Duration> {
    let lags: Vec<Sample> = writes
        .iter()
        .filter_map(|w| w.start.map(|s| Sample::Done(s.saturating_sub(w.due))))
        .collect();
    percentile(&lags, 50.0)
}

/// `failed / attempted`; 0 when nothing was attempted.
pub fn share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// True for a metric or workload name the benchmark contract accepts:
/// 1–64 characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// True for a unit the contract accepts: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nearest_rank_over_completed_samples() {
        let s: Vec<Sample> = (1..=100).map(|v| Sample::Done(ms(v))).collect();
        assert_eq!(percentile(&s, 50.0), Some(ms(50)));
        assert_eq!(percentile(&s, 99.0), Some(ms(99)));
        assert_eq!(percentile(&s, 100.0), Some(ms(100)));
        assert_eq!(percentile(&[Sample::Done(ms(7))], 99.0), Some(ms(7)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failed_samples_rank_above_every_completed_one() {
        // 10 completed at 1..=10 ms; 10 failed with small lower bounds.
        let mut s: Vec<Sample> = (1..=10).map(|v| Sample::Done(ms(v))).collect();
        s.extend((1..=10).map(|v| Sample::Failed(ms(v))));
        // p50 is the 10th of 20: still a completed sample.
        assert_eq!(percentile(&s, 50.0), Some(ms(10)));
        // p55 is the 11th: the first failed one, raised to the slowest
        // completed latency because it ranks above it.
        assert_eq!(percentile(&s, 55.0), Some(ms(10)));
        // p100 reports the largest failed lower bound.
        s.push(Sample::Failed(ms(500)));
        assert_eq!(percentile(&s, 100.0), Some(ms(500)));
        // A failure anywhere in the input order still ranks last.
        let t = [
            Sample::Failed(ms(1)),
            Sample::Done(ms(9)),
            Sample::Done(ms(3)),
        ];
        assert_eq!(percentile(&t, 34.0), Some(ms(9)));
        assert_eq!(percentile(&t, 100.0), Some(ms(9)));
        assert_eq!(percentile(&t, 33.0), Some(ms(3)));
    }

    #[test]
    fn all_failed_reports_lower_bounds() {
        let s = [
            Sample::Failed(ms(30)),
            Sample::Failed(ms(10)),
            Sample::Failed(ms(20)),
        ];
        assert_eq!(percentile(&s, 50.0), Some(ms(20)));
        assert_eq!(percentile(&s, 99.0), Some(ms(30)));
    }

    #[test]
    fn latency_is_measured_from_due_time_behind_a_stalled_writer() {
        // An open-loop writer due every 10 ms. Write 0 stalls for 100 ms, so
        // writes 1..=9 start late, back to back, 1 ms each.
        let mut writes = Vec::new();
        let mut free_at = ms(0);
        for i in 0..10u64 {
            let due = ms(10 * i);
            let start = due.max(free_at);
            let service = if i == 0 { ms(100) } else { ms(1) };
            let done = start + service;
            free_at = done;
            writes.push(WriteRecord {
                due,
                start: Some(start),
                acked: Some(done),
            });
        }
        let lat = commit_samples(&writes, ms(1_000));
        assert_eq!(lat[0], Sample::Done(ms(100)));
        // Write 1 was due at 10 ms, started at 100 ms, done at 101 ms.
        assert_eq!(lat[1], Sample::Done(ms(91)));
        // Write 9 was due at 90 ms, started at 108 ms, done at 109 ms.
        assert_eq!(lat[9], Sample::Done(ms(19)));
        // Timing from the start instead would report 1 ms for all nine.
        assert_eq!(percentile(&lat, 50.0), Some(ms(55)));
        assert_eq!(median_start_lag(&writes), Some(ms(45)));
    }

    #[test]
    fn unacknowledged_writes_fail_with_a_censored_latency() {
        let writes = [
            WriteRecord {
                due: ms(0),
                start: Some(ms(0)),
                acked: Some(ms(2)),
            },
            // In flight when the run ended.
            WriteRecord {
                due: ms(10),
                start: Some(ms(10)),
                acked: None,
            },
            // Queued behind it, never started.
            WriteRecord {
                due: ms(20),
                start: None,
                acked: None,
            },
        ];
        let lat = commit_samples(&writes, ms(5_000));
        assert_eq!(lat[1], Sample::Failed(ms(4_990)));
        assert_eq!(lat[2], Sample::Failed(ms(4_980)));
        assert_eq!(percentile(&lat, 50.0), Some(ms(4_980)));
        assert_eq!(percentile(&lat, 99.0), Some(ms(4_990)));
        let failed = lat
            .iter()
            .filter(|s| matches!(s, Sample::Failed(_)))
            .count();
        assert!((share(failed as u64, lat.len() as u64) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(median_start_lag(&writes), Some(ms(0)));
    }

    #[test]
    fn mean_counts_completed_queries_only() {
        let s = [
            Sample::Done(ms(10)),
            Sample::Failed(ms(1_000)),
            Sample::Done(ms(30)),
        ];
        assert_eq!(mean_done(&s), Some(ms(20)));
        assert_eq!(mean_done(&[Sample::Failed(ms(5))]), None);
        assert_eq!(mean_done(&[]), None);
    }

    #[test]
    fn failure_shares() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(0, 10), 0.0);
        assert_eq!(share(5, 10), 0.5);
        assert_eq!(share(10, 10), 1.0);
    }

    #[test]
    fn metric_name_character_set() {
        for ok in [
            "setup_s",
            "query_p50_us",
            "index.step1_ns",
            "a",
            "9x",
            "wal.bytes-2",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "sp ace",
            "µs",
            "a/b",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "q per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_emitted_metric_is_declared_and_well_formed() {
        let manifest = include_str!("../../BENCHMARK.json");
        for m in crate::metrics::END_TO_END
            .iter()
            .chain(crate::metrics::PER_LAYER)
        {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // ... and nothing else is declared.
        let declared = manifest.matches("\"better\"").count();
        assert_eq!(
            declared,
            crate::metrics::END_TO_END.len() + crate::metrics::PER_LAYER.len()
        );
        for w in crate::workload::Kind::ALL {
            assert!(valid_name(w.name()));
            assert!(manifest.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
