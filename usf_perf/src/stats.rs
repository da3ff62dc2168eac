//! Order statistics and the process-level counters read from `/proc`.

/// Samples a percentile must have beyond it to be worth reporting.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with at least
/// `p × n` samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 0.5)
}

/// Which percentile stands for "the tail" of `n` samples: the 99th when ten samples lie
/// beyond it, otherwise the highest that still has ten beyond it (the maximum below
/// twenty samples).
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 100 * TAIL_SAMPLES {
        0.99
    } else if n >= 2 * TAIL_SAMPLES {
        1.0 - TAIL_SAMPLES as f64 / n as f64
    } else {
        1.0
    }
}

/// How far apart two readings of one metric are, as a share of the better one, in the
/// direction that counts as worse — the quantity a bound limits.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let (best, worst) = if (a <= b) == lower_is_better {
        (a, b)
    } else {
        (b, a)
    };
    if best == 0.0 {
        return if worst == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((worst - best) / best).abs()
}

/// Kernel clock ticks per second in `/proc/<pid>/stat`: `USER_HZ`, 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds the whole process has consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` (fields 14 and 15); the command name in field 2 may hold spaces, so
/// fields are counted from its closing parenthesis.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size, MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_rss_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), 0.99);
        // Refused below that: the highest percentile with ten samples beyond it instead.
        assert_eq!(tail_percentile(999), 1.0 - 10.0 / 999.0);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, tail_percentile(v.len())), 989.0);
        assert_eq!(tail_percentile(19), 1.0);
    }

    #[test]
    fn worsening_is_relative_to_the_better_reading() {
        assert!((worsening(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(110.0, 100.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, false) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 1 0 0 0 250 150 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(400));
        assert_eq!(parse_rss_kb("Name:\tx\nVmRSS:\t  20480 kB\n"), Some(20480));
        assert!(cpu_seconds() >= 0.0 && rss_mb() > 0.0);
    }
}
