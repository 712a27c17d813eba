//! Statistics, output checks and small process utilities shared by the
//! workloads. Everything here is pure or reads only `/proc`, so it is
//! unit-tested directly.

/// Samples a metric's percentile must have strictly beyond it before the
/// percentile is reported (a tail read from fewer points is noise).
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile of ascending `sorted` samples
/// (`p` in `[0, 100]`). Empty input has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The percentile `p` of `samples`, but only when at least
/// [`MIN_BEYOND`] samples lie strictly above it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let value = percentile(&sorted, p)?;
    let beyond = sorted.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        Some(Summary {
            n: sorted.len(),
            median: percentile(&sorted, 50.0)?,
            q1: percentile(&sorted, 25.0)?,
            q3: percentile(&sorted, 75.0)?,
        })
    }

    /// The same summary with every statistic multiplied by `k` (unit
    /// conversion). A negative `k` would swap the quartiles, so callers
    /// pass only positive factors.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
        }
    }

    /// The reciprocal summary scaled by `k` (durations to rates): the
    /// quartiles swap because `1/x` reverses order.
    pub fn rate(self, k: f64) -> Summary {
        Summary {
            n: self.n,
            median: k / self.median,
            q1: k / self.q3,
            q3: k / self.q1,
        }
    }
}

/// Operations attempted and failed in one run. An operation fails when
/// it errors, returns an error frame, or its output fails its check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations per attempted one; `None` before any attempt.
    pub fn failed_frac(self) -> Option<f64> {
        (self.attempted > 0).then(|| self.failed as f64 / self.attempted as f64)
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// 64-bit FNV-1a: a stable digest (unlike `DefaultHasher`, fixed across
/// toolchains), so pinned values stay valid.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of named records, order-independent: records are sorted by
/// name first, so any evaluation order yields the same value. Each record
/// is its name followed by its words (typically `f64::to_bits`).
pub fn named_digest(records: &[(String, Vec<u64>)]) -> u64 {
    let mut order: Vec<&(String, Vec<u64>)> = records.iter().collect();
    order.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = Fnv::default();
    for (name, words) in order {
        h.bytes(name.as_bytes()).u64(words.len() as u64);
        for &w in words {
            h.u64(w);
        }
    }
    h.finish()
}

/// Compares a computed digest against the value pinned in the benchmark.
pub fn check_digest(what: &str, actual: u64, pinned: u64) -> Result<(), String> {
    if actual == pinned {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {actual:#018x} != pinned {pinned:#018x}"
        ))
    }
}

/// Compares a count against its pinned value.
pub fn check_count(what: &str, actual: u64, pinned: u64) -> Result<(), String> {
    if actual == pinned {
        Ok(())
    } else {
        Err(format!("{what}: {actual} != pinned {pinned}"))
    }
}

/// Compares a produced table (`name`, TSV bytes) with its committed
/// golden, naming the first differing line.
pub fn check_golden(
    expected_name: &str,
    expected: &[u8],
    name: &str,
    body: &[u8],
) -> Result<(), String> {
    if name != expected_name {
        return Err(format!("table name `{name}` != expected `{expected_name}`"));
    }
    if body == expected {
        return Ok(());
    }
    let got = String::from_utf8_lossy(body);
    let want = String::from_utf8_lossy(expected);
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "{expected_name}: output differs from the golden at line {} ({} vs {} bytes)",
        line + 1,
        body.len(),
        expected.len()
    ))
}

/// The counters of a `cimloop serve` `STATS` frame this benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    pub table_hits: u64,
    pub table_misses: u64,
    pub jobs_run: u64,
    pub jobs_failed: u64,
}

impl ServeStats {
    /// Parses a `STATS` frame body. Keys are unique across its nested
    /// objects, so each is located by name; a missing key or a value that
    /// is not a whole number is an error.
    pub fn parse(body: &str) -> Result<ServeStats, String> {
        let field = |key: &str| -> Result<u64, String> {
            let pattern = format!("\"{key}\":");
            let at = body
                .find(&pattern)
                .ok_or_else(|| format!("STATS frame lacks `{key}`"))?;
            let rest = body[at + pattern.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse()
                .map_err(|_| format!("STATS `{key}` is not a whole number"))
        };
        Ok(ServeStats {
            table_hits: field("table_hits")?,
            table_misses: field("table_misses")?,
            jobs_run: field("jobs_run")?,
            jobs_failed: field("jobs_failed")?,
        })
    }

    /// Table lookups served from the cache, per lookup.
    pub fn table_hit_ratio(&self) -> Option<f64> {
        let lookups = self.table_hits + self.table_misses;
        (lookups > 0).then(|| self.table_hits as f64 / lookups as f64)
    }
}

/// A small seeded generator (SplitMix64) for the workload orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB; `pid` `None`
/// means this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 distinct samples: p99 sits at rank 989.01, leaving the ten
        // samples 990..=999 above it.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail_percentile(&samples, 99.0).is_some());
        // 900 samples: rank 890.01 leaves only the nine samples 891..=899.
        let samples: Vec<f64> = (0..900).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 99.0), None);
        // Ties at the top do not count as beyond.
        let mut flat = vec![1.0; 2000];
        flat[0] = 0.0;
        assert_eq!(tail_percentile(&flat, 99.0), None);
        // The median of ten samples has five beyond: not reported.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten, 50.0), None);
    }

    #[test]
    fn summary_rate_swaps_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (3, 2.0, 1.5, 3.0));
        let r = s.rate(12.0);
        assert_eq!((r.median, r.q1, r.q3), (6.0, 4.0, 8.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), None);
        assert!(!t.correct(), "a run that attempted nothing is not correct");
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(t.failed_frac(), Some(0.25));
        assert!(!t.correct());
        assert_eq!((t.attempted, t.failed), (4, 1));
        let mut ok = Tally::default();
        ok.record(true);
        assert!(ok.correct());
        assert_eq!(ok.failed_frac(), Some(0.0));
    }

    #[test]
    fn stats_frame_parses_and_rejects_malformed() {
        let body = "{\"cache\": {\"table_len\": 3, \"table_capacity\": null, \
                    \"table_hits\": 99, \"table_misses\": 1, \"table_evictions\": 0, \
                    \"stats_len\": 2, \"stats_capacity\": null, \"stats_hits\": 7, \
                    \"stats_misses\": 3, \"stats_evictions\": 0}, \"server\": \
                    {\"jobs_run\": 12, \"jobs_failed\": 0, \"jobs_aborted\": 0}}";
        let s = ServeStats::parse(body).unwrap();
        assert_eq!(s.table_hits, 99);
        assert_eq!(s.jobs_run, 12);
        assert_eq!(s.table_hit_ratio(), Some(0.99));
        assert!(ServeStats::parse("{\"cache\": {}}").is_err());
        let bad = body.replace("\"table_hits\": 99", "\"table_hits\": null");
        assert!(ServeStats::parse(&bad).is_err());
    }

    #[test]
    fn digest_is_order_independent_and_value_sensitive() {
        let a = vec![
            ("conv1".to_owned(), vec![1.5f64.to_bits(), 7]),
            ("fc".to_owned(), vec![2.5f64.to_bits(), 9]),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(named_digest(&a), named_digest(&b));
        let mut c = a.clone();
        c[1].1[0] = 2.500_000_000_000_001f64.to_bits();
        assert_ne!(named_digest(&a), named_digest(&c));
        let d = named_digest(&a);
        assert!(check_digest("net", d, d).is_ok());
        assert!(check_digest("net", d, d ^ 1).is_err());
        assert!(check_count("front", 34, 34).is_ok());
        assert!(check_count("front", 33, 34).is_err());
    }

    #[test]
    fn golden_compare_names_first_differing_line() {
        let golden = b"a\tb\n1\t2\n3\t4\n";
        assert!(check_golden("t", golden, "t", golden).is_ok());
        let err = check_golden("t", golden, "t", b"a\tb\n1\t2\n3\t5\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(check_golden("t", golden, "u", golden).is_err());
        let short = check_golden("t", golden, "t", b"a\tb\n").unwrap_err();
        assert!(short.contains("line 2"), "{short}");
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
