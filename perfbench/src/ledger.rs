//! Measurement arithmetic: percentiles, obs counter windows, the
//! per-layer ledger, and the work-identity record that every exact count
//! must match across runs of one workload at one seed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// Nearest-rank percentile of an ascending slice (`p` in [0, 1]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Splits `0..n` into contiguous segments of at least `min_len` units
/// (one segment if `n` is smaller) and returns the median over the
/// segments of `f(segment)`. A transient stall of the host then moves
/// one segment's figure, not the run's.
pub fn median_over_segments(
    n: usize,
    min_len: usize,
    mut f: impl FnMut(Range<usize>) -> f64,
) -> f64 {
    let segments = (n / min_len.max(1)).max(1);
    let values: Vec<f64> = (0..segments)
        .map(|i| f(i * n / segments..(i + 1) * n / segments))
        .collect();
    median(&values)
}

/// CPU time (s) the scheduler has given the live threads of this
/// process. The guest kernel accounts time the hypervisor steals from a
/// virtual CPU as steal, not as task run time, so on a shared host this
/// clock measures the program's work where wall time would also measure
/// its neighbours. A running thread's figure is updated at scheduler
/// ticks, so use it for phases of a second or more. 0 where `/proc` is
/// unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks.flatten().filter_map(|t| task_cpu_s(&t.path())).sum()
}

/// Run time (s) of one task directory under `/proc`, from its
/// `schedstat` (nanoseconds on the CPU, first field).
fn task_cpu_s(task: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(task.join("schedstat")).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-9)
}

/// Time per step of [`HostProbe`] on the host the bounds were set on
/// (ns): a probe reading this makes the normalised metrics equal the raw
/// ones.
pub const PROBE_NOMINAL_NS: f64 = 117.0;

/// Steps of one probe sample (about 1 ms).
const PROBE_STEPS: usize = 8_192;

/// A pointer chase around one fixed random cycle through 16 MiB: each
/// step is a dependent load that misses the 2 MiB L2, so its time tracks
/// the host's cache and memory latency. On a shared host that latency
/// moves by up to 2× within minutes as neighbours come and go, and the
/// program's CPU time per operation moves with it; the probe, sampled
/// during the timed phase, lets the metrics be stated at a nominal
/// latency. It is the benchmark's own code, so no change to the program
/// moves it.
pub struct HostProbe {
    next: Vec<u32>,
    at: u32,
    samples: Vec<f64>,
}

impl HostProbe {
    /// Builds the cycle (Sattolo's shuffle of a fixed xorshift stream).
    pub fn new() -> Self {
        Self::with_len(1 << 22)
    }

    fn with_len(n: usize) -> Self {
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Self {
            next,
            at: 0,
            samples: Vec::new(),
        }
    }

    /// Times one sample and keeps its nanoseconds per step.
    pub fn sample(&mut self) {
        let t0 = std::time::Instant::now();
        let mut p = self.at;
        for _ in 0..PROBE_STEPS {
            p = self.next[p as usize];
        }
        self.at = std::hint::black_box(p);
        self.samples
            .push(t0.elapsed().as_secs_f64() * 1e9 / PROBE_STEPS as f64);
    }

    /// Median time per step of the samples taken (ns).
    pub fn median_ns(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than nominal the host's memory ran: multiply a
    /// rate by it, divide a time by it.
    pub fn slowdown(&self) -> f64 {
        self.median_ns() / PROBE_NOMINAL_NS
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A window over the process-wide `fpsping_obs` counters and histogram
/// sums: take one before a phase, call [`Window::close`] after it.
#[derive(Debug, Clone)]
pub struct Window(BTreeMap<String, u64>);

impl Window {
    /// Opens a window at the current counter values.
    pub fn open() -> Self {
        Self(read_obs())
    }

    /// Counter increments since [`Window::open`]. Histograms appear as
    /// `<name>#count` and `<name>#sum`.
    pub fn close(&self) -> Deltas {
        let now = read_obs();
        Deltas(
            now.into_iter()
                .map(|(k, v)| {
                    let before = self.0.get(&k).copied().unwrap_or(0);
                    (k, v.saturating_sub(before))
                })
                .collect(),
        )
    }
}

fn read_obs() -> BTreeMap<String, u64> {
    let snap = fpsping_obs::snapshot();
    let mut m: BTreeMap<String, u64> = snap.counters.into_iter().collect();
    for h in snap.histograms {
        m.insert(format!("{}#count", h.name), h.count);
        m.insert(format!("{}#sum", h.name), h.sum);
    }
    m
}

/// Counter deltas of one closed [`Window`].
#[derive(Debug, Clone, Default)]
pub struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    /// The increment of `name` (0 if it never fired).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds the increments of `other`.
    pub fn add(&mut self, other: &Deltas) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// These increments without those of `other`, a part of them.
    pub fn without(mut self, other: &Deltas) -> Deltas {
        for (k, v) in &other.0 {
            if let Some(x) = self.0.get_mut(k) {
                *x = x.saturating_sub(*v);
            }
        }
        self
    }
}

/// End-to-end time of a traced phase against the self times of the
/// layers it was split into.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the traced phase (s).
    pub end_to_end_s: f64,
    /// Self time per layer (s), as attributed by the traced run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Adds one layer's self time.
    pub fn add(&mut self, layer: &'static str, self_s: f64) {
        self.layers.push((layer, self_s));
    }

    /// End-to-end time no layer accounts for, in percent of it.
    pub fn unattributed_pct(&self) -> f64 {
        let attributed: f64 = self.layers.iter().map(|(_, s)| s).sum();
        100.0 * ratio(self.end_to_end_s - attributed, self.end_to_end_s)
    }
}

/// Cost of tracing: time of the traced units over the untraced ones
/// doing the same work, in percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (ratio(traced_s, untraced_s) - 1.0)
}

/// Exact counts of one run, by name.
pub type Counts = BTreeMap<String, u64>;

/// Checks `counts` against the record at `path` and adds names the
/// record lacks. Returns one message per count that differs from what
/// an earlier run of the same workload, seed and binary recorded.
pub fn check_identity(path: &Path, counts: &Counts) -> std::io::Result<Vec<String>> {
    let mut record = Counts::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse() {
                    record.insert(name.to_string(), v);
                }
            }
        }
    }
    let mut mismatches = Vec::new();
    let mut grew = false;
    for (name, &v) in counts {
        match record.get(name) {
            Some(&was) if was != v => {
                mismatches.push(format!("{name}: {v} now, {was} in an earlier run"))
            }
            Some(_) => {}
            None => {
                record.insert(name.clone(), v);
                grew = true;
            }
        }
    }
    if grew {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text: String = record.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(path, text)?;
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(
            percentile(&[3.0, 4.0, 5.0], 0.99),
            5.0,
            "p99 of few samples is the max"
        );
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn segments_cover_every_unit_once() {
        let mut seen = Vec::new();
        let m = median_over_segments(10, 3, |r| {
            seen.extend(r.clone());
            r.len() as f64
        });
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(m, 3.0, "three segments of 3, 3 and 4 units");
        assert_eq!(median_over_segments(5, 1000, |r| r.len() as f64), 5.0);
    }

    #[test]
    fn task_cpu_time_grows_with_work() {
        // Other test threads may exit meanwhile and drop out of the
        // process sum, so check this thread's own clock. It advances at
        // scheduler ticks: spin well past one.
        let me = Path::new("/proc/thread-self");
        let before = task_cpu_s(me).expect("schedstat readable");
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 50 {
            std::hint::black_box(t0.elapsed());
        }
        assert!(task_cpu_s(me).expect("schedstat readable") > before);
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn probe_walks_one_cycle_through_every_slot() {
        let mut p = HostProbe::with_len(1000);
        let mut seen = vec![false; 1000];
        let mut at = 0u32;
        for _ in 0..1000 {
            assert!(
                !seen[at as usize],
                "revisited a slot before closing the cycle"
            );
            seen[at as usize] = true;
            at = p.next[at as usize];
        }
        assert_eq!(at, 0);
        p.sample();
        p.sample();
        assert!(p.median_ns() > 0.0 && p.slowdown() > 0.0);
    }

    #[test]
    fn deltas_add_and_subtract_by_name() {
        let mut a = Deltas(BTreeMap::from([("x".to_string(), 5), ("y".to_string(), 1)]));
        let b = Deltas(BTreeMap::from([("x".to_string(), 2), ("z".to_string(), 7)]));
        a.add(&b);
        assert_eq!((a.get("x"), a.get("y"), a.get("z")), (7, 1, 7));
        let c = a.without(&b);
        assert_eq!((c.get("x"), c.get("y"), c.get("z")), (5, 1, 0));
    }

    #[test]
    fn ledger_unattributed_is_the_uncovered_share() {
        let mut l = Ledger {
            end_to_end_s: 10.0,
            ..Ledger::default()
        };
        l.add("a", 6.0);
        l.add("b", 3.0);
        assert!((l.unattributed_pct() - 10.0).abs() < 1e-12);
        l.add("c", 2.0);
        assert!(
            (l.unattributed_pct() + 10.0).abs() < 1e-12,
            "over-attribution is negative"
        );
        assert_eq!(Ledger::default().unattributed_pct(), 0.0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_time() {
        assert!((overhead_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(0.98, 1.0) + 2.0).abs() < 1e-9);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn identity_record_flags_only_changed_counts() {
        let dir = std::env::temp_dir().join(format!("perfbench-identity-{}", std::process::id()));
        let path = dir.join("w.counts");
        let _ = std::fs::remove_file(&path);
        let mut a = Counts::new();
        a.insert("x".into(), 3);
        assert!(check_identity(&path, &a).expect("write").is_empty());
        a.insert("y".into(), 4);
        assert!(check_identity(&path, &a).expect("extend").is_empty());
        a.insert("x".into(), 5);
        let m = check_identity(&path, &a).expect("read");
        assert_eq!(m.len(), 1);
        assert!(m[0].starts_with("x: 5 now, 3"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
