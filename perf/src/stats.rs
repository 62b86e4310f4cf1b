//! Medians, quartiles and percentiles over the benchmark's own samples.

/// One reported number and the quartiles of the `n` samples it was taken
/// from. `value` is their median, except where the samples are a run's
/// slices or set-ups: there it is read from the quiet ones ([`Slices`],
/// [`Metric::quiet_low`]).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
    pub unit: &'static str,
}

/// The share of a run's slices (at least one) that counts as measured on
/// a quiet host: the fastest tenth.
///
/// The sandbox shares its processor with other machines. For 5 to 30 s at
/// a time, about half the time on a bad day, everything here runs 1.3 to
/// 2 times slower, a pure arithmetic loop as much as a thread hand-off
/// (README, *Repeatability*): levels, not jitter, so a whole run's median
/// lands on whichever level held longer. The fastest slices of a run
/// read the program's speed on the undisturbed processor as long as a
/// tenth of the run was undisturbed. A change to the program moves every
/// slice, the fastest ones as much as the rest.
const QUIET_SHARE: f64 = 0.1;

fn quiet_count(n: usize) -> usize {
    ((n as f64 * QUIET_SHARE).round() as usize).max(1)
}

impl Metric {
    /// Median and quartiles of `samples` (which it sorts).
    pub fn of(samples: &mut [f64], unit: &'static str) -> Metric {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let median = quantile(samples, 0.5);
        Metric {
            value: median,
            q1: quantile(samples, 0.25),
            median,
            q3: quantile(samples, 0.75),
            n: samples.len(),
            unit,
        }
    }

    /// Quartiles of all `samples`, value from the median of the lowest
    /// [`QUIET_SHARE`] of them: for times that the host can only lengthen.
    pub fn quiet_low(samples: &mut [f64], unit: &'static str) -> Metric {
        let all = Metric::of(samples, unit);
        let quiet = Metric::of(&mut samples[..quiet_count(all.n)], unit);
        Metric {
            value: quiet.value,
            ..all
        }
    }

    /// A count or a ratio read once; there is no spread to report.
    pub fn one(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            q1: value,
            median: value,
            q3: value,
            n: 1,
            unit,
        }
    }

    pub fn count(n: u64) -> Metric {
        Metric::one(n as f64, "count")
    }

    /// The same measurement in another unit, `k` of which make one of
    /// the old.
    pub fn scaled(self, k: f64, unit: &'static str) -> Metric {
        Metric {
            value: self.value * k,
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
            unit,
            ..self
        }
    }
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of an ascending slice of durations.
pub fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    let rank = (p * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

/// One slice reduced to its rate and the percentiles of its waits.
struct Slice {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

/// The timed part of a run: equal slices, each reduced to its rate and
/// its latency percentiles. What is reported is the median over the
/// run's quiet slices, its fastest [`QUIET_SHARE`] by rate (the same
/// slices for every metric), next to the quartiles over all slices.
#[derive(Default)]
pub struct Slices {
    slices: Vec<Slice>,
    pub ops: u64,
    pub wall_s: f64,
}

impl Slices {
    /// Adds one slice: `ops` completed in `wall_s`, and the client-side
    /// wait of each call in it (sorted here).
    pub fn push(&mut self, ops: u64, wall_s: f64, call_ns: &mut [u64]) {
        call_ns.sort_unstable();
        let us = |p: f64| percentile(call_ns, p) as f64 / 1e3;
        self.slices.push(Slice {
            ops_per_s: ops as f64 / wall_s,
            p50_us: us(0.50),
            p90_us: us(0.90),
            p99_us: us(0.99),
        });
        self.ops += ops;
        self.wall_s += wall_s;
    }

    pub fn len(&self) -> usize {
        self.slices.len()
    }

    fn report(&mut self, field: fn(&Slice) -> f64, unit: &'static str) -> Metric {
        self.slices
            .sort_by(|a, b| b.ops_per_s.total_cmp(&a.ops_per_s));
        let mut all: Vec<f64> = self.slices.iter().map(field).collect();
        let quiet = Metric::of(&mut all[..quiet_count(self.slices.len())], unit);
        Metric {
            value: quiet.value,
            ..Metric::of(&mut all, unit)
        }
    }

    pub fn ops_per_s(&mut self) -> Metric {
        self.report(|s| s.ops_per_s, "1/s")
    }

    pub fn p50_us(&mut self) -> Metric {
        self.report(|s| s.p50_us, "us")
    }

    pub fn p90_us(&mut self) -> Metric {
        self.report(|s| s.p90_us, "us")
    }

    pub fn p99_us(&mut self) -> Metric {
        self.report(|s| s.p99_us, "us")
    }
}

/// FNV-1a 64 over a `Debug` rendering: the model fingerprint the sim
/// workloads compare across repetitions of one spec.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut h, format_args!("{value:?}")).expect("hashing cannot fail");
    h.0
}
