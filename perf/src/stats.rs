//! Medians and quartiles of timed reps.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the "exclusive" method), so the spread this harness prints is
    /// the spread the driver computes.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Summary::default(),
            1 => Summary {
                min: v[0],
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            },
            _ => {
                let quartile = |i: usize| {
                    let j = (i * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Summary {
                    min: v[0],
                    median: quartile(2),
                    q1: quartile(1),
                    q3: quartile(3),
                    n,
                }
            }
        }
    }

    /// Interquartile range as a percentage of the median.
    pub fn iqr_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            100.0 * (self.q3 - self.q1) / self.median
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The smallest sample: the fastest rep of a time.
pub fn fastest(samples: &[f64]) -> f64 {
    Summary::of(samples).min
}

/// `a / b`, or 0 when `b` is 0 (a layer that did nothing on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
