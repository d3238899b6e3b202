//! What a run produces: named metrics with their provenance, and the count
//! of operations attempted and failed.

use crate::stats::{median, quartiles, Hist};
use std::collections::BTreeMap;

/// One metric's value and where it came from.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

/// Metrics by name. Names are checked against `BENCHMARK.json` when the
/// run prints its result.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Sample>);

impl Metrics {
    /// A single reading: a count, a ratio, or a value measured once.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_sample(
            name,
            Sample {
                value,
                n: 1,
                q1: value,
                q3: value,
            },
        );
    }

    /// The median of `samples`, with their count and quartiles.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        let (q1, q3) = quartiles(samples);
        self.put_sample(
            name,
            Sample {
                value: median(samples),
                n: samples.len(),
                q1,
                q3,
            },
        );
    }

    /// Quantile `q` of the spans in `hist`, in units of `per` nanoseconds.
    pub fn put_quantile(&mut self, name: &str, hist: &Hist, q: f64, per: f64) {
        self.put_sample(
            name,
            Sample {
                value: hist.quantile(q) / per,
                n: hist.count() as usize,
                q1: hist.quantile(0.25) / per,
                q3: hist.quantile(0.75) / per,
            },
        );
    }

    pub fn put_sample(&mut self, name: &str, sample: Sample) {
        let previous = self.0.insert(name.to_string(), sample);
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not yet reported"))
            .value
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Count one operation; `why` is only evaluated when it failed.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), why);
    }

    /// Add another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}
