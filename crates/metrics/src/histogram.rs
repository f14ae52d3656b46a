//! Fixed-bin histograms.

use core::fmt;

/// A histogram over `f64` values with uniform bins.
///
/// Values below the range are counted in an underflow bucket, values at or
/// above the upper edge in an overflow bucket, so no sample is ever lost.
///
/// # Examples
///
/// ```
/// use btgs_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.record(1.0);
/// h.record(3.0);
/// h.record(100.0);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.bin_counts()[0], 1); // [0,2)
/// assert_eq!(h.bin_counts()[1], 1); // [2,4)
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

/// Error constructing a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidHistogram;

impl fmt::Display for InvalidHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("histogram requires lo < hi (finite) and at least one bin")
    }
}

impl std::error::Error for InvalidHistogram {}

/// Error merging two [`Histogram`]s with different bin geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramShapeMismatch;

impl fmt::Display for HistogramShapeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("histograms must share range and bin count to merge")
    }
}

impl std::error::Error for HistogramShapeMismatch {}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is empty/non-finite or `bins` is zero.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Histogram, InvalidHistogram> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi && bins > 0) {
            return Err(InvalidHistogram);
        }
        Ok(Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records a value.
    pub fn record(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (v - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merges another histogram's counts into this one.
    ///
    /// Merging is exact and commutative (per-bin addition), so per-shard
    /// histograms combined in any completion order yield the same result —
    /// the property the streaming grid aggregator relies on. Both
    /// histograms must have identical bin geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if `other` has a different range or bin count.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), HistogramShapeMismatch> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(HistogramShapeMismatch);
        }
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Histogram::new(0.0, 1.0, 10).is_ok());
        assert!(Histogram::new(1.0, 1.0, 10).is_err());
        assert!(Histogram::new(2.0, 1.0, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 1).is_err());
    }

    #[test]
    fn binning() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for v in [0.0, 0.5, 1.0, 9.99] {
            h.record(v);
        }
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[1], 1);
        assert_eq!(h.bin_counts()[9], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(-0.1);
        h.record(1.0); // upper edge is exclusive
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_adds_counts_commutatively() {
        let mut a = Histogram::new(0.0, 10.0, 5).unwrap();
        let mut b = Histogram::new(0.0, 10.0, 5).unwrap();
        for v in [1.0, 3.0, -1.0] {
            a.record(v);
        }
        for v in [3.5, 20.0] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab.bin_counts(), ba.bin_counts());
        assert_eq!(ab.underflow(), 1);
        assert_eq!(ab.overflow(), 1);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.bin_counts()[1], 2, "3.0 and 3.5 share bin [2,4)");

        // Shape mismatches are rejected.
        let mut narrow = Histogram::new(0.0, 5.0, 5).unwrap();
        assert_eq!(narrow.merge(&a), Err(HistogramShapeMismatch));
        let mut coarse = Histogram::new(0.0, 10.0, 2).unwrap();
        assert_eq!(coarse.merge(&a), Err(HistogramShapeMismatch));
        assert!(HistogramShapeMismatch.to_string().contains("bin count"));
    }
}
