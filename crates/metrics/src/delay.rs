//! Packet delay statistics.

use btgs_des::SimDuration;
use core::fmt;
use std::cell::{Cell, RefCell};

/// Collects per-packet delay samples and answers summary queries.
///
/// Samples are kept in full, so percentiles and bound checks are exact
/// rather than approximated: a 1000 s paper run records about 49,900
/// samples per GS flow.
///
/// Each sample is stored in nanoseconds, in 4 bytes while every sample
/// fits in a `u32` (delays up to ≈4.29 s, which covers every GS flow and
/// chain). The first sample above `u32::MAX` ns widens the whole buffer
/// to 8 bytes, once, keeping the samples' order and at least the
/// buffer's capacity, so an earlier [`reserve`](DelayStats::reserve)
/// still covers its samples; only saturated best-effort flows get that
/// far. The width is not observable: every query answers, and `Debug`
/// prints, as for one buffer of `u64` nanoseconds.
///
/// Order-statistic queries ([`quantile`](DelayStats::quantile),
/// [`violations_of`](DelayStats::violations_of), the `Display` p95) share a
/// lazily sorted view of the sample buffer, maintained behind interior
/// mutability: the first such query after new samples sorts once in place;
/// every further query is a binary search or an index — no cloning, no
/// hidden per-call allocation. Sample insertion order is never observable
/// through the public API, so re-ordering is safe.
///
/// # Examples
///
/// ```
/// use btgs_metrics::DelayStats;
/// use btgs_des::SimDuration;
///
/// let mut stats = DelayStats::new();
/// for ms in [10, 20, 30, 40] {
///     stats.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(stats.count(), 4);
/// assert_eq!(stats.max().unwrap(), SimDuration::from_millis(40));
/// assert_eq!(stats.mean().unwrap(), SimDuration::from_millis(25));
/// assert_eq!(stats.quantile(0.5).unwrap(), SimDuration::from_millis(20));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DelayStats {
    samples_ns: RefCell<Samples>,
    sorted: Cell<bool>,
    sum_ns: u128,
}

/// A sample buffer in nanoseconds: 4 bytes a sample until a sample above
/// `u32::MAX` ns widens it to 8 (see [`DelayStats`]).
#[derive(Clone)]
enum Samples {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

/// Evaluates `$body` with `$v` bound to the buffer of `$samples` at its
/// width; [`nanos`] reads a sample at either width.
macro_rules! at_width {
    ($samples:expr, $v:ident => $body:expr) => {
        match $samples {
            Samples::Narrow($v) => $body,
            Samples::Wide($v) => $body,
        }
    };
}

/// A stored sample in nanoseconds.
fn nanos<T: Copy + Into<u64>>(ns: &T) -> u64 {
    (*ns).into()
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::Narrow(Vec::new())
    }
}

/// Prints the samples as a list of nanoseconds, so a [`DelayStats`]'s
/// derived `Debug` text is the same at either width.
impl fmt::Debug for Samples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        at_width!(self, v => fmt::Debug::fmt(v, f))
    }
}

impl Samples {
    fn len(&self) -> usize {
        at_width!(self, v => v.len())
    }

    fn get(&self, i: usize) -> Option<u64> {
        at_width!(self, v => v.get(i).map(nanos))
    }

    /// The smallest sample; a sorted buffer holds it first.
    fn min(&self, sorted: bool) -> Option<u64> {
        at_width!(self, v => if sorted { v.first() } else { v.iter().min() }.map(nanos))
    }

    /// The largest sample; a sorted buffer holds it last.
    fn max(&self, sorted: bool) -> Option<u64> {
        at_width!(self, v => if sorted { v.last() } else { v.iter().max() }.map(nanos))
    }

    /// Number of samples at or below `bound` ns, in a sorted buffer.
    fn count_within(&self, bound: u64) -> usize {
        at_width!(self, v => v.partition_point(|ns| nanos(ns) <= bound))
    }

    fn for_each(&self, mut f: impl FnMut(u64)) {
        at_width!(self, v => v.iter().for_each(|ns| f(nanos(ns))))
    }

    fn reserve(&mut self, additional: usize) {
        at_width!(self, v => v.reserve(additional))
    }

    fn sort(&mut self) {
        // analyze: allow(unstable-sort): samples sorted by value, at either
        // width — equal keys are bit-identical, so their relative order
        // cannot reach any percentile or report byte.
        at_width!(self, v => v.sort_unstable())
    }

    /// Appends one sample: a sample that fits a narrow buffer inline, any
    /// other out of line, so recording stays small where it is inlined.
    #[inline]
    fn push(&mut self, ns: u64) {
        match (self, u32::try_from(ns)) {
            (Samples::Narrow(v), Ok(narrow)) => v.push(narrow),
            (samples, _) => samples.push_wide(ns),
        }
    }

    /// Appends a sample to a wide buffer, widening a narrow one first.
    #[inline(never)]
    fn push_wide(&mut self, ns: u64) {
        match self {
            Samples::Wide(v) => v.push(ns),
            samples => samples.widen().push(ns),
        }
    }

    /// Appends every sample of `other`, widening first if `other` is wide.
    fn extend(&mut self, other: &Samples) {
        match (self, other) {
            (Samples::Narrow(v), Samples::Narrow(o)) => v.extend_from_slice(o),
            (Samples::Wide(v), Samples::Narrow(o)) => v.extend(o.iter().map(nanos)),
            (samples, Samples::Wide(o)) => samples.widen().extend_from_slice(o),
        }
    }

    /// The buffer as 8-byte samples, converting a narrow one in order and
    /// keeping at least its capacity. Out of line, since a buffer widens
    /// at most once and recording must stay cheap.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) -> &mut Vec<u64> {
        if let Samples::Narrow(narrow) = self {
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(nanos));
            *self = Samples::Wide(wide);
        }
        match self {
            Samples::Wide(wide) => wide,
            Samples::Narrow(_) => unreachable!("the buffer was just widened"),
        }
    }
}

impl DelayStats {
    /// Creates an empty collector.
    pub fn new() -> DelayStats {
        DelayStats::default()
    }

    /// Records one delay sample. Inline, so a loop that records many
    /// samples (the grid wire decoder's) keeps the narrow push in the
    /// loop.
    #[inline]
    pub fn record(&mut self, delay: SimDuration) {
        self.samples_ns.get_mut().push(delay.as_nanos());
        self.sum_ns += delay.as_nanos() as u128;
        self.sorted.set(false);
    }

    /// Pre-sizes the sample buffer for at least `additional` further
    /// samples, so recording inside an allocation-free window does not
    /// grow the buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.samples_ns.get_mut().reserve(additional);
    }

    /// Sorts the sample buffer in place unless it is already sorted.
    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples_ns.borrow_mut().sort();
            self.sorted.set(true);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples_ns.borrow().len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        let sorted = self.sorted.get();
        self.samples_ns
            .borrow()
            .min(sorted)
            .map(SimDuration::from_nanos)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        let sorted = self.sorted.get();
        self.samples_ns
            .borrow()
            .max(sorted)
            .map(SimDuration::from_nanos)
    }

    /// Exact sum of all samples, in nanoseconds. The scatternet tests use
    /// this to assert the end-to-end identity (e2e = Σ hop delays +
    /// Σ residence) without truncation error.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<SimDuration> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(SimDuration::from_nanos((self.sum_ns / n as u128) as u64))
        }
    }

    /// Exact `q`-quantile (nearest-rank method), `q` in `[0, 1]`.
    ///
    /// Sorts lazily on first use (via the shared sorted cache); repeated
    /// quantile queries are O(1).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let samples = self.samples_ns.borrow();
        let n = samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        samples.get(rank - 1).map(SimDuration::from_nanos)
    }

    /// Number of samples strictly greater than `bound`.
    ///
    /// Runs on the sorted view: one binary search
    /// ([`partition_point`](slice::partition_point)) instead of a linear
    /// scan.
    pub fn violations_of(&self, bound: SimDuration) -> usize {
        self.ensure_sorted();
        let samples = self.samples_ns.borrow();
        samples.len() - samples.count_within(bound.as_nanos())
    }

    /// Merges another collector's samples into this one.
    pub fn merge(&mut self, other: &DelayStats) {
        self.samples_ns.get_mut().extend(&other.samples_ns.borrow());
        self.sum_ns += other.sum_ns;
        self.sorted.set(false);
    }

    /// Calls `f` with every recorded sample (in nanoseconds) in storage
    /// order, without cloning the buffer or allocating — the streaming
    /// aggregators bin samples into fixed histograms through this.
    ///
    /// Storage order is recording order until an order-statistic query
    /// sorts the buffer; a collector decoded from a grid wire frame holds
    /// its samples in ascending order.
    pub fn for_each_nanos(&self, f: impl FnMut(u64)) {
        self.samples_ns.borrow().for_each(f);
    }

    /// Calls `f` with every recorded sample (in nanoseconds) in ascending
    /// order. The buffer is sorted in place by the lazy sort the
    /// order-statistic queries share, so nothing is cloned or allocated —
    /// the grid wire format delta-codes samples through this.
    pub fn for_each_nanos_ascending(&self, f: impl FnMut(u64)) {
        self.ensure_sorted();
        self.for_each_nanos(f);
    }
}

/// A bounded-size, exactly mergeable delay digest: count, sum, min, max.
///
/// Unlike [`DelayStats`] it keeps **no samples**, so its memory footprint
/// is a handful of words regardless of how many delays it has seen — the
/// streaming grid aggregator pools millions of cell samples through these
/// without growing. All four components are commutative and associative,
/// so merging per-shard summaries in **any completion order** yields the
/// same digest, and [`DelaySummary::mean`] uses the same integer
/// arithmetic as [`DelayStats::mean`] (truncating `u128` division), so a
/// summary observed from a stats collector reports the identical mean.
///
/// # Examples
///
/// ```
/// use btgs_metrics::{DelayStats, DelaySummary};
/// use btgs_des::SimDuration;
///
/// let mut stats = DelayStats::new();
/// stats.record(SimDuration::from_millis(10));
/// stats.record(SimDuration::from_millis(30));
/// let mut summary = DelaySummary::new();
/// summary.observe(&stats);
/// assert_eq!(summary.mean(), stats.mean());
/// assert_eq!(summary.max(), stats.max());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelaySummary {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl DelaySummary {
    /// Creates an empty summary.
    pub fn new() -> DelaySummary {
        DelaySummary::default()
    }

    /// Records one delay sample. Inline, so a loop that records many
    /// samples (the grid wire decoder's) keeps the narrow push in the
    /// loop.
    #[inline]
    pub fn record(&mut self, delay: SimDuration) {
        let ns = delay.as_nanos();
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Folds a whole sample collector into this summary (allocation-free).
    pub fn observe(&mut self, stats: &DelayStats) {
        if stats.is_empty() {
            return;
        }
        let min = stats.min().expect("non-empty").as_nanos();
        let max = stats.max().expect("non-empty").as_nanos();
        if self.count == 0 {
            self.min_ns = min;
            self.max_ns = max;
        } else {
            self.min_ns = self.min_ns.min(min);
            self.max_ns = self.max_ns.max(max);
        }
        self.count += stats.count() as u64;
        self.sum_ns += stats.sum_nanos();
    }

    /// Merges another summary into this one. Exact: the result is
    /// identical to having recorded both sample streams into one summary,
    /// in any order.
    pub fn merge(&mut self, other: &DelaySummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of samples summarised.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples were summarised.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples, in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// Arithmetic mean, with [`DelayStats::mean`]'s exact integer
    /// arithmetic.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64))
    }
}

impl fmt::Display for DelaySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no samples");
        }
        write!(
            f,
            "n={} min={} mean={} max={}",
            self.count,
            self.min().expect("non-empty"),
            self.mean().expect("non-empty"),
            self.max().expect("non-empty"),
        )
    }
}

impl fmt::Display for DelayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no samples");
        }
        // p95 goes through the shared sorted cache: the buffer is sorted (in
        // place) at most once, not cloned per format call.
        write!(
            f,
            "n={} min={} mean={} p95={} max={}",
            self.count(),
            self.min().expect("non-empty"),
            self.mean().expect("non-empty"),
            self.quantile(0.95).expect("non-empty"),
            self.max().expect("non-empty"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_stats() {
        let s = DelayStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn summary_statistics() {
        let mut s = DelayStats::new();
        for v in [5, 1, 9, 3, 7] {
            s.record(ms(v));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), Some(ms(1)));
        assert_eq!(s.max(), Some(ms(9)));
        assert_eq!(s.mean(), Some(ms(5)));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = DelayStats::new();
        for v in 1..=100u64 {
            s.record(ms(v));
        }
        assert_eq!(s.quantile(0.0), Some(ms(1)));
        assert_eq!(s.quantile(0.01), Some(ms(1)));
        assert_eq!(s.quantile(0.5), Some(ms(50)));
        assert_eq!(s.quantile(0.95), Some(ms(95)));
        assert_eq!(s.quantile(1.0), Some(ms(100)));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_range_checked() {
        let mut s = DelayStats::new();
        s.record(ms(1));
        let _ = s.quantile(1.5);
    }

    #[test]
    fn violations_are_strict() {
        let mut s = DelayStats::new();
        for v in [10, 20, 30] {
            s.record(ms(v));
        }
        assert_eq!(
            s.violations_of(ms(30)),
            0,
            "bound itself is not a violation"
        );
        assert_eq!(s.violations_of(ms(29)), 1);
        assert_eq!(s.violations_of(ms(9)), 3);
    }

    #[test]
    fn violations_use_the_sorted_cache() {
        let mut s = DelayStats::new();
        for v in [40, 10, 30, 20] {
            s.record(ms(v));
        }
        // First order-statistic query sorts once…
        assert_eq!(s.violations_of(ms(25)), 2);
        // …further queries and quantiles reuse the sorted view.
        assert_eq!(s.quantile(0.5), Some(ms(20)));
        assert_eq!(s.violations_of(ms(5)), 4);
        assert_eq!(s.violations_of(ms(40)), 0);
        // Recording invalidates and re-sorts lazily.
        s.record(ms(50));
        assert_eq!(s.violations_of(ms(45)), 1);
        assert_eq!(s.min(), Some(ms(10)));
        assert_eq!(s.max(), Some(ms(50)));
    }

    #[test]
    fn display_uses_shared_cache() {
        let mut s = DelayStats::new();
        for v in 1..=100u64 {
            s.record(ms(v));
        }
        let rendered = s.to_string();
        assert!(rendered.contains("p95=95ms"), "{rendered}");
        // The same object keeps answering consistently afterwards.
        assert_eq!(s.quantile(0.95), Some(ms(95)));
    }

    #[test]
    fn merge_combines() {
        let mut a = DelayStats::new();
        a.record(ms(1));
        let mut b = DelayStats::new();
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(ms(2)));
    }

    #[test]
    fn samples_round_trip_preserves_statistics() {
        let mut s = DelayStats::new();
        for v in [40, 10, 30, 20] {
            s.record(ms(v));
        }
        // Force a sort so storage order differs from insertion order.
        assert_eq!(s.quantile(0.5), Some(ms(20)));
        let mut rebuilt = DelayStats::new();
        s.for_each_nanos(|ns| rebuilt.record(SimDuration::from_nanos(ns)));
        assert_eq!(rebuilt.count(), s.count());
        assert_eq!(rebuilt.sum_nanos(), s.sum_nanos());
        assert_eq!(rebuilt.min(), s.min());
        assert_eq!(rebuilt.max(), s.max());
        assert_eq!(rebuilt.quantile(0.95), s.quantile(0.95));
        assert_eq!(rebuilt.violations_of(ms(25)), s.violations_of(ms(25)));
        // for_each_nanos visits every sample exactly once.
        let mut sum = 0u128;
        rebuilt.for_each_nanos(|ns| sum += ns as u128);
        assert_eq!(sum, rebuilt.sum_nanos());
    }

    #[test]
    fn widening_keeps_order_capacity_and_debug_text() {
        let big = u64::from(u32::MAX) + 1;
        let mut s = DelayStats::new();
        s.reserve(8);
        for ns in [7, u64::from(u32::MAX), 3] {
            s.record(SimDuration::from_nanos(ns));
        }
        let narrow = format!("{s:?}");
        assert!(matches!(*s.samples_ns.borrow(), Samples::Narrow(_)));
        s.record(SimDuration::from_nanos(big));
        s.record(SimDuration::from_nanos(1));
        match &*s.samples_ns.borrow() {
            Samples::Wide(v) => {
                assert_eq!(*v, [7, u64::from(u32::MAX), 3, big, 1], "order kept");
                assert!(v.capacity() >= 8, "the earlier reserve still holds");
            }
            Samples::Narrow(_) => panic!("a sample past u32::MAX must widen"),
        }
        assert_eq!(
            narrow,
            "DelayStats { samples_ns: RefCell { value: [7, 4294967295, 3] }, \
             sorted: Cell { value: false }, sum_ns: 4294967305 }"
        );
        assert_eq!(s.max(), Some(SimDuration::from_nanos(big)));
        assert_eq!(
            s.violations_of(SimDuration::from_nanos(u64::from(u32::MAX))),
            1
        );
        assert_eq!(s.quantile(0.0), Some(SimDuration::from_nanos(1)));

        // A wide collector merged into a narrow one widens it; a narrow
        // one merged into a wide one does not narrow it.
        let mut narrow = DelayStats::new();
        narrow.record(ms(2));
        narrow.merge(&s);
        assert!(matches!(*narrow.samples_ns.borrow(), Samples::Wide(_)));
        assert_eq!(narrow.count(), 6);
        let mut wide = s.clone();
        let mut small = DelayStats::new();
        small.record(ms(2));
        wide.merge(&small);
        assert!(matches!(*wide.samples_ns.borrow(), Samples::Wide(_)));
        assert_eq!(wide.sum_nanos(), narrow.sum_nanos());
    }

    #[test]
    fn ascending_visit_sorts_and_keeps_statistics() {
        let mut s = DelayStats::new();
        for v in [40, 10, 30, 10, 20] {
            s.record(ms(v));
        }
        let (p50, sum) = (s.quantile(0.5), s.sum_nanos());
        s.record(ms(5));
        let mut seen = Vec::new();
        s.for_each_nanos_ascending(|ns| seen.push(ns));
        let want: Vec<u64> = [5, 10, 10, 20, 30, 40]
            .iter()
            .map(|&v| ms(v).as_nanos())
            .collect();
        assert_eq!(seen, want);
        assert_eq!(s.sum_nanos(), sum + ms(5).as_nanos() as u128);
        assert_eq!(p50, Some(ms(20)));
        assert_eq!(s.quantile(0.5), Some(ms(10)));
    }

    #[test]
    fn summary_matches_stats_and_merges_order_invariantly() {
        let mut all = DelayStats::new();
        let mut a = DelayStats::new();
        let mut b = DelayStats::new();
        for v in [7, 3, 11] {
            all.record(ms(v));
            a.record(ms(v));
        }
        for v in [5, 23, 1] {
            all.record(ms(v));
            b.record(ms(v));
        }
        let mut sa = DelaySummary::new();
        sa.observe(&a);
        let mut sb = DelaySummary::new();
        sb.observe(&b);

        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        assert_eq!(ab, ba, "merge must be order-invariant");
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.sum_nanos(), all.sum_nanos());
        assert_eq!(ab.min(), all.min());
        assert_eq!(ab.max(), all.max());
        assert_eq!(ab.mean(), all.mean());

        // record() agrees with observe().
        let mut rec = DelaySummary::new();
        all.for_each_nanos(|ns| rec.record(SimDuration::from_nanos(ns)));
        assert_eq!(rec, ab);

        // Empty merges are identities.
        let empty = DelaySummary::new();
        assert!(empty.is_empty());
        assert_eq!(empty.min(), None);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.to_string(), "no samples");
        let mut e = empty;
        e.merge(&ab);
        assert_eq!(e, ab);
        let mut f = ab;
        f.merge(&empty);
        assert_eq!(f, ab);
        assert!(ab.to_string().contains("n=6"));
    }

    #[test]
    fn recording_after_quantile_stays_correct() {
        let mut s = DelayStats::new();
        s.record(ms(10));
        assert_eq!(s.quantile(1.0), Some(ms(10)));
        s.record(ms(5));
        assert_eq!(s.quantile(0.0), Some(ms(5)));
        assert_eq!(s.quantile(1.0), Some(ms(10)));
    }
}
