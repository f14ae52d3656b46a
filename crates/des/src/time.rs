//! Simulation time types.
//!
//! All simulation time is kept as an integer number of **nanoseconds** since
//! the start of the simulation. Integer time makes event ordering exact and
//! runs bit-for-bit reproducibly on every platform; nanosecond resolution
//! leaves no visible rounding error at the microsecond-to-millisecond scales
//! a Bluetooth piconet operates on (one slot is 625 µs = 625 000 ns).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds since simulation start.
///
/// `SimTime` is an absolute instant; the corresponding span type is
/// [`SimDuration`]. Arithmetic between the two is checked in debug builds and
/// saturating semantics are never used silently: subtracting a later time
/// from an earlier one panics, because in a discrete-event simulation that is
/// always a logic error.
///
/// # Examples
///
/// ```
/// use btgs_des::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(20);
/// assert_eq!(t1 - t0, SimDuration::from_millis(20));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// # Examples
///
/// ```
/// use btgs_des::SimDuration;
///
/// let slot = SimDuration::from_micros(625);
/// assert_eq!(slot * 2, SimDuration::from_micros(1250));
/// assert_eq!(SimDuration::from_millis(20).as_secs_f64(), 0.020);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds since simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds since simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds since simulation start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds since simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_f64_to_nanos(s))
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    #[inline]
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The duration elapsed since `earlier`, clamped to zero if `earlier` is
    /// actually later than `self`.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, returning `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Rounds this instant **up** to the next multiple of `quantum`
    /// (returns `self` unchanged if already aligned).
    ///
    /// Used to align master transmissions to Bluetooth slot boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[inline]
    pub fn align_up(self, quantum: SimDuration) -> SimTime {
        assert!(quantum.0 > 0, "alignment quantum must be non-zero");
        let rem = self.0 % quantum.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 + (quantum.0 - rem))
        }
    }

    /// Rounds this instant **down** to the previous multiple of `quantum`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[inline]
    pub fn align_down(self, quantum: SimDuration) -> SimTime {
        assert!(quantum.0 > 0, "alignment quantum must be non-zero");
        SimTime(self.0 - self.0 % quantum.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_f64_to_nanos(s))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }

    /// How many whole `rhs` fit in `self` (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div_duration(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0 / rhs.0
    }

    /// How many `rhs` are needed to cover `self` (ceiling division).
    ///
    /// This is the `ceil(y / x_k)` operation of the paper's Fig. 2 algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div_ceil_duration(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0.div_ceil(rhs.0)
    }
}

fn secs_f64_to_nanos(s: f64) -> u64 {
    assert!(s.is_finite(), "seconds value must be finite, got {s}");
    assert!(s >= 0.0, "seconds value must be non-negative, got {s}");
    let ns = s * 1e9;
    // Every value up to 2^64 rounds to at most 2^64 (past 2^53 all of
    // them are integers already), which saturates to `u64::MAX`.
    assert!(
        ns <= u64::MAX as f64,
        "seconds value {s} overflows the nanosecond representation"
    );
    round_half_away(ns)
}

/// `x.round() as u64` for `0 <= x <= 2^64`, without a libm call: the cast
/// truncates, and `x - whole` is the exact fractional part (it needs no
/// more mantissa bits than `x` has), so comparing it with one half rounds
/// half away from zero exactly. From 2^53 on `x` is an integer and the
/// fraction is zero; at 2^64 the cast saturates to `u64::MAX`, as the cast
/// of `2^64.round()` does.
#[inline]
fn round_half_away(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole + 1
    } else {
        whole
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow"),
        )
    }
}

impl SubAssign<SimDuration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: SimDuration) -> SimDuration {
        rhs * self
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0s".to_owned()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns >= 1_000_000_000 {
        format!("{:.6}s", ns as f64 / 1e9)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs(2),
            SimDuration::from_nanos(2_000_000_000)
        );
    }

    #[test]
    fn float_round_trip() {
        let d = SimDuration::from_secs_f64(0.020);
        assert_eq!(d, SimDuration::from_millis(20));
        assert_eq!(d.as_secs_f64(), 0.020);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1500));
    }

    #[test]
    fn float_rounds_to_nearest_nanosecond() {
        // 144 bytes at 8800 B/s = 16.363636... ms
        let d = SimDuration::from_secs_f64(144.0 / 8800.0);
        assert_eq!(d.as_nanos(), 16_363_636);
    }

    /// The libm-free rounding must agree with `f64::round` on every value
    /// the conversion accepts: half-way points and their neighbours, the
    /// largest double below one half, the thresholds where doubles become
    /// integers, the saturating top of the range, and random bit patterns.
    #[test]
    fn round_half_away_matches_f64_round() {
        fn check(x: f64) {
            assert_eq!(round_half_away(x), x.round() as u64, "x = {x:e}");
        }
        for k in 0..1_000_000u64 {
            let half = k as f64 + 0.5;
            check(half);
            check(half.next_up());
            check(half.next_down());
            check(k as f64);
        }
        check(0.0);
        check(0.499_999_999_999_999_94);
        for e in [52, 53, 63] {
            let p = 2f64.powi(e);
            check(p);
            check(p.next_down());
            check(p.next_up());
        }
        let top = 2f64.powi(64);
        check(top.next_down());
        check(top);
        assert_eq!(round_half_away(top), u64::MAX);
        assert_eq!(
            secs_f64_to_nanos(top / 1e9),
            u64::MAX,
            "2^64 ns is accepted"
        );

        let mut rng = crate::rng::DetRng::seed_from_u64(0x2A11D);
        let (mut raw, mut ranged) = (0, 0);
        for _ in 0..1_000_000 {
            // Any non-negative bit pattern, kept if the conversion would
            // accept it.
            let x = f64::from_bits(rng.next_u64() >> 1);
            if x <= top {
                check(x);
                raw += 1;
            }
            // A random mantissa under a biased exponent of at most
            // 1023 + 63: every value below 2^64, subnormals included.
            let exp = rng.below(1023 + 64);
            check(f64::from_bits(exp << 52 | rng.next_u64() >> 12));
            ranged += 1;
        }
        assert!(raw > 400_000 && ranged == 1_000_000, "{raw} raw patterns");
    }

    #[test]
    #[should_panic(expected = "overflows the nanosecond representation")]
    fn just_above_2_pow_64_nanoseconds_panics() {
        let _ = SimDuration::from_secs_f64(2f64.powi(64).next_up() / 1e9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(t + d, SimTime::from_millis(15));
        assert_eq!(t - d, SimTime::from_millis(5));
        assert_eq!((t + d) - t, d);
        assert_eq!(t.checked_duration_since(t + d), None);
        assert_eq!(
            (t + d).checked_duration_since(t),
            Some(SimDuration::from_millis(5))
        );
        assert_eq!(t.saturating_duration_since(t + d), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn negative_interval_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_micros(625);
        assert_eq!(d * 2, SimDuration::from_micros(1250));
        assert_eq!(2 * d, SimDuration::from_micros(1250));
        assert_eq!((d * 3) / 3, d);
        assert_eq!(d.checked_mul(u64::MAX), None);
    }

    #[test]
    fn alignment() {
        let slot2 = SimDuration::from_micros(1250);
        assert_eq!(SimTime::ZERO.align_up(slot2), SimTime::ZERO);
        assert_eq!(
            SimTime::from_nanos(1).align_up(slot2),
            SimTime::from_micros(1250)
        );
        assert_eq!(
            SimTime::from_micros(1250).align_up(slot2),
            SimTime::from_micros(1250)
        );
        assert_eq!(
            SimTime::from_micros(1300).align_down(slot2),
            SimTime::from_micros(1250)
        );
    }

    #[test]
    fn div_ceil_duration_matches_paper_fig2_usage() {
        // ceil(y / x): y = 11.25 ms, x = 16.36 ms -> 1 poll.
        let y = SimDuration::from_micros(11_250);
        let x = SimDuration::from_micros(16_360);
        assert_eq!(y.div_ceil_duration(x), 1);
        // y = 18.75 ms, x = 9.22 ms -> 3 polls.
        let y = SimDuration::from_micros(18_750);
        let x = SimDuration::from_micros(9_220);
        assert_eq!(y.div_ceil_duration(x), 3);
        // Exact multiples need no extra poll.
        let y = SimDuration::from_micros(20);
        let x = SimDuration::from_micros(10);
        assert_eq!(y.div_ceil_duration(x), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(625).to_string(), "625us");
        assert_eq!(SimDuration::from_millis(20).to_string(), "20ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_nanos(1_234).to_string(), "1234ns");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(format!("{:?}", SimTime::from_millis(5)), "SimTime(5ms)");
    }

    #[test]
    fn ordering_and_default() {
        assert!(SimTime::ZERO < SimTime::MAX);
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
        let mut v = [SimTime::from_secs(2), SimTime::ZERO, SimTime::from_secs(1)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(2));
    }
}
