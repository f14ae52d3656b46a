//! Token-bucket flow specification and policer.
//!
//! The Guaranteed Service describes a flow with the token bucket TSpec of
//! RFC 2212 / RFC 2215: peak rate `p`, token rate `r`, bucket depth `b`,
//! minimum policed unit `m` and maximum transfer unit `M`. A flow conforms
//! if, over every interval of length `T`, it offers no more than
//! `min(p*T + M, b + r*T)` bytes, where packets smaller than `m` are counted
//! as `m` bytes.

use core::fmt;

/// Token-bucket traffic specification (RFC 2215 TSpec).
///
/// Invariants enforced at construction: all parameters positive,
/// `m <= M <= b` and `r <= p`.
///
/// # Examples
///
/// The paper's evaluation flows (Eq. 11–12): packets of 144–176 bytes every
/// 20 ms, so `p = r = 176 B / 20 ms = 8800 B/s`, `b = M = 176`, `m = 144`:
///
/// ```
/// use btgs_traffic::TokenBucketSpec;
///
/// let tspec = TokenBucketSpec::new(8800.0, 8800.0, 176.0, 144, 176).unwrap();
/// assert_eq!(tspec.token_rate(), 8800.0);
/// assert_eq!(tspec.max_packet(), 176);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TokenBucketSpec {
    peak_rate: f64,
    token_rate: f64,
    bucket_depth: f64,
    min_policed_unit: u32,
    max_packet: u32,
}

/// Error constructing a [`TokenBucketSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidTSpec(String);

impl fmt::Display for InvalidTSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid token bucket specification: {}", self.0)
    }
}

impl std::error::Error for InvalidTSpec {}

impl TokenBucketSpec {
    /// Creates a specification.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < r <= p`, `b >= M`, `0 < m <= M`, and all
    /// float parameters are finite.
    pub fn new(
        peak_rate: f64,
        token_rate: f64,
        bucket_depth: f64,
        min_policed_unit: u32,
        max_packet: u32,
    ) -> Result<TokenBucketSpec, InvalidTSpec> {
        if !peak_rate.is_finite() || !token_rate.is_finite() || !bucket_depth.is_finite() {
            return Err(InvalidTSpec("rates and depth must be finite".into()));
        }
        if token_rate <= 0.0 {
            return Err(InvalidTSpec(format!(
                "token rate must be positive, got {token_rate}"
            )));
        }
        if peak_rate < token_rate {
            return Err(InvalidTSpec(format!(
                "peak rate {peak_rate} must be >= token rate {token_rate}"
            )));
        }
        if min_policed_unit == 0 {
            return Err(InvalidTSpec("minimum policed unit must be positive".into()));
        }
        if min_policed_unit > max_packet {
            return Err(InvalidTSpec(format!(
                "minimum policed unit {min_policed_unit} must be <= maximum packet size {max_packet}"
            )));
        }
        if bucket_depth < max_packet as f64 {
            return Err(InvalidTSpec(format!(
                "bucket depth {bucket_depth} must be >= maximum packet size {max_packet}"
            )));
        }
        Ok(TokenBucketSpec {
            peak_rate,
            token_rate,
            bucket_depth,
            min_policed_unit,
            max_packet,
        })
    }

    /// Convenience constructor for a constant-bit-rate flow that emits one
    /// packet of at most `max_packet` bytes every `interval_secs`:
    /// `p = r = max_packet / interval`, `b = M = max_packet`.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`TokenBucketSpec::new`].
    pub fn for_cbr(
        interval_secs: f64,
        min_packet: u32,
        max_packet: u32,
    ) -> Result<TokenBucketSpec, InvalidTSpec> {
        if !(interval_secs.is_finite() && interval_secs > 0.0) {
            return Err(InvalidTSpec(format!(
                "interval must be positive and finite, got {interval_secs}"
            )));
        }
        let rate = max_packet as f64 / interval_secs;
        TokenBucketSpec::new(rate, rate, max_packet as f64, min_packet, max_packet)
    }

    /// Peak rate `p` in bytes/second.
    pub fn peak_rate(&self) -> f64 {
        self.peak_rate
    }

    /// Token rate `r` in bytes/second (the long-term average bound).
    pub fn token_rate(&self) -> f64 {
        self.token_rate
    }

    /// Bucket depth `b` in bytes (the burst bound).
    pub fn bucket_depth(&self) -> f64 {
        self.bucket_depth
    }

    /// Minimum policed unit `m` in bytes.
    pub fn min_policed_unit(&self) -> u32 {
        self.min_policed_unit
    }

    /// Maximum packet size `M` in bytes.
    pub fn max_packet(&self) -> u32 {
        self.max_packet
    }

    /// The policed size of a packet: actual size, but never less than `m`.
    pub fn policed_size(&self, bytes: u32) -> u32 {
        bytes.max(self.min_policed_unit)
    }
}

impl fmt::Display for TokenBucketSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TSpec(p={} B/s, r={} B/s, b={} B, m={} B, M={} B)",
            self.peak_rate,
            self.token_rate,
            self.bucket_depth,
            self.min_policed_unit,
            self.max_packet
        )
    }
}

/// A running token bucket: checks or enforces conformance of a packet
/// sequence against a [`TokenBucketSpec`].
///
/// The bucket starts full. [`Policer::conforms`] debits tokens for
/// conforming packets and reports violations without debiting.
///
/// # Examples
///
/// ```
/// use btgs_traffic::{Policer, TokenBucketSpec};
///
/// let spec = TokenBucketSpec::new(8800.0, 8800.0, 176.0, 144, 176).unwrap();
/// let mut policer = Policer::new(spec);
/// assert!(policer.conforms(0.000, 176));
/// assert!(!policer.conforms(0.001, 176), "back-to-back burst exceeds b");
/// assert!(policer.conforms(0.020, 176), "tokens refilled after 20 ms");
/// ```
#[derive(Clone, Debug)]
pub struct Policer {
    spec: TokenBucketSpec,
    tokens: f64,
    last_time: f64,
    violations: u64,
    checked: u64,
}

impl Policer {
    /// Creates a policer with a full bucket at time zero.
    pub fn new(spec: TokenBucketSpec) -> Policer {
        Policer {
            tokens: spec.bucket_depth,
            spec,
            last_time: 0.0,
            violations: 0,
            checked: 0,
        }
    }

    /// The specification being enforced.
    pub fn spec(&self) -> &TokenBucketSpec {
        &self.spec
    }

    /// Checks a packet of `bytes` arriving at absolute time `t` seconds.
    /// Conforming packets debit the bucket; violations are counted and the
    /// bucket is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously checked arrival.
    pub fn conforms(&mut self, t: f64, bytes: u32) -> bool {
        assert!(
            t >= self.last_time,
            "arrivals must be checked in time order ({t} < {})",
            self.last_time
        );
        let dt = t - self.last_time;
        self.tokens = (self.tokens + dt * self.spec.token_rate).min(self.spec.bucket_depth);
        self.last_time = t;
        self.checked += 1;
        let need = self.spec.policed_size(bytes) as f64;
        if bytes > self.spec.max_packet {
            self.violations += 1;
            return false;
        }
        if need <= self.tokens + 1e-9 {
            self.tokens -= need;
            true
        } else {
            self.violations += 1;
            false
        }
    }

    /// Number of packets checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of non-conforming packets observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spec() -> TokenBucketSpec {
        TokenBucketSpec::new(8800.0, 8800.0, 176.0, 144, 176).unwrap()
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(
            TokenBucketSpec::new(1.0, 2.0, 10.0, 1, 10).is_err(),
            "p < r"
        );
        assert!(
            TokenBucketSpec::new(2.0, 0.0, 10.0, 1, 10).is_err(),
            "r = 0"
        );
        assert!(TokenBucketSpec::new(2.0, 1.0, 5.0, 1, 10).is_err(), "b < M");
        assert!(
            TokenBucketSpec::new(2.0, 1.0, 10.0, 0, 10).is_err(),
            "m = 0"
        );
        assert!(
            TokenBucketSpec::new(2.0, 1.0, 10.0, 11, 10).is_err(),
            "m > M"
        );
        assert!(TokenBucketSpec::new(f64::NAN, 1.0, 10.0, 1, 10).is_err());
    }

    #[test]
    fn cbr_constructor_matches_paper_eq_11_12() {
        let spec = TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap();
        assert_eq!(spec.peak_rate(), 8800.0);
        assert_eq!(spec.token_rate(), 8800.0);
        assert_eq!(spec.bucket_depth(), 176.0);
        assert_eq!(spec.min_policed_unit(), 144);
        assert_eq!(spec.max_packet(), 176);
    }

    #[test]
    fn policed_size_floors_at_m() {
        let spec = paper_spec();
        assert_eq!(spec.policed_size(100), 144);
        assert_eq!(spec.policed_size(144), 144);
        assert_eq!(spec.policed_size(170), 170);
    }

    #[test]
    fn cbr_stream_conforms_exactly() {
        let mut policer = Policer::new(paper_spec());
        for k in 0..1000u32 {
            assert!(policer.conforms(k as f64 * 0.020, 176));
        }
        assert_eq!(policer.violations(), 0);
        assert_eq!(policer.checked(), 1000);
    }

    #[test]
    fn uniform_sizes_conform() {
        // Sizes in [144,176] every 20 ms conform to the paper's TSpec.
        let mut policer = Policer::new(paper_spec());
        let sizes = [144u32, 176, 160, 150, 176, 176, 144, 172];
        for (k, &s) in sizes.iter().enumerate() {
            assert!(policer.conforms(k as f64 * 0.020, s), "packet {k} of {s} B");
        }
        assert_eq!(policer.violations(), 0);
    }

    #[test]
    fn oversized_packet_is_flagged_but_not_debited() {
        let mut policer = Policer::new(paper_spec());
        assert!(!policer.conforms(0.0, 177), "exceeds M");
        // Bucket untouched; a legal packet still passes.
        assert!(policer.conforms(0.0, 176));
        assert_eq!(policer.violations(), 1);
    }

    #[test]
    fn burst_beyond_bucket_is_flagged() {
        let mut policer = Policer::new(paper_spec());
        assert!(policer.conforms(0.0, 176));
        assert!(!policer.conforms(0.0, 176), "second same-instant packet");
        // After 10 ms only 88 tokens returned: a 144-byte (policed) packet
        // still does not fit.
        assert!(!policer.conforms(0.010, 144));
        // After a full 20 ms from the start there are 176 tokens again...
        assert!(policer.conforms(0.020, 176));
        assert_eq!(policer.violations(), 2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_arrivals_panic() {
        let mut policer = Policer::new(paper_spec());
        policer.conforms(1.0, 144);
        policer.conforms(0.5, 144);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btgs_des::DetRng;

    /// Any packet sequence accepted by the policer must stay within the
    /// arrival envelope measured from time zero.
    #[test]
    fn accepted_traffic_obeys_envelope() {
        let mut rng = DetRng::seed_from_u64(0x70B1);
        for _ in 0..256 {
            let n = rng.range_inclusive(1, 99) as usize;
            let spec = TokenBucketSpec::new(12_000.0, 8_800.0, 600.0, 144, 176).unwrap();
            let mut policer = Policer::new(spec);
            let mut t = 0.0;
            let mut accepted_bytes = 0.0;
            for _ in 0..n {
                let dt_us = rng.below(100_000);
                t += dt_us as f64 * 1e-6;
                let size = rng.range_inclusive(1, 299) as u32;
                if policer.conforms(t, size) {
                    accepted_bytes += spec.policed_size(size) as f64;
                    // Envelope measured from t=0 with the initial bucket full.
                    let envelope = spec.bucket_depth() + spec.token_rate() * t + 1e-6;
                    assert!(
                        accepted_bytes <= envelope,
                        "accepted {accepted_bytes} B by t={t}, envelope {envelope}"
                    );
                }
            }
        }
    }

    /// A CBR stream at exactly the token rate always conforms,
    /// regardless of packet size within [m, M].
    #[test]
    fn cbr_at_token_rate_conforms() {
        let mut rng = DetRng::seed_from_u64(0x70B2);
        for _ in 0..64 {
            let n = rng.range_inclusive(1, 199) as usize;
            let spec = TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap();
            let mut policer = Policer::new(spec);
            for k in 0..n {
                let s = rng.range_inclusive(144, 176) as u32;
                assert!(policer.conforms(k as f64 * 0.020, s));
            }
        }
    }
}
