//! Traffic sources.
//!
//! A [`Source`] is a deterministic generator of `(arrival time, size)`
//! pairs. Sources are pull-based: the simulator asks for the next packet and
//! schedules its arrival; this keeps sources independent of the event loop
//! and trivially testable.

use crate::packet::{AppPacket, FlowId};
use btgs_des::{DetRng, SimDuration, SimTime};

/// A generator of higher-layer packets for one flow.
pub trait Source: Send {
    /// Returns the next packet, or `None` if the source is exhausted.
    ///
    /// Arrival times must be non-decreasing across calls. Infinite sources
    /// (Poisson, on-off, greedy) never return `None`: the engine stops
    /// pulling a source at its first arrival past the run horizon.
    fn next_packet(&mut self) -> Option<AppPacket>;

    /// The flow this source feeds.
    fn flow(&self) -> FlowId;
}

/// Constant-bit-rate source: one packet every `interval`, sizes drawn
/// uniformly from `[min_size, max_size]`.
///
/// With `min_size == max_size` this is the classic fixed-size CBR source.
/// The paper's GS sources are `CbrSource` with a 20 ms interval and sizes
/// uniform in `[144, 176]`; its BE sources use fixed 176-byte packets.
///
/// # Examples
///
/// ```
/// use btgs_traffic::{CbrSource, FlowId, Source};
/// use btgs_des::{DetRng, SimDuration, SimTime};
///
/// let mut src = CbrSource::new(
///     FlowId(1),
///     SimDuration::from_millis(20),
///     144,
///     176,
///     DetRng::seed_from_u64(1),
/// );
/// let p0 = src.next_packet().unwrap();
/// let p1 = src.next_packet().unwrap();
/// assert_eq!(p0.arrival, SimTime::ZERO);
/// assert_eq!(p1.arrival, SimTime::from_millis(20));
/// assert!((144..=176).contains(&p0.size));
/// ```
#[derive(Clone, Debug)]
pub struct CbrSource {
    flow: FlowId,
    interval: SimDuration,
    min_size: u32,
    max_size: u32,
    rng: DetRng,
    next_arrival: SimTime,
    seq: u64,
    start: SimTime,
    /// Packets the source may emit in total (`u64::MAX`: no limit).
    limit: u64,
}

impl CbrSource {
    /// Creates a CBR source starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero, `min_size` is zero, or
    /// `min_size > max_size`.
    pub fn new(
        flow: FlowId,
        interval: SimDuration,
        min_size: u32,
        max_size: u32,
        rng: DetRng,
    ) -> CbrSource {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(min_size > 0, "packet sizes must be positive");
        assert!(min_size <= max_size, "min_size must be <= max_size");
        CbrSource {
            flow,
            interval,
            min_size,
            max_size,
            rng,
            next_arrival: SimTime::ZERO,
            seq: 0,
            start: SimTime::ZERO,
            limit: u64::MAX,
        }
    }

    /// Delays the first packet until `start` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if packets were already drawn: rewinding `next_arrival` after
    /// the fact would violate the non-decreasing-arrival contract of
    /// [`Source::next_packet`].
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> CbrSource {
        assert_eq!(
            self.seq, 0,
            "starting_at must be applied before the first packet is drawn"
        );
        self.start = start;
        self.next_arrival = start;
        self
    }

    /// Limits the source to `n` packets in total (builder style).
    #[must_use]
    pub fn with_packet_limit(mut self, n: u64) -> CbrSource {
        self.limit = n;
        self
    }

    /// The generation interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }
}

impl Source for CbrSource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        if self.seq >= self.limit {
            return None;
        }
        let size = if self.min_size == self.max_size {
            self.min_size
        } else {
            self.rng
                .range_inclusive(self.min_size as u64, self.max_size as u64) as u32
        };
        let pkt = AppPacket::new(self.seq, self.flow, size, self.next_arrival);
        self.seq += 1;
        self.next_arrival += self.interval;
        pkt.into()
    }

    fn flow(&self) -> FlowId {
        self.flow
    }
}

/// Poisson source: exponentially distributed inter-arrival times with the
/// given mean, fixed or uniform packet sizes.
#[derive(Clone, Debug)]
pub struct PoissonSource {
    flow: FlowId,
    mean_interval: f64,
    min_size: u32,
    max_size: u32,
    rng: DetRng,
    next_arrival: SimTime,
    seq: u64,
    /// Packets the source may emit in total (`u64::MAX`: no limit).
    limit: u64,
}

impl PoissonSource {
    /// Creates a Poisson source whose first arrival is one random interval
    /// after time zero.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interval` is not positive/finite, `min_size` is zero
    /// or `min_size > max_size`.
    pub fn new(
        flow: FlowId,
        mean_interval: SimDuration,
        min_size: u32,
        max_size: u32,
        mut rng: DetRng,
    ) -> PoissonSource {
        assert!(!mean_interval.is_zero(), "mean interval must be positive");
        assert!(min_size > 0 && min_size <= max_size, "invalid size range");
        let mean = mean_interval.as_secs_f64();
        let first = SimTime::from_secs_f64(rng.exponential(mean));
        PoissonSource {
            flow,
            mean_interval: mean,
            min_size,
            max_size,
            rng,
            next_arrival: first,
            seq: 0,
            limit: u64::MAX,
        }
    }

    /// Delays the process start until `start`: the first arrival lands one
    /// random interval after `start` (builder style). Needed for staggered
    /// per-piconet start times in scatternet scenarios.
    ///
    /// # Panics
    ///
    /// Panics if packets were already drawn (the non-decreasing-arrival
    /// contract would be violated).
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> PoissonSource {
        assert_eq!(
            self.seq, 0,
            "starting_at must be applied before the first packet is drawn"
        );
        // The first interval was already drawn relative to time zero; shift
        // it so the whole process translates by `start`.
        self.next_arrival = start + (self.next_arrival - SimTime::ZERO);
        self
    }

    /// Limits the source to `n` packets in total (builder style).
    #[must_use]
    pub fn with_packet_limit(mut self, n: u64) -> PoissonSource {
        self.limit = n;
        self
    }
}

impl Source for PoissonSource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        if self.seq >= self.limit {
            return None;
        }
        let size = if self.min_size == self.max_size {
            self.min_size
        } else {
            self.rng
                .range_inclusive(self.min_size as u64, self.max_size as u64) as u32
        };
        let pkt = AppPacket::new(self.seq, self.flow, size, self.next_arrival);
        self.seq += 1;
        self.next_arrival += SimDuration::from_secs_f64(self.rng.exponential(self.mean_interval));
        Some(pkt)
    }

    fn flow(&self) -> FlowId {
        self.flow
    }
}

/// On-off (bursty) source: alternates exponentially distributed ON periods,
/// during which it behaves like a CBR source, with exponentially distributed
/// silent OFF periods.
#[derive(Clone, Debug)]
pub struct OnOffSource {
    flow: FlowId,
    interval: SimDuration,
    size: u32,
    mean_on: f64,
    mean_off: f64,
    rng: DetRng,
    seq: u64,
    next_arrival: SimTime,
    on_until: SimTime,
    /// Packets the source may emit in total (`u64::MAX`: no limit).
    limit: u64,
}

impl OnOffSource {
    /// Creates an on-off source that starts a fresh ON period at time zero.
    ///
    /// # Panics
    ///
    /// Panics if any duration is non-positive or `size` is zero.
    pub fn new(
        flow: FlowId,
        interval: SimDuration,
        size: u32,
        mean_on: SimDuration,
        mean_off: SimDuration,
        mut rng: DetRng,
    ) -> OnOffSource {
        assert!(!interval.is_zero() && size > 0, "invalid interval or size");
        assert!(
            !mean_on.is_zero() && !mean_off.is_zero(),
            "ON/OFF periods must be positive"
        );
        let mean_on = mean_on.as_secs_f64();
        let on_until = SimTime::from_secs_f64(rng.exponential(mean_on));
        OnOffSource {
            flow,
            interval,
            size,
            mean_on,
            mean_off: mean_off.as_secs_f64(),
            rng,
            seq: 0,
            next_arrival: SimTime::ZERO,
            on_until,
            limit: u64::MAX,
        }
    }

    /// Delays the process start until `start`: the first ON period begins at
    /// `start` (builder style). Needed for staggered per-piconet start times
    /// in scatternet scenarios.
    ///
    /// # Panics
    ///
    /// Panics if packets were already drawn (the non-decreasing-arrival
    /// contract would be violated).
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> OnOffSource {
        assert_eq!(
            self.seq, 0,
            "starting_at must be applied before the first packet is drawn"
        );
        // Translate the whole ON/OFF process by `start`.
        self.next_arrival = start + (self.next_arrival - SimTime::ZERO);
        self.on_until = start + (self.on_until - SimTime::ZERO);
        self
    }

    /// Limits the source to `n` packets in total (builder style).
    #[must_use]
    pub fn with_packet_limit(mut self, n: u64) -> OnOffSource {
        self.limit = n;
        self
    }
}

impl Source for OnOffSource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        // Skip over OFF periods until the pending arrival lands in an ON one.
        while self.next_arrival > self.on_until {
            let off = self.rng.exponential(self.mean_off);
            let on = self.rng.exponential(self.mean_on);
            let resume = self.on_until + SimDuration::from_secs_f64(off);
            self.next_arrival = resume;
            self.on_until = resume + SimDuration::from_secs_f64(on);
        }
        if self.seq >= self.limit {
            return None;
        }
        let pkt = AppPacket::new(self.seq, self.flow, self.size, self.next_arrival);
        self.seq += 1;
        self.next_arrival += self.interval;
        Some(pkt)
    }

    fn flow(&self) -> FlowId {
        self.flow
    }
}

/// Replays a fixed list of `(arrival, size)` pairs. Useful for regression
/// tests and trace-driven experiments.
#[derive(Clone, Debug)]
pub struct TraceSource {
    flow: FlowId,
    items: std::vec::IntoIter<(SimTime, u32)>,
    seq: u64,
    last: SimTime,
}

impl TraceSource {
    /// Creates a trace source.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not in non-decreasing time order or any size
    /// is zero.
    pub fn new(flow: FlowId, items: Vec<(SimTime, u32)>) -> TraceSource {
        let mut last = SimTime::ZERO;
        for (t, size) in &items {
            assert!(*t >= last, "trace arrivals must be time-ordered");
            assert!(*size > 0, "trace packet sizes must be positive");
            last = *t;
        }
        TraceSource {
            flow,
            items: items.into_iter(),
            seq: 0,
            last: SimTime::ZERO,
        }
    }
}

impl Source for TraceSource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        let (t, size) = self.items.next()?;
        debug_assert!(t >= self.last);
        self.last = t;
        let pkt = AppPacket::new(self.seq, self.flow, size, t);
        self.seq += 1;
        Some(pkt)
    }

    fn flow(&self) -> FlowId {
        self.flow
    }
}

/// A saturating source: a packet of fixed size is always available, arriving
/// back-to-back with the given spacing (default: one per microsecond, i.e.
/// effectively always backlogged). Used to measure capacity.
#[derive(Clone, Debug)]
pub struct GreedySource {
    flow: FlowId,
    size: u32,
    spacing: SimDuration,
    next_arrival: SimTime,
    seq: u64,
    /// Packets the source may emit in total (`u64::MAX`: no limit).
    limit: u64,
}

impl GreedySource {
    /// Creates a greedy source of `size`-byte packets.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(flow: FlowId, size: u32) -> GreedySource {
        assert!(size > 0, "packet size must be positive");
        GreedySource {
            flow,
            size,
            spacing: SimDuration::from_micros(1),
            next_arrival: SimTime::ZERO,
            seq: 0,
            limit: u64::MAX,
        }
    }

    /// Limits the source to `n` packets in total (builder style).
    #[must_use]
    pub fn with_packet_limit(mut self, n: u64) -> GreedySource {
        self.limit = n;
        self
    }
}

impl Source for GreedySource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        if self.seq >= self.limit {
            return None;
        }
        let pkt = AppPacket::new(self.seq, self.flow, self.size, self.next_arrival);
        self.seq += 1;
        self.next_arrival += self.spacing;
        Some(pkt)
    }

    fn flow(&self) -> FlowId {
        self.flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut dyn Source, n: usize) -> Vec<AppPacket> {
        (0..n).map_while(|_| src.next_packet()).collect()
    }

    #[test]
    fn cbr_fixed_interval_and_sizes_in_range() {
        let mut src = CbrSource::new(
            FlowId(1),
            SimDuration::from_millis(20),
            144,
            176,
            DetRng::seed_from_u64(1),
        );
        let pkts = drain(&mut src, 100);
        assert_eq!(pkts.len(), 100);
        for (k, p) in pkts.iter().enumerate() {
            assert_eq!(p.arrival, SimTime::from_millis(20 * k as u64));
            assert!((144..=176).contains(&p.size));
            assert_eq!(p.seq, k as u64);
            assert_eq!(p.flow, FlowId(1));
        }
    }

    #[test]
    fn cbr_start_offset_and_limit() {
        let mut src = CbrSource::new(
            FlowId(2),
            SimDuration::from_millis(10),
            176,
            176,
            DetRng::seed_from_u64(2),
        )
        .starting_at(SimTime::from_millis(5))
        .with_packet_limit(3);
        let pkts = drain(&mut src, 10);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].arrival, SimTime::from_millis(5));
        assert_eq!(pkts[2].arrival, SimTime::from_millis(25));
        assert!(src.next_packet().is_none());
    }

    #[test]
    fn cbr_is_deterministic_per_seed() {
        let mk = || {
            CbrSource::new(
                FlowId(1),
                SimDuration::from_millis(20),
                144,
                176,
                DetRng::seed_from_u64(77),
            )
        };
        let a: Vec<u32> = drain(&mut mk(), 50).iter().map(|p| p.size).collect();
        let b: Vec<u32> = drain(&mut mk(), 50).iter().map(|p| p.size).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_interarrivals_have_right_mean() {
        let mut src = PoissonSource::new(
            FlowId(3),
            SimDuration::from_millis(20),
            176,
            176,
            DetRng::seed_from_u64(3),
        );
        let pkts = drain(&mut src, 20_000);
        let total = pkts.last().unwrap().arrival.as_secs_f64();
        let mean = total / (pkts.len() - 1) as f64;
        assert!((mean - 0.020).abs() < 0.001, "observed mean {mean}");
        // Time-ordered.
        for w in pkts.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn onoff_has_silent_gaps() {
        let mut src = OnOffSource::new(
            FlowId(4),
            SimDuration::from_millis(10),
            100,
            SimDuration::from_millis(200),
            SimDuration::from_millis(400),
            DetRng::seed_from_u64(4),
        );
        let pkts = drain(&mut src, 5000);
        let mut gaps = 0;
        for w in pkts.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "time order");
            if (w[1].arrival - w[0].arrival) > SimDuration::from_millis(50) {
                gaps += 1;
            }
        }
        assert!(gaps > 10, "expected OFF gaps, saw {gaps}");
    }

    #[test]
    fn onoff_rate_is_reduced_by_duty_cycle() {
        let mut src = OnOffSource::new(
            FlowId(4),
            SimDuration::from_millis(10),
            100,
            SimDuration::from_millis(300),
            SimDuration::from_millis(300),
            DetRng::seed_from_u64(5),
        );
        let pkts = drain(&mut src, 10_000);
        let span = pkts.last().unwrap().arrival.as_secs_f64();
        let rate = pkts.len() as f64 / span;
        // Full-on rate would be 100/s; 50% duty cycle should halve it.
        assert!(rate < 70.0 && rate > 30.0, "observed {rate}/s");
    }

    #[test]
    fn trace_replays_exactly() {
        let items = vec![
            (SimTime::from_millis(1), 10),
            (SimTime::from_millis(1), 20),
            (SimTime::from_millis(7), 30),
        ];
        let mut src = TraceSource::new(FlowId(5), items.clone());
        let pkts = drain(&mut src, 10);
        assert_eq!(pkts.len(), 3);
        for (p, (t, s)) in pkts.iter().zip(items) {
            assert_eq!(p.arrival, t);
            assert_eq!(p.size, s);
        }
        assert!(src.next_packet().is_none());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn trace_rejects_unordered() {
        let _ = TraceSource::new(
            FlowId(5),
            vec![(SimTime::from_millis(2), 1), (SimTime::from_millis(1), 1)],
        );
    }

    #[test]
    #[should_panic(expected = "before the first packet")]
    fn cbr_starting_at_after_draw_panics() {
        let mut src = CbrSource::new(
            FlowId(1),
            SimDuration::from_millis(20),
            176,
            176,
            DetRng::seed_from_u64(1),
        );
        let _ = src.next_packet();
        // Rewinding `next_arrival` after packets were drawn would break the
        // non-decreasing-arrival contract.
        let _ = src.starting_at(SimTime::from_millis(5));
    }

    #[test]
    fn poisson_start_offset_and_limit() {
        let mk = || {
            PoissonSource::new(
                FlowId(3),
                SimDuration::from_millis(20),
                176,
                176,
                DetRng::seed_from_u64(9),
            )
        };
        let base: Vec<SimTime> = drain(&mut mk(), 50).iter().map(|p| p.arrival).collect();
        let start = SimTime::from_millis(500);
        let shifted: Vec<SimTime> = drain(&mut mk().starting_at(start), 50)
            .iter()
            .map(|p| p.arrival)
            .collect();
        // The whole process translates by the start offset.
        for (b, s) in base.iter().zip(&shifted) {
            assert_eq!(*s, start + (*b - SimTime::ZERO));
        }
        assert!(shifted[0] >= start);

        let mut limited = mk().with_packet_limit(7);
        assert_eq!(drain(&mut limited, 100).len(), 7);
        assert!(limited.next_packet().is_none());
    }

    #[test]
    fn onoff_start_offset_and_limit() {
        let mk = || {
            OnOffSource::new(
                FlowId(4),
                SimDuration::from_millis(10),
                100,
                SimDuration::from_millis(200),
                SimDuration::from_millis(400),
                DetRng::seed_from_u64(4),
            )
        };
        let base: Vec<SimTime> = drain(&mut mk(), 50).iter().map(|p| p.arrival).collect();
        let start = SimTime::from_secs(3);
        let shifted: Vec<SimTime> = drain(&mut mk().starting_at(start), 50)
            .iter()
            .map(|p| p.arrival)
            .collect();
        for (b, s) in base.iter().zip(&shifted) {
            assert_eq!(*s, start + (*b - SimTime::ZERO));
        }

        let mut limited = mk().with_packet_limit(5);
        assert_eq!(drain(&mut limited, 100).len(), 5);
    }

    #[test]
    fn greedy_limit_makes_it_finite() {
        let mut limited = GreedySource::new(FlowId(6), 176).with_packet_limit(10);
        assert_eq!(drain(&mut limited, 1000).len(), 10);
        assert!(limited.next_packet().is_none());
    }

    #[test]
    fn greedy_is_always_backlogged() {
        let mut src = GreedySource::new(FlowId(6), 176);
        let pkts = drain(&mut src, 1000);
        assert_eq!(pkts.len(), 1000);
        assert!(pkts.last().unwrap().arrival < SimTime::from_millis(1));
    }
}
