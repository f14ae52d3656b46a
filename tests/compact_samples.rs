//! Compact delay samples: `DelayStats` stores 4-byte samples and widens
//! to 8 bytes at the first sample above `u32::MAX` ns, and nothing of
//! that shows.
//!
//! The property test drives random streams through `DelayStats` and
//! through a mirror of the plain `Vec<u64>` layout (`mirror::DelayStats`,
//! the collector's three fields under a derived `Debug`). Every query
//! must answer alike, and after every step both `Debug` texts must be the
//! same, since report digests hash them. The Fig. 4 run pins a report
//! whose saturated best-effort flows pass `u32::MAX` ns.

use btgs::core::{PaperScenario, PaperScenarioParams, PollerKind};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::grid::wire::fnv1a64;
use btgs::metrics::DelayStats;
use btgs::traffic::FlowId;

/// The collector's fields as they were when every sample took 8 bytes,
/// with the lazy in-place sort the order-statistic queries share.
mod mirror {
    use std::cell::{Cell, RefCell};

    #[derive(Debug, Default)]
    pub struct DelayStats {
        samples_ns: RefCell<Vec<u64>>,
        sorted: Cell<bool>,
        sum_ns: u128,
    }

    impl DelayStats {
        pub fn record(&mut self, ns: u64) {
            self.samples_ns.get_mut().push(ns);
            self.sum_ns += u128::from(ns);
            self.sorted.set(false);
        }

        pub fn merge(&mut self, other: &DelayStats) {
            self.samples_ns
                .get_mut()
                .extend_from_slice(&other.samples_ns.borrow());
            self.sum_ns += other.sum_ns;
            self.sorted.set(false);
        }

        fn ensure_sorted(&self) {
            if !self.sorted.get() {
                self.samples_ns.borrow_mut().sort();
                self.sorted.set(true);
            }
        }

        /// The samples in storage order.
        pub fn samples(&self) -> Vec<u64> {
            self.samples_ns.borrow().clone()
        }

        /// The samples ascending, sorting the buffer in place.
        pub fn ascending(&self) -> Vec<u64> {
            self.ensure_sorted();
            self.samples()
        }

        pub fn sum(&self) -> u128 {
            self.sum_ns
        }

        pub fn quantile(&self, q: f64) -> Option<u64> {
            let n = self.samples_ns.borrow().len();
            if n == 0 {
                return None;
            }
            self.ensure_sorted();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            Some(self.samples_ns.borrow()[rank - 1])
        }

        pub fn violations_of(&self, bound: u64) -> usize {
            self.ensure_sorted();
            self.samples_ns
                .borrow()
                .iter()
                .filter(|&&ns| ns > bound)
                .count()
        }
    }
}

const NARROW_MAX: u64 = u32::MAX as u64;

/// A sample that fits in 4 bytes: mostly a delay of up to 200 ms, else
/// any `u32`, or `u32::MAX` itself.
fn narrow_sample(rng: &mut DetRng) -> u64 {
    match rng.below(8) {
        0 => NARROW_MAX,
        1 => rng.below(NARROW_MAX + 1),
        _ => rng.below(200_000_000),
    }
}

/// A sample that does not fit in 4 bytes: `u32::MAX + 1`, 2⁶³, or any
/// value between them.
fn wide_sample(rng: &mut DetRng) -> u64 {
    match rng.below(3) {
        0 => NARROW_MAX + 1,
        1 => 1 << 63,
        _ => rng.range_inclusive(NARROW_MAX + 1, 1 << 63),
    }
}

/// One collector of a stream, its mirror, and the step at which it
/// records its first wide sample.
struct Side {
    stats: DelayStats,
    mirror: mirror::DelayStats,
    cross_at: usize,
}

impl Side {
    fn new(rng: &mut DetRng, steps: usize) -> Side {
        Side {
            stats: DelayStats::new(),
            mirror: mirror::DelayStats::default(),
            cross_at: rng.below(steps as u64) as usize,
        }
    }

    fn record(&mut self, ns: u64) {
        self.stats.record(SimDuration::from_nanos(ns));
        self.mirror.record(ns);
    }

    fn assert_same_text(&self, context: &str) {
        assert_eq!(
            format!("{:?}", self.stats),
            format!("{:?}", self.mirror),
            "{context}"
        );
        assert_eq!(
            format!("{:#?}", self.stats),
            format!("{:#?}", self.mirror),
            "{context}"
        );
    }

    fn assert_same_answers(&self, context: &str) {
        let (stats, mirror) = (&self.stats, &self.mirror);
        let samples = mirror.samples();
        let ns = |d: Option<SimDuration>| d.map(SimDuration::as_nanos);
        assert_eq!(stats.count(), samples.len(), "{context}");
        assert_eq!(stats.is_empty(), samples.is_empty(), "{context}");
        assert_eq!(stats.sum_nanos(), mirror.sum(), "{context}");
        assert_eq!(ns(stats.min()), samples.iter().copied().min(), "{context}");
        assert_eq!(ns(stats.max()), samples.iter().copied().max(), "{context}");
        let mean = (!samples.is_empty()).then(|| (mirror.sum() / samples.len() as u128) as u64);
        assert_eq!(ns(stats.mean()), mean, "{context}");
    }
}

#[test]
fn compact_samples_answer_and_print_like_plain_u64_samples() {
    let mut rng = DetRng::seed_from_u64(0x05A3_F1E5);
    let mut crossed = 0;
    for stream in 0..2_048 {
        let steps = rng.range_inclusive(8, 40) as usize;
        let mut sides = [Side::new(&mut rng, steps), Side::new(&mut rng, steps)];
        for step in 0..steps {
            let context = format!("stream {stream}, step {step}");
            let which = rng.below(2) as usize;
            // Each side records its first wide sample at its crossing
            // step; afterwards it may record either kind.
            for side in &mut sides {
                if side.cross_at == step {
                    let ns = wide_sample(&mut rng);
                    side.record(ns);
                }
            }
            let side = &mut sides[which];
            match rng.below(10) {
                0..=2 => {
                    let wide_ok = step > side.cross_at && rng.chance(0.3);
                    let ns = if wide_ok {
                        wide_sample(&mut rng)
                    } else {
                        narrow_sample(&mut rng)
                    };
                    side.record(ns);
                }
                3 => side.stats.reserve(rng.below(64) as usize),
                4 => {
                    let q = match rng.below(4) {
                        0 => 0.0,
                        1 => 1.0,
                        _ => rng.next_f64(),
                    };
                    assert_eq!(
                        side.stats.quantile(q).map(SimDuration::as_nanos),
                        side.mirror.quantile(q),
                        "{context}: quantile {q}"
                    );
                }
                5 => {
                    let bound = match rng.below(4) {
                        0 => NARROW_MAX,
                        1 => NARROW_MAX + 1,
                        2 => narrow_sample(&mut rng),
                        _ => wide_sample(&mut rng),
                    };
                    assert_eq!(
                        side.stats.violations_of(SimDuration::from_nanos(bound)),
                        side.mirror.violations_of(bound),
                        "{context}: violations of {bound}"
                    );
                }
                6 => {
                    let mut seen = Vec::new();
                    side.stats.for_each_nanos(|ns| seen.push(ns));
                    assert_eq!(seen, side.mirror.samples(), "{context}: storage order");
                }
                7 => {
                    let mut seen = Vec::new();
                    side.stats.for_each_nanos_ascending(|ns| seen.push(ns));
                    assert_eq!(seen, side.mirror.ascending(), "{context}: ascending");
                }
                _ => {
                    // Merge one side into the other: narrow into wide, wide
                    // into narrow, or alike, as the crossings fall.
                    let [a, b] = &mut sides;
                    let (into, from) = if which == 0 { (a, &*b) } else { (b, &*a) };
                    into.stats.merge(&from.stats);
                    into.mirror.merge(&from.mirror);
                }
            }
            for side in &sides {
                side.assert_same_answers(&context);
                side.assert_same_text(&context);
            }
        }
        let wide = |s: &Side| s.mirror.samples().iter().any(|&ns| ns > NARROW_MAX);
        crossed += usize::from(sides.iter().all(wide));
    }
    assert_eq!(
        crossed, 2_048,
        "every stream crosses u32::MAX on both sides"
    );
}

#[test]
fn fig4_report_with_widened_flows_keeps_its_bytes() {
    let scenario = PaperScenario::build(PaperScenarioParams::default());
    let report = scenario
        .run(PollerKind::PfpGs, SimTime::from_secs(40))
        .unwrap();
    assert_eq!(report.events_processed, 32_795);
    let over = SimDuration::from_nanos(NARROW_MAX);
    for flow in [11, 12] {
        assert_eq!(
            report.per_flow[&FlowId(flow)].delay.violations_of(over),
            494,
            "flow {flow}: samples above u32::MAX ns"
        );
    }
    // The parent layout's digests: 8-byte samples throughout.
    assert_eq!(
        fnv1a64(format!("{report:?}").as_bytes()),
        0x7c4e_76a0_f7d0_4585
    );
    assert_eq!(
        fnv1a64(format!("{report:#?}").as_bytes()),
        0x4477_c3c2_0ebb_158f
    );
}
