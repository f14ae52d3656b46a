//! The paper's simulation scenario (Fig. 4) and its schedule derivation.
//!
//! Seven slaves form a piconet with the master:
//!
//! * **GS flows 1–4** (64 kbps voice-like): packets every 20 ms, sizes
//!   uniform in `[144, 176]` bytes. Flow 1 is S1→M, flows 2/3 are a
//!   piggybacked M→S2 / S2→M pair, flow 4 is S3→M. All four request the
//!   same delay bound.
//! * **BE flows 5–12** (fixed 176-byte packets): a downlink/uplink pair per
//!   slave at 41.6 kbps (S4), 47.2 kbps (S5), 52.8 kbps (S6) and
//!   58.4 kbps (S7) per direction.
//! * Allowed baseband types DH1 and DH3, max-first segmentation.
//!
//! The schedule is derived the way a Guaranteed Service receiver would:
//! entities take the paper's priority order (S1, S2, S3); each entity's
//! `y` follows from the entities above it (Fig. 2); each flow then requests
//! `R = (M + C) / (Dreq - D)` (Eq. 1 inverted), clamped to
//! `[r, eta_min / y]` (Eq. 9). Below `Dreq = 36.25 ms` the lower-priority
//! entities saturate — their achievable bound exceeds the request, exactly
//! why the paper's Fig. 5 x-axis extends below the strictly-guaranteed
//! region.

use crate::admission::{AdmissionOutcome, EntityPlan, FlowGrant, GsRequest};
use crate::efficiency::min_poll_efficiency;
use crate::gs_poller::GsPoller;
use crate::timing::{piconet_u, poll_interval};
use crate::ymax::{y_fixpoint, HigherEntity};
use btgs_baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs_des::{DetRng, SimDuration, SimTime};
use btgs_gs::{delay_bound, required_rate, ErrorTerms, TokenBucketSpec};
use btgs_piconet::{
    EventQueueBackend, FlowSpec, PiconetConfig, PiconetError, PiconetSim, Poller, RunReport,
    SarPolicy,
};
use btgs_pollers::PfpBePoller;
use btgs_traffic::{CbrSource, FlowId, OnOffSource, PoissonSource, Source};

/// Which poller drives a scenario run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollerKind {
    /// The paper's §4 configuration: variable-interval GS polling with
    /// PFP-BE serving the leftover slots.
    PfpGs,
    /// The fixed-interval poller of §3.1 (with PFP-BE for best effort).
    FixedGs,
    /// The variable-interval poller with a chosen improvement subset
    /// (ablation); PFP-BE serves best effort.
    Custom(crate::plan::Improvements),
}

/// How the best-effort flows of a scenario generate traffic.
///
/// The GS flows are always the paper's CBR voice model; the mix only
/// varies the *best-effort* load, the saturation-study axis the ROADMAP
/// asks for. Every variant targets the same mean rate (the Fig. 4 rates
/// times the scenario's `be_load_scale`), so the offered load is
/// comparable across mixes — only its burstiness differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BeSourceMix {
    /// Constant bit rate at the target rate (the paper's workload).
    #[default]
    Cbr,
    /// Poisson arrivals with the target mean rate.
    Poisson,
    /// Bursty on-off: exponential ON/OFF periods (mean
    /// [`BE_ONOFF_MEAN`] each), CBR at twice the target rate while ON so
    /// the long-run mean rate matches.
    OnOff,
}

impl BeSourceMix {
    /// A short stable label for tables, digests and the wire format.
    pub fn label(&self) -> &'static str {
        match self {
            BeSourceMix::Cbr => "cbr",
            BeSourceMix::Poisson => "poisson",
            BeSourceMix::OnOff => "onoff",
        }
    }

    /// The inverse of [`BeSourceMix::label`].
    pub fn from_label(label: &str) -> Option<BeSourceMix> {
        match label {
            "cbr" => Some(BeSourceMix::Cbr),
            "poisson" => Some(BeSourceMix::Poisson),
            "onoff" => Some(BeSourceMix::OnOff),
            _ => None,
        }
    }
}

/// Mean ON and OFF period of the [`BeSourceMix::OnOff`] best-effort
/// sources.
pub const BE_ONOFF_MEAN: SimDuration = SimDuration::from_millis(200);

/// Parameters of the paper scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperScenarioParams {
    /// The delay bound every GS flow requests.
    pub delay_requirement: SimDuration,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Warm-up excluded from measurements.
    pub warmup: SimDuration,
    /// Include the eight BE flows (disable for GS-only ablations).
    pub include_be: bool,
    /// Multiplier on every BE flow's Fig. 4 rate (1.0 = the paper's
    /// load); the saturation-study axis.
    pub be_load_scale: f64,
    /// How the BE flows generate traffic.
    pub be_source_mix: BeSourceMix,
    /// Arrival batching factor handed to the engine (see
    /// [`btgs_piconet::PiconetConfig::arrival_batch`]); 1 = off.
    pub arrival_batch: u32,
}

impl Default for PaperScenarioParams {
    fn default() -> Self {
        PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(40),
            seed: 1,
            warmup: SimDuration::from_secs(2),
            include_be: true,
            be_load_scale: 1.0,
            be_source_mix: BeSourceMix::Cbr,
            arrival_batch: 1,
        }
    }
}

/// The derived plan of one GS flow.
#[derive(Clone, Debug)]
pub struct GsFlowPlan {
    /// The reservation that was (effectively) requested.
    pub request: GsRequest,
    /// The entity's maximum poll delay `y` (also the exported `D`).
    pub y: SimDuration,
    /// The delay bound achievable at the granted rate.
    pub achievable_bound: SimDuration,
    /// `true` if the achievable bound meets the requested one — i.e. the
    /// flow is strictly guaranteed its request.
    pub guaranteed: bool,
}

/// BE per-direction rates of Fig. 4, in kbit/s, for slaves S4..S7.
pub const BE_RATES_KBPS: [f64; 4] = [41.6, 47.2, 52.8, 58.4];

/// GS packet size range of the scenario.
pub const GS_PACKET_RANGE: (u32, u32) = (144, 176);

/// GS packet generation interval.
pub const GS_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Fixed BE packet size.
pub const BE_PACKET_SIZE: u32 = 176;

/// A fully derived instance of the paper's Fig. 4 scenario.
#[derive(Clone, Debug)]
pub struct PaperScenario {
    /// The parameters it was built from.
    pub params: PaperScenarioParams,
    /// The piconet configuration (flows, packet types, SAR, warm-up).
    pub config: PiconetConfig,
    /// The GS schedule (entities with priorities, x, y).
    pub outcome: AdmissionOutcome,
    /// Per-GS-flow plans, in flow order 1..4.
    pub gs_plans: Vec<GsFlowPlan>,
}

fn slave(n: u8) -> AmAddr {
    AmAddr::new(n).expect("scenario slave addresses are 1..=7")
}

/// Derives the Guaranteed Service schedule of one piconet the way a GS
/// receiver would (see the module docs): entities take the given priority
/// order; each entity's `y` follows from the entities above it (Fig. 2);
/// each flow requests `R = (M + C) / (Dreq - D)` (Eq. 1 inverted), clamped
/// to `[r, eta_min / y]` (Eq. 9).
///
/// Shared by the single-piconet Fig. 4 scenario and the scatternet
/// scenario, whose piconets append bridge-hop entities after the paper's
/// three — higher-priority plans are unaffected by the extra entities, so
/// the paper flows keep their exact single-piconet schedule.
pub(crate) fn derive_gs_schedule(
    entity_defs: &[(AmAddr, &[(u32, Direction)])],
    delay_requirement: SimDuration,
    allowed: &[PacketType],
) -> (AdmissionOutcome, Vec<GsFlowPlan>) {
    let sar = SarPolicy::MaxFirst;
    let tspec = paper_tspec();
    let eta = min_poll_efficiency(&sar, tspec.min_policed_unit(), tspec.max_packet(), allowed);
    let u = piconet_u(allowed);

    let mut higher: Vec<HigherEntity> = Vec::new();
    let mut entities = Vec::new();
    let mut gs_plans: Vec<GsFlowPlan> = Vec::new();
    let mut grants = Vec::new();
    let x_at_token_rate = poll_interval(eta, tspec.token_rate());
    for (idx, (sl, flow_defs)) in entity_defs.iter().enumerate() {
        // The achievable y at this priority position, allowing for the
        // loosest possible own interval (R = r). If even that diverges,
        // fall back to a generous cap for reporting.
        let y = y_fixpoint(u, &higher, x_at_token_rate)
            .or_else(|| y_fixpoint(u, &higher, SimDuration::from_millis(200)))
            .unwrap_or(SimDuration::from_millis(200));
        let terms = ErrorTerms::new(eta, y);
        // Receiver-side rate computation, clamped to Eq. 9's maximum.
        let r_required = required_rate(&tspec, delay_requirement, terms).unwrap_or(f64::INFINITY);
        let r_max = eta / y.as_secs_f64();
        let rate = r_required.min(r_max).max(tspec.token_rate());
        let x = poll_interval(eta, rate);
        let achievable =
            delay_bound(&tspec, rate, terms).expect("rate is clamped to at least the token rate");
        let guaranteed = x >= y && achievable <= delay_requirement;

        let accounting = flow_defs
            .iter()
            .find(|(_, d)| d.is_uplink())
            .unwrap_or(&flow_defs[0]);
        for (id, dir) in flow_defs.iter() {
            let request = GsRequest::new(FlowId(*id), *sl, *dir, tspec, rate);
            grants.push(FlowGrant {
                id: FlowId(*id),
                entity: idx,
                eta_min: eta,
                terms,
                bound: achievable,
            });
            gs_plans.push(GsFlowPlan {
                request,
                y,
                achievable_bound: achievable,
                guaranteed,
            });
        }
        entities.push(EntityPlan {
            slave: *sl,
            priority: idx as u32 + 1,
            x,
            y,
            s: u,
            accounting_flow: FlowId(accounting.0),
            accounting_direction: accounting.1,
            rate,
            eta_min: eta,
            flow_ids: flow_defs.iter().map(|(id, _)| FlowId(*id)).collect(),
            can_skip: flow_defs.iter().all(|(_, d)| d.is_downlink()),
            has_downlink: flow_defs.iter().any(|(_, d)| d.is_downlink()),
            has_uplink: flow_defs.iter().any(|(_, d)| d.is_uplink()),
        });
        higher.push(HigherEntity { x, s: u });
    }
    gs_plans.sort_by_key(|p| p.request.id);
    let outcome = AdmissionOutcome {
        entities,
        flows: grants,
    };
    (outcome, gs_plans)
}

/// Builds one best-effort traffic source, shared by the single-piconet
/// and scatternet scenarios.
///
/// `stream` is the flow's dedicated RNG stream; `start` is the earliest
/// process start (zero for the paper scenario, the piconet stagger offset
/// in scatternets). With `scale == 1.0` and [`BeSourceMix::Cbr`] the draw
/// sequence and arrivals are bit-identical to the pre-axis scenarios.
///
/// # Panics
///
/// Panics if `slave` is not one of the BE slaves (S4..S7) or the scaled
/// rate is not positive/finite — [`ScenarioGrid`](crate::ScenarioGrid)
/// validation rejects such grids before any cell runs.
pub(crate) fn be_source(
    id: FlowId,
    slave: AmAddr,
    scale: f64,
    mix: BeSourceMix,
    start: SimTime,
    mut stream: DetRng,
) -> Box<dyn Source> {
    let k = (slave.get() - 4) as usize;
    let rate_bps = BE_RATES_KBPS[k] * 1000.0 * scale;
    assert!(
        rate_bps.is_finite() && rate_bps > 0.0,
        "BE load scale {scale} yields an invalid rate"
    );
    let interval = SimDuration::from_secs_f64(BE_PACKET_SIZE as f64 * 8.0 / rate_bps);
    match mix {
        BeSourceMix::Cbr => {
            let offset = start + SimDuration::from_nanos(stream.below(interval.as_nanos()));
            Box::new(
                CbrSource::new(id, interval, BE_PACKET_SIZE, BE_PACKET_SIZE, stream)
                    .starting_at(offset),
            )
        }
        BeSourceMix::Poisson => {
            // The first arrival is already one random interval after the
            // start; no extra phase stagger needed.
            Box::new(
                PoissonSource::new(id, interval, BE_PACKET_SIZE, BE_PACKET_SIZE, stream)
                    .starting_at(start),
            )
        }
        BeSourceMix::OnOff => {
            // Same phase stagger as CBR; twice the rate while ON and a 50%
            // duty cycle (equal ON/OFF means) preserve the mean rate.
            let offset = start + SimDuration::from_nanos(stream.below(interval.as_nanos()));
            Box::new(
                OnOffSource::new(
                    id,
                    interval / 2,
                    BE_PACKET_SIZE,
                    BE_ONOFF_MEAN,
                    BE_ONOFF_MEAN,
                    stream,
                )
                .starting_at(offset),
            )
        }
    }
}

/// The paper's TSpec (Eqs. 11–12): `p = r = 8800 B/s`, `b = M = 176`,
/// `m = 144`.
pub fn paper_tspec() -> TokenBucketSpec {
    TokenBucketSpec::for_cbr(
        GS_INTERVAL.as_secs_f64(),
        GS_PACKET_RANGE.0,
        GS_PACKET_RANGE.1,
    )
    .expect("the paper's TSpec is valid")
}

impl PaperScenario {
    /// Derives the scenario for the given parameters.
    pub fn build(params: PaperScenarioParams) -> PaperScenario {
        let allowed = vec![PacketType::Dh1, PacketType::Dh3];

        // Entities in the paper's priority order. Each entry: (slave,
        // flows: [(id, direction)]).
        let entity_defs: [(AmAddr, &[(u32, Direction)]); 3] = [
            (slave(1), &[(1, Direction::SlaveToMaster)]),
            (
                slave(2),
                &[(2, Direction::MasterToSlave), (3, Direction::SlaveToMaster)],
            ),
            (slave(3), &[(4, Direction::SlaveToMaster)]),
        ];
        let (outcome, gs_plans) =
            derive_gs_schedule(&entity_defs, params.delay_requirement, &allowed);

        // Piconet configuration.
        let mut config = PiconetConfig::new(allowed)
            .with_warmup(params.warmup)
            .with_arrival_batch(params.arrival_batch);
        for plan in &gs_plans {
            config = config.with_flow(FlowSpec::new(
                plan.request.id,
                plan.request.slave,
                plan.request.direction,
                LogicalChannel::GuaranteedService,
            ));
        }
        if params.include_be {
            for (k, _) in BE_RATES_KBPS.iter().enumerate() {
                let sl = slave(4 + k as u8);
                let down_id = FlowId(5 + 2 * k as u32);
                let up_id = FlowId(6 + 2 * k as u32);
                config = config
                    .with_flow(FlowSpec::new(
                        down_id,
                        sl,
                        Direction::MasterToSlave,
                        LogicalChannel::BestEffort,
                    ))
                    .with_flow(FlowSpec::new(
                        up_id,
                        sl,
                        Direction::SlaveToMaster,
                        LogicalChannel::BestEffort,
                    ));
            }
        }

        PaperScenario {
            params,
            config,
            outcome,
            gs_plans,
        }
    }

    /// The traffic sources of every configured flow, seeded from
    /// `params.seed`. CBR phases are staggered pseudo-randomly within one
    /// interval so flows do not arrive in lockstep.
    pub fn sources(&self) -> Vec<Box<dyn Source>> {
        let root = DetRng::seed_from_u64(self.params.seed);
        let mut out: Vec<Box<dyn Source>> = Vec::new();
        for f in &self.config.flows {
            let mut stream = root.stream(u64::from(f.id.0));
            if f.channel.is_gs() {
                let offset = SimTime::from_nanos(stream.below(GS_INTERVAL.as_nanos()));
                out.push(Box::new(
                    CbrSource::new(
                        f.id,
                        GS_INTERVAL,
                        GS_PACKET_RANGE.0,
                        GS_PACKET_RANGE.1,
                        stream,
                    )
                    .starting_at(offset),
                ));
            } else {
                out.push(be_source(
                    f.id,
                    f.slave,
                    self.params.be_load_scale,
                    self.params.be_source_mix,
                    SimTime::ZERO,
                    stream,
                ));
            }
        }
        out
    }

    /// Builds the poller of the given kind for this scenario's schedule.
    pub fn poller(&self, kind: PollerKind) -> GsPoller {
        let be: Box<dyn Poller> = Box::new(PfpBePoller::new(SimDuration::from_millis(25)));
        match kind {
            PollerKind::PfpGs => GsPoller::pfp(&self.outcome, SimTime::ZERO, be),
            PollerKind::FixedGs => {
                GsPoller::fixed(&self.outcome, SimTime::ZERO).with_best_effort(be)
            }
            PollerKind::Custom(improvements) => {
                GsPoller::with_improvements(&self.outcome, SimTime::ZERO, improvements)
                    .with_best_effort(be)
            }
        }
    }

    /// Runs the scenario to `horizon` with the given poller kind over an
    /// ideal radio channel.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (none are expected for a
    /// well-formed scenario).
    pub fn run(&self, kind: PollerKind, horizon: SimTime) -> Result<RunReport, PiconetError> {
        self.run_with_backend(kind, horizon, EventQueueBackend::Sorted)
    }

    /// Runs the scenario on an explicit event-queue backend.
    ///
    /// The differential tests use this to demand byte-identical reports
    /// from the sorted buffer and the binary-heap reference.
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors (none are expected for a
    /// well-formed scenario).
    pub fn run_with_backend(
        &self,
        kind: PollerKind,
        horizon: SimTime,
        backend: EventQueueBackend,
    ) -> Result<RunReport, PiconetError> {
        let poller = self.poller(kind);
        let mut sim = PiconetSim::with_backend(
            self.config.clone(),
            Box::new(poller),
            Box::new(IdealChannel),
            backend,
        )?;
        for src in self.sources() {
            sim.add_source(src)?;
        }
        sim.run(horizon)
    }

    /// The per-slave legend of the paper's Fig. 5.
    pub fn slave_legend(s: AmAddr) -> &'static str {
        match s.get() {
            1 => "S1 (GS) flow 1",
            2 => "S2 (GS) flow 2+3",
            3 => "S3 (GS) flow 4",
            4 => "S4 (BE) flow 5+6",
            5 => "S5 (BE) flow 7+8",
            6 => "S6 (BE) flow 9+10",
            7 => "S7 (BE) flow 11+12",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_at_loose_requirement() {
        // At Dreq = 40 ms (inside the guaranteed region) the schedule shows
        // the paper's §4.1 values.
        let sc = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(40),
            ..Default::default()
        });
        assert_eq!(sc.outcome.entities.len(), 3);
        let ys: Vec<u64> = sc
            .outcome
            .entities
            .iter()
            .map(|e| e.y.as_micros())
            .collect();
        assert_eq!(ys, vec![3_750, 7_500, 11_250]);
        for p in &sc.gs_plans {
            assert!(p.guaranteed, "{:?}", p.request.id);
            assert!(p.achievable_bound <= SimDuration::from_millis(40));
        }
        // 4 GS + 8 BE flows.
        assert_eq!(sc.config.flows.len(), 12);
        assert!(sc.config.validate().is_ok());
    }

    #[test]
    fn dmin_boundary_is_36_25_ms() {
        let at_bound = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_micros(36_250),
            ..Default::default()
        });
        assert!(at_bound.gs_plans.iter().all(|p| p.guaranteed));
        // Flow 4 runs exactly at the paper's R_max = 12.8 kB/s.
        let f4 = &at_bound.gs_plans[3];
        assert!(
            (f4.request.rate - 12_800.0).abs() < 1e-6,
            "{}",
            f4.request.rate
        );

        let below = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_micros(36_000),
            ..Default::default()
        });
        assert!(
            !below.gs_plans[3].guaranteed,
            "flow 4 saturates below 36.25 ms"
        );
        assert!(
            below.gs_plans[0].guaranteed,
            "flow 1 is fine far below that"
        );
    }

    #[test]
    fn dmax_at_token_rate_is_47_6_ms() {
        // A very loose requirement: every flow requests just the token rate
        // and the achievable bound equals the paper's 47.6 ms.
        let sc = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(100),
            ..Default::default()
        });
        let f4 = &sc.gs_plans[3];
        assert_eq!(f4.request.rate, 8800.0);
        assert_eq!(f4.achievable_bound.as_micros(), 47_613);
    }

    #[test]
    fn rates_rise_as_requirement_tightens_in_guaranteed_region() {
        // Within the strictly guaranteed region (>= 36.25 ms) every flow's
        // granted rate rises as the requirement tightens.
        let loose = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(46),
            ..Default::default()
        });
        let tight = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(37),
            ..Default::default()
        });
        for (l, t) in loose.gs_plans.iter().zip(&tight.gs_plans) {
            assert!(
                t.request.rate >= l.request.rate,
                "{:?}: {} < {}",
                l.request.id,
                t.request.rate,
                l.request.rate
            );
        }
        // Below the region the saturated flow falls back to its token rate
        // (minimal resource commitment once the guarantee is unattainable).
        let saturated = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(30),
            ..Default::default()
        });
        assert_eq!(saturated.gs_plans[3].request.rate, 8800.0);
        assert!(!saturated.gs_plans[3].guaranteed);
        // Higher-priority flows keep chasing the tighter bound.
        assert!(saturated.gs_plans[0].request.rate > tight.gs_plans[0].request.rate);
    }

    #[test]
    fn sources_are_deterministic_and_cover_flows() {
        let sc = PaperScenario::build(PaperScenarioParams::default());
        let a: Vec<FlowId> = sc.sources().iter().map(|s| s.flow()).collect();
        let b: Vec<FlowId> = sc.sources().iter().map(|s| s.flow()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        // One source per configured flow.
        for f in &sc.config.flows {
            assert!(a.contains(&f.id), "{} lacks a source", f.id);
        }
    }

    #[test]
    fn be_intervals_match_rates() {
        // 41.6 kbps with 176-byte packets: one packet every 33.846 ms.
        let interval = SimDuration::from_secs_f64(176.0 * 8.0 / 41_600.0);
        assert_eq!(interval.as_micros(), 33_846);
    }

    #[test]
    fn legend_matches_fig4() {
        assert_eq!(PaperScenario::slave_legend(slave(2)), "S2 (GS) flow 2+3");
        assert_eq!(PaperScenario::slave_legend(slave(7)), "S7 (BE) flow 11+12");
    }
}
