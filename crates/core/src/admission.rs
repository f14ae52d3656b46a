//! Admission control with piggybacking (the paper's Fig. 3) and priority
//! assignment.
//!
//! Each GS flow is granted a fluid rate `R_i`, polled every
//! `x_i = eta_min_i / R_i`, and assigned a priority; lower-priority flows
//! wait for higher ones, which Fig. 2 turns into the per-flow `y_i`. A flow
//! set is admissible iff a priority order exists in which every flow
//! satisfies `y_i <= x_i` (Eq. 9).
//!
//! Two refinements from the paper:
//!
//! * **Piggybacking** (Fig. 3 step d): two oppositely-directed GS flows on
//!   the same slave share polls — every poll of the slave can carry GS data
//!   both ways — so only the more demanding request (smaller `x`) is
//!   accounted, and both flows share one priority.
//! * **Priority reassignment** (Fig. 3 step e): priorities are not
//!   first-come-first-served; the routine searches for *some* feasible
//!   assignment, trying candidates for each priority level from the lowest
//!   level up — which is exactly Audsley's optimal priority assignment, so
//!   a flow set is rejected only if **no** priority order works.

use crate::efficiency::min_poll_efficiency;
use crate::timing::{piconet_u, poll_interval, segment_exchange_time, SegmentTimeModel};
use crate::ymax::{y_max, HigherEntity};
use btgs_baseband::{AmAddr, Direction, PacketType};
use btgs_des::SimDuration;
use btgs_gs::{delay_bound, ErrorTerms, TokenBucketSpec};
use btgs_traffic::FlowId;
use core::fmt;

/// A Guaranteed Service reservation request for one flow.
#[derive(Clone, Debug, PartialEq)]
pub struct GsRequest {
    /// Flow identifier (unique among GS flows).
    pub id: FlowId,
    /// The slave the flow terminates at.
    pub slave: AmAddr,
    /// Transfer direction.
    pub direction: Direction,
    /// The flow's token-bucket TSpec.
    pub tspec: TokenBucketSpec,
    /// The requested fluid-model service rate `R` in bytes/second
    /// (must be at least the token rate).
    pub rate: f64,
}

impl GsRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is below the TSpec's token rate or not finite.
    pub fn new(
        id: FlowId,
        slave: AmAddr,
        direction: Direction,
        tspec: TokenBucketSpec,
        rate: f64,
    ) -> GsRequest {
        assert!(
            rate.is_finite() && rate >= tspec.token_rate(),
            "requested rate {rate} must be finite and >= token rate {}",
            tspec.token_rate()
        );
        GsRequest {
            id,
            slave,
            direction,
            tspec,
            rate,
        }
    }
}

/// Parameters of the admission computation.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Baseband packet types GS flows may use.
    pub allowed_types: Vec<PacketType>,
    /// How per-entity segment times are accounted (ablation: the paper uses
    /// [`SegmentTimeModel::Conservative`]).
    pub segment_time: SegmentTimeModel,
    /// Whether oppositely-directed flows on one slave share polls
    /// (the paper's Fig. 3 improvement; `false` reproduces the naive
    /// routine for the ablation bench).
    pub piggyback: bool,
}

impl AdmissionConfig {
    /// The paper's evaluation configuration: DH1+DH3, conservative segment
    /// times, piggybacking on.
    pub fn paper() -> AdmissionConfig {
        AdmissionConfig {
            allowed_types: vec![PacketType::Dh1, PacketType::Dh3],
            segment_time: SegmentTimeModel::Conservative,
            piggyback: true,
        }
    }

    /// The piconet-wide maximum exchange time `U` implied by the allowed
    /// packet types.
    pub fn u(&self) -> SimDuration {
        piconet_u(&self.allowed_types)
    }
}

/// One polled entity of the admitted schedule: a slave together with the one
/// or two (piggybacked) GS flows its polls serve.
#[derive(Clone, Debug, PartialEq)]
pub struct EntityPlan {
    /// The polled slave.
    pub slave: AmAddr,
    /// Priority: 1 is highest; planned polls execute in priority order.
    pub priority: u32,
    /// Poll interval `x` (of the accounting flow).
    pub x: SimDuration,
    /// Maximum poll delay `y` at this priority.
    pub y: SimDuration,
    /// Segment-exchange time `s` charged to lower priorities.
    pub s: SimDuration,
    /// The flow whose request drives the poll plan (smallest `x`).
    pub accounting_flow: FlowId,
    /// Direction of the accounting flow.
    pub accounting_direction: Direction,
    /// Granted rate of the accounting flow (bytes/s).
    pub rate: f64,
    /// Minimum poll efficiency of the accounting flow (bytes/poll).
    pub eta_min: f64,
    /// All flows served by this entity's polls (1 or 2).
    pub flow_ids: Vec<FlowId>,
    /// `true` if the entity's polls can be skipped when the master knows
    /// there is no data — only possible when every flow of the entity is
    /// master-to-slave (the paper's improvement (c)).
    pub can_skip: bool,
    /// `true` if any flow of the entity is master-to-slave.
    pub has_downlink: bool,
    /// `true` if any flow of the entity is slave-to-master.
    pub has_uplink: bool,
}

/// The per-flow grant of an admitted schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowGrant {
    /// The flow.
    pub id: FlowId,
    /// Index of the entity serving it (into [`AdmissionOutcome::entities`]).
    pub entity: usize,
    /// The flow's own minimum poll efficiency (its exported `C` term).
    pub eta_min: f64,
    /// The exported error terms: `C = eta_min`, `D = y` of the entity.
    pub terms: ErrorTerms,
    /// The end-to-end delay bound this grant guarantees (Eq. 1 with the
    /// granted rate and the exported terms).
    pub bound: SimDuration,
}

/// A feasible schedule for a set of GS requests.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AdmissionOutcome {
    /// Polled entities, sorted by priority (highest first).
    pub entities: Vec<EntityPlan>,
    /// Per-flow grants, in request order.
    pub flows: Vec<FlowGrant>,
}

impl AdmissionOutcome {
    /// The grant of a flow, if present.
    pub fn grant(&self, id: FlowId) -> Option<&FlowGrant> {
        self.flows.iter().find(|g| g.id == id)
    }

    /// The entity serving a flow, if present.
    pub fn entity_of(&self, id: FlowId) -> Option<&EntityPlan> {
        self.grant(id).map(|g| &self.entities[g.entity])
    }
}

/// Why a request set was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
    /// The request set itself is malformed.
    BadRequest(String),
    /// No priority assignment satisfies Eq. 9 for every flow; the named
    /// flow belongs to an entity that could not be placed at the lowest
    /// remaining priority level.
    Infeasible {
        /// The accounting flow of the unplaceable entity.
        flow: FlowId,
        /// The priority level (1 = highest) that could not be filled.
        level: u32,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::BadRequest(msg) => write!(f, "bad GS request set: {msg}"),
            AdmissionError::Infeasible { flow, level } => write!(
                f,
                "no feasible priority assignment: {flow} cannot hold priority level {level}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Internal: an entity before priority assignment.
struct Candidate {
    slave: AmAddr,
    accounting: usize, // index into requests
    flows: Vec<usize>,
    x: SimDuration,
    s: SimDuration,
    eta_min: f64,
    /// Position of the entity's earliest request — the "initial priority
    /// value" used for the paper's descending-order search in step e.
    initial_order: usize,
}

/// Evaluates a complete set of GS requests (the paper runs this routine on
/// every new request, over the already-accepted flows plus the new one).
///
/// # Errors
///
/// * [`AdmissionError::BadRequest`] for duplicate ids or two same-direction
///   GS flows on one slave;
/// * [`AdmissionError::Infeasible`] when no priority assignment satisfies
///   Eq. 9 for every entity.
///
/// # Examples
///
/// The paper's evaluation set — four 64 kbps flows, flows 2 and 3
/// piggybacked on S2 — yields priorities with `y = {3.75, 7.5, 11.25} ms`:
///
/// ```
/// use btgs_core::{admit, AdmissionConfig, GsRequest};
/// use btgs_baseband::{AmAddr, Direction};
/// use btgs_gs::TokenBucketSpec;
/// use btgs_traffic::FlowId;
///
/// let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
/// let s = |n| AmAddr::new(n).unwrap();
/// let reqs = vec![
///     GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec, 8800.0),
///     GsRequest::new(FlowId(2), s(2), Direction::MasterToSlave, tspec, 8800.0),
///     GsRequest::new(FlowId(3), s(2), Direction::SlaveToMaster, tspec, 8800.0),
///     GsRequest::new(FlowId(4), s(3), Direction::SlaveToMaster, tspec, 8800.0),
/// ];
/// let outcome = admit(&reqs, &AdmissionConfig::paper()).unwrap();
/// assert_eq!(outcome.entities.len(), 3); // flows 2+3 share an entity
/// assert_eq!(outcome.entities[2].y.as_micros(), 11_250);
/// # Ok::<(), btgs_traffic::InvalidTSpec>(())
/// ```
pub fn admit(
    requests: &[GsRequest],
    config: &AdmissionConfig,
) -> Result<AdmissionOutcome, AdmissionError> {
    validate(requests)?;
    if requests.is_empty() {
        return Ok(AdmissionOutcome::default());
    }
    let u = config.u();
    let per_flow_eta: Vec<f64> = requests
        .iter()
        .map(|r| {
            min_poll_efficiency(
                r.tspec.min_policed_unit(),
                r.tspec.max_packet(),
                &config.allowed_types,
            )
        })
        .collect();
    let per_flow_x: Vec<SimDuration> = requests
        .iter()
        .zip(&per_flow_eta)
        .map(|(r, eta)| poll_interval(*eta, r.rate))
        .collect();

    // Fig. 3 step d: pair oppositely-directed flows on the same slave; the
    // one with the larger x piggybacks on the other.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut consumed = vec![false; requests.len()];
    for i in 0..requests.len() {
        if consumed[i] {
            continue;
        }
        consumed[i] = true;
        let mut flows = vec![i];
        let mut accounting = i;
        if config.piggyback {
            if let Some(j) = (i + 1..requests.len()).find(|&j| {
                !consumed[j]
                    && requests[j].slave == requests[i].slave
                    && requests[j].direction == requests[i].direction.reverse()
            }) {
                consumed[j] = true;
                flows.push(j);
                if per_flow_x[j] < per_flow_x[i] {
                    accounting = j;
                }
            }
        }
        let has_downlink = flows
            .iter()
            .any(|&k| requests[k].direction == Direction::MasterToSlave);
        let has_uplink = flows
            .iter()
            .any(|&k| requests[k].direction == Direction::SlaveToMaster);
        candidates.push(Candidate {
            slave: requests[i].slave,
            accounting,
            flows,
            x: per_flow_x[accounting],
            s: segment_exchange_time(
                config.segment_time,
                &config.allowed_types,
                has_downlink,
                has_uplink,
            ),
            eta_min: per_flow_eta[accounting],
            initial_order: i,
        });
    }

    // Fig. 3 step e as Audsley's algorithm: fill priority levels from the
    // lowest (largest number) upward; for each level, search the still
    // unassigned entities in descending initial priority value.
    let n = candidates.len();
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut priority_of = vec![0u32; n];
    for level in (1..=n as u32).rev() {
        // Descending initial order = later-arrived requests first.
        let mut order: Vec<usize> = unassigned.clone();
        order.sort_by_key(|&c| std::cmp::Reverse(candidates[c].initial_order));
        let mut placed = None;
        for &c in &order {
            let higher: Vec<HigherEntity> = unassigned
                .iter()
                .filter(|&&k| k != c)
                .map(|&k| HigherEntity {
                    x: candidates[k].x,
                    s: candidates[k].s,
                })
                .collect();
            if y_max(u, &higher, candidates[c].x).is_some() {
                placed = Some(c);
                break;
            }
        }
        match placed {
            Some(c) => {
                priority_of[c] = level;
                unassigned.retain(|&k| k != c);
            }
            None => {
                // Report the entity that arrived last among the unplaceable.
                let worst = *order.first().expect("levels remain, so entities remain");
                return Err(AdmissionError::Infeasible {
                    flow: requests[candidates[worst].accounting].id,
                    level,
                });
            }
        }
    }

    // Final y of each entity against the entities actually above it.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| priority_of[c]);
    let mut entities = Vec::with_capacity(n);
    let mut entity_index_of_candidate = vec![0usize; n];
    for (pos, &c) in order.iter().enumerate() {
        let higher: Vec<HigherEntity> = order[..pos]
            .iter()
            .map(|&k| HigherEntity {
                x: candidates[k].x,
                s: candidates[k].s,
            })
            .collect();
        let y = y_max(u, &higher, candidates[c].x)
            .expect("assignment was verified feasible level by level");
        let cand = &candidates[c];
        entity_index_of_candidate[c] = pos;
        entities.push(EntityPlan {
            slave: cand.slave,
            priority: priority_of[c],
            x: cand.x,
            y,
            s: cand.s,
            accounting_flow: requests[cand.accounting].id,
            accounting_direction: requests[cand.accounting].direction,
            rate: requests[cand.accounting].rate,
            eta_min: cand.eta_min,
            flow_ids: cand.flows.iter().map(|&k| requests[k].id).collect(),
            can_skip: cand
                .flows
                .iter()
                .all(|&k| requests[k].direction == Direction::MasterToSlave),
            has_downlink: cand
                .flows
                .iter()
                .any(|&k| requests[k].direction == Direction::MasterToSlave),
            has_uplink: cand
                .flows
                .iter()
                .any(|&k| requests[k].direction == Direction::SlaveToMaster),
        });
    }

    let mut flows = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let cand_idx = candidates
            .iter()
            .position(|c| c.flows.contains(&i))
            .expect("every request belongs to an entity");
        let entity = entity_index_of_candidate[cand_idx];
        let terms = ErrorTerms::new(per_flow_eta[i], entities[entity].y);
        let bound = delay_bound(&r.tspec, r.rate, terms)
            .map_err(|e| AdmissionError::BadRequest(format!("flow {}: {e}", r.id)))?;
        flows.push(FlowGrant {
            id: r.id,
            entity,
            eta_min: per_flow_eta[i],
            terms,
            bound,
        });
    }
    Ok(AdmissionOutcome { entities, flows })
}

fn validate(requests: &[GsRequest]) -> Result<(), AdmissionError> {
    for (i, a) in requests.iter().enumerate() {
        for b in &requests[i + 1..] {
            if a.id == b.id {
                return Err(AdmissionError::BadRequest(format!(
                    "duplicate flow id {}",
                    a.id
                )));
            }
            if a.slave == b.slave && a.direction == b.direction {
                return Err(AdmissionError::BadRequest(format!(
                    "flows {} and {} are both {} GS flows at {}",
                    a.id, b.id, a.direction, a.slave
                )));
            }
        }
    }
    Ok(())
}

/// A stateful admission controller: accepted flows persist, each new request
/// re-runs the Fig. 3 routine over the whole set, and a rejection leaves the
/// accepted set untouched (Fig. 3 steps a/g: store and restore priorities).
///
/// The accepted set is kept in **canonical (ascending flow-id) order**, so
/// the controller's schedule is a pure function of the accepted *set*: the
/// feasibility test is order-independent anyway (Audsley's search admits a
/// set iff *any* priority order works), and canonical ordering extends that
/// to the produced schedule itself. In particular, [`release`] followed by
/// [`try_admit`] of the same request restores byte-identical state — the
/// round-trip property chain admission's rollback relies on.
///
/// [`release`]: AdmissionController::release
/// [`try_admit`]: AdmissionController::try_admit
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    config: Option<AdmissionConfig>,
    accepted: Vec<GsRequest>,
    outcome: AdmissionOutcome,
}

impl AdmissionController {
    /// Creates a controller with the given configuration.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            config: Some(config),
            accepted: Vec::new(),
            outcome: AdmissionOutcome::default(),
        }
    }

    /// The currently accepted requests, in canonical (flow-id) order.
    pub fn accepted(&self) -> &[GsRequest] {
        &self.accepted
    }

    /// The current schedule.
    pub fn outcome(&self) -> &AdmissionOutcome {
        &self.outcome
    }

    /// Tries to admit a new flow. On success the flow joins the accepted
    /// set (possibly reshuffling everyone's priorities); on failure the
    /// previous schedule remains in force.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmissionError`] of the combined set.
    pub fn try_admit(&mut self, request: GsRequest) -> Result<&AdmissionOutcome, AdmissionError> {
        let config = self.config.as_ref().expect("constructed with a config");
        let mut all = self.accepted.clone();
        // Canonical insertion position: the schedule must depend on the
        // accepted set only, not on the admission history (see the type
        // docs). `admit` rejects duplicate ids, so ties cannot survive.
        let pos = all.partition_point(|r| r.id < request.id);
        all.insert(pos, request);
        let outcome = admit(&all, config)?;
        self.accepted = all;
        self.outcome = outcome;
        Ok(&self.outcome)
    }

    /// Removes an accepted flow and recomputes the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not currently accepted (removing an unknown
    /// reservation is always a caller bug).
    pub fn release(&mut self, id: FlowId) -> &AdmissionOutcome {
        let pos = self
            .accepted
            .iter()
            .position(|r| r.id == id)
            .unwrap_or_else(|| panic!("flow {id} is not accepted"));
        self.accepted.remove(pos);
        let config = self.config.as_ref().expect("constructed with a config");
        self.outcome =
            admit(&self.accepted, config).expect("a subset of a feasible set is feasible");
        &self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn tspec() -> TokenBucketSpec {
        TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap()
    }

    fn paper_requests() -> Vec<GsRequest> {
        vec![
            GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec(), 8800.0),
            GsRequest::new(FlowId(2), s(2), Direction::MasterToSlave, tspec(), 8800.0),
            GsRequest::new(FlowId(3), s(2), Direction::SlaveToMaster, tspec(), 8800.0),
            GsRequest::new(FlowId(4), s(3), Direction::SlaveToMaster, tspec(), 8800.0),
        ]
    }

    #[test]
    fn paper_scenario_schedule() {
        let out = admit(&paper_requests(), &AdmissionConfig::paper()).unwrap();
        assert_eq!(out.entities.len(), 3);
        // Priorities follow insertion order here (all symmetric): the last
        // arrival takes the lowest priority.
        assert_eq!(out.entities[0].slave, s(1));
        assert_eq!(out.entities[1].slave, s(2));
        assert_eq!(out.entities[2].slave, s(3));
        assert_eq!(out.entities[0].y, SimDuration::from_micros(3_750));
        assert_eq!(out.entities[1].y, SimDuration::from_micros(7_500));
        assert_eq!(out.entities[2].y, SimDuration::from_micros(11_250));
        // x = 144/8800 s for every entity.
        for e in &out.entities {
            assert_eq!(e.x.as_nanos(), 16_363_636);
            assert_eq!(e.eta_min, 144.0);
            assert_eq!(e.s, SimDuration::from_micros(3_750));
        }
        // Flows 2 and 3 share the S2 entity; flow 2's entity serves both.
        let e2 = out.entity_of(FlowId(2)).unwrap();
        let e3 = out.entity_of(FlowId(3)).unwrap();
        assert_eq!(e2, e3);
        assert_eq!(e2.flow_ids.len(), 2);
        assert!(e2.has_downlink && e2.has_uplink);
        assert!(!e2.can_skip, "bidirectional entity cannot skip polls");
        // Unidirectional uplink entities cannot skip either.
        assert!(!out.entity_of(FlowId(1)).unwrap().can_skip);
    }

    #[test]
    fn paper_exported_terms_and_bounds() {
        let out = admit(&paper_requests(), &AdmissionConfig::paper()).unwrap();
        for g in &out.flows {
            assert_eq!(g.eta_min, 144.0, "{}", g.id);
            assert_eq!(g.terms.c_bytes(), 144.0);
        }
        // Flow 4 (lowest priority): D = 11.25 ms, bound at R = r is the
        // paper's 47.6 ms "never exceeded" value.
        let g4 = out.grant(FlowId(4)).unwrap();
        assert_eq!(g4.terms.d(), SimDuration::from_micros(11_250));
        assert_eq!(g4.bound.as_micros(), 47_613);
        // Flow 1 (highest): D = 3.75 ms.
        assert_eq!(
            out.grant(FlowId(1)).unwrap().terms.d(),
            SimDuration::from_micros(3_750)
        );
    }

    #[test]
    fn rmax_boundary_admits_and_beyond_rejects() {
        // At the paper's R_max = 12.8 kB/s for the lowest-priority flow,
        // y = 11.25 ms = x exactly: feasible.
        let mut reqs = paper_requests();
        reqs[3].rate = 12_800.0;
        assert!(admit(&reqs, &AdmissionConfig::paper()).is_ok());
        // All four at a rate that pushes x below anyone's feasible y: the
        // set becomes inadmissible.
        for r in &mut reqs {
            r.rate = 39_000.0; // x = 3.69 ms < U
        }
        let err = admit(&reqs, &AdmissionConfig::paper()).unwrap_err();
        assert!(matches!(err, AdmissionError::Infeasible { .. }));
    }

    #[test]
    fn audsley_reassignment_saves_mixed_sets() {
        // One demanding flow (needs high priority) arriving last: naive
        // arrival-order priorities would reject it; reassignment admits it.
        let relaxed = GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec(), 8800.0);
        let demanding =
            GsRequest::new(FlowId(2), s(3), Direction::SlaveToMaster, tspec(), 20_000.0);
        // x_demanding = 144/20000 = 7.2 ms: only feasible at priority 1
        // (y = U = 3.75 <= 7.2), never at 2 (y = 7.5 > 7.2). In arrival
        // order it would hold priority 2 and be rejected.
        let out = admit(
            &[relaxed.clone(), demanding.clone()],
            &AdmissionConfig::paper(),
        )
        .unwrap();
        assert_eq!(
            out.entity_of(FlowId(2)).unwrap().priority,
            1,
            "reassigned to the top"
        );
        let relaxed_entity = out.entity_of(FlowId(1)).unwrap();
        assert_eq!(relaxed_entity.priority, 2);
        // The relaxed flow's y reflects the demanding flow above it:
        // fixpoint of U + ceil(y/7.2ms)*3.75ms = 11.25 ms.
        assert_eq!(relaxed_entity.y, SimDuration::from_micros(11_250));
    }

    #[test]
    fn piggybacking_admits_more_flows() {
        // Four slaves with bidirectional pairs at a demanding rate: with
        // piggybacking (4 entities, y up to 15 ms <= x = 16 ms) it fits;
        // without (8 entities, y up to 30 ms) it does not.
        let rate = 9_000.0; // x = 16 ms
        let mut reqs = Vec::new();
        for n in 1..=4u8 {
            reqs.push(GsRequest::new(
                FlowId(2 * n as u32 - 1),
                s(n),
                Direction::MasterToSlave,
                tspec(),
                rate,
            ));
            reqs.push(GsRequest::new(
                FlowId(2 * n as u32),
                s(n),
                Direction::SlaveToMaster,
                tspec(),
                rate,
            ));
        }
        let with = admit(&reqs, &AdmissionConfig::paper());
        assert!(with.is_ok(), "{with:?}");
        assert_eq!(with.unwrap().entities.len(), 4);

        let mut naive_cfg = AdmissionConfig::paper();
        naive_cfg.piggyback = false;
        let without = admit(&reqs, &naive_cfg);
        assert!(matches!(without, Err(AdmissionError::Infeasible { .. })));
    }

    #[test]
    fn accounting_flow_is_the_faster_one() {
        let slow = GsRequest::new(FlowId(1), s(1), Direction::MasterToSlave, tspec(), 8800.0);
        let fast = GsRequest::new(FlowId(2), s(1), Direction::SlaveToMaster, tspec(), 12_800.0);
        let out = admit(&[slow, fast], &AdmissionConfig::paper()).unwrap();
        assert_eq!(out.entities.len(), 1);
        assert_eq!(out.entities[0].accounting_flow, FlowId(2));
        assert_eq!(out.entities[0].x, SimDuration::from_micros(11_250));
    }

    #[test]
    fn downlink_only_entity_can_skip() {
        let req = GsRequest::new(FlowId(1), s(1), Direction::MasterToSlave, tspec(), 8800.0);
        let out = admit(&[req], &AdmissionConfig::paper()).unwrap();
        assert!(out.entities[0].can_skip);
        assert!(out.entities[0].has_downlink);
        assert!(!out.entities[0].has_uplink);
    }

    #[test]
    fn exact_segment_time_lowers_y() {
        let reqs = paper_requests();
        let mut cfg = AdmissionConfig::paper();
        cfg.segment_time = SegmentTimeModel::Exact;
        let out = admit(&reqs, &cfg).unwrap();
        // Entity 1 (S1, uplink only) charges POLL+DH3 = 2.5 ms to lower
        // priorities; entity 3's y drops from 11.25 ms to
        // U + 2.5 + 3.75 = 10 ms.
        assert_eq!(out.entities[2].y, SimDuration::from_micros(10_000));
    }

    #[test]
    fn validation_errors() {
        let a = GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec(), 8800.0);
        let dup = a.clone();
        assert!(matches!(
            admit(&[a.clone(), dup], &AdmissionConfig::paper()),
            Err(AdmissionError::BadRequest(_))
        ));
        let clash = GsRequest::new(FlowId(2), s(1), Direction::SlaveToMaster, tspec(), 8800.0);
        assert!(matches!(
            admit(&[a, clash], &AdmissionConfig::paper()),
            Err(AdmissionError::BadRequest(_))
        ));
    }

    #[test]
    fn empty_set_is_trivially_admitted() {
        let out = admit(&[], &AdmissionConfig::paper()).unwrap();
        assert!(out.entities.is_empty());
        assert!(out.flows.is_empty());
    }

    #[test]
    fn controller_keeps_state_on_rejection() {
        let mut ctl = AdmissionController::new(AdmissionConfig::paper());
        for (i, req) in paper_requests().into_iter().enumerate() {
            ctl.try_admit(req)
                .unwrap_or_else(|e| panic!("flow {i}: {e}"));
        }
        assert_eq!(ctl.accepted().len(), 4);
        let before = ctl.outcome().clone();
        // A hopeless request: rate beyond anything the piconet can poll.
        let hopeless = GsRequest::new(
            FlowId(99),
            s(7),
            Direction::SlaveToMaster,
            tspec(),
            50_000.0,
        );
        assert!(ctl.try_admit(hopeless).is_err());
        assert_eq!(ctl.accepted().len(), 4, "rejection must not change state");
        assert_eq!(*ctl.outcome(), before);
    }

    #[test]
    fn controller_release_recomputes() {
        let mut ctl = AdmissionController::new(AdmissionConfig::paper());
        for req in paper_requests() {
            ctl.try_admit(req).unwrap();
        }
        let out = ctl.release(FlowId(1));
        assert_eq!(out.entities.len(), 2);
        assert_eq!(ctl.accepted().len(), 3);
    }

    #[test]
    #[should_panic(expected = "not accepted")]
    fn releasing_unknown_flow_panics() {
        let mut ctl = AdmissionController::new(AdmissionConfig::paper());
        ctl.release(FlowId(1));
    }

    #[test]
    fn release_then_readmit_restores_state_exactly() {
        // Releasing a flow and re-admitting the identical request must
        // restore byte-identical controller state, whichever flow is
        // cycled — the round-trip chain rollback relies on.
        let mut ctl = AdmissionController::new(AdmissionConfig::paper());
        for req in paper_requests() {
            ctl.try_admit(req).unwrap();
        }
        for victim in paper_requests() {
            let accepted_before = ctl.accepted().to_vec();
            let outcome_before = ctl.outcome().clone();
            ctl.release(victim.id);
            assert_ne!(ctl.accepted().len(), accepted_before.len());
            ctl.try_admit(victim.clone())
                .expect("re-admitting a released flow of a feasible set");
            assert_eq!(ctl.accepted(), accepted_before.as_slice());
            assert_eq!(*ctl.outcome(), outcome_before);
        }
    }

    #[test]
    fn controller_outcome_is_independent_of_admission_order() {
        // The canonical ordering makes the schedule a pure function of the
        // accepted set: admitting the paper flows in any order yields the
        // same outcome.
        let reqs = paper_requests();
        let mut reference = AdmissionController::new(AdmissionConfig::paper());
        for req in reqs.clone() {
            reference.try_admit(req).unwrap();
        }
        for order in [[3usize, 1, 0, 2], [2, 0, 3, 1], [1, 3, 2, 0]] {
            let mut ctl = AdmissionController::new(AdmissionConfig::paper());
            for &i in &order {
                ctl.try_admit(reqs[i].clone()).unwrap();
            }
            assert_eq!(ctl.accepted(), reference.accepted());
            assert_eq!(ctl.outcome(), reference.outcome());
        }
    }
}
