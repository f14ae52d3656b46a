//! Multi-hop (scatternet) Guaranteed Service admission: compose per-hop
//! delay bounds and worst-case bridge residences into a provable
//! end-to-end bound, and admit a chain only if **every** traversed piconet
//! passes the paper's single-piconet test — atomically.
//!
//! A [`ScatternetAdmissionController`] owns one [`AdmissionController`]
//! per piconet. [`admit_chain`](ScatternetAdmissionController::admit_chain)
//! runs in three phases:
//!
//! 1. **Budgeting** — a trial pass (on cloned controllers) admits every
//!    hop at the token rate to learn each hop's poll delay `y`. The fixed,
//!    rate-independent cost of the chain is then
//!    `Σ residences + Σ (y_h + absence_h)`; what remains of the deadline
//!    is split into equal per-hop queueing budgets
//!    ([`split_queueing_budget`]) and inverted into per-hop rate requests
//!    ([`required_rate`]).
//! 2. **Admission** — every hop's [`GsRequest`] runs through its
//!    piconet's controller in path order. Any rejection rolls the earlier
//!    hops back ([`AdmissionController::release`]), leaving all ledgers
//!    byte-identical to their pre-call state (the controller's canonical
//!    ordering guarantees exact restoration).
//! 3. **Verification** — the *actual* granted schedule (priorities may
//!    have been reshuffled by Audsley's search) is recomposed into the
//!    end-to-end bound. If the chain misses its deadline, or any
//!    previously admitted chain's recomposed bound now misses *its*
//!    deadline, the new hops are rolled back and the chain is rejected.
//!
//! The bound that comes out is `e2e ≤ Σ hop bounds + Σ residences` with
//! each hop bound an RFC 2212 Eq. 1 bound whose `D` term is inflated by
//! the hop slave's worst-case absence gap (a poll due while the bridge is
//! away waits out the gap) — see [`btgs_gs::compose_e2e_bound`] and the
//! scatternet validation binary, which checks measured worst-case delays
//! against the composed bound across a grid of pollers and seeds.
//!
//! ## Presence-aware poll intervals (Eq. 5 on a part-time slave)
//!
//! The paper's Eq. 5 (`x = η/R`) assumes every planned poll can execute.
//! A bridge slave is absent for up to `absence` per rendezvous cycle, so
//! a poll plan with interval `x` only guarantees one poll every
//! `x + absence` — polling a half-duty bridge at the fluid interval
//! serves *below* the granted rate and the backlog never drains. Chain
//! admission therefore requests the **physical** interval
//!
//! ```text
//! x_phys = η/R_fluid − absence        (R_phys = η/x_phys)
//! ```
//!
//! so the worst-case *effective* service rate `η/(x_phys + absence)`
//! still equals the fluid rate the bound was computed with. When Eq. 9
//! caps the physical rate (`x_phys ≥ y`), the hop's bound is recomputed
//! from the *achievable* effective rate `η/(y + absence)`; a hop whose
//! effective rate cannot even sustain the token rate is rejected as
//! [`ChainAdmissionError::HopUnsustainable`].

use crate::admission::{AdmissionController, AdmissionError, AdmissionOutcome, GsRequest};
use crate::efficiency::min_poll_efficiency;
use crate::timing::poll_interval;
use crate::ymax::max_admissible_rate;
use btgs_baseband::{AmAddr, Direction, PiconetId};
use btgs_des::SimDuration;
use btgs_gs::{
    compose_e2e_bound, delay_bound, required_rate, split_queueing_budget, ErrorTerms,
    TokenBucketSpec,
};
use btgs_traffic::FlowId;
use core::fmt;

/// One hop of a chain reservation request.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainHopSpec {
    /// The piconet this hop is polled in.
    pub piconet: PiconetId,
    /// The hop flow's id (globally unique).
    pub flow: FlowId,
    /// The slave the hop terminates at (a bridge slave for hops that cross
    /// piconets, the relaying master's counterpart otherwise).
    pub slave: AmAddr,
    /// The hop's transfer direction within its piconet.
    pub direction: Direction,
    /// Worst-case bridge residence paid **before** this hop — the handoff
    /// wait for the bridge to appear in this hop's piconet
    /// ([`btgs_gs::worst_case_residence`] of the *target* window). Zero for
    /// the first hop and for master-internal relays.
    pub residence_in: SimDuration,
    /// Worst-case extra poll delay of this hop's slave when it is
    /// part-time ([`btgs_gs::presence_absence_penalty`] of the slave's own
    /// window); zero for full-time slaves.
    pub absence: SimDuration,
}

/// A chain reservation request: an end-to-end deadline over an ordered
/// hop path.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainRequest {
    /// Caller-chosen chain identifier (unique among admitted chains).
    pub id: u32,
    /// The flow's token-bucket TSpec (identical on every hop: the chain
    /// relays the same packet stream).
    pub tspec: TokenBucketSpec,
    /// The end-to-end delay bound requested for the chain.
    pub deadline: SimDuration,
    /// The hops, in path order.
    pub hops: Vec<ChainHopSpec>,
}

/// The per-hop grant of an admitted chain.
#[derive(Clone, Debug, PartialEq)]
pub struct HopGrant {
    /// The hop flow.
    pub flow: FlowId,
    /// The piconet that granted it.
    pub piconet: PiconetId,
    /// The granted *physical* rate (bytes/s) — presence-compensated, so
    /// it can exceed the chain's fluid rate on part-time slaves: polling at
    /// `x_phys = η/R_fluid − absence` keeps the worst-case effective rate
    /// `η/(x_phys + absence)` at the fluid rate the bound assumes.
    pub rate: f64,
    /// The granted poll interval `x = eta_min / rate` — recorded so the
    /// chain's polling schedule is auditable hop by hop.
    pub x: SimDuration,
    /// The hop entity's maximum poll delay `y` under the granted schedule.
    pub y: SimDuration,
    /// The hop slave's worst-case absence gap (copied from the request's
    /// [`ChainHopSpec::absence`]; zero for full-time slaves).
    pub absence: SimDuration,
    /// The hop's provable delay bound: Eq. 1 at the worst-case effective
    /// service rate `η/(x + absence)`, with `D = y + absence`.
    pub bound: SimDuration,
}

/// The grant of an admitted chain: per-hop grants plus the composed
/// end-to-end bound.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainGrant {
    /// The admitted request's id.
    pub id: u32,
    /// The deadline the chain was admitted against.
    pub deadline: SimDuration,
    /// Per-hop grants, in path order.
    pub hops: Vec<HopGrant>,
    /// Total worst-case bridge residence along the path.
    pub residence_total: SimDuration,
    /// The provable end-to-end bound:
    /// `Σ hop bounds + residence_total ≤ deadline`.
    pub composed_bound: SimDuration,
}

impl ChainGrant {
    /// The granted per-hop poll intervals, in path order.
    pub fn hop_intervals(&self) -> Vec<SimDuration> {
        self.hops.iter().map(|h| h.x).collect()
    }
}

/// Why a chain was rejected. Any rejection leaves every piconet's ledger
/// byte-identical to its pre-call state.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainAdmissionError {
    /// The request itself is malformed (empty path, unknown piconet,
    /// duplicate flow or chain id, …).
    BadRequest(String),
    /// The rate-independent terms alone (residences, poll delays,
    /// absences) consume the deadline: no finite rates can meet it.
    DeadlineTooTight {
        /// The requested end-to-end deadline.
        deadline: SimDuration,
        /// The fixed terms that already exceed (or equal) it.
        fixed: SimDuration,
    },
    /// A traversed piconet rejected its hop; hops admitted before it were
    /// rolled back.
    HopRejected {
        /// Index of the rejected hop in the request path.
        hop: usize,
        /// The rejected hop flow.
        flow: FlowId,
        /// The rejecting piconet.
        piconet: PiconetId,
        /// The piconet-level rejection.
        error: AdmissionError,
    },
    /// Every hop was individually admissible, but the actual granted
    /// schedule composes to a bound past the deadline (priority
    /// reshuffling raised a hop's `y`); the chain was rolled back.
    BoundExceedsDeadline {
        /// The composed bound of the would-be grant.
        composed: SimDuration,
        /// The requested deadline it misses.
        deadline: SimDuration,
    },
    /// Admitting the chain would push a previously admitted chain past
    /// *its* deadline; the new chain was rolled back.
    WouldBreakExistingChain {
        /// The id of the chain whose guarantee would be lost.
        chain: u32,
    },
    /// The hop slave's absence gap is so large that no admissible poll
    /// interval sustains even the token rate through the rendezvous
    /// schedule (`η/(x + absence) < r` for every feasible `x`).
    HopUnsustainable {
        /// Index of the unsustainable hop in the request path.
        hop: usize,
        /// The hop flow.
        flow: FlowId,
        /// Its piconet.
        piconet: PiconetId,
    },
}

impl fmt::Display for ChainAdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainAdmissionError::BadRequest(msg) => write!(f, "bad chain request: {msg}"),
            ChainAdmissionError::DeadlineTooTight { deadline, fixed } => write!(
                f,
                "chain deadline {deadline} does not exceed the fixed terms {fixed} \
                 (residences + poll delays + absence gaps)"
            ),
            ChainAdmissionError::HopRejected {
                hop,
                flow,
                piconet,
                error,
            } => write!(f, "hop {hop} ({flow} in {piconet}) rejected: {error}"),
            ChainAdmissionError::BoundExceedsDeadline { composed, deadline } => write!(
                f,
                "composed end-to-end bound {composed} exceeds the deadline {deadline}"
            ),
            ChainAdmissionError::WouldBreakExistingChain { chain } => write!(
                f,
                "admission would break the guarantee of already-admitted chain {chain}"
            ),
            ChainAdmissionError::HopUnsustainable { hop, flow, piconet } => write!(
                f,
                "hop {hop} ({flow} in {piconet}): the slave's absence gap leaves no poll \
                 interval that sustains the token rate"
            ),
        }
    }
}

impl std::error::Error for ChainAdmissionError {}

/// The physical request rate whose poll interval, stretched by the hop
/// slave's absence gap, still delivers `fluid_rate` (the presence-aware
/// Eq. 5 of the [module docs](self)): `η/(η/R − absence)`. `None` when the
/// gap alone exceeds the fluid interval — no poll plan can compensate.
fn presence_compensated_rate(eta: f64, fluid_rate: f64, absence: SimDuration) -> Option<f64> {
    let x_needed = eta / fluid_rate - absence.as_secs_f64();
    (x_needed > 0.0).then_some(eta / x_needed)
}

/// The worst-case effective fluid service rate of a hop polled at
/// `physical_rate` on a slave with the given absence gap:
/// `η/(x + absence)`.
fn effective_fluid_rate(eta: f64, physical_rate: f64, absence: SimDuration) -> f64 {
    eta / (eta / physical_rate + absence.as_secs_f64())
}

/// Multi-hop admission over one [`AdmissionController`] per piconet: a
/// chain is admitted only if every traversed piconet passes the paper's
/// single-piconet test, atomically, and its composed end-to-end bound
/// meets its deadline (see [`admit_chain`](Self::admit_chain)).
///
/// # Examples
///
/// Two Fig. 4 piconets joined by a bridge (20 ms cycle, half in each):
/// a 64 kbps chain over two hops admits against a 150 ms deadline with a
/// provable composed bound, and an impossible 15 ms deadline is rejected
/// without touching either piconet's ledger:
///
/// ```
/// use btgs_baseband::{AmAddr, Direction, PiconetId};
/// use btgs_core::{
///     AdmissionConfig, ChainHopSpec, ChainRequest, ScatternetAdmissionController,
/// };
/// use btgs_des::SimDuration;
/// use btgs_gs::TokenBucketSpec;
/// use btgs_traffic::FlowId;
///
/// let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
/// let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
/// let hop = |p: u16, flow: u32, slave: u8, dir, residence_ms: u64| ChainHopSpec {
///     piconet: PiconetId(p),
///     flow: FlowId(flow),
///     slave: AmAddr::new(slave).unwrap(),
///     direction: dir,
///     residence_in: SimDuration::from_millis(residence_ms),
///     absence: SimDuration::from_millis(10),
/// };
/// let request = ChainRequest {
///     id: 1,
///     tspec,
///     deadline: SimDuration::from_millis(150),
///     hops: vec![
///         hop(0, 901, 6, Direction::MasterToSlave, 0),
///         hop(1, 902, 7, Direction::SlaveToMaster, 10),
///     ],
/// };
/// let grant = ctl.admit_chain(request.clone()).unwrap().clone();
/// assert!(grant.composed_bound <= SimDuration::from_millis(150));
///
/// let hopeless = ChainRequest { id: 2, deadline: SimDuration::from_millis(15), ..request };
/// assert!(ctl.admit_chain(hopeless).is_err());
/// # Ok::<(), btgs_traffic::InvalidTSpec>(())
/// ```
#[derive(Clone, Debug)]
pub struct ScatternetAdmissionController {
    config: crate::admission::AdmissionConfig,
    piconets: Vec<AdmissionController>,
    chains: Vec<ChainGrant>,
}

impl ScatternetAdmissionController {
    /// A controller over `piconets` empty per-piconet ledgers sharing one
    /// configuration.
    pub fn new(config: crate::admission::AdmissionConfig, piconets: usize) -> Self {
        ScatternetAdmissionController {
            piconets: (0..piconets)
                .map(|_| AdmissionController::new(config.clone()))
                .collect(),
            config,
            chains: Vec::new(),
        }
    }

    /// The per-piconet controller of `pic` (read access for reports).
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn piconet(&self, pic: PiconetId) -> &AdmissionController {
        &self.piconets[pic.index()]
    }

    /// Number of piconets under this controller.
    pub fn num_piconets(&self) -> usize {
        self.piconets.len()
    }

    /// The admitted chains, in admission order.
    pub fn chains(&self) -> &[ChainGrant] {
        &self.chains
    }

    /// Admits a piconet-local (single-hop) GS flow, re-verifying that no
    /// admitted chain loses its guarantee; on any failure the ledger is
    /// rolled back and unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ChainAdmissionError::HopRejected`] (hop 0) when the
    /// piconet rejects the flow, or
    /// [`ChainAdmissionError::WouldBreakExistingChain`] when an admitted
    /// chain's recomposed bound would miss its deadline.
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn try_admit_local(
        &mut self,
        pic: PiconetId,
        request: GsRequest,
    ) -> Result<&AdmissionOutcome, ChainAdmissionError> {
        let flow = request.id;
        self.piconets[pic.index()]
            .try_admit(request)
            .map_err(|error| ChainAdmissionError::HopRejected {
                hop: 0,
                flow,
                piconet: pic,
                error,
            })?;
        if let Err(e) = self.verify_admitted_chains() {
            self.piconets[pic.index()].release(flow);
            return Err(e);
        }
        // The admission may have shifted priorities within every chain's
        // deadline; keep the stored grants provable under the new
        // schedule.
        self.refresh_chain_bounds();
        Ok(self.piconets[pic.index()].outcome())
    }

    /// Admits a chain end to end, or rejects it leaving every ledger
    /// byte-identical. Three phases: a trial pass on cloned controllers
    /// budgets the deadline into per-hop rate requests; every hop is
    /// admitted in path order, rolling earlier hops back on a rejection;
    /// the granted schedule is recomposed into the end-to-end bound, and
    /// the chain is rolled back if it or any admitted chain now misses its
    /// deadline.
    ///
    /// # Errors
    ///
    /// See [`ChainAdmissionError`]; every error implies full rollback.
    pub fn admit_chain(
        &mut self,
        request: ChainRequest,
    ) -> Result<&ChainGrant, ChainAdmissionError> {
        self.validate(&request)?;
        let eta = min_poll_efficiency(
            &self.config.sar,
            request.tspec.min_policed_unit(),
            request.tspec.max_packet(),
            &self.config.allowed_types,
        );

        // Phase 1 (budgeting): learn each hop's poll delay y from a trial
        // pass at the loosest sustainable rate on cloned ledgers, then
        // split what the fixed terms leave of the deadline into per-hop
        // queueing budgets and invert them into rate requests.
        let candidate_ys = self.trial_ys(&request, eta)?;
        let residence_total = request
            .hops
            .iter()
            .fold(SimDuration::ZERO, |acc, h| acc + h.residence_in);
        let fixed = request
            .hops
            .iter()
            .zip(&candidate_ys)
            .fold(residence_total, |acc, (h, y)| acc + *y + h.absence);
        let budget = split_queueing_budget(request.deadline, fixed, request.hops.len()).ok_or(
            ChainAdmissionError::DeadlineTooTight {
                deadline: request.deadline,
                fixed,
            },
        )?;
        let token = request.tspec.token_rate();
        let mut rates: Vec<f64> = Vec::with_capacity(request.hops.len());
        for (i, (h, y)) in request.hops.iter().zip(&candidate_ys).enumerate() {
            let terms = ErrorTerms::new(eta, *y + h.absence);
            let target = budget + *y + h.absence;
            // An unreachable target here means the budget itself is below
            // the serialization floor; the final verification rejects such
            // chains, so fall back to the hardest admissible request
            // instead of failing early.
            let fluid = required_rate(&request.tspec, target, terms)
                .map(|r| r.max(token))
                .unwrap_or(f64::INFINITY);
            // Presence-aware Eq. 5 (module docs): the *physical* interval
            // shrinks by the absence gap so the effective service still
            // delivers the fluid rate; Eq. 9 then caps the physical rate
            // at eta/y (requesting beyond it would be rejected outright,
            // while the cap — with its larger bound — may still fit the
            // deadline thanks to the floor rounding in the equal split).
            let physical_floor = presence_compensated_rate(eta, token, h.absence)
                .filter(|&r| r <= max_admissible_rate(eta, *y))
                .ok_or(ChainAdmissionError::HopUnsustainable {
                    hop: i,
                    flow: h.flow,
                    piconet: h.piconet,
                })?;
            let physical = presence_compensated_rate(eta, fluid, h.absence)
                .unwrap_or(f64::INFINITY)
                .min(max_admissible_rate(eta, *y))
                .max(physical_floor);
            rates.push(physical);
        }

        // Phase 2 (admission): all-or-nothing across the traversed
        // piconets, rolling back on the first rejection.
        let mut admitted: Vec<(PiconetId, FlowId)> = Vec::with_capacity(request.hops.len());
        for (i, (h, &rate)) in request.hops.iter().zip(&rates).enumerate() {
            let gs_request = GsRequest::new(h.flow, h.slave, h.direction, request.tspec, rate);
            if let Err(error) = self.piconets[h.piconet.index()].try_admit(gs_request) {
                self.rollback(&admitted);
                return Err(ChainAdmissionError::HopRejected {
                    hop: i,
                    flow: h.flow,
                    piconet: h.piconet,
                    error,
                });
            }
            admitted.push((h.piconet, h.flow));
        }

        // Phase 3 (verification): recompose from the schedule actually
        // granted — Audsley's search may have placed hops at different
        // priorities than the trial pass assumed.
        let grant = match self.compose_grant(&request, eta, &rates) {
            Ok(grant) => grant,
            Err(e) => {
                self.rollback(&admitted);
                return Err(e);
            }
        };
        if let Err(e) = self.verify_admitted_chains() {
            self.rollback(&admitted);
            return Err(e);
        }
        // The new hops may have shifted earlier chains' priorities within
        // their deadlines; re-derive their stored grants before adding the
        // new one (itself composed from the current schedule).
        self.refresh_chain_bounds();
        self.chains.push(grant);
        Ok(self.chains.last().expect("just pushed"))
    }

    /// Releases an admitted chain: every hop leaves its piconet's ledger
    /// and the remaining chains' grants are recomposed (their bounds can
    /// only tighten when load leaves).
    ///
    /// # Panics
    ///
    /// Panics if no admitted chain has this id.
    pub fn release_chain(&mut self, id: u32) {
        let pos = self
            .chains
            .iter()
            .position(|c| c.id == id)
            .unwrap_or_else(|| panic!("chain {id} is not admitted"));
        let grant = self.chains.remove(pos);
        for hop in &grant.hops {
            self.piconets[hop.piconet.index()].release(hop.flow);
        }
        self.refresh_chain_bounds();
    }

    fn validate(&self, request: &ChainRequest) -> Result<(), ChainAdmissionError> {
        if request.hops.is_empty() {
            return Err(ChainAdmissionError::BadRequest(
                "a chain needs at least one hop".into(),
            ));
        }
        if self.chains.iter().any(|c| c.id == request.id) {
            return Err(ChainAdmissionError::BadRequest(format!(
                "chain id {} is already admitted",
                request.id
            )));
        }
        for (i, h) in request.hops.iter().enumerate() {
            if h.piconet.index() >= self.piconets.len() {
                return Err(ChainAdmissionError::BadRequest(format!(
                    "hop {i} names unknown piconet {}",
                    h.piconet
                )));
            }
            if request.hops[..i].iter().any(|o| o.flow == h.flow) {
                return Err(ChainAdmissionError::BadRequest(format!(
                    "hop flow {} appears twice in the path",
                    h.flow
                )));
            }
        }
        Ok(())
    }

    /// The per-hop poll delays `y` of a trial admission at the loosest
    /// sustainable rate — the token rate, presence-compensated for the
    /// hop slave's absence gap — on cloned ledgers (`self` is untouched).
    /// That rate is the loosest request whose effective service still
    /// reaches the token rate, so a trial rejection here means the hop
    /// cannot be admitted at any sustainable rate.
    fn trial_ys(
        &self,
        request: &ChainRequest,
        eta: f64,
    ) -> Result<Vec<SimDuration>, ChainAdmissionError> {
        let mut trial = self.piconets.clone();
        let mut ys = Vec::with_capacity(request.hops.len());
        for (i, h) in request.hops.iter().enumerate() {
            let trial_rate = presence_compensated_rate(eta, request.tspec.token_rate(), h.absence)
                .ok_or(ChainAdmissionError::HopUnsustainable {
                    hop: i,
                    flow: h.flow,
                    piconet: h.piconet,
                })?;
            let gs_request =
                GsRequest::new(h.flow, h.slave, h.direction, request.tspec, trial_rate);
            let outcome = trial[h.piconet.index()]
                .try_admit(gs_request)
                .map_err(|error| ChainAdmissionError::HopRejected {
                    hop: i,
                    flow: h.flow,
                    piconet: h.piconet,
                    error,
                })?;
            let entity = outcome
                .entity_of(h.flow)
                .expect("the just-admitted flow has an entity");
            ys.push(entity.y);
        }
        Ok(ys)
    }

    /// Rolls already-admitted hops back out of their piconets, restoring
    /// byte-identical ledgers (canonical controller ordering).
    fn rollback(&mut self, admitted: &[(PiconetId, FlowId)]) {
        for (pic, flow) in admitted.iter().rev() {
            self.piconets[pic.index()].release(*flow);
        }
    }

    /// Composes a [`ChainGrant`] from the schedule currently in force.
    fn compose_grant(
        &self,
        request: &ChainRequest,
        eta: f64,
        rates: &[f64],
    ) -> Result<ChainGrant, ChainAdmissionError> {
        let mut hop_grants = Vec::with_capacity(request.hops.len());
        let mut hop_bounds = Vec::with_capacity(request.hops.len());
        for (h, &rate) in request.hops.iter().zip(rates) {
            let outcome = self.piconets[h.piconet.index()].outcome();
            let entity = outcome
                .entity_of(h.flow)
                .expect("admitted hops have entities");
            let terms = ErrorTerms::new(eta, entity.y + h.absence);
            // The bound holds at the worst-case *effective* service rate
            // through the presence schedule, not the physical poll rate;
            // phase 1 guaranteed it reaches the token rate (the max only
            // absorbs float ulps of the round trip).
            let effective =
                effective_fluid_rate(eta, rate, h.absence).max(request.tspec.token_rate());
            let bound = delay_bound(&request.tspec, effective, terms)
                .expect("effective rates are clamped to the token rate");
            hop_bounds.push(bound);
            hop_grants.push(HopGrant {
                flow: h.flow,
                piconet: h.piconet,
                rate,
                x: poll_interval(eta, rate),
                y: entity.y,
                absence: h.absence,
                bound,
            });
        }
        let residences: Vec<SimDuration> = request.hops.iter().map(|h| h.residence_in).collect();
        let composed_bound = compose_e2e_bound(&hop_bounds, &residences);
        if composed_bound > request.deadline {
            return Err(ChainAdmissionError::BoundExceedsDeadline {
                composed: composed_bound,
                deadline: request.deadline,
            });
        }
        Ok(ChainGrant {
            id: request.id,
            deadline: request.deadline,
            hops: hop_grants,
            residence_total: residences.iter().fold(SimDuration::ZERO, |acc, &r| acc + r),
            composed_bound,
        })
    }

    /// Recomposes every admitted chain's bound from the schedule currently
    /// in force and checks it against its deadline.
    fn verify_admitted_chains(&self) -> Result<(), ChainAdmissionError> {
        for chain in &self.chains {
            if self.recomposed_bound(chain) > chain.deadline {
                return Err(ChainAdmissionError::WouldBreakExistingChain { chain: chain.id });
            }
        }
        Ok(())
    }

    /// A chain's grant recomputed against the schedule currently in force
    /// (priorities — and thus `y` — may have shifted since admission):
    /// per-hop `y` and `bound` refreshed, composed bound re-summed. Rates,
    /// intervals, absences, and residences are admission-time constants.
    fn recomposed_grant(&self, chain: &ChainGrant) -> ChainGrant {
        let mut refreshed = chain.clone();
        let mut total = chain.residence_total;
        for hop in &mut refreshed.hops {
            let controller = &self.piconets[hop.piconet.index()];
            let outcome = controller.outcome();
            let entity = outcome
                .entity_of(hop.flow)
                .expect("admitted hops stay in their ledgers");
            let grant = outcome.grant(hop.flow).expect("admitted hops have grants");
            let terms = ErrorTerms::new(grant.eta_min, entity.y + hop.absence);
            let spec = controller
                .accepted()
                .iter()
                .find(|r| r.id == hop.flow)
                .expect("admitted hops stay accepted");
            let effective = effective_fluid_rate(grant.eta_min, hop.rate, hop.absence)
                .max(spec.tspec.token_rate());
            hop.y = entity.y;
            hop.bound = delay_bound(&spec.tspec, effective, terms)
                .expect("effective rates are clamped to the token rate");
            total += hop.bound;
        }
        refreshed.composed_bound = total;
        refreshed
    }

    /// A chain's end-to-end bound under the schedule currently in force.
    fn recomposed_bound(&self, chain: &ChainGrant) -> SimDuration {
        self.recomposed_grant(chain).composed_bound
    }

    /// Re-derives every stored grant from the schedule currently in force,
    /// so [`chains`](ScatternetAdmissionController::chains) always reports
    /// currently-provable bounds. Called after every successful mutation —
    /// a later admission may legally *raise* a hop's `y` (as long as every
    /// deadline still holds, enforced by
    /// [`verify_admitted_chains`](Self::verify_admitted_chains) first),
    /// and a release can lower it.
    fn refresh_chain_bounds(&mut self) {
        let refreshed: Vec<ChainGrant> = self
            .chains
            .iter()
            .map(|c| self.recomposed_grant(c))
            .collect();
        self.chains = refreshed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn tspec() -> TokenBucketSpec {
        TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap()
    }

    /// A textual fingerprint of every piconet ledger: accepted requests
    /// plus the full schedule. Rollback must keep this byte-identical.
    fn digest(ctl: &ScatternetAdmissionController) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in 0..ctl.num_piconets() {
            let c = ctl.piconet(PiconetId(p as u16));
            let _ = write!(out, "{:?}|{:?};", c.accepted(), c.outcome());
        }
        out
    }

    /// Seeds piconet `pic` with `n` paper-style entities (S1.., uplink,
    /// token rate).
    fn seed_entities(ctl: &mut ScatternetAdmissionController, pic: u16, n: u8) {
        for k in 1..=n {
            ctl.try_admit_local(
                PiconetId(pic),
                GsRequest::new(
                    FlowId(100 * pic as u32 + k as u32),
                    s(k),
                    Direction::SlaveToMaster,
                    tspec(),
                    8_800.0,
                ),
            )
            .unwrap();
        }
    }

    fn hop(p: u16, flow: u32, slave: u8, dir: Direction) -> ChainHopSpec {
        ChainHopSpec {
            piconet: PiconetId(p),
            flow: FlowId(flow),
            slave: s(slave),
            direction: dir,
            residence_in: SimDuration::ZERO,
            absence: SimDuration::ZERO,
        }
    }

    /// A 2.5 ms absence gap (5 ms rendezvous cycle, even split).
    fn gap() -> SimDuration {
        SimDuration::from_micros(2_500)
    }

    #[test]
    fn two_piconet_chain_composes_per_hop_bounds_and_residence() {
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
        seed_entities(&mut ctl, 0, 2);
        seed_entities(&mut ctl, 1, 2);
        let mut h0 = hop(0, 901, 6, Direction::MasterToSlave);
        h0.absence = gap();
        let mut h1 = hop(1, 902, 7, Direction::SlaveToMaster);
        h1.absence = gap();
        h1.residence_in = gap();
        let grant = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(150),
                hops: vec![h0, h1],
            })
            .unwrap()
            .clone();
        // Third entity in each piconet: y = 11.25 ms; D = y + 2.5 ms
        // absence. The generous budget keeps the *fluid* rate at the
        // token rate, but the granted physical interval shrinks by the
        // absence gap: x = 16.36 − 2.5 = 13.86 ms, so the worst-case
        // effective service through the rendezvous schedule is still
        // 8800 B/s.
        assert_eq!(grant.residence_total, gap());
        assert_eq!(grant.hops.len(), 2);
        for h in &grant.hops {
            assert_eq!(h.y, SimDuration::from_micros(11_250));
            assert!(h.rate > 10_386.0 && h.rate < 10_388.0, "{}", h.rate);
            assert_eq!(h.x.as_nanos(), 13_863_636);
            // Eq. 1 at the effective 8800 B/s: 320/8800 s + 13.75 ms.
            assert_eq!(h.bound.as_micros(), 50_113);
        }
        assert_eq!(
            grant.composed_bound,
            compose_e2e_bound(&[grant.hops[0].bound, grant.hops[1].bound], &[gap()])
        );
        assert!(grant.composed_bound <= ms(150));
        assert_eq!(
            grant.hop_intervals(),
            vec![grant.hops[0].x, grant.hops[1].x]
        );
        // Both ledgers now carry their hop.
        assert!(ctl
            .piconet(PiconetId(0))
            .outcome()
            .grant(FlowId(901))
            .is_some());
        assert!(ctl
            .piconet(PiconetId(1))
            .outcome()
            .grant(FlowId(902))
            .is_some());
        assert_eq!(ctl.chains().len(), 1);
    }

    #[test]
    fn deadline_below_fixed_terms_is_rejected_untouched() {
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
        seed_entities(&mut ctl, 0, 2);
        seed_entities(&mut ctl, 1, 2);
        let before = digest(&ctl);
        let mut h0 = hop(0, 901, 6, Direction::MasterToSlave);
        h0.absence = gap();
        let mut h1 = hop(1, 902, 7, Direction::SlaveToMaster);
        h1.absence = gap();
        h1.residence_in = gap();
        // Fixed terms: 2.5 + (11.25+2.5) + (11.25+2.5) = 30 ms > 20 ms.
        let err = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(20),
                hops: vec![h0, h1],
            })
            .unwrap_err();
        match err {
            ChainAdmissionError::DeadlineTooTight { deadline, fixed } => {
                assert_eq!(deadline, ms(20));
                assert_eq!(fixed, ms(30));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(digest(&ctl), before, "rejection must not touch any ledger");
        assert!(ctl.chains().is_empty());
    }

    #[test]
    fn paper_loaded_piconet_cannot_guarantee_a_half_duty_bridge_hop() {
        // With the full paper population (entities at x ≈ 16.36 ms) a
        // 10 ms absence gap demands a 6.36 ms physical interval — below
        // any achievable y — and the hop is rejected without residue.
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        seed_entities(&mut ctl, 0, 3);
        let before = digest(&ctl);
        let mut h0 = hop(0, 901, 6, Direction::SlaveToMaster);
        h0.absence = ms(10);
        let err = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(500),
                hops: vec![h0],
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                ChainAdmissionError::HopRejected { hop: 0, .. }
                    | ChainAdmissionError::HopUnsustainable { hop: 0, .. }
            ),
            "{err:?}"
        );
        assert_eq!(digest(&ctl), before);
        // An absence gap at (or beyond) the token interval is
        // unsustainable even in an empty piconet.
        let mut empty = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        let mut h = hop(0, 902, 6, Direction::SlaveToMaster);
        h.absence = SimDuration::from_micros(16_364);
        let err = empty
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(500),
                hops: vec![h],
            })
            .unwrap_err();
        assert!(
            matches!(err, ChainAdmissionError::HopUnsustainable { hop: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn hop_rejection_rolls_back_earlier_piconets_exactly() {
        // Master-relay chain: two hops in piconet 0. The tight deadline
        // clamps both hop rates to their Eq. 9 maxima; hop 0 then admits
        // at x = 11.25 ms, which makes hop 1 infeasible at every priority
        // — the rejection at hop k must leave the k earlier admissions
        // rolled back and every ledger byte-identical.
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
        seed_entities(&mut ctl, 0, 2);
        seed_entities(&mut ctl, 1, 3);
        let before = digest(&ctl);
        let err = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(50),
                hops: vec![
                    hop(0, 901, 6, Direction::SlaveToMaster),
                    hop(0, 902, 7, Direction::MasterToSlave),
                ],
            })
            .unwrap_err();
        match err {
            ChainAdmissionError::HopRejected {
                hop, flow, piconet, ..
            } => {
                assert_eq!(hop, 1);
                assert_eq!(flow, FlowId(902));
                assert_eq!(piconet, PiconetId(0));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            digest(&ctl),
            before,
            "hop-1 rejection left residue from the admitted hop 0"
        );
        assert!(ctl.chains().is_empty());
    }

    #[test]
    fn clamped_rates_past_the_deadline_are_rejected_with_rollback() {
        // Single hop whose Eq. 9 rate cap (12.8 kB/s at y = 11.25 ms)
        // cannot reach the 30 ms deadline: every piconet admits, the
        // composed bound (36.25 ms) misses, and the grant is rolled back.
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        seed_entities(&mut ctl, 0, 2);
        let before = digest(&ctl);
        let err = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: ms(30),
                hops: vec![hop(0, 901, 6, Direction::SlaveToMaster)],
            })
            .unwrap_err();
        match err {
            ChainAdmissionError::BoundExceedsDeadline { composed, deadline } => {
                assert_eq!(deadline, ms(30));
                assert_eq!(composed, SimDuration::from_micros(36_250));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(digest(&ctl), before);
    }

    #[test]
    fn release_chain_restores_preadmission_ledgers() {
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
        seed_entities(&mut ctl, 0, 3);
        seed_entities(&mut ctl, 1, 3);
        let before = digest(&ctl);
        ctl.admit_chain(ChainRequest {
            id: 7,
            tspec: tspec(),
            deadline: ms(200),
            hops: vec![
                hop(0, 901, 6, Direction::MasterToSlave),
                hop(1, 902, 7, Direction::SlaveToMaster),
            ],
        })
        .unwrap();
        assert_ne!(digest(&ctl), before);
        ctl.release_chain(7);
        assert_eq!(digest(&ctl), before);
        assert!(ctl.chains().is_empty());
    }

    #[test]
    #[should_panic(expected = "not admitted")]
    fn releasing_unknown_chain_panics() {
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        ctl.release_chain(3);
    }

    #[test]
    fn local_admission_that_breaks_a_chain_is_rejected() {
        // One seeded entity (S1) plus a token-rate chain hop: y_hop =
        // 7.5 ms, composed bound ≈ 43.86 ms, admitted with zero slack.
        // A local flow at x = 10 ms cannot sit at the bottom priority
        // (y would be 11.25 ms) but fits mid-schedule — pushing the hop
        // down to y = 15 ms and its chain past the deadline. The local
        // admission must be refused and rolled back.
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        seed_entities(&mut ctl, 0, 1);
        let grant = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: tspec(),
                deadline: SimDuration::from_nanos(43_863_636),
                hops: vec![hop(0, 901, 6, Direction::SlaveToMaster)],
            })
            .unwrap()
            .clone();
        assert_eq!(grant.hops[0].y, SimDuration::from_micros(7_500));
        let before = digest(&ctl);
        let err = ctl
            .try_admit_local(
                PiconetId(0),
                GsRequest::new(
                    FlowId(950),
                    s(4),
                    Direction::SlaveToMaster,
                    tspec(),
                    14_400.0, // x = 10 ms
                ),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ChainAdmissionError::WouldBreakExistingChain { chain: 1 }
        );
        assert_eq!(digest(&ctl), before);
        // A gentler local flow (token rate, lands at the bottom) admits
        // without disturbing the chain.
        ctl.try_admit_local(
            PiconetId(0),
            GsRequest::new(
                FlowId(951),
                s(5),
                Direction::SlaveToMaster,
                tspec(),
                8_800.0,
            ),
        )
        .unwrap();
        assert_eq!(ctl.chains()[0].composed_bound, grant.composed_bound);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 1);
        let empty = ChainRequest {
            id: 1,
            tspec: tspec(),
            deadline: ms(100),
            hops: vec![],
        };
        assert!(matches!(
            ctl.admit_chain(empty),
            Err(ChainAdmissionError::BadRequest(_))
        ));
        let unknown_pic = ChainRequest {
            id: 1,
            tspec: tspec(),
            deadline: ms(100),
            hops: vec![hop(3, 901, 6, Direction::SlaveToMaster)],
        };
        assert!(matches!(
            ctl.admit_chain(unknown_pic),
            Err(ChainAdmissionError::BadRequest(_))
        ));
        let dup_flow = ChainRequest {
            id: 1,
            tspec: tspec(),
            deadline: ms(100),
            hops: vec![
                hop(0, 901, 6, Direction::SlaveToMaster),
                hop(0, 901, 7, Direction::MasterToSlave),
            ],
        };
        assert!(matches!(
            ctl.admit_chain(dup_flow),
            Err(ChainAdmissionError::BadRequest(_))
        ));
        // Duplicate chain ids.
        ctl.admit_chain(ChainRequest {
            id: 1,
            tspec: tspec(),
            deadline: ms(100),
            hops: vec![hop(0, 901, 6, Direction::SlaveToMaster)],
        })
        .unwrap();
        let dup_chain = ChainRequest {
            id: 1,
            tspec: tspec(),
            deadline: ms(100),
            hops: vec![hop(0, 902, 7, Direction::SlaveToMaster)],
        };
        assert!(matches!(
            ctl.admit_chain(dup_chain),
            Err(ChainAdmissionError::BadRequest(_))
        ));
    }
}
