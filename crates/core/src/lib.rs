//! # btgs-core — delay guarantees in Bluetooth piconets
//!
//! The primary contribution of *"Providing Delay Guarantees in Bluetooth"*
//! (Ait Yaiz & Heijenk, ICDCSW'03), reproduced as a library:
//!
//! * **Poll efficiency** ([`min_poll_efficiency`], Eq. 4) — the fewest
//!   payload bytes a poll is guaranteed to move, given the flow's packet
//!   size range and allowed packet types.
//! * **Poll interval** ([`poll_interval`], Eq. 5) — `x = eta_min / R`.
//! * **Maximum poll delay** ([`y_max`], Fig. 2) — the fixed point of the
//!   higher-priority drain recurrence.
//! * **Error-term export** (Eqs. 6–7) — `C = eta_min`, `D = y`, plugged
//!   into RFC 2212's Eq. 1 via `btgs-gs`.
//! * **Admission control** ([`admit`], Fig. 3) — piggyback-aware entity
//!   formation plus Audsley-style priority reassignment enforcing Eq. 9.
//! * **Chain admission** ([`ScatternetAdmissionController`]) — multi-hop
//!   GS admission: the single-piconet test runs in every traversed piconet
//!   atomically, and per-hop bounds compose with worst-case bridge
//!   residences into a provable end-to-end bound.
//! * **The pollers** ([`GsPoller`]) — fixed interval (§3.1), variable
//!   interval with improvements (a)–(c) (§3.2), and the PFP configuration
//!   evaluated in §4.
//! * **The evaluation** ([`PaperScenario`]) — the Fig. 4 piconet; the
//!   Fig. 5 throughput-vs-delay-requirement sweep is a [`ScenarioGrid`]
//!   over its delay requirement.
//! * **The guarantee oracle** ([`Guarantees`]) — the one rule for which
//!   flows and chains a scenario guarantees against which bound, and the
//!   check of a run's reports against it (§4.2).
//! * **The scatternet scenario** ([`ScatternetScenario`]) — the paper's
//!   future-work workload: 2–3 chained Fig. 4 piconets with one bridged
//!   GS flow, reporting per-hop, end-to-end and bridge-residence delays.
//! * **The harness** ([`ExperimentRunner`], [`ScenarioGrid`]) — fans
//!   poller × piconet-count × seed × requirement grids across threads
//!   with bit-identical results at any thread count.
//!
//! # Examples
//!
//! Admit the paper's four GS flows and inspect the schedule:
//!
//! ```
//! use btgs_core::{admit, AdmissionConfig, GsRequest};
//! use btgs_baseband::{AmAddr, Direction};
//! use btgs_gs::TokenBucketSpec;
//! use btgs_traffic::FlowId;
//!
//! let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
//! let s = |n| AmAddr::new(n).unwrap();
//! let requests = vec![
//!     GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec, 8800.0),
//!     GsRequest::new(FlowId(2), s(2), Direction::MasterToSlave, tspec, 8800.0),
//!     GsRequest::new(FlowId(3), s(2), Direction::SlaveToMaster, tspec, 8800.0),
//!     GsRequest::new(FlowId(4), s(3), Direction::SlaveToMaster, tspec, 8800.0),
//! ];
//! let schedule = admit(&requests, &AdmissionConfig::paper()).unwrap();
//! // Flows 2 and 3 piggyback: three polled entities, y = 3.75/7.5/11.25 ms.
//! assert_eq!(schedule.entities.len(), 3);
//! assert_eq!(schedule.entities[2].y.as_micros(), 11_250);
//! # Ok::<(), btgs_traffic::InvalidTSpec>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod analysis;
mod chain_admission;
mod efficiency;
mod gs_poller;
mod guarantees;
mod plan;
mod runner;
mod scatternet_scenario;
mod scenario;
mod sink;
mod timing;
mod ymax;

pub use admission::{
    admit, AdmissionConfig, AdmissionController, AdmissionError, AdmissionOutcome, EntityPlan,
    FlowGrant, GsRequest,
};
pub use analysis::{be_slot_demands, predicted_be_throughput_kbps};
pub use chain_admission::{
    ChainAdmissionError, ChainGrant, ChainHopSpec, ChainRequest, HopGrant,
    ScatternetAdmissionController,
};
pub use efficiency::{min_poll_efficiency, poll_efficiency};
pub use gs_poller::GsPoller;
pub use guarantees::{Check, Guarantees, Measured, Subject};
pub use plan::{Improvements, PollOutcome, PollPlan};
pub use runner::{
    comparison_pollers, CellOutcome, CellResult, ExperimentRunner, GridCell, GridReport,
    ScatternetCellResult, ScenarioGrid,
};
pub use scatternet_scenario::{
    chain_id_base, rev_chain_id_base, sanitizer_corpus, ScatternetScenario,
    ScatternetScenarioParams, Topology, BRIDGE_IN_SLAVE, BRIDGE_OUT_SLAVE, CHAIN_ID_BASE,
    PICONET_ID_STRIDE, REV_CHAIN_ID_BASE,
};
pub use scenario::{
    paper_tspec, BeSourceMix, GsFlowPlan, PaperScenario, PaperScenarioParams, PollerKind,
    BE_ONOFF_MEAN, BE_PACKET_SIZE, BE_RATES_KBPS, GS_INTERVAL, GS_PACKET_RANGE,
};
pub use sink::{CellSink, CollectSink, MultiSink};
pub use timing::{
    max_data_slots, piconet_u, poll_interval, segment_exchange_time, SegmentTimeModel,
};
pub use ymax::{max_admissible_rate, y_fixpoint, y_max, HigherEntity};
