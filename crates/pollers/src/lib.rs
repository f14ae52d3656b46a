//! # btgs-pollers — baseline intra-piconet schedulers
//!
//! The polling mechanisms the paper surveys in §1/§3, reconstructed as
//! [`Poller`](btgs_piconet::Poller) implementations for the `btgs` piconet
//! simulator:
//!
//! * [`RoundRobinPoller`] — classic limited-service round robin.
//! * [`ExhaustiveRoundRobinPoller`] — stays on a slave until it runs dry.
//! * [`FepPoller`] — the Fair Exhaustive Poller of Johansson et al. (the
//!   paper's reference \[7\]): active/inactive lists with periodic probing.
//! * [`HolPriorityPoller`] — head-of-line priority in the spirit of Kalia
//!   et al. (reference \[8\]).
//! * [`PfpBePoller`] — the Predictive Fair Poller of the paper's reference
//!   \[1\]: per-slave availability prediction plus fair-share tracking. This
//!   is the best-effort engine the paper's Guaranteed Service poller
//!   (in `btgs-core`) delegates its spare slots to.
//!
//! The building blocks — [`AvailabilityPredictor`] and
//! [`FairShareTracker`] — are exported for reuse by other schedulers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exhaustive;
mod fairness;
mod fep;
mod hol;
mod pfp;
mod predictor;
mod round_robin;

pub use exhaustive::ExhaustiveRoundRobinPoller;
pub use fairness::FairShareTracker;
pub use fep::FepPoller;
pub use hol::HolPriorityPoller;
pub use pfp::PfpBePoller;
pub use predictor::AvailabilityPredictor;
pub use round_robin::RoundRobinPoller;
