//! # btgs-gs — the Guaranteed Service (RFC 2212) computations
//!
//! The generic (technology-independent) half of the paper's machinery, used
//! by the `btgs` reproduction of *"Providing Delay Guarantees in Bluetooth"*
//! (Ait Yaiz & Heijenk, ICDCSW'03):
//!
//! * [`ErrorTerms`] — per-element `C` (rate-dependent, bytes) and `D`
//!   (rate-independent, time) deviations from the fluid model, with path
//!   composition into `Ctot`/`Dtot`.
//! * [`delay_bound`] — the paper's Eq. 1: the end-to-end queueing delay
//!   bound for a token-bucket flow served at fluid rate `R`.
//! * [`required_rate`] — the receiver-side inverse: the smallest `R` that
//!   meets a desired bound.
//! * The `compose` helpers ([`worst_case_residence`], [`compose_e2e_bound`],
//!   [`split_queueing_budget`]) — multi-hop composition of per-hop bounds
//!   with bridge-residence terms, and the inverse deadline split.
//!
//! The Bluetooth-specific half — how a polling master *produces* its `C` and
//! `D` terms and admits flows — lives in `btgs-core`.
//!
//! # Examples
//!
//! End-to-end: pick a delay target, derive the rate to request, verify the
//! resulting bound (numbers from the paper's evaluation):
//!
//! ```
//! use btgs_des::SimDuration;
//! use btgs_gs::{delay_bound, required_rate, ErrorTerms};
//! use btgs_traffic::TokenBucketSpec;
//!
//! // 64 kbps voice-like flow: 144..176-byte packets every 20 ms.
//! let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
//! // The Bluetooth poller exports C = 144 B, D = 11.25 ms for this flow.
//! let terms = ErrorTerms::new(144.0, SimDuration::from_micros(11_250));
//!
//! let target = SimDuration::from_millis(40);
//! let rate = required_rate(&tspec, target, terms).unwrap();
//! assert!(delay_bound(&tspec, rate, terms).unwrap() <= target);
//! # Ok::<(), btgs_traffic::InvalidTSpec>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod delay_bound;
mod error_terms;

pub use compose::{compose_e2e_bound, split_queueing_budget, worst_case_residence};
pub use delay_bound::{delay_bound, required_rate, GsError};
pub use error_terms::ErrorTerms;

// Re-export the traffic-side types that form this crate's vocabulary, so
// downstream users need not name btgs-traffic for basic GS work.
pub use btgs_traffic::{InvalidTSpec, TokenBucketSpec};
