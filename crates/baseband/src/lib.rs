//! # btgs-baseband — Bluetooth baseband substrate
//!
//! Models the pieces of the Bluetooth 1.0b/1.1 baseband that intra-piconet
//! scheduling depends on, for the `btgs` reproduction of *"Providing Delay
//! Guarantees in Bluetooth"* (Ait Yaiz & Heijenk, ICDCSW'03):
//!
//! * [slot timing](crate::slot): 1600 slots/s of 625 µs; master transmits in
//!   even slots, the addressed slave answers in the odd slot after the
//!   downlink packet ends.
//! * [`PacketType`]: POLL/NULL, the DM/DH ACL data types with their exact
//!   payload capacities and slot occupancies, and the HV SCO voice types.
//! * [`AmAddr`]: the 3-bit active member address (up to 7 slaves).
//! * [`Direction`] / [`LogicalChannel`]: master-driven TDD directions and
//!   the QoS/best-effort logical channel split the paper assumes.
//! * [`ChannelModel`]: [`IdealChannel`] for the paper's §3 assumptions and
//!   [`BerChannel`] for the future-work, non-ideal-radio benches.
//! * [`ScoLink`]: reserved-slot voice links, used by the paper's
//!   SCO-vs-poller comparison.
//! * [`PiconetId`] / [`ScopedSlave`] / [`PresenceWindow`]: per-piconet
//!   address scoping and deterministic bridge rendezvous schedules for the
//!   scatternet layer (the paper's future-work direction).
//!
//! # Examples
//!
//! ```
//! use btgs_baseband::{best_fit, PacketType, slots};
//!
//! // The paper's evaluation allows DH1 and DH3. A 144-byte packet needs a
//! // single DH3 and its exchange (DH3 down + DH3 up) lasts 6 slots.
//! let allowed = [PacketType::Dh1, PacketType::Dh3];
//! assert_eq!(best_fit(144, &allowed), Some(PacketType::Dh3));
//! assert_eq!(slots(6).as_micros(), 3_750);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod channel;
mod link;
mod packet;
mod presence;
mod sco;
pub mod slot;

pub use address::{AmAddr, InvalidAmAddr, PiconetId, ScopedSlave};
pub use channel::{BerChannel, ChannelModel, IdealChannel};
pub use link::{Direction, LogicalChannel};
pub use packet::{best_fit, largest, PacketType};
pub use presence::{InvalidPresenceWindow, PresenceWindow};
pub use sco::ScoLink;
pub use slot::{next_master_tx_start, slots, SLOT, SLOTS_PER_SECOND, SLOT_PAIR};
