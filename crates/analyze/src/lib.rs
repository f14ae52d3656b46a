//! # btgs-analyze — static analysis & concurrency checking
//!
//! Every PR in this workspace stakes its correctness on one invariant:
//! **reports are byte-identical** across pollers, seeds, thread counts,
//! island orders, queue backends and engine toggles. Nothing about
//! the type system prevents the next contributor from introducing a
//! `HashMap` iteration, an ambient clock, or a too-weak atomic ordering
//! that silently breaks it under rare schedules. This crate closes that
//! gap with two engines, both wired into CI as a tier-1 gate:
//!
//! * **Engine 1 — the determinism lint** ([`lint`]): a token-level Rust
//!   source scanner over the whole workspace enforcing repo law — no
//!   `HashMap`/`HashSet` containers on simulation/report paths without a
//!   justified waiver, no ambient time/randomness/environment reads
//!   outside the bench/CLI crates, `#![forbid(unsafe_code)]` in every sim
//!   crate (with btgs-bench's single audited exception), a machine-checked
//!   `// ord:` justification on every atomic `Ordering::*` use, and no
//!   truncating `as` casts on time/id newtype payloads. Waivers
//!   (`// analyze: allow(<rule>): <reason>`) are collected into a
//!   committed audit report ([`audit`]) the lint keeps fresh.
//!
//! * **Engine 2 — the atomics model checker** ([`model`]): a hand-rolled
//!   loom-style stateless explorer — bounded DFS over a vector-clocked
//!   memory with per-location modification orders and release/acquire
//!   visibility (sequential consistency per location plus stale-read
//!   windows) — running the **actual protocol logic** of the scatternet
//!   engine's `SpinBarrier` and its round (bound publish, fixed island
//!   blocks) through the [`btgs_piconet::sync_protocol`] seam, at 2–4
//!   modeled threads. It asserts no lost wakeup, no generation skip,
//!   publish visibility and one owner per island under every explored
//!   schedule, and regression-proves it would catch the deliberately
//!   weakened barrier variants.
//!
//! * **Engine 3 — the divergence bisector** ([`bisect`]): when two engine
//!   configurations that must be byte-identical ever disagree, `--bisect`
//!   runs both with full event traces over a shared corpus scenario and
//!   binary-searches the per-island rolling hashes to the *first
//!   diverging event*, printing a minimal aligned trace (island, time,
//!   event kind, hash prefix) instead of a useless whole-report diff.
//!
//! Run the static engines with `cargo run -p btgs-analyze -- --workspace`,
//! the bisector with `cargo run -p btgs-analyze -- --bisect chain --vs
//! threads=4`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bisect;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod scenarios;
