//! The grid wire format: grid specs, shard specs, and cell-result frames.
//!
//! Everything that crosses a process boundary (worker pipes, checkpoint
//! files, the JSONL spill archive) is JSON, one value per frame, with
//! three invariants:
//!
//! * **Full fidelity** — a [`CellOutcome`] serialises with every delay
//!   sample, so a result parsed in the parent is *byte-identical* (as
//!   observed through every public query, digest and table) to the one
//!   the worker measured. The scenario objects are *not* shipped: they
//!   are deterministic, cheap derivations of the cell that
//!   [`CellResult::reassemble`](btgs_core::CellResult::reassemble)
//!   recomputes parent-side.
//! * **Integer exactness** — timestamps, counts and seeds travel as JSON
//!   integers (see [`json`](crate::json)); floats (`be_load_scale`) use
//!   Rust's shortest-round-trip `{:?}` formatting.
//! * **Content addressing** — every frame carries the 64-bit FNV-1a
//!   digest of its grid's canonical spec, so a parent never merges
//!   frames from a different grid (a stale checkpoint directory, say).
//!
//! **Cost:** encoding and decoding are each a single pass, linear in the
//! frame's bytes. The encoder appends every sub-object into one buffer
//! (no per-object strings copied into their parents) and writes integers
//! without the formatting machinery; the decoder is
//! [`Json::parse`](crate::json::Json::parse) plus one walk of the tree.
//!
//! # Framing
//!
//! Streams are **length-prefixed JSONL**: an ASCII decimal byte length,
//! `\n`, the JSON payload, `\n`. The prefix lets a reader distinguish a
//! cleanly-ended stream from one torn mid-frame by a worker crash — a
//! torn tail is detected and discarded, never half-parsed.

use crate::json::{escape, Json};
use btgs_baseband::{AmAddr, Direction, LogicalChannel, PacketType};
use btgs_core::{BeSourceMix, CellOutcome, GridCell, PollerKind, ScenarioGrid, Topology};
use btgs_des::{SimDuration, SimTime};
use btgs_metrics::DelayStats;
use btgs_piconet::{
    ChainReport, FlowReport, FlowSpec, Histo32, PollCounters, RunReport, ScatternetReport,
    SlotLedger, TelemetryReport,
};
use btgs_traffic::FlowId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// A wire-format decoding error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire format error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn wire_err(what: impl Into<String>) -> WireError {
    WireError(what.into())
}

// ---------------------------------------------------------------------------
// FNV-1a hashing (content addressing)
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content digest of a grid: FNV-1a of its canonical spec JSON. Two
/// grids share a digest exactly when every axis, variant and horizon
/// matches — the key that shards, frames and checkpoints are addressed
/// by.
pub fn grid_digest(grid: &ScenarioGrid) -> u64 {
    fnv1a64(grid_to_json(grid).as_bytes())
}

// ---------------------------------------------------------------------------
// Grid spec
// ---------------------------------------------------------------------------

/// Serialises a grid spec canonically (field order fixed, floats via
/// `{:?}`); the digest is computed over exactly these bytes.
pub fn grid_to_json(grid: &ScenarioGrid) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("{\"pollers\":[");
    for (i, p) in grid.pollers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape(&p.label()));
    }
    s.push_str("],\"piconets\":[");
    push_ints(&mut s, grid.piconets.iter().map(|&p| u64::from(p)));
    s.push_str("],\"seeds\":[");
    push_ints(&mut s, grid.seeds.iter().copied());
    s.push_str("],\"topologies\":[");
    for (i, t) in grid.topologies.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", t.label());
    }
    s.push_str("],\"delay_req_ns\":[");
    push_ints(&mut s, grid.delay_requirements.iter().map(|d| d.as_nanos()));
    s.push_str("],\"chain_deadline_ns\":[");
    for (i, d) in grid.chain_deadlines.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match d {
            None => s.push_str("null"),
            Some(d) => {
                let _ = write!(s, "{}", d.as_nanos());
            }
        }
    }
    let _ = write!(
        s,
        "],\"bidirectional\":{},\"bridge_cycle_ns\":{},\"horizon_ns\":{},\"warmup_ns\":{},\
         \"include_be\":{},\"be_load_scale\":[",
        grid.bidirectional,
        grid.bridge_cycle.as_nanos(),
        grid.horizon.as_nanos(),
        grid.warmup.as_nanos(),
        grid.include_be,
    );
    for (i, &scale) in grid.be_load_scale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{scale:?}");
    }
    let _ = write!(
        s,
        "],\"be_source_mix\":\"{}\",\"telemetry\":{}}}",
        grid.be_source_mix.label(),
        grid.telemetry,
    );
    s
}

fn push_ints(s: &mut String, items: impl Iterator<Item = u64>) {
    let mut list = IntList::new();
    for v in items {
        list.push(s, v);
    }
    list.flush(s);
}

/// `"00"`, `"01"`, … `"99"`: the digits of every pair, so a number is
/// written two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// A comma-separated run of integers, each written exactly as `{v}`
/// prints it but without the formatting machinery: digits go two at a
/// time into a stack batch that reaches the string once per
/// `INT_BATCH` bytes. Delay samples are most of a frame's bytes.
struct IntList {
    batch: [u8; INT_BATCH],
    len: usize,
    first: bool,
}

/// Big enough to amortise the copy into the string over ~30 samples,
/// small enough that zeroing it costs short lists (grid specs) nothing.
const INT_BATCH: usize = 256;

impl IntList {
    fn new() -> IntList {
        IntList {
            batch: [0; INT_BATCH],
            len: 0,
            first: true,
        }
    }

    fn push(&mut self, s: &mut String, mut v: u64) {
        // Room for a comma and the 20 digits of `u64::MAX`.
        if self.len + 21 > self.batch.len() {
            self.flush(s);
        }
        if !self.first {
            self.batch[self.len] = b',';
            self.len += 1;
        }
        self.first = false;
        let n = v.checked_ilog10().map_or(1, |l| l as usize + 1);
        let digits = &mut self.batch[self.len..self.len + n];
        let mut at = n;
        while v >= 100 {
            let pair = 2 * (v % 100) as usize;
            v /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = 2 * v as usize;
            digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            digits[0] = b'0' + v as u8;
        }
        self.len += n;
    }

    /// Moves the batch into `s`; call once more after the last push.
    fn flush(&mut self, s: &mut String) {
        s.push_str(std::str::from_utf8(&self.batch[..self.len]).expect("ASCII digits and commas"));
        self.len = 0;
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    j.get(key)
        .ok_or_else(|| wire_err(format!("missing field `{key}`")))
}

fn u64_field(j: &Json, key: &str) -> Result<u64, WireError> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| wire_err(format!("field `{key}` is not a u64")))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, WireError> {
    field(j, key)?
        .as_bool()
        .ok_or_else(|| wire_err(format!("field `{key}` is not a bool")))
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, WireError> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| wire_err(format!("field `{key}` is not a string")))
}

fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    field(j, key)?
        .as_arr()
        .ok_or_else(|| wire_err(format!("field `{key}` is not an array")))
}

/// Parses a grid spec.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn grid_from_json(j: &Json) -> Result<ScenarioGrid, WireError> {
    let pollers = arr_field(j, "pollers")?
        .iter()
        .map(|p| {
            p.as_str()
                .and_then(PollerKind::from_label)
                .ok_or_else(|| wire_err(format!("unknown poller {p:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let piconets = arr_field(j, "piconets")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|v| u16::try_from(v).ok())
                .ok_or_else(|| wire_err("bad piconet count"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = arr_field(j, "seeds")?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| wire_err("bad seed")))
        .collect::<Result<Vec<_>, _>>()?;
    let topologies = arr_field(j, "topologies")?
        .iter()
        .map(|v| {
            v.as_str()
                .and_then(Topology::from_label)
                .ok_or_else(|| wire_err(format!("unknown topology {v:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let delay_requirements = arr_field(j, "delay_req_ns")?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(SimDuration::from_nanos)
                .ok_or_else(|| wire_err("bad delay requirement"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let chain_deadlines = arr_field(j, "chain_deadline_ns")?
        .iter()
        .map(|v| {
            if v.is_null() {
                Ok(None)
            } else {
                v.as_u64()
                    .map(|ns| Some(SimDuration::from_nanos(ns)))
                    .ok_or_else(|| wire_err("bad chain deadline"))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let be_load_scale = arr_field(j, "be_load_scale")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| wire_err("bad be_load_scale")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScenarioGrid {
        pollers,
        piconets,
        seeds,
        topologies,
        delay_requirements,
        chain_deadlines,
        bidirectional: bool_field(j, "bidirectional")?,
        bridge_cycle: SimDuration::from_nanos(u64_field(j, "bridge_cycle_ns")?),
        horizon: SimTime::from_nanos(u64_field(j, "horizon_ns")?),
        warmup: SimDuration::from_nanos(u64_field(j, "warmup_ns")?),
        include_be: bool_field(j, "include_be")?,
        be_load_scale,
        be_source_mix: BeSourceMix::from_label(str_field(j, "be_source_mix")?)
            .ok_or_else(|| wire_err("unknown be_source_mix"))?,
        telemetry: bool_field(j, "telemetry")?,
    })
}

// ---------------------------------------------------------------------------
// Shard spec (parent → worker)
// ---------------------------------------------------------------------------

/// What a worker receives on stdin: the grid, the shard's identity, and
/// the grid-order indices of the cells it must run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The full grid (workers re-derive identical cells from it).
    pub grid: ScenarioGrid,
    /// The shard's content-addressed id (hex).
    pub shard_id: String,
    /// Grid-order indices of the cells to run.
    pub cells: Vec<usize>,
}

/// Serialises a shard spec.
pub fn shard_spec_to_json(grid: &ScenarioGrid, shard_id: &str, cells: &[usize]) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"grid\":{},\"shard\":\"{}\",\"cells\":[",
        grid_to_json(grid),
        escape(shard_id)
    );
    push_ints(&mut s, cells.iter().map(|&i| i as u64));
    s.push_str("]}");
    s
}

/// Parses a shard spec.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn shard_spec_from_json(src: &str) -> Result<ShardSpec, WireError> {
    let j = Json::parse(src).map_err(|e| wire_err(e.to_string()))?;
    let grid = grid_from_json(field(&j, "grid")?)?;
    let cells = arr_field(&j, "cells")?
        .iter()
        .map(|v| v.as_usize().ok_or_else(|| wire_err("bad cell index")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardSpec {
        grid,
        shard_id: str_field(&j, "shard")?.to_owned(),
        cells,
    })
}

// ---------------------------------------------------------------------------
// Cell frames (worker → parent, checkpoint files, spill archive)
// ---------------------------------------------------------------------------

/// A decoded cell-result frame.
#[derive(Clone, Debug)]
pub struct CellFrame {
    /// Digest of the grid the cell belongs to.
    pub grid_digest: u64,
    /// The cell's index in grid order.
    pub index: usize,
    /// The cell coordinates (cross-checked against the parent's grid).
    pub cell: GridCell,
    /// The measured outcome.
    pub outcome: CellOutcome,
}

/// Serialises one cell result as a single JSON line (no interior
/// newlines).
pub fn frame_to_json(digest: u64, index: usize, cell: &GridCell, outcome: &CellOutcome) -> String {
    let mut s = String::with_capacity(4096);
    let _ = write!(s, "{{\"v\":1,\"grid\":{digest},\"index\":{index},\"cell\":");
    push_cell(&mut s, cell);
    match outcome {
        CellOutcome::Piconet(report) => {
            s.push_str(",\"piconet\":");
            push_run_report(&mut s, report);
        }
        CellOutcome::Scatternet(report, telemetry) => {
            s.push_str(",\"scatternet\":");
            push_scatternet_report(&mut s, report);
            if let Some(t) = telemetry {
                s.push_str(",\"telemetry\":");
                push_telemetry(&mut s, t);
            }
        }
    }
    s.push('}');
    debug_assert!(!s.contains('\n'), "frames must be single lines");
    s
}

/// Parses one cell-result frame.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn frame_from_json(src: &str) -> Result<CellFrame, WireError> {
    let j = Json::parse(src).map_err(|e| wire_err(e.to_string()))?;
    if u64_field(&j, "v")? != 1 {
        return Err(wire_err("unsupported frame version"));
    }
    let cell = cell_from_json(field(&j, "cell")?)?;
    let outcome = match (j.get("piconet"), j.get("scatternet")) {
        (Some(r), None) => CellOutcome::Piconet(run_report_from_json(r)?),
        (None, Some(r)) => CellOutcome::Scatternet(
            scatternet_report_from_json(r)?,
            // Telemetry frames are optional: a frame without one decodes
            // to `None` (an unobserved cell).
            j.get("telemetry")
                .map(telemetry_from_json)
                .transpose()?
                .map(Box::new),
        ),
        _ => return Err(wire_err("frame must carry exactly one outcome")),
    };
    Ok(CellFrame {
        grid_digest: u64_field(&j, "grid")?,
        index: field(&j, "index")?
            .as_usize()
            .ok_or_else(|| wire_err("field `index` is not a usize"))?,
        cell,
        outcome,
    })
}

fn push_cell(s: &mut String, c: &GridCell) {
    let _ = write!(
        s,
        "{{\"poller\":\"{}\",\"piconets\":{},\"seed\":{},\"topo\":\"{}\",\"dreq_ns\":{},\"cd_ns\":",
        escape(&c.poller.label()),
        c.piconets,
        c.seed,
        c.topology.label(),
        c.delay_requirement.as_nanos(),
    );
    match c.chain_deadline {
        None => s.push_str("null"),
        Some(d) => {
            let _ = write!(s, "{}", d.as_nanos());
        }
    }
    let _ = write!(
        s,
        ",\"bi\":{},\"bridge_ns\":{},\"horizon_ns\":{},\"warmup_ns\":{},\
         \"be\":{},\"bl\":{:?},\"mix\":\"{}\",\"telemetry\":{}}}",
        c.bidirectional,
        c.bridge_cycle.as_nanos(),
        c.horizon.as_nanos(),
        c.warmup.as_nanos(),
        c.include_be,
        c.be_load_scale,
        c.be_source_mix.label(),
        c.telemetry,
    );
}

fn cell_from_json(j: &Json) -> Result<GridCell, WireError> {
    let cd = field(j, "cd_ns")?;
    Ok(GridCell {
        poller: PollerKind::from_label(str_field(j, "poller")?)
            .ok_or_else(|| wire_err("unknown poller"))?,
        piconets: u16::try_from(u64_field(j, "piconets")?)
            .map_err(|_| wire_err("bad piconet count"))?,
        seed: u64_field(j, "seed")?,
        topology: Topology::from_label(str_field(j, "topo")?)
            .ok_or_else(|| wire_err("unknown topology"))?,
        delay_requirement: SimDuration::from_nanos(u64_field(j, "dreq_ns")?),
        chain_deadline: if cd.is_null() {
            None
        } else {
            Some(SimDuration::from_nanos(
                cd.as_u64().ok_or_else(|| wire_err("bad cd_ns"))?,
            ))
        },
        bidirectional: bool_field(j, "bi")?,
        bridge_cycle: SimDuration::from_nanos(u64_field(j, "bridge_ns")?),
        horizon: SimTime::from_nanos(u64_field(j, "horizon_ns")?),
        warmup: SimDuration::from_nanos(u64_field(j, "warmup_ns")?),
        include_be: bool_field(j, "be")?,
        be_load_scale: field(j, "bl")?.as_f64().ok_or_else(|| wire_err("bad bl"))?,
        be_source_mix: BeSourceMix::from_label(str_field(j, "mix")?)
            .ok_or_else(|| wire_err("unknown mix"))?,
        telemetry: bool_field(j, "telemetry")?,
    })
}

// ---------------------------------------------------------------------------
// Report serialisation
// ---------------------------------------------------------------------------

fn direction_code(d: Direction) -> &'static str {
    match d {
        Direction::MasterToSlave => "ms",
        Direction::SlaveToMaster => "sm",
    }
}

fn direction_from(code: &str) -> Result<Direction, WireError> {
    match code {
        "ms" => Ok(Direction::MasterToSlave),
        "sm" => Ok(Direction::SlaveToMaster),
        _ => Err(wire_err(format!("unknown direction {code:?}"))),
    }
}

fn channel_code(c: LogicalChannel) -> &'static str {
    match c {
        LogicalChannel::GuaranteedService => "gs",
        LogicalChannel::BestEffort => "be",
    }
}

fn channel_from(code: &str) -> Result<LogicalChannel, WireError> {
    match code {
        "gs" => Ok(LogicalChannel::GuaranteedService),
        "be" => Ok(LogicalChannel::BestEffort),
        _ => Err(wire_err(format!("unknown channel {code:?}"))),
    }
}

fn packet_type_code(t: PacketType) -> &'static str {
    match t {
        PacketType::Poll => "poll",
        PacketType::Null => "null",
        PacketType::Dm1 => "dm1",
        PacketType::Dm3 => "dm3",
        PacketType::Dm5 => "dm5",
        PacketType::Dh1 => "dh1",
        PacketType::Dh3 => "dh3",
        PacketType::Dh5 => "dh5",
        PacketType::Hv1 => "hv1",
        PacketType::Hv2 => "hv2",
        PacketType::Hv3 => "hv3",
    }
}

fn packet_type_from(code: &str) -> Result<PacketType, WireError> {
    [
        PacketType::Poll,
        PacketType::Null,
        PacketType::Dm1,
        PacketType::Dm3,
        PacketType::Dm5,
        PacketType::Dh1,
        PacketType::Dh3,
        PacketType::Dh5,
        PacketType::Hv1,
        PacketType::Hv2,
        PacketType::Hv3,
    ]
    .into_iter()
    .find(|&t| packet_type_code(t) == code)
    .ok_or_else(|| wire_err(format!("unknown packet type {code:?}")))
}

fn slave_from(v: u64) -> Result<AmAddr, WireError> {
    u8::try_from(v)
        .ok()
        .and_then(AmAddr::new)
        .ok_or_else(|| wire_err(format!("bad slave address {v}")))
}

fn push_flow_spec(s: &mut String, f: &FlowSpec) {
    let _ = write!(
        s,
        "{{\"id\":{},\"slave\":{},\"dir\":\"{}\",\"chan\":\"{}\",\"types\":",
        f.id.0,
        f.slave.get(),
        direction_code(f.direction),
        channel_code(f.channel),
    );
    match &f.allowed_types {
        None => s.push_str("null"),
        Some(types) => {
            s.push('[');
            for (i, &t) in types.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", packet_type_code(t));
            }
            s.push(']');
        }
    }
    s.push('}');
}

fn flow_spec_from_json(j: &Json) -> Result<FlowSpec, WireError> {
    let mut spec = FlowSpec::new(
        FlowId(u32::try_from(u64_field(j, "id")?).map_err(|_| wire_err("flow id out of range"))?),
        slave_from(u64_field(j, "slave")?)?,
        direction_from(str_field(j, "dir")?)?,
        channel_from(str_field(j, "chan")?)?,
    );
    let types = field(j, "types")?;
    if !types.is_null() {
        let list = types
            .as_arr()
            .ok_or_else(|| wire_err("`types` is not an array"))?
            .iter()
            .map(|t| {
                t.as_str()
                    .ok_or_else(|| wire_err("bad packet type"))
                    .and_then(packet_type_from)
            })
            .collect::<Result<Vec<_>, _>>()?;
        spec = spec.with_allowed_types(list);
    }
    Ok(spec)
}

fn push_delay(s: &mut String, d: &DelayStats) {
    s.push('[');
    let mut list = IntList::new();
    d.for_each_nanos(|ns| list.push(s, ns));
    list.flush(s);
    s.push(']');
}

fn delay_from_json(j: &Json) -> Result<DelayStats, WireError> {
    let samples = j
        .as_arr()
        .ok_or_else(|| wire_err("delay samples are not an array"))?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| wire_err("bad delay sample")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DelayStats::from_nanos_samples(samples))
}

fn push_flow_report(s: &mut String, id: FlowId, r: &FlowReport) {
    let _ = write!(
        s,
        "{{\"id\":{},\"op\":{},\"ob\":{},\"dp\":{},\"db\":{},\"lb\":{},\"delay\":",
        id.0,
        r.offered_packets,
        r.offered_bytes,
        r.delivered_packets,
        r.delivered_bytes,
        r.lost_bytes,
    );
    push_delay(s, &r.delay);
    s.push('}');
}

fn flow_report_from_json(j: &Json) -> Result<(FlowId, FlowReport), WireError> {
    Ok((
        FlowId(u32::try_from(u64_field(j, "id")?).map_err(|_| wire_err("flow id out of range"))?),
        FlowReport {
            offered_packets: u64_field(j, "op")?,
            offered_bytes: u64_field(j, "ob")?,
            delivered_packets: u64_field(j, "dp")?,
            delivered_bytes: u64_field(j, "db")?,
            lost_bytes: u64_field(j, "lb")?,
            delay: delay_from_json(field(j, "delay")?)?,
        },
    ))
}

fn push_ledger(s: &mut String, l: &SlotLedger) {
    let _ = write!(
        s,
        "{{\"gd\":{},\"go\":{},\"gr\":{},\"bd\":{},\"bo\":{},\"br\":{},\"sco\":{}}}",
        l.gs_data, l.gs_overhead, l.gs_retx, l.be_data, l.be_overhead, l.be_retx, l.sco
    );
}

fn ledger_from_json(j: &Json) -> Result<SlotLedger, WireError> {
    Ok(SlotLedger {
        gs_data: u64_field(j, "gd")?,
        gs_overhead: u64_field(j, "go")?,
        gs_retx: u64_field(j, "gr")?,
        be_data: u64_field(j, "bd")?,
        be_overhead: u64_field(j, "bo")?,
        be_retx: u64_field(j, "br")?,
        sco: u64_field(j, "sco")?,
    })
}

fn push_polls(s: &mut String, p: &PollCounters) {
    let _ = write!(s, "[{},{}]", p.successful, p.unsuccessful);
}

fn polls_from_json(j: &Json) -> Result<PollCounters, WireError> {
    let arr = j
        .as_arr()
        .ok_or_else(|| wire_err("poll counters are not an array"))?;
    match arr {
        [s, u] => Ok(PollCounters {
            successful: s.as_u64().ok_or_else(|| wire_err("bad poll counter"))?,
            unsuccessful: u.as_u64().ok_or_else(|| wire_err("bad poll counter"))?,
        }),
        _ => Err(wire_err("poll counters need exactly two entries")),
    }
}

/// Serialises a [`RunReport`] with full sample fidelity.
pub fn run_report_to_json(r: &RunReport) -> String {
    let mut s = String::with_capacity(4096);
    push_run_report(&mut s, r);
    s
}

fn push_run_report(s: &mut String, r: &RunReport) {
    let _ = write!(
        s,
        "{{\"ws\":{},\"we\":{},\"poller\":\"{}\",\"events\":{},\"flows\":[",
        r.window_start.as_nanos(),
        r.window_end.as_nanos(),
        escape(&r.poller),
        r.events_processed,
    );
    for (i, f) in r.flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_flow_spec(s, f);
    }
    s.push_str("],\"sco\":[");
    for (i, (id, slave)) in r.sco_flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{}]", id.0, slave.get());
    }
    s.push_str("],\"ledger\":");
    push_ledger(s, &r.ledger);
    s.push_str(",\"gs_polls\":");
    push_polls(s, &r.gs_polls);
    s.push_str(",\"be_polls\":");
    push_polls(s, &r.be_polls);
    s.push_str(",\"per_flow\":[");
    // BTreeMap iteration is id-sorted — a canonical order.
    for (i, (id, fr)) in r.per_flow.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_flow_report(s, *id, fr);
    }
    s.push_str("]}");
}

/// Parses a [`RunReport`].
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn run_report_from_json(j: &Json) -> Result<RunReport, WireError> {
    let flows = arr_field(j, "flows")?
        .iter()
        .map(flow_spec_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let sco_flows = arr_field(j, "sco")?
        .iter()
        .map(|pair| {
            let arr = pair.as_arr().ok_or_else(|| wire_err("bad sco entry"))?;
            match arr {
                [id, slave] => Ok((
                    FlowId(
                        id.as_u64()
                            .and_then(|v| u32::try_from(v).ok())
                            .ok_or_else(|| wire_err("bad sco flow id"))?,
                    ),
                    slave_from(slave.as_u64().ok_or_else(|| wire_err("bad sco slave"))?)?,
                )),
                _ => Err(wire_err("sco entries are [id, slave] pairs")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut per_flow = BTreeMap::new();
    for entry in arr_field(j, "per_flow")? {
        let (id, report) = flow_report_from_json(entry)?;
        if per_flow.insert(id, report).is_some() {
            return Err(wire_err(format!("duplicate per-flow report for {id}")));
        }
    }
    // Consumers look every listed flow up by id (`RunReport::flow`).
    if let Some(f) = flows.iter().find(|f| !per_flow.contains_key(&f.id)) {
        return Err(wire_err(format!("flow {} has no per-flow report", f.id)));
    }
    Ok(RunReport {
        window_start: SimTime::from_nanos(u64_field(j, "ws")?),
        window_end: SimTime::from_nanos(u64_field(j, "we")?),
        flows,
        sco_flows,
        per_flow,
        ledger: ledger_from_json(field(j, "ledger")?)?,
        gs_polls: polls_from_json(field(j, "gs_polls")?)?,
        be_polls: polls_from_json(field(j, "be_polls")?)?,
        events_processed: u64_field(j, "events")?,
        poller: str_field(j, "poller")?.to_owned(),
    })
}

fn push_chain_report(s: &mut String, c: &ChainReport) {
    s.push_str("{\"hops\":[");
    push_ints(s, c.hops.iter().map(|h| u64::from(h.0)));
    let _ = write!(
        s,
        "],\"relayed\":{},\"delivered\":{},\"e2e\":",
        c.relayed_packets, c.delivered_packets,
    );
    push_delay(s, &c.e2e);
    s.push_str(",\"residence\":");
    push_delay(s, &c.residence);
    s.push('}');
}

fn chain_report_from_json(j: &Json) -> Result<ChainReport, WireError> {
    Ok(ChainReport {
        hops: arr_field(j, "hops")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .map(FlowId)
                    .ok_or_else(|| wire_err("bad hop id"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        relayed_packets: u64_field(j, "relayed")?,
        delivered_packets: u64_field(j, "delivered")?,
        e2e: delay_from_json(field(j, "e2e")?)?,
        residence: delay_from_json(field(j, "residence")?)?,
    })
}

/// Serialises a [`ScatternetReport`] with full sample fidelity.
pub fn scatternet_report_to_json(r: &ScatternetReport) -> String {
    let mut s = String::with_capacity(8192);
    push_scatternet_report(&mut s, r);
    s
}

fn push_scatternet_report(s: &mut String, r: &ScatternetReport) {
    s.push_str("{\"piconets\":[");
    for (i, p) in r.piconets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_run_report(s, p);
    }
    s.push_str("],\"chains\":[");
    for (i, c) in r.chains.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_chain_report(s, c);
    }
    let _ = write!(
        s,
        "],\"events\":{},\"phases\":{},\"barrier_rounds\":{},\"islands_claimed\":{},\"relays_staged\":{},\"widening_stretches\":{},\"islands_skipped_idle\":{},\"relays_injected\":{}}}",
        r.events_processed,
        r.phases_run,
        r.barrier_rounds,
        r.islands_claimed,
        r.relays_staged,
        r.widening_stretches,
        r.islands_skipped_idle,
        r.relays_injected,
    );
}

/// Parses a [`ScatternetReport`].
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn scatternet_report_from_json(j: &Json) -> Result<ScatternetReport, WireError> {
    Ok(ScatternetReport {
        piconets: arr_field(j, "piconets")?
            .iter()
            .map(run_report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        chains: arr_field(j, "chains")?
            .iter()
            .map(chain_report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        events_processed: u64_field(j, "events")?,
        phases_run: u64_field(j, "phases")?,
        barrier_rounds: u64_field(j, "barrier_rounds")?,
        islands_claimed: u64_field(j, "islands_claimed")?,
        relays_staged: u64_field(j, "relays_staged")?,
        widening_stretches: u64_field(j, "widening_stretches")?,
        islands_skipped_idle: u64_field(j, "islands_skipped_idle")?,
        relays_injected: u64_field(j, "relays_injected")?,
    })
}

fn push_histo(s: &mut String, h: &Histo32) {
    s.push_str("{\"counts\":[");
    push_ints(s, h.counts.iter().copied());
    let _ = write!(s, "],\"count\":{},\"sum\":{}}}", h.count, h.sum);
}

fn histo_from_json(j: &Json) -> Result<Histo32, WireError> {
    let raw = arr_field(j, "counts")?;
    if raw.len() != 32 {
        return Err(wire_err(format!("histogram has {} buckets", raw.len())));
    }
    let mut counts = [0u64; 32];
    for (c, v) in counts.iter_mut().zip(raw.iter()) {
        *c = v.as_u64().ok_or_else(|| wire_err("bad histogram bucket"))?;
    }
    Ok(Histo32 {
        counts,
        count: u64_field(j, "count")?,
        sum: u64_field(j, "sum")?,
    })
}

/// Serialises a [`TelemetryReport`] (the optional per-shard telemetry
/// frame payload; also the `btgs-obs` CLI's `--telemetry` output).
pub fn telemetry_to_json(t: &TelemetryReport) -> String {
    let mut s = String::with_capacity(1024);
    push_telemetry(&mut s, t);
    s
}

fn push_telemetry(s: &mut String, t: &TelemetryReport) {
    let _ = write!(
        s,
        "{{\"events\":{},\"phases\":{},\"barrier_rounds\":{},\"islands_claimed\":{},\
         \"relays_staged\":{},\"relays_injected\":{},\"widening_stretches\":{},\
         \"islands_skipped_idle\":{},\"gs_polls_successful\":{},\"gs_polls_unsuccessful\":{},\
         \"be_polls_successful\":{},\"be_polls_unsuccessful\":{},\"trace_dropped\":{}",
        t.events_processed,
        t.phases_run,
        t.barrier_rounds,
        t.islands_claimed,
        t.relays_staged,
        t.relays_injected,
        t.widening_stretches,
        t.islands_skipped_idle,
        t.gs_polls_successful,
        t.gs_polls_unsuccessful,
        t.be_polls_successful,
        t.be_polls_unsuccessful,
        t.trace_dropped,
    );
    for (key, h) in [
        ("phase_width_ns", &t.phase_width_ns),
        ("relay_pool", &t.relay_pool),
        ("wheel_pending", &t.wheel_pending),
        ("wheel_near", &t.wheel_near),
        ("events_per_claim", &t.events_per_claim),
    ] {
        let _ = write!(s, ",\"{key}\":");
        push_histo(s, h);
    }
    s.push('}');
}

/// Parses a [`TelemetryReport`].
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn telemetry_from_json(j: &Json) -> Result<TelemetryReport, WireError> {
    Ok(TelemetryReport {
        events_processed: u64_field(j, "events")?,
        phases_run: u64_field(j, "phases")?,
        barrier_rounds: u64_field(j, "barrier_rounds")?,
        islands_claimed: u64_field(j, "islands_claimed")?,
        relays_staged: u64_field(j, "relays_staged")?,
        relays_injected: u64_field(j, "relays_injected")?,
        widening_stretches: u64_field(j, "widening_stretches")?,
        islands_skipped_idle: u64_field(j, "islands_skipped_idle")?,
        gs_polls_successful: u64_field(j, "gs_polls_successful")?,
        gs_polls_unsuccessful: u64_field(j, "gs_polls_unsuccessful")?,
        be_polls_successful: u64_field(j, "be_polls_successful")?,
        be_polls_unsuccessful: u64_field(j, "be_polls_unsuccessful")?,
        phase_width_ns: histo_from_json(field(j, "phase_width_ns")?)?,
        relay_pool: histo_from_json(field(j, "relay_pool")?)?,
        wheel_pending: histo_from_json(field(j, "wheel_pending")?)?,
        wheel_near: histo_from_json(field(j, "wheel_near")?)?,
        events_per_claim: histo_from_json(field(j, "events_per_claim")?)?,
        trace_dropped: u64_field(j, "trace_dropped")?,
    })
}

// ---------------------------------------------------------------------------
// Length-prefixed framing
// ---------------------------------------------------------------------------

/// Writes one frame: ASCII decimal payload length, `\n`, payload, `\n`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> io::Result<()> {
    write!(w, "{}\n{payload}\n", payload.len())
}

/// Reads length-prefixed frames off a byte stream, tracking how many
/// bytes formed *complete* frames so torn tails can be truncated away.
pub struct FrameReader<R> {
    inner: R,
    /// Bytes consumed by fully-read frames (prefix + payload + newline).
    consumed: u64,
}

/// One `FrameReader::next_frame` outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame's payload.
    Frame(String),
    /// Clean end of stream (no partial data).
    Eof,
    /// The stream ended mid-frame (crash tear); the partial bytes after
    /// [`FrameReader::consumed`] should be discarded.
    Torn,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, consumed: 0 }
    }

    /// Bytes consumed by complete frames so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Reads the next frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader; malformed
    /// prefixes and truncation are reported as [`FrameRead::Torn`], not
    /// errors, because they are the expected signature of a killed
    /// writer.
    pub fn next_frame(&mut self) -> io::Result<FrameRead> {
        // Length prefix line.
        let mut prefix = String::new();
        let got = self.inner.read_line(&mut prefix)?;
        if got == 0 {
            return Ok(FrameRead::Eof);
        }
        if !prefix.ends_with('\n') {
            return Ok(FrameRead::Torn);
        }
        let Ok(len) = prefix.trim().parse::<usize>() else {
            return Ok(FrameRead::Torn);
        };
        // Guard against absurd prefixes from corruption: refuse to
        // allocate more than 1 GiB for one frame.
        if len > 1 << 30 {
            return Ok(FrameRead::Torn);
        }
        let mut payload = vec![0u8; len + 1];
        let mut filled = 0;
        while filled < payload.len() {
            let n = self.inner.read(&mut payload[filled..])?;
            if n == 0 {
                return Ok(FrameRead::Torn);
            }
            filled += n;
        }
        if payload.pop() != Some(b'\n') {
            return Ok(FrameRead::Torn);
        }
        match String::from_utf8(payload) {
            Ok(text) => {
                self.consumed += (prefix.len() + len + 1) as u64;
                Ok(FrameRead::Frame(text))
            }
            Err(_) => Ok(FrameRead::Torn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_grid() -> ScenarioGrid {
        ScenarioGrid {
            pollers: vec![
                PollerKind::PfpGs,
                PollerKind::Custom(btgs_core::Improvements::ALL),
            ],
            piconets: vec![1, 2],
            seeds: vec![1, u64::MAX],
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon: SimTime::from_secs(2),
            warmup: SimDuration::from_millis(500),
            include_be: true,
            be_load_scale: vec![0.5, 1.0, 1.75],
            be_source_mix: BeSourceMix::Poisson,
            telemetry: false,
        }
    }

    fn grids_equal(a: &ScenarioGrid, b: &ScenarioGrid) -> bool {
        grid_to_json(a) == grid_to_json(b)
    }

    #[test]
    fn grid_spec_round_trips_and_digest_is_content_addressed() {
        let grid = sample_grid();
        let json = grid_to_json(&grid);
        let parsed = grid_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(grids_equal(&grid, &parsed));
        assert_eq!(grid_digest(&grid), grid_digest(&parsed));

        // Any change to any axis changes the digest.
        let mut other = sample_grid();
        other.seeds.push(7);
        assert_ne!(grid_digest(&grid), grid_digest(&other));
        let mut other = sample_grid();
        other.be_load_scale[0] = 0.25;
        assert_ne!(grid_digest(&grid), grid_digest(&other));
        let mut other = sample_grid();
        other.be_source_mix = BeSourceMix::Cbr;
        assert_ne!(grid_digest(&grid), grid_digest(&other));
    }

    #[test]
    fn shard_spec_round_trips() {
        let grid = sample_grid();
        let json = shard_spec_to_json(&grid, "abc123", &[0, 5, 9]);
        let spec = shard_spec_from_json(&json).unwrap();
        assert!(grids_equal(&grid, &spec.grid));
        assert_eq!(spec.shard_id, "abc123");
        assert_eq!(spec.cells, vec![0, 5, 9]);
    }

    #[test]
    fn cell_frame_round_trips_single_piconet() {
        let mut grid = sample_grid();
        grid.piconets = vec![1];
        grid.seeds = vec![3];
        grid.pollers = vec![PollerKind::PfpGs];
        grid.be_load_scale = vec![1.75];
        grid.horizon = SimTime::from_secs(1);
        let cell = grid.cells()[0];
        let outcome = cell.simulate();
        let digest = grid_digest(&grid);
        let json = frame_to_json(digest, 0, &cell, &outcome);
        assert!(!json.contains('\n'));
        let frame = frame_from_json(&json).unwrap();
        assert_eq!(frame.grid_digest, digest);
        assert_eq!(frame.index, 0);
        assert_eq!(frame.cell, cell);
        // Full fidelity: reassembled results are byte-identical through
        // the digest.
        let direct = btgs_core::CellResult::reassemble(cell, outcome);
        let parsed = btgs_core::CellResult::reassemble(cell, frame.outcome);
        let a = btgs_core::GridReport {
            cells: vec![direct],
        };
        let b = btgs_core::GridReport {
            cells: vec![parsed],
        };
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.summary_table().render(), b.summary_table().render());
        assert_eq!(a.cells[0].gs_violations(), b.cells[0].gs_violations());
        assert_eq!(
            a.cells[0].report.flow(FlowId(1)).delay.quantile(0.5),
            b.cells[0].report.flow(FlowId(1)).delay.quantile(0.5),
        );
    }

    #[test]
    fn cell_frame_round_trips_scatternet() {
        let mut grid = sample_grid();
        grid.piconets = vec![2];
        grid.seeds = vec![1];
        grid.pollers = vec![PollerKind::PfpGs];
        grid.be_load_scale = vec![1.0];
        grid.be_source_mix = BeSourceMix::Cbr;
        grid.horizon = SimTime::from_secs(1);
        grid.warmup = SimDuration::from_millis(200);
        let cell = grid.cells()[0];
        let outcome = cell.simulate();
        let json = frame_to_json(grid_digest(&grid), 0, &cell, &outcome);
        let frame = frame_from_json(&json).unwrap();
        let direct = btgs_core::GridReport {
            cells: vec![btgs_core::CellResult::reassemble(cell, outcome)],
        };
        let parsed = btgs_core::GridReport {
            cells: vec![btgs_core::CellResult::reassemble(cell, frame.outcome)],
        };
        assert_eq!(direct.digest(), parsed.digest());
        let sn = parsed.cells[0].scatternet.as_ref().unwrap();
        assert_eq!(sn.report.piconets.len(), 2);
        assert!(sn.report.chains[0].delivered_packets > 0);
        assert_eq!(
            sn.report.chains[0].e2e.sum_nanos(),
            direct.cells[0].scatternet.as_ref().unwrap().report.chains[0]
                .e2e
                .sum_nanos(),
            "exact sums survive the wire"
        );
    }

    #[test]
    fn telemetry_rides_frames_and_leaves_digests_alone() {
        let mut grid = sample_grid();
        grid.piconets = vec![2];
        grid.seeds = vec![1];
        grid.pollers = vec![PollerKind::PfpGs];
        grid.be_load_scale = vec![1.0];
        grid.be_source_mix = BeSourceMix::Cbr;
        grid.horizon = SimTime::from_secs(1);
        grid.warmup = SimDuration::from_millis(200);
        let plain_cell = grid.cells()[0];
        grid.telemetry = true;
        let cell = grid.cells()[0];
        assert!(cell.telemetry, "the grid flag reaches its cells");

        let outcome = cell.simulate();
        let CellOutcome::Scatternet(_, Some(telemetry)) = &outcome else {
            panic!("observed scatternet cells carry telemetry");
        };
        assert!(telemetry.events_processed > 0);
        assert!(telemetry.phases_run > 0);
        assert!(telemetry.phase_width_ns.count > 0);

        // The telemetry object round-trips exactly.
        let json = telemetry_to_json(telemetry);
        let parsed = telemetry_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, **telemetry);

        // It rides the cell frame as an optional field…
        let frame_json = frame_to_json(grid_digest(&grid), 0, &cell, &outcome);
        let frame = frame_from_json(&frame_json).unwrap();
        let CellOutcome::Scatternet(_, Some(shipped)) = &frame.outcome else {
            panic!("the frame dropped its telemetry");
        };
        assert_eq!(*shipped, *telemetry);

        // …and the observed cell's measured report is byte-identical to
        // the unobserved run of the same coordinates.
        let plain = btgs_core::GridReport {
            cells: vec![plain_cell.run()],
        };
        let observed = btgs_core::GridReport {
            cells: vec![btgs_core::CellResult::reassemble(cell, frame.outcome)],
        };
        assert_eq!(plain.digest(), observed.digest());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(frame_from_json("{}").is_err());
        assert!(frame_from_json("not json").is_err());
        // Wrong version.
        assert!(frame_from_json(r#"{"v":2,"grid":1,"index":0}"#).is_err());
        // Both outcomes at once.
        let err =
            frame_from_json(r#"{"v":1,"grid":1,"index":0,"cell":{},"piconet":{},"scatternet":{}}"#)
                .unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn framing_detects_torn_tails() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "{\"b\":2}").unwrap();
        let complete = buf.len() as u64;
        // A torn third frame: prefix promises more bytes than exist.
        buf.extend_from_slice(b"999\n{\"c\":");
        let mut reader = FrameReader::new(Cursor::new(&buf));
        assert_eq!(
            reader.next_frame().unwrap(),
            FrameRead::Frame("{\"a\":1}".into())
        );
        assert_eq!(
            reader.next_frame().unwrap(),
            FrameRead::Frame("{\"b\":2}".into())
        );
        assert_eq!(reader.next_frame().unwrap(), FrameRead::Torn);
        assert_eq!(reader.consumed(), complete);

        // Clean EOF after complete frames.
        let mut reader = FrameReader::new(Cursor::new(&buf[..complete as usize]));
        let _ = reader.next_frame().unwrap();
        let _ = reader.next_frame().unwrap();
        assert_eq!(reader.next_frame().unwrap(), FrameRead::Eof);

        // Garbage prefix is torn, not a parse panic.
        let mut reader = FrameReader::new(Cursor::new(b"xyz\n{}".as_slice()));
        assert_eq!(reader.next_frame().unwrap(), FrameRead::Torn);
        // Absurd length prefix is torn, not an allocation attempt.
        let mut reader = FrameReader::new(Cursor::new(b"99999999999\n".as_slice()));
        assert_eq!(reader.next_frame().unwrap(), FrameRead::Torn);
    }

    #[test]
    fn flow_spec_with_allowed_types_round_trips() {
        let spec = FlowSpec::new(
            FlowId(9),
            AmAddr::new(4).unwrap(),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        )
        .with_allowed_types(vec![PacketType::Dh1, PacketType::Dm3]);
        let mut json = String::new();
        push_flow_spec(&mut json, &spec);
        let parsed = flow_spec_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn int_lists_print_like_display() {
        let mut values = vec![0, 1, 9, 10, 99, 100, 101, u64::MAX, u64::MAX - 1];
        for p in 1..20 {
            let ten = 10u64.pow(p);
            values.extend([ten - 1, ten, ten + 1]);
        }
        // Enough values to flush the batch several times.
        values.extend((0..2000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let want = values
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut got = String::from("x");
        push_ints(&mut got, values.iter().copied());
        assert_eq!(got, format!("x{want}"));
        let mut empty = String::new();
        push_ints(&mut empty, std::iter::empty());
        assert_eq!(empty, "");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
