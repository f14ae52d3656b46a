//! Wire-codec guards: the encoder's exact output bytes, hostile input,
//! and linear-time decoding.
//!
//! * The FNV-1a digests of three fixed frames pin the encoder byte for
//!   byte, so a format change is always deliberate, and a ceiling on one
//!   frame's length keeps delay samples in sample blocks.
//! * Truncated and byte-flipped real frames must decode to `Ok` or `Err`,
//!   never panic.
//! * Multi-MiB inputs must parse within a budget that any quadratic
//!   scanner misses by orders of magnitude.

use btgs_core::{BeSourceMix, CellOutcome, Improvements, PollerKind, ScenarioGrid, Topology};
use btgs_des::{DetRng, SimDuration, SimTime};
use btgs_grid::json::Json;
use btgs_grid::wire::{fnv1a64, frame_from_json, frame_to_json, grid_digest};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A one-cell grid: `piconets` piconets, one second of simulated time.
fn grid(piconets: u16, telemetry: bool) -> ScenarioGrid {
    ScenarioGrid {
        pollers: vec![if piconets == 1 {
            PollerKind::PfpGs
        } else {
            PollerKind::Custom(Improvements::ALL)
        }],
        piconets: vec![piconets],
        seeds: vec![7],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_secs(1),
        warmup: SimDuration::from_millis(200),
        include_be: true,
        be_load_scale: vec![if piconets == 1 { 1.75 } else { 1.0 }],
        be_source_mix: if piconets == 1 {
            BeSourceMix::Poisson
        } else {
            BeSourceMix::Cbr
        },
        telemetry,
    }
}

/// The encoded frame of the grid's only cell.
fn frame(grid: &ScenarioGrid) -> String {
    let cell = grid.cells()[0];
    frame_to_json(grid_digest(grid), 0, &cell, &cell.simulate())
}

/// The digests cover the simulated reports too: a deliberate change to
/// simulated behaviour or to the frame format must refresh them, and
/// then old checkpoints no longer replay.
///
/// All three digests moved with frame version 2, which writes each
/// delay-sample set as one sorted, delta-coded sample block instead of a
/// decimal array; every report inside the frames stayed identical.
#[test]
fn encoder_bytes_are_pinned() {
    let mut changed = Vec::new();
    for (what, grid, expected) in [
        ("1-piconet", grid(1, false), 0xb9f7_016e_0f4e_10ca_u64),
        // The two 2-piconet digests also moved when adaptive phase
        // widening was deleted: this cell's one widened phase became two,
        // so the engine counters read `phases` 50 → 51, `islands_claimed`
        // 100 → 102 and `widening_stretches` 1 → 0, and the telemetry's
        // per-phase and per-claim histograms gained the extra samples.
        // Every simulated report inside the frame stayed identical.
        ("2-piconet", grid(2, false), 0xb2b9_ae4f_4cd2_4b36),
        // Its telemetry's `wheel_near` histogram counts every entry the
        // island's event queue stores. This digest also moved when the
        // sorted buffer replaced the timing wheel, whose count covered
        // only its first level, and again when the wake-up became the
        // queue's timer: the buffer no longer keeps cancelled wake-ups,
        // so `wheel_near` equals `wheel_pending` and its sum read 947 →
        // 945. Both times the reports inside the frame stayed identical.
        (
            "2-piconet + telemetry",
            grid(2, true),
            0x0a00_c46d_f693_53c1,
        ),
    ] {
        let json = frame(&grid);
        let got = fnv1a64(json.as_bytes());
        if got != expected {
            changed.push(format!("{what}: {} bytes, fnv1a64 {got:#018x}", json.len()));
        }
    }
    assert!(changed.is_empty(), "frame bytes changed: {changed:#?}");
}

/// The 1-piconet frame took 4,881 B with decimal sample arrays (frame
/// v1) and takes 3,156 B with sample blocks.
const ONE_PICONET_FRAME_CEILING: usize = 4_000;

#[test]
fn delay_samples_travel_as_sample_blocks() {
    let len = frame(&grid(1, false)).len();
    assert!(
        len <= ONE_PICONET_FRAME_CEILING,
        "the 1-piconet frame is {len} B, over its {ONE_PICONET_FRAME_CEILING} B ceiling: \
         delay samples must travel as sorted delta-varint sample blocks (3,156 B), \
         not as decimal arrays (4,881 B)"
    );
}

#[test]
fn frame_index_must_be_a_usize() {
    let json = frame(&grid(1, false));
    assert!(frame_from_json(&json).is_ok());
    for bad in ["-1", "1.5", "\"0\"", "null", "99999999999999999999"] {
        let mangled = json.replacen("\"index\":0", &format!("\"index\":{bad}"), 1);
        let err = frame_from_json(&mangled).unwrap_err();
        assert!(err.to_string().contains("index"), "{bad}: {err}");
    }
}

#[test]
fn a_listed_flow_needs_its_per_flow_report() {
    let grid = grid(1, false);
    let cell = grid.cells()[0];
    let CellOutcome::Piconet(mut report) = cell.simulate() else {
        unreachable!("a 1-piconet cell has a piconet outcome");
    };
    let id = report.flows[0].id;
    report.per_flow.remove(&id);
    let json = frame_to_json(grid_digest(&grid), 0, &cell, &CellOutcome::Piconet(report));
    let err = frame_from_json(&json).unwrap_err();
    assert!(err.to_string().contains("per-flow report"), "{err}");
}

#[test]
fn truncated_and_flipped_frames_never_panic() {
    let json = frame(&grid(1, false));
    assert!(frame_from_json(&json).is_ok());

    // Every cut at a stride of lengths (plus the last few bytes) is an
    // error: a frame is one JSON object, so no proper prefix parses.
    let cuts = (0..json.len()).step_by(7).chain(json.len() - 8..json.len());
    for cut in cuts {
        assert!(
            frame_from_json(&json[..cut]).is_err(),
            "a {cut}-byte prefix decoded"
        );
    }

    // Single-byte flips at DetRng-chosen positions: any outcome but a
    // panic. The frame is ASCII, and so is every replacement byte, so
    // each mutant is a valid `&str`.
    let mut rng = DetRng::seed_from_u64(0x00c0_ffee);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..2000 {
        let mut bytes = json.clone().into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] = match rng.below(3) {
            // Flip one of the seven ASCII bits.
            0 => bytes[at] ^ (1 << rng.below(7)),
            // A structural byte.
            1 => b"{}[],:\"\\-.e0"[rng.below(12) as usize],
            // Any ASCII byte, control bytes included.
            _ => rng.below(128) as u8,
        };
        let mutant = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        match frame_from_json(&mutant) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    // Flips in counters and in sample-block symbols that keep every
    // varint's length still decode (to other values); flips in keys,
    // labels and structure, or ones that break a block's varints or its
    // base64, do not. Both kinds occur.
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}

/// The wall-clock budget for each linear-time case: generous for a
/// debug build, and orders of magnitude short of a quadratic scan.
const BUDGET: Duration = Duration::from_secs(5);

/// Parses `text` on a helper thread and fails once `BUDGET` passes, so a
/// quadratic regression fails in seconds instead of hanging the suite.
/// The thread is deliberately left unjoined on timeout; a panic inside
/// it drops the sender and fails the receive.
fn parse_within_budget(text: String) -> Json {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(Json::parse(&text));
    });
    match rx.recv_timeout(BUDGET) {
        Ok(parsed) => parsed.expect("the input is valid JSON"),
        Err(e) => panic!("parsing missed its {BUDGET:?} budget: {e}"),
    }
}

#[test]
fn a_multi_mib_string_parses_in_linear_time() {
    // 4 MiB of two-byte characters with an escape every 4 KiB, so runs
    // restart throughout.
    let chunk = format!("{}\\n", "é".repeat(2047));
    let v = parse_within_budget(format!("{{\"s\":\"{}\"}}", chunk.repeat(1024)));
    let s = v.get("s").and_then(Json::as_str).unwrap();
    assert_eq!(s.len(), 1024 * (2047 * 2 + 1));
    assert!(s.starts_with("éé") && s.ends_with("é\n"));
}

#[test]
fn a_million_integers_parse_in_linear_time() {
    let n = 1 << 20;
    let mut text = String::with_capacity(12 * n);
    text.push('[');
    for i in 0..n as u64 {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&(i * 1_000_003).to_string());
    }
    text.push(']');
    let v = parse_within_budget(text);
    let items = v.as_arr().unwrap();
    assert_eq!(items.len(), n);
    assert_eq!(items[n - 1].as_u64(), Some((n as u64 - 1) * 1_000_003));
}
