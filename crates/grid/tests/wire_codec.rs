//! Wire-codec guards: the encoder's exact output bytes, hostile input,
//! and linear-time decoding.
//!
//! * The FNV-1a digests of three fixed frames pin the encoder byte for
//!   byte, so checkpoints and spill archives written by earlier builds
//!   keep replaying.
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
#[test]
fn encoder_bytes_are_pinned() {
    let mut changed = Vec::new();
    for (what, grid, expected) in [
        ("1-piconet", grid(1, false), 0xb6a5_6141_e6b4_a528_u64),
        // The two 2-piconet digests moved when adaptive phase widening
        // was deleted: this cell's one widened phase became two, so the
        // engine counters read `phases` 50 → 51, `islands_claimed`
        // 100 → 102 and `widening_stretches` 1 → 0, and the telemetry's
        // per-phase and per-claim histograms gained the extra samples.
        // Every simulated report inside the frame stayed identical.
        ("2-piconet", grid(2, false), 0xecf5_840d_4aca_1cbf),
        // Its telemetry's `wheel_near` histogram counts every entry the
        // island's event queue stores. This digest moved when the sorted
        // buffer replaced the timing wheel, whose count covered only its
        // first level; the reports inside the frame stayed identical.
        (
            "2-piconet + telemetry",
            grid(2, true),
            0x9a91_b750_41a1_28d2,
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
    // Flips inside delay samples still decode; flips in keys, labels and
    // structure do not. Both kinds occur.
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
