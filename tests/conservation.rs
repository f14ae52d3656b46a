//! Conservation and accounting invariants of the simulator: slots, bytes
//! and packets must all add up.

use btgs::baseband::SLOT;
use btgs::core::{CellResult, PollerKind, ScenarioGrid};
use btgs::des::{SimDuration, SimTime};

/// The Fig. 4 cell at `dreq_ms` (best effort on, 2 s warm-up) under
/// PFP-GS.
fn fig4(dreq_ms: u64, seed: u64, secs: u64) -> CellResult {
    let horizon = SimTime::from_secs(secs);
    let mut cell = ScenarioGrid::paper(vec![PollerKind::PfpGs], vec![seed], horizon).cells()[0];
    cell.delay_requirement = SimDuration::from_millis(dreq_ms);
    cell.run()
}

#[test]
fn slot_ledger_never_exceeds_the_window() {
    for ms in [30u64, 40] {
        let point = fig4(ms, 13, 15);
        let window_slots = point.report.window().as_nanos() / SLOT.as_nanos();
        let used = point.report.ledger.used();
        assert!(
            used <= window_slots,
            "at {ms} ms: used {used} of {window_slots} slots"
        );
        // idle_in panics internally if the ledger over-accounts; also check
        // the identity used + idle == window.
        let idle = point.report.ledger.idle_in(point.report.window());
        assert_eq!(used + idle, window_slots);
    }
}

#[test]
fn delivered_never_exceeds_offered() {
    let point = fig4(40, 29, 15);
    for f in &point.report.flows {
        let r = point.report.flow(f.id);
        // Packets arriving in the last instants of warm-up may be delivered
        // just inside the measurement window (they count as delivered but
        // not offered), so allow a couple of packets of boundary slack.
        assert!(
            r.delivered_packets <= r.offered_packets + 2,
            "{}: delivered {} > offered {} (+2 boundary slack)",
            f.id,
            r.delivered_packets,
            r.offered_packets
        );
        assert!(r.delivered_bytes <= r.offered_bytes + 2 * 176);
        // Ideal channel: nothing is lost.
        assert_eq!(r.lost_bytes, 0);
    }
}

#[test]
fn poll_counters_are_consistent_with_the_ledger() {
    let point = fig4(40, 31, 15);
    let report = &point.report;
    // Every GS poll occupies at least 2 slots (POLL+NULL) and at most 6
    // (DH3+DH3), so the ledger's GS total must bracket the poll count.
    let polls = report.gs_polls.total();
    let gs_slots = report.ledger.gs_total();
    assert!(gs_slots >= 2 * polls, "{gs_slots} < 2*{polls}");
    assert!(gs_slots <= 6 * polls, "{gs_slots} > 6*{polls}");
    // Unsuccessful GS polls are exactly the 2-slot POLL/NULL exchanges;
    // overhead also contains the POLL slot of successful uplink polls, so
    // overhead >= 2 * unsuccessful.
    assert!(report.ledger.gs_overhead >= 2 * report.gs_polls.unsuccessful);
}

#[test]
fn gs_and_be_data_slots_match_delivered_bytes() {
    // Every delivered GS byte rode a DH3 (3 slots / <=183 B) or DH1
    // (1 slot / <=27 B); slot counts must be plausible against byte counts.
    let point = fig4(40, 37, 15);
    let report = &point.report;
    let gs_bytes: u64 = point
        .scenario
        .gs_plans
        .iter()
        .map(|p| report.flow(p.request.id).delivered_bytes)
        .sum();
    // DH3 carries up to 183 B in 3 slots: at least 3 slots per 183 bytes.
    let min_slots = gs_bytes * 3 / 183;
    assert!(
        report.ledger.gs_data >= min_slots,
        "GS data slots {} below the physical minimum {min_slots}",
        report.ledger.gs_data
    );
    // And no more than 3 slots per 144-byte packet's worth.
    let max_slots = gs_bytes.div_ceil(144) * 3;
    assert!(report.ledger.gs_data <= max_slots);
}
