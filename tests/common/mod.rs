//! Helpers shared by the root integration tests.

use btgs::piconet::ScatternetReport;

/// The engine-observability counter fields excluded from byte-identity
/// (`events_processed` stays in: the same events fire in every
/// configuration).
const ENGINE_COUNTERS: [&str; 5] = [
    "phases_run",
    "barrier_rounds",
    "islands_claimed",
    "relays_staged",
    "relays_injected",
];

/// The report's debug rendering without the engine-observability
/// counters: the bytes that must match across engine configurations.
pub fn report_digest(report: &ScatternetReport) -> String {
    format!("{report:#?}")
        .lines()
        .filter(|l| !ENGINE_COUNTERS.iter().any(|c| l.contains(c)))
        .collect::<Vec<_>>()
        .join("\n")
}
