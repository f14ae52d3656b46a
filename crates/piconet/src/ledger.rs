//! Slot accounting: where did the 1600 slots per second go?
//!
//! The paper's efficiency argument is entirely about slots: the variable
//! interval poller "saves an amount of bandwidth that can be used for
//! retransmissions … and/or for transmission of BE traffic". The ledger
//! classifies every slot of a run so the savings are directly observable.

use btgs_baseband::LogicalChannel;
use btgs_des::SimDuration;
use btgs_metrics::Table;

/// Slot usage classification over a measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotLedger {
    /// Slots carrying Guaranteed Service data segments (first transmission).
    pub gs_data: u64,
    /// Slots spent on GS control packets (POLL/NULL) and silent response
    /// windows — the poll overhead the variable interval poller minimises.
    pub gs_overhead: u64,
    /// Slots spent retransmitting GS data after radio losses.
    pub gs_retx: u64,
    /// Slots carrying best-effort data segments (first transmission).
    pub be_data: u64,
    /// Slots spent on BE control packets and silent response windows.
    pub be_overhead: u64,
    /// Slots spent retransmitting BE data.
    pub be_retx: u64,
    /// Slots consumed by SCO reservations.
    pub sco: u64,
}

/// Per-channel poll counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollCounters {
    /// Polls that moved at least one data segment.
    pub successful: u64,
    /// Polls that moved none (pure POLL/NULL exchanges).
    pub unsuccessful: u64,
}

impl PollCounters {
    /// Total polls executed.
    pub fn total(&self) -> u64 {
        self.successful + self.unsuccessful
    }

    /// Records one poll outcome.
    pub fn record(&mut self, successful: bool) {
        if successful {
            self.successful += 1;
        } else {
            self.unsuccessful += 1;
        }
    }
}

impl SlotLedger {
    /// Total slots used (excludes idle).
    pub fn used(&self) -> u64 {
        self.gs_data
            + self.gs_overhead
            + self.gs_retx
            + self.be_data
            + self.be_overhead
            + self.be_retx
            + self.sco
    }

    /// Slots consumed by the GS schedule in total.
    pub fn gs_total(&self) -> u64 {
        self.gs_data + self.gs_overhead + self.gs_retx
    }

    /// Slots consumed by best-effort service in total.
    pub fn be_total(&self) -> u64 {
        self.be_data + self.be_overhead + self.be_retx
    }

    /// Idle slots within a window of `window` duration.
    ///
    /// # Panics
    ///
    /// Panics if the ledger accounts more slots than the window holds.
    pub fn idle_in(&self, window: SimDuration) -> u64 {
        let total = window.as_nanos() / btgs_baseband::SLOT.as_nanos();
        let used = self.used();
        assert!(
            used <= total,
            "ledger accounts {used} slots but the window holds only {total}"
        );
        total - used
    }

    /// Adds `slots` of the given kind for a data transmission.
    pub fn add_data(&mut self, channel: LogicalChannel, slots: u64, retransmission: bool) {
        match (channel, retransmission) {
            (LogicalChannel::GuaranteedService, false) => self.gs_data += slots,
            (LogicalChannel::GuaranteedService, true) => self.gs_retx += slots,
            (LogicalChannel::BestEffort, false) => self.be_data += slots,
            (LogicalChannel::BestEffort, true) => self.be_retx += slots,
        }
    }

    /// Adds `slots` of poll overhead (POLL/NULL/silence).
    pub fn add_overhead(&mut self, channel: LogicalChannel, slots: u64) {
        match channel {
            LogicalChannel::GuaranteedService => self.gs_overhead += slots,
            LogicalChannel::BestEffort => self.be_overhead += slots,
        }
    }

    /// Renders the ledger as a table over the given window.
    pub fn to_table(&self, window: SimDuration) -> Table {
        let total = (window.as_nanos() / btgs_baseband::SLOT.as_nanos()).max(1);
        let mut t = Table::new(vec!["category", "slots", "share"]);
        let mut row = |name: &str, v: u64| {
            t.row(vec![
                name.to_owned(),
                v.to_string(),
                format!("{:.2}%", v as f64 / total as f64 * 100.0),
            ]);
        };
        row("GS data", self.gs_data);
        row("GS overhead", self.gs_overhead);
        row("GS retransmissions", self.gs_retx);
        row("BE data", self.be_data);
        row("BE overhead", self.be_overhead);
        row("BE retransmissions", self.be_retx);
        row("SCO", self.sco);
        row("idle", self.idle_in(window));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_routes_by_channel_and_kind() {
        let mut l = SlotLedger::default();
        l.add_data(LogicalChannel::GuaranteedService, 3, false);
        l.add_data(LogicalChannel::GuaranteedService, 3, true);
        l.add_data(LogicalChannel::BestEffort, 6, false);
        l.add_overhead(LogicalChannel::GuaranteedService, 2);
        l.add_overhead(LogicalChannel::BestEffort, 1);
        l.sco += 2;
        assert_eq!(l.gs_data, 3);
        assert_eq!(l.gs_retx, 3);
        assert_eq!(l.be_data, 6);
        assert_eq!(l.gs_overhead, 2);
        assert_eq!(l.be_overhead, 1);
        assert_eq!(l.gs_total(), 8);
        assert_eq!(l.be_total(), 7);
        assert_eq!(l.used(), 17);
    }

    #[test]
    fn idle_computation() {
        let l = SlotLedger {
            gs_data: 100,
            ..SlotLedger::default()
        };
        // 1 second = 1600 slots.
        assert_eq!(l.idle_in(SimDuration::from_secs(1)), 1500);
    }

    #[test]
    #[should_panic(expected = "window holds only")]
    fn over_accounting_panics() {
        let l = SlotLedger {
            gs_data: 2000,
            ..SlotLedger::default()
        };
        let _ = l.idle_in(SimDuration::from_secs(1));
    }

    #[test]
    fn poll_counters() {
        let mut c = PollCounters::default();
        c.record(true);
        c.record(true);
        c.record(false);
        assert_eq!(c.total(), 3);
        assert_eq!(c.successful, 2);
        assert_eq!(c.unsuccessful, 1);
    }

    #[test]
    fn table_renders_all_rows() {
        let l = SlotLedger::default();
        let t = l.to_table(SimDuration::from_secs(1));
        let s = t.render();
        for name in ["GS data", "BE data", "SCO", "idle"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
