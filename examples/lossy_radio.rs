//! The paper's future-work setting: a lossy radio with ARQ retransmission.
//!
//! Runs one Guaranteed Service voice flow over increasingly hostile
//! channels and shows how the 1-bit ARQ spends the poller's saved
//! bandwidth on retransmissions — and where the ideal-radio delay bound
//! starts to crack (the open problem the paper names in §5).
//!
//! ```text
//! cargo run --example lossy_radio
//! ```

use btgs::baseband::{AmAddr, BerChannel, Direction, LogicalChannel, PacketType};
use btgs::core::{admit, AdmissionConfig, GsPoller, GsRequest, Guarantees};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::gs::TokenBucketSpec;
use btgs::piconet::{FlowSpec, PiconetConfig, PiconetSim};
use btgs::traffic::{CbrSource, FlowId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = FlowId(1);
    let s1 = AmAddr::new(1).expect("valid");
    let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
    let request = GsRequest::new(flow, s1, Direction::SlaveToMaster, tspec, 12_800.0);
    let schedule = admit(&[request], &AdmissionConfig::paper())?;
    let bound = schedule.grant(flow).expect("admitted").bound;
    println!("ideal-radio delay bound: {bound}\n");
    let guarantees = Guarantees::from(&schedule);
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "BER", "delivered", "max delay", "violations", "retx slots"
    );

    for ber in [0.0, 1e-5, 1e-4, 1e-3] {
        let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
            .with_flow(FlowSpec::new(
                flow,
                s1,
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ))
            .with_warmup(SimDuration::from_secs(1));
        let poller = GsPoller::variable(&schedule, SimTime::ZERO);
        let channel = BerChannel::new(ber, DetRng::seed_from_u64(99).stream(7));
        let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(channel))?;
        sim.add_source(Box::new(CbrSource::new(
            flow,
            SimDuration::from_millis(20),
            144,
            176,
            DetRng::seed_from_u64(99).stream(1),
        )))?;
        let report = sim.run(SimTime::from_secs(30))?;
        for check in guarantees.check(&report) {
            println!(
                "{:>10.0e} {:>10.1} kbps {:>12} {:>12} {:>12}",
                ber,
                report.throughput_kbps(flow),
                check.max.map(|d| d.to_string()).unwrap_or_default(),
                check.over,
                report.ledger.gs_retx,
            );
        }
    }
    println!("\nARQ keeps the bytes flowing; the *bound*, computed for an ideal radio,");
    println!("erodes with loss — extending admission to budget retransmissions is the");
    println!("paper's stated future work.");
    Ok(())
}
