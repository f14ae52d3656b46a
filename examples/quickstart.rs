//! Quickstart: reserve a Guaranteed Service flow in a piconet, run the
//! simulator, and check the delay guarantee.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use btgs::baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs::core::{admit, AdmissionConfig, GsPoller, GsRequest, Guarantees};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::gs::TokenBucketSpec;
use btgs::piconet::{FlowSpec, PiconetConfig, PiconetSim};
use btgs::pollers::PfpBePoller;
use btgs::traffic::{CbrSource, FlowId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64 kbps voice-like flow from slave 1 to the master: one packet of
    // 144..176 bytes every 20 ms, described by the token bucket TSpec
    // p = r = 8800 B/s, b = M = 176 B, m = 144 B.
    let slave = AmAddr::new(1).expect("1..=7 are valid slave addresses");
    let flow = FlowId(1);
    let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;

    // Ask for a fluid service rate of 12.8 kB/s. Admission control computes
    // the poll interval x (Eq. 5), the maximum poll delay y (Fig. 2), and
    // the exported error terms C/D, and checks Eq. 9 (y <= x).
    let request = GsRequest::new(flow, slave, Direction::SlaveToMaster, tspec, 12_800.0);
    let schedule = admit(&[request], &AdmissionConfig::paper())?;
    let grant = schedule.grant(flow).expect("flow was admitted");
    println!("admitted {flow}:");
    println!("  poll interval x = {}", schedule.entities[0].x);
    println!("  max poll delay y = {}", schedule.entities[0].y);
    println!("  exported terms  {}", grant.terms);
    println!("  delay bound     {}", grant.bound);

    // Build the piconet: the GS flow plus a best-effort flow on slave 2.
    let be_flow = FlowId(2);
    let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_flow(FlowSpec::new(
            flow,
            slave,
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ))
        .with_flow(FlowSpec::new(
            be_flow,
            AmAddr::new(2).expect("valid"),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ))
        .with_warmup(SimDuration::from_secs(1));

    // The paper's poller: variable-interval GS polling, PFP for leftovers.
    let poller = GsPoller::pfp(
        &schedule,
        SimTime::ZERO,
        Box::new(PfpBePoller::new(SimDuration::from_millis(25))),
    );
    let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(IdealChannel))?;

    let rng = DetRng::seed_from_u64(42);
    sim.add_source(Box::new(CbrSource::new(
        flow,
        SimDuration::from_millis(20),
        144,
        176,
        rng.stream(1),
    )))?;
    sim.add_source(Box::new(CbrSource::new(
        be_flow,
        SimDuration::from_millis(10),
        176,
        176,
        rng.stream(2),
    )))?;

    // Simulate half a minute and inspect the outcome.
    let report = sim.run(SimTime::from_secs(30))?;
    println!("\n{}", report.to_table().render());

    // The schedule's one guarantee, checked against the run.
    for check in Guarantees::from(&schedule).check(&report) {
        println!("guaranteed bound: {}", check.bound);
        println!("measured maximum: {}", check.max.expect("traffic flowed"));
        assert_eq!(check.over, 0, "the delay guarantee must hold");
    }
    println!("guarantee held.");
    Ok(())
}
