//! A higher-rate "video" flow whose packets need several baseband segments.
//!
//! Shows the machinery the paper builds for multi-segment packets: the
//! minimum poll efficiency over a wide packet-size range, the resulting
//! poll interval, and improvement (a) of the variable interval poller
//! (packet-size-aware postponement), which saves polls whenever a packet
//! segments more efficiently than the worst case.
//!
//! ```text
//! cargo run --example video_and_background
//! ```

use btgs::baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs::core::{admit, min_poll_efficiency, AdmissionConfig, GsPoller, GsRequest, Guarantees};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::gs::TokenBucketSpec;
use btgs::piconet::{FlowSpec, PiconetConfig, PiconetSim};
use btgs::pollers::PfpBePoller;
use btgs::traffic::{CbrSource, FlowId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256 kbps "video" stream: 800..1000-byte frames every 28.125 ms
    // (32 kB/s at the maximum frame size).
    let video = FlowId(1);
    let s1 = AmAddr::new(1).expect("valid");
    let tspec = TokenBucketSpec::for_cbr(0.028_125, 800, 1000)?;
    let allowed = vec![PacketType::Dh1, PacketType::Dh3];

    // How badly can a frame segment? (Eq. 4 over the full frame-size range.)
    let eta = min_poll_efficiency(800, 1000, &allowed);
    println!("video eta_min = {eta:.1} B/poll (1000-byte frames move 6 DH3 segments)");

    let request = GsRequest::new(video, s1, Direction::SlaveToMaster, tspec, 36_000.0);
    let schedule = admit(&[request], &AdmissionConfig::paper())?;
    let grant = schedule.grant(video).expect("admitted");
    println!(
        "granted: x = {}, y = {}, bound = {}",
        schedule.entities[0].x, schedule.entities[0].y, grant.bound
    );

    // Background: two best-effort slaves.
    let mut config = PiconetConfig::new(allowed)
        .with_flow(FlowSpec::new(
            video,
            s1,
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ))
        .with_warmup(SimDuration::from_secs(1));
    for n in 2..=3u8 {
        config = config.with_flow(FlowSpec::new(
            FlowId(n as u32),
            AmAddr::new(n).expect("valid"),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ));
    }

    let poller = GsPoller::pfp(
        &schedule,
        SimTime::ZERO,
        Box::new(PfpBePoller::new(SimDuration::from_millis(20))),
    );
    let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(IdealChannel))?;
    let rng = DetRng::seed_from_u64(11);
    sim.add_source(Box::new(CbrSource::new(
        video,
        SimDuration::from_micros(28_125),
        800,
        1000,
        rng.stream(1),
    )))?;
    for n in 2..=3u32 {
        sim.add_source(Box::new(CbrSource::new(
            FlowId(n),
            SimDuration::from_millis(15),
            176,
            176,
            rng.stream(u64::from(n)),
        )))?;
    }

    let report = sim.run(SimTime::from_secs(30))?;
    println!("\n{}", report.to_table().render());
    for check in Guarantees::from(&schedule).check(&report) {
        println!(
            "video: {:.1} kbps delivered, max frame delay {} (bound {})",
            report.throughput_kbps(video),
            check.max.expect("video flowed"),
            check.bound
        );
        assert_eq!(check.over, 0, "video delay guarantee must hold");
    }
    println!(
        "GS polls: {} successful, {} unsuccessful — improvement (a) keeps the waste low",
        report.gs_polls.successful, report.gs_polls.unsuccessful
    );
    Ok(())
}
