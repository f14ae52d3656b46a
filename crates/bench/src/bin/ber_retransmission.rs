//! **Future work (§5)** — behaviour in a non-ideal radio environment.
//!
//! The paper's closing section asks for an evaluation with transmission
//! errors, where the bandwidth saved by the variable interval poller pays
//! for retransmissions. This bench sweeps the bit error rate, runs the
//! Fig. 4 scenario under PFP-GS over a [`BerChannel`], and reports where
//! the delay guarantee starts to erode and how many slots ARQ
//! retransmissions consume.

use btgs_baseband::{AmAddr, BerChannel};
use btgs_bench::{banner, BenchArgs};
use btgs_core::{Guarantees, PaperScenario, PaperScenarioParams, PollerKind};
use btgs_des::{DetRng, SimDuration};
use btgs_metrics::Table;
use btgs_piconet::PiconetSim;

fn main() {
    let args = BenchArgs::parse(60);
    banner("Non-ideal radio: BER sweep with ARQ retransmissions", &args);

    let dreq = SimDuration::from_millis(40);
    let mut t = Table::new(vec![
        "BER",
        "GS max delay",
        "bound violations",
        "GS retx slots/s",
        "BE retx slots/s",
        "GS delivered [kbps]",
        "BE total [kbps]",
    ]);
    for &ber in &[0.0, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3] {
        let scenario = PaperScenario::build(PaperScenarioParams {
            delay_requirement: dreq,
            seed: args.seed,
            ..Default::default()
        });
        let poller = scenario.poller(PollerKind::PfpGs);
        let channel = BerChannel::new(ber, DetRng::seed_from_u64(args.seed ^ 0xBE5).stream(9));
        let mut sim = PiconetSim::new(scenario.config.clone(), Box::new(poller), Box::new(channel))
            .expect("valid scenario");
        for src in scenario.sources() {
            sim.add_source(src).expect("source");
        }
        let report = sim.run(args.horizon()).expect("scenario runs");
        let window_s = report.window().as_secs_f64();
        let guarantees = Guarantees::from(&scenario);
        let max_delay = guarantees
            .check(&report)
            .filter_map(|c| c.max)
            .max()
            .expect("GS flows see traffic");
        let violations: usize = guarantees.check(&report).map(|c| c.over).sum();
        let gs_kbps: f64 = scenario
            .gs_plans
            .iter()
            .map(|p| report.throughput_kbps(p.request.id))
            .sum();
        let be_kbps: f64 = (4..=7u8)
            .map(|n| report.slave_throughput_kbps(AmAddr::new(n).expect("S4..S7")))
            .sum();
        t.row(vec![
            format!("{ber:.0e}"),
            max_delay.to_string(),
            violations.to_string(),
            format!("{:.1}", report.ledger.gs_retx as f64 / window_s),
            format!("{:.1}", report.ledger.be_retx as f64 / window_s),
            format!("{gs_kbps:.1}"),
            format!("{be_kbps:.1}"),
        ]);
    }
    println!("{}", t.render());
    println!("Expected: the ideal-radio guarantee (violations = 0 at BER 0) erodes as");
    println!("losses force retransmissions the admission test did not budget — the");
    println!("open problem the paper's future-work section names. Retransmissions are");
    println!("paid from the saved (idle/BE) bandwidth: GS throughput holds while BE");
    println!("shrinks.");
}
