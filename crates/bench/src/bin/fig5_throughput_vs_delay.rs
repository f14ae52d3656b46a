//! **Fig. 5** — per-slave throughput vs. GS delay requirement.
//!
//! The paper's headline figure: seven slaves, four 64 kbps GS flows and
//! eight BE flows; the requested delay bound sweeps 28–46 ms. Expected
//! shape (paper): every GS flow stays at 64 kbps regardless of the
//! requirement (S2 carries two flows → 128 kbps); the BE slaves reach their
//! maxima at loose bounds and are squeezed to a max-min-fair equal share as
//! the bound tightens, the lowest-demand slave (S4) saturating first.

use btgs_baseband::AmAddr;
use btgs_bench::{banner, BenchArgs};
use btgs_core::{
    predicted_be_throughput_kbps, ExperimentRunner, PaperScenario, PollerKind, ScenarioGrid,
};
use btgs_des::SimDuration;
use btgs_metrics::Table;

fn main() {
    let args = BenchArgs::parse(60);
    banner("Fig. 5: throughput vs. delay requirement (PFP-GS)", &args);

    // One Fig. 4 cell per requirement, returned in requirement order.
    let grid = ScenarioGrid {
        delay_requirements: (28..=46)
            .step_by(args.step_ms as usize)
            .map(SimDuration::from_millis)
            .collect(),
        ..ScenarioGrid::paper(vec![PollerKind::PfpGs], vec![args.seed], args.horizon())
    };
    let slaves = (1..=7u8).map(|n| AmAddr::new(n).expect("S1..S7"));
    let mut headers = vec!["Delay requirement [s]"];
    headers.extend(slaves.clone().map(PaperScenario::slave_legend));
    let mut t = Table::new(headers);
    for cell in ExperimentRunner::new().run_grid(&grid).cells {
        let mut row = vec![format!("{:.3}", cell.cell.delay_requirement.as_secs_f64())];
        let kbps = |s| format!("{:.2}", cell.report.slave_throughput_kbps(s));
        row.extend(slaves.clone().map(kbps));
        t.row(row);
    }
    println!("{}", t.render());

    println!("Reference points:");
    println!("  paper: GS flat at 64 kbps; BE maxima 83.2 / 94.4 / 105.6 / 116.8 kbps;");
    println!("         total max 656 kbps incl. 256 kbps GS.");
    let predicted = predicted_be_throughput_kbps(700.0);
    println!(
        "  water-filling prediction at ~700 GS slots/s: S4..S7 = {:.1} / {:.1} / {:.1} / {:.1} kbps",
        predicted[0], predicted[1], predicted[2], predicted[3]
    );
}
