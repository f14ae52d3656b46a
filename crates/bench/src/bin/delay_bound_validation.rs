//! **§4.2 claim** — "Simulation runs, each of a simulation time of 530
//! seconds (25 000 samples of each GS flow), showed that the requested
//! delay bound is not exceeded."
//!
//! For a grid of delay requirements and several seeds, runs the paper
//! scenario under PFP-GS (one `ScenarioGrid` of the Fig. 4 piconet) and
//! checks every cell against its `Guarantees`: each GS flow's *measured
//! maximum* delay against its *achievable bound* (the requested bound
//! where the flow is strictly guaranteed). Run with `--seconds 530` for
//! the paper's full length.
//!
//! **Scatternet mode** (`--scatternet`) — the multi-hop extension of the
//! same claim: across a pollers × seeds × piconet-count grid (including a
//! bidirectional shared-bridge configuration), every *admitted* chain's
//! measured end-to-end maximum delay must stay at or below the composed
//! analytic bound `Σ hop bounds + Σ worst-case residences` (and every
//! non-hop GS flow within its own bound), and an over-tight deadline must
//! be provably rejected with every piconet's admission ledger rolled back
//! byte-identically.

use btgs_bench::{banner, BenchArgs};
use btgs_core::{BeSourceMix, ExperimentRunner, PollerKind, ScenarioGrid, Subject, Topology};
use btgs_des::SimDuration;
use btgs_metrics::Table;

fn main() {
    let args = BenchArgs::parse(60);
    if args.scatternet {
        scatternet_mode(&args);
        return;
    }
    banner("Delay bound validation (§4.2)", &args);

    let mut t = Table::new(vec![
        "Dreq",
        "seed",
        "flow",
        "rate [B/s]",
        "bound",
        "max delay",
        "p99",
        "samples",
        "violations",
    ]);
    // One grid of the Fig. 4 piconet, requirement-major and seed-minor.
    let grid = ScenarioGrid {
        delay_requirements: [28, 32, 36, 38, 40, 44, 46]
            .map(SimDuration::from_millis)
            .to_vec(),
        ..ScenarioGrid::paper(
            vec![PollerKind::PfpGs],
            vec![args.seed, args.seed + 1, args.seed + 2],
            args.horizon(),
        )
    };
    let mut total_violations = 0usize;
    for cell in &ExperimentRunner::new().run_grid(&grid).cells {
        // A Fig. 4 cell guarantees its GS plans' flows, in plan order.
        for (plan, check) in cell.scenario.gs_plans.iter().zip(cell.checks()) {
            let delay = &cell.report.flow(plan.request.id).delay;
            total_violations += check.over;
            t.row(vec![
                format!("{} ms", cell.cell.delay_requirement.as_millis()),
                cell.cell.seed.to_string(),
                plan.request.id.to_string(),
                format!("{:.0}", plan.request.rate),
                check.bound.to_string(),
                check.max.expect("GS flows see traffic").to_string(),
                delay.quantile(0.99).expect("non-empty").to_string(),
                check.samples.to_string(),
                check.over.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "total bound violations: {total_violations} (paper: the requested bound is never exceeded)"
    );
    assert_eq!(total_violations, 0, "delay guarantee broken!");
}

/// The multi-hop validation: measured e2e p100 ≤ composed bound for every
/// admitted chain, plus a provable rejection with verified rollback.
fn scatternet_mode(args: &BenchArgs) {
    banner("Multi-hop delay bound validation (scatternet mode)", args);

    let mut t = Table::new(vec![
        "piconets",
        "poller",
        "seed",
        "chain",
        "deadline",
        "composed bound",
        "e2e max",
        "e2e p99",
        "residence max",
        "delivered",
        "violations",
    ]);
    let mut total_violations = 0usize;
    let mut flow_violations = 0usize;
    let mut chains_checked = 0usize;
    // Per piconet count, the tightest deadline the smoke grid admits with
    // margin (see `ScatternetScenario`'s admission-path tests for the
    // budget arithmetic). Both grids run bidirectional chains, so every
    // bridge carries guaranteed traffic in both rendezvous windows.
    for &(piconets, deadline_ms) in &[(2u16, 150u64), (3, 260)] {
        let grid = ScenarioGrid {
            pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
            piconets: vec![piconets],
            seeds: vec![args.seed, args.seed + 1],
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(46)],
            chain_deadlines: vec![Some(SimDuration::from_millis(deadline_ms))],
            bidirectional: true,
            bridge_cycle: SimDuration::from_millis(10),
            horizon: args.horizon(),
            warmup: SimDuration::from_secs(1),
            include_be: true,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        };
        let report = ExperimentRunner::new().run_grid(&grid);
        for cell in &report.cells {
            let scatter = cell.scatternet.as_ref().expect("scatternet cells");
            for check in cell.checks() {
                let Subject::Chain(ci) = check.subject else {
                    flow_violations += check.over;
                    continue;
                };
                let chain = &scatter.report.chains[ci];
                total_violations += check.over;
                chains_checked += 1;
                t.row(vec![
                    piconets.to_string(),
                    cell.cell.poller.label(),
                    cell.cell.seed.to_string(),
                    ci.to_string(),
                    scatter.scenario.chain_grants[ci].deadline.to_string(),
                    check.bound.to_string(),
                    check.max.expect("admitted chains deliver").to_string(),
                    chain.e2e.quantile(0.99).expect("non-empty").to_string(),
                    chain
                        .residence
                        .max()
                        .expect("bridged chains cross")
                        .to_string(),
                    chain.delivered_packets.to_string(),
                    check.over.to_string(),
                ]);
                assert!(
                    chain.delivered_packets > 0,
                    "an admitted chain must deliver"
                );
            }
        }
    }
    println!("{}", t.render());

    // The rejection half of the claim: an over-deadline request is
    // refused at grid-validation time (no cell ever runs) …
    let mut hopeless = ScenarioGrid {
        pollers: vec![PollerKind::PfpGs],
        piconets: vec![2],
        seeds: vec![args.seed],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(46)],
        chain_deadlines: vec![Some(SimDuration::from_millis(25))],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(10),
        horizon: args.horizon(),
        warmup: SimDuration::from_secs(1),
        include_be: true,
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    };
    let err = hopeless
        .validate()
        .expect_err("a 25 ms two-hop deadline is below the fixed terms");
    println!("over-tight deadline rejected at grid construction: {err}");
    hopeless.chain_deadlines = vec![Some(SimDuration::from_millis(150))];
    hopeless.validate().expect("the feasible variant validates");

    // … and rejection by the controller itself leaves every traversed
    // piconet's ledger byte-identical (rollback).
    {
        use btgs_baseband::{AmAddr, Direction, PiconetId};
        use btgs_core::AdmissionConfig;
        use btgs_core::{
            paper_tspec, ChainHopSpec, ChainRequest, GsRequest, ScatternetAdmissionController,
        };
        use btgs_traffic::FlowId;

        let mut ctl = ScatternetAdmissionController::new(AdmissionConfig::paper(), 2);
        for pic in 0..2u8 {
            for k in 1..=2u32 {
                ctl.try_admit_local(
                    PiconetId(pic.into()),
                    GsRequest::new(
                        FlowId(100 * pic as u32 + k),
                        AmAddr::new(k as u8).unwrap(),
                        Direction::SlaveToMaster,
                        paper_tspec(),
                        8_800.0,
                    ),
                )
                .expect("seed flows admit");
            }
        }
        let fingerprint = |ctl: &ScatternetAdmissionController| {
            (0..2u8)
                .map(|p| format!("{:?}", ctl.piconet(PiconetId(p.into())).outcome()))
                .collect::<Vec<_>>()
                .join(";")
        };
        let before = fingerprint(&ctl);
        let hop = |p: u8, flow: u32, slave: u8, dir| ChainHopSpec {
            piconet: PiconetId(p.into()),
            flow: FlowId(flow),
            slave: AmAddr::new(slave).unwrap(),
            direction: dir,
            residence_in: SimDuration::from_millis(5),
            absence: SimDuration::from_micros(8_750),
        };
        let rejected = ctl
            .admit_chain(ChainRequest {
                id: 1,
                tspec: paper_tspec(),
                deadline: SimDuration::from_millis(25),
                hops: vec![
                    hop(0, 901, 6, Direction::MasterToSlave),
                    hop(1, 902, 7, Direction::SlaveToMaster),
                ],
            })
            .cloned();
        assert!(rejected.is_err(), "25 ms is below the fixed terms");
        assert_eq!(
            fingerprint(&ctl),
            before,
            "rejection left residue in a piconet ledger"
        );
        println!(
            "controller rejection verified with rollback: {}",
            rejected.unwrap_err()
        );
    }

    println!(
        "\nchains checked: {chains_checked}; composed-bound violations: {total_violations} \
         (claim: measured e2e p100 ≤ Σ hop bounds + Σ residences)"
    );
    assert!(chains_checked >= 16, "smoke grid shrank unexpectedly");
    assert_eq!(total_violations, 0, "multi-hop delay guarantee broken!");
    assert_eq!(flow_violations, 0, "a GS flow's delay guarantee broken!");
}
