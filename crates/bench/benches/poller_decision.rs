//! Micro-benchmark: per-decision cost of each poller, plus the
//! [`FlowTable`] fast paths against the linear-scan/allocating baselines
//! they replaced.
//!
//! The `view_lookup/*` pairs are the acceptance gauge of the dense-arena
//! refactor: `flow_table` variants must run at least ~2x faster than their
//! `linear_scan` counterparts (in practice the gap is far larger).

use btgs_baseband::{AmAddr, Direction, LogicalChannel};
use btgs_bench::microbench::Criterion;
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{admit, paper_tspec, AdmissionConfig, GsPoller, GsRequest};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::{FlowSpec, FlowState, FlowTable, MasterView, Poller};
use btgs_pollers::{FepPoller, PfpBePoller, RoundRobinPoller};
use btgs_traffic::FlowId;
use std::hint::black_box;

/// The paper's Fig. 4 layout: 4 GS flows on S1..S3 plus a BE pair per slave
/// S4..S7 — 12 flows, the densest configuration a 7-slave piconet sees.
fn fig4_flows() -> Vec<FlowSpec> {
    let s = |n| AmAddr::new(n).unwrap();
    let mut out = vec![
        FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ),
        FlowSpec::new(
            FlowId(2),
            s(2),
            Direction::MasterToSlave,
            LogicalChannel::GuaranteedService,
        ),
        FlowSpec::new(
            FlowId(3),
            s(2),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ),
        FlowSpec::new(
            FlowId(4),
            s(3),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ),
    ];
    for k in 0..4u32 {
        let sl = s(4 + k as u8);
        out.push(FlowSpec::new(
            FlowId(5 + 2 * k),
            sl,
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        ));
        out.push(FlowSpec::new(
            FlowId(6 + 2 * k),
            sl,
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ));
    }
    out
}

fn bench_poller(c: &mut Criterion, name: &str, poller: &mut dyn Poller) {
    let table = FlowTable::new(fig4_flows()).unwrap();
    let queues = FlowState::for_table(&table);
    c.bench_function(&format!("poller_decide/{name}"), |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1_250_000;
            let now = SimTime::from_nanos(t);
            let view = MasterView::new(now, &table, &queues);
            black_box(poller.decide(now, &view))
        })
    });
}

/// The hot lookups of the exchange machinery, old shape vs. new shape.
fn view_lookups(c: &mut Criterion) {
    let flows = fig4_flows();
    let table = FlowTable::new(flows.clone()).unwrap();
    let s = |n| AmAddr::new(n).unwrap();

    // (slave, direction, channel) -> flow: every exchange start does two of
    // these. Old: linear scan over all specs. New: O(1) dense-array read.
    // One iteration resolves all 7 slaves so loop overhead cannot mask the
    // per-lookup cost.
    c.bench_function("view_lookup/flow_at/linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for n in 1..=7u8 {
                let slave = s(black_box(n));
                hits += flows
                    .iter()
                    .position(|f| {
                        f.slave == slave
                            && f.direction == Direction::SlaveToMaster
                            && f.channel == LogicalChannel::BestEffort
                    })
                    .is_some() as usize;
            }
            black_box(hits)
        })
    });
    c.bench_function("view_lookup/flow_at/flow_table", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for n in 1..=7u8 {
                hits += table
                    .at(
                        s(black_box(n)),
                        Direction::SlaveToMaster,
                        LogicalChannel::BestEffort,
                    )
                    .is_some() as usize;
            }
            black_box(hits)
        })
    });

    // Per-channel slave list: every BE poller decision needs one. Old:
    // rebuild + sort a Vec per decision. New: borrow the precomputed slice.
    c.bench_function("view_lookup/be_slaves/alloc_and_sort", |b| {
        b.iter(|| {
            let mut out: Vec<AmAddr> = Vec::new();
            for f in &flows {
                if f.channel == LogicalChannel::BestEffort && !out.contains(&f.slave) {
                    out.push(f.slave);
                }
            }
            out.sort();
            black_box(out)
        })
    });
    c.bench_function("view_lookup/be_slaves/flow_table", |b| {
        b.iter(|| black_box(table.slaves_on(LogicalChannel::BestEffort)))
    });

    // Flow id -> spec: poller feedback paths. Old: find(). New: direct map.
    // One iteration resolves all 12 ids.
    c.bench_function("view_lookup/flow_by_id/linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 1..=12u32 {
                let id = FlowId(black_box(k));
                hits += flows.iter().any(|f| f.id == id) as usize;
            }
            black_box(hits)
        })
    });
    c.bench_function("view_lookup/flow_by_id/flow_table", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 1..=12u32 {
                hits += table.idx_of(FlowId(black_box(k))).is_some() as usize;
            }
            black_box(hits)
        })
    });
}

fn poller_decisions(c: &mut Criterion) {
    bench_poller(c, "round_robin", &mut RoundRobinPoller::new());
    bench_poller(c, "fep", &mut FepPoller::new(SimDuration::from_millis(30)));
    bench_poller(
        c,
        "pfp_be",
        &mut PfpBePoller::new(SimDuration::from_millis(25)),
    );

    // The GS poller with the paper's four-flow schedule.
    let tspec = paper_tspec();
    let s = |n| AmAddr::new(n).unwrap();
    let reqs = vec![
        GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec, 8800.0),
        GsRequest::new(FlowId(2), s(2), Direction::MasterToSlave, tspec, 8800.0),
        GsRequest::new(FlowId(3), s(2), Direction::SlaveToMaster, tspec, 8800.0),
        GsRequest::new(FlowId(4), s(3), Direction::SlaveToMaster, tspec, 8800.0),
    ];
    let outcome = admit(&reqs, &AdmissionConfig::paper()).unwrap();
    let mut gs = GsPoller::variable(&outcome, SimTime::ZERO);
    bench_poller(c, "gs_variable", &mut gs);
}

criterion_group!(benches, poller_decisions, view_lookups);
criterion_main!(benches);
