//! **Table A** — the analytical values woven through the paper's §4.1.
//!
//! Regenerates, from the library's formulas alone (no simulation): the
//! TSpec (Eqs. 11–12), `eta_min`, the `C`/`D` error terms, `U`, the poll
//! intervals `x_i`, the Fig. 2 `y` values, the maximum admissible rate
//! `R_max` (Eq. 9), the minimum supportable delay requirement, and the
//! never-exceeded bound `D_max` at `R = r`.

use btgs_baseband::{AmAddr, Direction};
use btgs_bench::{banner, BenchArgs};
use btgs_core::{
    admit, max_admissible_rate, min_poll_efficiency, paper_tspec, piconet_u, AdmissionConfig,
    GsRequest,
};
use btgs_des::SimDuration;
use btgs_gs::{delay_bound, ErrorTerms};
use btgs_metrics::Table;
use btgs_traffic::FlowId;

fn main() {
    // Purely analytical; the duration flag is accepted but unused.
    let args = BenchArgs::parse(1);
    banner("Table A: analytical values of §4.1", &args);

    let tspec = paper_tspec();
    let cfg = AdmissionConfig::paper();
    let eta = min_poll_efficiency(
        tspec.min_policed_unit(),
        tspec.max_packet(),
        &cfg.allowed_types,
    );
    let u = piconet_u(&cfg.allowed_types);

    let mut t = Table::new(vec!["quantity", "value", "paper"]);
    t.row(vec![
        "TSpec p = r".into(),
        format!("{} B/s", tspec.token_rate()),
        "8.8 kB/s".into(),
    ]);
    t.row(vec![
        "TSpec b = M".into(),
        format!("{} B", tspec.bucket_depth()),
        "176 B".into(),
    ]);
    t.row(vec![
        "TSpec m".into(),
        format!("{} B", tspec.min_policed_unit()),
        "144 B".into(),
    ]);
    t.row(vec![
        "eta_min (Eq. 4)".into(),
        format!("{eta} B/poll"),
        "144 B".into(),
    ]);
    t.row(vec![
        "C error term (Eq. 7)".into(),
        format!("{eta} B"),
        "144 B".into(),
    ]);
    t.row(vec!["U (Fig. 2)".into(), u.to_string(), "3.75 ms".into()]);

    let s = |n| AmAddr::new(n).unwrap();
    let reqs = vec![
        GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec, 8800.0),
        GsRequest::new(FlowId(2), s(2), Direction::MasterToSlave, tspec, 8800.0),
        GsRequest::new(FlowId(3), s(2), Direction::SlaveToMaster, tspec, 8800.0),
        GsRequest::new(FlowId(4), s(3), Direction::SlaveToMaster, tspec, 8800.0),
    ];
    let out = admit(&reqs, &AdmissionConfig::paper()).expect("the paper's set is admissible");
    for g in &out.flows {
        let e = &out.entities[g.entity];
        t.row(vec![
            format!("x, y of {} (Eqs. 5, Fig. 2)", g.id),
            format!("x = {}, y = {}", e.x, e.y),
            match g.id.0 {
                1 => "x = 16.36 ms, y = 3.75 ms".into(),
                2 | 3 => "x = 16.36 ms, y = 7.5 ms".into(),
                _ => "x = 16.36 ms, y = 11.25 ms".into(),
            },
        ]);
    }
    let y_worst = out.entities.last().expect("non-empty").y;
    let r_max = max_admissible_rate(eta, y_worst);
    t.row(vec![
        "R_max at lowest priority (Eq. 9)".into(),
        format!("{r_max} B/s"),
        "12.8 kB/s".into(),
    ]);
    let dmin = delay_bound(&tspec, r_max, ErrorTerms::new(eta, y_worst)).expect("r_max >= r");
    t.row(vec![
        "minimum supportable Dreq".into(),
        dmin.to_string(),
        "36.25 ms".into(),
    ]);
    let dmax = delay_bound(&tspec, tspec.token_rate(), ErrorTerms::new(eta, y_worst))
        .expect("token rate is admissible");
    t.row(vec![
        "D_max at R = r (never exceeded)".into(),
        dmax.to_string(),
        "~47.6 ms".into(),
    ]);
    let _ = SimDuration::ZERO;
    println!("{}", t.render());
}
