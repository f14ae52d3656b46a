//! `btgs-analyze` — the workspace's determinism gate.
//!
//! ```text
//! cargo run -p btgs-analyze -- --workspace            # lint + model suite
//! cargo run -p btgs-analyze -- --workspace --lint     # lint only
//! cargo run -p btgs-analyze -- --workspace --model    # model suite only
//!     --budget N      executions per model scenario (default 60000)
//!     --write-audit   regenerate ANALYZE_WAIVERS.md in place
//!     --root PATH     workspace root (default: this crate's ../..)
//!     -D              deny: nonzero exit on any finding (the default;
//!                     accepted explicitly for CI clarity)
//!
//! cargo run --release -p btgs-analyze -- --bisect TOPO   # divergence bisector
//!     TOPO            corpus scenario: chain | ring | mesh
//!     --vs SPEC       suspect configuration vs the 1-thread baseline
//!                     (default threads=4), e.g. threads=4|shuffle=7
//!     --horizon-ms N  simulated horizon in milliseconds (default 1500)
//! ```
//!
//! Exit status 0 means: zero unwaivered lint findings, a fresh committed
//! waiver audit, every sound protocol scenario passed (exhaustively where
//! required) and every weakened fixture was refuted with a counterexample —
//! and, in bisect mode, byte-identical event traces (a found divergence
//! exits 1 after printing the minimal aligned trace).

use btgs_analyze::{audit, bisect, lint, scenarios};
use btgs_des::SimTime;
use std::path::PathBuf;

/// Default executions per model scenario — sized so the whole suite stays
/// well under a minute on a single vCPU (each execution is a handful of
/// turnstile handoffs).
const DEFAULT_BUDGET: u64 = 60_000;

fn main() {
    let mut run_lint = false;
    let mut run_model = false;
    let mut write_audit = false;
    let mut budget = DEFAULT_BUDGET;
    let mut root: Option<PathBuf> = None;
    let mut bisect_topology: Option<String> = None;
    let mut bisect_vs = String::from("threads=4");
    let mut horizon_ms: u64 = 1500;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workspace" => {}
            "--lint" => run_lint = true,
            "--model" => run_model = true,
            "--write-audit" => write_audit = true,
            "-D" | "--deny" => {}
            "--budget" => {
                budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--budget takes a positive integer"));
            }
            "--root" => {
                root = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--root takes a path")),
                ));
            }
            "--bisect" => {
                bisect_topology = Some(
                    args.next()
                        .unwrap_or_else(|| die("--bisect takes a topology: chain | ring | mesh")),
                );
            }
            "--vs" => {
                bisect_vs = args
                    .next()
                    .unwrap_or_else(|| die("--vs takes a spec like threads=4|shuffle=7"));
            }
            "--horizon-ms" => {
                horizon_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--horizon-ms takes a positive integer"));
            }
            other => die(&format!(
                "unknown flag {other}; known: --workspace --lint --model --budget N \
                 --write-audit --root PATH -D --bisect TOPO --vs SPEC --horizon-ms N"
            )),
        }
    }
    if !run_lint && !run_model && bisect_topology.is_none() {
        run_lint = true;
        run_model = true;
    }
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/analyze sits two levels under the workspace root")
            .to_path_buf()
    });

    let mut failed = false;

    if run_lint {
        println!("== determinism lint ==");
        let mut result = match lint::scan_workspace(&root) {
            Ok(r) => r,
            Err(e) => die(&format!("scan failed under {}: {e}", root.display())),
        };
        if write_audit {
            let rendered = audit::render(&result.waivers);
            if let Err(e) = std::fs::write(root.join(audit::AUDIT_PATH), rendered) {
                die(&format!("cannot write {}: {e}", audit::AUDIT_PATH));
            }
            println!(
                "wrote {} ({} waivers)",
                audit::AUDIT_PATH,
                result.waivers.len()
            );
        }
        if let Some(stale) = audit::check_fresh(&root, &result.waivers) {
            result.findings.push(stale);
        }
        for f in &result.findings {
            println!("deny: {f}");
        }
        println!(
            "{} files scanned, {} waivers in force, {} finding(s)",
            result.files_scanned,
            result.waivers.len(),
            result.findings.len()
        );
        failed |= !result.findings.is_empty();
        println!();
    }

    if run_model {
        println!("== atomics model checker ==");
        for entry in scenarios::run_suite(budget) {
            let r = &entry.report;
            let ok = entry.ok();
            let outcome = match (&r.failure, entry.expect_failure) {
                (Some(_), true) => "refuted (as required)",
                (None, false) if r.exhausted => "passed, exhaustive",
                (None, false) => "passed, budget-bounded",
                (Some(_), false) => "FAILED",
                (None, true) => "MISSED (fixture not refuted)",
            };
            println!(
                "{} {:<40} {:>8} executions  {}",
                if ok { "ok  " } else { "FAIL" },
                r.scenario,
                r.executions,
                outcome
            );
            if let Some(failure) = &r.failure {
                if entry.expect_failure {
                    println!("     counterexample: {}", failure.reason);
                } else {
                    println!("     violated: {}", failure.reason);
                    println!("     interleaving:");
                    for line in &failure.trace {
                        println!("       {line}");
                    }
                }
            }
            failed |= !ok;
        }
    }

    if let Some(topology) = bisect_topology {
        println!("== divergence bisector ==");
        let spec = bisect::BisectSpec::parse(&bisect_vs).unwrap_or_else(|e| die(&e));
        println!(
            "{topology}: baseline (1 thread, default engine) vs `{bisect_vs}`, \
             horizon {horizon_ms} ms"
        );
        let report = bisect::run_bisect(&topology, &spec, SimTime::from_millis(horizon_ms))
            .unwrap_or_else(|e| die(&e));
        print!("{}", report.render());
        failed |= report.divergence.is_some();
    }

    if failed {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("btgs-analyze: {msg}");
    std::process::exit(2)
}
