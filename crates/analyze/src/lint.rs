//! Engine 1 — the determinism lint.
//!
//! A token-level scanner over every `.rs` file in the workspace, enforcing
//! the repo's determinism law (see the crate docs for the rule list). It
//! works on the [`lexer`]'s per-line code/comment split, so
//! tokens inside strings never fire and waivers inside strings never
//! waive.
//!
//! ## Waivers
//!
//! A rule is waived with a comment of the form
//!
//! ```text
//! // analyze: allow(<rule>): <reason>
//! ```
//!
//! which covers code on the same line, or — when the waiver line carries no
//! code — the first following line that does (intervening comment-only
//! lines extend the reason text). Every waiver must carry a non-empty
//! reason; unknown rule names and waivers that match nothing are themselves
//! findings, so the committed audit report can never drift silently.

use crate::lexer::{self, SourceLine};
use std::fmt;
use std::path::Path;

/// The lint's rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` on a simulation/report path. Keyed lookup is
    /// waivable; anything that could iterate in hash order is not.
    HashIter,
    /// Ambient clock reads (`Instant::now`, `SystemTime`) outside the
    /// bench/CLI crates.
    AmbientTime,
    /// Ambient randomness (`thread_rng`, `OsRng`, entropy seeding) outside
    /// the bench/CLI crates.
    AmbientRng,
    /// Ambient environment reads (`env::var`, `env::args`, …) outside the
    /// bench/CLI crates.
    AmbientEnv,
    /// The workspace unsafe policy: `#![forbid(unsafe_code)]` in every
    /// crate except btgs-bench, which carries `#![deny(unsafe_code)]` plus
    /// exactly one `#[allow(unsafe_code)]` on its `GlobalAlloc` impl.
    UnsafePolicy,
    /// An atomic `Ordering::*` use without a machine-checked `// ord:`
    /// justification, or a `use` import of `Ordering` variants (which
    /// would hide use sites from this rule).
    OrdComment,
    /// A truncating `as` cast on a time/id newtype payload (`.0 as u8`,
    /// `as_nanos() as u32`, …) that could silently wrap.
    NewtypeCast,
    /// An unstable sort (`sort_unstable*`, `select_nth_unstable*`) or a
    /// float-keyed comparator (`.partial_cmp(...)` at a call site) on a
    /// simulation path. Unstable sorts reorder equal keys
    /// implementation-dependently, so any duplicate-key sort feeding a
    /// report is a byte-identity hazard; `partial_cmp` on floats silently
    /// turns NaN into `Equal`-by-unwrap or panics. Waivable when the key is
    /// provably unique; `total_cmp` is the sanctioned float comparator.
    UnstableSort,
    /// A malformed or unused waiver comment.
    Waiver,
}

impl Rule {
    /// The rule's waiver name, as written in `analyze: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::AmbientTime => "ambient-time",
            Rule::AmbientRng => "ambient-rng",
            Rule::AmbientEnv => "ambient-env",
            Rule::UnsafePolicy => "unsafe-policy",
            Rule::OrdComment => "ord-comment",
            Rule::NewtypeCast => "newtype-cast",
            Rule::UnstableSort => "unstable-sort",
            Rule::Waiver => "waiver",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "hash-iter" => Some(Rule::HashIter),
            "ambient-time" => Some(Rule::AmbientTime),
            "ambient-rng" => Some(Rule::AmbientRng),
            "ambient-env" => Some(Rule::AmbientEnv),
            "unsafe-policy" => Some(Rule::UnsafePolicy),
            "ord-comment" => Some(Rule::OrdComment),
            "newtype-cast" => Some(Rule::NewtypeCast),
            "unstable-sort" => Some(Rule::UnstableSort),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description, including the offending code.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One accepted waiver, destined for the audit report.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The waived rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The justification text (continuation comment lines folded in).
    pub reason: String,
}

/// The outcome of scanning one file or the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct ScanResult {
    /// Findings that no waiver covered.
    pub findings: Vec<Finding>,
    /// Waivers that covered at least one would-be finding.
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// How a file relates to the determinism rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Simulation/report path: all rules apply.
    Sim,
    /// Bench/CLI harness (the btgs-bench and btgs-analyze crates, plus
    /// `src/bin/`, `tests/`, `examples/`, `benches/` and `build.rs`
    /// anywhere): ambient time/rng/env are allowed; the container and
    /// ordering rules still apply.
    Harness,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("crates/bench/")
        || rel.starts_with("crates/analyze/")
        || rel.starts_with("crates/obs/")
    {
        return FileClass::Harness;
    }
    let harness_dir = rel
        .split('/')
        .any(|c| matches!(c, "bin" | "tests" | "examples" | "benches"));
    if harness_dir || rel.ends_with("build.rs") || rel.ends_with("/main.rs") || rel == "main.rs" {
        return FileClass::Harness;
    }
    FileClass::Sim
}

/// Ambient-clock tokens. `Duration` is fine — it is data, not a clock.
const TIME_TOKENS: [&str; 2] = ["Instant", "SystemTime"];
/// Ambient-randomness tokens (no rand dependency exists in-tree; these
/// catch one being smuggled in).
const RNG_TOKENS: [&str; 4] = ["thread_rng", "OsRng", "from_entropy", "getrandom"];
/// Ambient-environment call forms (substring matches on code text).
const ENV_CALLS: [&str; 6] = [
    "env::var",
    "env::var_os",
    "env::vars",
    "env::args",
    "env::args_os",
    "env::temp_dir",
];
/// The atomic `Ordering` variants. `cmp::Ordering`'s `Less`/`Equal`/
/// `Greater` never fire.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Truncating cast forms on newtype payloads and durations.
const CAST_FORMS: [&str; 12] = [
    ".0 as u8",
    ".0 as u16",
    ".0 as u32",
    "as_nanos() as u8",
    "as_nanos() as u16",
    "as_nanos() as u32",
    "as_micros() as u8",
    "as_micros() as u16",
    "as_micros() as u32",
    "as_millis() as u8",
    "as_millis() as u16",
    "as_millis() as u32",
];

/// How many lines above an `Ordering::*` use an `// ord:` comment still
/// counts as annotating it (justification blocks sit above multi-line
/// statements).
const ORD_COMMENT_WINDOW: usize = 6;

/// The one file allowed to carry `#[allow(unsafe_code)]`, per policy.
const UNSAFE_ALLOW_SITE: &str = "crates/bench/src/alloc_counter.rs";

struct PendingWaiver {
    rule: Option<Rule>,
    raw_rule: String,
    line: usize,
    reason: String,
    /// 0-based line the waiver covers.
    covers: usize,
    used: bool,
}

/// Scans one file's source. Returns unwaivered findings plus the waivers
/// that matched something.
pub fn scan_source(rel: &str, src: &str) -> (Vec<Finding>, Vec<Waiver>) {
    let class = classify(rel);
    let lines = lexer::split_lines(src);
    let mut raw_findings: Vec<Finding> = Vec::new();
    let mut waivers = collect_waivers(rel, &lines);
    let test_region = test_regions(&lines);

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = line.code.as_str();
        let trimmed = code.trim();
        if trimmed.is_empty() {
            continue;
        }
        let in_test = test_region[i];
        let is_use = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");

        // hash-iter: any HashMap/HashSet token on a sim line that is not an
        // import. Imports are harmless; every declaration, construction or
        // method call site must be waived or converted.
        if class == FileClass::Sim && !is_use && !in_test {
            for token in ["HashMap", "HashSet"] {
                if lexer::has_token(code, token) {
                    raw_findings.push(Finding {
                        rule: Rule::HashIter,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{token}` on a simulation path — iteration order is \
                             nondeterministic; use BTreeMap/dense arrays, or waive a \
                             lookup-only use: `{trimmed}`"
                        ),
                    });
                    break;
                }
            }
        }

        // Ambient rules: sim files only, and never inside #[cfg(test)] —
        // test scaffolding may read clocks/env without touching a report.
        if class == FileClass::Sim && !in_test {
            if !is_use {
                for token in TIME_TOKENS {
                    if lexer::has_token(code, token) {
                        raw_findings.push(Finding {
                            rule: Rule::AmbientTime,
                            file: rel.to_string(),
                            line: lineno,
                            message: format!(
                                "ambient clock `{token}` on a simulation path — all time \
                                 must flow from SimTime: `{trimmed}`"
                            ),
                        });
                        break;
                    }
                }
            }
            for token in RNG_TOKENS {
                if lexer::has_token(code, token) {
                    raw_findings.push(Finding {
                        rule: Rule::AmbientRng,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "ambient randomness `{token}` — all randomness must flow \
                             from the seeded root RNG: `{trimmed}`"
                        ),
                    });
                    break;
                }
            }
            for call in ENV_CALLS {
                if code.contains(call) {
                    raw_findings.push(Finding {
                        rule: Rule::AmbientEnv,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "ambient environment read `{call}` on a simulation path: \
                             `{trimmed}`"
                        ),
                    });
                    break;
                }
            }
        }

        // ord-comment: every atomic Ordering::* use needs an `ord:`
        // justification on the line or within the preceding window.
        if let Some(pos) = code.find("Ordering::") {
            let after = &code[pos + "Ordering::".len()..];
            let is_atomic = ATOMIC_ORDERINGS
                .iter()
                .any(|v| after.starts_with(v) || after.starts_with('{'));
            if is_atomic {
                if is_use {
                    raw_findings.push(Finding {
                        rule: Rule::OrdComment,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "importing `Ordering` variants hides use sites from the \
                             ord-comment rule — import `Ordering` itself and write \
                             `Ordering::X` at each use: `{trimmed}`"
                        ),
                    });
                } else {
                    let annotated = (i.saturating_sub(ORD_COMMENT_WINDOW)..=i)
                        .any(|j| lines[j].comment.contains("ord:"));
                    if !annotated {
                        raw_findings.push(Finding {
                            rule: Rule::OrdComment,
                            file: rel.to_string(),
                            line: lineno,
                            message: format!(
                                "atomic ordering without an `// ord:` justification \
                                 (same line or within {ORD_COMMENT_WINDOW} lines \
                                 above): `{trimmed}`"
                            ),
                        });
                    }
                }
            }
        }

        // newtype-cast: truncating casts on newtype payloads.
        if class == FileClass::Sim && !in_test {
            for form in CAST_FORMS {
                if contains_cast_form(code, form) {
                    raw_findings.push(Finding {
                        rule: Rule::NewtypeCast,
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "truncating cast `{form}` on a newtype/duration payload — \
                             widen the target or convert checked: `{trimmed}`"
                        ),
                    });
                    break;
                }
            }
        }

        // unstable-sort: unstable sorts and float-keyed comparators on sim
        // paths. `total_cmp` is the sanctioned float comparator and never
        // fires; a `fn partial_cmp` line is a trait-impl definition, not a
        // call site.
        if class == FileClass::Sim && !in_test && !is_use {
            let unstable = ["sort_unstable", "select_nth_unstable"]
                .iter()
                .find(|t| code.contains(*t));
            if let Some(token) = unstable {
                raw_findings.push(Finding {
                    rule: Rule::UnstableSort,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{token}` on a simulation path — equal keys reorder \
                         implementation-dependently; use a stable sort or waive a \
                         provably-unique key: `{trimmed}`"
                    ),
                });
            } else if code.contains(".partial_cmp(") && !code.contains("fn partial_cmp") {
                raw_findings.push(Finding {
                    rule: Rule::UnstableSort,
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`partial_cmp` comparator on a simulation path — NaN breaks \
                         the total order; use `total_cmp` (exempt) or integer keys: \
                         `{trimmed}`"
                    ),
                });
            }
        }

        // unsafe-policy, per-line half: #[allow(unsafe_code)] is only legal
        // at the one audited site (the crate-level attribute checks run in
        // scan_workspace).
        if code.contains("#[allow(unsafe_code)]") && rel != UNSAFE_ALLOW_SITE {
            raw_findings.push(Finding {
                rule: Rule::UnsafePolicy,
                file: rel.to_string(),
                line: lineno,
                message: format!(
                    "`#[allow(unsafe_code)]` outside the one audited site \
                     ({UNSAFE_ALLOW_SITE}): `{trimmed}`"
                ),
            });
        }
    }

    // Apply waivers.
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw_findings {
        let mut waived = false;
        for w in waivers.iter_mut() {
            if w.rule == Some(f.rule) && w.covers + 1 == f.line {
                w.used = true;
                waived = true;
                break;
            }
        }
        if !waived {
            findings.push(f);
        }
    }

    // Malformed or unused waivers are findings themselves.
    let mut kept: Vec<Waiver> = Vec::new();
    for w in waivers {
        match w.rule {
            None => findings.push(Finding {
                rule: Rule::Waiver,
                file: rel.to_string(),
                line: w.line,
                message: format!("waiver names unknown rule `{}`", w.raw_rule),
            }),
            Some(rule) if w.reason.trim().is_empty() => findings.push(Finding {
                rule: Rule::Waiver,
                file: rel.to_string(),
                line: w.line,
                message: format!("waiver for `{rule}` has no reason — every waiver must say why"),
            }),
            Some(rule) if !w.used => findings.push(Finding {
                rule: Rule::Waiver,
                file: rel.to_string(),
                line: w.line,
                message: format!(
                    "unused waiver for `{rule}` — the code it covered no longer \
                     trips the rule; delete it and refresh the audit"
                ),
            }),
            Some(rule) => kept.push(Waiver {
                rule,
                file: rel.to_string(),
                line: w.line,
                reason: w.reason,
            }),
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    (findings, kept)
}

/// `true` when `code` contains `form` (a `… as uN` pattern) at a word
/// boundary on the target type, so `.0 as u32` does not match `.0 as u320`
/// (not that one exists) or identifiers.
fn contains_cast_form(code: &str, form: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(form) {
        let end = from + pos + form.len();
        let boundary = code
            .as_bytes()
            .get(end)
            .is_none_or(|b| !b.is_ascii_alphanumeric());
        if boundary {
            return true;
        }
        from = from + pos + 1;
    }
    false
}

fn collect_waivers(rel: &str, lines: &[SourceLine]) -> Vec<PendingWaiver> {
    let _ = rel;
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // A waiver is a comment *starting* with the marker — prose that
        // merely mentions the syntax (docs, this file) does not waive.
        let trimmed = line.comment.trim_start();
        if !trimmed.starts_with("analyze: allow(") {
            continue;
        }
        let rest = &trimmed["analyze: allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(PendingWaiver {
                rule: None,
                raw_rule: rest.trim().to_string(),
                line: i + 1,
                reason: String::new(),
                covers: i,
                used: false,
            });
            continue;
        };
        let raw_rule = rest[..close].trim().to_string();
        let mut reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
        // The covered line: this one if it has code, else the first
        // following line with code; intervening comment-only lines extend
        // the reason.
        let mut covers = i;
        if line.code.trim().is_empty() {
            let mut j = i + 1;
            while j < lines.len() && lines[j].code.trim().is_empty() {
                if !lines[j].comment.contains("analyze: allow(") {
                    let cont = lines[j].comment.trim();
                    if !cont.is_empty() {
                        if !reason.is_empty() {
                            reason.push(' ');
                        }
                        reason.push_str(cont);
                    }
                }
                j += 1;
            }
            covers = j;
        }
        out.push(PendingWaiver {
            rule: Rule::from_name(&raw_rule),
            raw_rule,
            line: i + 1,
            reason,
            covers,
            used: false,
        });
    }
    out
}

/// Marks, per line, whether it sits inside a `#[cfg(test)]` item (brace
/// tracking on the lexed code text, so braces in strings don't count).
fn test_regions(lines: &[SourceLine]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // When inside a test item: the depth at which it ends.
    let mut test_until: Option<i64> = None;
    let mut pending_attr = false;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_until.is_some() {
            out[i] = true;
        }
        if code.contains("#[cfg(test)]") && test_until.is_none() {
            pending_attr = true;
            out[i] = true;
        }
        let opens = code.chars().filter(|&c| c == '{').count() as i64;
        let closes = code.chars().filter(|&c| c == '}').count() as i64;
        if pending_attr {
            out[i] = true;
            if opens > 0 {
                // The item body opened here; it ends when depth returns.
                test_until = Some(depth);
                pending_attr = false;
            } else if code.trim_end().ends_with(';') {
                // Attribute on a braceless item (a `use`, a `mod x;`).
                pending_attr = false;
            }
        }
        depth += opens - closes;
        if let Some(base) = test_until {
            if depth <= base {
                test_until = None;
            }
        }
    }
    out
}

/// Scans every `.rs` file under `root` (skipping `target/`), applies the
/// per-file rules, and runs the crate-level unsafe-policy checks.
///
/// # Errors
///
/// Returns the first I/O error encountered while walking or reading.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanResult> {
    let mut files = Vec::new();
    walk_rs(root, root, &mut files)?;
    files.sort();

    let mut result = ScanResult::default();
    let mut bench_allow_sites: Vec<(String, usize)> = Vec::new();
    let mut lib_sources: Vec<(String, String)> = Vec::new();

    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let (findings, waivers) = scan_source(&rel, &src);
        result.findings.extend(findings);
        result.waivers.extend(waivers);
        result.files_scanned += 1;

        if rel.starts_with("crates/bench/") {
            let lines = lexer::split_lines(&src);
            for (i, line) in lines.iter().enumerate() {
                if line.code.contains("#[allow(unsafe_code)]") {
                    bench_allow_sites.push((rel.clone(), i + 1));
                }
            }
        }
        if rel.ends_with("src/lib.rs") {
            lib_sources.push((rel, src));
        }
    }

    // Crate-level unsafe policy.
    for (rel, src) in &lib_sources {
        let lines = lexer::split_lines(src);
        let has = |attr: &str| lines.iter().any(|l| l.code.contains(attr));
        if rel.starts_with("crates/bench/") {
            if !has("#![deny(unsafe_code)]") {
                result.findings.push(Finding {
                    rule: Rule::UnsafePolicy,
                    file: rel.clone(),
                    line: 1,
                    message: "btgs-bench must carry `#![deny(unsafe_code)]` (policy: deny \
                              plus exactly one audited allow on the GlobalAlloc impl)"
                        .to_string(),
                });
            }
        } else if !has("#![forbid(unsafe_code)]") {
            result.findings.push(Finding {
                rule: Rule::UnsafePolicy,
                file: rel.clone(),
                line: 1,
                message: "missing `#![forbid(unsafe_code)]` — every crate except \
                          btgs-bench forbids unsafe outright"
                    .to_string(),
            });
        }
    }
    match bench_allow_sites.as_slice() {
        [(file, _)] if file == UNSAFE_ALLOW_SITE => {}
        [] => result.findings.push(Finding {
            rule: Rule::UnsafePolicy,
            file: UNSAFE_ALLOW_SITE.to_string(),
            line: 1,
            message: "expected exactly one `#[allow(unsafe_code)]` on btgs-bench's \
                      GlobalAlloc impl; found none (policy drift — update the lint if \
                      the allocator moved)"
                .to_string(),
        }),
        sites => {
            for (file, line) in sites {
                if file != UNSAFE_ALLOW_SITE || sites.len() > 1 {
                    result.findings.push(Finding {
                        rule: Rule::UnsafePolicy,
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "btgs-bench allows unsafe at {} site(s); policy is exactly \
                             one, on the GlobalAlloc impl in {UNSAFE_ALLOW_SITE}",
                            sites.len()
                        ),
                    });
                }
            }
        }
    }

    result
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    result
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(result)
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths live under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/piconet/src/scatternet.rs"), FileClass::Sim);
        assert_eq!(classify("src/lib.rs"), FileClass::Sim);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Harness);
        assert_eq!(classify("crates/analyze/src/lint.rs"), FileClass::Harness);
        assert_eq!(classify("crates/obs/src/lib.rs"), FileClass::Harness);
        assert_eq!(classify("crates/core/src/bin/tool.rs"), FileClass::Harness);
        assert_eq!(classify("crates/core/tests/t.rs"), FileClass::Harness);
    }

    #[test]
    fn waiver_covers_next_code_line() {
        let src = "\
// analyze: allow(hash-iter): lookup-only index,
// never iterated.
let m: HashMap<u32, u32> = HashMap::new();
";
        let (findings, waivers) = scan_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
        assert_eq!(waivers.len(), 1);
        assert!(waivers[0].reason.contains("never iterated"));
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "// analyze: allow(hash-iter): stale\nlet x = 1;\n";
        let (findings, waivers) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(waivers.len(), 0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::Waiver);
    }
}
