//! Host fingerprinting for the microbench JSON output.
//!
//! Wall-clock numbers from different hosts are not comparable, so every
//! `BTGS_BENCH_JSON` record carries the fingerprint of the machine it
//! came from.
//!
//! The fingerprint is `hostname/cpu-model`, read from `/proc` on Linux
//! with conservative fallbacks elsewhere — it only needs to be stable on
//! one machine and distinct across different hardware, not globally
//! unique.

/// `hostname/cpu-model`, whitespace-normalised.
pub fn host_fingerprint() -> String {
    format!("{}/{}", hostname(), cpu_model())
}

fn sanitize(s: &str) -> String {
    let cleaned: Vec<&str> = s.split_whitespace().collect();
    cleaned.join(" ")
}

/// The machine's hostname (`/proc/sys/kernel/hostname`, then
/// `$HOSTNAME`, then `"unknown-host"`).
pub fn hostname() -> String {
    let from_proc = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| sanitize(&s))
        .filter(|s| !s.is_empty());
    from_proc
        .or_else(|| {
            std::env::var("HOSTNAME")
                .ok()
                .map(|s| sanitize(&s))
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown-host".to_owned())
}

/// The CPU model (`model name` from `/proc/cpuinfo`, falling back to the
/// architecture).
pub fn cpu_model() -> String {
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in cpuinfo.lines() {
            // x86 calls it "model name"; some ARM kernels use "Processor".
            if line.starts_with("model name") || line.starts_with("Processor") {
                if let Some((_, model)) = line.split_once(':') {
                    let model = sanitize(model);
                    if !model.is_empty() {
                        return model;
                    }
                }
            }
        }
    }
    format!("unknown-cpu-{}", std::env::consts::ARCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_non_empty() {
        let a = host_fingerprint();
        let b = host_fingerprint();
        assert_eq!(a, b, "fingerprint must be stable within a process");
        assert!(a.contains('/'));
        let (host, cpu) = a.split_once('/').unwrap();
        assert!(!host.is_empty());
        assert!(!cpu.is_empty());
        // Normalised: no newlines or runs of spaces (JSON-safe, one
        // line).
        assert!(!a.contains('\n'));
        assert!(!a.contains("  "));
    }

    #[test]
    fn sanitize_collapses_whitespace() {
        assert_eq!(sanitize("  a \t b\nc  "), "a b c");
        assert_eq!(sanitize(""), "");
    }
}
