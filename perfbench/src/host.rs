//! The host fingerprint stamped on every result, peak memory, and the
//! bundled reference (`reference.txt`: default-seed digests and the
//! medians of a recorded set of runs, with the fingerprint of the host
//! that recorded them).

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::string;

/// What a timing result depends on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model string (`/proc/cpuinfo`).
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Widest SIMD extension the CPU reports.
    pub simd: &'static str,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, `unknown` outside a git work tree.
    pub commit: String,
}

impl Host {
    /// Reads the fingerprint of this host; the commit is read from
    /// `.git` under `root`, without leaving it.
    #[must_use]
    pub fn detect(root: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cpu,
            nproc: srmac_tensor::available_threads(),
            simd: widest_simd(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// The fields that make timings comparable: everything but the
    /// commit (comparing commits is the point of a benchmark).
    fn comparable(&self) -> [(&'static str, String); 4] {
        [
            ("cpu", self.cpu.clone()),
            ("nproc", self.nproc.to_string()),
            ("simd", self.simd.to_owned()),
            ("rustc", self.rustc.to_owned()),
        ]
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut fields: Vec<String> = self
            .comparable()
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v)))
            .collect();
        fields.push(format!("\"commit\": {}", string(&self.commit)));
        format!("{{{}}}", fields.join(", "))
    }
}

fn widest_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if is_x86_feature_detected!("sse4.2") {
            return "sse4.2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none"
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The bundled reference: `key value` lines, `#` comments.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<String, String>,
}

impl Reference {
    /// The reference compiled into the benchmark.
    #[must_use]
    pub fn bundled() -> Self {
        Self::parse(include_str!("../reference.txt"))
    }

    /// Parses `key value` lines.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_owned(), v.trim().to_owned()))
            .collect();
        Self { entries }
    }

    /// The digest recorded for `workload` at the default seed.
    #[must_use]
    pub fn digest(&self, workload: &str) -> Option<&str> {
        self.entries
            .get(&format!("digest.{workload}"))
            .map(String::as_str)
    }

    /// One line per metric setting `values` against the recorded
    /// medians of `workload` — or, when the reference was recorded on a
    /// host with another fingerprint, a single line saying so and no
    /// comparison at all.
    #[must_use]
    pub fn compare(
        &self,
        host: &Host,
        workload: &str,
        values: &BTreeMap<String, f64>,
    ) -> Vec<String> {
        let differs: Vec<String> = host
            .comparable()
            .iter()
            .filter_map(|(k, v)| {
                let recorded = self.entries.get(&format!("host.{k}"));
                (recorded != Some(v)).then(|| format!("{k}: {recorded:?} there, {v:?} here"))
            })
            .collect();
        if !differs.is_empty() {
            return vec![format!(
                "reference recorded on a different host ({}); not compared",
                differs.join("; ")
            )];
        }
        values
            .iter()
            .filter_map(|(name, v)| {
                let recorded: f64 = self
                    .entries
                    .get(&format!("median.{workload}.{name}"))?
                    .parse()
                    .ok()?;
                Some(format!(
                    "{name}: {v:.4} vs reference median {recorded:.4} ({:+.1}%)",
                    (v / recorded - 1.0) * 100.0
                ))
            })
            .collect()
    }
}
