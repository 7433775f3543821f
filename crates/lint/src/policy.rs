//! The workspace policy: which crates are policed by which passes, the
//! per-crate `unsafe` header each root must declare, and the small file
//! allowlists for the places whose *job* is the thing the passes ban.
//!
//! This table is the single source of truth the README "Static
//! analysis" section documents. Changing it is an explicit, reviewable
//! act — exactly the point of the linter.

/// The `unsafe_code` lint level a crate root must declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeHeader {
    /// `#![forbid(unsafe_code)]` — no unsafe, not even via `allow`.
    Forbid,
    /// `#![deny(unsafe_code)]` — unsafe only behind per-site
    /// `#[allow(unsafe_code)]`, which pass 1 then polices for SAFETY
    /// comments and the file allowlist.
    Deny,
}

impl UnsafeHeader {
    /// The attribute ident the header check looks for.
    #[must_use]
    pub fn ident(self) -> &'static str {
        match self {
            UnsafeHeader::Forbid => "forbid",
            UnsafeHeader::Deny => "deny",
        }
    }
}

/// One policed crate.
#[derive(Debug, Clone, Copy)]
pub struct CratePolicy {
    /// Crate directory relative to the workspace root (`crates/fp`), or
    /// `""` for the root facade.
    pub dir: &'static str,
    /// Crate-root file relative to the workspace root.
    pub root: &'static str,
    /// Required `#![…(unsafe_code)]` header.
    pub header: UnsafeHeader,
    /// Determinism pass (hash collections, wall-clock, thread spawns)
    /// applies to this crate's `src/`.
    pub determinism: bool,
    /// Panic-hygiene pass (`.unwrap()`/`.expect(`) applies to this
    /// crate's `src/`.
    pub panic_hygiene: bool,
}

/// Every first-party crate. `vendor/` stand-ins are deliberately out of
/// scope (they emulate external APIs), and `bench` is exempt from the
/// determinism and panic passes: timing *is* its job and its bins are
/// operator tools where panicking on bad flags is the interface.
pub const CRATES: &[CratePolicy] = &[
    CratePolicy {
        dir: "",
        root: "src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/fp",
        root: "crates/fp/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/rng",
        root: "crates/rng/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/core",
        root: "crates/core/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/runtime",
        root: "crates/runtime/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/qgemm",
        root: "crates/qgemm/src/lib.rs",
        header: UnsafeHeader::Deny,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/tensor",
        root: "crates/tensor/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/hwcost",
        root: "crates/hwcost/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/io",
        root: "crates/io/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/models",
        root: "crates/models/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
    CratePolicy {
        dir: "crates/bench",
        root: "crates/bench/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: false,
        panic_hygiene: false,
    },
    CratePolicy {
        dir: "crates/lint",
        root: "crates/lint/src/lib.rs",
        header: UnsafeHeader::Forbid,
        determinism: true,
        panic_hygiene: true,
    },
];

/// The only files allowed to contain `unsafe` at all: the SIMD dispatch
/// and kernels of the MAC engine, behind `qgemm`'s `#![deny]` +
/// per-site `#[allow(unsafe_code)]` + `// SAFETY:` protocol.
pub const UNSAFE_ALLOWED_FILES: &[&str] = &[
    "crates/qgemm/src/batch.rs",
    "crates/qgemm/src/engine.rs",
    "crates/qgemm/src/fastmath.rs",
];

/// Files where thread creation is the feature, not a leak: the runtime
/// worker pool (the *one* place threads come from) and the serving
/// subsystem (replica workers + router are explicit OS threads by
/// design; the bitwise batching-invariance contract is proven over
/// them). Everything else must dispatch through `srmac-runtime` or
/// carry a `// DETERMINISM-OK:` justification.
pub const SPAWN_ALLOWED_FILES: &[&str] =
    &["crates/runtime/src/pool.rs", "crates/models/src/serve.rs"];

/// Files where wall-clock time is the feature: serving deadlines and
/// latency histograms measure real time on purpose, and the results
/// never feed arithmetic.
pub const WALL_CLOCK_ALLOWED_FILES: &[&str] = &["crates/models/src/serve.rs"];

/// Constructor idents the diag-registry pass parses:
/// `DiagCode::new(ns, id, name)` in the runtime crates and this tool's
/// own `LintCode::new(…)` — the registry polices itself.
pub const DIAG_CONSTRUCTORS: &[&str] = &["DiagCode", "LintCode"];

/// Where the registry pass looks for the documented-code table.
pub const README: &str = "README.md";

/// Annotation markers.
pub const SAFETY_MARKER: &str = "SAFETY:";
/// Justifies a `.unwrap()`/`.expect(` in library code.
pub const PANIC_MARKER: &str = "PANIC-OK:";
/// Justifies a determinism-pass hit (e.g. a scoped-thread reference
/// path whose output is bitwise thread-invariant).
pub const DETERMINISM_MARKER: &str = "DETERMINISM-OK:";
