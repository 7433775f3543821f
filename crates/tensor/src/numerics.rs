//! Per-role numerics policy: which [`GemmEngine`] runs each kind of GEMM.
//!
//! The paper's central question is *where* low-precision stochastic
//! rounding is safe during training, and its experiments mix formats and
//! rounding modes across the forward and backward passes. A [`Numerics`]
//! policy makes those experiments expressible: it resolves an engine per
//! [`GemmRole`] — [`GemmRole::Forward`], [`GemmRole::BackwardData`]
//! (`dX = dY · W`), [`GemmRole::BackwardWeight`] (`dW = dYᵀ · X`) — so
//! e.g. "round-to-nearest forward, SR backward" is one object instead of
//! a fork of the model code. Every GEMM layer of a model runs its role's
//! engine: policies differ by role, never by layer.
//!
//! # Building a policy
//!
//! - [`Numerics::uniform`] wraps one engine for every role — the exact
//!   single-engine behavior this module replaced, bit for bit (all roles
//!   share the *same* engine object, so its SR streams are consumed
//!   exactly as before).
//! - [`Numerics::builder`] assigns one engine per role in code.
//! - [`Numerics::from_spec`] parses a **named spec** such as
//!   `"fwd=f32;bwd=f32"` — one string describes a whole mixed-precision
//!   experiment. The spec grammar is [`PolicySpec`]; each engine *atom*
//!   is handed to the caller's resolver. `srmac-qgemm`'s
//!   `numerics_from_spec` is the one resolver in the workspace: it knows
//!   `"f32"` and the MAC-engine atoms like `fp8_fp12_sr13`.
//!
//! # The per-role SR seeding rule
//!
//! Stochastic-rounding engines draw from streams seeded per output
//! coordinate. If the three roles of a per-role policy were built from
//! the same config, forward and backward products would consume
//! *identical* rounding words at equal coordinates — a correlation no
//! hardware MAC would exhibit. Per-role resolution therefore folds the
//! role id into the engine seed ([`fold_role_seed`]) whenever a per-role
//! spec atom does not pin a seed explicitly; an explicit `seed…` token is
//! always used verbatim. Uniform policies (one shared engine) never fold,
//! which is what keeps every role of [`Numerics::uniform`] on the one
//! engine's streams, bit for bit.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::engine::GemmEngine;

/// The three kinds of matrix product a training step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GemmRole {
    /// Forward products (`Y = X · Wᵀ`); the only role inference uses.
    Forward,
    /// Data-gradient products (`dX = dY · W`).
    BackwardData,
    /// Weight-gradient products (`dW = dYᵀ · X`).
    BackwardWeight,
}

impl GemmRole {
    /// Every role, in the fixed `fwd, dgrad, wgrad` order.
    pub const ALL: [GemmRole; 3] = [
        GemmRole::Forward,
        GemmRole::BackwardData,
        GemmRole::BackwardWeight,
    ];

    /// Stable numeric id (0 = fwd, 1 = dgrad, 2 = wgrad) — the value
    /// folded into SR stream seeds by [`fold_role_seed`]. Part of the
    /// determinism contract: changing these ids re-seeds every per-role
    /// SR stream.
    #[must_use]
    pub fn id(self) -> u64 {
        match self {
            GemmRole::Forward => 0,
            GemmRole::BackwardData => 1,
            GemmRole::BackwardWeight => 2,
        }
    }

    /// The spec-grammar key for this role (`"fwd"`, `"dgrad"`, `"wgrad"`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            GemmRole::Forward => "fwd",
            GemmRole::BackwardData => "dgrad",
            GemmRole::BackwardWeight => "wgrad",
        }
    }
}

impl fmt::Display for GemmRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Folds a [`GemmRole`] into a base seed, so per-role engines built from
/// one spec atom draw independent SR streams (see the module docs). The
/// mix is a fixed SplitMix64-style finalizer: deterministic, documented,
/// and pinned by tests — checkpointed experiments depend on it.
#[must_use]
pub fn fold_role_seed(seed: u64, role: GemmRole) -> u64 {
    let mut z = seed ^ role.id().wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// The engines of a policy, one per [`GemmRole`].
///
/// Cheap to clone (three `Arc`s). A *uniform* triple shares a single
/// engine object across the roles.
#[derive(Clone)]
pub struct RoleEngines {
    fwd: Arc<dyn GemmEngine>,
    dgrad: Arc<dyn GemmEngine>,
    wgrad: Arc<dyn GemmEngine>,
}

impl fmt::Debug for RoleEngines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RoleEngines(fwd: {}, dgrad: {}, wgrad: {})",
            self.fwd.name(),
            self.dgrad.name(),
            self.wgrad.name()
        )
    }
}

impl RoleEngines {
    /// One engine per role.
    #[must_use]
    pub fn new(
        fwd: Arc<dyn GemmEngine>,
        dgrad: Arc<dyn GemmEngine>,
        wgrad: Arc<dyn GemmEngine>,
    ) -> Self {
        Self { fwd, dgrad, wgrad }
    }

    /// The same engine object for every role.
    #[must_use]
    pub fn uniform(engine: Arc<dyn GemmEngine>) -> Self {
        Self {
            fwd: Arc::clone(&engine),
            dgrad: Arc::clone(&engine),
            wgrad: engine,
        }
    }

    /// The engine for `role`.
    #[must_use]
    pub fn get(&self, role: GemmRole) -> &Arc<dyn GemmEngine> {
        match role {
            GemmRole::Forward => &self.fwd,
            GemmRole::BackwardData => &self.dgrad,
            GemmRole::BackwardWeight => &self.wgrad,
        }
    }

    /// True when all three roles share one engine *object* (pointer
    /// identity, not config equality).
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        Arc::ptr_eq(&self.fwd, &self.dgrad) && Arc::ptr_eq(&self.fwd, &self.wgrad)
    }
}

/// Error parsing a policy spec or resolving its engine atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string (or one of its fields) was empty.
    Empty,
    /// A structural problem in the spec text.
    Syntax(String),
    /// An assignment key is not `fwd`, `dgrad`, `wgrad` or `bwd`.
    UnknownRole(String),
    /// A role was assigned more than once (directly or via `bwd=`).
    DuplicateRole(&'static str),
    /// A role was never assigned.
    MissingRole(&'static str),
    /// The resolver rejected an engine atom.
    Engine {
        /// The offending atom.
        atom: String,
        /// The resolver's reason.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty numerics spec"),
            SpecError::Syntax(what) => write!(f, "bad numerics spec syntax: {what}"),
            SpecError::UnknownRole(key) => write!(
                f,
                "unknown role key {key:?} (expected fwd, dgrad, wgrad or bwd)"
            ),
            SpecError::DuplicateRole(role) => {
                write!(f, "role {role} assigned more than once")
            }
            SpecError::MissingRole(role) => write!(f, "role {role} was never assigned"),
            SpecError::Engine { atom, reason } => {
                write!(f, "bad engine spec {atom:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The parsed structure of a policy spec string — engine *atoms* per
/// role, before any engine is built.
///
/// Grammar (whitespace-free):
///
/// - `"<atom>"` — a **uniform** policy: one shared engine for all roles.
/// - `"fwd=<atom>;dgrad=<atom>;wgrad=<atom>"` — fully per-role.
/// - `"fwd=<atom>;bwd=<atom>"` — `bwd=` assigns both backward roles.
///
/// Every role must be assigned exactly once. [`fmt::Display`] emits the
/// canonical form (collapsing equal backward atoms to `bwd=`), and
/// `Display` → [`FromStr`] round-trips exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// One atom, one shared engine.
    Uniform(String),
    /// One atom per role.
    PerRole {
        /// Forward atom.
        fwd: String,
        /// Data-gradient atom.
        dgrad: String,
        /// Weight-gradient atom.
        wgrad: String,
    },
}

impl PolicySpec {
    /// The distinct atoms of the spec, in `fwd, dgrad, wgrad` order
    /// (uniform specs yield their single atom once).
    pub fn atoms(&self) -> impl Iterator<Item = &str> {
        match self {
            PolicySpec::Uniform(a) => vec![a.as_str()],
            PolicySpec::PerRole { fwd, dgrad, wgrad } => {
                vec![fwd.as_str(), dgrad.as_str(), wgrad.as_str()]
            }
        }
        .into_iter()
    }
}

impl FromStr for PolicySpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        if !s.contains('=') {
            if s.contains(';') {
                return Err(SpecError::Syntax(format!(
                    "{s:?} mixes a bare atom with ';'-separated assignments"
                )));
            }
            return Ok(PolicySpec::Uniform(s.to_owned()));
        }
        let mut fwd: Option<String> = None;
        let mut dgrad: Option<String> = None;
        let mut wgrad: Option<String> = None;
        for field in s.split(';') {
            let field = field.trim();
            if field.is_empty() {
                return Err(SpecError::Syntax(format!("empty assignment in {s:?}")));
            }
            let Some((key, atom)) = field.split_once('=') else {
                return Err(SpecError::Syntax(format!(
                    "assignment {field:?} is missing '='"
                )));
            };
            let (key, atom) = (key.trim(), atom.trim());
            if atom.is_empty() {
                return Err(SpecError::Syntax(format!(
                    "{key}= has an empty engine atom"
                )));
            }
            let assign = |slot: &mut Option<String>, name: &'static str| {
                if slot.is_some() {
                    return Err(SpecError::DuplicateRole(name));
                }
                *slot = Some(atom.to_owned());
                Ok(())
            };
            match key {
                "fwd" => assign(&mut fwd, "fwd")?,
                "dgrad" => assign(&mut dgrad, "dgrad")?,
                "wgrad" => assign(&mut wgrad, "wgrad")?,
                "bwd" => {
                    assign(&mut dgrad, "dgrad")?;
                    assign(&mut wgrad, "wgrad")?;
                }
                other => return Err(SpecError::UnknownRole(other.to_owned())),
            }
        }
        Ok(PolicySpec::PerRole {
            fwd: fwd.ok_or(SpecError::MissingRole("fwd"))?,
            dgrad: dgrad.ok_or(SpecError::MissingRole("dgrad"))?,
            wgrad: wgrad.ok_or(SpecError::MissingRole("wgrad"))?,
        })
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Uniform(atom) => f.write_str(atom),
            PolicySpec::PerRole { fwd, dgrad, wgrad } => {
                if dgrad == wgrad {
                    write!(f, "fwd={fwd};bwd={dgrad}")
                } else {
                    write!(f, "fwd={fwd};dgrad={dgrad};wgrad={wgrad}")
                }
            }
        }
    }
}

/// A per-role engine policy — see the module docs for the three ways to
/// build one.
#[derive(Clone)]
pub struct Numerics {
    base: RoleEngines,
    /// The spec this policy was parsed from, when it was ([`Numerics::to_spec`]
    /// returns it verbatim so spec → policy → spec is lossless).
    spec: Option<PolicySpec>,
}

impl fmt::Debug for Numerics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Numerics({})", self.describe())
    }
}

impl Numerics {
    /// One engine for every role. All roles share the engine *object*,
    /// so every product runs on that one engine (no role seed folding
    /// happens here).
    #[must_use]
    pub fn uniform(engine: Arc<dyn GemmEngine>) -> Self {
        Self {
            base: RoleEngines::uniform(engine),
            spec: None,
        }
    }

    /// Starts a [`NumericsBuilder`].
    #[must_use]
    pub fn builder() -> NumericsBuilder {
        NumericsBuilder::default()
    }

    /// Builds a policy from a [`PolicySpec`] string, turning each engine
    /// atom into an engine with `resolve(atom, role)` (see the module
    /// docs; `srmac-qgemm`'s `numerics_from_spec` supplies the resolver).
    ///
    /// A uniform spec resolves its atom once with `role = None` and
    /// shares that **one engine** across the roles (bitwise identical to
    /// [`Numerics::uniform`] of it); a per-role spec resolves one engine
    /// per role, passing `Some(role)` so the resolver can fold the role
    /// id into default SR seeds.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on bad syntax or an atom `resolve` rejects.
    pub fn from_spec(
        spec: &str,
        resolve: impl Fn(&str, Option<GemmRole>) -> Result<Arc<dyn GemmEngine>, SpecError>,
    ) -> Result<Self, SpecError> {
        let parsed: PolicySpec = spec.parse()?;
        let base = match &parsed {
            PolicySpec::Uniform(atom) => RoleEngines::uniform(resolve(atom, None)?),
            PolicySpec::PerRole { fwd, dgrad, wgrad } => RoleEngines::new(
                resolve(fwd, Some(GemmRole::Forward))?,
                resolve(dgrad, Some(GemmRole::BackwardData))?,
                resolve(wgrad, Some(GemmRole::BackwardWeight))?,
            ),
        };
        Ok(Self {
            base,
            spec: Some(parsed),
        })
    }

    /// The engine for `role`.
    #[must_use]
    pub fn engine(&self, role: GemmRole) -> &Arc<dyn GemmEngine> {
        self.base.get(role)
    }

    /// The role engines every GEMM layer of a model is built with.
    #[must_use]
    pub fn roles(&self) -> &RoleEngines {
        &self.base
    }

    /// True when every role runs one shared engine.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.base.is_uniform()
    }

    /// The canonical spec string this policy can be rebuilt from:
    ///
    /// - a policy built by [`Numerics::from_spec`] returns that spec
    ///   verbatim;
    /// - otherwise the atoms are derived from each engine's
    ///   [`GemmEngine::spec`], with per-role atoms carrying their exact
    ///   seeds, so rebuilding never re-folds a role seed.
    ///
    /// Returns `None` when an engine has no spec form.
    #[must_use]
    pub fn to_spec(&self) -> Option<String> {
        if let Some(spec) = &self.spec {
            return Some(spec.to_string());
        }
        if self.base.is_uniform() {
            return self.base.fwd.spec();
        }
        let spec = PolicySpec::PerRole {
            fwd: self.base.fwd.spec()?,
            dgrad: self.base.dgrad.spec()?,
            wgrad: self.base.wgrad.spec()?,
        };
        Some(spec.to_string())
    }

    /// Checks that the engine the policy uses for forward products is
    /// position-invariant — the serving determinism contract.
    ///
    /// # Errors
    ///
    /// Returns the offending engine's [`GemmEngine::name`].
    pub fn forward_position_invariant(&self) -> Result<(), String> {
        let fwd = self.engine(GemmRole::Forward);
        if fwd.position_invariant() {
            Ok(())
        } else {
            Err(fwd.name())
        }
    }

    /// Short human-readable description (engine names per role).
    #[must_use]
    pub fn describe(&self) -> String {
        if self.base.is_uniform() {
            format!("uniform: {}", self.base.fwd.name())
        } else {
            format!(
                "fwd: {} | dgrad: {} | wgrad: {}",
                self.base.fwd.name(),
                self.base.dgrad.name(),
                self.base.wgrad.name()
            )
        }
    }
}

/// Builds a [`Numerics`] policy in code, one engine per role (see
/// [`Numerics::builder`]).
#[derive(Default)]
pub struct NumericsBuilder {
    fwd: Option<Arc<dyn GemmEngine>>,
    dgrad: Option<Arc<dyn GemmEngine>>,
    wgrad: Option<Arc<dyn GemmEngine>>,
}

impl fmt::Debug for NumericsBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NumericsBuilder(fwd: {}, dgrad: {}, wgrad: {})",
            self.fwd.as_ref().map_or("unset".into(), |e| e.name()),
            self.dgrad.as_ref().map_or("unset".into(), |e| e.name()),
            self.wgrad.as_ref().map_or("unset".into(), |e| e.name())
        )
    }
}

impl NumericsBuilder {
    /// Assigns the engine of one role.
    #[must_use]
    pub fn role(mut self, role: GemmRole, engine: Arc<dyn GemmEngine>) -> Self {
        match role {
            GemmRole::Forward => self.fwd = Some(engine),
            GemmRole::BackwardData => self.dgrad = Some(engine),
            GemmRole::BackwardWeight => self.wgrad = Some(engine),
        }
        self
    }

    /// Finishes the policy.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::MissingRole`] when a role was never assigned.
    pub fn build(self) -> Result<Numerics, SpecError> {
        Ok(Numerics {
            base: RoleEngines::new(
                self.fwd.ok_or(SpecError::MissingRole("fwd"))?,
                self.dgrad.ok_or(SpecError::MissingRole("dgrad"))?,
                self.wgrad.ok_or(SpecError::MissingRole("wgrad"))?,
            ),
            spec: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::F32Engine;

    fn f32_engine() -> Arc<dyn GemmEngine> {
        Arc::new(F32Engine::new(1))
    }

    /// A resolver that knows the one atom this crate can build.
    fn f32_only(atom: &str, _: Option<GemmRole>) -> Result<Arc<dyn GemmEngine>, SpecError> {
        if atom == "f32" {
            Ok(f32_engine())
        } else {
            Err(SpecError::Engine {
                atom: atom.to_owned(),
                reason: "not f32".to_owned(),
            })
        }
    }

    #[test]
    fn policy_spec_parses_and_roundtrips() {
        for (input, canonical) in [
            ("f32", "f32"),
            ("fwd=f32;bwd=f32", "fwd=f32;bwd=f32"),
            ("fwd=a;dgrad=b;wgrad=c", "fwd=a;dgrad=b;wgrad=c"),
            ("fwd=a;dgrad=b;wgrad=b", "fwd=a;bwd=b"),
            (" fwd = a ; bwd = b ", "fwd=a;bwd=b"),
        ] {
            let spec: PolicySpec = input.parse().expect(input);
            assert_eq!(spec.to_string(), canonical, "{input}");
            let again: PolicySpec = spec.to_string().parse().expect("canonical reparse");
            assert_eq!(again, spec, "{input}");
        }
    }

    #[test]
    fn policy_spec_rejects_garbage() {
        for (input, want) in [
            ("", SpecError::Empty),
            ("   ", SpecError::Empty),
            ("fwd=f32", SpecError::MissingRole("dgrad")),
            ("bwd=f32", SpecError::MissingRole("fwd")),
            (
                "fwd=f32;bwd=f32;wgrad=f32",
                SpecError::DuplicateRole("wgrad"),
            ),
            ("fwd=f32;fwd=f32;bwd=f32", SpecError::DuplicateRole("fwd")),
            (
                "sideways=f32;bwd=f32",
                SpecError::UnknownRole("sideways".into()),
            ),
        ] {
            assert_eq!(input.parse::<PolicySpec>().unwrap_err(), want, "{input:?}");
        }
        assert!(matches!(
            "f32;f32".parse::<PolicySpec>().unwrap_err(),
            SpecError::Syntax(_)
        ));
        assert!(matches!(
            "fwd=;bwd=f32".parse::<PolicySpec>().unwrap_err(),
            SpecError::Syntax(_)
        ));
        assert!(matches!(
            "fwd=f32;;bwd=f32".parse::<PolicySpec>().unwrap_err(),
            SpecError::Syntax(_)
        ));
    }

    #[test]
    fn uniform_policy_shares_one_engine_object() {
        let n = Numerics::uniform(f32_engine());
        assert!(n.is_uniform());
        for role in GemmRole::ALL {
            assert!(Arc::ptr_eq(n.engine(role), n.engine(GemmRole::Forward)));
        }
        assert_eq!(n.to_spec().as_deref(), Some("f32"));
    }

    #[test]
    fn from_spec_builds_f32_policies() {
        let uniform = Numerics::from_spec("f32", f32_only).expect("uniform f32");
        assert!(uniform.is_uniform());
        assert_eq!(uniform.to_spec().as_deref(), Some("f32"));

        let per_role = Numerics::from_spec("fwd=f32;bwd=f32", f32_only).expect("per-role f32");
        assert!(
            !per_role.is_uniform(),
            "per-role engines are distinct objects"
        );
        assert_eq!(per_role.to_spec().as_deref(), Some("fwd=f32;bwd=f32"));
    }

    #[test]
    fn fold_role_seed_is_pinned_and_role_distinct() {
        let base = 0x5EED;
        let seeds: Vec<u64> = GemmRole::ALL
            .iter()
            .map(|&r| fold_role_seed(base, r))
            .collect();
        assert_eq!(seeds.len(), 3);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[0], seeds[2]);
        assert_ne!(seeds[1], seeds[2]);
        // Pinned values: checkpointed per-role experiments rebuild their
        // engines through this fold, so changing it is a format break.
        assert_eq!(seeds[0], 0x8a2b_053d_77e8_a66e);
        assert_eq!(seeds[1], 0xfbe1_9222_0f52_ff9c);
        assert_eq!(seeds[2], 0xe2ef_232c_f104_2259);
    }

    #[test]
    fn builder_assigns_roles_and_rejects_missing_ones() {
        let a = f32_engine();
        let b = f32_engine();
        let n = Numerics::builder()
            .role(GemmRole::Forward, Arc::clone(&a))
            .role(GemmRole::BackwardData, Arc::clone(&b))
            .role(GemmRole::BackwardWeight, Arc::clone(&b))
            .build()
            .expect("complete builder");
        assert!(Arc::ptr_eq(n.engine(GemmRole::Forward), &a));
        assert!(Arc::ptr_eq(n.engine(GemmRole::BackwardData), &b));
        assert!(Arc::ptr_eq(n.engine(GemmRole::BackwardWeight), &b));
        assert!(!n.is_uniform());
        assert_eq!(n.to_spec().as_deref(), Some("fwd=f32;bwd=f32"));

        assert_eq!(
            Numerics::builder()
                .role(GemmRole::Forward, Arc::clone(&a))
                .build()
                .unwrap_err(),
            SpecError::MissingRole("dgrad")
        );
        assert_eq!(
            Numerics::builder()
                .role(GemmRole::Forward, Arc::clone(&a))
                .role(GemmRole::BackwardData, a)
                .build()
                .unwrap_err(),
            SpecError::MissingRole("wgrad")
        );
        assert_eq!(
            Numerics::builder()
                .role(GemmRole::BackwardWeight, b)
                .build()
                .unwrap_err(),
            SpecError::MissingRole("fwd")
        );
    }

    /// An exact engine that reports position-dependent numerics, standing
    /// in for a position-seeded SR engine.
    struct PositionVariant(F32Engine);

    impl GemmEngine for PositionVariant {
        fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> crate::PackedOperand {
            self.0.pack_a(rows, cols, a)
        }
        fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> crate::PackedOperand {
            self.0.pack_b(rows, cols, b)
        }
        fn gemm_packed(
            &self,
            m: usize,
            k: usize,
            n: usize,
            a: &crate::PackedOperand,
            b: &crate::PackedOperand,
            out: &mut [f32],
        ) {
            self.0.gemm_packed(m, k, n, a, b, out);
        }
        fn name(&self) -> String {
            "position-variant stub".to_owned()
        }
        fn position_invariant(&self) -> bool {
            false
        }
    }

    #[test]
    fn forward_position_invariance_checks_only_the_forward_role() {
        assert!(Numerics::uniform(f32_engine())
            .forward_position_invariant()
            .is_ok());
        let stub: Arc<dyn GemmEngine> = Arc::new(PositionVariant(F32Engine::new(1)));
        let with = |role| {
            GemmRole::ALL
                .into_iter()
                .fold(Numerics::builder(), |b, r| {
                    let engine = if r == role {
                        Arc::clone(&stub)
                    } else {
                        f32_engine()
                    };
                    b.role(r, engine)
                })
                .build()
                .unwrap()
        };
        assert_eq!(
            with(GemmRole::Forward).forward_position_invariant(),
            Err("position-variant stub".to_owned())
        );
        for role in [GemmRole::BackwardData, GemmRole::BackwardWeight] {
            assert!(
                with(role).forward_position_invariant().is_ok(),
                "{role:?} is not a forward product"
            );
        }
    }
}
