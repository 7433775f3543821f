//! Named specs: text names for GEMM engine configurations, and the one
//! place engine atoms resolve.
//!
//! A spec *atom* names one engine — `"f32"` (the exact baseline) or a
//! [`MacGemmConfig`] in the grammar below — and a policy spec combines
//! atoms per GEMM role (see [`srmac_tensor::numerics`]). One string
//! therefore describes a whole mixed-precision experiment, in an
//! example, a bench table, or a checkpoint. Every atom is parsed by this
//! module's one atom parser, behind three entry points:
//! [`engine_from_spec`] (one engine), [`numerics_from_spec`] (a whole
//! policy) and [`validate_policy_spec`] (checks a policy, builds
//! nothing).
//!
//! # MAC atom grammar
//!
//! Underscore-separated tokens, in this order:
//!
//! | position | tokens | meaning |
//! |---|---|---|
//! | 1 | `fp8` \| `eXmY` | multiplier format (`fp8` = E5M2) |
//! | 2 | `fp12` \| `fp16` \| `bf16` \| `eXmY` | accumulator format (`fp12` = E6M5, `fp16` = E5M10, `bf16` = E8M7) |
//! | 3 | `rn` \| `srN` | accumulation rounding (`srN` = stochastic with `N` random bits, 1..=24) |
//! | 4 (optional) | `sub` \| `msub` \| `asub` | subnormal support: both formats, multiplier only, accumulator only (default: neither) |
//! | 5 (optional) | `seedHEX` | base SR stream seed in hex (default [`MacGemmConfig::DEFAULT_SEED`]) |
//!
//! Examples: `fp8_fp12_rn`, `fp8_fp12_sr13_sub`, `fp8_e6m5_sr13`,
//! `fp8_fp16_rn_sub_seed7f`. [`MacGemmConfig`] implements [`FromStr`] for
//! this grammar and [`Display`](std::fmt::Display) for its canonical form
//! (aliases preferred, defaults omitted); `Display` → `FromStr`
//! round-trips to the same configuration. Thread counts are machine
//! state and have no spec form, exactly as in the checkpoint wire record.
//!
//! # Per-role seed folding
//!
//! When a *per-role* policy assignment resolves a MAC atom **without** an
//! explicit `seed` token, the role id is folded into the default seed
//! ([`srmac_tensor::numerics::fold_role_seed`]) so the roles draw
//! independent SR streams. An explicit seed is always used verbatim, and
//! uniform (single-atom) policies never fold — see the numerics module
//! docs for why that keeps every role of `Numerics::uniform` on the one
//! engine's streams.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use srmac_fp::FpFormat;
use srmac_tensor::numerics::fold_role_seed;
use srmac_tensor::{F32Engine, GemmEngine, Numerics, PolicySpec, SpecError};

use crate::engine::{ConfigWireError, MacGemmConfig};
use crate::fastmath::AccumRounding;
use crate::MacGemm;

/// Error parsing a MAC engine spec atom (see the module docs for the
/// grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSpecError {
    /// The atom was empty.
    Empty,
    /// A required field never appeared (`"accumulator format"`,
    /// `"rounding"`).
    Missing(&'static str),
    /// A token is not a valid floating-point format where one was
    /// expected.
    BadFormat(String),
    /// The rounding token is neither `rn` nor `srN` with `N` in 1..=24.
    BadRounding(String),
    /// The `seed` token does not carry valid hex digits.
    BadSeed(String),
    /// A token appeared that the grammar has no place for.
    UnexpectedToken(String),
    /// The fields parse but lie outside the `MacGemm` engine envelope.
    Envelope(ConfigWireError),
}

impl fmt::Display for EngineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineSpecError::Empty => write!(f, "empty engine spec"),
            EngineSpecError::Missing(what) => write!(f, "spec is missing its {what}"),
            EngineSpecError::BadFormat(tok) => {
                write!(
                    f,
                    "{tok:?} is not a floating-point format (fp8/fp12/fp16/bf16/eXmY)"
                )
            }
            EngineSpecError::BadRounding(tok) => {
                write!(f, "{tok:?} is not a rounding mode (rn or srN, N in 1..=24)")
            }
            EngineSpecError::BadSeed(tok) => write!(f, "{tok:?} is not a valid seed token"),
            EngineSpecError::UnexpectedToken(tok) => write!(f, "unexpected token {tok:?}"),
            EngineSpecError::Envelope(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineSpecError {}

/// A parsed MAC atom, remembering whether the seed was written out (the
/// per-role folding rule needs the distinction; see the module docs).
#[derive(Debug)]
struct ParsedMacSpec {
    config: MacGemmConfig,
    explicit_seed: bool,
}

fn parse_format(tok: &str) -> Option<FpFormat> {
    match tok {
        "fp8" => return Some(FpFormat::e5m2()),
        "fp12" => return Some(FpFormat::e6m5()),
        "fp16" => return Some(FpFormat::e5m10()),
        "bf16" => return Some(FpFormat::e8m7()),
        _ => {}
    }
    let rest = tok.strip_prefix('e')?;
    let (e, m) = rest.split_once('m')?;
    if e.is_empty() || m.is_empty() || !e.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (e, m) = (e.parse().ok()?, m.parse().ok()?);
    FpFormat::new(e, m).ok()
}

/// The canonical alias of a format in spec atoms (`Display` side of
/// [`parse_format`]). The multiplier position aliases E5M2 to `fp8`; the
/// accumulator position aliases E6M5/E5M10/E8M7 to `fp12`/`fp16`/`bf16`.
fn format_alias(fmt: FpFormat, multiplier: bool) -> String {
    let (e, m) = (fmt.exp_bits(), fmt.man_bits());
    match (multiplier, e, m) {
        (true, 5, 2) => "fp8".to_owned(),
        (false, 6, 5) => "fp12".to_owned(),
        (false, 5, 10) => "fp16".to_owned(),
        (false, 8, 7) => "bf16".to_owned(),
        _ => format!("e{e}m{m}"),
    }
}

/// Parses a MAC atom (see the module docs for the grammar).
fn parse_mac_spec(atom: &str) -> Result<ParsedMacSpec, EngineSpecError> {
    let atom = atom.trim();
    if atom.is_empty() {
        return Err(EngineSpecError::Empty);
    }
    let mut tokens = atom.split('_');
    #[expect(
        clippy::expect_used,
        reason = "split() always yields at least one token"
    )]
    let mul_tok = tokens.next().expect("split yields at least one token");
    let mul_fmt =
        parse_format(mul_tok).ok_or_else(|| EngineSpecError::BadFormat(mul_tok.to_owned()))?;
    let acc_tok = tokens
        .next()
        .ok_or(EngineSpecError::Missing("accumulator format"))?;
    let acc_fmt =
        parse_format(acc_tok).ok_or_else(|| EngineSpecError::BadFormat(acc_tok.to_owned()))?;
    let rnd_tok = tokens.next().ok_or(EngineSpecError::Missing("rounding"))?;
    let rounding = match rnd_tok {
        "rn" => AccumRounding::Nearest,
        _ => {
            let r = rnd_tok
                .strip_prefix("sr")
                .and_then(|d| {
                    if d.is_empty() {
                        None
                    } else {
                        d.parse::<u32>().ok()
                    }
                })
                .ok_or_else(|| EngineSpecError::BadRounding(rnd_tok.to_owned()))?;
            AccumRounding::Stochastic { r }
        }
    };
    let (mut mul_sub, mut acc_sub) = (false, false);
    let mut seed = MacGemmConfig::DEFAULT_SEED;
    let mut explicit_seed = false;
    let mut next = tokens.next();
    if let Some(tok @ ("sub" | "msub" | "asub")) = next {
        match tok {
            "sub" => (mul_sub, acc_sub) = (true, true),
            "msub" => mul_sub = true,
            _ => acc_sub = true,
        }
        next = tokens.next();
    }
    if let Some(tok) = next {
        let digits = tok
            .strip_prefix("seed")
            .ok_or_else(|| EngineSpecError::UnexpectedToken(tok.to_owned()))?;
        if digits.is_empty() {
            return Err(EngineSpecError::BadSeed(tok.to_owned()));
        }
        seed = u64::from_str_radix(digits, 16)
            .map_err(|_| EngineSpecError::BadSeed(tok.to_owned()))?;
        explicit_seed = true;
        next = tokens.next();
    }
    if let Some(tok) = next {
        return Err(EngineSpecError::UnexpectedToken(tok.to_owned()));
    }
    let config = MacGemmConfig {
        mul_fmt: mul_fmt.with_subnormals(mul_sub),
        acc_fmt: acc_fmt.with_subnormals(acc_sub),
        rounding,
        seed,
        threads: srmac_tensor::available_threads(),
    };
    config.validate().map_err(EngineSpecError::Envelope)?;
    Ok(ParsedMacSpec {
        config,
        explicit_seed,
    })
}

impl FromStr for MacGemmConfig {
    type Err = EngineSpecError;

    fn from_str(atom: &str) -> Result<Self, EngineSpecError> {
        Ok(parse_mac_spec(atom)?.config)
    }
}

impl fmt::Display for MacGemmConfig {
    /// The canonical spec atom: aliases preferred, the subnormal token
    /// chosen by which formats honor subnormals, the seed omitted at
    /// [`MacGemmConfig::DEFAULT_SEED`]. `Display` then `FromStr`
    /// reproduces this configuration exactly (thread count aside, which
    /// is machine state).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}_{}",
            format_alias(self.mul_fmt, true),
            format_alias(self.acc_fmt, false)
        )?;
        match self.rounding {
            AccumRounding::Nearest => write!(f, "_rn")?,
            AccumRounding::Stochastic { r } => write!(f, "_sr{r}")?,
        }
        match (self.mul_fmt.subnormals(), self.acc_fmt.subnormals()) {
            (true, true) => write!(f, "_sub")?,
            (true, false) => write!(f, "_msub")?,
            (false, true) => write!(f, "_asub")?,
            (false, false) => {}
        }
        if self.seed != Self::DEFAULT_SEED {
            write!(f, "_seed{:x}", self.seed)?;
        }
        Ok(())
    }
}

/// An engine atom: the exact baseline or a MAC configuration.
enum Atom {
    F32,
    Mac(ParsedMacSpec),
}

/// The one atom parser: `"f32"`, otherwise the MAC grammar.
fn parse_atom(atom: &str) -> Result<Atom, EngineSpecError> {
    if atom.trim() == "f32" {
        return Ok(Atom::F32);
    }
    parse_mac_spec(atom).map(Atom::Mac)
}

fn build(atom: Atom) -> Arc<dyn GemmEngine> {
    match atom {
        Atom::F32 => Arc::new(F32Engine::default()),
        Atom::Mac(parsed) => Arc::new(MacGemm::new(parsed.config)),
    }
}

fn atom_error(atom: &str, e: EngineSpecError) -> SpecError {
    SpecError::Engine {
        atom: atom.to_owned(),
        reason: e.to_string(),
    }
}

/// Builds one engine from a spec atom: `"f32"` for the exact baseline,
/// otherwise the MAC atom grammar. This is the single-engine entry point
/// the construction boilerplate across the stack routes through; for a
/// whole per-role policy use [`numerics_from_spec`].
///
/// # Errors
///
/// Returns [`EngineSpecError`] when the atom is not `"f32"` and fails
/// the MAC grammar.
pub fn engine_from_spec(atom: &str) -> Result<Arc<dyn GemmEngine>, EngineSpecError> {
    parse_atom(atom).map(build)
}

/// Builds a per-role [`Numerics`] policy from a spec string — e.g.
/// `numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13")`. Per-role
/// MAC atoms without an explicit seed get the role folded into their
/// seed (see the module docs).
///
/// # Errors
///
/// Returns [`SpecError`] on bad policy syntax or a bad engine atom.
pub fn numerics_from_spec(spec: &str) -> Result<Numerics, SpecError> {
    Numerics::from_spec(spec, |atom, role| {
        let mut parsed = parse_atom(atom).map_err(|e| atom_error(atom, e))?;
        if let (Atom::Mac(mac), Some(role)) = (&mut parsed, role) {
            if !mac.explicit_seed {
                mac.config = mac.config.with_seed(fold_role_seed(mac.config.seed, role));
            }
        }
        Ok(build(parsed))
    })
}

/// Checks a policy spec without building any engine: the policy grammar
/// plus every atom, exactly as [`numerics_from_spec`] parses them — so
/// a spec that passes here always builds.
///
/// # Errors
///
/// Returns [`SpecError`] on bad policy syntax or a bad engine atom.
pub fn validate_policy_spec(spec: &str) -> Result<(), SpecError> {
    let parsed: PolicySpec = spec.parse()?;
    for atom in parsed.atoms() {
        parse_atom(atom).map_err(|e| atom_error(atom, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(atom: &str) -> MacGemmConfig {
        atom.parse().unwrap_or_else(|e| panic!("{atom}: {e}"))
    }

    #[test]
    fn named_atoms_match_the_constructors() {
        let want = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
        let got = cfg("fp8_fp12_sr13");
        assert_eq!(got.mul_fmt, want.mul_fmt);
        assert_eq!(got.acc_fmt, want.acc_fmt);
        assert_eq!(got.rounding, want.rounding);
        assert_eq!(got.seed, want.seed);

        let want = MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true);
        let got = cfg("fp8_fp12_rn_sub");
        assert_eq!(got.mul_fmt, want.mul_fmt);
        assert_eq!(got.acc_fmt, want.acc_fmt);
        assert_eq!(got.rounding, want.rounding);

        // Explicit widths are the same formats as the aliases.
        assert_eq!(
            cfg("fp8_e6m5_sr13_sub").acc_fmt,
            cfg("fp8_fp12_sr13_sub").acc_fmt
        );
        assert_eq!(
            cfg("e5m2_fp16_rn").acc_fmt,
            FpFormat::e5m10().with_subnormals(false)
        );
        assert_eq!(cfg("e5m2_fp16_rn_asub").acc_fmt, FpFormat::e5m10());
    }

    #[test]
    fn display_is_canonical_and_roundtrips() {
        for (atom, canonical) in [
            ("fp8_fp12_sr13", "fp8_fp12_sr13"),
            ("fp8_e6m5_sr13_sub", "fp8_fp12_sr13_sub"),
            ("e5m2_e5m10_rn", "fp8_fp16_rn"),
            ("fp8_fp12_rn_msub", "fp8_fp12_rn_msub"),
            ("fp8_fp12_rn_asub_seedff", "fp8_fp12_rn_asub_seedff"),
            ("fp8_fp12_sr13_seed5eed", "fp8_fp12_sr13"),
            ("e4m3_fp12_sr9_sub", "e4m3_fp12_sr9_sub"),
        ] {
            assert_eq!(cfg(atom).to_string(), canonical, "{atom}");
        }
    }

    #[test]
    fn spec_rejects_garbage() {
        use EngineSpecError as E;
        assert_eq!(parse_mac_spec("").unwrap_err(), E::Empty);
        assert_eq!(
            parse_mac_spec("fp8").unwrap_err(),
            E::Missing("accumulator format")
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12").unwrap_err(),
            E::Missing("rounding")
        );
        assert_eq!(
            parse_mac_spec("fq8_fp12_rn").unwrap_err(),
            E::BadFormat("fq8".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_em5_rn").unwrap_err(),
            E::BadFormat("em5".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_down").unwrap_err(),
            E::BadRounding("down".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_sr").unwrap_err(),
            E::BadRounding("sr".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_rn_seed").unwrap_err(),
            E::BadSeed("seed".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_rn_seedzz").unwrap_err(),
            E::BadSeed("seedzz".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_rn_sub_extra").unwrap_err(),
            E::UnexpectedToken("extra".into())
        );
        assert_eq!(
            parse_mac_spec("fp8_fp12_rn_seed1_sub").unwrap_err(),
            E::UnexpectedToken("sub".into()),
            "tokens are ordered: sub before seed"
        );
        // Valid formats outside the engine envelope are typed errors, not
        // panics in MacGemm::new.
        assert!(matches!(
            parse_mac_spec("fp16_fp12_rn").unwrap_err(),
            E::Envelope(ConfigWireError::OutsideEngineEnvelope(_))
        ));
        assert!(matches!(
            parse_mac_spec("fp8_e8m23_rn").unwrap_err(),
            E::Envelope(ConfigWireError::OutsideEngineEnvelope(_))
        ));
        assert!(matches!(
            parse_mac_spec("fp8_fp12_sr31").unwrap_err(),
            E::Envelope(ConfigWireError::BadSrBits(31))
        ));
    }

    #[test]
    fn engine_from_spec_covers_f32_and_mac() {
        assert_eq!(
            engine_from_spec("f32").expect("f32").name(),
            "f32 (FP32 baseline)"
        );
        let mac = engine_from_spec("fp8_fp12_sr13").expect("mac");
        assert!(mac.name().contains("SR r=13"));
        assert!(engine_from_spec("nonsense").is_err());
    }

    #[test]
    fn from_spec_reports_unknown_atoms() {
        for spec in ["warp9", "fwd=warp9;bwd=f32"] {
            assert!(
                matches!(
                    numerics_from_spec(spec).unwrap_err(),
                    SpecError::Engine { atom, .. } if atom == "warp9"
                ),
                "{spec}"
            );
            assert!(matches!(
                validate_policy_spec(spec).unwrap_err(),
                SpecError::Engine { atom, .. } if atom == "warp9"
            ));
        }
    }
}
