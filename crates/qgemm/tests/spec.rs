//! Property tests of the engine-spec grammar: `Display` → `FromStr` is
//! the identity on every representable `MacGemmConfig`, the policy-spec
//! grammar round-trips, and corrupted spec strings come back as typed
//! errors, never panics or silently different configs.

use proptest::prelude::*;
use srmac_fp::FpFormat;
use srmac_qgemm::{numerics_from_spec, AccumRounding, EngineSpecError, MacGemmConfig};
use srmac_tensor::{GemmRole, PolicySpec};

/// Decodes a `u64` into an arbitrary *valid* `MacGemmConfig` (formats
/// inside the engine envelope, SR bits in 1..=24, any seed derived from
/// the high bits).
fn arb_config(x: u64) -> MacGemmConfig {
    // Multiplier: up to 8 total bits (E in 2..=6, M in 1..=(7-E)).
    let me = 2 + (x % 5) as u32; // 2..=6
    let mm = 1 + ((x >> 3) % u64::from(7 - me)) as u32;
    // Accumulator: <= 16 bits, precision (M+1) <= 12 (E in 2..=8, M <= 11).
    let ae = 2 + ((x >> 7) % 7) as u32; // 2..=8
    let am_cap = (15 - ae).min(11);
    let am = 1 + ((x >> 11) % u64::from(am_cap)) as u32;
    let rounding = if x & (1 << 16) == 0 {
        AccumRounding::Nearest
    } else {
        AccumRounding::Stochastic {
            r: 1 + ((x >> 17) % 24) as u32,
        }
    };
    let seed = x.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    MacGemmConfig {
        mul_fmt: FpFormat::of(me, mm).with_subnormals(x & (1 << 41) != 0),
        acc_fmt: FpFormat::of(ae, am).with_subnormals(x & (1 << 42) != 0),
        rounding,
        seed: if x & (1 << 43) == 0 {
            MacGemmConfig::DEFAULT_SEED
        } else {
            seed
        },
        threads: 1,
    }
}

fn same_numerics(a: &MacGemmConfig, b: &MacGemmConfig) -> bool {
    a.mul_fmt == b.mul_fmt && a.acc_fmt == b.acc_fmt && a.rounding == b.rounding && a.seed == b.seed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// `Display` then `FromStr` reproduces every representable config
    /// exactly (threads excluded: machine state has no spec form).
    #[test]
    fn display_fromstr_roundtrip(x in any::<u64>()) {
        let cfg = arb_config(x);
        prop_assume!(cfg.validate().is_ok());
        let atom = cfg.to_string();
        let back: MacGemmConfig = atom.parse().unwrap_or_else(|e| {
            panic!("canonical atom {atom:?} must reparse: {e}")
        });
        prop_assert!(
            same_numerics(&cfg, &back),
            "{atom}: {cfg:?} vs {back:?}"
        );
        // And the canonical form is a fixed point.
        prop_assert_eq!(back.to_string(), atom);
    }

    /// Uniform policy specs of valid atoms round-trip through the full
    /// resolver: spec -> Numerics -> to_spec -> Numerics rebuilds engines
    /// with identical spec atoms.
    #[test]
    fn uniform_policy_rebuild_is_exact(x in any::<u64>()) {
        let cfg = arb_config(x);
        prop_assume!(cfg.validate().is_ok());
        let numerics = numerics_from_spec(&cfg.to_string()).expect("uniform spec resolves");
        let stored = numerics.to_spec().expect("spec-built policies have specs");
        let rebuilt = numerics_from_spec(&stored).expect("stored spec resolves");
        for role in GemmRole::ALL {
            prop_assert_eq!(
                rebuilt.engine(role).spec(),
                numerics.engine(role).spec()
            );
        }
    }

    /// Mutating any single byte of a canonical atom never panics the
    /// parser, and whatever still parses must not silently be the
    /// original config under a different name (the canonical form is
    /// unique, so a mutated string that parses is a *different* spelling
    /// only if it differs in recognized aliases — we only require no
    /// panic and a typed error or a config here).
    #[test]
    fn mutated_atoms_never_panic(x in any::<u64>(), pos in any::<u16>(), byte in any::<u8>()) {
        let cfg = arb_config(x);
        prop_assume!(cfg.validate().is_ok());
        let mut atom = cfg.to_string().into_bytes();
        let pos = usize::from(pos) % atom.len();
        atom[pos] = byte;
        if let Ok(s) = String::from_utf8(atom) {
            let _ = s.parse::<MacGemmConfig>();
        }
    }

    /// Policy-spec strings assembled from arbitrary role keys and atoms
    /// either parse into a spec whose Display reparses to the same value,
    /// or fail with a typed error — never a panic.
    #[test]
    fn policy_grammar_roundtrips_or_rejects(x in any::<u64>(), garbage in any::<u32>()) {
        let atoms = ["f32", "fp8_fp12_sr13", "fp8_fp12_rn_sub", "bogus*engine"];
        let keys = ["fwd", "dgrad", "wgrad", "bwd", "sideways"];
        let pick = |shift: u32, n: usize| ((x >> shift) % n as u64) as usize;
        let spec = format!(
            "{}={};{}={};{}={}",
            keys[pick(0, 5)], atoms[pick(3, 4)],
            keys[pick(5, 5)], atoms[pick(8, 4)],
            keys[pick(10, 5)], atoms[pick(13, 4)],
        );
        // Typed rejection is fine; whatever parses must have a canonical
        // Display that reparses to the same value.
        if let Ok(parsed) = spec.parse::<PolicySpec>() {
            let canonical = parsed.to_string();
            prop_assert_eq!(canonical.parse::<PolicySpec>().unwrap(), parsed);
        }
        // Raw garbage bytes too.
        let noise: String = garbage.to_le_bytes().iter().map(|b| (b % 96 + 32) as char).collect();
        let _ = noise.parse::<PolicySpec>();
        let _ = noise.parse::<MacGemmConfig>();
    }
}

#[test]
fn typed_errors_name_the_offending_token() {
    let err = "fp8_fp12_sr99".parse::<MacGemmConfig>().unwrap_err();
    assert!(matches!(err, EngineSpecError::Envelope(_)), "{err}");
    let err = "fp8_zzz_rn".parse::<MacGemmConfig>().unwrap_err();
    assert_eq!(err, EngineSpecError::BadFormat("zzz".into()));
    assert!(err.to_string().contains("zzz"));
}
