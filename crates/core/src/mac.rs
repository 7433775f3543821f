//! The complete MAC unit: exact multiplier → SR-enabled adder, with a Galois
//! LFSR supplying rounding words (paper Fig. 2).

use srmac_fp::{FpFormat, RoundMode};
use srmac_rng::{GaloisLfsr, RandomBits};

use crate::adder::{FpAdder, RoundingDesign};
use crate::multiplier::{ExactMultiplier, InexactProductError};

/// Configuration of a [`MacUnit`].
///
/// # Examples
///
/// ```
/// use srmac_core::{MacConfig, MacUnit};
///
/// // The paper's best configuration: FP8 E5M2 multipliers, FP12 E6M5
/// // accumulation, eager SR with r = 13 random bits, no subnormals.
/// let mac = MacUnit::new(MacConfig::paper_best()).unwrap();
/// assert_eq!(mac.config().acc_fmt.bits(), 12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Multiplier input format (`pm` bits of precision, `Em` exponent bits).
    pub mul_fmt: FpFormat,
    /// Accumulator format (the multiplier output is exact in it).
    pub acc_fmt: FpFormat,
    /// Rounding design of the accumulation adder.
    pub design: RoundingDesign,
    /// Seed of the LFSR random source.
    pub seed: u64,
}

impl MacConfig {
    /// FP8 (E5M2) multipliers into an FP12 (E6M5) accumulator with the given
    /// rounding design; subnormal support per `subnormals`.
    #[must_use]
    pub fn fp8_fp12(design: RoundingDesign, subnormals: bool) -> Self {
        Self {
            mul_fmt: FpFormat::e5m2().with_subnormals(subnormals),
            acc_fmt: FpFormat::e6m5().with_subnormals(subnormals),
            design,
            seed: 0xACE1,
        }
    }

    /// The configuration the paper recommends: eager SR, `r = 13`, without
    /// subnormal support ("a configuration using 13 random bits and without
    /// subnormal support gives the best tradeoffs", Sec. V).
    #[must_use]
    pub fn paper_best() -> Self {
        Self::fp8_fp12(
            RoundingDesign::SrEager {
                r: 13,
                correction: crate::EagerCorrection::Exact,
            },
            false,
        )
    }

    /// Replaces the LFSR seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A multiply-accumulate unit: `acc <- round(acc + a * b)` with exact
/// products and configurable low-precision stochastic-rounding accumulation.
#[derive(Debug, Clone)]
pub struct MacUnit {
    config: MacConfig,
    multiplier: ExactMultiplier,
    adder: FpAdder,
    lfsr: GaloisLfsr,
    acc: u64,
}

impl MacUnit {
    /// Builds the unit.
    ///
    /// # Errors
    ///
    /// Returns [`InexactProductError`] if the accumulator format cannot hold
    /// products of the multiplier format exactly.
    pub fn new(config: MacConfig) -> Result<Self, InexactProductError> {
        let multiplier = ExactMultiplier::new(config.mul_fmt, config.acc_fmt)?;
        let adder = FpAdder::new(config.acc_fmt, config.design);
        let r = config.design.random_bits();
        // The LFSR width matches r (min hardware); RN units carry none, but
        // the model keeps a dummy one for uniformity.
        let lfsr = GaloisLfsr::new(r.clamp(4, 64), config.seed);
        Ok(Self {
            config,
            multiplier,
            adder,
            lfsr,
            acc: config.acc_fmt.zero_bits(false),
        })
    }

    /// The unit's configuration.
    #[must_use]
    pub fn config(&self) -> &MacConfig {
        &self.config
    }

    /// The accumulation adder (exposed for tracing).
    #[must_use]
    pub fn adder(&self) -> &FpAdder {
        &self.adder
    }

    /// The exact multiplier (exposed for tracing).
    #[must_use]
    pub fn multiplier(&self) -> &ExactMultiplier {
        &self.multiplier
    }

    /// Clears the accumulator to +0.
    pub fn reset(&mut self) {
        self.acc = self.config.acc_fmt.zero_bits(false);
    }

    /// Current accumulator encoding.
    #[must_use]
    pub fn acc_bits(&self) -> u64 {
        self.acc
    }

    /// Current accumulator value.
    #[must_use]
    pub fn acc_f64(&self) -> f64 {
        self.config.acc_fmt.decode_f64(self.acc)
    }

    /// Overwrites the accumulator with the RN quantization of `x`.
    pub fn set_acc_f64(&mut self, x: f64) {
        self.acc = self
            .config
            .acc_fmt
            .quantize_f64(x, RoundMode::NearestEven)
            .bits;
    }

    /// One MAC operation on multiplier-format encodings; returns the new
    /// accumulator encoding.
    pub fn mac(&mut self, a: u64, b: u64) -> u64 {
        let product = self.multiplier.multiply(a, b);
        self.accumulate(product)
    }

    /// Adds an accumulator-format encoding into the accumulator (the adder
    /// half of the MAC, e.g. for pre-computed products).
    pub fn accumulate(&mut self, product: u64) -> u64 {
        let r = self.config.design.random_bits();
        let word = if r == 0 { 0 } else { self.lfsr.next_bits(r) };
        self.acc = self.adder.add(self.acc, product, word);
        self.acc
    }

    /// One MAC operation on `f64` inputs, quantized RN to the multiplier
    /// format first (the software-convenience entry point).
    pub fn mac_f64(&mut self, a: f64, b: f64) -> f64 {
        let fa = self
            .config
            .mul_fmt
            .quantize_f64(a, RoundMode::NearestEven)
            .bits;
        let fb = self
            .config
            .mul_fmt
            .quantize_f64(b, RoundMode::NearestEven)
            .bits;
        self.mac(fa, fb);
        self.acc_f64()
    }

    /// Computes the dot product of two encoded slices, starting from a clear
    /// accumulator; returns the final accumulator encoding.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, xs: &[u64], ys: &[u64]) -> u64 {
        assert_eq!(xs.len(), ys.len(), "dot operands must have equal length");
        self.reset();
        for (&a, &b) in xs.iter().zip(ys) {
            self.mac(a, b);
        }
        self.acc
    }

    /// Dot product of `f64` slices (quantized RN to the multiplier format).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_f64(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "dot operands must have equal length");
        self.reset();
        for (&a, &b) in xs.iter().zip(ys) {
            self.mac_f64(a, b);
        }
        self.acc_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EagerCorrection;

    #[test]
    fn mac_accumulates_exact_small_sums() {
        // Small integer-valued products accumulate exactly in every design.
        for design in [
            RoundingDesign::Nearest,
            RoundingDesign::SrLazy { r: 9 },
            RoundingDesign::SrEager {
                r: 9,
                correction: EagerCorrection::Exact,
            },
        ] {
            let mut mac = MacUnit::new(MacConfig::fp8_fp12(design, true)).unwrap();
            for _ in 0..8 {
                mac.mac_f64(2.0, 1.5); // 3.0 each
            }
            assert_eq!(mac.acc_f64(), 24.0, "{design:?}");
        }
    }

    #[test]
    fn rn_mac_swamps_small_terms() {
        // 256 + 0.5 in E6M5: ULP(256) = 8, so RN swallows every 0.5.
        let mut mac = MacUnit::new(MacConfig::fp8_fp12(RoundingDesign::Nearest, true)).unwrap();
        mac.set_acc_f64(256.0);
        for _ in 0..64 {
            mac.mac_f64(1.0, 0.5);
        }
        assert_eq!(mac.acc_f64(), 256.0, "stagnation: RN never moves");
    }

    #[test]
    fn sr_mac_rescues_small_terms_on_average() {
        // The same accumulation under SR makes expected progress: with
        // eps = 0.5/8 = 1/16 per add, 64 adds raise the accumulator by
        // roughly 32 on average.
        let design = RoundingDesign::SrEager {
            r: 13,
            correction: EagerCorrection::Exact,
        };
        let mut total = 0.0;
        let trials = 40;
        for seed in 0..trials {
            let mut mac =
                MacUnit::new(MacConfig::fp8_fp12(design, true).with_seed(1000 + seed)).unwrap();
            mac.set_acc_f64(256.0);
            for _ in 0..64 {
                mac.mac_f64(1.0, 0.5);
            }
            total += mac.acc_f64() - 256.0;
        }
        let mean_gain = total / f64::from(trials as u32);
        assert!(
            (mean_gain - 32.0).abs() < 8.0,
            "SR should gain ~32 on average, got {mean_gain}"
        );
    }

    #[test]
    fn dot_is_deterministic_per_seed() {
        let design = RoundingDesign::SrEager {
            r: 13,
            correction: EagerCorrection::Exact,
        };
        let xs: Vec<f64> = (0..50).map(|i| 0.01 * f64::from(i)).collect();
        let ys: Vec<f64> = (0..50).map(|i| 0.02 * f64::from(50 - i)).collect();
        let run = |seed| {
            let mut mac = MacUnit::new(MacConfig::fp8_fp12(design, false).with_seed(seed)).unwrap();
            mac.dot_f64(&xs, &ys)
        };
        assert_eq!(run(5).to_bits(), run(5).to_bits());
        // Different seeds almost surely differ on this workload.
        assert_ne!(run(5).to_bits(), run(6).to_bits());
    }

    #[test]
    fn nan_and_inf_propagate_through_mac() {
        let mut mac = MacUnit::new(MacConfig::paper_best()).unwrap();
        let fp8 = mac.config().mul_fmt;
        mac.mac(fp8.inf_bits(false), fp8.pack(false, 15, 0));
        assert!(mac.config().acc_fmt.is_inf(mac.acc_bits()));
        mac.reset();
        mac.mac(fp8.nan_bits(), fp8.pack(false, 15, 0));
        assert!(mac.config().acc_fmt.is_nan(mac.acc_bits()));
    }
}
