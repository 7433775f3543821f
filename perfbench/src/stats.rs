//! Order statistics and the output digest.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` of ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A tail latency: the highest whole percentile, at most [`Tail::CAP`],
/// that leaves at least [`Tail::BEYOND`] samples above its rank.
///
/// The cap keeps the tail a property of the program: on the 2-vCPU VMs
/// this benchmark was tuned on, host stalls of 10-20 ms delay about 1% of
/// served requests, in clusters of 2-4, so a p99 over a 20 s open loop
/// counts host stalls and swings by a third between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when too few samples for any higher).
    pub percentile: f64,
    /// The sample count it was taken from.
    pub n: usize,
    /// Its value.
    pub value: f64,
}

impl Tail {
    /// Samples required beyond the reported rank.
    pub const BEYOND: usize = 10;
    /// The highest percentile reported.
    pub const CAP: u8 = 95;

    /// The tail of `values`; all fields 0 for no values.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Self {
                percentile: 0.0,
                n,
                value: 0.0,
            };
        }
        let beyond = |p: f64| n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let percentile = (50..=Self::CAP)
            .rev()
            .map(f64::from)
            .find(|&p| beyond(p) >= Self::BEYOND)
            .unwrap_or(50.0);
        Self {
            percentile,
            n,
            value: nearest_rank(&v, percentile),
        }
    }
}

/// 64-bit FNV-1a over the bit patterns of the outputs a workload checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in the bits of one `f32`.
    pub fn f32(&mut self, v: f32) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            Tail::of(&v),
            Tail {
                percentile: 75.0,
                n: 40,
                value: 30.0
            }
        );
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        assert_eq!(Tail::of(&v).percentile, 77.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Tail::of(&v).percentile, 95.0);
        assert_eq!(Tail::of(&[3.0, 1.0, 2.0]).value, 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
