//! Property tests for [`tree_reduce`]: the reduction order is a pure
//! function of the buffer count, so replica-summed gradients are bitwise
//! pinned (the data-parallel determinism contract of the trainer).

use proptest::prelude::*;
use srmac_runtime::tree_reduce;

/// Deterministic pseudo-random f32 with a wide dynamic range, so partial
/// sums actually lose low-order bits and any reassociation shows up.
fn val(seed: u64, r: usize, i: usize) -> f32 {
    let mut z = seed
        ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mag = ((z >> 8) % 17) as i32 - 8; // magnitudes 2^-8 .. 2^8
    let frac = (z & 0xFFFF) as f32 / 65536.0 + 0.5;
    let sign = if z & 0x100_0000 == 0 { 1.0 } else { -1.0 };
    sign * frac * (mag as f32).exp2()
}

/// The serial oracle: adjacent pairing with doubling strides, written
/// independently of the implementation.
fn tree_reference(bufs: &[Vec<f32>]) -> Vec<f32> {
    let mut work: Vec<Vec<f32>> = bufs.to_vec();
    let n = work.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let src = work[i + stride].clone();
            for (d, s) in work[i].iter_mut().zip(&src) {
                *d += *s;
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
    work.into_iter().next().unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random buffer lengths and replica counts, `tree_reduce`
    /// produces the bit pattern of the fixed adjacent-pair tree computed
    /// by hand. It takes no runtime, so no pool size can change it.
    #[test]
    fn order_is_fixed_for_every_pool_size(
        seed in any::<u64>(),
        count in 1usize..=9,
        len in 0usize..=257,
    ) {
        let bufs: Vec<Vec<f32>> = (0..count)
            .map(|r| (0..len).map(|i| val(seed, r, i)).collect())
            .collect();
        let want = tree_reference(&bufs);
        let mut work = bufs.clone();
        tree_reduce(&mut work);
        let same = want
            .iter()
            .zip(&work[0])
            .all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(
            same,
            "count {} len {}: tree_reduce diverged from the pinned order",
            count, len
        );
    }
}

/// Hand-computed 3-replica witness: the tree order is `(b0 + b1) + b2`,
/// never `b0 + (b1 + b2)` — with values chosen so the two orders give
/// different f32 bits, this pins the association, not just the multiset
/// of addends.
#[test]
fn three_replica_association_witness() {
    // The classic absorption case at the f32 precision edge, b0 = 2^24,
    // b1 = b2 = 1.0:
    //   pinned:      (2^24 + 1) + 1 — each +1 is half an ulp and rounds
    //                back down (ties-to-even), so the result is 2^24;
    //   right-first: 2^24 + (1 + 1) = 2^24 + 2 = 16777218, representable.
    let two24 = 16_777_216.0f32;
    let mut bufs = vec![vec![two24], vec![1.0f32], vec![1.0f32]];
    tree_reduce(&mut bufs);
    assert_eq!(bufs[0][0].to_bits(), two24.to_bits(), "pinned (b0+b1)+b2");
    let right_first = two24 + (1.0f32 + 1.0f32);
    assert_eq!(right_first, 16_777_218.0f32);
    assert_ne!(
        right_first.to_bits(),
        bufs[0][0].to_bits(),
        "witness must distinguish the association orders"
    );
}
