//! The far path (`d >= 2`): alignment tail extraction, main addition,
//! carry-dependent normalization, and the three rounding dataflows (RN,
//! lazy SR, eager SR) — the part of the adder where the paper's designs
//! differ (Sec. III-A/B, Fig. 3 and 4).
//!
//! # Datapath geometry
//!
//! Significands are ULP-anchored `p`-bit integers. The main-adder window
//! spans positions `1 ..= p+1` relative to the larger operand `x` (one guard
//! position below x's LSB); the aligned smaller operand `y` contributes its
//! `p+1` most significant bits to the window, and its remaining shifted-out
//! bits form the tail `τ1 τ2 ...` (τ1 directly below the window). For
//! effective subtraction the tail participates two's-complemented, injecting
//! a borrow into the main adder — modelled here exactly, including the
//! "infinite ones" bit pattern a sticky-compressed borrow produces.
//!
//! The main sum `S` (window value, `p+2` bits) normalizes by one of three
//! shifts, identified by `drop` = number of `S` low bits discarded:
//!
//! - `drop = 2`: carry (`S >= 2^{p+1}`) — "the new carry bit becomes the
//!   updated implicit bit while the exponent is incremented";
//! - `drop = 1`: no carry, no cancellation (the common case);
//! - `drop = 0`: one-bit cancellation under effective subtraction.
//!
//! The discarded stream is `[S low bits (drop)] ++ [τ ...]`, and rounding
//! reads it `r` bits deep:
//!
//! - **lazy** adds the whole `r`-bit random word to the top `r` stream bits
//!   after normalization;
//! - **eager** adds the `r-2` low random bits to the tail window *at
//!   alignment time* (the Sticky Round stage, producing one boundary carry
//!   per possible normalization shift) and finishes with a 2-bit Round
//!   Correction: `carry((first two discarded bits) + R1R2 + C_sel)`.
//!
//! With [`EagerCorrection::Exact`] the selected boundary carry makes the
//! 2-bit decomposition algebraically identical to the lazy addition — the
//! equality `eager == lazy` for every `(x, y, word)` is asserted in debug
//! builds and enforced by tests. [`EagerCorrection::SumBit`] reuses sum bits
//! of the `drop = 2` window addition instead (the literal prose reading),
//! which biases the shifted cases: `tests/equivalence.rs` pins that
//! bias, and the `validate_eager` binary of `srmac-bench` measures it.

use srmac_fp::{mask, mask128, FpFormat};

use super::{pack_result, AdderTrace, EagerCorrection, RoundingDesign, StickyRoundTrace};

/// Executes the far path. `d >= 2`; `x` is the larger-magnitude operand and
/// must be normal (guaranteed: any value whose ULP exponent exceeds the
/// format minimum is normal).
#[allow(clippy::too_many_arguments)]
pub(crate) fn far_path(
    fmt: FpFormat,
    design: RoundingDesign,
    neg: bool,
    ex: i32,
    mx: u64,
    sub: bool,
    d: u32,
    my: u64,
    word: u64,
    trace: &mut AdderTrace,
) -> u64 {
    let p = fmt.precision();
    debug_assert!(d >= 2);
    debug_assert!(mx >> (p - 1) == 1, "far-path x must be normal");

    // Tail window width: r bits for SR designs, 2 for RN (whose rounding
    // only needs guard + sticky).
    let tw = design.random_bits().max(2);

    // ---- Alignment (stage ii) -------------------------------------------
    // y's p+1 window MSBs and its shifted-out tail, MSB-aligned into tw
    // bits; bits past the window compress into sigma (sticky-exact).
    let y_win = shr_sat(u128::from(my), d - 1) as u64;
    let out_len = d - 1;
    let tau_true = u128::from(my) & mask128(out_len.min(127));
    let (tau_raw, sigma) = if out_len <= tw {
        ((tau_true as u64) << (tw - out_len), false)
    } else {
        let sh = out_len - tw;
        (
            shr_sat(tau_true, sh) as u64,
            tau_true & mask128(sh.min(127)) != 0,
        )
    };
    trace.sigma = sigma;

    // Effective subtraction: the tail is two's-complemented and borrows
    // from the main window. A sticky-compressed sigma makes the exact tail
    // "(complement - 1) followed by infinite ones".
    let (tau, ones_below, borrow, sticky_extra) = if sub {
        if tau_raw == 0 && !sigma {
            (0u64, false, 0u64, false)
        } else {
            let t = ((1u128 << tw) - u128::from(tau_raw) - u128::from(sigma)) as u64;
            (t, sigma, 1, false)
        }
    } else {
        (tau_raw, false, 0, sigma)
    };
    trace.tau = tau;

    // ---- Main addition (stage iii) --------------------------------------
    let x_win = mx << 1;
    let s_main = if sub {
        x_win - y_win - borrow
    } else {
        x_win + y_win
    };
    debug_assert!(s_main >= 1 << (p - 1) && s_main < 1 << (p + 2));
    trace.s_main = s_main;

    // ---- Normalization (stage iv) ----------------------------------------
    let q0 = ex - 1; // weight exponent of the window LSB
    let msb = 63 - s_main.leading_zeros() as i32;
    let q_nat = q0 + msb - (p as i32 - 1);
    let q = if fmt.subnormals() {
        q_nat.max(fmt.min_quantum())
    } else {
        q_nat
    };
    let drop = (q - q0) as u32;
    debug_assert!(
        drop <= 2,
        "far-path normalization shifts by at most one position each way"
    );
    let kept = s_main >> drop;
    let s_left = s_main & mask(drop);
    trace.drop = drop;
    trace.kept = kept;

    // Discarded stream: `drop` leftover main-sum bits then the tail window.
    let stream: u128 = (u128::from(s_left) << tw) | u128::from(tau);
    let slen = drop + tw;

    // ---- Rounding (stage v) ----------------------------------------------
    let carry = match design {
        RoundingDesign::Nearest => {
            let guard = (stream >> (slen - 1)) & 1 == 1;
            let sticky = stream & mask128(slen - 1) != 0 || ones_below || sticky_extra;
            trace.sticky = sticky;
            guard && (sticky || kept & 1 == 1)
        }
        RoundingDesign::SrLazy { r } => {
            // Fig. 3a: the r-bit random word is added to the top r discarded
            // bits of the *normalized* result; the carry out rounds up. The
            // normalization datapath must expose p + r bits for this.
            let t = (stream >> (slen - r)) as u64;
            trace.tail_t = t;
            u128::from(t) + u128::from(word & mask(r)) >= 1u128 << r
        }
        RoundingDesign::SrEager { r, correction } => {
            let w = word & mask(r);
            let r_top2 = (w >> (r - 2)) & 3;
            let rlow = w & mask(r - 2);

            // Sticky Round (parallel with the main addition): boundary
            // carries of (tail window + rlow) for each normalization case.
            // Window i (1-based from the tail MSB) spans τ_i..τ_{i+r-3}.
            let win = |i: u32| -> u64 { (tau >> (3 - i)) & mask(r - 2) };
            let carries = [
                win(1) + rlow >= 1 << (r - 2),
                win(2) + rlow >= 1 << (r - 2),
                win(3) + rlow >= 1 << (r - 2),
            ];
            let widx = (2 - drop) as usize;
            let c_in = match correction {
                EagerCorrection::Exact => carries[widx],
                EagerCorrection::SumBit => {
                    // Literal prose: one addition over the drop=2 window;
                    // its carry is S'1 and its sum bits serve the shifted
                    // cases (S'2, S'3, ...).
                    let q1 = win(1) + rlow; // r-1 bits
                    (q1 >> (r - 2 - (2 - drop))) & 1 == 1
                }
            };
            trace.sticky_round = Some(StickyRoundTrace {
                rlow,
                carries,
                selected: widx as u8,
                r_top2: r_top2 as u8,
            });

            // Round Correction (Fig. 4): 2-bit add over the first two
            // discarded bits, the two random MSBs, and the selected carry.
            let pair = (stream >> (slen - 2)) as u64 & 3;
            let c = pair + r_top2 + u64::from(c_in) >= 4;

            if correction == EagerCorrection::Exact {
                // The decomposition must agree with the lazy rounding.
                let t = (stream >> (slen - r)) as u64;
                trace.tail_t = t;
                debug_assert_eq!(
                    c,
                    u128::from(t) + u128::from(w) >= 1u128 << r,
                    "eager(Exact) must equal lazy"
                );
            }
            c
        }
    };
    trace.round_carry = carry;
    pack_result(fmt, neg, kept + u64::from(carry), q)
}

fn shr_sat(x: u128, n: u32) -> u128 {
    if n >= 128 {
        0
    } else {
        x >> n
    }
}
