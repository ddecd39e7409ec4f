//! Threshold sets Λ (Section III-C, "Message Size").
//!
//! The compact elimination procedure may round surviving numbers down to a
//! restricted set Λ of threshold values so that each message needs only
//! `log₂ |Λ|` bits. The paper uses Λ = ℝ (no rounding; needed for the
//! orientation invariants) or Λ = powers of `(1 + λ)`.

use dkc_distsim::message::WORD_BITS;

/// The set Λ of allowed surviving-number values.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ThresholdSet {
    /// Λ = ℝ: values are kept exact. Required for the min-max orientation
    /// guarantee (Definition III.7 needs the exact upper bound).
    #[default]
    Reals,
    /// Λ = {0} ∪ { (1+λ)^k : k ∈ ℤ }: every value is rounded **down** to the
    /// nearest power of `(1 + λ)`, so each transmitted value loses at most a
    /// `(1+λ)` factor (Corollary III.10) and fits in `O(log log_{1+λ} n)` bits
    /// relative to the value range.
    PowerGrid {
        /// The quantization parameter λ > 0.
        lambda: f64,
    },
}

impl ThresholdSet {
    /// Creates a power-grid threshold set, validating λ. Values below
    /// `1e-12` are rejected: the grid base `1 + λ` must be strictly
    /// representable above 1 with adjacent grid members at least a few ulps
    /// apart, or rounding could not terminate.
    pub fn power_grid(lambda: f64) -> Self {
        assert!(
            lambda >= 1e-12 && lambda.is_finite(),
            "lambda must be positive (>= 1e-12)"
        );
        ThresholdSet::PowerGrid { lambda }
    }

    /// Rounds `x` down to the next value in Λ. Non-positive and non-finite
    /// inputs are passed through unchanged (0 is a member of every Λ; `+∞` is
    /// the initial surviving number and is never transmitted after the first
    /// update).
    ///
    /// Grid members are computed by **integer-exponent repeated squaring**
    /// (`pow_int`) rather than `ln`/`powf`: the transcendental path could
    /// drift a hair *above* `x` (violating `round_down(x) ≤ x`) and produced
    /// values that were not fixed points of the rounding. With exact integer
    /// exponents and strict comparisons the result is always `≤ x` and
    /// idempotent (`round_down(round_down(x)) == round_down(x)` bit-exactly);
    /// a property test pins both.
    pub fn round_down(&self, x: f64) -> f64 {
        match *self {
            ThresholdSet::Reals => x,
            ThresholdSet::PowerGrid { lambda } => {
                if x <= 0.0 || !x.is_finite() {
                    return x;
                }
                let base = 1.0 + lambda;
                // Seed the exponent from logarithms (estimate only), then
                // correct with exact strict comparisons against the
                // repeated-squaring value so no tolerance fudge is needed.
                let mut k = (x.ln() / base.ln()).floor() as i64;
                let mut val = pow_int(base, k);
                while val > x {
                    k -= 1;
                    val = pow_int(base, k);
                }
                loop {
                    let next = pow_int(base, k + 1);
                    if next <= x && next > val {
                        k += 1;
                        val = next;
                    } else {
                        return val;
                    }
                }
            }
        }
    }

    /// Number of bits a transmitted surviving number needs under this Λ, for
    /// values known to lie in `[1, max_value]` (plus one code point each for 0
    /// and for values below 1). `Reals` charges a full word.
    pub fn message_bits(&self, max_value: f64) -> usize {
        match *self {
            ThresholdSet::Reals => WORD_BITS,
            ThresholdSet::PowerGrid { lambda } => {
                let max_value = max_value.max(1.0);
                let levels = (max_value.ln() / (1.0 + lambda).ln()).ceil().max(1.0) as usize + 2;
                (usize::BITS - (levels - 1).leading_zeros()) as usize
            }
        }
    }

    /// The multiplicative loss introduced by rounding: 1 for `Reals`,
    /// `1 + λ` for a power grid.
    pub fn rounding_loss(&self) -> f64 {
        match *self {
            ThresholdSet::Reals => 1.0,
            ThresholdSet::PowerGrid { lambda } => 1.0 + lambda,
        }
    }
}

/// `base^k` for integer `k` by repeated squaring (negative exponents via the
/// reciprocal). Deterministic — the same `(base, k)` always yields the same
/// bits — which is what makes [`ThresholdSet::round_down`] idempotent.
fn pow_int(base: f64, k: i64) -> f64 {
    if k >= 0 {
        pow_uint(base, k as u64)
    } else {
        1.0 / pow_uint(base, k.unsigned_abs())
    }
}

fn pow_uint(base: f64, mut k: u64) -> f64 {
    let mut acc = 1.0f64;
    let mut sq = base;
    while k > 0 {
        if k & 1 == 1 {
            acc *= sq;
        }
        sq *= sq;
        k >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reals_are_identity() {
        let l = ThresholdSet::Reals;
        assert_eq!(l.round_down(3.7), 3.7);
        assert_eq!(l.round_down(0.0), 0.0);
        assert_eq!(l.rounding_loss(), 1.0);
        assert_eq!(l.message_bits(1e9), WORD_BITS);
    }

    #[test]
    fn power_grid_rounds_down_within_factor() {
        let l = ThresholdSet::power_grid(0.1);
        for &x in &[0.5, 1.0, 1.05, 2.0, 3.7, 10.0, 123.456, 1e6] {
            let r = l.round_down(x);
            assert!(r <= x * (1.0 + 1e-9), "rounded {r} above {x}");
            assert!(
                r * 1.1 >= x * (1.0 - 1e-9),
                "rounded {r} more than a grid step below {x}"
            );
        }
    }

    #[test]
    fn power_grid_members_are_fixed_points() {
        let l = ThresholdSet::power_grid(0.5);
        let member = 1.5f64.powi(7);
        let r = l.round_down(member);
        assert!((r - member).abs() < 1e-9 * member);
    }

    #[test]
    fn power_grid_edge_cases() {
        let l = ThresholdSet::power_grid(0.25);
        assert_eq!(l.round_down(0.0), 0.0);
        assert_eq!(l.round_down(f64::INFINITY), f64::INFINITY);
        assert_eq!(l.round_down(1.0), 1.0);
    }

    #[test]
    fn message_bits_shrink_with_coarser_grids() {
        let fine = ThresholdSet::power_grid(0.01);
        let coarse = ThresholdSet::power_grid(0.5);
        assert!(fine.message_bits(1e6) > coarse.message_bits(1e6));
        assert!(coarse.message_bits(1e6) < WORD_BITS);
        assert!(fine.message_bits(1e6) >= 10);
    }

    #[test]
    #[should_panic]
    fn invalid_lambda_rejected() {
        let _ = ThresholdSet::power_grid(0.0);
    }

    #[test]
    fn pow_int_matches_powi_on_exact_bases() {
        // 1.5^k is exactly representable for small k: repeated squaring must
        // reproduce it bit for bit, both directions.
        for k in -20i64..=20 {
            assert_eq!(pow_int(1.5, k), 1.5f64.powi(k as i32), "k = {k}");
        }
        assert_eq!(pow_int(2.0, 40), (1u64 << 40) as f64);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `round_down(x) <= x` with NO tolerance (the old ln/powf
            /// implementation could land a hair above `x`), the result is at
            /// most one grid step below `x`, and rounding is idempotent
            /// bit-for-bit (grid members are fixed points).
            #[test]
            fn round_down_is_a_monotone_idempotent_projection(
                lambda in 1e-6..2.0f64,
                mantissa in 1.0..10.0f64,
                exp in -30i32..30,
            ) {
                let l = ThresholdSet::power_grid(lambda);
                let x = mantissa * 10f64.powi(exp);
                let r = l.round_down(x);
                prop_assert!(r > 0.0 && r.is_finite());
                prop_assert!(r <= x, "round_down({x}) = {r} exceeds x (λ={lambda})");
                prop_assert!(
                    r * (1.0 + lambda) * (1.0 + 1e-9) > x,
                    "round_down({x}) = {r} is more than one grid step low (λ={lambda})"
                );
                let rr = l.round_down(r);
                prop_assert!(
                    rr.to_bits() == r.to_bits(),
                    "not idempotent: round_down({r}) = {rr} (λ={lambda})"
                );
            }
        }
    }
}
