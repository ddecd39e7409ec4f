//! Approximation-ratio measurement utilities.
//!
//! Definition II.5: `β` is a γ-approximation of `s` if `s ≤ β ≤ γ·s` for every
//! node. The experiment harness reports the maximum and mean per-node ratio and
//! the fraction of nodes within a target factor — the quantities the paper's
//! empirical discussion is about ("the approximation ratio often converges to 2
//! much quicker than what the worst-case analysis suggests").

/// Aggregate per-node approximation-ratio statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxRatio {
    /// Maximum ratio `approx(v) / exact(v)` over all nodes.
    pub max: f64,
    /// Mean ratio over all nodes.
    pub mean: f64,
    /// Minimum ratio (should never drop below 1 for a valid upper bound).
    pub min: f64,
    /// Number of nodes where the exact value is 0 but the approximation is
    /// positive (excluded from max/mean/min).
    pub undefined: usize,
    /// Number of nodes with a violated lower bound (`approx < exact` beyond
    /// numerical tolerance) — must be 0 for the paper's algorithms.
    pub lower_bound_violations: usize,
}

impl ApproxRatio {
    /// Computes ratio statistics between an approximation and the exact values.
    /// Pairs where both are (near) zero contribute a ratio of exactly 1.
    pub fn compute(approx: &[f64], exact: &[f64]) -> Self {
        assert_eq!(approx.len(), exact.len());
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut undefined = 0usize;
        let mut violations = 0usize;
        for (&a, &e) in approx.iter().zip(exact) {
            let ratio = if e.abs() < 1e-12 {
                if a.abs() < 1e-12 {
                    1.0
                } else {
                    undefined += 1;
                    continue;
                }
            } else {
                a / e
            };
            if ratio < 1.0 - 1e-6 {
                violations += 1;
            }
            max = max.max(ratio);
            min = min.min(ratio);
            sum += ratio;
            count += 1;
        }
        if count == 0 {
            return ApproxRatio {
                max: 1.0,
                mean: 1.0,
                min: 1.0,
                undefined,
                lower_bound_violations: violations,
            };
        }
        ApproxRatio {
            max,
            mean: sum / count as f64,
            min,
            undefined,
            lower_bound_violations: violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let approx = [2.0, 3.0, 5.0];
        let exact = [1.0, 3.0, 4.0];
        let r = ApproxRatio::compute(&approx, &exact);
        assert_eq!(r.max, 2.0);
        assert_eq!(r.min, 1.0);
        assert!((r.mean - (2.0 + 1.0 + 1.25) / 3.0).abs() < 1e-12);
        assert_eq!(r.undefined, 0);
        assert_eq!(r.lower_bound_violations, 0);
    }

    #[test]
    fn zero_handling() {
        let approx = [0.0, 2.0, 4.0];
        let exact = [0.0, 0.0, 2.0];
        let r = ApproxRatio::compute(&approx, &exact);
        assert_eq!(r.undefined, 1);
        assert_eq!(r.max, 2.0);
        assert_eq!(r.min, 1.0);
    }

    #[test]
    fn detects_lower_bound_violation() {
        let r = ApproxRatio::compute(&[0.5], &[1.0]);
        assert_eq!(r.lower_bound_violations, 1);
    }

    #[test]
    fn empty_inputs() {
        let r = ApproxRatio::compute(&[], &[]);
        assert_eq!(r.max, 1.0);
    }
}
