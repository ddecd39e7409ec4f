//! CONGEST-model message-size budgets.
//!
//! In the CONGEST model every message is limited to `O(log n)` bits. The
//! paper's protocols meet this budget when edge weights are integers of
//! polynomial magnitude, or when surviving numbers are quantized to powers of
//! `(1 + λ)` (Section III-C, "Message Size").

/// Returns a CONGEST message budget in bits for an `n`-node network:
/// `words · ⌈log₂(max(n, 2))⌉`. The paper's messages contain a constant number
/// of numbers; `words` is that constant (use 1 for the compact elimination
/// procedure, 2 for leader-election pairs, etc.).
///
/// # Panics
///
/// Panics if `words == 0`: a zero-word budget is 0 bits, which no message
/// could meet.
pub fn congest_budget_bits(n: usize, words: usize) -> usize {
    assert!(words >= 1, "a CONGEST budget needs at least one word");
    let n = n.max(2);
    let log = usize::BITS as usize - (n - 1).leading_zeros() as usize;
    words * log.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_log_n() {
        assert_eq!(congest_budget_bits(2, 1), 1);
        assert_eq!(congest_budget_bits(1024, 1), 10);
        assert_eq!(congest_budget_bits(1025, 1), 11);
        assert_eq!(congest_budget_bits(1_000_000, 2), 40);
    }

    #[test]
    fn budget_handles_tiny_networks() {
        assert!(congest_budget_bits(0, 1) >= 1);
        assert!(congest_budget_bits(1, 1) >= 1);
    }

    /// Regression: `words == 0` used to return a 0-bit budget.
    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_words_budget_rejected() {
        let _ = congest_budget_bits(1024, 0);
    }
}
