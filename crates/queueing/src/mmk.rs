//! M/M/k queue formulas with numerically stable evaluation.
//!
//! For an M/M/k queue with arrival rate `λ`, per-server service rate `μ`,
//! and `k` servers, the offered load is `a = λ/μ` and the utilization is
//! `ρ = a/k`. The queue is stable iff `ρ < 1`.
//!
//! The probability an arriving job waits (Erlang-C):
//!
//! ```text
//! C(k, a) = (a^k / k!) / ((1-ρ) Σ_{i<k} a^i/i! + a^k/k!)
//! ```
//!
//! computed iteratively to avoid overflowing factorials, and the expected
//! waiting and sojourn times:
//!
//! ```text
//! E[W] = C(k, a) / (kμ - λ),      E[T] = E[W] + 1/μ.
//! ```

/// Server utilization `ρ = λ / (kμ)`.
///
/// Panics if `k == 0` or `μ <= 0`.
#[inline]
pub fn utilization(lambda: f64, mu: f64, k: u32) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!(mu > 0.0, "mu must be positive");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    lambda / (mu * f64::from(k))
}

/// The minimum number of servers for stability: `⌊λ/μ⌋ + 1`.
///
/// This is the initialization of the paper's greedy allocation. Always at
/// least 1 (an idle executor still occupies one core).
#[inline]
pub fn min_stable_servers(lambda: f64, mu: f64) -> u32 {
    assert!(mu > 0.0, "mu must be positive");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let floor = (lambda / mu).floor();
    // Guard absurd inputs rather than overflowing the cast.
    let clamped = floor.min(u32::MAX as f64 - 1.0);
    clamped as u32 + 1
}

/// The minimum number of **key-partitioned** single-server tasks for
/// which the busiest task is stable.
///
/// [`min_stable_servers`] assumes one shared queue (a pooled M/M/k). An
/// elastic executor instead hash-partitions its shards across `k` tasks,
/// each with its own queue, and its §3.1 balancer only promises that the
/// busiest task carries at most `skew` times the mean. One task carries
/// all of `λ`; with `k ≥ 2` the busiest carries up to `skew · λ/k`, so
/// the floor is 1 when `λ < μ` and `max(2, ⌊skew·λ/μ⌋ + 1)` otherwise.
/// With `skew = 1` it equals [`min_stable_servers`] whenever `λ ≥ μ`.
///
/// Panics if `μ <= 0`, `λ < 0` or `skew < 1`.
#[inline]
pub fn min_partitioned_servers(lambda: f64, mu: f64, skew: f64) -> u32 {
    assert!(skew >= 1.0, "skew must be at least 1");
    if lambda < mu {
        return 1;
    }
    min_stable_servers(skew * lambda, mu).max(2)
}

/// Erlang-C: the probability that an arriving job must wait.
///
/// Returns 1.0 for unstable queues (`ρ >= 1`): every job waits and the
/// wait diverges. Numerically stable for large `k` via the recurrence
/// `term_i = term_{i-1} · a / i` evaluated in scaled form.
pub fn erlang_c(lambda: f64, mu: f64, k: u32) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!(mu > 0.0, "mu must be positive");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return 0.0;
    }
    let a = lambda / mu;
    let rho = a / f64::from(k);
    if rho >= 1.0 {
        return 1.0;
    }
    // Compute S = Σ_{i=0}^{k-1} a^i/i! and top = a^k/k! via the ratio
    // trick: maintain term = a^i/i! relative to term_0 = 1. For large a
    // the terms grow huge before shrinking, so work with the ratio
    // B = top / (top + (1-ρ)·S) rewritten via the inverse Erlang-B
    // recurrence, which is stable for all k:
    //   invB_0 = 1;  invB_i = 1 + (i / a) · invB_{i-1}
    // where B_k = a^k/k! / Σ_{i<=k} a^i/i! is Erlang-B. Then
    //   C = B_k / (1 - ρ (1 - B_k)).
    let mut inv_b = 1.0_f64;
    for i in 1..=k {
        inv_b = 1.0 + f64::from(i) / a * inv_b;
        if !inv_b.is_finite() {
            // a is tiny relative to k: blocking probability underflows.
            return 0.0;
        }
    }
    let b = 1.0 / inv_b;
    let c = b / (1.0 - rho * (1.0 - b));
    c.clamp(0.0, 1.0)
}

/// Expected waiting time in queue, `E[W]`, in the same time unit as
/// `1/λ`. Returns `f64::INFINITY` for unstable queues.
pub fn expected_wait(lambda: f64, mu: f64, k: u32) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!(mu > 0.0, "mu must be positive");
    if lambda <= 0.0 {
        return 0.0;
    }
    let capacity = mu * f64::from(k);
    if lambda >= capacity {
        return f64::INFINITY;
    }
    erlang_c(lambda, mu, k) / (capacity - lambda)
}

/// Expected sojourn (processing) time `E[T] = E[W] + 1/μ`. Returns
/// `f64::INFINITY` for unstable queues.
pub fn expected_sojourn(lambda: f64, mu: f64, k: u32) -> f64 {
    let w = expected_wait(lambda, mu, k);
    if w.is_infinite() {
        return f64::INFINITY;
    }
    w + 1.0 / mu
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mm1_matches_closed_form() {
        // For k = 1: C = ρ, E[W] = ρ / (μ - λ), E[T] = 1 / (μ - λ).
        let (lambda, mu) = (0.7, 1.0);
        assert!((erlang_c(lambda, mu, 1) - 0.7).abs() < EPS);
        assert!((expected_wait(lambda, mu, 1) - 0.7 / 0.3).abs() < 1e-6);
        assert!((expected_sojourn(lambda, mu, 1) - 1.0 / 0.3).abs() < 1e-6);
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic table value: a = 2 Erlangs, k = 3 servers → C ≈ 0.4444.
        let c = erlang_c(2.0, 1.0, 3);
        assert!((c - 4.0 / 9.0).abs() < 1e-6, "C = {c}");
    }

    #[test]
    fn erlang_c_bounds() {
        for &(l, m, k) in &[
            (0.5, 1.0, 1u32),
            (3.0, 1.0, 4),
            (10.0, 2.0, 6),
            (0.1, 5.0, 2),
        ] {
            let c = erlang_c(l, m, k);
            assert!((0.0..=1.0).contains(&c), "C({l},{m},{k}) = {c}");
        }
    }

    #[test]
    fn unstable_queue_diverges() {
        assert_eq!(erlang_c(2.0, 1.0, 2), 1.0);
        assert!(expected_wait(2.0, 1.0, 2).is_infinite());
        assert!(expected_sojourn(3.0, 1.0, 2).is_infinite());
    }

    #[test]
    fn zero_arrivals_zero_wait() {
        assert_eq!(erlang_c(0.0, 1.0, 4), 0.0);
        assert_eq!(expected_wait(0.0, 1.0, 4), 0.0);
        assert!((expected_sojourn(0.0, 1.0, 4) - 1.0).abs() < EPS);
    }

    #[test]
    fn wait_decreases_with_servers() {
        let (lambda, mu) = (7.3, 1.0);
        let mut prev = f64::INFINITY;
        for k in min_stable_servers(lambda, mu)..40 {
            let w = expected_wait(lambda, mu, k);
            assert!(w <= prev + EPS, "E[W] must be non-increasing in k");
            prev = w;
        }
        // And converges to zero.
        assert!(prev < 1e-6);
    }

    #[test]
    fn sojourn_approaches_service_time() {
        let (lambda, mu) = (10.0, 2.0);
        let t = expected_sojourn(lambda, mu, 64);
        assert!((t - 0.5).abs() < 1e-9, "E[T] → 1/μ as k → ∞, got {t}");
    }

    #[test]
    fn min_stable_servers_boundary() {
        assert_eq!(min_stable_servers(0.0, 1.0), 1);
        assert_eq!(min_stable_servers(0.9, 1.0), 1);
        assert_eq!(min_stable_servers(1.0, 1.0), 2);
        assert_eq!(min_stable_servers(7.99, 2.0), 4);
        assert_eq!(min_stable_servers(8.0, 2.0), 5);
        // Stability really holds at the returned k.
        for &(l, m) in &[(0.5, 1.0), (99.9, 1.0), (1234.5, 3.2)] {
            let k = min_stable_servers(l, m);
            assert!(utilization(l, m, k) < 1.0);
            if k > 1 {
                assert!(utilization(l, m, k - 1) >= 1.0);
            }
        }
    }

    #[test]
    fn min_partitioned_servers_boundary() {
        // One task carries everything: 1 exactly when λ < μ.
        assert_eq!(min_partitioned_servers(0.0, 1.0, 1.2), 1);
        assert_eq!(min_partitioned_servers(0.99, 1.0, 1.2), 1);
        assert_eq!(min_partitioned_servers(1.0, 1.0, 1.2), 2);
        // `skew_shift`'s settled `count`: pooled says 2, partitioned 3.
        let (lambda, mu) = (7_600.0, 3_860.0);
        assert_eq!(min_stable_servers(lambda, mu), 2);
        assert_eq!(min_partitioned_servers(lambda, mu, 1.2), 3);
        // At skew 1 the two floors agree once λ ≥ μ.
        assert_eq!(min_partitioned_servers(7.99, 2.0, 1.0), 4);
        assert_eq!(min_partitioned_servers(8.0, 2.0, 1.0), 5);
    }

    #[test]
    #[should_panic(expected = "skew must be at least 1")]
    fn min_partitioned_servers_rejects_skew_below_one() {
        min_partitioned_servers(1.0, 1.0, 0.9);
    }

    #[test]
    fn large_k_is_stable_numerically() {
        // 256 servers at 80% utilization: must not overflow or NaN.
        let mu = 1000.0; // 1 ms service time
        let k = 256u32;
        let lambda = 0.8 * mu * f64::from(k);
        let c = erlang_c(lambda, mu, k);
        assert!(c.is_finite() && (0.0..=1.0).contains(&c));
        let w = expected_wait(lambda, mu, k);
        assert!(w.is_finite() && w >= 0.0);
    }

    #[test]
    fn tiny_load_many_servers_underflow_safe() {
        let c = erlang_c(1e-6, 1.0, 200);
        assert!((0.0..1e-12).contains(&c));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_servers_panics() {
        erlang_c(1.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "mu must be positive")]
    fn zero_mu_panics() {
        erlang_c(1.0, 0.0, 1);
    }
}
