//! Property-based tests for the queueing model.

use elasticutor_queueing::jackson::{ExecutorLoad, JacksonNetwork};
use elasticutor_queueing::{
    allocate, erlang_c, expected_sojourn, expected_wait, min_partitioned_servers,
    min_stable_servers, AllocationRequest,
};
use proptest::prelude::*;

proptest! {
    /// Erlang-C is a probability, monotonically non-increasing in k.
    #[test]
    fn erlang_c_probability_monotone(
        lambda in 0.01f64..500.0,
        mu in 0.01f64..100.0,
    ) {
        let k0 = min_stable_servers(lambda, mu);
        let mut prev = 1.0f64;
        for k in k0..k0 + 20 {
            let c = erlang_c(lambda, mu, k);
            prop_assert!((0.0..=1.0).contains(&c), "C = {c}");
            prop_assert!(c <= prev + 1e-9, "C must not increase in k");
            prev = c;
        }
    }

    /// E[W] is finite and non-increasing in k above the stability point;
    /// E[T] is bounded below by the service time 1/μ.
    #[test]
    fn waits_behave(
        lambda in 0.01f64..500.0,
        mu in 0.01f64..100.0,
    ) {
        let k0 = min_stable_servers(lambda, mu);
        let mut prev = f64::INFINITY;
        for k in k0..k0 + 20 {
            let w = expected_wait(lambda, mu, k);
            prop_assert!(w.is_finite() && w >= 0.0);
            prop_assert!(w <= prev + 1e-9);
            let t = expected_sojourn(lambda, mu, k);
            prop_assert!(t >= 1.0 / mu - 1e-12);
            prev = w;
        }
    }

    /// The partitioned floor is the fewest tasks whose busiest task
    /// (all of λ alone, `skew·λ/k` among k ≥ 2) is stable; it is 1
    /// exactly when λ < μ, matches the pooled floor at skew 1 once
    /// λ ≥ μ, and grows with both λ and skew.
    #[test]
    fn partitioned_floor_sizes_the_busiest_task(
        lambda in 0.0f64..500.0,
        mu in 0.01f64..100.0,
        skew in 1.0f64..3.0,
        more_lambda in 0.0f64..100.0,
        more_skew in 0.0f64..1.0,
    ) {
        let busiest = |k: u32| if k == 1 { lambda } else { skew * lambda / f64::from(k) };
        let k = min_partitioned_servers(lambda, mu, skew);
        prop_assert!(busiest(k) < mu * (1.0 + 1e-9), "k = {k} leaves the busiest task unstable");
        if k >= 2 {
            prop_assert!(
                busiest(k - 1) >= mu * (1.0 - 1e-9),
                "k - 1 = {} would already be stable", k - 1
            );
        }
        prop_assert_eq!(k == 1, lambda < mu);
        if lambda >= mu {
            prop_assert_eq!(
                min_partitioned_servers(lambda, mu, 1.0),
                min_stable_servers(lambda, mu)
            );
        }
        prop_assert!(min_partitioned_servers(lambda + more_lambda, mu, skew) >= k);
        prop_assert!(min_partitioned_servers(lambda, mu, skew + more_skew) >= k);
    }

    /// The allocator always returns at least the stability minimum when
    /// affordable, never exceeds the budget, and its reported latency
    /// matches re-evaluating the model.
    #[test]
    fn allocation_sound(
        loads in prop::collection::vec((0.0f64..50.0, 0.5f64..20.0), 1..8),
        target_ms in 1.0f64..1000.0,
        budget in 1u32..256,
    ) {
        let lambda0 = loads.iter().map(|l| l.0).sum::<f64>().max(0.1);
        let net = JacksonNetwork::new(
            lambda0,
            loads.iter().map(|&(l, m)| ExecutorLoad::new(l, m)).collect(),
        );
        let out = allocate(&AllocationRequest {
            network: &net,
            latency_target: target_ms / 1000.0,
            available_cores: budget,
        });
        prop_assert!(out.cores.iter().all(|&c| c >= 1));
        if !out.saturated {
            prop_assert!(u64::from(out.total_cores()) <= u64::from(budget));
            for (j, l) in net.loads().iter().enumerate() {
                prop_assert!(out.cores[j] >= l.min_cores());
            }
            let recheck = net.expected_latency(&out.cores);
            prop_assert!((recheck - out.expected_latency).abs() < 1e-9
                || (recheck.is_infinite() && out.expected_latency.is_infinite()));
            prop_assert_eq!(out.meets_target, out.expected_latency <= target_ms / 1000.0);
        }
    }
}
