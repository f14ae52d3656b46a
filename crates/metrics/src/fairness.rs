//! Fairness measures and the max-min fair allocation.

/// Jain's fairness index: `(sum x)^2 / (n * sum x^2)`.
///
/// Equal allocations score 1.0; the index degrades toward `1/n` as one
/// participant dominates.
///
/// # Examples
///
/// ```
/// use btgs_metrics::jain_index;
///
/// assert_eq!(jain_index(&[10.0, 10.0, 10.0]), 1.0);
/// assert!(jain_index(&[30.0, 0.0, 0.0]) < 0.34);
/// ```
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sum_sq)
}

/// Computes the max-min fair ("water-filling") allocation of `capacity`
/// among participants with the given `demands`.
///
/// Each participant receives `min(demand, fair share)`, where the fair share
/// is raised until the capacity is exhausted or every demand is met.
/// This is the division the paper's PFP performs on the bandwidth left over
/// by the Guaranteed Service schedule ("the remaining bandwidth is fairly
/// divided among the BE flows, which explains why some BE flows achieve
/// their maximum throughput as opposed to other BE flows").
///
/// # Examples
///
/// ```
/// use btgs_metrics::max_min_fair;
///
/// // Plenty of capacity: everyone gets their demand.
/// assert_eq!(max_min_fair(100.0, &[10.0, 20.0]), vec![10.0, 20.0]);
/// // Scarce capacity: small demand satisfied, the rest split evenly.
/// assert_eq!(max_min_fair(50.0, &[10.0, 40.0, 40.0]), vec![10.0, 20.0, 20.0]);
/// ```
///
/// # Panics
///
/// Panics if `capacity` is negative or any demand is negative/non-finite.
pub fn max_min_fair(capacity: f64, demands: &[f64]) -> Vec<f64> {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    for &d in demands {
        assert!(
            d.is_finite() && d >= 0.0,
            "demands must be finite and non-negative"
        );
    }
    let mut alloc = vec![0.0; demands.len()];
    let mut remaining = capacity;
    let mut unsatisfied: Vec<usize> = (0..demands.len()).collect();
    while !unsatisfied.is_empty() && remaining > 1e-12 {
        let share = remaining / unsatisfied.len() as f64;
        // Participants whose residual demand is below the share are capped
        // at their demand; their leftover is redistributed next round.
        let mut newly_satisfied = Vec::new();
        for &i in &unsatisfied {
            let residual = demands[i] - alloc[i];
            if residual <= share + 1e-12 {
                alloc[i] = demands[i];
                remaining -= residual;
                newly_satisfied.push(i);
            }
        }
        if newly_satisfied.is_empty() {
            // Everyone can absorb a full share.
            for &i in &unsatisfied {
                alloc[i] += share;
            }
            remaining = 0.0;
        } else {
            unsatisfied.retain(|i| !newly_satisfied.contains(i));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        let idx = jain_index(&[1.0, 2.0, 3.0]);
        assert!(idx > 0.0 && idx < 1.0);
        // Totally unfair: index -> 1/n.
        let unfair = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12);
    }

    #[test]
    fn water_filling_satisfies_everyone_with_slack() {
        let a = max_min_fair(1000.0, &[100.0, 200.0, 300.0]);
        assert_eq!(a, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn water_filling_shares_evenly_under_pressure() {
        let a = max_min_fair(90.0, &[100.0, 100.0, 100.0]);
        assert_eq!(a, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn paper_fig5_shape() {
        // BE slave demands at max rates (slots/s: one 6-slot DH3 exchange
        // per 176-byte packet each way, at 41.6..58.4 kbit/s): the
        // smallest-demand slave saturates first as capacity shrinks.
        let demands = [177.3, 201.1, 225.0, 248.9];
        let a = max_min_fair(732.0, &demands);
        // S4 keeps its max; the others split the remainder evenly.
        assert!((a[0] - 177.3).abs() < 1e-9);
        let expected = (732.0 - 177.3) / 3.0;
        for v in &a[1..] {
            assert!((v - expected).abs() < 1e-9);
        }
        // Tighter capacity: nobody satisfied, perfectly even split.
        let b = max_min_fair(600.0, &demands);
        for v in &b {
            assert!((v - 150.0).abs() < 1e-9);
        }
    }

    #[test]
    fn allocation_never_exceeds_demand_or_capacity() {
        let demands = [5.0, 15.0, 25.0, 35.0];
        for cap in [0.0, 10.0, 40.0, 79.9, 80.0, 200.0] {
            let a = max_min_fair(cap, &demands);
            let total: f64 = a.iter().sum();
            assert!(total <= cap + 1e-9, "cap {cap}: total {total}");
            for (x, d) in a.iter().zip(demands) {
                assert!(*x <= d + 1e-9);
                assert!(*x >= 0.0);
            }
        }
    }

    #[test]
    fn zero_demand_participants_get_zero() {
        let a = max_min_fair(30.0, &[0.0, 50.0]);
        assert_eq!(a[0], 0.0);
        assert!((a[1] - 30.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btgs_des::DetRng;

    /// Water-filling must (a) never exceed capacity, (b) never exceed a
    /// demand, and (c) leave no capacity unused while someone is
    /// unsatisfied.
    #[test]
    fn max_min_fair_invariants() {
        let mut rng = DetRng::seed_from_u64(0xFA1);
        for _ in 0..512 {
            let capacity = rng.next_f64() * 10_000.0;
            let n = rng.below(12) as usize;
            let demands: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1_000.0).collect();
            let a = max_min_fair(capacity, &demands);
            let total: f64 = a.iter().sum();
            assert!(total <= capacity + 1e-6);
            let mut any_unsatisfied = false;
            for (x, d) in a.iter().zip(&demands) {
                assert!(*x <= d + 1e-6);
                assert!(*x >= -1e-12);
                if d - x > 1e-6 {
                    any_unsatisfied = true;
                }
            }
            if any_unsatisfied {
                let demand_total: f64 = demands.iter().sum();
                let used = total.min(demand_total);
                assert!(
                    (used - capacity.min(demand_total)).abs() < 1e-6,
                    "capacity left unused while demand unmet: used {used}, cap {capacity}"
                );
            }
            // Fairness: any two unsatisfied participants receive equal shares.
            for i in 0..a.len() {
                for j in 0..a.len() {
                    let i_unsat = demands[i] - a[i] > 1e-6;
                    let j_unsat = demands[j] - a[j] > 1e-6;
                    if i_unsat && j_unsat {
                        assert!((a[i] - a[j]).abs() < 1e-6);
                    }
                }
            }
        }
    }
}
