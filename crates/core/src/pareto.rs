//! Pareto-front computation over (cost, execution time).
//!
//! "The Pareto front represents the solutions that are Pareto efficient,
//! i.e. a set of solutions that are non-dominated relative to each other
//! but are superior to the rest of solutions in the search space." — paper,
//! Section III-E. Both objectives are minimized.

/// True if `a` dominates `b`: no worse in both objectives, strictly better
/// in at least one.
pub(crate) fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// Returns the indices of the Pareto-efficient points among `(cost, time)`
/// pairs, sorted by cost ascending (time therefore descends along the
/// front).
pub(crate) fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].0.is_finite() && points[i].1.is_finite())
        .collect();
    // Sort by cost, then time; sweep keeping strictly improving time.
    indices.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut front = Vec::new();
    let mut best_time = f64::INFINITY;
    for &i in &indices {
        let (_, t) = points[i];
        if t < best_time {
            // Equal-cost duplicates: only the first (fastest) survives, and
            // equal-time higher-cost points are dominated.
            front.push(i);
            best_time = t;
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates((1.0, 1.0), (2.0, 2.0)));
        assert!(dominates((1.0, 2.0), (1.0, 3.0)));
        assert!(
            !dominates((1.0, 2.0), (2.0, 1.0)),
            "trade-off: no dominance"
        );
        assert!(
            !dominates((1.0, 1.0), (1.0, 1.0)),
            "equal points don't dominate"
        );
    }

    #[test]
    fn simple_front() {
        // Listing 4-like: all four rows are on the front (cost ↑, time ↓).
        let pts = vec![(0.519, 173.0), (0.528, 132.0), (0.552, 69.0), (0.576, 36.0)];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dominated_points_excluded() {
        let pts = vec![
            (0.5, 100.0), // on front
            (0.6, 120.0), // dominated by 0 (costlier and slower)
            (0.7, 50.0),  // on front
            (0.7, 60.0),  // dominated by 2 (same cost, slower)
            (0.4, 200.0), // on front (cheapest)
        ];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![4, 0, 2]);
    }

    #[test]
    fn single_point_and_empty() {
        assert_eq!(pareto_front(&[(1.0, 1.0)]), vec![0]);
        assert!(pareto_front(&[]).is_empty());
        // Non-finite points are ignored.
        assert_eq!(pareto_front(&[(f64::NAN, 1.0), (1.0, 1.0)]), vec![1]);
    }

    #[test]
    fn front_invariants_hold() {
        // Deterministic pseudo-random cloud of points.
        let mut pts = Vec::new();
        let mut x = 123456789u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as f64 / 2.0f64.powi(31);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) as f64 / 2.0f64.powi(31);
            pts.push((a, b));
        }
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        // (1) Front members are mutually non-dominated.
        for &i in &front {
            for &j in &front {
                if i != j {
                    assert!(!dominates(pts[i], pts[j]), "{i} dominates {j}");
                }
            }
        }
        // (2) Every non-front point is dominated by some front member.
        for k in 0..pts.len() {
            if !front.contains(&k) {
                assert!(
                    front.iter().any(|&i| dominates(pts[i], pts[k])),
                    "point {k} is not dominated but missing from front"
                );
            }
        }
    }
}
