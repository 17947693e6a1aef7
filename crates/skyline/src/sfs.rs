//! Sort-filter-skyline (SFS).
//!
//! Chomicki et al.'s refinement of BNL: presort the input by a
//! monotone aggregate (here the coordinate sum) so that no object can
//! be dominated by one appearing *after* it in sorted order. Each
//! object then needs comparing only against the already-accepted
//! skyline, never evicting — a simpler inner loop and better locality
//! for larger partitions.

use crate::{dominates, total_order};

/// Compute the skyline of `points` via sort-filter-skyline, returning
/// indices into `points` in ascending order.
pub fn skyline_sfs(points: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    // Sort by coordinate sum: if sum(a) < sum(b) then b cannot
    // dominate a (dominance would force sum(b) ≤ sum(a), with strict
    // inequality somewhere). Ties are broken by index for determinism;
    // tied-sum points cannot dominate each other unless equal, and
    // equal points never dominate. NaN sums sort last.
    order.sort_by(|&a, &b| {
        let sa: f64 = points[a].iter().sum();
        let sb: f64 = points[b].iter().sum();
        total_order(sa, sb).then(a.cmp(&b))
    });

    let mut skyline: Vec<usize> = Vec::new();
    for &i in &order {
        if !skyline.iter().any(|&s| dominates(&points[s], &points[i])) {
            skyline.push(i);
        }
    }
    skyline.sort_unstable();
    skyline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skyline_bnl, skyline_naive};

    #[test]
    fn agrees_with_bnl_and_oracle() {
        let pts = vec![
            vec![3.0, 1.0, 2.0],
            vec![1.0, 3.0, 9.0],
            vec![2.0, 2.0, 1.0],
            vec![4.0, 4.0, 4.0],
            vec![0.5, 5.0, 0.5],
        ];
        let sfs = skyline_sfs(&pts);
        assert_eq!(sfs, skyline_bnl(&pts));
        assert_eq!(sfs, skyline_naive(&pts));
    }

    #[test]
    fn handles_equal_sums() {
        // (1,3) and (3,1) tie on sum but are incomparable.
        let pts = vec![vec![1.0, 3.0], vec![3.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(skyline_sfs(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn equal_points_both_survive() {
        let pts = vec![vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 9.0]];
        assert_eq!(skyline_sfs(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(skyline_sfs(&[]).is_empty());
        assert_eq!(skyline_sfs(&[vec![7.0, 7.0]]), vec![0]);
    }

    #[test]
    fn non_finite_safe_ordering_does_not_panic() {
        // A NaN sum, of either sign, sorts after every finite one, so
        // the finite points are filtered exactly as without it. NaN
        // coordinates compare false both ways: this point is dominated
        // by nothing and, coming last, evicts nothing.
        let inf = std::hint::black_box(f64::INFINITY);
        for nan in [f64::NAN, inf - inf] {
            let pts = vec![
                vec![1.0, 3.0],
                vec![nan, 0.5],
                vec![3.0, 1.0],
                vec![4.0, 4.0],
            ];
            assert_eq!(skyline_sfs(&pts), vec![0, 1, 2]);
        }
        // A NaN point dominated on its finite coordinates is dropped,
        // as the oracle drops it.
        let pts = vec![vec![1.0, 3.0], vec![f64::NAN, 5.0], vec![3.0, 1.0]];
        assert_eq!(skyline_sfs(&pts), skyline_naive(&pts));
        assert_eq!(skyline_sfs(&pts), vec![0, 2]);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::{skyline_bnl, skyline_naive};
    use proptest::prelude::*;

    fn arb_points(max_len: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(
            prop::collection::vec(0.0f64..1000.0, dims..=dims),
            0..max_len,
        )
    }

    proptest! {
        #[test]
        fn sfs_matches_naive_2d(pts in arb_points(60, 2)) {
            prop_assert_eq!(skyline_sfs(&pts), skyline_naive(&pts));
        }

        #[test]
        fn sfs_matches_naive_3d(pts in arb_points(60, 3)) {
            prop_assert_eq!(skyline_sfs(&pts), skyline_naive(&pts));
        }

        #[test]
        fn bnl_matches_naive_3d(pts in arb_points(60, 3)) {
            prop_assert_eq!(skyline_bnl(&pts), skyline_naive(&pts));
        }

        #[test]
        fn skyline_is_idempotent(pts in arb_points(40, 3)) {
            let first = skyline_sfs(&pts);
            let reduced: Vec<Vec<f64>> = first.iter().map(|&i| pts[i].clone()).collect();
            let second = skyline_sfs(&reduced);
            // Applying the skyline to its own output removes nothing.
            prop_assert_eq!(second.len(), reduced.len());
        }

        #[test]
        fn skyline_members_are_undominated(pts in arb_points(40, 3)) {
            let sky = skyline_sfs(&pts);
            for &i in &sky {
                for (j, p) in pts.iter().enumerate() {
                    if j != i {
                        prop_assert!(!crate::dominates(p, &pts[i]));
                    }
                }
            }
        }

        #[test]
        fn non_members_are_dominated(pts in arb_points(40, 2)) {
            let sky = skyline_sfs(&pts);
            for (i, p) in pts.iter().enumerate() {
                if !sky.contains(&i) {
                    prop_assert!(pts.iter().any(|q| crate::dominates(q, p)));
                }
            }
        }
    }
}
