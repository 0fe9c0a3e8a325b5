//! The kd-tree's queries against brute force on the shapes that stress
//! its splits: one axis constant or two-valued (every burst of an SPMD
//! phase retires the same instruction count), quantised duplicates, and
//! non-finite coordinates.

use proptest::prelude::*;

use phasefold_cluster::KdTree;

fn dist2(a: &[f64; 2], b: &[f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

fn brute_within(points: &[[f64; 2]], q: &[f64; 2], eps: f64) -> Vec<usize> {
    (0..points.len()).filter(|&i| dist2(&points[i], q) <= eps * eps).collect()
}

/// The k-th smallest non-NaN distance to another point, or +∞.
fn brute_k_dist(points: &[[f64; 2]], k: usize) -> Vec<f64> {
    (0..points.len())
        .map(|i| {
            let mut d: Vec<f64> = (0..points.len())
                .filter(|&j| j != i)
                .map(|j| dist2(&points[i], &points[j]).sqrt())
                .filter(|d| !d.is_nan())
                .collect();
            d.sort_by(f64::total_cmp);
            d.get(k - 1).copied().unwrap_or(f64::INFINITY)
        })
        .collect()
}

/// Points whose second coordinate takes one or two values and whose first
/// is quantised, so duplicates are common; `swap` moves the tied
/// coordinate to the first axis.
fn tied_axis(max: usize) -> impl Strategy<Value = Vec<[f64; 2]>> {
    (
        proptest::collection::vec((0u32..40, 0u32..2), 1..max),
        0.0f64..1.0,
        prop_oneof![Just(0.0), 0.001f64..0.5],
        0u32..2,
    )
        .prop_map(|(cells, y0, gap, swap)| {
            cells
                .into_iter()
                .map(|(x, high)| {
                    let p = [f64::from(x) * 0.005, y0 + f64::from(high) * gap];
                    if swap == 1 {
                        [p[1], p[0]]
                    } else {
                        p
                    }
                })
                .collect()
        })
}

/// A quantised coordinate that is NaN or ±∞ about one time in four.
fn coordinate() -> impl Strategy<Value = f64> {
    (0u32..28).prop_map(|c| match c {
        20..=21 => f64::NAN,
        22..=23 => f64::INFINITY,
        24..=25 => f64::NEG_INFINITY,
        _ => f64::from(c % 20) * 0.01,
    })
}

fn non_finite(max: usize) -> impl Strategy<Value = Vec<[f64; 2]>> {
    proptest::collection::vec((coordinate(), coordinate()).prop_map(|(a, b)| [a, b]), 1..max)
}

fn check_queries(points: &[[f64; 2]], eps: f64, k: usize) {
    let tree = KdTree::build(points);
    for (qi, q) in points.iter().enumerate() {
        let mut got = tree.within(q, eps);
        got.sort_unstable();
        let want = brute_within(points, q, eps);
        prop_assert_eq!(&got, &want, "within: query {}", qi);
        for limit in [1, k, want.len() + 1] {
            let mut visited = 0;
            let count = tree.count_within(q, eps, limit, &mut visited);
            let case = format!("count_within: query {qi} limit {limit}");
            prop_assert_eq!(count, want.len().min(limit), "{}", case);
        }
    }
    let fast = KdTree::k_dist(points, k);
    let slow = brute_k_dist(points, k);
    for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
        prop_assert_eq!(f.to_bits(), s.to_bits(), "k_dist k={k} point {i}: tree {f} vs brute {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One axis constant or two-valued, the other quantised.
    #[test]
    fn tied_axis_matches_bruteforce(
        points in tied_axis(160),
        eps in prop_oneof![Just(0.005), Just(0.01), 0.001f64..0.1],
        k in 1usize..9,
    ) {
        check_queries(&points, eps, k);
    }

    /// NaN and infinite coordinates: a NaN distance matches nothing and
    /// never counts as a neighbour, and the rest stays exact.
    #[test]
    fn non_finite_matches_bruteforce(
        points in non_finite(80),
        eps in 0.005f64..0.2,
        k in 1usize..6,
    ) {
        check_queries(&points, eps, k);
    }

    /// All points identical, and fewer points than `k`.
    #[test]
    fn degenerate_sets_match_bruteforce(n in 1usize..12, x in 0.0f64..1.0, k in 1usize..14) {
        let same = vec![[x, 0.25]; n];
        check_queries(&same, 0.01, k);
        let line: Vec<[f64; 2]> = (0..n).map(|i| [x + i as f64 * 0.1, 0.0]).collect();
        check_queries(&line, 0.15, k);
    }
}
