//! Exact-label equivalence: the claim-pruned `dbscan` against a test-local
//! copy of the classic flood fill (one full range query per visited point,
//! every core point re-pushing its whole neighbourhood). Both must produce
//! the same `labels` vector and the same `num_clusters`, not merely the
//! same partition up to renaming.

use proptest::prelude::*;

use phasefold_cluster::{dbscan, DbscanParams, DbscanResult, KdTree, Label};

/// The classic DBSCAN flood fill over full ε-neighbourhoods.
fn classic_flood_fill(points: &[[f64; 2]], params: &DbscanParams) -> DbscanResult {
    let n = points.len();
    let tree = KdTree::build(points);
    let mut labels: Vec<Label> = vec![None; n];
    let mut visited = vec![false; n];
    let mut num_clusters = 0usize;
    let mut neighbours: Vec<usize> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        tree.within_into(&points[start], params.eps, &mut neighbours);
        if neighbours.len() < params.min_pts {
            continue;
        }
        let cluster = num_clusters;
        num_clusters += 1;
        labels[start] = Some(cluster);
        queue.clear();
        queue.extend_from_slice(&neighbours);
        while let Some(p) = queue.pop() {
            if labels[p].is_none() {
                labels[p] = Some(cluster);
            } else if labels[p] != Some(cluster) {
                continue;
            }
            if visited[p] {
                continue;
            }
            visited[p] = true;
            tree.within_into(&points[p], params.eps, &mut neighbours);
            if neighbours.len() >= params.min_pts {
                for &q in &neighbours {
                    if !visited[q] || labels[q].is_none() {
                        queue.push(q);
                    }
                }
            }
        }
    }
    DbscanResult { labels, num_clusters }
}

fn assert_same(points: &[[f64; 2]], eps: f64, min_pts: usize) {
    let params = DbscanParams { eps, min_pts };
    let fast = dbscan(points, &params);
    let slow = classic_flood_fill(points, &params);
    let case = format!("n={} eps={eps} min_pts={min_pts}", points.len());
    prop_assert_eq!(fast.num_clusters, slow.num_clusters, "{}", case);
    prop_assert_eq!(fast.labels, slow.labels, "{}", case);
}

/// Points on a coarse grid: many exact duplicates and ties on every
/// splitting plane.
fn quantised(step: f64, cells: u32, max: usize) -> impl Strategy<Value = Vec<[f64; 2]>> {
    proptest::collection::vec(
        (0..cells, 0..cells).prop_map(move |(a, b)| [f64::from(a) * step, f64::from(b) * step]),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary points in the unit square.
    #[test]
    fn arbitrary_points(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| [a, b]), 1..160),
        eps in 0.01f64..0.4,
        min_pts in 1usize..9,
    ) {
        assert_same(&points, eps, min_pts);
    }

    /// Dense sets: every point within one ε of every other, so a single
    /// range query covers the whole input.
    #[test]
    fn dense_single_ball(
        points in proptest::collection::vec((0.0f64..0.007, 0.0f64..0.007).prop_map(|(a, b)| [0.5 + a, 0.5 + b]), 1..300),
        min_pts in 1usize..9,
    ) {
        assert_same(&points, 0.02, min_pts);
    }

    /// Many exact duplicates on a coarse grid, ε around the grid step.
    #[test]
    fn duplicate_heavy(
        points in quantised(0.01, 6, 200),
        eps in prop_oneof![Just(0.01), Just(0.015), Just(0.02), 0.005f64..0.05],
        min_pts in 1usize..9,
    ) {
        assert_same(&points, eps, min_pts);
    }

    /// The production shape: a few tight, quantised, duplicate-heavy blobs
    /// plus scattered stragglers at ε = 0.02.
    #[test]
    fn quantised_blobs(
        centres in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..4),
        offsets in proptest::collection::vec((0u32..4, 0u32..4, 0usize..3), 10..400),
        stragglers in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| [a, b]), 0..20),
        min_pts in 1usize..9,
    ) {
        let mut points: Vec<[f64; 2]> = offsets
            .iter()
            .map(|&(dx, dy, c)| {
                let (cx, cy) = centres[c % centres.len()];
                [cx + f64::from(dx) * 0.004, cy + f64::from(dy) * 0.004]
            })
            .collect();
        points.extend(stragglers);
        assert_same(&points, 0.02, min_pts);
    }
}
