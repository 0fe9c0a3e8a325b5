//! DBSCAN (Ester et al. 1996), the density-based algorithm the
//! computation-burst structure detection of González et al. (IPDPS'09)
//! standardised on.
//!
//! Density-based clustering fits this problem because SPMD phases form
//! dense blobs of arbitrary shape in (duration × instructions) space, and
//! stragglers/perturbed bursts must become *noise*, not their own clusters.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::kdtree::{Claims, KdTree};

/// Cluster assignment of one point.
pub type Label = Option<usize>;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Per-point labels; `None` = noise.
    pub labels: Vec<Label>,
    /// Number of clusters found.
    pub num_clusters: usize,
}

impl DbscanResult {
    /// Indices of the points of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (*l == Some(c)).then_some(i))
            .collect()
    }

    /// Number of noise points.
    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }

    /// Cluster sizes indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters];
        for l in self.labels.iter().flatten() {
            sizes[*l] += 1;
        }
        sizes
    }
}

/// Runs DBSCAN over `points`.
///
/// Labelling contract — a function of the points and parameters alone,
/// independent of any visit order:
///
/// * a point is *core* when at least `min_pts` points (itself included)
///   lie within `eps` of it (`dist² <= eps²`);
/// * clusters are the ε-connected components of the core points, numbered
///   in the order of each component's lowest-index core point;
/// * a non-core point within `eps` of a core point is a *border* point and
///   joins the lowest-numbered cluster with a core point within `eps`;
/// * every other point is noise (`None`).
///
/// The expansion is claim-pruned over the flat kd-tree: each point's core
/// test is a counting query that stops at `min_pts` and runs at most once,
/// and each cluster grows from its core points by claim queries that
/// report only still-unclaimed points and skip fully claimed subtrees. A
/// point is claimed once, so the work queue never exceeds `n` entries and
/// dense clusters, where one ε-ball covers most of the points, are not
/// rescanned per member.
///
/// Counters: `dbscan.range_queries` counts the core tests plus the claim
/// queries; `dbscan.neighbors_scanned` counts the points the core tests
/// found within ε (at most `min_pts` each) plus the points claimed;
/// `dbscan.core_points` counts the core points; `kdtree.nodes_visited`
/// counts the tree nodes both kinds of query visit.
///
/// ```
/// use phasefold_cluster::{dbscan, DbscanParams};
///
/// // Two blobs and one outlier.
/// let mut points: Vec<[f64; 2]> = Vec::new();
/// for i in 0..10 {
///     points.push([0.1 + 0.001 * i as f64, 0.1]);
///     points.push([0.9 + 0.001 * i as f64, 0.9]);
/// }
/// points.push([0.5, -3.0]);
///
/// let result = dbscan(&points, &DbscanParams { eps: 0.05, min_pts: 3 });
/// assert_eq!(result.num_clusters, 2);
/// assert_eq!(result.noise_count(), 1);
/// ```
pub fn dbscan<const D: usize>(points: &[[f64; D]], params: &DbscanParams) -> DbscanResult {
    assert!(params.eps > 0.0, "eps must be positive");
    assert!(params.min_pts >= 1, "min_pts must be >= 1");
    let n = points.len();
    let tree = KdTree::build(points);
    let mut claims = Claims::new(&tree);
    let mut labels: Vec<Label> = vec![None; n];
    // Memoised core status: `None` until the point's one counting query.
    let mut core: Vec<Option<bool>> = vec![None; n];
    let mut num_clusters = 0usize;
    // Claimed points whose neighbourhoods are still to be claimed from.
    let mut queue: Vec<usize> = Vec::new();
    let mut work = Work::default();

    for start in 0..n {
        if labels[start].is_some() || !work.is_core(&tree, points, params, &mut core[start], start)
        {
            continue; // claimed already, or noise unless a cluster claims it later
        }
        let cluster = num_clusters;
        num_clusters += 1;
        claims.claim(start);
        labels[start] = Some(cluster);
        queue.push(start);
        while let Some(p) = queue.pop() {
            if !work.is_core(&tree, points, params, &mut core[p], p) {
                continue; // border point: claimed, never expanded
            }
            let before = queue.len();
            claims.claim_within(&points[p], params.eps, &mut queue, &mut work.nodes_visited);
            for &q in &queue[before..] {
                labels[q] = Some(cluster);
            }
            work.range_queries += 1;
            work.neighbors_scanned += (queue.len() - before) as u64;
        }
    }
    work.emit();
    DbscanResult { labels, num_clusters }
}

/// Kernel work counted locally and emitted once per run.
#[derive(Default)]
struct Work {
    range_queries: u64,
    neighbors_scanned: u64,
    core_points: u64,
    nodes_visited: u64,
}

impl Work {
    /// Core status of point `p`, from `memo` or its one counting query.
    fn is_core<const D: usize>(
        &mut self,
        tree: &KdTree<D>,
        points: &[[f64; D]],
        params: &DbscanParams,
        memo: &mut Option<bool>,
        p: usize,
    ) -> bool {
        *memo.get_or_insert_with(|| {
            let found =
                tree.count_within(&points[p], params.eps, params.min_pts, &mut self.nodes_visited);
            self.range_queries += 1;
            self.neighbors_scanned += found as u64;
            let core = found >= params.min_pts;
            self.core_points += u64::from(core);
            core
        })
    }

    fn emit(&self) {
        phasefold_obs::counter!("dbscan.range_queries", self.range_queries);
        phasefold_obs::counter!("dbscan.neighbors_scanned", self.neighbors_scanned);
        phasefold_obs::counter!("dbscan.core_points", self.core_points);
        phasefold_obs::counter!("kdtree.nodes_visited", self.nodes_visited);
    }
}

/// Heuristic ε from the k-dist curve: the paper's tool-chain picks ε near
/// the knee of the sorted k-dist plot; we use a high quantile, which lands
/// on the flat part just before the knee for blob-structured data.
pub fn suggest_eps<const D: usize>(points: &[[f64; D]], min_pts: usize, quantile: f64) -> f64 {
    if points.len() < 2 {
        return 1.0;
    }
    let mut kd = KdTree::<D>::k_dist(points, min_pts.max(1));
    kd.retain(|d| d.is_finite());
    if kd.is_empty() {
        return 1.0;
    }
    kd.sort_by(|a, b| a.total_cmp(b));
    let pos = ((kd.len() - 1) as f64 * quantile.clamp(0.0, 1.0)) as usize;
    (kd[pos] * 1.05).max(1e-12)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Two well-separated blobs plus an outlier.
    fn blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..30 {
            let dx = ((i * 13) % 17) as f64 / 170.0;
            let dy = ((i * 7) % 19) as f64 / 190.0;
            pts.push([0.1 + dx, 0.1 + dy]);
            pts.push([0.8 + dx, 0.8 + dy]);
        }
        pts.push([0.5, -0.9]); // outlier
        pts
    }

    #[test]
    fn finds_two_blobs_and_noise() {
        let pts = blobs();
        let res = dbscan(&pts, &DbscanParams { eps: 0.12, min_pts: 4 });
        assert_eq!(res.num_clusters, 2);
        assert_eq!(res.noise_count(), 1);
        assert!(res.labels.last().unwrap().is_none());
        // All blob-1 points share a label distinct from blob-2's.
        let l0 = res.labels[0].unwrap();
        let l1 = res.labels[1].unwrap();
        assert_ne!(l0, l1);
        for i in (0..60).step_by(2) {
            assert_eq!(res.labels[i], Some(l0));
            assert_eq!(res.labels[i + 1], Some(l1));
        }
    }

    #[test]
    fn everything_noise_with_tiny_eps() {
        let pts = blobs();
        let res = dbscan(&pts, &DbscanParams { eps: 1e-6, min_pts: 3 });
        assert_eq!(res.num_clusters, 0);
        assert_eq!(res.noise_count(), pts.len());
    }

    #[test]
    fn one_cluster_with_huge_eps() {
        let pts = blobs();
        let res = dbscan(&pts, &DbscanParams { eps: 10.0, min_pts: 3 });
        assert_eq!(res.num_clusters, 1);
        assert_eq!(res.noise_count(), 0);
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        let pts = vec![[0.0, 0.0], [5.0, 5.0]];
        let res = dbscan(&pts, &DbscanParams { eps: 0.1, min_pts: 1 });
        assert_eq!(res.num_clusters, 2);
        assert_eq!(res.noise_count(), 0);
    }

    #[test]
    fn labels_are_dense_from_zero() {
        let pts = blobs();
        let res = dbscan(&pts, &DbscanParams { eps: 0.12, min_pts: 4 });
        let mut seen: Vec<usize> = res.labels.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..res.num_clusters).collect::<Vec<_>>());
    }

    #[test]
    fn members_and_sizes_agree() {
        let pts = blobs();
        let res = dbscan(&pts, &DbscanParams { eps: 0.12, min_pts: 4 });
        let sizes = res.sizes();
        for c in 0..res.num_clusters {
            assert_eq!(res.members(c).len(), sizes[c]);
        }
        assert_eq!(
            sizes.iter().sum::<usize>() + res.noise_count(),
            pts.len()
        );
    }

    #[test]
    fn suggested_eps_separates_blobs() {
        let pts = blobs();
        let eps = suggest_eps(&pts, 4, 0.9);
        // The suggestion must be big enough to join blob members and small
        // enough not to bridge the blobs (centres ~1.0 apart).
        assert!(eps > 0.01 && eps < 0.7, "eps = {eps}");
        let res = dbscan(&pts, &DbscanParams { eps, min_pts: 4 });
        assert_eq!(res.num_clusters, 2);
    }

    #[test]
    fn empty_input() {
        let res = dbscan::<2>(&[], &DbscanParams { eps: 0.1, min_pts: 2 });
        assert_eq!(res.num_clusters, 0);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn deterministic() {
        let pts = blobs();
        let p = DbscanParams { eps: 0.12, min_pts: 4 };
        assert_eq!(dbscan(&pts, &p), dbscan(&pts, &p));
    }
}
