//! A k-d tree over fixed-dimension points, supporting ε-range queries,
//! DBSCAN's early-exit core counts and claim queries (`Claims`), and
//! the k-NN distances behind the ε heuristic. Built once over all points
//! (median split on each subtree's widest axis), queried many times; no
//! external dependencies.
//!
//! The tree is stored as one flat, left-balanced array of nodes: the
//! subtree over `lo..hi` has its root at `(lo + hi) / 2`, children in the
//! two halves. No child pointers exist — the index arithmetic *is* the
//! structure — so a node is exactly its point, the original index and the
//! axis it splits on, packed contiguously. Each subtree splits on the axis
//! along which its points spread widest: burst features often tie on one
//! axis (every burst of an SPMD phase retires the same instruction count),
//! and a split on a tied axis separates nothing. Range and k-NN queries
//! walk the array iteratively with a small explicit stack; no recursion,
//! no per-query allocation (callers can reuse result buffers via
//! [`KdTree::within_into`]). A k-NN frame carries a lower bound on the
//! squared distance to its subtree and is checked against the current
//! k-th distance again when it is popped, since the neighbour set may have
//! filled since it was pushed.
//!
//! Non-finite coordinates keep every query exact. A NaN offset from a
//! splitting plane orders nothing, so the walk searches both halves; a NaN
//! distance matches no `dist² <= eps²` test and never enters a k-NN list.
//! [`KdTree::k_dist`] therefore gives each point the k-th smallest non-NaN
//! distance to another point, or +∞ when there are fewer than `k`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// One node of the flat tree: the point, the index it had in the build
/// input, and the axis its subtree splits on. `u32` and `u8` share the
/// padding after the point, so the node stays at 3 machine words for
/// `D = 2` — the burst sets this crate clusters never approach 4 G points.
#[derive(Debug, Clone, Copy)]
struct KdNode<const D: usize> {
    point: [f64; D],
    original: u32,
    /// Split axis of the subtree this node roots; unused at a leaf.
    axis: u8,
}

/// How a range walk goes on after visiting a node.
enum Step {
    /// Go on into the node's children.
    Descend,
    /// Skip the node's whole subtree; the node does not count as visited.
    Prune,
    /// End the walk.
    Stop,
}

/// Upper bound on the traversal stack. Each level of the median-balanced
/// tree contributes at most two frames, and `u32` originals cap the depth
/// at 32 levels, so 128 frames can never overflow.
const MAX_STACK: usize = 128;

/// A k-d tree over `D`-dimensional points.
#[derive(Debug, Clone)]
pub struct KdTree<const D: usize> {
    /// Left-balanced implicit tree: root of `lo..hi` at `(lo + hi) / 2`.
    nodes: Vec<KdNode<D>>,
}

impl<const D: usize> KdTree<D> {
    /// Builds a balanced tree (median splits on each subtree's widest
    /// axis) over `points`.
    pub fn build(points: &[[f64; D]]) -> KdTree<D> {
        assert!(points.len() <= u32::MAX as usize, "point count exceeds u32 index space");
        assert!(D <= usize::from(u8::MAX), "dimension exceeds u8 axis space");
        let mut nodes: Vec<KdNode<D>> = points
            .iter()
            .enumerate()
            .map(|(i, &point)| KdNode { point, original: i as u32, axis: 0 })
            .collect();
        build_in_place(&mut nodes);
        KdTree { nodes }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Original indices of all points within Euclidean distance `eps` of
    /// `query` (inclusive). Includes the query point itself if present.
    pub fn within(&self, query: &[f64; D], eps: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(query, eps, &mut out);
        out
    }

    /// [`KdTree::within`] writing into a caller-owned buffer (cleared
    /// first), so repeated queries never allocate.
    pub fn within_into(&self, query: &[f64; D], eps: f64, out: &mut Vec<usize>) {
        out.clear();
        let visited = self.walk(query, eps, |mid, within| {
            if within {
                out.push(self.nodes[mid].original as usize);
            }
            Step::Descend
        });
        phasefold_obs::counter!("kdtree.nodes_visited", visited);
    }

    /// Number of points within `eps` of `query`, counting only up to
    /// `limit`: the walk stops at the `limit`-th hit. Same inclusive
    /// `dist2 <= eps²` predicate and near-side-first traversal as
    /// [`KdTree::within_into`], so `count_within(q, eps, m) >= m` exactly
    /// when `within(q, eps).len() >= m` — DBSCAN's core test without the
    /// full neighbourhood. Adds the nodes it visits to `visited`.
    pub fn count_within(
        &self,
        query: &[f64; D],
        eps: f64,
        limit: usize,
        visited: &mut u64,
    ) -> usize {
        let mut found = 0usize;
        if limit == 0 {
            return found;
        }
        *visited += self.walk(query, eps, |_, within| {
            found += usize::from(within);
            if found == limit {
                Step::Stop
            } else {
                Step::Descend
            }
        });
        found
    }

    /// The ε-range walk behind every range query: depth first, near half
    /// before far half, and the far half only when its splitting plane is
    /// within `eps` (squared compare — no sqrt) or the offset from it is
    /// NaN, which rules nothing out. `visit` sees each node
    /// reached, with whether its point lies within `eps` (inclusive), and
    /// steers the walk. Returns the number of nodes visited, not counting
    /// those answered with [`Step::Prune`].
    fn walk(&self, query: &[f64; D], eps: f64, mut visit: impl FnMut(usize, bool) -> Step) -> u64 {
        let mut visited = 0u64;
        if self.nodes.is_empty() {
            return visited;
        }
        let eps2 = eps * eps;
        let mut stack = [(0usize, 0usize); MAX_STACK];
        stack[0] = (0, self.nodes.len());
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (lo, hi) = stack[top];
            let mid = lo + (hi - lo) / 2;
            let node = &self.nodes[mid];
            match visit(mid, dist2(&node.point, query) <= eps2) {
                Step::Prune => continue,
                Step::Stop => return visited + 1,
                Step::Descend => visited += 1,
            }
            let (near, far, delta) = halves(query, node, lo, mid, hi);
            debug_assert!(top + 2 <= MAX_STACK);
            if far.0 < far.1 && (delta * delta <= eps2 || delta.is_nan()) {
                stack[top] = far;
                top += 1;
            }
            // Pushed last, popped first: preserves the recursive
            // near-side-first visit order.
            if near.0 < near.1 {
                stack[top] = near;
                top += 1;
            }
        }
        visited
    }

    /// Distance to the k-th nearest *other* point for every point (the
    /// "k-dist" curve used to pick DBSCAN's ε). Runs exact bounded k-NN
    /// queries against the tree — O(n log n) on blob-structured data where
    /// the old all-pairs scan was O(n² log n) — and returns exactly the
    /// values the brute force would: the k-th smallest distance is a
    /// multiset statistic, indifferent to tie order. NaN distances do not
    /// count; a point with fewer than `k` others at a non-NaN distance
    /// gets +∞.
    pub fn k_dist(points: &[[f64; D]], k: usize) -> Vec<f64> {
        let n = points.len();
        let k = k.max(1);
        let tree = KdTree::build(points);
        let mut out = Vec::with_capacity(n);
        let mut best: Vec<f64> = Vec::with_capacity(k);
        for (i, p) in points.iter().enumerate() {
            tree.knn_excluding(i, p, k, &mut best);
            out.push(if best.len() == k { best[k - 1].sqrt() } else { f64::INFINITY });
        }
        out
    }

    /// Exact k-nearest-neighbour squared distances from `query`, skipping
    /// the point whose original index is `skip` and every NaN distance.
    /// `best` (reused across calls) ends sorted ascending with at most `k`
    /// entries.
    fn knn_excluding(&self, skip: usize, query: &[f64; D], k: usize, best: &mut Vec<f64>) {
        best.clear();
        if self.nodes.is_empty() {
            return;
        }
        let mut visited = 0u64;
        // Each frame: a subtree `lo..hi` and a lower bound on the squared
        // distance from `query` to any of its points.
        let mut stack = [(0usize, 0usize, 0.0f64); MAX_STACK];
        stack[0] = (0, self.nodes.len(), 0.0);
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (lo, hi, bound) = stack[top];
            // Replacing the k-th needs `d2 < best[k - 1]`, and no point of
            // the subtree is nearer than `bound`: once that bound reaches
            // the k-th distance, the subtree holds nothing that could win.
            // The set may have filled since the frame was pushed, so the
            // push-time test is made again here.
            if best.len() == k && bound >= best[k - 1] {
                continue;
            }
            let mid = lo + (hi - lo) / 2;
            let node = &self.nodes[mid];
            visited += 1;
            if node.original as usize != skip {
                let d2 = dist2(&node.point, query);
                if best.len() < k {
                    if !d2.is_nan() {
                        let pos = best.partition_point(|&b| b <= d2);
                        best.insert(pos, d2);
                    }
                } else if d2 < best[k - 1] {
                    best.pop();
                    let pos = best.partition_point(|&b| b <= d2);
                    best.insert(pos, d2);
                }
            }
            let (near, far, delta) = halves(query, node, lo, mid, hi);
            // Every far point is at least `delta²` away as well as at least
            // `bound`. A plane at exactly the k-th distance holds nothing
            // that could win, so the strict test stays exact and spares the
            // visits that ties on the plane (exact duplicate points) would
            // force. `f64::max` ignores a NaN offset: the far half then
            // keeps the frame's bound and is searched like the near half.
            let far_bound = bound.max(delta * delta);
            debug_assert!(top + 2 <= MAX_STACK);
            if far.0 < far.1 && (best.len() < k || far_bound < best[k - 1]) {
                stack[top] = (far.0, far.1, far_bound);
                top += 1;
            }
            if near.0 < near.1 {
                stack[top] = (near.0, near.1, bound);
                top += 1;
            }
        }
        phasefold_obs::counter!("kdtree.nodes_visited", visited);
    }
}

/// Claim state over a [`KdTree`] for DBSCAN's expansion. Every point
/// starts unclaimed and is claimed at most once. `live` counts the
/// unclaimed points of each subtree, indexed like the nodes (the subtree
/// over `lo..hi` by its root `(lo + hi) / 2`), so a claim query skips any
/// subtree with nothing left to claim instead of rescanning it.
pub(crate) struct Claims<'t, const D: usize> {
    tree: &'t KdTree<D>,
    /// Unclaimed points in the subtree rooted at each node.
    live: Vec<u32>,
    /// Is the node's own point still unclaimed?
    free: Vec<bool>,
    /// Node index of each original point index.
    position: Vec<u32>,
}

impl<'t, const D: usize> Claims<'t, D> {
    /// All points of `tree` unclaimed.
    pub(crate) fn new(tree: &'t KdTree<D>) -> Claims<'t, D> {
        let n = tree.nodes.len();
        let mut live = vec![0u32; n];
        fill_live(&mut live, 0, n);
        let mut position = vec![0u32; n];
        for (pos, node) in tree.nodes.iter().enumerate() {
            position[node.original as usize] = pos as u32;
        }
        Claims { tree, live, free: vec![true; n], position }
    }

    /// Claims the point with original index `original`; false if it was
    /// already claimed.
    pub(crate) fn claim(&mut self, original: usize) -> bool {
        let pos = self.position[original] as usize;
        if !self.free[pos] {
            return false;
        }
        self.take(pos);
        true
    }

    /// Claims every unclaimed point within `eps` of `query`, appending
    /// their original indices to `out`. Same `dist2 <= eps²` predicate and
    /// pruning as [`KdTree::within_into`], plus a skip of every subtree
    /// whose live count is 0: the result is exactly `within(query, eps)`
    /// minus the points already claimed. Adds the nodes it visits to
    /// `visited`.
    pub(crate) fn claim_within(
        &mut self,
        query: &[f64; D],
        eps: f64,
        out: &mut Vec<usize>,
        visited: &mut u64,
    ) {
        let tree = self.tree;
        *visited += tree.walk(query, eps, |mid, within| {
            if self.live[mid] == 0 {
                return Step::Prune;
            }
            if within && self.free[mid] {
                self.take(mid);
                out.push(tree.nodes[mid].original as usize);
            }
            Step::Descend
        });
    }

    /// Marks node `pos` claimed and decrements the live count of every
    /// subtree on the root → `pos` index path.
    fn take(&mut self, pos: usize) {
        self.free[pos] = false;
        let (mut lo, mut hi) = (0, self.live.len());
        loop {
            let mid = lo + (hi - lo) / 2;
            self.live[mid] -= 1;
            match pos.cmp(&mid) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => hi = mid,
                std::cmp::Ordering::Greater => lo = mid + 1,
            }
        }
    }
}

/// Initial live counts: every subtree over `lo..hi` holds `hi - lo`
/// unclaimed points.
fn fill_live(live: &mut [u32], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    live[mid] = (hi - lo) as u32;
    fill_live(live, lo, mid);
    fill_live(live, mid + 1, hi);
}

/// The near and far halves of `node`'s range `lo..hi` (`node` sits at
/// `mid`) as seen from `query`, and `query`'s signed offset from the
/// node's splitting plane. A query on the plane takes the left half as
/// near, a NaN offset the right.
fn halves<const D: usize>(
    query: &[f64; D],
    node: &KdNode<D>,
    lo: usize,
    mid: usize,
    hi: usize,
) -> ((usize, usize), (usize, usize), f64) {
    let axis = usize::from(node.axis);
    let delta = query[axis] - node.point[axis];
    if delta <= 0.0 {
        ((lo, mid), (mid + 1, hi), delta)
    } else {
        ((mid + 1, hi), (lo, mid), delta)
    }
}

/// Recursive in-place build: median-partition the node slice along its
/// widest axis (`select_nth_unstable_by` — O(n) per level, no
/// allocation), record that axis in the median node, then recurse into the
/// halves. Depth is log₂(n): the median split is exact.
fn build_in_place<const D: usize>(nodes: &mut [KdNode<D>]) {
    let n = nodes.len();
    if n <= 1 {
        return;
    }
    let axis = widest_axis(nodes);
    let mid = n / 2;
    nodes.select_nth_unstable_by(mid, |a, b| a.point[axis].total_cmp(&b.point[axis]));
    nodes[mid].axis = axis as u8;
    let (left, rest) = nodes.split_at_mut(mid);
    build_in_place(left);
    build_in_place(&mut rest[1..]);
}

/// The axis along which `nodes` spread widest (max − min; `f64::min` and
/// `f64::max` skip NaN coordinates). Ties and NaN spreads go to the
/// lowest axis.
fn widest_axis<const D: usize>(nodes: &[KdNode<D>]) -> usize {
    let mut lo = [f64::NAN; D];
    let mut hi = [f64::NAN; D];
    for node in nodes {
        for d in 0..D {
            lo[d] = lo[d].min(node.point[d]);
            hi[d] = hi[d].max(node.point[d]);
        }
    }
    let mut axis = 0;
    for d in 1..D {
        if hi[d] - lo[d] > hi[axis] - lo[axis] {
            axis = d;
        }
    }
    axis
}

fn dist2<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut s = 0.0;
    for d in 0..D {
        let diff = a[d] - b[d];
        s += diff * diff;
    }
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn brute_within(points: &[[f64; 2]], q: &[f64; 2], eps: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..points.len())
            .filter(|&i| dist2(&points[i], q).sqrt() <= eps)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_k_dist(points: &[[f64; 2]], k: usize) -> Vec<f64> {
        let n = points.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut dists: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| dist2(&points[i], &points[j]).sqrt())
                .filter(|d| !d.is_nan())
                .collect();
            dists.sort_by(|a, b| a.total_cmp(b));
            out.push(dists.get(k.saturating_sub(1)).copied().unwrap_or(f64::INFINITY));
        }
        out
    }

    fn pseudo_points(n: usize) -> Vec<[f64; 2]> {
        (0..n)
            .map(|i| {
                let a = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
                let b = ((i as u64).wrapping_mul(0x9E3779B9) % 1000) as f64 / 1000.0;
                [a, b]
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let pts = pseudo_points(200);
        let tree = KdTree::build(&pts);
        for (qi, q) in pts.iter().enumerate().step_by(17) {
            for eps in [0.05, 0.2, 0.7] {
                let mut got = tree.within(q, eps);
                got.sort_unstable();
                let want = brute_within(&pts, q, eps);
                assert_eq!(got, want, "query {qi} eps {eps}");
            }
        }
    }

    #[test]
    fn within_into_reuses_buffer() {
        let pts = pseudo_points(100);
        let tree = KdTree::build(&pts);
        let mut buf = vec![999usize; 64]; // stale garbage must be cleared
        tree.within_into(&pts[3], 0.15, &mut buf);
        let mut got = buf.clone();
        got.sort_unstable();
        assert_eq!(got, brute_within(&pts, &pts[3], 0.15));
    }

    #[test]
    fn empty_tree() {
        let tree: KdTree<2> = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert!(tree.within(&[0.0, 0.0], 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let tree = KdTree::build(&[[0.5, 0.5]]);
        assert_eq!(tree.within(&[0.5, 0.5], 0.0), vec![0]);
        assert_eq!(tree.within(&[0.6, 0.5], 0.05), Vec::<usize>::new());
        assert_eq!(tree.within(&[0.6, 0.5], 0.2), vec![0]);
    }

    #[test]
    fn duplicate_points_all_found() {
        let pts = vec![[0.1, 0.1]; 5];
        let tree = KdTree::build(&pts);
        let mut got = tree.within(&[0.1, 0.1], 1e-9);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn three_dimensional_works() {
        let pts: Vec<[f64; 3]> = (0..50)
            .map(|i| [i as f64 * 0.1, (i % 7) as f64, (i % 3) as f64])
            .collect();
        let tree = KdTree::build(&pts);
        let got = tree.within(&pts[10], 1e-9);
        assert_eq!(got, vec![10]);
    }

    #[test]
    fn k_dist_on_uniform_grid() {
        // 1-D embedded grid: nearest neighbour distance is the spacing.
        let pts: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 0.0]).collect();
        let d1 = KdTree::k_dist(&pts, 1);
        assert!(d1.iter().all(|&d| (d - 1.0).abs() < 1e-12));
        let d2 = KdTree::k_dist(&pts, 2);
        // End points' 2nd neighbour is 2 away; interior points' is 1.
        assert!((d2[0] - 2.0).abs() < 1e-12);
        assert!((d2[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_dist_matches_brute_force() {
        let pts = pseudo_points(150);
        for k in [1, 2, 4, 7] {
            let fast = KdTree::k_dist(&pts, k);
            let slow = brute_k_dist(&pts, k);
            assert_eq!(fast.len(), slow.len());
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    f.to_bits() == s.to_bits(),
                    "k = {k} point {i}: tree {f} vs brute {s}"
                );
            }
        }
    }

    #[test]
    fn k_dist_with_duplicates() {
        // Duplicate coordinates: the other copies sit at distance 0 and
        // must count as neighbours, exactly as the brute force counts them.
        let mut pts = vec![[0.25, 0.25]; 4];
        pts.extend(pseudo_points(40));
        for k in [1, 3, 5] {
            let fast = KdTree::k_dist(&pts, k);
            let slow = brute_k_dist(&pts, k);
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn k_dist_with_ties_on_one_coordinate() {
        // More than k points share x = 0.5 (so every split on x ties), and
        // several of them are exact duplicates: the strict far-half prune
        // must still give brute-force k-dists bit for bit.
        let mut pts: Vec<[f64; 2]> = (0..12).map(|i| [0.5, f64::from(i % 5) * 0.01]).collect();
        pts.extend(vec![[0.5, 0.02]; 6]);
        pts.extend(pseudo_points(30));
        for k in [1, 2, 3, 7, 11] {
            let fast = KdTree::k_dist(&pts, k);
            let slow = brute_k_dist(&pts, k);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "k = {k} point {i}: tree {f} vs brute {s}");
            }
        }
    }

    #[test]
    fn count_within_stops_at_limit_and_agrees_with_within() {
        let mut pts = pseudo_points(200);
        pts.extend(vec![[0.3, 0.3]; 9]);
        let tree = KdTree::build(&pts);
        for q in pts.iter().step_by(11) {
            for eps in [0.01, 0.05, 0.2] {
                let all = tree.within(q, eps).len();
                for limit in [1, 3, 8, 1000] {
                    let mut visited = 0;
                    let got = tree.count_within(q, eps, limit, &mut visited);
                    assert_eq!(got, all.min(limit), "eps {eps} limit {limit}");
                    assert!(visited > 0);
                }
            }
        }
    }

    #[test]
    fn claim_within_reports_each_point_once() {
        let mut pts = pseudo_points(300);
        pts.extend(vec![[0.7, 0.2]; 7]);
        let tree = KdTree::build(&pts);
        let mut claims = Claims::new(&tree);
        let mut claimed = vec![false; pts.len()];
        assert!(claims.claim(5));
        assert!(!claims.claim(5), "a point is claimed once");
        claimed[5] = true;
        let mut visited = 0;
        for (qi, q) in pts.iter().enumerate().step_by(3) {
            let mut want: Vec<usize> =
                brute_within(&pts, q, 0.08).into_iter().filter(|&i| !claimed[i]).collect();
            let mut got = Vec::new();
            claims.claim_within(q, 0.08, &mut got, &mut visited);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi}");
            for i in got {
                claimed[i] = true;
            }
        }
        // Once everything is claimed, the root's live count is 0 and a
        // claim query visits nothing.
        for i in 0..pts.len() {
            claims.claim(i);
        }
        let before = visited;
        let mut got = Vec::new();
        claims.claim_within(&pts[0], 10.0, &mut got, &mut visited);
        assert!(got.is_empty());
        assert_eq!(visited, before);
    }

    #[test]
    fn node_stays_three_words() {
        assert_eq!(std::mem::size_of::<KdNode<2>>(), 24);
    }

    #[test]
    fn splits_on_the_widest_axis() {
        // x tied: every split must go to y, so the root is the y median.
        let tied_x: Vec<[f64; 2]> = (0..9).map(|i| [0.5, f64::from(i)]).collect();
        let tree = KdTree::build(&tied_x);
        assert_eq!(tree.nodes[4].axis, 1);
        assert_eq!(tree.nodes[4].point, [0.5, 4.0]);
        // y tied: x, as it is on a tie of the spreads.
        let tied_y: Vec<[f64; 2]> = (0..9).map(|i| [f64::from(i), 0.5]).collect();
        assert_eq!(KdTree::build(&tied_y).nodes[4].axis, 0);
        let square = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]];
        assert_eq!(KdTree::build(&square).nodes[2].axis, 0);
    }

    #[test]
    fn nan_split_point_still_finds_neighbours() {
        // The root splits on a NaN x: the offset from its plane is NaN and
        // must send the walk into both halves.
        let pts = [[1.0, 0.0], [f64::NAN, 0.0], [f64::NAN, 0.0]];
        let tree = KdTree::build(&pts);
        assert_eq!(tree.within(&[1.0, 0.0], 0.1), vec![0]);
        let mut visited = 0;
        assert_eq!(tree.count_within(&[1.0, 0.0], 0.1, 5, &mut visited), 1);
        assert!(tree.within(&[f64::NAN, 0.0], 10.0).is_empty());
    }

    #[test]
    fn k_dist_skips_nan_distances() {
        let nan = f64::NAN;
        let pts = [[1.0, 0.0], [1.0, 0.0], [nan, 0.0], [nan, 0.0], [nan, 0.0]];
        let inf = f64::INFINITY;
        assert_eq!(KdTree::k_dist(&pts, 1), vec![0.0, 0.0, inf, inf, inf]);
        assert_eq!(KdTree::k_dist(&pts, 2), vec![inf; 5]);
    }

    #[test]
    fn k_dist_with_infinite_coordinates() {
        let inf = f64::INFINITY;
        let mut pts = vec![[inf, 0.2], [0.3, -inf], [inf, inf], [f64::NAN, 0.4], [0.3, 0.3]];
        pts.extend(pseudo_points(40));
        for k in [1, 2, 4] {
            let fast = KdTree::k_dist(&pts, k);
            let slow = brute_k_dist(&pts, k);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "k = {k} point {i}: tree {f} vs brute {s}");
            }
        }
    }

    #[test]
    fn k_dist_degenerate() {
        let pts = vec![[0.0, 0.0]];
        assert_eq!(KdTree::k_dist(&pts, 1), vec![f64::INFINITY]);
    }
}
