//! Versioned segment-tree algorithms (the paper's Fig. 3).
//!
//! The metadata of a blob snapshot is a binary tree over the chunk-index
//! space `0..span` (`span` = smallest power of two ≥ chunk count). Leaves
//! carry chunk descriptors; inner nodes carry child links that may point
//! into trees of *earlier snapshots or other blobs*. A write produces new
//! nodes only along the paths to modified leaves (shadowing); everything
//! else is shared. A clone shares the entire tree.
//!
//! The algorithms here are pure: they speak to storage through the
//! [`NodeIo`] trait. Each batched call is one metadata round: the client
//! sends it as a single frame, which the metadata service splits across
//! its hash-partitioned shards server-side — one round per tree level
//! however wide the level, the way BlobSeer parallelizes its distributed
//! segment trees.

use crate::api::{BlobError, BlobResult, ChunkDesc, NodeKey, TreeNode};
use bff_data::{FastMap, FastSet};
use std::ops::Range;

/// Batched metadata node I/O.
pub trait NodeIo {
    /// Fetch the given nodes (one metadata round per call). Missing keys
    /// must yield `BlobError::MetadataMissing`.
    fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>>;
    /// Reserve `n` fresh node keys.
    fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>>;
    /// Persist new nodes (one metadata round per call).
    fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()>;
}

/// Smallest power of two ≥ `chunks` (≥ 1).
pub fn span_for(chunks: u64) -> u64 {
    chunks.max(1).next_power_of_two()
}

/// Walk the tree of `root` and collect the leaf chunk descriptors for
/// chunk indices in `want` (clamped to `0..span`). Indices without a leaf
/// (NULL subtrees) are simply absent from the result — they read as zeros.
///
/// Fetches proceed level by level so that each level costs one metadata
/// round regardless of width.
pub fn collect_leaves(
    io: &mut dyn NodeIo,
    root: NodeKey,
    span: u64,
    want: &Range<u64>,
) -> BlobResult<Vec<(u64, ChunkDesc)>> {
    collect_leaves_multi(io, root, span, std::slice::from_ref(want))
}

/// Multi-range variant of [`collect_leaves`]: one breadth-first descent
/// for the *union* of `wants`, so a read plan of R disjoint runs costs at
/// most `tree depth` metadata rounds total instead of `R × depth`. This is
/// the single-descent planner behind the client's vectored `read_multi`.
///
/// Ordering contract: the result is sorted by chunk index with no
/// duplicates (even if `wants` overlap), and no explicit sort is needed —
/// the frontier is kept in index order (children pushed left before
/// right), and every leaf of a shadowed tree sits at the bottom level
/// (`build_new_tree` splits inner ranges down to single-chunk leaves), so
/// the final level emits leaves left-to-right. A test locks this contract.
pub fn collect_leaves_multi(
    io: &mut dyn NodeIo,
    root: NodeKey,
    span: u64,
    wants: &[Range<u64>],
) -> BlobResult<Vec<(u64, ChunkDesc)>> {
    let mut out = Vec::new();
    // Normalize to sorted, disjoint, non-empty ranges.
    let mut wants: Vec<Range<u64>> = wants.iter().filter(|w| w.start < w.end).cloned().collect();
    wants.sort_by_key(|w| w.start);
    wants.dedup_by(|next, prev| {
        if next.start <= prev.end {
            prev.end = prev.end.max(next.end);
            true
        } else {
            false
        }
    });
    if root.is_null() || wants.is_empty() {
        return Ok(out);
    }
    // Does `range` intersect the want union? `wants` is sorted+disjoint,
    // so only the predecessor-by-start and successor runs can overlap.
    let intersects = |range: &Range<u64>| -> bool {
        let i = wants.partition_point(|w| w.start < range.end);
        i > 0 && wants[i - 1].end > range.start
    };
    // Frontier of (key, node_range), maintained in index order.
    let mut frontier: Vec<(NodeKey, Range<u64>)> = vec![(root, 0..span)];
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
        let nodes = io.fetch(&keys)?;
        let mut next = Vec::new();
        for ((_key, range), node) in frontier.into_iter().zip(nodes) {
            match node {
                TreeNode::Leaf { chunk } => {
                    debug_assert_eq!(range.end - range.start, 1, "leaf must cover one chunk");
                    if intersects(&range) {
                        debug_assert!(
                            out.last().is_none_or(|(i, _)| *i < range.start),
                            "frontier order must yield sorted leaves"
                        );
                        out.push((range.start, chunk));
                    }
                }
                TreeNode::Inner { left, right } => {
                    let mid = range.start + (range.end - range.start) / 2;
                    if !left.is_null() && intersects(&(range.start..mid)) {
                        next.push((left, range.start..mid));
                    }
                    if !right.is_null() && intersects(&(mid..range.end)) {
                        next.push((right, mid..range.end));
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(out)
}

/// The snapshot garbage collector's reachability diff: every leaf node
/// reachable from a root in `dead_roots` and from no root in
/// `live_roots`, as `(leaf key, descriptor)` in ascending key order.
///
/// Chunk-level identity cannot drive deletion — two snapshots can
/// reference one chunk either through a *shared* leaf node
/// (shadowing/CLONE: one provider-side reference between them) or
/// through *distinct* leaves (dedup by reference: one reference each) —
/// but leaf-node identity can: every leaf node holds exactly one
/// reference per replica in its descriptor, so a leaf reachable only
/// from deleted roots releases exactly its own references and never a
/// survivor's.
///
/// Two breadth-first walks, each one [`NodeIo::fetch`] per level
/// however many roots it starts from:
///
/// 1. one frontier over every dead root maps the dead subgraph,
///    fetching each node once;
/// 2. one frontier over every live root. Where a live path enters the
///    dead subgraph, every node below the entry is struck locally with
///    no fetch; elsewhere the walk descends. It stops as soon as no
///    dead leaf remains.
///
/// A collection therefore costs at most `2 × tree depth` rounds,
/// independent of the size of the clone family.
pub fn dead_leaves(
    io: &mut dyn NodeIo,
    dead_roots: &[NodeKey],
    live_roots: &[NodeKey],
) -> BlobResult<Vec<(NodeKey, ChunkDesc)>> {
    // 1. The dead subgraph, each node fetched once.
    let mut dead: FastMap<NodeKey, TreeNode> = FastMap::default();
    let mut queued: FastSet<NodeKey> = FastSet::default();
    let mut frontier: Vec<NodeKey> = dead_roots
        .iter()
        .copied()
        .filter(|k| !k.is_null() && queued.insert(*k))
        .collect();
    while !frontier.is_empty() {
        let nodes = io.fetch(&frontier)?;
        let mut next = Vec::new();
        for (key, node) in frontier.into_iter().zip(nodes) {
            if let TreeNode::Inner { left, right } = node {
                next.extend(
                    [left, right]
                        .into_iter()
                        .filter(|c| !c.is_null() && queued.insert(*c)),
                );
            }
            dead.insert(key, node);
        }
        frontier = next;
    }
    let mut remaining = dead
        .values()
        .filter(|n| matches!(n, TreeNode::Leaf { .. }))
        .count();

    // 2. Strike everything a live root reaches.
    let mut live: FastSet<NodeKey> = FastSet::default();
    let mut frontier: Vec<NodeKey> = live_roots
        .iter()
        .copied()
        .filter(|k| !k.is_null() && live.insert(*k))
        .collect();
    while remaining > 0 && !frontier.is_empty() {
        let mut fetch = Vec::new();
        for key in frontier {
            if dead.contains_key(&key) {
                strike(&mut dead, &mut live, key, &mut remaining);
            } else {
                fetch.push(key);
            }
        }
        if remaining == 0 || fetch.is_empty() {
            break;
        }
        let nodes = io.fetch(&fetch)?;
        frontier = Vec::new();
        for node in nodes {
            if let TreeNode::Inner { left, right } = node {
                frontier.extend(
                    [left, right]
                        .into_iter()
                        .filter(|c| !c.is_null() && live.insert(*c)),
                );
            }
        }
    }

    let mut out: Vec<(NodeKey, ChunkDesc)> = dead
        .into_iter()
        .filter_map(|(key, node)| match node {
            TreeNode::Leaf { chunk } => Some((key, chunk)),
            TreeNode::Inner { .. } => None,
        })
        .collect();
    out.sort_unstable_by_key(|&(key, _)| key);
    Ok(out)
}

/// Remove `entry` and the whole dead subgraph below it from `dead`
/// (a live path reaches all of it), marking each node live.
fn strike(
    dead: &mut FastMap<NodeKey, TreeNode>,
    live: &mut FastSet<NodeKey>,
    entry: NodeKey,
    remaining: &mut usize,
) {
    let mut stack = vec![entry];
    while let Some(key) = stack.pop() {
        let Some(node) = dead.remove(&key) else {
            continue;
        };
        live.insert(key);
        match node {
            TreeNode::Leaf { .. } => *remaining -= 1,
            TreeNode::Inner { left, right } => {
                stack.extend([left, right].into_iter().filter(|c| !c.is_null()))
            }
        }
    }
}

/// Build the tree for a new snapshot that applies `updates` (chunk index →
/// descriptor) on top of the tree rooted at `old_root`. Returns the new
/// root. Only nodes on paths to updated leaves are created; all other
/// subtrees are shared with the old tree by reference (shadowing).
pub fn build_new_tree(
    io: &mut dyn NodeIo,
    old_root: NodeKey,
    span: u64,
    updates: &FastMap<u64, ChunkDesc>,
) -> BlobResult<NodeKey> {
    if updates.is_empty() {
        return Ok(old_root);
    }
    debug_assert!(updates.keys().all(|&i| i < span), "update beyond span");

    // Phase 1: fetch the old nodes on paths to updated leaves, level by
    // level, into a local cache.
    let mut cache: FastMap<NodeKey, TreeNode> = FastMap::default();
    if !old_root.is_null() {
        let mut frontier: Vec<(NodeKey, Range<u64>)> = vec![(old_root, 0..span)];
        while !frontier.is_empty() {
            let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
            let nodes = io.fetch(&keys)?;
            let mut next = Vec::new();
            for ((key, range), node) in frontier.into_iter().zip(nodes) {
                cache.insert(key, node.clone());
                if let TreeNode::Inner { left, right } = node {
                    let mid = range.start + (range.end - range.start) / 2;
                    if !left.is_null() && touches(updates, &(range.start..mid)) {
                        next.push((left, range.start..mid));
                    }
                    if !right.is_null() && touches(updates, &(mid..range.end)) {
                        next.push((right, mid..range.end));
                    }
                }
            }
            frontier = next;
        }
    }

    // Phase 2: count the nodes we will create so one reservation covers
    // them, then build bottom-up locally.
    let new_count = count_new_nodes(&cache, old_root, 0..span, updates);
    let mut keys = io.reserve(new_count)?;
    let mut created: Vec<(NodeKey, TreeNode)> = Vec::with_capacity(new_count as usize);
    let root = build_rec(&cache, old_root, 0..span, updates, &mut keys, &mut created)?;
    debug_assert_eq!(created.len() as u64, new_count);

    // Phase 3: persist the new nodes, then hand back the root.
    io.store(created)?;
    Ok(root)
}

fn touches(updates: &FastMap<u64, ChunkDesc>, range: &Range<u64>) -> bool {
    // Updates are sparse relative to spans only for huge trees; for the
    // commit sizes in play a direct scan of the smaller side is fine.
    if (range.end - range.start) < updates.len() as u64 {
        (range.start..range.end).any(|i| updates.contains_key(&i))
    } else {
        updates.keys().any(|i| range.contains(i))
    }
}

fn count_new_nodes(
    cache: &FastMap<NodeKey, TreeNode>,
    old: NodeKey,
    range: Range<u64>,
    updates: &FastMap<u64, ChunkDesc>,
) -> u64 {
    if !touches(updates, &range) {
        return 0;
    }
    if range.end - range.start == 1 {
        return 1;
    }
    let mid = range.start + (range.end - range.start) / 2;
    let (ol, or) = match (!old.is_null()).then(|| cache.get(&old)).flatten() {
        Some(TreeNode::Inner { left, right }) => (*left, *right),
        _ => (NodeKey::NULL, NodeKey::NULL),
    };
    1 + count_new_nodes(cache, ol, range.start..mid, updates)
        + count_new_nodes(cache, or, mid..range.end, updates)
}

fn build_rec(
    cache: &FastMap<NodeKey, TreeNode>,
    old: NodeKey,
    range: Range<u64>,
    updates: &FastMap<u64, ChunkDesc>,
    keys: &mut Range<u64>,
    created: &mut Vec<(NodeKey, TreeNode)>,
) -> BlobResult<NodeKey> {
    if !touches(updates, &range) {
        // Untouched subtree: share the old one (possibly NULL).
        return Ok(old);
    }
    let key = NodeKey(keys.next().expect("key reservation exhausted"));
    if range.end - range.start == 1 {
        let chunk = updates
            .get(&range.start)
            .expect("touched leaf has update")
            .clone();
        created.push((key, TreeNode::Leaf { chunk }));
        return Ok(key);
    }
    let mid = range.start + (range.end - range.start) / 2;
    let (ol, or) = match (!old.is_null()).then(|| cache.get(&old)).flatten() {
        Some(TreeNode::Inner { left, right }) => (*left, *right),
        Some(TreeNode::Leaf { .. }) => {
            return Err(BlobError::MetadataMissing(old));
        }
        None if !old.is_null() => return Err(BlobError::MetadataMissing(old)),
        None => (NodeKey::NULL, NodeKey::NULL),
    };
    let left = build_rec(cache, ol, range.start..mid, updates, keys, created)?;
    let right = build_rec(cache, or, mid..range.end, updates, keys, created)?;
    created.push((key, TreeNode::Inner { left, right }));
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChunkId;
    use bff_net::NodeId;

    /// In-memory NodeIo that also counts rounds (for batching assertions).
    #[derive(Default)]
    struct MemIo {
        nodes: FastMap<NodeKey, TreeNode>,
        next: u64,
        fetch_rounds: usize,
        stored: usize,
    }

    impl MemIo {
        fn new() -> Self {
            Self {
                next: 1,
                ..Default::default()
            }
        }
    }

    impl NodeIo for MemIo {
        fn fetch(&mut self, keys: &[NodeKey]) -> BlobResult<Vec<TreeNode>> {
            self.fetch_rounds += 1;
            keys.iter()
                .map(|k| {
                    self.nodes
                        .get(k)
                        .cloned()
                        .ok_or(BlobError::MetadataMissing(*k))
                })
                .collect()
        }
        fn reserve(&mut self, n: u64) -> BlobResult<Range<u64>> {
            let start = self.next;
            self.next += n;
            Ok(start..self.next)
        }
        fn store(&mut self, nodes: Vec<(NodeKey, TreeNode)>) -> BlobResult<()> {
            self.stored += nodes.len();
            for (k, n) in nodes {
                assert!(self.nodes.insert(k, n).is_none(), "node keys are immutable");
            }
            Ok(())
        }
    }

    fn desc(i: u64) -> ChunkDesc {
        ChunkDesc {
            id: ChunkId(1000 + i),
            replicas: [NodeId((i % 4) as u32)].into(),
        }
    }

    fn updates(idx: &[u64]) -> FastMap<u64, ChunkDesc> {
        idx.iter().map(|&i| (i, desc(i))).collect()
    }

    #[test]
    fn span_is_next_pow2() {
        assert_eq!(span_for(0), 1);
        assert_eq!(span_for(1), 1);
        assert_eq!(span_for(5), 8);
        assert_eq!(span_for(8), 8);
        assert_eq!(span_for(8192), 8192);
    }

    #[test]
    fn empty_tree_reads_empty() {
        let mut io = MemIo::new();
        let leaves = collect_leaves(&mut io, NodeKey::NULL, 8, &(0..8)).unwrap();
        assert!(leaves.is_empty());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 7])).unwrap();
        let leaves = collect_leaves(&mut io, root, 8, &(0..8)).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 3, 7]);
        assert_eq!(leaves[1].1, desc(3));
        // Partial range.
        let leaves = collect_leaves(&mut io, root, 8, &(1..4)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].0, 3);
    }

    #[test]
    fn shadowing_shares_unmodified_subtrees() {
        // Fig. 3(c): writing chunk C4' to a 4-chunk blob creates exactly
        // the path to leaf 3: leaf + 1 inner + root = 3 nodes; the (0,2)
        // subtree is shared.
        let mut io = MemIo::new();
        let v1 = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[0, 1, 2, 3])).unwrap();
        let before = io.stored;
        assert_eq!(before, 4 + 2 + 1, "full tree of span 4");
        let v2 = build_new_tree(&mut io, v1, 4, &updates(&[3])).unwrap();
        assert_eq!(io.stored - before, 3, "path copy only");
        // v2 sees the update; v1 is untouched.
        let l2 = collect_leaves(&mut io, v2, 4, &(0..4)).unwrap();
        assert_eq!(l2.len(), 4);
        let l1 = collect_leaves(&mut io, v1, 4, &(3..4)).unwrap();
        assert_eq!(l1[0].1, desc(3));
        // And the shared left subtree is literally the same node keys:
        let (TreeNode::Inner { left: left1, .. }, TreeNode::Inner { left: left2, .. }) =
            (io.nodes[&v1].clone(), io.nodes[&v2].clone())
        else {
            panic!("roots must be inner nodes")
        };
        assert_eq!(left1, left2, "unmodified subtree shared between snapshots");
    }

    #[test]
    fn old_versions_are_immutable() {
        let mut io = MemIo::new();
        let v1 = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[2])).unwrap();
        let snapshot_before: FastMap<NodeKey, TreeNode> = io.nodes.clone();
        let _v2 = build_new_tree(&mut io, v1, 8, &updates(&[2, 5])).unwrap();
        // Every node that existed before still exists, unmodified.
        for (k, n) in snapshot_before {
            assert_eq!(io.nodes.get(&k), Some(&n));
        }
    }

    #[test]
    fn cloning_by_sharing_root_then_diverging() {
        // CLONE is metadata-free in this representation: blob B's v1 root
        // *is* blob A's root. Writing to B must not disturb A.
        let mut io = MemIo::new();
        let a_root = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[0, 1, 2, 3])).unwrap();
        let b_root = a_root; // CLONE
        let mut up = FastMap::default();
        up.insert(
            1u64,
            ChunkDesc {
                id: ChunkId(777),
                replicas: [NodeId(9)].into(),
            },
        );
        let b2 = build_new_tree(&mut io, b_root, 4, &up).unwrap();
        let a_leaves = collect_leaves(&mut io, a_root, 4, &(0..4)).unwrap();
        assert_eq!(
            a_leaves[1].1,
            desc(1),
            "origin unchanged after clone diverges"
        );
        let b_leaves = collect_leaves(&mut io, b2, 4, &(0..4)).unwrap();
        assert_eq!(b_leaves[1].1.id, ChunkId(777));
        assert_eq!(b_leaves[0].1, desc(0), "clone shares original content");
    }

    #[test]
    fn fetch_rounds_are_per_level() {
        let mut io = MemIo::new();
        let all: Vec<u64> = (0..16).collect();
        let root = build_new_tree(&mut io, NodeKey::NULL, 16, &updates(&all)).unwrap();
        io.fetch_rounds = 0;
        let _ = collect_leaves(&mut io, root, 16, &(0..16)).unwrap();
        // Depth of a span-16 tree is log2(16)+1 = 5 levels.
        assert_eq!(io.fetch_rounds, 5);
    }

    #[test]
    fn multi_range_descent_costs_one_round_per_level() {
        // A plan of R disjoint runs must cost at most tree-depth rounds
        // total, not R × depth: the union descends in one BFS.
        let span = 64u64;
        let mut io = MemIo::new();
        let all: Vec<u64> = (0..span).collect();
        let root = build_new_tree(&mut io, NodeKey::NULL, span, &updates(&all)).unwrap();
        let runs: Vec<Range<u64>> = vec![2..5, 9..10, 17..23, 40..41, 60..64];
        io.fetch_rounds = 0;
        let leaves = collect_leaves_multi(&mut io, root, span, &runs).unwrap();
        let depth = span.ilog2() as usize + 1;
        assert!(
            io.fetch_rounds <= depth,
            "{} rounds for {} runs exceeds depth {}",
            io.fetch_rounds,
            runs.len(),
            depth
        );
        // Same leaves as per-run descents, in index order.
        let mut expect = Vec::new();
        for r in &runs {
            expect.extend(collect_leaves(&mut io, root, span, r).unwrap());
        }
        assert_eq!(leaves, expect);
    }

    #[test]
    fn multi_range_overlaps_dedup_and_clamp() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 5, 7])).unwrap();
        // Overlapping + adjacent + empty input ranges collapse cleanly.
        let leaves = collect_leaves_multi(&mut io, root, 8, &[4..6, 2..5, 6..6, 5..8]).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![3, 5, 7]);
        // Empty plan costs nothing.
        io.fetch_rounds = 0;
        assert!(collect_leaves_multi(&mut io, root, 8, &[])
            .unwrap()
            .is_empty());
        assert!(
            collect_leaves_multi(&mut io, root, 8, std::slice::from_ref(&(3..3)))
                .unwrap()
                .is_empty()
        );
        assert_eq!(io.fetch_rounds, 0);
    }

    #[test]
    fn leaves_emerge_in_index_order_without_sorting() {
        // The ordering contract `collect_leaves_multi` documents: BFS with
        // left-before-right children yields sorted leaves because every
        // leaf sits at the bottom level. Locked here so a future layout
        // change (e.g. variable-depth leaves) must revisit the contract.
        let mut io = MemIo::new();
        let sparse: Vec<u64> = vec![1, 2, 6, 9, 300, 301, 500, 1023];
        let root = build_new_tree(&mut io, NodeKey::NULL, 1024, &updates(&sparse)).unwrap();
        let leaves = collect_leaves(&mut io, root, 1024, &(0..1024)).unwrap();
        let idx: Vec<u64> = leaves.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, sparse, "leaves must arrive sorted and complete");
    }

    /// Every leaf node reachable from `roots`, by brute-force DFS over
    /// the stored nodes (no `NodeIo`, no rounds).
    fn reachable_leaves(io: &MemIo, roots: &[NodeKey]) -> FastMap<NodeKey, ChunkDesc> {
        let mut out = FastMap::default();
        let mut stack: Vec<NodeKey> = roots.to_vec();
        while let Some(key) = stack.pop() {
            if key.is_null() {
                continue;
            }
            match &io.nodes[&key] {
                TreeNode::Leaf { chunk } => {
                    out.insert(key, chunk.clone());
                }
                TreeNode::Inner { left, right } => stack.extend([*left, *right]),
            }
        }
        out
    }

    /// SplitMix64: a seeded generator for the randomized GC walks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn dead_leaves_match_brute_force_reachability() {
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let span = 1u64 << (1 + rng.below(5)); // 2..=32 chunks
            let depth = span.ilog2() as usize + 1;
            let mut io = MemIo::new();
            // A clone family: every version shadows a random earlier
            // root (a successor or a CLONE — the same thing at tree
            // level). Updates carry fresh chunks or re-reference a chunk
            // already in use (dedup: a distinct leaf node, same chunk).
            let mut roots = vec![NodeKey::NULL];
            let mut chunks: Vec<ChunkDesc> = Vec::new();
            for _ in 0..2 + rng.below(12) {
                let base = roots[rng.below(roots.len() as u64) as usize];
                let mut up = FastMap::default();
                for _ in 0..1 + rng.below(span) {
                    let desc = if !chunks.is_empty() && rng.below(3) == 0 {
                        chunks[rng.below(chunks.len() as u64) as usize].clone()
                    } else {
                        let d = desc(chunks.len() as u64);
                        chunks.push(d.clone());
                        d
                    };
                    up.insert(rng.below(span), desc);
                }
                roots.push(build_new_tree(&mut io, base, span, &up).unwrap());
            }
            // A random dead/live split; aliases (a CLONE's first version)
            // may land on both sides, NULL roots on either.
            let (mut dead_roots, mut live_roots) = (Vec::new(), Vec::new());
            for &root in &roots {
                match rng.below(3) {
                    0 => dead_roots.push(root),
                    1 => live_roots.push(root),
                    _ => {
                        dead_roots.push(root);
                        live_roots.push(root);
                    }
                }
            }
            let mut expect: Vec<(NodeKey, ChunkDesc)> = {
                let live = reachable_leaves(&io, &live_roots);
                reachable_leaves(&io, &dead_roots)
                    .into_iter()
                    .filter(|(key, _)| !live.contains_key(key))
                    .collect()
            };
            expect.sort_unstable_by_key(|&(key, _)| key);
            io.fetch_rounds = 0;
            let got = dead_leaves(&mut io, &dead_roots, &live_roots).unwrap();
            assert_eq!(got, expect, "seed {seed}");
            assert!(
                io.fetch_rounds <= 2 * depth,
                "seed {seed}: {} rounds exceed 2 x depth {depth}",
                io.fetch_rounds
            );
        }
    }

    #[test]
    fn dead_leaf_rounds_do_not_grow_with_live_roots() {
        // One dead snapshot beside its live base and 1 or 64 live
        // siblings, each shadowing one private leaf of the base: the walk
        // costs the same rounds either way, within 2 x depth.
        let span = 64u64;
        let depth = span.ilog2() as usize + 1;
        let rounds_with = |siblings: u64| {
            let mut io = MemIo::new();
            let all: Vec<u64> = (0..span).collect();
            let base = build_new_tree(&mut io, NodeKey::NULL, span, &updates(&all)).unwrap();
            let dead = build_new_tree(&mut io, base, span, &updates(&[5])).unwrap();
            let mut live = vec![base];
            live.extend((0..siblings).map(|i| {
                let mut up = FastMap::default();
                up.insert(i % span, desc(500 + i));
                build_new_tree(&mut io, base, span, &up).unwrap()
            }));
            io.fetch_rounds = 0;
            let got = dead_leaves(&mut io, &[dead], &live).unwrap();
            assert_eq!(got.len(), 1, "only the private leaf dies");
            assert_eq!(got[0].1, desc(5));
            io.fetch_rounds
        };
        let (one, many) = (rounds_with(1), rounds_with(64));
        assert_eq!(one, many, "rounds must not scale with live roots");
        assert!(one <= 2 * depth, "{one} rounds exceed 2 x depth {depth}");
    }

    #[test]
    fn dead_root_reached_live_costs_no_live_fetch() {
        // Deleting the source of a CLONE whose first version aliases it:
        // the live walk enters the dead subgraph at its root, strikes it
        // locally and fetches nothing.
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 8, &updates(&[0, 3, 7])).unwrap();
        io.fetch_rounds = 0;
        assert!(dead_leaves(&mut io, &[root], &[root]).unwrap().is_empty());
        assert_eq!(
            io.fetch_rounds, 4,
            "one dead walk over depth 4, no live rounds"
        );
        // NULL roots and an empty dead set cost nothing.
        io.fetch_rounds = 0;
        assert!(dead_leaves(&mut io, &[NodeKey::NULL], &[root])
            .unwrap()
            .is_empty());
        assert_eq!(io.fetch_rounds, 0);
        // Shadowing: only the overwritten leaf of v1 dies once v2 lives.
        let v2 = build_new_tree(&mut io, root, 8, &updates(&[3])).unwrap();
        let got = dead_leaves(&mut io, &[root], &[v2]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, desc(3));
    }

    #[test]
    fn no_update_returns_old_root() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 4, &updates(&[1])).unwrap();
        let same = build_new_tree(&mut io, root, 4, &FastMap::default()).unwrap();
        assert_eq!(root, same);
    }

    #[test]
    fn single_chunk_blob() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 1, &updates(&[0])).unwrap();
        let leaves = collect_leaves(&mut io, root, 1, &(0..1)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert!(matches!(io.nodes[&root], TreeNode::Leaf { .. }));
    }

    #[test]
    fn sparse_tree_reads_only_written() {
        let mut io = MemIo::new();
        let root = build_new_tree(&mut io, NodeKey::NULL, 1024, &updates(&[1000])).unwrap();
        let leaves = collect_leaves(&mut io, root, 1024, &(0..1024)).unwrap();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].0, 1000);
        // A sparse write creates only the path: depth 11 nodes.
        assert_eq!(io.stored, 11);
    }
}
