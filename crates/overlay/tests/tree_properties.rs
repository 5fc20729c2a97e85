//! Property tests of the degree push-down trees: structural invariants
//! hold under arbitrary join/leave sequences, and the push-down edge
//! property (parents are never weaker than their children) holds for
//! join-only histories. A golden test pins the exact outcome of a seeded
//! sequence of every mutating operation.

use proptest::prelude::*;
use telecast_media::{SiteId, StreamId};
use telecast_net::{Bandwidth, NodeId, NodeKind, NodeRegistry, Region};
use telecast_overlay::{StreamTree, TreeParent};

fn ids(n: usize) -> Vec<NodeId> {
    let mut reg = NodeRegistry::new();
    (0..n)
        .map(|_| reg.add(NodeKind::Viewer, Region::NorthAmerica))
        .collect()
}

fn stream() -> StreamId {
    StreamId::new(SiteId::new(0), 0)
}

/// One whole-tree prune pass, as the session runs it per root: fold each
/// CDN-rooted fragment under a P2P parent, weakest root first. Returns
/// `(root, new_parent)` for every root whose position changed.
fn fold_cdn_fragments(tree: &mut StreamTree) -> Vec<(NodeId, TreeParent)> {
    let mut merged = Vec::new();
    for root in tree.cdn_fragment_roots() {
        // An earlier fold in this pass may have displaced this root off
        // the CDN already.
        if tree.parent_of(root) != Some(TreeParent::Cdn) {
            continue;
        }
        if let Some(parent) = tree.reposition_from_cdn(root) {
            merged.push((root, parent));
        }
    }
    merged
}

/// What a reference breadth-first scan would decide for one attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefPlan {
    /// Attach to a free slot under this member.
    Free(NodeId),
    /// Displace this member.
    Displace(NodeId),
}

/// A from-scratch reference of Algorithm 1's breadth-first scan, built
/// only from the tree's public getters (members, depths, free slots,
/// strengths) with no access to the maintained planner indexes: walking
/// depths shallow-to-deep, free child slots of level-`d−1` parents are
/// offered before displacement of level-`d` members; candidates order by
/// ascending `(out_degree, C_obw, id)`, and displacement requires the
/// joiner to be strictly stronger in `(out_degree, C_obw)`.
fn reference_bfs_plan(
    tree: &StreamTree,
    deg: u32,
    cap: Bandwidth,
    can_displace: bool,
) -> Option<RefPlan> {
    let mut levels: std::collections::BTreeMap<usize, Vec<(u32, Bandwidth, NodeId)>> =
        Default::default();
    for m in tree.members() {
        let d = tree.depth_of(m).expect("member has a depth");
        levels.entry(d).or_default().push((
            tree.out_degree_of(m).expect("member"),
            tree.outbound_capacity_of(m).expect("member"),
            m,
        ));
    }
    let deepest = levels.keys().next_back().copied()?;
    for set in levels.values_mut() {
        set.sort_unstable();
    }
    for d in 0..=deepest + 1 {
        if d > 0 {
            if let Some(above) = levels.get(&(d - 1)) {
                if let Some(&(_, _, parent)) =
                    above.iter().find(|&&(_, _, id)| tree.free_slots_of(id) > 0)
                {
                    return Some(RefPlan::Free(parent));
                }
            }
        }
        if can_displace {
            if let Some(level) = levels.get(&d) {
                let &(wdeg, wcap, victim) = level.first().expect("levels are non-empty");
                if deg > wdeg || (deg == wdeg && cap > wcap) {
                    return Some(RefPlan::Displace(victim));
                }
            }
        }
    }
    None
}

/// Recomputes a member's depth by walking its parent chain.
fn fresh_depth(tree: &StreamTree, member: NodeId) -> usize {
    let mut depth = 0;
    let mut cursor = member;
    loop {
        match tree.parent_of(cursor).expect("member chain stays in tree") {
            TreeParent::Cdn => return depth,
            TreeParent::Viewer(p) => {
                depth += 1;
                cursor = p;
            }
        }
    }
}

proptest! {
    /// Join-only histories: invariants hold, every join lands somewhere
    /// (tree or CDN), and the lexicographic (degree, capacity) edge
    /// property of the paper's Overlay Property holds.
    #[test]
    fn joins_maintain_invariants(degrees in proptest::collection::vec(0u32..8, 1..80)) {
        let viewers = ids(degrees.len());
        let mut tree = StreamTree::new(stream());
        for (i, &deg) in degrees.iter().enumerate() {
            let cap = Bandwidth::from_mbps(2 * deg as u64);
            match tree.insert(viewers[i], deg, cap) {
                Some(_) => {}
                None => tree.attach_to_cdn(viewers[i], deg, cap),
            }
            prop_assert!(tree.check_invariants().is_ok(),
                "{:?}", tree.check_invariants());
        }
        prop_assert_eq!(tree.len(), degrees.len());
        // Edge property: a viewer parent is never lexicographically weaker
        // than its child.
        for m in tree.members().collect::<Vec<_>>() {
            if let Some(TreeParent::Viewer(p)) = tree.parent_of(m) {
                let dm = tree.out_degree_of(m).unwrap();
                let dp = tree.out_degree_of(p).unwrap();
                prop_assert!(dp >= dm, "parent degree {dp} < child degree {dm}");
            }
        }
    }

    /// Mixed join/leave histories keep the tree structurally sound;
    /// victims are re-rooted at the CDN and stay members.
    #[test]
    fn churn_maintains_invariants(
        ops in proptest::collection::vec((any::<bool>(), 0u32..6), 1..120),
    ) {
        let viewers = ids(ops.len());
        let mut tree = StreamTree::new(stream());
        let mut present: Vec<NodeId> = Vec::new();
        for (i, &(is_join, deg)) in ops.iter().enumerate() {
            if is_join || present.is_empty() {
                let v = viewers[i];
                let cap = Bandwidth::from_mbps(deg as u64);
                if tree.insert(v, deg, cap).is_none() {
                    tree.attach_to_cdn(v, deg, cap);
                }
                present.push(v);
            } else {
                // Deterministic pseudo-random pick.
                let idx = (i * 7919) % present.len();
                let v = present.swap_remove(idx);
                let victims = tree.remove(v);
                for victim in victims {
                    prop_assert!(tree.contains(victim));
                    prop_assert_eq!(tree.parent_of(victim), Some(TreeParent::Cdn));
                }
            }
            prop_assert!(tree.check_invariants().is_ok(),
                "{:?}", tree.check_invariants());
        }
        prop_assert_eq!(tree.len(), present.len());
    }

    /// The per-level attach planner reproduces the reference BFS
    /// decision of Algorithm 1: across random insert/remove/reposition
    /// sequences, every insert lands exactly where a from-scratch
    /// breadth-first scan over the current tree would put it.
    #[test]
    fn planner_matches_reference_bfs(
        ops in proptest::collection::vec((0u8..4, 0u32..5, 0u32..8), 1..100),
    ) {
        let viewers = ids(ops.len());
        let mut tree = StreamTree::new(stream());
        let mut present: Vec<NodeId> = Vec::new();
        for (i, &(op, deg, cap_mbps)) in ops.iter().enumerate() {
            let cap = Bandwidth::from_mbps(cap_mbps as u64);
            match op {
                // Three in four ops insert, so trees grow deep enough to
                // exercise multi-level planning.
                0..=2 => {
                    let v = viewers[i];
                    let expected = reference_bfs_plan(&tree, deg, cap, deg > 0);
                    let got = tree.insert(v, deg, cap);
                    match expected {
                        None => {
                            prop_assert_eq!(got, None, "planner found a position BFS rejects");
                            tree.attach_to_cdn(v, deg, cap);
                        }
                        Some(RefPlan::Free(parent)) => {
                            prop_assert_eq!(got, Some(TreeParent::Viewer(parent)),
                                "planner picked a different free slot than the BFS");
                        }
                        Some(RefPlan::Displace(victim)) => {
                            // The insert returns the victim's old parent;
                            // the victim must now hang under the joiner.
                            prop_assert!(got.is_some());
                            prop_assert_eq!(tree.parent_of(victim), Some(TreeParent::Viewer(v)),
                                "planner displaced a different victim than the BFS");
                        }
                    }
                    present.push(v);
                }
                3 if !present.is_empty() => {
                    let idx = (i * 2654435761) % present.len();
                    let v = present.swap_remove(idx);
                    tree.remove(v);
                }
                _ => {
                    // Reposition a random CDN child (if any) instead.
                    let cdn: Vec<NodeId> = tree.cdn_children().collect();
                    if !cdn.is_empty() {
                        let v = cdn[(i * 7919) % cdn.len()];
                        let _ = tree.reposition_from_cdn(v);
                    }
                }
            }
            prop_assert!(tree.check_invariants().is_ok(),
                "{:?}", tree.check_invariants());
        }
    }

    /// Interleaved remove/reattach sequences keep the maintained depth
    /// bookkeeping (`metrics().max_depth`, `depth_of`) consistent with a
    /// fresh recomputation from the parent pointers.
    #[test]
    fn remove_reattach_keeps_depth_metrics_fresh(
        ops in proptest::collection::vec((any::<bool>(), 1u32..5), 1..80),
    ) {
        let viewers = ids(ops.len());
        let mut tree = StreamTree::new(stream());
        let mut present: Vec<NodeId> = Vec::new();
        for (i, &(is_join, deg)) in ops.iter().enumerate() {
            if is_join || present.len() < 2 {
                let v = viewers[i];
                let cap = Bandwidth::from_mbps(deg as u64);
                if tree.insert(v, deg, cap).is_none() {
                    tree.attach_to_cdn(v, deg, cap);
                }
                present.push(v);
            } else {
                let idx = (i * 7919) % present.len();
                let v = present.swap_remove(idx);
                let victims = tree.remove(v);
                // Reattach one victim P2P, mirroring §VI recovery.
                if let Some(&victim) = victims.first() {
                    let _ = tree.reposition_from_cdn(victim);
                }
            }
            prop_assert_eq!(tree.len(), present.len());
            let fresh: Vec<usize> = tree
                .members()
                .map(|m| fresh_depth(&tree, m))
                .collect();
            let fresh_max = fresh.iter().copied().max().unwrap_or(0);
            let metrics = tree.metrics();
            prop_assert_eq!(metrics.max_depth, fresh_max,
                "maintained max_depth diverged from recomputation");
            prop_assert_eq!(metrics.members, present.len());
            for (m, d) in tree.members().collect::<Vec<_>>().into_iter().zip(fresh) {
                prop_assert_eq!(tree.depth_of(m), Some(d));
            }
        }
    }

    /// The prune/merge pass preserves every structural invariant and
    /// never strands a connected viewer: after arbitrary churn leaves a
    /// forest of CDN-rooted fragments, repeated per-root prune passes
    /// keep the member set identical (check_invariants
    /// re-verifies reachability from the roots, so identical membership
    /// means nobody is cut off), keep at least one CDN root in a
    /// non-empty tree, and converge — every pass that reports a change
    /// folded at least one root away, so the pass count is bounded by
    /// the initial root count.
    #[test]
    fn prune_merge_preserves_invariants_and_strands_nobody(
        ops in proptest::collection::vec((0u8..4, 0u32..6, 0u32..8), 1..120),
    ) {
        let viewers = ids(ops.len());
        let mut tree = StreamTree::new(stream());
        let mut present: Vec<NodeId> = Vec::new();
        for (i, &(op, deg, cap_mbps)) in ops.iter().enumerate() {
            let cap = Bandwidth::from_mbps(cap_mbps as u64);
            if op != 3 || present.is_empty() {
                let v = viewers[i];
                if tree.insert(v, deg, cap).is_none() {
                    tree.attach_to_cdn(v, deg, cap);
                }
                present.push(v);
            } else {
                let idx = (i * 7919) % present.len();
                let v = present.swap_remove(idx);
                tree.remove(v);
            }
            prop_assert!(tree.check_invariants().is_ok(),
                "{:?}", tree.check_invariants());
        }
        let before: std::collections::BTreeSet<NodeId> = tree.members().collect();
        let mut passes = 0usize;
        loop {
            let root_count = tree.cdn_children().count();
            let merged = fold_cdn_fragments(&mut tree);
            prop_assert!(tree.check_invariants().is_ok(),
                "{:?}", tree.check_invariants());
            let after: std::collections::BTreeSet<NodeId> = tree.members().collect();
            prop_assert_eq!(&before, &after, "merge changed the member set");
            if !tree.is_empty() {
                prop_assert!(tree.cdn_children().count() >= 1,
                    "merge lost the last CDN root");
            }
            for &(root, parent) in &merged {
                prop_assert_eq!(tree.parent_of(root), Some(parent),
                    "reported merge target is not the root's parent");
            }
            if merged.is_empty() {
                break;
            }
            // Both merge outcomes — a root folded under a P2P parent, or
            // a root displacing a weaker root off its CDN slot — shrink
            // the forest, so convergence is bounded by the root count.
            prop_assert!(tree.cdn_children().count() < root_count,
                "a reported merge pass did not shrink the CDN forest");
            passes += 1;
            prop_assert!(passes <= ops.len(), "merge failed to converge");
        }
    }

    /// Depth never exceeds member count, and with all-equal degrees ≥ 1
    /// the tree accepts everyone P2P after the first CDN seed.
    #[test]
    fn equal_degree_viewers_all_fit(count in 1usize..60, degree in 1u32..4) {
        let viewers = ids(count);
        let mut tree = StreamTree::new(stream());
        let cap = Bandwidth::from_mbps(2);
        tree.attach_to_cdn(viewers[0], degree, cap);
        let mut rejected = 0;
        for &v in &viewers[1..] {
            if tree.insert(v, degree, cap).is_none() {
                rejected += 1;
            }
        }
        // With degree ≥ 1 every member adds at least one slot: capacity
        // grows at least as fast as membership, so nobody is rejected.
        prop_assert_eq!(rejected, 0);
        for v in tree.members().collect::<Vec<_>>() {
            prop_assert!(tree.depth_of(v).unwrap() < count);
        }
    }
}

/// FNV-1a-style fold of one 64-bit word into a running hash.
fn fold(hash: &mut u64, word: u64) {
    *hash = (*hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fold_parent(hash: &mut u64, parent: Option<TreeParent>) {
    fold(
        hash,
        match parent {
            None => u64::MAX,
            Some(TreeParent::Cdn) => u64::MAX - 1,
            Some(TreeParent::Viewer(p)) => p.index() as u64,
        },
    );
}

/// A splitmix64 stream: the golden sequence must not depend on any
/// generator outside this file.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs a seeded sequence of every mutating tree operation over mixed
/// degrees and folds each return value, in order, into one hash — plus
/// the final counters, shape metrics, CDN-child order and per-member
/// structure. Any change in a placement decision, a victim order, a
/// fragment-root order or a counter moves the hash.
fn golden_tree_hash(seed: u64, steps: usize, degrees: &[u32], caps: usize) -> u64 {
    let pool = ids(200);
    let mut rng = Mix(seed);
    let mut tree = StreamTree::new(stream());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..steps {
        let mut members: Vec<NodeId> = tree.members().collect();
        members.sort_unstable();
        let outsiders: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&v| !tree.contains(v))
            .collect();
        let deg = degrees[rng.below(degrees.len())];
        let cap = Bandwidth::from_kbps(500 * rng.below(caps) as u64);
        let roll = rng.below(100);
        fold(&mut hash, roll as u64);
        match roll {
            0..=39 if !outsiders.is_empty() => {
                let v = outsiders[rng.below(outsiders.len())];
                let got = tree.insert(v, deg, cap);
                fold_parent(&mut hash, got);
                if got.is_none() {
                    tree.attach_to_cdn(v, deg, cap);
                }
            }
            40..=47 if !outsiders.is_empty() => {
                tree.attach_to_cdn(outsiders[rng.below(outsiders.len())], deg, cap);
            }
            48..=55 if !outsiders.is_empty() => {
                let v = outsiders[rng.below(outsiders.len())];
                // Alternate the first-fit and the random baselines' parent
                // choices.
                let holders: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|&m| tree.free_slots_of(m) > 0)
                    .collect();
                let parent = if roll % 2 == 0 {
                    tree.first_free_slot_holder()
                } else {
                    (!holders.is_empty()).then(|| holders[rng.below(holders.len())])
                };
                fold_parent(&mut hash, parent.map(TreeParent::Viewer));
                if let Some(p) = parent {
                    tree.attach_under(v, deg, cap, p);
                }
            }
            56..=74 if !members.is_empty() => {
                let victims = tree.remove(members[rng.below(members.len())]);
                fold(&mut hash, victims.len() as u64);
                for victim in victims {
                    fold(&mut hash, victim.index() as u64);
                }
            }
            75..=84 => {
                let cdn: Vec<NodeId> = tree.cdn_children().collect();
                if !cdn.is_empty() {
                    let got = tree.reposition_from_cdn(cdn[rng.below(cdn.len())]);
                    fold_parent(&mut hash, got);
                }
            }
            85..=92 if !members.is_empty() => {
                tree.reparent_to_cdn(members[rng.below(members.len())]);
            }
            _ => {
                for root in tree.cdn_fragment_roots() {
                    fold(&mut hash, root.index() as u64);
                }
                for (root, parent) in fold_cdn_fragments(&mut tree) {
                    fold(&mut hash, root.index() as u64);
                    fold_parent(&mut hash, Some(parent));
                }
            }
        }
        if let Err(err) = tree.check_invariants() {
            panic!("seed {seed}: {err}");
        }
    }
    fold(&mut hash, tree.attach_probes());
    fold(&mut hash, tree.depth_shift_ops());
    let m = tree.metrics();
    fold(&mut hash, m.members as u64);
    fold(&mut hash, m.cdn_children as u64);
    fold(&mut hash, m.max_depth as u64);
    fold(&mut hash, m.mean_depth.to_bits());
    for c in tree.cdn_children() {
        fold(&mut hash, c.index() as u64);
    }
    let mut members: Vec<NodeId> = tree.members().collect();
    members.sort_unstable();
    for m in members {
        fold(&mut hash, m.index() as u64);
        fold_parent(&mut hash, tree.parent_of(m));
        fold(&mut hash, tree.depth_of(m).unwrap_or(usize::MAX) as u64);
        fold(&mut hash, tree.free_slots_of(m) as u64);
        for c in tree.children_of(m) {
            fold(&mut hash, c.index() as u64);
        }
    }
    fold_parent(
        &mut hash,
        tree.first_free_slot_holder().map(TreeParent::Viewer),
    );
    hash
}

/// Pins every decision the tree makes: a rewrite of its internals must
/// reproduce these hashes exactly (they were recorded before the level
/// indexes moved to depth-indexed vectors and children to sorted
/// vectors). The sparse mix, mostly zero-degree viewers over two
/// capacities, keeps the tree saturated and full of equal-strength
/// members, so it also pins the no-free-slot fast path's tie rule.
#[test]
fn golden_operation_sequence_is_unchanged() {
    let mixed: Vec<u64> = (1..=4)
        .map(|seed| golden_tree_hash(seed, 400, &[0, 0, 1, 1, 2, 3, 4, 6], 12))
        .collect();
    assert_eq!(
        mixed,
        vec![
            0xe0b9_2477_1a84_0052,
            0xd69e_c614_f577_89e1,
            0xef3d_1ba1_ebea_a187,
            0x572e_99d2_2ef7_3918,
        ],
        "{mixed:#x?}"
    );
    let sparse: Vec<u64> = (1..=2)
        .map(|seed| golden_tree_hash(seed, 400, &[0, 0, 0, 1, 1, 2], 2))
        .collect();
    assert_eq!(
        sparse,
        vec![0xbe3d_5306_5b53_3074, 0x118b_29ac_5a02_82b1],
        "{sparse:#x?}"
    );
}
