//! Random topology views for the differential tests of the overlay build
//! and the domain restriction: shuffled and sparse link ids, sparse node
//! ids, duplicated link entries, overlapping per-layer active sets, and the
//! malformed shapes each error path needs.

use crate::discovery::{LinkView, TopologyView};
use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random view and the session's layer groups (`groups[k]` carries
/// layer `k`; the view may lack some of them).
pub(crate) struct RandomView {
    pub view: TopologyView,
    pub groups: Vec<GroupId>,
    /// Every node the view was generated over.
    pub nodes: Vec<NodeId>,
}

pub(crate) fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `n` distinct ids: dense, strided, or packed just below `u32::MAX`
/// (the last forcing the sparse numbering path), in shuffled order.
fn ids(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut out: Vec<u32> = match rng.gen_range(0..3usize) {
        0 => (0..n as u32).collect(),
        1 => {
            let stride = rng.gen_range(1..40usize) as u32;
            let base = rng.gen_range(0..1000usize) as u32;
            (0..n as u32).map(|i| base + i * stride).collect()
        }
        _ => (0..n as u32).map(|i| u32::MAX - 3 * i).collect(),
    };
    shuffle(rng, &mut out);
    out
}

/// A random `(root, edges)` list over at most `max_nodes` nodes for
/// [`crate::tree::Tree::from_edges`]: a shuffled random tree, sometimes
/// with a second parent, an edge into the root, or an orphaned edge or
/// cycle.
pub(crate) fn random_edges(seed: u64, max_nodes: usize) -> (NodeId, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_nodes + 1);
    let nodes: Vec<NodeId> = ids(&mut rng, n + 2).into_iter().map(NodeId).collect();
    // Indexes `n` and `n + 1` are outside the tree: orphans.
    let mut edges: Vec<(NodeId, NodeId)> =
        (1..n).map(|i| (nodes[rng.gen_range(0..i)], nodes[i])).collect();
    shuffle(&mut rng, &mut edges);
    let defects = match rng.gen_range(0..8usize) {
        0 => vec![(nodes[rng.gen_range(0..n)], nodes[rng.gen_range(1..n + 1)])],
        1 => vec![(nodes[rng.gen_range(0..n + 2)], nodes[0])],
        2 => vec![(nodes[n], nodes[n + 1])],
        3 => vec![(nodes[n], nodes[n + 1]), (nodes[n + 1], nodes[n])],
        _ => vec![],
    };
    for e in defects {
        let at = rng.gen_range(0..edges.len() + 1);
        edges.insert(at, e);
    }
    (nodes[0], edges)
}

/// A random view over at most `max_nodes` nodes. Most views overlay into a
/// valid tree; a fraction carries a defect: an extra or missing active link,
/// a link into the root, a moved root, an unlisted active link, or a
/// missing base-layer group.
pub(crate) fn random_view(seed: u64, max_nodes: usize) -> RandomView {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_nodes + 1);
    let nodes: Vec<NodeId> = ids(&mut rng, n).into_iter().map(NodeId).collect();
    // A random tree over node indexes, rooted at index 0.
    let parent: Vec<usize> = (0..n).map(|i| if i == 0 { 0 } else { rng.gen_range(0..i) }).collect();
    // Physical links: both directions of every tree edge, plus extras.
    let mut ends: Vec<(usize, usize)> = Vec::new();
    for (i, &p) in parent.iter().enumerate().skip(1) {
        ends.push((p, i));
        ends.push((i, p));
    }
    for _ in 0..rng.gen_range(0..n / 2 + 1) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            ends.push((a, b));
        }
    }
    let link_ids = ids(&mut rng, ends.len() + 1);
    // The last id is never listed: active on it means "unknown link".
    let unknown = DirLinkId(link_ids[ends.len()]);
    let mut links: Vec<LinkView> = ends
        .iter()
        .zip(&link_ids)
        .map(|(&(a, b), &id)| LinkView { id: DirLinkId(id), from: nodes[a], to: nodes[b] })
        .collect();
    // Down-link into each non-root node (index 0 of `ends` pairs).
    let down: Vec<DirLinkId> =
        (0..n).map(|i| if i == 0 { unknown } else { links[2 * (i - 1)].id }).collect();
    shuffle(&mut rng, &mut links);
    // Duplicated entries: the same id again, sometimes with other
    // endpoints, before or after the original (the first one counts).
    if rng.gen_bool(0.4) && !links.is_empty() {
        for _ in 0..rng.gen_range(1..4usize) {
            let mut dup = links[rng.gen_range(0..links.len())];
            if rng.gen_bool(0.5) {
                std::mem::swap(&mut dup.from, &mut dup.to);
            }
            let at = rng.gen_range(0..links.len() + 1);
            links.insert(at, dup);
        }
    }

    // Layers: each layer's members, and the root paths reaching them.
    let layers = rng.gen_range(1..5usize);
    let nested = rng.gen_bool(0.6);
    let mut members: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
    let mut group_ids: Vec<u32> = (0..layers as u32 + 2).map(|g| 10 * g + 3).collect();
    shuffle(&mut rng, &mut group_ids);
    let groups: Vec<GroupId> = group_ids[..layers].iter().map(|&g| GroupId(g)).collect();
    let mut snaps: Vec<GroupSnapshot> = Vec::new();
    for &g in &groups {
        let mut on = vec![false; n];
        let mut active: Vec<DirLinkId> = Vec::new();
        for &m in &members {
            let mut i = m;
            while i != 0 && !on[i] {
                on[i] = true;
                active.push(down[i]);
                i = parent[i];
            }
        }
        shuffle(&mut rng, &mut active);
        // Defects, each rare enough that most views stay trees.
        if rng.gen_bool(0.1) && !links.is_empty() {
            let extra = links[rng.gen_range(0..links.len())].id;
            active.insert(rng.gen_range(0..active.len() + 1), extra);
        }
        if rng.gen_bool(0.08) && !active.is_empty() {
            active.remove(rng.gen_range(0..active.len()));
        }
        if rng.gen_bool(0.05) && !active.is_empty() {
            let again = active[rng.gen_range(0..active.len())];
            active.push(again);
        }
        if rng.gen_bool(0.03) {
            active.insert(rng.gen_range(0..active.len() + 1), unknown);
        }
        let root = if rng.gen_bool(0.06) { nodes[rng.gen_range(0..n)] } else { nodes[0] };
        snaps.push(GroupSnapshot {
            group: g,
            root,
            active_links: active,
            member_nodes: members.iter().map(|&m| nodes[m]).collect(),
        });
        // Next layer: a subset of these members (cumulative layers), or an
        // overlapping, independent draw.
        members = if nested {
            members.into_iter().filter(|_| rng.gen_bool(0.6)).collect()
        } else {
            (0..n).filter(|_| rng.gen_bool(0.3)).collect()
        };
    }
    // Groups the view lacks: occasionally the base layer, more often a
    // higher one; plus an unrelated group the session does not name.
    if rng.gen_bool(0.04) {
        snaps.remove(0);
    } else if snaps.len() > 1 && rng.gen_bool(0.15) {
        let k = rng.gen_range(1..snaps.len());
        snaps.remove(k);
    }
    snaps.push(GroupSnapshot {
        group: GroupId(group_ids[layers]),
        root: nodes[0],
        active_links: links.iter().take(1).map(|l| l.id).collect(),
        member_nodes: vec![nodes[n - 1]],
    });
    shuffle(&mut rng, &mut snaps);
    RandomView { view: TopologyView { time: SimTime::ZERO, links, groups: snaps }, groups, nodes }
}
