//! The topology-discovery tool.
//!
//! The paper deliberately abstracts the discovery mechanism (mtrace, SNMP,
//! MHealth, mrtree, …): *"Our algorithm concerns itself only with the
//! information and not how it was acquired."* What it does model is the
//! information being **old**: Fig. 10 studies staleness from 2 s to 18 s.
//!
//! [`DiscoveryTool`] therefore archives ground-truth snapshots of the
//! simulator's multicast state as they are captured and answers queries with
//! the newest snapshot at least `staleness` old — a delayed oracle, which is
//! exactly the paper's model of an imperfect tool.

use crate::dense::Numbering;
use netsim::sim::Network;
use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

/// A directed link as seen by the discovery tool (no capacity: the paper
/// assumes link capacities are *not* available and must be estimated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkView {
    pub id: DirLinkId,
    pub from: NodeId,
    pub to: NodeId,
}

/// One snapshot of the domain: physical links plus every group's
/// distribution tree and membership.
#[derive(Clone, Debug)]
pub struct TopologyView {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// All directed links in the domain.
    pub links: Vec<LinkView>,
    /// Per-group distribution state.
    pub groups: Vec<GroupSnapshot>,
}

impl TopologyView {
    /// Capture the ground truth right now.
    ///
    /// A partially-failed network yields a view with the failed pieces
    /// missing rather than a panic: down links, links touching a crashed
    /// node, and crashed members simply do not appear — exactly what a real
    /// discovery tool would (fail to) see. On a fault-free network every
    /// filter keeps everything, so the capture is identical to the naive
    /// one.
    pub fn capture(net: &Network, now: SimTime) -> Self {
        let links: Vec<LinkView> = (0..net.link_count() as u32)
            .filter_map(|i| {
                let id = DirLinkId(i);
                let (from, to) = (net.link_tail(id), net.link_head(id));
                let alive = net.link_is_up(id) && net.node_is_up(from) && net.node_is_up(to);
                alive.then_some(LinkView { id, from, to })
            })
            .collect();
        let kept: HashSet<DirLinkId> = links.iter().map(|l| l.id).collect();
        let groups = net
            .multicast_snapshot()
            .into_iter()
            .map(|g| {
                let netsim::GroupSnapshot { group, root, active_links, member_nodes } = g;
                netsim::GroupSnapshot {
                    group,
                    root,
                    active_links: active_links.into_iter().filter(|l| kept.contains(l)).collect(),
                    member_nodes: member_nodes.into_iter().filter(|&n| net.node_is_up(n)).collect(),
                }
            })
            .collect();
        TopologyView { time: now, links, groups }
    }

    /// The snapshot of one group, if it exists.
    pub fn group(&self, g: GroupId) -> Option<&GroupSnapshot> {
        self.groups.iter().find(|s| s.group == g)
    }

    /// Endpoints of a directed link.
    pub fn link(&self, id: DirLinkId) -> Option<LinkView> {
        self.links.iter().copied().find(|l| l.id == id)
    }

    /// Restrict the view to one administrative domain (the paper's Fig. 3:
    /// "multiple controller agents, each concerned with one particular
    /// administrative domain", each unaware of the others).
    ///
    /// Links with an endpoint outside `domain` disappear; each group's
    /// member list is filtered; and the group root is re-based onto the
    /// **domain ingress** — the node inside the domain through which the
    /// session enters (the forest root whose subtree contains the domain's
    /// members). A controller built on a restricted view manages only its
    /// own subtree, exactly as the paper prescribes.
    pub fn restrict(&self, domain: &HashSet<NodeId>) -> TopologyView {
        let links: Vec<LinkView> = self
            .links
            .iter()
            .copied()
            .filter(|l| domain.contains(&l.from) && domain.contains(&l.to))
            .collect();
        let kept: HashSet<DirLinkId> = links.iter().map(|l| l.id).collect();
        // Indexed only once some group's root lies outside the domain.
        let mut index: Option<LinkIndex> = None;
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let active_links: Vec<DirLinkId> =
                    g.active_links.iter().copied().filter(|l| kept.contains(l)).collect();
                let member_nodes: Vec<NodeId> =
                    g.member_nodes.iter().copied().filter(|n| domain.contains(n)).collect();
                let root = if domain.contains(&g.root) {
                    g.root
                } else {
                    let index = index.get_or_insert_with(|| LinkIndex::new(&links));
                    let graph = ActiveGraph::new(index, &active_links);
                    domain_ingress(&graph, &active_links, &member_nodes).unwrap_or(g.root)
                };
                netsim::GroupSnapshot { group: g.group, root, active_links, member_nodes }
            })
            .collect();
        TopologyView { time: self.time, links, groups }
    }

    /// Every node mentioned anywhere in the view.
    fn known_nodes(&self) -> HashSet<NodeId> {
        let mut nodes: HashSet<NodeId> = self.links.iter().flat_map(|l| [l.from, l.to]).collect();
        for g in &self.groups {
            nodes.insert(g.root);
            nodes.extend(g.member_nodes.iter().copied());
        }
        nodes
    }

    /// The view with `hidden` nodes — and everything hanging off them —
    /// removed, modelling a discovery pass that could not reach part of the
    /// domain. Implemented as a restriction to the reachable remainder, so
    /// roots inside a hidden subtree are re-based exactly as for domains.
    pub fn without_nodes(&self, hidden: &[NodeId]) -> TopologyView {
        let mut domain = self.known_nodes();
        for n in hidden {
            domain.remove(n);
        }
        let mut v = self.restrict(&domain);
        // Hiding an interior node can disconnect a root from the surviving
        // members even though the root itself is still visible; re-base such
        // groups onto the ingress of the member-bearing remainder, as
        // `restrict` does for roots outside the domain.
        let index = LinkIndex::new(&v.links);
        for g in &mut v.groups {
            if g.member_nodes.is_empty() {
                continue;
            }
            let graph = ActiveGraph::new(&index, &g.active_links);
            let members: HashSet<NodeId> = g.member_nodes.iter().copied().collect();
            let mut seen = vec![false; index.node_count()];
            if !graph.reaches_member(g.root, &members, &mut seen) {
                if let Some(r) = domain_ingress(&graph, &g.active_links, &g.member_nodes) {
                    g.root = r;
                }
            }
        }
        v
    }
}

/// The forest root (a node with no in-link among the `active` links, over
/// which `graph` is built) whose subtree contains a member: the first such
/// root in id order, or — with no active links inside the domain yet — the
/// first member, a lone member being its own ingress.
fn domain_ingress(graph: &ActiveGraph, active: &[DirLinkId], members: &[NodeId]) -> Option<NodeId> {
    let index = graph.index;
    let mut has_in_link = vec![false; index.node_count()];
    for &h in &graph.heads {
        has_in_link[index.node_pos(h).expect("link endpoint")] = true;
    }
    let mut candidates: Vec<NodeId> = active
        .iter()
        .filter_map(|&id| index.get(id))
        .map(|l| l.from)
        .filter(|&n| !has_in_link[index.node_pos(n).expect("link endpoint")])
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    // One visited set across the candidates: a node an earlier candidate's
    // search reached without finding a member reaches no member itself, so
    // skipping it leaves the answer unchanged and the search linear.
    let member_set: HashSet<NodeId> = members.iter().copied().collect();
    let mut seen = vec![false; index.node_count()];
    for &cand in &candidates {
        if graph.reaches_member(cand, &member_set, &mut seen) {
            return Some(cand);
        }
    }
    members.first().copied()
}

/// Out-neighbours along a set of active links, in CSR form over the link
/// index's node numbering; unresolvable link ids are skipped.
struct ActiveGraph<'a> {
    index: &'a LinkIndex<'a>,
    /// Heads of the links out of position `p` are
    /// `heads[start[p]..start[p + 1]]`, in active-link order.
    start: Vec<u32>,
    heads: Vec<NodeId>,
}

impl<'a> ActiveGraph<'a> {
    fn new(index: &'a LinkIndex<'a>, active: &[DirLinkId]) -> Self {
        let resolved: Vec<LinkView> = active.iter().filter_map(|&id| index.get(id)).collect();
        let tail = |l: &LinkView| index.node_pos(l.from).expect("link endpoint");
        let mut start = vec![0u32; index.node_count() + 1];
        for l in &resolved {
            start[tail(l) + 1] += 1;
        }
        for p in 0..index.node_count() {
            start[p + 1] += start[p];
        }
        let mut fill = start.clone();
        let mut heads = vec![NodeId(0); resolved.len()];
        for l in &resolved {
            let at = &mut fill[tail(l)];
            heads[*at as usize] = l.to;
            *at += 1;
        }
        ActiveGraph { index, start, heads }
    }

    /// Breadth-first search from `from` for a node in `members`. Marks
    /// every node it queues in `seen` and does not enter nodes already
    /// marked there.
    fn reaches_member(&self, from: NodeId, members: &HashSet<NodeId>, seen: &mut [bool]) -> bool {
        if let Some(p) = self.index.node_pos(from) {
            seen[p] = true;
        }
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if members.contains(&n) {
                return true;
            }
            // A node no view link touches has no out-links.
            let Some(p) = self.index.node_pos(n) else { continue };
            for &h in &self.heads[self.start[p] as usize..self.start[p + 1] as usize] {
                let q = self.index.node_pos(h).expect("link endpoint");
                if !seen[q] {
                    seen[q] = true;
                    queue.push_back(h);
                }
            }
        }
        false
    }
}

/// `LinkIndex::first` sentinel: the list has no entry with this id.
const NO_LINK: u32 = u32::MAX;

/// The view's directed links indexed by [`DirLinkId`], built in one pass
/// over a link list; a lookup is then one table read instead of a scan.
/// Where an id is listed twice the first entry wins, as with
/// [`TopologyView::link`].
#[derive(Clone, Debug)]
pub(crate) struct LinkIndex<'a> {
    links: &'a [LinkView],
    ids: Numbering,
    /// Position in `links` of each id's first entry (`NO_LINK` if none).
    first: Vec<u32>,
    /// Numbering of every link endpoint, for node-indexed scratch.
    nodes: Numbering,
}

impl<'a> LinkIndex<'a> {
    pub(crate) fn new(links: &'a [LinkView]) -> Self {
        let ids = Numbering::new(links.iter().map(|l| l.id.0));
        let mut first = vec![NO_LINK; ids.len()];
        for (i, l) in links.iter().enumerate() {
            let entry = &mut first[ids.get(l.id.0).expect("every listed id is numbered")];
            if *entry == NO_LINK {
                *entry = u32::try_from(i).expect("fewer than 2^32 links");
            }
        }
        let nodes = Numbering::new(links.iter().flat_map(|l| [l.from.0, l.to.0]));
        LinkIndex { links, ids, first, nodes }
    }

    /// Endpoints of a directed link (`None` for an id the list lacks).
    pub(crate) fn get(&self, id: DirLinkId) -> Option<LinkView> {
        let i = self.first[self.ids.get(id.0)?];
        (i != NO_LINK).then(|| self.links[i as usize])
    }

    /// Length of a table indexed by [`Self::node_pos`].
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Dense position of `node`; every endpoint of a listed link has one.
    pub(crate) fn node_pos(&self, node: NodeId) -> Option<usize> {
        self.nodes.get(node.0)
    }
}

/// Why a discovery query produced no (full) answer.
#[derive(Clone, Debug)]
pub enum SnapshotError {
    /// The tool is down: no information at all this interval.
    Unavailable,
    /// The tool reached only part of the domain; the carried view omits the
    /// unreachable subtree.
    Partial(TopologyView),
}

/// One scheduled failure window of the discovery tool.
#[derive(Clone, Debug)]
enum Outage {
    /// Queries in `[from, until)` fail outright.
    Total { from: SimTime, until: SimTime },
    /// Queries in `[from, until)` see a view missing `hidden` subtrees.
    Partial { from: SimTime, until: SimTime, hidden: Vec<NodeId> },
}

/// Archives snapshots and serves them with a staleness delay.
pub struct DiscoveryTool {
    staleness: SimDuration,
    history: VecDeque<TopologyView>,
    max_history: usize,
    outages: Vec<Outage>,
}

impl DiscoveryTool {
    /// `staleness` is the minimum age of any served snapshot; zero gives an
    /// instantaneous oracle (the paper's baseline premise, which it calls
    /// "clearly unrealistic").
    pub fn new(staleness: SimDuration) -> Self {
        DiscoveryTool { staleness, history: VecDeque::new(), max_history: 64, outages: Vec::new() }
    }

    /// Schedule a total outage: queries in `[from, until)` return
    /// [`SnapshotError::Unavailable`].
    pub fn add_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(until > from, "outage must end after it starts");
        self.outages.push(Outage::Total { from, until });
    }

    /// Schedule a partial outage: queries in `[from, until)` return a view
    /// with the `hidden` subtrees missing.
    pub fn add_partial_outage(&mut self, from: SimTime, until: SimTime, hidden: Vec<NodeId>) {
        assert!(until > from, "outage must end after it starts");
        self.outages.push(Outage::Partial { from, until, hidden });
    }

    /// The configured staleness.
    pub fn staleness(&self) -> SimDuration {
        self.staleness
    }

    /// Record a snapshot (call this periodically, e.g. once per controller
    /// interval). Old snapshots beyond what staleness can ever need are
    /// discarded.
    pub fn record(&mut self, view: TopologyView) {
        debug_assert!(
            self.history.back().is_none_or(|v| v.time <= view.time),
            "snapshots must be recorded in time order"
        );
        self.history.push_back(view);
        while self.history.len() > self.max_history {
            self.history.pop_front();
        }
    }

    /// The newest snapshot taken at or before `now - staleness`.
    ///
    /// Returns `None` when the tool has not been running long enough —
    /// early in a session even a perfect tool has produced nothing yet.
    pub fn query(&self, now: SimTime) -> Option<&TopologyView> {
        let cutoff = now.saturating_sub(self.staleness);
        self.history.iter().rev().find(|v| v.time <= cutoff)
    }

    /// Like [`DiscoveryTool::query`], but honouring the scheduled failure
    /// windows.
    ///
    /// `Ok(None)` still means a cold start (nothing captured yet);
    /// `Err(Unavailable)` means the tool itself is down right now; and
    /// `Err(Partial(view))` carries what the degraded tool could still see.
    /// With no outages scheduled this is exactly `Ok(self.query(now))`.
    pub fn query_checked(&self, now: SimTime) -> Result<Option<&TopologyView>, SnapshotError> {
        for o in &self.outages {
            match o {
                Outage::Total { from, until } if now >= *from && now < *until => {
                    return Err(SnapshotError::Unavailable);
                }
                Outage::Partial { from, until, hidden } if now >= *from && now < *until => {
                    return match self.query(now) {
                        Some(v) => Err(SnapshotError::Partial(v.without_nodes(hidden))),
                        None => Ok(None),
                    };
                }
                _ => {}
            }
        }
        Ok(self.query(now))
    }

    /// Number of archived snapshots.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{random_view, shuffle};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `restrict` and `without_nodes` as they stood before the linear
    /// rewrite — a link-list scan per lookup, a fresh search per ingress
    /// candidate, a member-list scan per visited node — kept as their
    /// oracle.
    mod reference {
        use super::*;

        pub fn restrict(v: &TopologyView, domain: &HashSet<NodeId>) -> TopologyView {
            let links: Vec<LinkView> = v
                .links
                .iter()
                .copied()
                .filter(|l| domain.contains(&l.from) && domain.contains(&l.to))
                .collect();
            let kept: HashSet<DirLinkId> = links.iter().map(|l| l.id).collect();
            let groups = v
                .groups
                .iter()
                .map(|g| {
                    let active_links: Vec<DirLinkId> =
                        g.active_links.iter().copied().filter(|l| kept.contains(l)).collect();
                    let member_nodes: Vec<NodeId> =
                        g.member_nodes.iter().copied().filter(|n| domain.contains(n)).collect();
                    let root = if domain.contains(&g.root) {
                        g.root
                    } else {
                        domain_ingress(&links, &active_links, &member_nodes).unwrap_or(g.root)
                    };
                    GroupSnapshot { group: g.group, root, active_links, member_nodes }
                })
                .collect();
            TopologyView { time: v.time, links, groups }
        }

        fn domain_ingress(
            domain_links: &[LinkView],
            active: &[DirLinkId],
            members: &[NodeId],
        ) -> Option<NodeId> {
            let view_of = |id: &DirLinkId| domain_links.iter().find(|l| l.id == *id).copied();
            let heads: HashSet<NodeId> = active.iter().filter_map(view_of).map(|l| l.to).collect();
            let mut candidates: Vec<NodeId> = active
                .iter()
                .filter_map(view_of)
                .map(|l| l.from)
                .filter(|n| !heads.contains(n))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            for &cand in &candidates {
                let mut seen = HashSet::from([cand]);
                let mut queue = VecDeque::from([cand]);
                while let Some(n) = queue.pop_front() {
                    if members.contains(&n) {
                        return Some(cand);
                    }
                    for l in active.iter().filter_map(view_of) {
                        if l.from == n && seen.insert(l.to) {
                            queue.push_back(l.to);
                        }
                    }
                }
            }
            members.first().copied()
        }

        pub fn without_nodes(v: &TopologyView, hidden: &[NodeId]) -> TopologyView {
            let mut domain = v.known_nodes();
            for n in hidden {
                domain.remove(n);
            }
            let mut v = restrict(v, &domain);
            let rebased: Vec<Option<NodeId>> = v
                .groups
                .iter()
                .map(|g| {
                    if g.member_nodes.is_empty()
                        || root_reaches_member(&v.links, &g.active_links, g.root, &g.member_nodes)
                    {
                        None
                    } else {
                        domain_ingress(&v.links, &g.active_links, &g.member_nodes)
                    }
                })
                .collect();
            for (g, r) in v.groups.iter_mut().zip(rebased) {
                if let Some(r) = r {
                    g.root = r;
                }
            }
            v
        }

        fn root_reaches_member(
            links: &[LinkView],
            active: &[DirLinkId],
            root: NodeId,
            members: &[NodeId],
        ) -> bool {
            let view_of = |id: &DirLinkId| links.iter().find(|l| l.id == *id).copied();
            let mut seen = HashSet::from([root]);
            let mut queue = VecDeque::from([root]);
            while let Some(n) = queue.pop_front() {
                if members.contains(&n) {
                    return true;
                }
                for l in active.iter().filter_map(view_of) {
                    if l.from == n && seen.insert(l.to) {
                        queue.push_back(l.to);
                    }
                }
            }
            false
        }
    }

    fn same_view(a: &TopologyView, b: &TopologyView) -> Result<(), String> {
        if a.time == b.time && a.links == b.links && a.groups == b.groups {
            Ok(())
        } else {
            Err(format!("views differ:\n{a:?}\n{b:?}"))
        }
    }

    /// `restrict(domain)` and `without_nodes(hidden)` match the reference.
    fn compare(
        v: &TopologyView,
        domain: &HashSet<NodeId>,
        hidden: &[NodeId],
    ) -> Result<(), String> {
        same_view(&v.restrict(domain), &reference::restrict(v, domain))?;
        same_view(&v.without_nodes(hidden), &reference::without_nodes(v, hidden))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A random domain over a random view (each node kept with a drawn
        /// probability, the base root dropped now and then so the ingress
        /// search runs), and a few hidden nodes.
        #[test]
        fn restrict_and_without_nodes_match_the_reference(seed in any::<u64>(), max_nodes in 1usize..40) {
            let rv = random_view(seed, max_nodes);
            let mut rng = StdRng::seed_from_u64(seed);
            let keep = rng.gen_range(0.3..1.0);
            let mut domain: HashSet<NodeId> =
                rv.nodes.iter().copied().filter(|_| rng.gen_bool(keep)).collect();
            if rng.gen_bool(0.5) {
                domain.remove(&rv.nodes[0]);
            }
            let mut hidden = rv.nodes.clone();
            shuffle(&mut rng, &mut hidden);
            hidden.truncate(rng.gen_range(0..4usize));
            if let Err(msg) = compare(&rv.view, &domain, &hidden) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// The same comparison on a domain of over 1,000 nodes, where the
    /// reference's per-node link scans dominate: every node but the root
    /// (so the ingress search runs) and a few others.
    #[test]
    fn restrict_and_without_nodes_match_the_reference_on_a_large_domain() {
        let rv =
            (0..).map(|seed| random_view(seed, 1600)).find(|rv| rv.nodes.len() > 1100).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut hidden = rv.nodes.clone();
        shuffle(&mut rng, &mut hidden);
        hidden.truncate(20);
        let mut domain: HashSet<NodeId> = rv.nodes.iter().copied().collect();
        domain.remove(&rv.nodes[0]);
        for n in &hidden {
            domain.remove(n);
        }
        assert!(domain.len() >= 1000);
        compare(&rv.view, &domain, &hidden).unwrap();
    }

    fn view_at(secs: u64) -> TopologyView {
        TopologyView { time: SimTime::from_secs(secs), links: Vec::new(), groups: Vec::new() }
    }

    #[test]
    fn zero_staleness_serves_newest() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(view_at(1));
        d.record(view_at(2));
        d.record(view_at(3));
        let v = d.query(SimTime::from_secs(3)).unwrap();
        assert_eq!(v.time, SimTime::from_secs(3));
    }

    #[test]
    fn staleness_delays_the_view() {
        let mut d = DiscoveryTool::new(SimDuration::from_secs(4));
        for s in [0u64, 2, 4, 6, 8, 10] {
            d.record(view_at(s));
        }
        // At t=10, only snapshots taken at or before t=6 may be served.
        let v = d.query(SimTime::from_secs(10)).unwrap();
        assert_eq!(v.time, SimTime::from_secs(6));
    }

    #[test]
    fn too_early_returns_none() {
        let mut d = DiscoveryTool::new(SimDuration::from_secs(10));
        d.record(view_at(2));
        assert!(d.query(SimTime::from_secs(5)).is_none());
        // Eventually the old snapshot becomes servable.
        assert!(d.query(SimTime::from_secs(12)).is_some());
    }

    #[test]
    fn history_is_bounded() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        for s in 0..200 {
            d.record(view_at(s));
        }
        assert!(d.history_len() <= 64);
        // Newest snapshots survive the trimming.
        assert_eq!(d.query(SimTime::from_secs(500)).unwrap().time, SimTime::from_secs(199));
    }

    #[test]
    fn empty_tool_returns_none() {
        let d = DiscoveryTool::new(SimDuration::ZERO);
        assert!(d.query(SimTime::from_secs(100)).is_none());
    }

    /// Chain 0 -> 1 -> 2 -> 3 with members at 2 and 3; domain = {2, 3}.
    fn spanning_view() -> TopologyView {
        let n = |i: u32| NodeId(i);
        let l = |i: u32| DirLinkId(i);
        TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(2) },
                LinkView { id: l(2), from: n(2), to: n(3) },
            ],
            groups: vec![netsim::GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: vec![l(0), l(1), l(2)],
                member_nodes: vec![n(2), n(3)],
            }],
        }
    }

    #[test]
    fn restrict_rebases_the_root_on_the_domain_ingress() {
        let view = spanning_view();
        let domain = std::collections::HashSet::from([NodeId(2), NodeId(3)]);
        let r = view.restrict(&domain);
        // Only the 2 -> 3 link survives.
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].id, DirLinkId(2));
        let g = &r.groups[0];
        assert_eq!(g.active_links, vec![DirLinkId(2)]);
        assert_eq!(g.member_nodes, vec![NodeId(2), NodeId(3)]);
        // The ingress (node 2) becomes the domain-local root.
        assert_eq!(g.root, NodeId(2));
    }

    #[test]
    fn restrict_keeps_the_root_when_it_is_inside() {
        let view = spanning_view();
        let domain = std::collections::HashSet::from([NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let r = view.restrict(&domain);
        assert_eq!(r.groups[0].root, NodeId(0));
        assert_eq!(r.links.len(), 3);
    }

    #[test]
    fn capture_reflects_link_and_node_faults() {
        use netsim::{App, Ctx, FaultKind, FaultPlan, LinkConfig, NetworkBuilder, SimConfig};
        struct Joiner {
            group: GroupId,
        }
        impl App for Joiner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(self.group);
            }
        }
        let mut b = NetworkBuilder::new(SimConfig::default());
        let s = b.add_node("src");
        let m = b.add_node("mid");
        let r = b.add_node("rcv");
        let (sm, _) = b.add_link(s, m, LinkConfig::kbps(100.0));
        b.add_link(m, r, LinkConfig::kbps(100.0));
        let mut sim = b.build();
        let g = sim.create_group(s);
        sim.add_app(r, Box::new(Joiner { group: g }));
        sim.run_until(SimTime::from_secs(1));
        let clean = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(clean.links.len(), 4);
        assert_eq!(clean.group(g).unwrap().member_nodes, vec![r]);
        assert_eq!(clean.group(g).unwrap().active_links.len(), 2);

        // Take the src->mid half down: it vanishes from the capture, and so
        // does its entry in the active tree.
        sim.install_faults(&FaultPlan::new().at(SimTime::from_secs(2), FaultKind::LinkDown(sm)));
        sim.run_until(SimTime::from_secs(3));
        let faulted = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(faulted.links.len(), 3);
        assert!(faulted.link(sm).is_none());
        assert_eq!(faulted.group(g).unwrap().active_links.len(), 1);

        // Crash the receiver's node: its links and membership vanish too.
        sim.install_faults(&FaultPlan::new().at(SimTime::from_secs(4), FaultKind::NodeCrash(r)));
        sim.run_until(SimTime::from_secs(5));
        let crashed = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(crashed.links.len(), 1);
        assert!(crashed.group(g).unwrap().member_nodes.is_empty());
    }

    #[test]
    fn without_nodes_drops_the_subtree_and_rebases() {
        let view = spanning_view();
        let partial = view.without_nodes(&[NodeId(1)]);
        // Links touching node 1 vanish; 2 -> 3 survives.
        assert_eq!(partial.links.len(), 1);
        assert_eq!(partial.links[0].id, DirLinkId(2));
        let g = &partial.groups[0];
        assert_eq!(g.member_nodes, vec![NodeId(2), NodeId(3)]);
        // The surviving subtree's ingress becomes the root.
        assert_eq!(g.root, NodeId(2));
    }

    #[test]
    fn query_checked_honours_outage_windows() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(view_at(1));
        d.add_outage(SimTime::from_secs(5), SimTime::from_secs(8));
        assert!(matches!(d.query_checked(SimTime::from_secs(4)), Ok(Some(_))));
        assert!(matches!(d.query_checked(SimTime::from_secs(5)), Err(SnapshotError::Unavailable)));
        assert!(matches!(d.query_checked(SimTime::from_secs(7)), Err(SnapshotError::Unavailable)));
        assert!(matches!(d.query_checked(SimTime::from_secs(8)), Ok(Some(_))));
    }

    #[test]
    fn query_checked_partial_hides_the_subtree() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(spanning_view());
        d.add_partial_outage(SimTime::ZERO, SimTime::from_secs(10), vec![NodeId(3)]);
        match d.query_checked(SimTime::from_secs(2)) {
            Err(SnapshotError::Partial(v)) => {
                assert!(v.links.iter().all(|l| l.from != NodeId(3) && l.to != NodeId(3)));
                assert_eq!(v.groups[0].member_nodes, vec![NodeId(2)]);
            }
            other => panic!("expected a partial view, got {other:?}"),
        }
        // A cold start during a partial outage still reads as a cold start.
        let mut cold = DiscoveryTool::new(SimDuration::from_secs(30));
        cold.add_partial_outage(SimTime::ZERO, SimTime::from_secs(10), vec![NodeId(3)]);
        assert!(matches!(cold.query_checked(SimTime::from_secs(2)), Ok(None)));
    }

    #[test]
    fn restrict_with_no_active_links_uses_a_member_as_ingress() {
        let mut view = spanning_view();
        view.groups[0].active_links.clear();
        let domain = std::collections::HashSet::from([NodeId(3)]);
        let r = view.restrict(&domain);
        assert_eq!(r.groups[0].root, NodeId(3));
        assert!(r.links.is_empty());
    }
}
