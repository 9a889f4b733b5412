//! `controller_steady` and `controller_churn`: the standalone control
//! interval at 4,096 receivers.
//!
//! The domain is a balanced fanout-8 depth-4 tree (4,681 nodes, duplex
//! links numbered like `NetworkBuilder` numbers them) carrying one 6-layer
//! session. Each interval the benchmark generates, untimed, a
//! `TopologyView` whose per-layer groups follow every receiver's current
//! level, then times `SessionTree::build` → `run_incremental` →
//! `fingerprint_outputs`. Receivers adopt the suggested levels, 1 % of
//! reports change per interval, and under `Churn` a rotating 1 % of
//! receivers also leave each interval while the previous leavers rejoin at
//! the base layer, so routing changes every interval.

use std::time::Instant;

use netsim::{AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId, SimTime};
use scenarios::largetree::churn_fraction;
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState, ReceiverReport};
use toposense::{fingerprint_outputs, Config};
use traffic::LayerSpec;

use crate::{median, mix, percentile, secs, Budget, Opts, Outcome, STAGE_SPANS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Membership {
    Steady,
    Churn,
}

/// Share of reports (and, under churn, of receivers) changed per interval.
const CHURN: f64 = 0.01;
/// Intervals every run executes at least, and the traced run exactly.
const RUN_INTERVALS: usize = 100;
/// Intervals before the receivers' levels settle (from their seeded start
/// levels up to the suggestions): executed and checked, left out of the
/// interval statistics.
const WARMUP: u64 = 20;
/// How far the traced run's overlay + pipeline + fingerprint medians may
/// sit from the untraced `interval_ms_p50` before the record flags it.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// A balanced tree: node 0 is the root, nodes numbered breadth-first, the
/// edge into node `n` is the duplex pair `(2(n-1), 2(n-1)+1)`.
struct Domain {
    parent: Vec<u32>,
    links: Vec<LinkView>,
    leaves: Vec<NodeId>,
}

impl Domain {
    fn balanced(fanout: usize, depth: usize) -> Self {
        let mut parent = vec![u32::MAX];
        let mut links = Vec::new();
        let mut frontier = vec![0u32];
        let mut leaves = Vec::new();
        for level in 0..depth {
            let mut next = Vec::with_capacity(frontier.len() * fanout);
            for &p in &frontier {
                for _ in 0..fanout {
                    let n = parent.len() as u32;
                    parent.push(p);
                    let down = DirLinkId(links.len() as u32);
                    links.push(LinkView { id: down, from: NodeId(p), to: NodeId(n) });
                    links.push(LinkView {
                        id: DirLinkId(down.0 + 1),
                        from: NodeId(n),
                        to: NodeId(p),
                    });
                    if level + 1 == depth {
                        leaves.push(NodeId(n));
                    }
                    next.push(n);
                }
            }
            frontier = next;
        }
        Domain { parent, links, leaves }
    }

    /// The discovery view when leaf `i` subscribes `levels[i]` layers
    /// (0 = not a member): layer `k`'s group spans every link leading to a
    /// receiver above level `k`.
    fn view(&self, levels: &[u8], layers: usize, now: SimTime) -> TopologyView {
        let n = self.parent.len();
        let mut sub_max = vec![0u8; n];
        for (i, leaf) in self.leaves.iter().enumerate() {
            sub_max[leaf.index()] = levels[i];
        }
        // Children are numbered after their parents: one reverse sweep.
        for v in (1..n).rev() {
            let p = self.parent[v] as usize;
            sub_max[p] = sub_max[p].max(sub_max[v]);
        }
        let groups = (0..layers)
            .map(|k| GroupSnapshot {
                group: GroupId(k as u32),
                root: NodeId(0),
                active_links: (1..n)
                    .filter(|&v| sub_max[v] as usize > k)
                    .map(|v| DirLinkId(2 * (v as u32 - 1)))
                    .collect(),
                member_nodes: self
                    .leaves
                    .iter()
                    .zip(levels)
                    .filter(|&(_, &l)| l as usize > k)
                    .map(|(&node, _)| node)
                    .collect(),
            })
            .collect();
        TopologyView { time: now, links: self.links.clone(), groups }
    }
}

/// The receivers' side of the loop: levels, reports, membership.
struct Audience {
    /// Current level per receiver; 0 while it is away.
    levels: Vec<u8>,
    /// One report per receiver (bytes toggled by `churn_fraction`).
    reports: Vec<ReceiverReport>,
    leavers: Vec<usize>,
    churn_offset: u64,
}

impl Audience {
    fn new(domain: &Domain, seed: u64) -> Self {
        let levels: Vec<u8> =
            (0..domain.leaves.len()).map(|i| 1 + (mix(seed, i as u64) % 3) as u8).collect();
        let reports = domain
            .leaves
            .iter()
            .enumerate()
            .map(|(i, &node)| ReceiverReport {
                receiver: AppId(1000 + i as u32),
                node,
                session: SessionId(0),
                level: levels[i],
                received: 100,
                lost: 0,
                bytes: 25_000,
            })
            .collect();
        Audience { levels, reports, leavers: Vec::new(), churn_offset: mix(seed, 0x6368_7572) }
    }

    /// Advance membership and reports to interval `t`; returns this
    /// interval's registry and reports (present receivers only).
    fn step(
        &mut self,
        t: u64,
        membership: Membership,
    ) -> (Vec<(AppId, NodeId, SessionId)>, Vec<ReceiverReport>) {
        let n = self.levels.len();
        if membership == Membership::Churn {
            // Last interval's leavers rejoin at the base layer; a rotating,
            // stride-spread 1 % leaves.
            for &i in &self.leavers {
                self.levels[i] = 1;
            }
            let k = ((n as f64 * CHURN).round() as usize).max(1);
            let stride = (n / k).max(1);
            let offset = ((t + self.churn_offset) % stride as u64) as usize;
            self.leavers = (0..k).map(|j| offset + j * stride).filter(|&i| i < n).collect();
            for &i in &self.leavers {
                self.levels[i] = 0;
            }
        }
        churn_fraction(&mut self.reports, CHURN, t.wrapping_add(self.churn_offset));
        let mut registry = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for (r, &level) in self.reports.iter_mut().zip(&self.levels) {
            if level > 0 {
                r.level = level;
                registry.push((r.receiver, r.node, r.session));
                reports.push(*r);
            }
        }
        (registry, reports)
    }

    /// Receivers adopt the controller's suggestions.
    fn follow(&mut self, out: &AlgorithmOutputs) {
        for s in &out.suggestions {
            let i = (s.receiver.0 - 1000) as usize;
            if self.levels[i] > 0 {
                self.levels[i] = s.level;
            }
        }
    }
}

/// One suggestion per registered receiver, in registry order, each a valid
/// level; one root supply for the one session.
fn check_outputs(
    out: &AlgorithmOutputs,
    registry: &[(AppId, NodeId, SessionId)],
    max_level: u8,
) -> Result<(), String> {
    if out.suggestions.len() != registry.len() {
        return Err(format!(
            "{} suggestions for {} receivers",
            out.suggestions.len(),
            registry.len()
        ));
    }
    if let Some((s, r)) =
        out.suggestions.iter().zip(registry).find(|(s, r)| {
            s.receiver != r.0 || s.session != r.2 || s.level == 0 || s.level > max_level
        })
    {
        return Err(format!("suggestion {s:?} for registry entry {r:?}"));
    }
    if out.root_supply.len() != 1 {
        return Err(format!("{} root supplies for one session", out.root_supply.len()));
    }
    Ok(())
}

struct Shape {
    fanout: usize,
    depth: usize,
    deep_depth: usize,
    warmup: u64,
    /// Intervals after warm-up: at least this many per timed run, exactly
    /// this many in the traced run.
    intervals: usize,
}

fn shape(opts: &Opts) -> Shape {
    if opts.smoke {
        Shape { fanout: 3, depth: 3, deep_depth: 4, warmup: 2, intervals: 10 }
    } else {
        Shape { fanout: 8, depth: 4, deep_depth: 5, warmup: WARMUP, intervals: RUN_INTERVALS }
    }
}

const GROUPS: [GroupId; 6] =
    [GroupId(0), GroupId(1), GroupId(2), GroupId(3), GroupId(4), GroupId(5)];

fn inputs<'a>(
    t: u64,
    cfg: &Config,
    trees: &'a [SessionTree],
    specs: &'a [&'a LayerSpec],
    registry: &'a [(AppId, NodeId, SessionId)],
    reports: &'a [ReceiverReport],
) -> AlgorithmInputs<'a> {
    AlgorithmInputs {
        now: SimTime::ZERO + cfg.interval * t,
        interval: cfg.interval,
        trees,
        specs,
        registry,
        reports,
    }
}

/// The set-up: the domain, the audience and the first view, with its wall.
fn setup(s: &Shape, seed: u64, layers: usize) -> (f64, Domain, Audience) {
    let t = Instant::now();
    let domain = Domain::balanced(s.fanout, s.depth);
    let audience = Audience::new(&domain, seed);
    std::hint::black_box(domain.view(&audience.levels, layers, SimTime::ZERO));
    (secs(t), domain, audience)
}

fn overlay(view: &TopologyView, layers: usize) -> SessionTree {
    SessionTree::build(view, SessionId(0), &GROUPS[..layers]).expect("generated view is a tree")
}

pub fn run(opts: &Opts, membership: Membership) -> Outcome {
    let s = shape(opts);
    let spec = LayerSpec::paper_default();
    let layers = spec.layer_count();
    assert!(layers <= GROUPS.len());
    let cfg = Config::default();
    let mut out = Outcome::default();

    let (first_setup, domain, audience) = setup(&s, opts.seed, layers);
    let algo_seed = mix(opts.seed, 0x616c_676f);
    let deadline = cfg.interval.as_secs_f64();

    if opts.trace {
        traced(opts, &s, membership, &domain, audience, &spec, cfg, algo_seed, &mut out);
        return out;
    }

    let mut audience = audience;
    let mut state = AlgorithmState::new(cfg, algo_seed);
    let specs = [&spec];
    let mut walls = Vec::new();
    let mut fallbacks = 0u64;
    let mut setups = vec![first_setup];
    let mut budget = Budget::new(opts.seconds, s.warmup as usize + s.intervals);
    let mut t = 0u64;
    while budget.another() {
        t += 1;
        let (mut registry, reports) = audience.step(t, membership);
        let view = domain.view(&audience.levels, layers, SimTime::ZERO + cfg.interval * t);

        let start = Instant::now();
        let trees = [overlay(&view, layers)];
        let outputs = state.run_incremental(&inputs(t, &cfg, &trees, &specs, &registry, &reports));
        let fp = fingerprint_outputs(&outputs);
        let wall = secs(start);

        std::hint::black_box(fp);
        fallbacks += !outputs.incremental as u64;
        if opts.corrupt && t == 3 {
            registry[0].0 = AppId(u32::MAX);
        }
        let checked = check_outputs(&outputs, &registry, spec.max_level());
        out.op(checked.is_ok() && wall <= deadline, || match checked {
            Err(e) => format!("interval {t}: {e}"),
            Ok(()) => format!("interval {t}: {wall:.3} s overran the {deadline} s interval"),
        });
        if t > s.warmup {
            walls.push(wall);
        }
        audience.follow(&outputs);
        // One set-up takes a few tenths of a millisecond: repeating it after
        // every interval spreads its samples over the whole run, so the
        // median does not hinge on one moment of the host's speed.
        setups.push(setup(&s, opts.seed, layers).0);
    }
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.metric("setup_s", median(&setups), "s");
    // The fastest interval: the host's slow phases (README) move the
    // median by more than any bound allows; the minimum holds steady.
    out.metric("op_ms_min", ms.iter().copied().fold(f64::INFINITY, f64::min), "ms");
    out.note(
        "samples",
        format!("{{\"setups\": {}, \"intervals\": {}}}", setups.len(), walls.len()),
    );
    out.note_op_percentiles(&ms);
    out.note("full_fallbacks", fallbacks.to_string());
    out.note("sharded_workers", "null".into());
    out
}

/// The traced run, with a fixed interval count so counts repeat exactly.
///
/// Four controller states see the same inputs each interval, back to back,
/// so host slow phases hit them alike:
/// * the untraced state times its interval as one span, the base for
///   `interval_ms_p50`/`_p90` and the tracing overhead; its fingerprints and
///   fallbacks must repeat the traced state's exactly;
/// * the traced state times overlay, pipeline and fingerprint separately;
/// * an audited incremental state yields the per-stage spans;
/// * a full-path state driven through `run` is the oracle: its output
///   fingerprint must equal the incremental one every interval.
///
/// Then one overlay build at the next depth (32,768 receivers).
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    s: &Shape,
    membership: Membership,
    domain: &Domain,
    mut audience: Audience,
    spec: &LayerSpec,
    cfg: Config,
    algo_seed: u64,
    out: &mut Outcome,
) {
    let layers = spec.layer_count();
    let specs = [spec];
    let n = s.intervals;
    let mut untraced = AlgorithmState::new(cfg, algo_seed);
    let mut a = AlgorithmState::new(cfg, algo_seed);
    let mut audited = AlgorithmState::new(cfg, algo_seed);
    let mut full = AlgorithmState::new(cfg, algo_seed);
    let (mut base_ms, mut overlay_ms, mut pipeline_ms, mut fp_ms, mut share, mut traced_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGE_SPANS.len()];
    let (mut incremental, mut slots, mut suggestions) = (0u64, 0u64, 0u64);
    let (mut fallbacks, mut untraced_fallbacks) = (0u64, 0u64);
    for t in 1..=s.warmup + n as u64 {
        let (registry, reports) = audience.step(t, membership);
        let view = domain.view(&audience.levels, layers, SimTime::ZERO + cfg.interval * t);

        let start = Instant::now();
        let trees = [overlay(&view, layers)];
        let ou = untraced.run_incremental(&inputs(t, &cfg, &trees, &specs, &registry, &reports));
        let fpu = fingerprint_outputs(&ou);
        let base = secs(start);

        let t0 = Instant::now();
        let trees = [overlay(&view, layers)];
        let t1 = Instant::now();
        let inp = inputs(t, &cfg, &trees, &specs, &registry, &reports);
        let o = a.run_incremental(&inp);
        let t2 = Instant::now();
        let fp = fingerprint_outputs(&o);
        let t3 = Instant::now();
        let (ov, pl, fpt) =
            ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64());

        let mut audit = telemetry::IntervalAudit::new(t, inp.now.nanos());
        let ta = Instant::now();
        let oa = audited.run_incremental_audited(&inp, Some(&mut audit));
        let audited_s = secs(ta);
        let mut full_fp = fingerprint_outputs(&full.run(&inp));
        if opts.corrupt && t == 3 {
            full_fp ^= 1;
        }

        if t > s.warmup {
            base_ms.push(base * 1e3);
            overlay_ms.push(ov * 1e3);
            pipeline_ms.push(pl * 1e3);
            fp_ms.push(fpt * 1e3);
            share.push(ov / (ov + pl + fpt));
            traced_ms.push((ov + audited_s + fpt) * 1e3);
            for (k, (_, span)) in STAGE_SPANS.iter().enumerate() {
                let ns: u64 =
                    audit.stage_ns.iter().filter(|(st, _)| st == span).map(|&(_, ns)| ns).sum();
                stage_ms[k].push(ns as f64 / 1e6);
            }
            incremental += o.incremental as u64;
            slots += o.slots_recomputed;
            suggestions += o.suggestions.len() as u64;
        }
        fallbacks += !o.incremental as u64;
        untraced_fallbacks += !ou.incremental as u64;
        let checked = check_outputs(&o, &registry, spec.max_level());
        let oracle = full_fp == fp && fingerprint_outputs(&oa) == fp;
        let repeats = fpu == fp && ou.incremental == o.incremental;
        out.op(checked.is_ok() && oracle && repeats, || match checked {
            Err(e) => format!("interval {t}: {e}"),
            Ok(()) if !oracle => format!("interval {t}: full-path or audited fingerprint differs"),
            Ok(()) => format!("interval {t}: untraced state diverged"),
        });
        audience.follow(&o);
    }
    if fallbacks != untraced_fallbacks {
        out.op(false, || format!("fallbacks {fallbacks} traced vs {untraced_fallbacks} untraced"));
    }

    // The overlay at the next depth, all receivers on every layer.
    let deep = Domain::balanced(s.fanout, s.deep_depth);
    let levels = vec![spec.max_level(); deep.leaves.len()];
    let view = deep.view(&levels, layers, SimTime::ZERO);
    let t = Instant::now();
    let tree = overlay(&view, layers);
    let deep_ms = secs(t) * 1e3;

    let nf = n as f64;
    let interval_p50 = median(&base_ms);
    let sum = median(&overlay_ms) + median(&pipeline_ms) + median(&fp_ms);
    out.metric("interval_ms_p50", interval_p50, "ms");
    out.metric("interval_ms_p90", percentile(&base_ms, 90.0), "ms");
    out.metric("run_s", base_ms.iter().sum::<f64>() / 1e3, "s");
    out.metric("topology.overlay_ms", median(&overlay_ms), "ms");
    out.metric("topology.overlay_share", median(&share), "ratio");
    out.metric("topology.overlay_ms_deep", deep_ms, "ms");
    out.metric("toposense.pipeline_ms", median(&pipeline_ms), "ms");
    for (k, (metric, _)) in STAGE_SPANS.iter().enumerate() {
        out.metric(metric, median(&stage_ms[k]), "ms");
    }
    out.metric("toposense.incremental_frac", incremental as f64 / nf, "ratio");
    out.metric("toposense.slots_per_interval", slots as f64 / nf, "count");
    out.metric("toposense.suggestions_per_interval", suggestions as f64 / nf, "count");
    out.metric("toposense.fingerprint_ms", median(&fp_ms), "ms");
    out.metric("toposense.layer_sum_ratio", sum / interval_p50, "ratio");
    out.metric("telemetry.trace_overhead", median(&traced_ms) / interval_p50, "ratio");

    out.note(
        "samples",
        format!("{{\"warmup_intervals\": {}, \"intervals\": {n}, \"deep_overlays\": 1}}", s.warmup),
    );
    out.note("deep_slots", tree.tree().len().to_string());
    out.note("deep_receivers", deep.leaves.len().to_string());
    out.note("full_fallbacks", fallbacks.to_string());
    out.note("layer_sum_tolerance", format!("{LAYER_SUM_TOLERANCE:?}"));
    out.note(
        "layer_sum_within_tolerance",
        ((sum / interval_p50 - 1.0).abs() <= LAYER_SUM_TOLERANCE).to_string(),
    );
    out.note("sharded_workers", "null".into());
}
