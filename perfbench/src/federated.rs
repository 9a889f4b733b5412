//! `federated_sharded`: the only path that spreads packet events over
//! cores.
//!
//! One op builds `federated_media_sharded` (4 domains × fanout 10 × depth
//! 4: 40,000 leaves, 20,000 sinks, 100 pps core feed, 20 ms handoffs on the
//! calendar wheel) and advances it in 100 ms simulated slices for 2
//! simulated seconds, about a second of wall, so a run holds enough ops for
//! its fastest to be steady (README). The world has no random input: the
//! seed is recorded but changes nothing, so every op must reproduce the
//! same events and per-domain deliveries.

use std::sync::atomic::Ordering;
use std::time::Instant;

use netsim::{QueueBackend, ShardedSim, SimDuration, SimTime};
use scenarios::largetree::{federated_media_sharded, federated_media_world, FederationWorldParams};

use crate::{median, mix, percentile, secs, Budget, Opts, Outcome};

fn params(opts: &Opts) -> (FederationWorldParams, u64) {
    let (domains, fanout, depth, sim_s) = if opts.smoke { (2, 3, 2, 1) } else { (4, 10, 4, 2) };
    let p = FederationWorldParams {
        domains,
        fanout,
        depth,
        sink_stride: 2,
        rate_pps: 100,
        handoff_delay: SimDuration::from_millis(20),
        backend: QueueBackend::CalendarWheel,
        trace_cap: 0,
    };
    (p, sim_s)
}

const SLICE: SimDuration = SimDuration(100_000_000);

/// Advance `sim` to `until` in 100 ms slices; returns each slice's wall.
fn advance(sim: &mut ShardedSim, until: SimTime) -> Vec<f64> {
    let mut walls = Vec::new();
    while sim.now() < until {
        let t = Instant::now();
        sim.run_until(until.min(sim.now() + SLICE));
        walls.push(secs(t));
    }
    walls
}

/// Events and per-domain deliveries: what the oracle twin must match.
fn fingerprint(events: u64, delivered: &[u64]) -> u64 {
    delivered.iter().fold(mix(0, events), |h, &d| mix(h, d))
}

/// Post-run invariants of every shard (SoA multicast state).
fn audit(sim: &ShardedSim) -> Result<(), String> {
    (0..sim.shard_count()).try_for_each(|i| sim.shard(i).network().multicast_audit())
}

pub fn run(opts: &Opts) -> Outcome {
    let (p, sim_s) = params(opts);
    let end = SimTime::from_secs(sim_s);
    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, p, end, &mut out);
        return out;
    }
    let (mut setup, mut run_s) = (Vec::new(), Vec::new());
    let mut reference = None;
    let mut workers = 0;
    let mut budget = Budget::new(opts.seconds, if opts.corrupt { 2 } else { 1 });
    while budget.another() {
        let op = out.attempted;
        let t = Instant::now();
        let mut w = federated_media_sharded(p);
        setup.push(secs(t));
        workers = w.sharded.workers();
        run_s.push(advance(&mut w.sharded, end).iter().sum::<f64>());
        let events = w.sharded.events_processed();
        let delivered: Vec<u64> = w.delivered.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let mut fp = fingerprint(events, &delivered);
        if opts.corrupt && op == 1 {
            fp ^= 1;
        }
        let audited = audit(&w.sharded);
        let delivering = delivered.iter().all(|&d| d > 0);
        let repeat = *reference.get_or_insert(fp) == fp;
        out.op(audited.is_ok() && delivering && repeat, || match audited {
            Err(e) => format!("op {op}: multicast audit: {e}"),
            Ok(()) if !delivering => format!("op {op}: a domain delivered nothing"),
            Ok(()) => format!("op {op}: fingerprint {fp:#x} differs from op 0"),
        });
    }
    out.metric("setup_s", median(&setup), "s");
    out.metric("op_ms_min", run_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3, "ms");
    out.note("samples", format!("{{\"ops\": {}}}", setup.len()));
    out.note_op_percentiles(&run_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    out.note("fingerprint", format!("\"{:#x}\"", reference.unwrap_or(0)));
    out.note("sharded_workers", workers.to_string());
    out
}

/// The traced run: a warm-up op, an untraced op as the overhead base, then
/// the oracle twin world with structured tracing on. The sharded half and
/// the sequential oracle run the same slices; events and per-domain
/// deliveries must match, and their wall ratio is the recorded speed-up.
fn traced(opts: &Opts, mut p: FederationWorldParams, end: SimTime, out: &mut Outcome) {
    // Warm-up: the first op in a process runs cold and would inflate the base.
    advance(&mut federated_media_sharded(p).sharded, end);
    let t = Instant::now();
    let mut base = federated_media_sharded(p);
    let build_s = secs(t);
    let base_wall: f64 = advance(&mut base.sharded, end).iter().sum();
    let base_events = base.sharded.events_processed();
    drop(base);

    p.trace_cap = 1 << 16;
    let mut w = federated_media_world(p);
    let workers = w.sharded.workers();
    let slices = advance(&mut w.sharded, end);
    let sharded_wall: f64 = slices.iter().sum();
    let t = Instant::now();
    while w.oracle.now() < end {
        let next = end.min(w.oracle.now() + SLICE);
        w.oracle.run_until(next);
    }
    let oracle_wall = secs(t);

    let load = |c: &[std::sync::Arc<std::sync::atomic::AtomicU64>]| -> Vec<u64> {
        c.iter().map(|d| d.load(Ordering::Relaxed)).collect()
    };
    let mut oracle_events = w.oracle.events_processed();
    if opts.corrupt {
        oracle_events += 1;
    }
    let sharded_fp = fingerprint(w.sharded.events_processed(), &load(&w.delivered_sharded));
    let oracle_fp = fingerprint(oracle_events, &load(&w.delivered_oracle));
    let audited = audit(&w.sharded);
    out.op(audited.is_ok() && sharded_fp == oracle_fp, || match audited {
        Err(e) => format!("multicast audit: {e}"),
        Ok(()) => "sharded events/deliveries differ from the sequential oracle".into(),
    });

    let prof = w.sharded.profile();
    let events = prof.events_total.max(1) as f64;
    out.metric("netsim.ns_per_event", sharded_wall * 1e9 / events, "ns");
    out.metric(
        "netsim.link_event_share",
        (prof.ev_link_tx_done + prof.ev_link_deliver) as f64 / events,
        "ratio",
    );
    out.metric("netsim.ev_timer", prof.ev_timer as f64, "count");
    out.metric("netsim.ev_inject", prof.ev_inject as f64, "count");
    out.metric("netsim.drops_queue_full", prof.drops_queue_full as f64, "count");
    out.metric(
        "netsim.wheel.cascaded_per_event",
        prof.wheel.cascaded_entries as f64 / events,
        "ratio",
    );
    out.metric("netsim.wheel.lazy_sorts", prof.wheel.lazy_sorts as f64, "count");
    out.metric("netsim.pending_events_hwm", prof.pending_events_hwm as f64, "count");
    out.metric("netsim.slab_hwm", prof.slab_hwm as f64, "count");
    out.metric("netsim.shard.handoffs", prof.shard_handoffs as f64, "count");
    out.metric("netsim.shard.barrier_epochs", prof.shard_barrier_epochs as f64, "count");
    out.metric("netsim.shard.lookahead_stalls", prof.shard_lookahead_stalls as f64, "count");
    // Domain shards only: the core shard is nearly idle by design.
    let domain_events: Vec<f64> = (1..w.sharded.shard_count())
        .map(|i| w.sharded.shard(i).events_processed() as f64)
        .collect();
    let mean = domain_events.iter().sum::<f64>() / domain_events.len() as f64;
    let max = domain_events.iter().copied().fold(0.0, f64::max);
    out.metric("netsim.shard.imbalance", max / mean, "ratio");
    out.metric("netsim.shard.slice_ms_p50", median(&slices) * 1e3, "ms");
    out.metric("netsim.shard.speedup_vs_oracle", oracle_wall / sharded_wall, "ratio");
    out.metric("netsim.shard.workers", workers as f64, "count");
    out.metric("scenarios.world_build_s", build_s, "s");
    out.metric("telemetry.trace_overhead", sharded_wall / base_wall, "ratio");
    out.metric("run_s", base_wall, "s");
    out.metric("events_per_s", base_events as f64 / base_wall, "1/s");

    out.note(
        "samples",
        format!(
            "{{\"slices\": {}, \"slice_ms_p90\": {:?}}}",
            slices.len(),
            percentile(&slices, 90.0) * 1e3
        ),
    );
    out.note("sharded_workers", workers.to_string());
    out.note("speedup_workers", workers.to_string());
    out.note("oracle_wall_s", format!("{oracle_wall:?}"));
}
