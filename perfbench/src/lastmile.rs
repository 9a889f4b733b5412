//! `lastmile_closed_loop`: packets, receivers and the in-loop controller
//! closing the loop as in the paper.
//!
//! One op is one `scenarios::runner::run` of the heterogeneous last-mile
//! domain (fanout 10 × depth 2: 111 nodes, 100 TopoSense receivers in five
//! access-link classes, one 6-layer CBR session, controller at the root)
//! for 60 simulated seconds (30 control intervals). An op lasts some 50 ms
//! with its set-up, so a run holds hundreds to take the fastest from. At
//! 1,000 receivers an op spent 0.75 s in the oracle alone, and the fastest
//! of the twenty-odd ops a run could hold moved by over a fifth from run to
//! run (README). The paper's quality measure goes into the record.
//!
//! The scenario seed is pinned to 1 rather than drawn from `--seed`: it
//! changes the traffic, and with it both the work of an op and the paper's
//! quality measure (0.14–0.39 over nine seeds at 1,000 receivers and 300
//! simulated seconds). Pinned, it repeats exactly, so every op of every run
//! must reproduce the same fingerprint and deviation.

use std::time::Instant;

use netsim::{SimDuration, SimTime};
use scenarios::largetree::heterogeneous_lastmile;
use scenarios::{Scenario, ScenarioResult};
use traffic::TrafficModel;

use crate::{median, mix, secs, Budget, Opts, Outcome, STAGE_SPANS};

const LASTMILE_KBPS: [f64; 5] = [64.0, 128.0, 256.0, 512.0, 1024.0];

struct Shape {
    fanout: usize,
    depth: usize,
    duration_s: u64,
}

fn shape(opts: &Opts) -> Shape {
    if opts.smoke {
        Shape { fanout: 3, depth: 2, duration_s: 20 }
    } else {
        Shape { fanout: 10, depth: 2, duration_s: 60 }
    }
}

const SCENARIO_SEED: u64 = 1;

fn scenario(s: &Shape) -> Scenario {
    let topo = heterogeneous_lastmile(s.fanout, s.depth, &LASTMILE_KBPS);
    Scenario::new(topo, TrafficModel::Cbr, SCENARIO_SEED)
        .with_duration(SimDuration::from_secs(s.duration_s))
}

/// Events, drops, suggestions sent and every receiver's final level.
fn fingerprint(r: &ScenarioResult) -> u64 {
    let mut h = mix(r.events, r.total_drops);
    h = mix(h, r.controller.as_ref().map_or(u64::MAX, |c| c.suggestions_sent));
    for rx in &r.receivers {
        h = mix(h, rx.stats.final_level() as u64);
    }
    h
}

/// Mean relative deviation from the oracle optimum over the second half.
fn rel_deviation(r: &ScenarioResult, s: &Shape) -> Option<f64> {
    let end = SimTime::from_secs(s.duration_s);
    r.mean_relative_deviation(SimTime::from_secs(s.duration_s / 2), end)
}

/// One op: build (spec + runner setup) and run. `None` when the runner
/// panicked — its post-run multicast audit is an assertion.
fn one_op(s: &Shape, telemetry: Option<telemetry::Telemetry>) -> Option<(f64, ScenarioResult)> {
    let t = Instant::now();
    let mut sc = scenario(s);
    let spec_s = secs(t);
    if let Some(tel) = telemetry {
        sc = sc.with_telemetry(tel);
    }
    let r = std::panic::catch_unwind(|| scenarios::run(&sc)).ok()?;
    Some((spec_s + r.setup_wall_ns as f64 / 1e9, r))
}

fn check(r: &ScenarioResult, s: &Shape) -> Result<(), String> {
    let receivers = s.fanout.pow(s.depth as u32);
    if r.receivers.len() != receivers {
        return Err(format!("{} receivers, expected {receivers}", r.receivers.len()));
    }
    if r.controller.as_ref().is_none_or(|c| c.intervals == 0) {
        return Err("controller ran no interval".into());
    }
    if rel_deviation(r, s).is_none() {
        return Err("relative deviation undefined".into());
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Outcome {
    let s = shape(opts);
    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, &s, &mut out);
        return out;
    }
    let (mut setup, mut run_s, mut dev) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    let mut reference = None;
    let mut budget = Budget::new(opts.seconds, if opts.corrupt { 2 } else { 1 });
    while budget.another() {
        let op = out.attempted;
        let Some((setup_s, r)) = one_op(&s, None) else {
            out.op(false, || format!("op {op}: runner panicked (multicast audit)"));
            continue;
        };
        let mut fp = fingerprint(&r);
        if opts.corrupt && op == 1 {
            fp ^= 1;
        }
        let repeat = *reference.get_or_insert(fp) == fp;
        let checked = check(&r, &s);
        out.op(repeat && checked.is_ok(), || match checked {
            Err(e) => format!("op {op}: {e}"),
            Ok(()) => format!("op {op}: fingerprint {fp:#x} differs from op 0"),
        });
        setup.push(setup_s);
        run_s.push(r.run_wall_ns as f64 / 1e9);
        events = r.events;
        dev.extend(rel_deviation(&r, &s));
    }
    if dev.is_empty() {
        return out;
    }
    let fastest = run_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", median(&setup), "s");
    out.metric("op_ms_min", fastest * 1e3, "ms");
    out.note("samples", format!("{{\"ops\": {}}}", setup.len()));
    out.note_op_percentiles(&run_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    out.note("events_per_s_fastest_op", format!("{:?}", events as f64 / fastest));
    out.note("rel_deviation", format!("{:?}", median(&dev)));
    out.note("scenario_seed", SCENARIO_SEED.to_string());
    out.note("fingerprint", format!("\"{:#x}\"", reference.unwrap_or(0)));
    out.note("sharded_workers", "null".into());
    out
}

/// The traced run: a warm-up op, one untraced op as the overhead base, then
/// one op with `Telemetry::memory()` attached, plus the oracle timed on its
/// own.
fn traced(opts: &Opts, s: &Shape, out: &mut Outcome) {
    std::hint::black_box(one_op(s, None));
    let base = one_op(s, None);
    let (tel, sink) = telemetry::Telemetry::memory();
    let traced = one_op(s, Some(tel.clone()));
    let (Some((_, base)), Some((_, r))) = (base, traced) else {
        out.op(false, || "runner panicked (multicast audit)".into());
        return;
    };
    // The traced op must be a pure observer of the untraced one.
    let (fa, mut fb) = (fingerprint(&base), fingerprint(&r));
    if opts.corrupt {
        fb ^= 1;
    }
    let checked = check(&r, s);
    out.op(fa == fb && checked.is_ok(), || match checked {
        Err(e) => e,
        Ok(()) => format!("traced fingerprint {fb:#x} differs from untraced {fa:#x}"),
    });

    // Setup split: the oracle on its own.
    let sc = scenario(s);
    let t = Instant::now();
    let optima = baselines::oracle::optimal_levels(&sc.topo, &sc.layers, 1.0);
    let oracle_s = secs(t);
    std::hint::black_box(optima);

    let p = &r.profile;
    let events = p.events_total.max(1) as f64;
    let run_ns = r.run_wall_ns as f64;
    out.metric("netsim.ns_per_event", run_ns / events, "ns");
    out.metric(
        "netsim.link_event_share",
        (p.ev_link_tx_done + p.ev_link_deliver) as f64 / events,
        "ratio",
    );
    out.metric("netsim.ev_timer", p.ev_timer as f64, "count");
    out.metric("netsim.ev_inject", p.ev_inject as f64, "count");
    out.metric("netsim.drops_queue_full", p.drops_queue_full as f64, "count");
    out.metric(
        "netsim.wheel.cascaded_per_event",
        p.wheel.cascaded_entries as f64 / events,
        "ratio",
    );
    out.metric("netsim.wheel.lazy_sorts", p.wheel.lazy_sorts as f64, "count");
    out.metric("netsim.pending_events_hwm", p.pending_events_hwm as f64, "count");
    out.metric("netsim.slab_hwm", p.slab_hwm as f64, "count");
    // One simulator, no barrier: the shard counters read zero here, which
    // is the prediction a sharding change must leave intact.
    out.metric("netsim.shard.handoffs", p.shard_handoffs as f64, "count");
    out.metric("netsim.shard.barrier_epochs", p.shard_barrier_epochs as f64, "count");
    out.metric("baselines.oracle_s", oracle_s, "s");
    out.metric("scenarios.harvest_s", r.harvest_wall_ns as f64 / 1e9, "s");

    // The in-loop controller, from its shared stats and counters.
    let ctrl = r.controller.as_ref().expect("checked above");
    let counters = tel.counters_snapshot();
    let counter =
        |name: &str| counters.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v as f64);
    out.metric("control.intervals", ctrl.intervals as f64, "count");
    out.metric("control.suggestions_sent", ctrl.suggestions_sent as f64, "count");
    out.metric("control.full_fallbacks", counter("controller.full_fallbacks"), "count");
    out.metric("control.bytes", r.control_bytes as f64, "B");

    // Kernel spans the in-loop controller recorded through its audit.
    let timers = tel.timers_snapshot();
    let mean_ms = |name: &str| {
        timers
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.sum_ns as f64 / t.count.max(1) as f64 / 1e6)
    };
    out.metric("toposense.pipeline_ms", mean_ms("interval"), "ms");
    for (metric, span) in STAGE_SPANS {
        out.metric(metric, mean_ms(span), "ms");
    }
    out.metric("telemetry.trace_overhead", run_ns / base.run_wall_ns.max(1) as f64, "ratio");
    out.metric("run_s", base.run_wall_ns as f64 / 1e9, "s");
    out.metric("events_per_s", base.events_per_sec(), "1/s");

    out.note(
        "samples",
        format!(
            "{{\"ops\": 2, \"audited_intervals\": {}, \"audit_records\": {}}}",
            timers.iter().find(|t| t.name == "interval").map_or(0, |t| t.count),
            sink.len()
        ),
    );
    out.note("fingerprint", format!("\"{fa:#x}\""));
    out.note("sharded_workers", "null".into());
}
