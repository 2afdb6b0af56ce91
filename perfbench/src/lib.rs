//! The repository benchmark.
//!
//! One process drives the real stack: two `firefly-rpc` endpoints over
//! `UdpTransport::localhost()`, so every frame crosses the host loopback
//! interface (not a real link). Closed-loop caller threads (at most
//! two) share one `Client` and check every reply.
//!
//! A run is either untraced, reporting the end-to-end metrics, or
//! traced, reporting per-layer metrics measured from outside the
//! program: per-thread CPU by role, a counting `Transport` wrapper, a
//! timing `Service` wrapper, the endpoints' counters, the trace ring's
//! step account, and an isolated suite of per-layer microbenchmarks.
//! `perfbench/README.md` maps each per-layer metric to the end-to-end
//! metric and workload it should move.

pub mod drive;
pub mod layers;
pub mod probe;
pub mod stats;

use drive::{
    build_rig, run_slices, Boundary, Calls, Rig, RigOptions, Slice, SliceResult, Tamper, Window,
    Workload,
};
use firefly_metrics::Json;
use firefly_rpc::TraceReport;
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("calls_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("cpu_us_per_call", "us"),
    ("success_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("cpu.caller_us_per_call", "us"),
    ("cpu.caller_demux_us_per_call", "us"),
    ("cpu.server_demux_us_per_call", "us"),
    ("cpu.server_workers_us_per_call", "us"),
    ("server.slow_path_share", "fraction"),
    ("server.direct_wakeup_share", "fraction"),
    ("sync.wakeup_us", "us"),
    ("trace.server_handoff_us", "us"),
    ("trace.wire_server_wakeup_us", "us"),
    ("transport.send_calls_per_call", "count"),
    ("transport.frames_sent_per_call", "count"),
    ("transport.datagrams_received_per_call", "count"),
    ("transport.frames_per_datagram", "count"),
    ("transport.try_recv_hit_ratio", "fraction"),
    ("transport.send_ns", "ns"),
    ("transport.recv_wait_us", "us"),
    ("core.fragments_sent_per_call", "count"),
    ("core.acks_sent_per_call", "count"),
    ("core.retransmissions_per_call", "count"),
    ("server.dispatch_ns", "ns"),
    ("trace.server_dispatch_us", "us"),
    ("wire.checksum_74_ns", "ns"),
    ("wire.checksum_1514_ns", "ns"),
    ("wire.frame_build_74_ns", "ns"),
    ("wire.frame_build_1514_ns", "ns"),
    ("wire.frame_parse_74_ns", "ns"),
    ("wire.frame_parse_1514_ns", "ns"),
    ("idl.marshal_four_integers_ns", "ns"),
    ("idl.marshal_open_array_1440_ns", "ns"),
    ("idl.text_128_round_trip_ns", "ns"),
    ("idl.marshal_result_1440_ns", "ns"),
    ("pool.alloc_free_ns", "ns"),
    ("pool.recycle_take_ns", "ns"),
    ("calltable.register_deliver_ns", "ns"),
    ("pool.allocs_per_call", "count"),
    ("pool.high_water", "count"),
    ("pool.exhaustions", "count"),
    ("core.buffers_recycled_per_call", "count"),
    ("transport.udp_rtt_us", "us"),
    ("transport.udp_rtt_1514_us", "us"),
    ("trace.starter_us", "us"),
    ("trace.caller_marshal_us", "us"),
    ("trace.register_send_us", "us"),
    ("trace.caller_unmarshal_us", "us"),
    ("trace.ender_us", "us"),
    ("trace.result_send_us", "us"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("client.p99_us", "us"),
    ("client.p999_us", "us"),
    ("core.orphan_results", "count"),
    ("core.validation_drops", "count"),
    ("core.duplicate_calls", "count"),
    ("host.steal_frac", "fraction"),
];

/// Set-ups per untraced run; `setup_s` is their median. The first
/// builds the measured rig; half the rest run before the measured
/// slice and half after it, so the median spans two host states 30 s
/// apart rather than one instant. (Set-ups between measured slices
/// would restart the callers in lockstep, which moves `null_2c`.)
const SETUPS: usize = 41;
/// Untimed calling before any measured slice.
const WARMUP: Duration = Duration::from_millis(500);
/// Sub-window over which `calls_per_s` takes its median rate.
const WINDOW: Duration = Duration::from_millis(100);
/// Trace-ring capacity per endpoint in the traced run: enough for one
/// traced slice, so no record is overwritten before it is drained.
const TRACE_CAPACITY: usize = 1 << 16;

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to drive.
    pub workload: &'static Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Reply corruption, for the benchmark's own tests.
    pub tamper: Tamper,
}

/// A run's result: the reply-check verdict, call counts and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// No reply was wrong.
    pub correct: bool,
    /// Calls attempted in the measured window.
    pub attempted: u64,
    /// Of those, calls that errored, timed out or returned a wrong reply.
    pub failed: u64,
    /// Calls (measured or not) whose reply was wrong.
    pub mismatched: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host and noise stamp: nproc, CPU model, kernel, steal share.
    pub host: String,
}

impl Outcome {
    /// The share of attempted calls that failed.
    pub fn failed_frac(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut metrics = Json::obj();
        for &(name, value, unit) in &self.metrics {
            metrics = metrics.set(
                name,
                Json::obj()
                    .set("value", Json::num(value))
                    .set("unit", Json::str(unit)),
            );
        }
        Json::obj()
            .set("correct", Json::Bool(self.correct))
            .set("attempted", Json::num(self.attempted as f64))
            .set("failed", Json::num(self.failed as f64))
            .set("metrics", metrics)
            .to_string()
    }
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let calls = Calls::generate(opts.workload, opts.seed);
    let (values, counts, steal) = if opts.trace {
        traced(opts, &calls)?
    } else {
        end_to_end(opts, &calls)?
    };
    let catalogue: &[(&'static str, &'static str)] =
        if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((name, value, unit));
    }
    let (nproc, model, kernel) = probe::host_stamp();
    Ok(Outcome {
        correct: counts.mismatched == 0,
        attempted: counts.attempted,
        failed: counts.failed,
        mismatched: counts.mismatched,
        metrics,
        host: format!(
            "host: nproc={nproc} cpu=\"{model}\" kernel={kernel} steal_frac={steal:.4} \
             transport=udp-loopback"
        ),
    })
}

/// Call counts across a run's slices.
#[derive(Debug, Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

type Measured = (BTreeMap<&'static str, f64>, Counts, f64);

fn latency_us(sorted_ns: &[u64], q: f64) -> f64 {
    stats::quantile_sorted(sorted_ns, q) as f64 / 1e3
}

fn ticks_to_us(ticks: f64) -> f64 {
    ticks / probe::TICKS_PER_SEC * 1e6
}

/// The untraced run: set-ups, a warm-up, one measured slice, then the
/// remaining set-ups.
fn end_to_end(opts: &Options, calls: &Calls) -> Result<Measured, String> {
    let rig_options = RigOptions {
        tamper: opts.tamper,
        ..RigOptions::default()
    };
    let (rig, first) = build_rig(calls, opts.seed, rig_options)?;
    let mut setups = vec![first.as_secs_f64()];
    let mut set_up = |count: usize| -> Result<(), String> {
        for _ in 0..count {
            // The rig is torn down at once; only its set-up time counts.
            let (_, t) = build_rig(calls, opts.seed, rig_options)?;
            setups.push(t.as_secs_f64());
        }
        Ok(())
    };
    let before = (SETUPS - 1) / 2;
    set_up(before)?;

    let slices = [
        Slice {
            length: WARMUP,
            window: WARMUP,
            keep_raw: false,
        },
        Slice {
            length: Duration::from_secs(opts.seconds),
            window: WINDOW,
            keep_raw: false,
        },
    ];
    let mut warmup = SliceResult::default();
    let mut measured = SliceResult::default();
    run_slices(
        &rig.client,
        calls,
        opts.workload.callers,
        &slices,
        |boundary, _| match boundary {
            Boundary::Before(_) => {}
            Boundary::After(0, r) => warmup = r,
            Boundary::After(_, r) => measured = r,
        },
    );
    drop(rig);
    set_up(SETUPS - 1 - before)?;

    // Rate, latency and CPU come from the run's quiet windows: those in
    // which the hypervisor stole no more host CPU than in the quietest
    // tenth of the windows (every steal-free window, on a calm host).
    let steal: Vec<f64> = measured.windows.iter().map(|w| w.steal_share).collect();
    let threshold = stats::quantile(&steal, 0.1);
    let quiet: Vec<&Window> = measured
        .windows
        .iter()
        .filter(|w| w.steal_share <= threshold)
        .collect();
    let quiet_calls: u64 = quiet.iter().map(|w| w.completed).sum();
    let quiet_ticks: u64 = quiet.iter().map(|w| w.cpu_ticks).sum();
    let quiet_secs = quiet.len() as f64 * WINDOW.as_secs_f64();
    // Percentiles are per window, then averaged over the windows: the
    // stack switches between modes every second or so (two callers in
    // lockstep or out of phase), and an average moves in proportion to
    // the time spent in each, where a pooled percentile jumps between
    // them.
    let window_mean = |q: f64| {
        let per_window: Vec<f64> = quiet
            .iter()
            .filter(|w| !w.points.is_empty())
            .map(|w| stats::weighted_quantile(&mut w.points.clone(), q) as f64 / 1e3)
            .collect();
        stats::mean(&per_window)
    };
    let completed = measured.attempted - measured.failed;
    let mut m = BTreeMap::new();
    m.insert("calls_per_s", stats::ratio(quiet_calls as f64, quiet_secs));
    m.insert("p50_us", window_mean(0.5));
    m.insert("p90_us", window_mean(0.9));
    m.insert(
        "cpu_us_per_call",
        stats::ratio(ticks_to_us(quiet_ticks as f64), quiet_calls as f64),
    );
    m.insert(
        "success_frac",
        stats::ratio(completed as f64, measured.attempted as f64),
    );
    m.insert("peak_rss_mb", probe::peak_rss_kib() as f64 / 1024.0);
    m.insert("setup_s", stats::median(&setups));
    let counts = Counts {
        attempted: measured.attempted,
        failed: measured.failed,
        mismatched: measured.mismatched + warmup.mismatched,
    };
    Ok((m, counts, stats::mean(&steal)))
}

/// Named counters read from outside the program at a slice boundary.
#[derive(Debug, Default, Clone)]
struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn add(&mut self, key: &'static str, v: u64) {
        *self.0.entry(key).or_default() += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0) as f64
    }

    /// Adds `later - earlier` into `self`.
    fn accumulate(&mut self, earlier: &Counters, later: &Counters) {
        for (k, v) in &later.0 {
            let before = earlier.0.get(k).copied().unwrap_or(0);
            self.add(k, v.saturating_sub(before));
        }
    }

    fn read(rig: &Rig, callers: &std::collections::BTreeSet<u32>) -> Counters {
        let mut c = Counters::default();
        for t in &rig.transports {
            for (k, v) in t.counters() {
                c.add(k, v);
            }
        }
        for ep in [&rig.caller, &rig.server] {
            for (k, v) in ep.stats().snapshot() {
                c.add(k, v);
            }
            c.add("pool_allocs", ep.pool().stats().allocs());
        }
        for (k, v) in rig.server.stats().snapshot() {
            match k {
                "calls_received" => c.add("server_calls_received", v),
                "slow_path_queued" => c.add("server_slow_path_queued", v),
                "direct_wakeups" => c.add("server_direct_wakeups", v),
                _ => {}
            }
        }
        if let Some(t) = &rig.timed {
            c.add(
                "dispatch_calls",
                t.calls.load(std::sync::atomic::Ordering::Relaxed),
            );
            c.add(
                "dispatch_ns",
                t.ns.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
        let ticks = |tids: &mut dyn Iterator<Item = &u32>| -> u64 {
            tids.map(|&t| probe::thread_cpu_ticks(t)).sum()
        };
        c.add("cpu_caller", ticks(&mut callers.iter()));
        c.add(
            "cpu_caller_demux",
            ticks(&mut rig.caller_threads.demux.iter()),
        );
        c.add(
            "cpu_server_demux",
            ticks(&mut rig.server_threads.demux.iter()),
        );
        c.add(
            "cpu_server_workers",
            ticks(&mut rig.server_threads.workers.iter()),
        );
        c
    }
}

/// Mean of one step of a role's trace account, µs.
fn step_mean(steps: &[(&'static str, firefly_metrics::Histogram)], i: usize) -> f64 {
    steps.get(i).map(|(_, h)| h.mean()).unwrap_or(0.0)
}

/// The traced run: an instrumented rig, alternating untraced and traced
/// slices (the untraced ones give counters, CPU and the overhead
/// baseline), then the isolated layer suite.
fn traced(opts: &Options, calls: &Calls) -> Result<Measured, String> {
    let (rig, _) = build_rig(
        calls,
        opts.seed,
        RigOptions {
            instrumented: true,
            trace_capacity: TRACE_CAPACITY,
            tamper: opts.tamper,
        },
    )?;
    // Four fifths of the time on the stack, one fifth on the layer suite.
    let total = Duration::from_secs(opts.seconds);
    let pairs = opts.seconds.max(2) as u32;
    let slice = total * 4 / 5 / (2 * pairs);
    let mut slices = vec![Slice {
        length: WARMUP,
        window: WARMUP,
        keep_raw: false,
    }];
    slices.extend((0..2 * pairs).map(|_| Slice {
        length: slice,
        window: slice,
        keep_raw: true,
    }));
    let is_traced = |i: usize| i > 0 && i.is_multiple_of(2);

    let host0 = probe::HostCpu::read();
    let mut at_start = Counters::default();
    let mut untraced_totals = Counters::default();
    let mut untraced = SliceResult::default();
    let mut traced_calls = SliceResult::default();
    let mut report = TraceReport::empty();
    let mut warmup_mismatched = 0;
    let endpoints = [&rig.caller, &rig.server];
    run_slices(
        &rig.client,
        calls,
        opts.workload.callers,
        &slices,
        |boundary, callers| match boundary {
            Boundary::Before(i) => {
                if is_traced(i) {
                    for ep in endpoints {
                        // Discard anything recorded before this slice.
                        let _ = ep.trace_report();
                        ep.set_tracing(true);
                    }
                }
                at_start = Counters::read(&rig, callers);
            }
            Boundary::After(0, r) => warmup_mismatched = r.mismatched,
            Boundary::After(i, r) if is_traced(i) => {
                for ep in endpoints {
                    ep.set_tracing(false);
                    report.merge(&ep.trace_report());
                }
                traced_calls.merge(r);
            }
            Boundary::After(_, r) => {
                untraced_totals.accumulate(&at_start, &Counters::read(&rig, callers));
                untraced.merge(r);
            }
        },
    );
    let host1 = probe::HostCpu::read();
    let pool_high_water: u64 = endpoints
        .iter()
        .map(|ep| ep.pool().stats().high_water())
        .sum();
    let pool_exhaustions: u64 = endpoints
        .iter()
        .map(|ep| ep.pool().stats().exhaustions())
        .sum();
    drop(rig);

    let t = &untraced_totals;
    let n = (untraced.attempted - untraced.failed) as f64;
    let per_call = |key: &str| stats::ratio(t.get(key), n);
    let cpu = |key: &str| stats::ratio(ticks_to_us(t.get(key)), n);
    let mut lat = std::mem::take(&mut untraced.latencies_ns);
    lat.sort_unstable();
    let traced_ok: Vec<u64> = traced_calls
        .latencies_ns
        .iter()
        .copied()
        .filter(|&l| l != u64::MAX)
        .collect();
    let traced_mean_us = stats::ratio(
        traced_ok.iter().map(|&l| l as f64).sum::<f64>() / 1e3,
        traced_ok.len() as f64,
    );
    let mut traced_lat = traced_calls.latencies_ns.clone();
    traced_lat.sort_unstable();

    let mut m = BTreeMap::new();
    m.insert("cpu.caller_us_per_call", cpu("cpu_caller"));
    m.insert("cpu.caller_demux_us_per_call", cpu("cpu_caller_demux"));
    m.insert("cpu.server_demux_us_per_call", cpu("cpu_server_demux"));
    m.insert("cpu.server_workers_us_per_call", cpu("cpu_server_workers"));
    let received = t.get("server_calls_received");
    m.insert(
        "server.slow_path_share",
        stats::ratio(t.get("server_slow_path_queued"), received),
    );
    m.insert(
        "server.direct_wakeup_share",
        stats::ratio(t.get("server_direct_wakeups"), received),
    );
    let caller = &report.caller.steps;
    let server = &report.server.steps;
    m.insert("trace.starter_us", step_mean(caller, 0));
    m.insert("trace.caller_marshal_us", step_mean(caller, 1));
    m.insert("trace.register_send_us", step_mean(caller, 2));
    m.insert("trace.wire_server_wakeup_us", step_mean(caller, 3));
    m.insert("trace.caller_unmarshal_us", step_mean(caller, 4));
    m.insert("trace.ender_us", step_mean(caller, 5));
    m.insert("trace.server_handoff_us", step_mean(server, 0));
    m.insert("trace.server_dispatch_us", step_mean(server, 1));
    m.insert("trace.result_send_us", step_mean(server, 2));
    m.insert(
        "trace.coverage",
        stats::ratio(report.caller.accounted_mean_us(), traced_mean_us),
    );
    m.insert(
        "trace.overhead_frac",
        stats::ratio(latency_us(&traced_lat, 0.5), latency_us(&lat, 0.5)) - 1.0,
    );
    m.insert("transport.send_calls_per_call", per_call("send_calls"));
    m.insert("transport.frames_sent_per_call", per_call("frames_sent"));
    m.insert(
        "transport.datagrams_received_per_call",
        per_call("datagrams_received"),
    );
    m.insert(
        "transport.frames_per_datagram",
        stats::ratio(t.get("frames_received"), t.get("datagrams_received")),
    );
    m.insert(
        "transport.try_recv_hit_ratio",
        stats::ratio(t.get("try_recv_hits"), t.get("try_recv_attempts")),
    );
    m.insert(
        "transport.send_ns",
        stats::ratio(t.get("send_ns"), t.get("send_calls")),
    );
    m.insert(
        "transport.recv_wait_us",
        stats::ratio(t.get("recv_wait_ns") / 1e3, t.get("recv_calls")),
    );
    m.insert("core.fragments_sent_per_call", per_call("fragments_sent"));
    m.insert("core.acks_sent_per_call", per_call("acks_sent"));
    m.insert("core.retransmissions_per_call", per_call("retransmissions"));
    m.insert(
        "core.buffers_recycled_per_call",
        per_call("buffers_recycled"),
    );
    m.insert(
        "server.dispatch_ns",
        stats::ratio(t.get("dispatch_ns"), t.get("dispatch_calls")),
    );
    m.insert("pool.allocs_per_call", per_call("pool_allocs"));
    m.insert("pool.high_water", pool_high_water as f64);
    m.insert("pool.exhaustions", pool_exhaustions as f64);
    m.insert("client.p99_us", latency_us(&lat, 0.99));
    m.insert("client.p999_us", latency_us(&lat, 0.999));
    m.insert("core.orphan_results", t.get("orphan_results"));
    m.insert("core.validation_drops", t.get("validation_drops"));
    m.insert("core.duplicate_calls", t.get("duplicate_calls"));
    let steal = host0.steal_frac_until(&host1);
    m.insert("host.steal_frac", steal);

    for (name, value) in layers::run(opts.seed, total / 5) {
        m.insert(name, value);
    }

    let counts = Counts {
        attempted: untraced.attempted + traced_calls.attempted,
        failed: untraced.failed + traced_calls.failed,
        mismatched: untraced.mismatched + traced_calls.mismatched + warmup_mismatched,
    };
    Ok((m, counts, steal))
}
