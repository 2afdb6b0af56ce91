//! The load generator: the real stack (`firefly-rpc` endpoints over
//! loopback UDP) driven by closed-loop caller threads on one shared
//! [`Client`], with every reply checked.

use crate::probe::{self, CountingTransport, TimedService};
use firefly_idl::{parse_interface, InterfaceDef, Value};
use firefly_rng::Rng;
use firefly_rpc::transport::{Transport, UdpTransport};
use firefly_rpc::{Client, Config, Endpoint, Service, ServiceBuilder};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's interface: the paper's `Null()` and an echo of an
/// open array.
pub const INTERFACE: &str = "DEFINITION MODULE Bench;
  PROCEDURE Null();
  PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
END Bench.";

/// How long one call may take before it counts as failed. Generous
/// against the retransmission schedule, so a lost packet is recovered
/// rather than failed, but a stuck call cannot hang a run.
pub const CALL_DEADLINE: Duration = Duration::from_secs(2);

/// Distinct seeded payloads a `Blob` workload rotates through.
const PAYLOADS: usize = 16;

/// Which procedure a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    /// `Null()`: no arguments, empty reply.
    Null,
    /// `Blob(data, copy)`: the reply must echo `data` byte for byte.
    Blob,
}

impl Procedure {
    fn name(self) -> &'static str {
        match self {
            Procedure::Null => "Null",
            Procedure::Blob => "Blob",
        }
    }
}

/// One closed-loop workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Procedure every call invokes.
    pub procedure: Procedure,
    /// Caller threads sharing one client.
    pub callers: usize,
    /// Bytes of seeded argument data per call.
    pub payload_bytes: usize,
}

/// Every workload the benchmark defines.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "null_1c",
        procedure: Procedure::Null,
        callers: 1,
        payload_bytes: 0,
    },
    Workload {
        name: "null_2c",
        procedure: Procedure::Null,
        callers: 2,
        payload_bytes: 0,
    },
    Workload {
        name: "frag_1c",
        procedure: Procedure::Blob,
        callers: 1,
        // Four full 1440-byte fragments each way.
        payload_bytes: 4 * 1440,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One prepared call: its arguments and the reply it must produce.
pub struct Call {
    args: Vec<Value>,
    expect: Vec<u8>,
}

/// The calls a workload cycles through, generated from the seed.
pub struct Calls {
    procedure: Procedure,
    calls: Vec<Call>,
}

impl Calls {
    /// Generates the workload's inputs from `seed` alone.
    pub fn generate(w: &Workload, seed: u64) -> Calls {
        let mut rng = Rng::new(seed);
        let calls = match w.procedure {
            Procedure::Null => vec![Call {
                args: Vec::new(),
                expect: Vec::new(),
            }],
            Procedure::Blob => (0..PAYLOADS)
                .map(|_| {
                    let mut data = vec![0u8; w.payload_bytes];
                    rng.fill_bytes(&mut data);
                    Call {
                        args: vec![Value::Bytes(data.clone()), Value::Bytes(Vec::new())],
                        expect: data,
                    }
                })
                .collect(),
        };
        Calls {
            procedure: w.procedure,
            calls,
        }
    }

    fn get(&self, i: usize) -> &Call {
        &self.calls[i % self.calls.len()]
    }
}

/// True when `reply` is exactly what `call` must return: nothing for
/// `Null`, a byte-exact echo of the argument for `Blob`.
pub fn reply_matches(procedure: Procedure, call: &Call, reply: &[Value]) -> bool {
    match procedure {
        Procedure::Null => reply.is_empty(),
        Procedure::Blob => reply.len() == 1 && reply[0].as_bytes() == Some(&call.expect[..]),
    }
}

/// Test hook: the server corrupts one byte of every `n`th `Blob` reply,
/// so the reply check can be shown to catch it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tamper(pub Option<u64>);

fn service(iface: &InterfaceDef, tamper: Tamper) -> Arc<dyn Service> {
    let served = AtomicU64::new(0);
    ServiceBuilder::new(iface.clone())
        .on_call("Null", |_args, _w| Ok(()))
        .on_call("Blob", move |args, w| {
            let data = args[0].bytes().unwrap_or_default();
            let out = w.next_bytes(data.len())?;
            out.copy_from_slice(data);
            let n = served.fetch_add(1, Ordering::Relaxed) + 1;
            if matches!(tamper.0, Some(every) if n.is_multiple_of(every)) && !out.is_empty() {
                out[0] ^= 0xff;
            }
            Ok(())
        })
        .build()
        .expect("the benchmark interface has a handler for every procedure")
}

/// Threads an endpoint started: its demux thread and its server
/// workers, found as the thread ids that appeared during `Endpoint::new`
/// (only probed on instrumented rigs, to keep `/proc` reads out of the
/// timed set-up).
#[derive(Debug, Default, Clone)]
pub struct EndpointThreads {
    /// The demultiplexer (`firefly-demux`).
    pub demux: Vec<u32>,
    /// Server worker threads.
    pub workers: Vec<u32>,
}

impl EndpointThreads {
    /// Sorts `tids` by thread name. Call it once the endpoint has
    /// served a call: a new thread names itself only after it starts.
    fn classify(tids: &BTreeSet<u32>) -> EndpointThreads {
        let mut threads = EndpointThreads::default();
        for &tid in tids {
            if probe::thread_name(tid) == "firefly-demux" {
                threads.demux.push(tid);
            } else {
                threads.workers.push(tid);
            }
        }
        threads
    }
}

/// Creates an endpoint; with `probe_threads`, also returns the ids of
/// the threads it started.
fn endpoint_with_threads(
    transport: Arc<dyn Transport>,
    config: Config,
    probe_threads: bool,
) -> Result<(Arc<Endpoint>, BTreeSet<u32>), String> {
    let before = probe_threads.then(probe::thread_ids);
    let ep = Endpoint::new(transport, config).map_err(|e| format!("endpoint: {e}"))?;
    let started = match before {
        Some(before) => probe::thread_ids().difference(&before).copied().collect(),
        None => BTreeSet::new(),
    };
    Ok((ep, started))
}

/// How a rig is built.
#[derive(Debug, Clone, Copy, Default)]
pub struct RigOptions {
    /// Wrap both transports in [`CountingTransport`] and the service in
    /// [`TimedService`].
    pub instrumented: bool,
    /// Capacity of each endpoint's trace ring (0 keeps the default).
    pub trace_capacity: usize,
    /// Reply corruption for tests.
    pub tamper: Tamper,
}

/// A server endpoint, a caller endpoint and a client bound between them.
pub struct Rig {
    /// Client bound from `caller` to `server`; dropped before them.
    pub client: Client,
    /// The caller-side endpoint.
    pub caller: Arc<Endpoint>,
    /// The server-side endpoint.
    pub server: Arc<Endpoint>,
    /// Threads `caller`'s `Endpoint::new` started.
    pub caller_threads: EndpointThreads,
    /// Threads `server`'s `Endpoint::new` started.
    pub server_threads: EndpointThreads,
    /// Counting wrappers of `[caller, server]` transports, if instrumented.
    pub transports: Vec<Arc<CountingTransport>>,
    /// The timing service wrapper, if instrumented.
    pub timed: Option<Arc<TimedService>>,
}

/// Builds a rig and completes (and checks) its first call; returns it
/// with the elapsed set-up time.
pub fn build_rig(calls: &Calls, seed: u64, opts: RigOptions) -> Result<(Rig, Duration), String> {
    let iface = parse_interface(INTERFACE).map_err(|e| format!("interface: {e}"))?;
    let mut config = Config {
        rng_seed: seed,
        ..Config::default()
    };
    if opts.trace_capacity > 0 {
        config.trace_capacity = opts.trace_capacity;
    }
    let start = Instant::now();
    let mut transports = Vec::new();
    let mut transport = || -> Result<Arc<dyn Transport>, String> {
        let udp = UdpTransport::localhost().map_err(|e| format!("socket: {e}"))?;
        if !opts.instrumented {
            return Ok(udp);
        }
        let counting = CountingTransport::new(udp);
        transports.push(Arc::clone(&counting));
        Ok(counting)
    };
    let probe_threads = opts.instrumented;
    let (server, server_threads) =
        endpoint_with_threads(transport()?, config.clone(), probe_threads)?;
    let (caller, caller_threads) = endpoint_with_threads(transport()?, config, probe_threads)?;
    transports.reverse();
    let mut service = service(&iface, opts.tamper);
    let mut timed = None;
    if opts.instrumented {
        let t = TimedService::new(service);
        timed = Some(Arc::clone(&t));
        service = t;
    }
    server.export(service).map_err(|e| format!("export: {e}"))?;
    let client = caller
        .bind(&iface, server.address())
        .map_err(|e| format!("bind: {e}"))?;
    let first = calls.get(0);
    let reply = client
        .call_with_deadline(calls.procedure.name(), &first.args, CALL_DEADLINE)
        .map_err(|e| format!("first call: {e}"))?;
    if !reply_matches(calls.procedure, first, &reply) {
        return Err("first call returned a wrong reply".to_string());
    }
    let elapsed = start.elapsed();
    let caller_threads = EndpointThreads::classify(&caller_threads);
    let server_threads = EndpointThreads::classify(&server_threads);
    Ok((
        Rig {
            client,
            caller,
            server,
            caller_threads,
            server_threads,
            transports,
            timed,
        },
        elapsed,
    ))
}

/// Latency points a caller keeps per sub-window: the window's
/// latencies at evenly spaced ranks, so memory stays fixed however many
/// calls a window holds.
const SKETCH_POINTS: usize = 100;

/// One sub-window of a slice.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Calls completed (with a correct reply) in the window.
    pub completed: u64,
    /// `(latency ns, calls it stands for)`: each caller's latency
    /// quantiles over the calls that ended in the window, failed calls
    /// as `u64::MAX`.
    pub points: Vec<(u64, f64)>,
    /// Share of host CPU time the hypervisor stole during the window.
    pub steal_share: f64,
    /// CPU ticks this process used during the window.
    pub cpu_ticks: u64,
}

/// What one slice of closed-loop calling produced.
#[derive(Debug, Default)]
pub struct SliceResult {
    /// Round-trip nanoseconds of every attempted call, failed calls as
    /// `u64::MAX` (kept only when the slice asks for raw latencies).
    pub latencies_ns: Vec<u64>,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that errored, timed out or returned a wrong reply.
    pub failed: u64,
    /// Of those, calls whose reply arrived but was wrong.
    pub mismatched: u64,
    /// The full sub-windows of the slice, in time order.
    pub windows: Vec<Window>,
}

impl SliceResult {
    /// Folds `other` into `self`, window by window.
    pub fn merge(&mut self, other: SliceResult) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        if self.windows.is_empty() {
            self.windows = other.windows;
            return;
        }
        for (a, b) in self.windows.iter_mut().zip(other.windows) {
            a.completed += b.completed;
            a.points.extend(b.points);
        }
    }
}

/// One slice to run: its length, sub-window and whether to keep every
/// raw latency.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// How long callers call.
    pub length: Duration,
    /// Sub-window the slice is divided into.
    pub window: Duration,
    /// Keep every call's latency in [`SliceResult::latencies_ns`].
    pub keep_raw: bool,
}

/// A slice as the callers see it; `None` in its place tells them to exit.
#[derive(Clone, Copy)]
struct SliceSpec {
    start: Instant,
    slice: Slice,
}

impl SliceSpec {
    fn windows(&self) -> usize {
        (self.slice.length.as_nanos() / self.slice.window.as_nanos().max(1)) as usize
    }

    fn window_of(&self, at: Instant) -> usize {
        ((at - self.start).as_nanos() / self.slice.window.as_nanos().max(1)) as usize
    }
}

/// Summarises one caller's latencies of one window into `SKETCH_POINTS`
/// evenly ranked points; empties `lat`.
fn sketch(lat: &mut Vec<u64>, window: &mut Window) {
    if lat.is_empty() {
        return;
    }
    lat.sort_unstable();
    let weight = lat.len() as f64 / SKETCH_POINTS as f64;
    for i in 0..SKETCH_POINTS {
        let rank = (i * 2 + 1) * lat.len() / (2 * SKETCH_POINTS);
        window.points.push((lat[rank], weight));
    }
    lat.clear();
}

/// Runs one caller thread's share of a slice.
fn call_until(client: &Client, calls: &Calls, spec: SliceSpec, offset: usize) -> SliceResult {
    let end = spec.start + spec.slice.length;
    let mut out = SliceResult {
        windows: vec![Window::default(); spec.windows()],
        ..SliceResult::default()
    };
    let mut current = 0;
    let mut lat: Vec<u64> = Vec::new();
    let name = calls.procedure.name();
    let mut i = offset;
    while Instant::now() < end {
        let call = calls.get(i);
        i += 1;
        let t = Instant::now();
        let reply = client.call_with_deadline(name, &call.args, CALL_DEADLINE);
        let done = Instant::now();
        out.attempted += 1;
        let ok = match reply {
            Ok(values) if reply_matches(calls.procedure, call, &values) => true,
            Ok(_) => {
                out.mismatched += 1;
                false
            }
            Err(_) => false,
        };
        let ns = if ok {
            (done - t).as_nanos() as u64
        } else {
            out.failed += 1;
            u64::MAX
        };
        if spec.slice.keep_raw {
            out.latencies_ns.push(ns);
        }
        let w = spec.window_of(done);
        if w != current {
            if let Some(window) = out.windows.get_mut(current) {
                sketch(&mut lat, window);
            }
            lat.clear();
            current = w;
        }
        if let Some(window) = out.windows.get_mut(w) {
            window.completed += u64::from(ok);
            lat.push(ns);
        }
    }
    if let Some(window) = out.windows.get_mut(current) {
        sketch(&mut lat, window);
    }
    out
}

/// A slice boundary, seen by the `on` callback of [`run_slices`].
pub enum Boundary {
    /// Slice `i` is about to start.
    Before(usize),
    /// Slice `i` has ended with this result.
    After(usize, SliceResult),
}

/// Reads the host's steal and this process's CPU at each window
/// boundary of a running slice; returns one `(steal share, CPU ticks)`
/// per window.
fn sample_windows(spec: &SliceSpec) -> Vec<(f64, u64)> {
    let mut host = probe::HostCpu::read();
    let mut cpu = probe::process_cpu_ticks();
    let mut out = Vec::with_capacity(spec.windows());
    for k in 1..=spec.windows() {
        let at = spec.start + spec.slice.window * k as u32;
        while let Some(left) = at.checked_duration_since(Instant::now()) {
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        let (h, c) = (probe::HostCpu::read(), probe::process_cpu_ticks());
        out.push((host.steal_frac_until(&h), c.saturating_sub(cpu)));
        (host, cpu) = (h, c);
    }
    out
}

/// Runs `slices` back to back as closed-loop calls on `callers`
/// persistent threads sharing `client`.
///
/// `on` runs on the calling thread at every slice boundary, while every
/// caller is parked on a barrier, so counters read there are consistent
/// with the slice. It also gets the caller threads' ids. During a slice
/// the calling thread samples host steal and process CPU per window.
pub fn run_slices(
    client: &Client,
    calls: &Calls,
    callers: usize,
    slices: &[Slice],
    mut on: impl FnMut(Boundary, &BTreeSet<u32>),
) {
    let ready = Barrier::new(callers + 1);
    let go = Barrier::new(callers + 1);
    let done = Barrier::new(callers + 1);
    let next: Mutex<Option<SliceSpec>> = Mutex::new(None);
    let results: Mutex<Vec<SliceResult>> = Mutex::new(Vec::new());
    let tids: Mutex<BTreeSet<u32>> = Mutex::new(BTreeSet::new());
    std::thread::scope(|scope| {
        for t in 0..callers {
            let (ready, go, done) = (&ready, &go, &done);
            let (next, results, tids) = (&next, &results, &tids);
            scope.spawn(move || {
                if let Some(tid) = probe::current_tid() {
                    tids.lock().expect("tid set lock poisoned").insert(tid);
                }
                ready.wait();
                loop {
                    go.wait();
                    let spec = *next.lock().expect("slice lock poisoned");
                    let Some(spec) = spec else { break };
                    // Callers start at different points of the payload
                    // cycle so concurrent calls carry different data.
                    let r = call_until(client, calls, spec, t * 7);
                    results.lock().expect("result lock poisoned").push(r);
                    done.wait();
                }
            });
        }
        ready.wait();
        let tids = tids.lock().expect("tid set lock poisoned").clone();
        for (i, &slice) in slices.iter().enumerate() {
            on(Boundary::Before(i), &tids);
            let spec = SliceSpec {
                start: Instant::now(),
                slice,
            };
            *next.lock().expect("slice lock poisoned") = Some(spec);
            go.wait();
            let host = sample_windows(&spec);
            done.wait();
            let mut merged = SliceResult::default();
            for r in results.lock().expect("result lock poisoned").drain(..) {
                merged.merge(r);
            }
            for (w, (steal, cpu)) in merged.windows.iter_mut().zip(host) {
                w.steal_share = steal;
                w.cpu_ticks = cpu;
            }
            on(Boundary::After(i, merged), &tids);
        }
        *next.lock().expect("slice lock poisoned") = None;
        go.wait();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob() -> &'static Workload {
        workload("frag_1c").expect("frag_1c is defined")
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Calls::generate(blob(), 5);
        let b = Calls::generate(blob(), 5);
        let c = Calls::generate(blob(), 6);
        assert_eq!(a.calls.len(), PAYLOADS);
        for i in 0..PAYLOADS {
            assert_eq!(a.get(i).expect, b.get(i).expect);
            assert_eq!(a.get(i).expect.len(), 5760);
        }
        assert_ne!(a.get(0).expect, c.get(0).expect);
    }

    #[test]
    fn replies_are_checked_byte_for_byte() {
        let calls = Calls::generate(blob(), 1);
        let call = calls.get(0);
        let echo = vec![Value::Bytes(call.expect.clone())];
        assert!(reply_matches(Procedure::Blob, call, &echo));
        let mut doctored = call.expect.clone();
        doctored[5759] ^= 1;
        assert!(!reply_matches(
            Procedure::Blob,
            call,
            &[Value::Bytes(doctored)]
        ));
        assert!(!reply_matches(Procedure::Blob, call, &[]));

        let null = Calls::generate(workload("null_1c").expect("null_1c is defined"), 1);
        assert!(reply_matches(Procedure::Null, null.get(0), &[]));
        assert!(!reply_matches(
            Procedure::Null,
            null.get(0),
            &[Value::Integer(0)]
        ));
    }

    #[test]
    fn sketch_keeps_evenly_ranked_points() {
        let mut lat: Vec<u64> = (1..=1000).rev().collect();
        let mut w = Window::default();
        sketch(&mut lat, &mut w);
        assert!(lat.is_empty());
        assert_eq!(w.points.len(), SKETCH_POINTS);
        assert_eq!(w.points[0], (6, 10.0));
        assert_eq!(w.points[SKETCH_POINTS - 1], (996, 10.0));
    }
}
