//! Endpoints: one transport, one buffer pool, one demultiplexer.
//!
//! An `Endpoint` is this reproduction's Firefly: it can export services
//! (server role) and bind clients (caller role) simultaneously over one
//! transport. Its demux thread is the Ethernet receive interrupt routine
//! of §3.1.3: it validates headers and the UDP checksum, consults the
//! call table or the server dispatcher, wakes the destination thread
//! directly, and recycles buffers on the fly. Fragment flow control is
//! interrupt-level work too: an ack's arrival sends the next fragment of
//! a multi-packet call or result from this thread, so caller and server
//! threads are woken once per call, not once per fragment.

use crate::calltable::{Deliver, ShardedCallTable};
use crate::client::Client;
use crate::config::Config;
use crate::local::LocalClient;
use crate::packet::Packet;
use crate::send::SendCtx;
use crate::server::ServerSide;
use crate::service::Service;
use crate::stats::RpcStats;
use crate::transport::Transport;
use crate::{Result, RpcError};
use firefly_idl::InterfaceDef;
use firefly_pool::{PacketBuf, ShardedPool};
use firefly_wire::{coalesced_frame_len, PacketType};
use firefly_sync::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// State shared between an endpoint, its clients, and its demux thread.
pub(crate) struct EndpointShared {
    pub ctx: Arc<SendCtx>,
    pub calls: ShardedCallTable,
    pub config: Config,
    pub machine_id: u32,
    pub space_id: u16,
    /// Endpoint-wide activity thread-id allocator: activities must be
    /// unique across every client bound through this endpoint.
    pub next_thread: std::sync::atomic::AtomicU16,
}

/// A caller/server endpoint bound to one transport.
pub struct Endpoint {
    shared: Arc<EndpointShared>,
    server: Arc<ServerSide>,
    demux: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Endpoint {
    /// Creates an endpoint over `transport` and starts its demux and
    /// server threads.
    pub fn new(transport: Arc<dyn Transport>, config: Config) -> Result<Arc<Endpoint>> {
        let pool = ShardedPool::new(config.pool_size, config.shards);
        let stats = Arc::new(RpcStats::default());
        let ctx = Arc::new(SendCtx::new(
            transport,
            pool,
            Arc::clone(&stats),
            config.checksum,
            config.trace_capacity,
        ));
        ctx.tracer.set_enabled(config.trace);
        let machine_id = if config.machine_id != 0 {
            config.machine_id
        } else {
            // Derive a stable nonzero id from the transport address.
            let addr = ctx.transport.local_addr();
            let mac = crate::send::mac_for(&addr).0;
            u32::from_be_bytes([mac[2], mac[3], mac[4], mac[5]]) | 1
        };
        let shared = Arc::new(EndpointShared {
            ctx: Arc::clone(&ctx),
            calls: ShardedCallTable::new(config.shards),
            machine_id,
            space_id: config.space_id,
            config,
            next_thread: std::sync::atomic::AtomicU16::new(1),
        });
        let server = ServerSide::new(ctx, shared.config.stub_style, shared.config.server_threads);
        // Every endpoint exports the built-in binder, so callers can
        // verify interfaces before their first real call.
        server.export(crate::binder::binder_service(&server)?)?;
        let workers = server.spawn_workers()?;

        let endpoint = Arc::new(Endpoint {
            shared: Arc::clone(&shared),
            server: Arc::clone(&server),
            demux: Mutex::new(None),
            workers: Mutex::new(workers),
        });
        let demux = {
            let shared = Arc::clone(&shared);
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("firefly-demux".into())
                .spawn(move || demux_loop(shared, server))?
        };
        *endpoint.demux.lock() = Some(demux);
        Ok(endpoint)
    }

    /// The address remote endpoints should bind to.
    pub fn address(&self) -> SocketAddr {
        self.shared.ctx.transport.local_addr()
    }

    /// Exports a service (server role).
    pub fn export(&self, service: Arc<dyn Service>) -> Result<()> {
        self.server.export(service)
    }

    /// Binds `interface` at the remote endpoint, returning a caller stub.
    ///
    /// The returned [`Client`] uses the endpoint's transport — the
    /// bind-time transport choice of §3.1.
    pub fn bind(&self, interface: &InterfaceDef, remote: SocketAddr) -> Result<Client> {
        Ok(Client::new(
            Arc::clone(&self.shared),
            // lint:allow(no-alloc-on-fast-path): bind-time setup (§3.1);
            // the stub keeps its own copy of the interface definition.
            interface.clone(),
            remote,
        ))
    }

    /// Binds `interface` at the remote endpoint after verifying through
    /// the remote binder that it is exported there with a matching UID
    /// and version.
    ///
    /// This is the explicit version of §3.1.1's precondition, "assuming
    /// that binding to a suitable remote instance of the interface has
    /// already occurred".
    pub fn bind_checked(&self, interface: &InterfaceDef, remote: SocketAddr) -> Result<Client> {
        use firefly_idl::Value;
        let binder = self.bind(&crate::binder::binder_interface(), remote)?;
        let r = binder.call(
            "Describe",
            // lint:allow(no-alloc-on-fast-path): binder handshake runs
            // once per bind, before any call traffic.
            &[Value::text(interface.name()), Value::Bytes(Vec::new())],
        )?;
        let uid_hex = String::from_utf8_lossy(r[0].as_bytes().unwrap_or(&[])).into_owned();
        let version = r[1].as_integer().unwrap_or(-1);
        if uid_hex != crate::binder::uid_hex(interface.uid()) {
            return Err(RpcError::Binding(format!(
                "remote `{}` has uid {uid_hex}, local definition has {} — \
                 the interface signatures differ",
                interface.name(),
                crate::binder::uid_hex(interface.uid())
            )));
        }
        if version != i32::from(interface.version()) {
            return Err(RpcError::Binding(format!(
                "remote `{}` is version {version}, local is {}",
                interface.name(),
                interface.version()
            )));
        }
        self.bind(interface, remote)
    }

    /// Binds an interface exported by **this** endpoint through the
    /// shared-memory local transport (the paper's same-machine RPC).
    pub fn bind_local(&self, interface: &InterfaceDef) -> Result<LocalClient> {
        let service = self.server.service_for(interface.uid()).ok_or_else(|| {
            RpcError::Binding(format!(
                "interface `{}` is not exported locally",
                interface.name()
            ))
        })?;
        // Local RPC is lock-free per call, so one pool shard suffices.
        // lint:allow(no-alloc-on-fast-path): bind-time setup; the local
        // client holds its own interface copy and pool handle.
        LocalClient::new(interface.clone(), service, self.shared.ctx.pool.shard(0).clone())
    }

    /// Reclaims server-side state for caller activities idle longer than
    /// `max_idle`; returns how many were dropped. The paper keeps
    /// fast-path state only for conversations active "within a few
    /// seconds" (§3.1).
    pub fn prune_idle_activities(&self, max_idle: Duration) -> usize {
        self.server.prune_idle(max_idle)
    }

    /// Number of caller activities currently tracked by the server side.
    pub fn tracked_activities(&self) -> usize {
        self.server.activity_count()
    }

    /// Installs an authorization gate consulted for every incoming call
    /// (`None` clears it). See [`crate::auth::CallGate`].
    pub fn set_call_gate(&self, gate: Option<Arc<dyn crate::auth::CallGate>>) {
        self.server.set_gate(gate);
    }

    /// Runtime counters.
    pub fn stats(&self) -> &RpcStats {
        &self.shared.ctx.stats
    }

    /// The per-call step tracer — the live Table VII latency account.
    pub fn tracer(&self) -> &crate::trace::Tracer {
        &self.shared.ctx.tracer
    }

    /// Turns per-call step tracing on or off at runtime. Pure
    /// observability: protocol behaviour and results are unaffected.
    pub fn set_tracing(&self, on: bool) {
        self.shared.ctx.tracer.set_enabled(on);
    }

    /// Drains the completed-trace ring and aggregates per-step latency
    /// histograms for both the caller and server roles of this endpoint.
    pub fn trace_report(&self) -> crate::trace::TraceReport {
        self.shared.ctx.tracer.report()
    }

    /// The shared (sharded) packet-buffer pool.
    pub fn pool(&self) -> &ShardedPool {
        &self.shared.ctx.pool
    }

    /// The distinct protocol.toml transition rows this endpoint has
    /// taken so far, across its server demux (send-context witness) and
    /// every caller call-table shard. This is what `firefly-check`'s
    /// wire scenario exports for the cross-diff coverage gate.
    pub fn protocol_transitions(&self) -> Vec<&'static str> {
        let mut rows = std::collections::BTreeSet::new();
        self.shared.ctx.witness.merge_into(&mut rows);
        self.shared.calls.merge_witnesses(&mut rows);
        // Table order reads better than BTreeSet's lexicographic order.
        crate::witness::TRANSITIONS
            .iter()
            .copied()
            .filter(|t| rows.contains(t))
            .collect()
    }

    /// Stops the demux and server threads and unblocks the transport.
    pub fn shutdown(&self) {
        self.shared.ctx.transport.shutdown();
        self.server.shutdown();
        // Take the handles out under the guards, join after they drop:
        // joining a thread that is itself draining the transport while
        // holding these mutexes would deadlock against `Drop` callers.
        let demux = self.demux.lock().take();
        if let Some(h) = demux {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Takes a receive buffer, preferring recycled ones; rotates the shard
/// cursor so receive-buffer pressure spreads across shards.
fn take_receive_buf(shared: &EndpointShared, cursor: &mut usize) -> PacketBuf {
    loop {
        *cursor = cursor.wrapping_add(1);
        match shared.ctx.pool.take_receive_buffer_from(*cursor) {
            Ok(b) => return b,
            Err(_) => {
                // Every shard exhausted: wait briefly for a free.
                if let Ok(b) = shared
                    .ctx
                    .pool
                    .alloc_timeout_from(*cursor, Duration::from_millis(100))
                {
                    return b;
                }
            }
        }
    }
}

/// Nonblocking receive attempts (each yielding the processor) the
/// demux makes before falling back to a blocking receive; see the
/// comment at the poll site.
const DEMUX_POLLS_BEFORE_BLOCK: usize = 32;

/// The receive loop — the reproduction's Ethernet interrupt routine.
///
/// One receive per datagram, and each datagram carries exactly one
/// frame, validated and routed in place in its pool buffer. During a
/// burst the nonblocking poll below picks up the next datagram without
/// parking.
fn demux_loop(shared: Arc<EndpointShared>, server: Arc<ServerSide>) {
    let stats = Arc::clone(&shared.ctx.stats);
    let mut cursor = 0usize;
    loop {
        let mut buf = take_receive_buf(&shared, &mut cursor);
        // Cooperative poll before the blocking receive: during a steady
        // call stream the next datagram arrives within a few yields
        // (the sender is runnable on this very machine in tests and
        // benchmarks), and catching it nonblocking saves the sender the
        // futex wake and this thread the scheduler round trip. The
        // budget is small enough to cost only a bounded handful of
        // no-op syscalls before an idle endpoint genuinely parks.
        let mut polled = None;
        for _ in 0..DEMUX_POLLS_BEFORE_BLOCK {
            match shared.ctx.transport.try_recv(buf.raw_mut()) {
                Ok(Some(x)) => {
                    polled = Some(x);
                    break;
                }
                Ok(None) => std::thread::yield_now(),
                Err(_) => return, // Shutdown.
            }
        }
        let (n, src) = match polled {
            Some(x) => x,
            None => match shared.ctx.transport.recv(buf.raw_mut()) {
                Ok(x) => x,
                Err(_) => return, // Shutdown.
            },
        };
        buf.set_len(n);
        // One frame per datagram: a datagram that is not exactly one
        // frame long (truncated, or with bytes past the first frame's IP
        // total length) is dropped whole, never partly processed.
        if coalesced_frame_len(&buf) != Some(n) {
            RpcStats::bump(&stats.validation_drops);
            buf.recycle();
            continue;
        }
        process_frame(&shared, &server, &stats, buf, src);
    }
}

/// Demultiplexes one received frame — validation, routing, direct
/// wakeup, on-the-fly buffer recycling (§3.1.3).
fn process_frame(
    shared: &EndpointShared,
    server: &ServerSide,
    stats: &RpcStats,
    buf: PacketBuf,
    src: SocketAddr,
) {
    let pkt = match Packet::from_buf(buf) {
        Ok(p) => p,
        Err(e) => {
            // A garbage packet-type byte is counted apart from other
            // validation failures: it is the shape a version-skewed or
            // hostile peer produces, and the chaos garbage-frame mix
            // asserts it never errors the demux loop.
            match e {
                crate::RpcError::Wire(firefly_wire::WireError::BadPacketType(_)) => {
                    RpcStats::bump(&stats.unknown_type_drops);
                }
                _ => RpcStats::bump(&stats.validation_drops),
            }
            return;
        }
    };
    match pkt.rpc.packet_type {
        PacketType::Call => server.handle_call_packet(pkt, src),
        PacketType::Probe => {
            server.handle_probe(&pkt.rpc, src);
            pkt.into_buf().recycle();
        }
        PacketType::Result => match shared.calls.deliver(pkt) {
            Deliver::Orphan(pkt) => {
                RpcStats::bump(&stats.orphan_results);
                pkt.into_buf().recycle();
                RpcStats::bump(&stats.buffers_recycled);
            }
            outcome => {
                RpcStats::bump(&stats.results_received);
                act_on_delivery(shared, stats, outcome, src);
            }
        },
        PacketType::Ack | PacketType::ProbeResponse => {
            if pkt.rpc.flags.acks_result {
                // The caller acknowledged one of our result fragments.
                server.handle_result_ack(&pkt.rpc, src);
                pkt.into_buf().recycle();
            } else {
                RpcStats::bump(&stats.acks_received);
                let is_probe_response = pkt.rpc.packet_type == PacketType::ProbeResponse;
                match shared.calls.deliver(pkt) {
                    Deliver::Orphan(pkt) => {
                        // A ProbeResponse with no outstanding probe (the
                        // probing call already completed, or the probe was
                        // a duplicate) is protocol noise, not an error.
                        if is_probe_response {
                            RpcStats::bump(&stats.stray_probe_responses);
                        }
                        pkt.into_buf().recycle();
                    }
                    outcome => act_on_delivery(shared, stats, outcome, src),
                }
            }
        }
    }
}

/// The interrupt-level follow-up to a caller-side delivery: count the
/// direct wakeup if a caller was woken, send the ack the packet asked
/// for, or transmit the call fragment an ack has just released. Callers
/// match orphans first, since their accounting differs by packet type;
/// here an orphan's buffer is only recycled.
fn act_on_delivery(shared: &EndpointShared, stats: &RpcStats, outcome: Deliver, src: SocketAddr) {
    match outcome {
        Deliver::Accepted => RpcStats::bump(&stats.direct_wakeups),
        Deliver::AcceptedNeedsAck(ack) => {
            RpcStats::bump(&stats.direct_wakeups);
            let _ = shared.ctx.send_ack(&ack, src);
        }
        Deliver::Buffered(Some(ack)) => {
            let _ = shared.ctx.send_ack(&ack, src);
        }
        Deliver::Buffered(None) => {}
        Deliver::Advance(next) => {
            // A send failure is indistinguishable from loss on the wire;
            // the caller's timer resends the fragment.
            let _ = shared.ctx.transport.send(next.frame(), src);
            RpcStats::bump(&stats.fragments_sent);
        }
        Deliver::Orphan(pkt) => pkt.into_buf().recycle(),
    }
}
