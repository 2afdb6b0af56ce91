//! The server side: Receiver, server threads, duplicate filtering, and
//! result retention.
//!
//! One `ServerSide` per endpoint. The demux thread routes call packets
//! here; `ServerSide::handle_call_packet` performs the interrupt-level
//! work (duplicate filtering, fragment reassembly, retained-result
//! retransmission) and hands fresh calls to a waiting server thread —
//! "if the interrupt routine can find a server thread … it attaches the
//! buffer containing the call packet to the call table entry and awakens
//! the server thread directly" (§3.1.3). The server thread then plays
//! `Receiver`: it up-calls the interface stub, which up-calls the service
//! procedure, marshals the results into a result packet and sends it.
//!
//! A multi-packet result is handed to the demux the same way a call is
//! handed to a worker: the worker builds every result fragment frame,
//! parks them in the activity slot, sends fragment 0 and goes back to its
//! queue. Each caller ack of fragment f then makes the demux send
//! fragment f+1 ([`ServerSide::handle_result_ack`]); no server thread
//! waits on, or times, the caller's acks.

use crate::calltable::shard_for;
use crate::packet::{Assembled, Packet};
use crate::send::SendCtx;
use crate::service::Service;
use crate::shard::WorkQueues;
use crate::stats::RpcStats;
use crate::witness::{call_slot, row};
use crate::{Result, RpcError};
use firefly_idl::{engines_for_interface, StubEngine, StubStyle, Written};
use firefly_pool::PacketBuf;
use firefly_sync::{Mutex, RwLock};
use firefly_wire::{ActivityId, PacketType, RpcHeader, DATA_OFFSET, MAX_SINGLE_PACKET_DATA};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The retained (already transmitted) result of an activity's last call,
/// kept for retransmission until the next call from the same activity
/// implicitly acknowledges it.
///
/// The single-frame cases are inlined so the fast path stores its one
/// pooled result buffer without allocating a list around it.
enum Retained {
    /// Nothing retained (initial state, or released by an explicit ack).
    None,
    /// The result frame lives in a pool buffer (single-packet fast path).
    Pooled(PacketBuf),
    /// One heap-built frame (the call-failed path).
    Heap(Vec<u8>),
    /// Multi-packet results: one heap-built frame per fragment, shared
    /// with the activity's [`ResultStream`].
    Frames(Arc<[Vec<u8>]>),
}

impl Retained {
    fn is_none(&self) -> bool {
        matches!(self, Retained::None)
    }

    /// Visits every retained frame in transmission order.
    fn for_each_frame(&self, mut f: impl FnMut(&[u8])) {
        match self {
            Retained::None => {}
            Retained::Pooled(b) => f(b),
            Retained::Heap(v) => f(v),
            Retained::Frames(frames) => {
                for v in frames.iter() {
                    f(v);
                }
            }
        }
    }
}

struct Reassembly {
    seq: u32,
    count: u16,
    /// Distinct fragments buffered so far: complete at `count`.
    have: u16,
    received: Vec<Option<Vec<u8>>>,
}

/// Resends of one result fragment the demux grants before it stops
/// answering repeats of the same ack (the caller's own per-fragment
/// budget is of the same order). Keeps a peer that repeats an ack from
/// turning each small ack into a full-size frame forever.
const MAX_FRAGMENT_RESENDS: u32 = 10;

/// How long a result fragment must have been out before a repeated ack
/// resends it. A caller re-acks only when its retransmission timer
/// fires, milliseconds later; a repeat sooner than this is the network
/// duplicating the ack (or the fragment it answered). Resending on it
/// would start a chain — each extra fragment draws another ack, which
/// draws another extra fragment — for the rest of the stream.
const MIN_RESEND_GAP: Duration = Duration::from_millis(1);

/// A multi-packet result streaming to its caller, one fragment per ack.
struct ResultStream {
    frames: Arc<[Vec<u8>]>,
    /// Highest fragment index transmitted so far.
    sent: u16,
    /// When fragment `sent` last went out.
    sent_at: Instant,
    /// Resends since the stream last advanced.
    attempts: u32,
}

struct ActState {
    /// When the activity last carried traffic (for idle reclamation).
    last_used: Instant,
    /// Highest call sequence number seen from this activity.
    last_seq: u32,
    /// True while a server thread executes the current call, and then
    /// while its multi-packet result streams: until the final fragment
    /// goes out, duplicates and probes are answered as for an executing
    /// call.
    in_progress: bool,
    /// Result frame(s) of the last completed call.
    retained: Retained,
    /// The current call's multi-packet result, from the worker's
    /// hand-off until the next call or an explicit release.
    stream: Option<ResultStream>,
    /// Partial multi-packet call.
    reassembly: Option<Reassembly>,
}

struct Activity {
    state: Mutex<ActState>,
}

struct ServiceEntry {
    service: Arc<dyn Service>,
    stubs: Vec<Box<dyn StubEngine>>,
    name: String,
    version: u16,
}

enum Work {
    Call {
        /// The caller's activity slot, resolved by the demux.
        act: Arc<Activity>,
        call: Assembled,
        src: SocketAddr,
        /// Demux-level receive stamp ([`crate::trace`] nanos); 0 when
        /// tracing was off at receipt.
        received_at: u64,
    },
}

/// The server half of an endpoint.
pub(crate) struct ServerSide {
    services: RwLock<HashMap<u64, ServiceEntry>>,
    gate: RwLock<Option<Arc<dyn crate::auth::CallGate>>>,
    stub_style: StubStyle,
    activities: Mutex<HashMap<ActivityId, Arc<Activity>>>,
    /// Per-worker receive queues with ascending-index work stealing;
    /// the demux enqueues each call on `shard_for(activity)`'s queue.
    queues: WorkQueues<Work>,
    ctx: Arc<SendCtx>,
}

impl ServerSide {
    pub fn new(ctx: Arc<SendCtx>, stub_style: StubStyle, workers: usize) -> Arc<ServerSide> {
        Arc::new(ServerSide {
            services: RwLock::new(HashMap::new()),
            gate: RwLock::new(None),
            stub_style,
            activities: Mutex::new(HashMap::new()),
            queues: WorkQueues::new(workers),
            ctx,
        })
    }

    /// Spawns one server thread per work queue; they wait for calls
    /// until shutdown. Fails with the underlying I/O error if the OS
    /// refuses a thread.
    pub fn spawn_workers(self: &Arc<Self>) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
        (0..self.queues.worker_count())
            .map(|i| {
                let me = Arc::clone(self);
                std::thread::Builder::new()
                    // lint:allow(no-alloc-on-fast-path): one-time worker
                    // naming at endpoint startup, not the per-call path.
                    .name(format!("firefly-server-{i}"))
                    .spawn(move || me.worker_loop(i))
            })
            .collect()
    }

    /// Stops all workers once their queued work is drained.
    pub fn shutdown(&self) {
        self.queues.shutdown();
    }

    /// Looks up an exported service by interface UID.
    pub fn service_for(&self, uid: u64) -> Option<Arc<dyn Service>> {
        self.services
            .read()
            .get(&uid)
            .map(|e| Arc::clone(&e.service))
    }

    /// Installs (or clears) the authorization gate.
    pub fn set_gate(&self, gate: Option<Arc<dyn crate::auth::CallGate>>) {
        *self.gate.write() = gate;
    }

    /// Reclaims per-activity state idle for longer than `max_idle`.
    ///
    /// The paper's call table similarly holds state only while "other
    /// calls from this caller address space to the same remote server
    /// address space have occurred recently, within a few seconds"
    /// (§3.1); older conversations fall off the fast path and their
    /// retained buffers return to the pool. Returns the number of
    /// activities reclaimed.
    pub fn prune_idle(&self, max_idle: Duration) -> usize {
        let mut map = self.activities.lock();
        let before = map.len();
        map.retain(|_, act| {
            let st = act.state.lock();
            // A call still executing is never reclaimed; a result that
            // stopped streaming (its caller went quiet) ages out.
            (st.in_progress && st.stream.is_none()) || st.last_used.elapsed() < max_idle
        });
        before - map.len()
    }

    /// Number of tracked caller activities.
    pub fn activity_count(&self) -> usize {
        self.activities.lock().len()
    }

    /// Lists exported interfaces as `(name, uid, version)`.
    pub fn exported(&self) -> Vec<(String, u64, u16)> {
        self.services
            .read()
            .iter()
            // lint:allow(no-alloc-on-fast-path): introspection for the
            // binder and tooling, never on the per-call path.
            .map(|(uid, e)| (e.name.clone(), *uid, e.version))
            .collect()
    }

    /// Registers an exported service.
    pub fn export(&self, service: Arc<dyn Service>) -> Result<()> {
        // lint:allow(no-alloc-on-fast-path): export happens once at
        // bind time (§3.1), before any call traffic.
        let interface = service.interface().clone();
        let stubs = engines_for_interface(&interface, self.stub_style);
        let mut services = self.services.write();
        if services.contains_key(&interface.uid()) {
            return Err(RpcError::Binding(format!(
                "interface `{}` is already exported",
                interface.name()
            )));
        }
        services.insert(
            interface.uid(),
            ServiceEntry {
                service,
                stubs,
                name: interface.name().to_string(),
                version: interface.version(),
            },
        );
        Ok(())
    }

    fn activity(&self, id: ActivityId) -> Arc<Activity> {
        let mut map = self.activities.lock();
        Arc::clone(map.entry(id).or_insert_with(|| {
            Arc::new(Activity {
                state: Mutex::new(ActState {
                    last_used: Instant::now(),
                    last_seq: 0,
                    in_progress: false,
                    retained: Retained::None,
                    stream: None,
                    reassembly: None,
                }),
            })
        }))
    }

    /// The duplicate-group slot of a call's flag shape, or `None` for a
    /// shape no legal sender produces (stray ack/failed bits on a Call):
    /// the witness records only rows the spec names.
    fn call_witness_slot(rpc: &RpcHeader) -> Option<usize> {
        if rpc.flags.acks_result || rpc.flags.call_failed {
            return None;
        }
        Some(call_slot(rpc.flags.please_ack, rpc.flags.last_fragment))
    }

    /// Interrupt-level handling of an incoming call packet.
    pub fn handle_call_packet(&self, pkt: Packet, src: SocketAddr) {
        // Stamp receipt first, before any protocol work, so the server
        // account starts at the demux boundary (0 with tracing off).
        let received_at = self.ctx.tracer.stamp_if_enabled();
        let stats = &self.ctx.stats;
        RpcStats::bump(&stats.calls_received);
        let rpc = pkt.rpc;
        let slot = Self::call_witness_slot(&rpc);
        let act = self.activity(rpc.activity);
        let mut st = act.state.lock();
        st.last_used = Instant::now();

        if rpc.call_seq < st.last_seq {
            // A stale call from a past round; drop and recycle.
            if let Some(s) = slot {
                self.ctx.witness.record(row::STALE_BASE + s);
            }
            self.recycle(pkt);
            return;
        }
        if rpc.call_seq == st.last_seq && st.last_seq != 0 {
            // Duplicate of the current call (a caller retransmission).
            RpcStats::bump(&stats.duplicate_calls);
            // Move the retained result out and release the guard before
            // touching the wire — a transport send can block, and
            // blocking under the activity lock stalls the demux.
            let retained = std::mem::replace(&mut st.retained, Retained::None);
            let executing = st.in_progress;
            let ack_executing = retained.is_none() && executing && rpc.flags.please_ack;
            let resend_first = ack_executing && Self::first_fragment_outstanding(&st);
            drop(st);
            if !retained.is_none() {
                // "the last result packet … must be retained for possible
                // retransmission": answer the duplicate from it.
                if let Some(s) = slot {
                    self.ctx.witness.record(row::DUP_RETAINED_BASE + s);
                }
                retained.for_each_frame(|frame| {
                    let _ = self.ctx.transport.send(frame, src);
                });
                RpcStats::bump(&stats.retransmissions);
                self.restore_retained(&act, rpc.call_seq, retained);
            } else if ack_executing {
                // The call is executing; tell the caller to stop
                // retransmitting.
                if slot.is_some() {
                    self.ctx.witness.record(if rpc.flags.last_fragment {
                        row::DUP_EXEC_ACK_PA_LF
                    } else {
                        row::DUP_EXEC_ACK_PA
                    });
                }
                let _ = self.ctx.send_ack(&RpcHeader::ack_for(&rpc), src);
                if resend_first {
                    self.send_result_fragment(&act, rpc.call_seq, 0, src);
                }
            } else if let Some(s) = slot {
                // Dropped without answer: still executing (no ack asked),
                // or the result was already delivered and released.
                if executing {
                    self.ctx.witness.record(if rpc.flags.last_fragment {
                        row::DUP_EXEC_DROP_LF
                    } else {
                        row::DUP_EXEC_DROP
                    });
                } else {
                    self.ctx.witness.record(row::DUP_RELEASED_BASE + s);
                }
            }
            self.recycle(pkt);
            return;
        }

        // A new call (or the first fragment(s) of one).
        if rpc.fragment_count > 1 {
            let reass = match &mut st.reassembly {
                Some(r) if r.seq == rpc.call_seq => r,
                // A different (or no) sequence in the slot: start fresh.
                // `Option::insert` hands back the new value without an
                // expect(), so this path cannot panic the receiver.
                slot => slot.insert(Reassembly {
                    seq: rpc.call_seq,
                    count: rpc.fragment_count,
                    have: 0,
                    // lint:allow(no-alloc-on-fast-path): multi-fragment
                    // calls take the stop-and-wait slow path; the
                    // single-packet fast path never reaches this arm.
                    received: vec![None; rpc.fragment_count as usize],
                }),
            };
            if rpc.fragment_count != reass.count || rpc.fragment >= reass.count {
                self.recycle(pkt);
                return;
            }
            RpcStats::bump(&stats.fragments_received);
            let idx = rpc.fragment as usize;
            if reass.received[idx].is_none() {
                // lint:allow(no-alloc-on-fast-path): fragment bodies
                // outlive the pooled packet buffer, so the slow path
                // copies them out; single-packet calls never do.
                reass.received[idx] = Some(pkt.data().to_vec());
                reass.have += 1;
            }
            let complete = reass.have == reass.count;
            // Stop-and-wait: every non-final fragment is acked — after
            // the activity guard drops, since the ack hits the wire.
            let ack_fragment = !rpc.flags.last_fragment;
            if !complete {
                if slot.is_some() {
                    self.ctx.witness.record(if rpc.flags.last_fragment {
                        // Early-arriving final fragment: assembly goes on.
                        if rpc.flags.please_ack {
                            row::NEW_ASSEMBLE_PA
                        } else {
                            row::NEW_ASSEMBLE
                        }
                    } else if rpc.flags.please_ack {
                        row::NEW_ASSEMBLE_ACK_PA
                    } else {
                        row::NEW_ASSEMBLE_ACK
                    });
                }
                drop(st);
                if ack_fragment {
                    let _ = self.ctx.send_ack(&RpcHeader::ack_for(&rpc), src);
                }
                self.recycle(pkt);
                return;
            }
            // `have == count` means every slot is filled, so the double
            // flatten drops nothing; written without expect() so a
            // worker thread can never panic on a malformed interleaving.
            let Some(parts) = st.reassembly.take() else {
                self.recycle(pkt);
                return;
            };
            let data: Vec<u8> = parts.received.into_iter().flatten().flatten().collect();
            if slot.is_some() {
                self.ctx.witness.record(if ack_fragment {
                    // A non-final fragment completed the call (the final
                    // one arrived early): ack it, then dispatch.
                    if rpc.flags.please_ack {
                        row::NEW_DISPATCH_ACK_PA
                    } else {
                        row::NEW_DISPATCH_ACK
                    }
                } else if rpc.flags.please_ack {
                    row::NEW_DISPATCH_PA
                } else {
                    row::NEW_DISPATCH
                });
            }
            self.begin_call(&mut st, rpc.call_seq);
            drop(st);
            if ack_fragment {
                let _ = self.ctx.send_ack(&RpcHeader::ack_for(&rpc), src);
            }
            self.recycle(pkt);
            self.enqueue(
                rpc.activity,
                Work::Call {
                    act,
                    call: Assembled::Multi { rpc, data },
                    src,
                    received_at,
                },
            );
            return;
        }

        if slot.is_some() && rpc.flags.last_fragment {
            self.ctx.witness.record(if rpc.flags.please_ack {
                row::NEW_DISPATCH_PA
            } else {
                row::NEW_DISPATCH
            });
        }
        self.begin_call(&mut st, rpc.call_seq);
        drop(st);
        self.enqueue(
            rpc.activity,
            Work::Call {
                act,
                call: Assembled::Single(pkt),
                src,
                received_at,
            },
        );
    }

    /// Marks a new call in progress and releases the previous retained
    /// result — the arrival of a newer call is its implicit ack (§3.2).
    fn begin_call(&self, st: &mut ActState, seq: u32) {
        st.last_seq = seq;
        st.in_progress = true;
        st.stream = None;
        if let Retained::Pooled(buf) = std::mem::replace(&mut st.retained, Retained::None) {
            // "the interrupt handler removes the buffer found in that
            // call table entry and adds it to the … receive queue."
            // `recycle` returns it to the shard that allocated it.
            buf.recycle();
            RpcStats::bump(&self.ctx.stats.buffers_recycled);
        }
    }

    /// Routes a call to the worker owning its activity's shard. A
    /// `true` from the push means a parked worker was woken directly —
    /// the paper's direct-handoff fast path; `false` means every worker
    /// was busy and the call waits in the queue (the slow path).
    fn enqueue(&self, activity: ActivityId, work: Work) {
        let target = shard_for(activity, self.queues.worker_count());
        if self.queues.push(target, work) {
            RpcStats::bump(&self.ctx.stats.direct_wakeups);
        } else {
            RpcStats::bump(&self.ctx.stats.slow_path_queued);
        }
    }

    /// Interrupt-level handling of a probe.
    ///
    /// Three cases: the call is still executing — answer ProbeResponse so
    /// the caller keeps waiting; the call already completed — the result
    /// packet must have been lost, so retransmit the retained result (a
    /// ProbeResponse here would livelock: the caller would keep probing
    /// and the server would keep saying "in progress" forever); the call
    /// is unknown — stay silent and let the caller's transmission budget
    /// expire.
    pub fn handle_probe(&self, rpc: &RpcHeader, src: SocketAddr) {
        // Probes on the wire carry exactly last-fragment; the witness
        // records only that spec shape.
        let spec_probe = rpc.flags.last_fragment
            && !rpc.flags.please_ack
            && !rpc.flags.acks_result
            && !rpc.flags.call_failed;
        let act = self.activity(rpc.activity);
        let mut st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            if spec_probe {
                self.ctx.witness.record(row::PROBE_UNKNOWN);
            }
            return;
        }
        // As in the duplicate path: take the result out and drop the
        // guard before retransmitting, so the wire is never touched
        // under the activity lock.
        let retained = std::mem::replace(&mut st.retained, Retained::None);
        let executing = st.in_progress;
        let resend_first = Self::first_fragment_outstanding(&st);
        drop(st);
        if !retained.is_none() {
            if spec_probe {
                self.ctx.witness.record(row::PROBE_RETAINED);
            }
            retained.for_each_frame(|frame| {
                let _ = self.ctx.transport.send(frame, src);
            });
            RpcStats::bump(&self.ctx.stats.retransmissions);
            self.restore_retained(&act, rpc.call_seq, retained);
            RpcStats::bump(&self.ctx.stats.probes_answered);
            return;
        }
        if executing {
            if spec_probe {
                self.ctx.witness.record(row::PROBE_EXECUTING);
            }
            let response = RpcHeader {
                packet_type: PacketType::ProbeResponse,
                data_len: 0,
                ..*rpc
            };
            let _ = self
                .ctx
                .send_built(&self.ctx.builder_from(&response, src), &[], src);
            RpcStats::bump(&self.ctx.stats.probes_answered);
            if resend_first {
                self.send_result_fragment(&act, rpc.call_seq, 0, src);
            }
        } else if spec_probe {
            // Result delivered and released: stay silent (the caller's
            // next call starts a fresh round).
            self.ctx.witness.record(row::PROBE_RELEASED);
        }
    }

    /// Interrupt-level handling of a caller's ack of one of our result
    /// fragments: an ack of fragment f sends fragment f+1 from here (a
    /// repeated ack resends it); an ack carrying last-fragment releases
    /// the retained result.
    pub fn handle_result_ack(&self, rpc: &RpcHeader, src: SocketAddr) {
        RpcStats::bump(&self.ctx.stats.acks_received);
        // Caller result-acks carry acks-result, optionally with
        // last-fragment for the final (releasing) ack; anything else is
        // off-spec and goes unrecorded.
        let spec_ack = rpc.packet_type == PacketType::Ack
            && rpc.flags.acks_result
            && !rpc.flags.please_ack
            && !rpc.flags.call_failed;
        let act = self.activity(rpc.activity);
        let mut st = act.state.lock();
        if rpc.call_seq != st.last_seq {
            if spec_ack {
                self.ctx.witness.record(if rpc.flags.last_fragment {
                    row::ACK_STALE_LF
                } else {
                    row::ACK_STALE
                });
            }
            return;
        }
        if spec_ack {
            self.ctx.witness.record(if rpc.flags.last_fragment {
                row::ACK_RELEASE
            } else {
                row::ACK_ADVANCE
            });
        }
        st.last_used = Instant::now();
        if !rpc.flags.last_fragment {
            drop(st);
            self.send_result_fragment(&act, rpc.call_seq, usize::from(rpc.fragment) + 1, src);
            return;
        }
        // Explicit ack of the complete result: release retention (and a
        // stream the caller says it no longer needs).
        if st.stream.take().is_some() {
            st.in_progress = false;
        }
        if let Retained::Pooled(buf) = std::mem::replace(&mut st.retained, Retained::None) {
            buf.recycle();
            RpcStats::bump(&self.ctx.stats.buffers_recycled);
        }
    }

    /// True while a multi-packet result streams and fragment 0 is its
    /// only fragment out: the caller then holds no fragment it could
    /// re-ack, so its retransmitted call or probe is the only sign that
    /// fragment 0 was lost, and the reply to either also resends it.
    fn first_fragment_outstanding(st: &ActState) -> bool {
        st.in_progress && st.stream.as_ref().is_some_and(|s| s.sent == 0)
    }

    /// Result-fragment transmission and recovery, at interrupt level.
    ///
    /// Sends fragment `index` of the activity's result stream if the
    /// caller may need it: the next unsent fragment (an ack of its
    /// predecessor arrived), or a resend of the newest one (a repeated
    /// ack, or fragment 0 per [`Self::first_fragment_outstanding`]).
    /// Stop-and-wait means the caller holds every earlier fragment, so
    /// requests for those are stale and go unanswered; resends are
    /// spaced by [`MIN_RESEND_GAP`] and bounded by
    /// [`MAX_FRAGMENT_RESENDS`] between advances. Handing off the final
    /// fragment completes the call: the frames become its retained
    /// result. The caller owns every timer; this only answers.
    fn send_result_fragment(&self, act: &Activity, seq: u32, index: usize, dst: SocketAddr) {
        let mut st = act.state.lock();
        if st.last_seq != seq {
            return;
        }
        let Some(stream) = st.stream.as_mut() else {
            return;
        };
        if index >= stream.frames.len() {
            return;
        }
        let sent = usize::from(stream.sent);
        let now = Instant::now();
        let first = index == sent + 1;
        if first {
            stream.sent = index as u16;
            stream.attempts = 0;
        } else if index == sent
            && stream.attempts < MAX_FRAGMENT_RESENDS
            && now.duration_since(stream.sent_at) >= MIN_RESEND_GAP
        {
            stream.attempts += 1;
        } else {
            return;
        }
        stream.sent_at = now;
        let frames = Arc::clone(&stream.frames);
        if first && index + 1 == frames.len() {
            // The final fragment is going out: the call is complete.
            st.in_progress = false;
            st.retained = Retained::Frames(Arc::clone(&frames));
        }
        drop(st);
        let Some(frame) = frames.get(index) else {
            return;
        };
        // A send failure is indistinguishable from loss on the wire; the
        // caller's re-ack recovers either.
        let _ = self.ctx.transport.send(frame, dst);
        RpcStats::bump(if first {
            &self.ctx.stats.fragments_sent
        } else {
            &self.ctx.stats.retransmissions
        });
    }

    fn recycle(&self, pkt: Packet) {
        pkt.into_buf().recycle();
        RpcStats::bump(&self.ctx.stats.buffers_recycled);
    }

    /// Puts a retained result back after a guard-free retransmission.
    /// Retransmitting takes the result *out* of the activity slot so no
    /// transport send happens under the state lock; if a newer call
    /// claimed the slot while the guard was released, the pooled buffer
    /// goes back to the receive queue instead of the slot.
    fn restore_retained(&self, act: &Activity, seq: u32, retained: Retained) {
        let mut st = act.state.lock();
        if st.last_seq == seq && st.retained.is_none() {
            st.retained = retained;
            return;
        }
        drop(st);
        if let Retained::Pooled(buf) = retained {
            buf.recycle();
            RpcStats::bump(&self.ctx.stats.buffers_recycled);
        }
    }

    fn worker_loop(self: Arc<Self>, worker: usize) {
        // The worker's private batch: a whole queue drained (own or
        // stolen) is processed from here without further locking.
        let mut local = VecDeque::new();
        while let Some(Work::Call {
            act,
            call,
            src,
            received_at,
        }) = self.queues.pop(worker, &mut local)
        {
            self.dispatch(&act, call, src, received_at);
        }
    }

    /// The Receiver: execute one call and transmit its result.
    fn dispatch(&self, act: &Activity, call: Assembled, src: SocketAddr, received_at: u64) {
        let rpc = *call.rpc();
        // The server half of the latency account: `Received` carries the
        // demux stamp, `Dispatched` is stamped here (the wakeup delta).
        let mut span = self.ctx.tracer.server_span(rpc.procedure, received_at);
        let outcome = self.execute(&call, src, &mut span);
        let mut st = act.state.lock();
        if st.last_seq != rpc.call_seq {
            // A newer call superseded us while executing; nothing to
            // retain. A single-packet result already went out from
            // `execute` — its caller may have sent the next call on
            // receiving it — so its buffer is recycled and its account
            // is complete.
            drop(st);
            if let Ok(Retained::Pooled(buf)) = outcome {
                buf.recycle();
                RpcStats::bump(&self.ctx.stats.buffers_recycled);
                if span.finish() {
                    RpcStats::bump(&self.ctx.stats.trace_records);
                }
            }
            return;
        }
        match outcome {
            Ok(Retained::Frames(frames)) => {
                // A multi-packet result streams from the demux: park the
                // frames (before fragment 0 leaves, so its ack finds
                // them), send fragment 0, and go back to the queue. The
                // call counts as executing until the final fragment is
                // out.
                if frames.len() > 1 {
                    st.stream = Some(ResultStream {
                        frames: Arc::clone(&frames),
                        sent: 0,
                        sent_at: Instant::now(),
                        attempts: 0,
                    });
                } else {
                    st.in_progress = false;
                    st.retained = Retained::Frames(Arc::clone(&frames));
                }
                drop(st);
                if let Some(first) = frames.first() {
                    let _ = self.ctx.transport.send(first, src);
                    RpcStats::bump(&self.ctx.stats.fragments_sent);
                }
                // The account's boundary is the worker's last hand-off:
                // the remaining fragments are interrupt-level work.
                span.stamp(crate::trace::Stamp::ResultSent);
            }
            Ok(retained) => {
                st.in_progress = false;
                st.retained = retained;
                drop(st);
            }
            Err(e) => {
                st.in_progress = false;
                // Error result: single packet, call_failed flag, message
                // as data.
                drop(st);
                let msg = e.to_string();
                let data = &msg.as_bytes()[..msg.len().min(MAX_SINGLE_PACKET_DATA)];
                // `result_for` resets the flag word to the single-packet
                // shape; spelling the header as `..rpc` here used to leak
                // the call's please-ack bit into the error result, making
                // the caller send an ack nobody consumed.
                let header = RpcHeader::result_for(&rpc, data.len());
                let builder = self.ctx.builder_from(&header, src).call_failed(true);
                let _ = self.ctx.send_built(&builder, data, src);
                let mut st = act.state.lock();
                if st.last_seq == rpc.call_seq {
                    if let Ok(frame) = builder.build(data) {
                        st.retained = Retained::Heap(frame.into_bytes());
                    }
                }
                return;
            }
        }
        if span.finish() {
            RpcStats::bump(&self.ctx.stats.trace_records);
        }
    }

    /// Runs the stub + service and builds the result: a single-packet
    /// result is sent here and its pool buffer returned for retention;
    /// a multi-packet result comes back as its unsent fragment frames,
    /// for [`Self::dispatch`] to stream.
    fn execute(
        &self,
        call: &Assembled,
        src: SocketAddr,
        span: &mut crate::trace::Span<'_>,
    ) -> Result<Retained> {
        let rpc = *call.rpc();
        // The authorization hook runs after duplicate filtering, before
        // any service code (§7's "structural hooks").
        if let Some(gate) = self.gate.read().as_ref() {
            gate.authorize(rpc.activity, rpc.interface_uid, rpc.procedure)
                .map_err(|reason| RpcError::Remote(format!("call refused: {reason}")))?;
        }
        let services = self.services.read();
        let entry = services.get(&rpc.interface_uid).ok_or_else(|| {
            RpcError::Remote(format!("no such interface {:#x}", rpc.interface_uid))
        })?;
        if entry.version != rpc.interface_version {
            return Err(RpcError::Remote(format!(
                "interface version mismatch: have {}, caller wants {}",
                entry.version, rpc.interface_version
            )));
        }
        let stub = entry
            .stubs
            .get(rpc.procedure as usize)
            .ok_or_else(|| RpcError::Remote(format!("no procedure #{}", rpc.procedure)))?;

        // Unmarshal in place: CHAR arrays borrow the call packet.
        let args = stub.unmarshal_call(call.data())?;

        // Marshal the result straight into a fresh pool buffer from the
        // activity's shard (caller threads on other shards contend on
        // nothing); large results spill to the heap transparently.
        let shard = shard_for(rpc.activity, self.ctx.pool.shard_count());
        let mut result_buf = self
            .ctx
            .pool
            .alloc_timeout_from(shard, Duration::from_secs(1))?;
        let raw = result_buf.raw_mut();
        let mut writer = stub.result_writer(&mut raw[DATA_OFFSET..]);
        entry.service.dispatch(rpc.procedure, &args, &mut writer)?;
        let written = writer.finish()?;
        drop(args);
        drop(services);
        span.stamp(crate::trace::Stamp::StubDone);

        let result_header = RpcHeader::result_for(&rpc, written.len());
        match written {
            Written::InPlace { len } => {
                // Single packet: headers in place around the data, send,
                // retain the pool buffer — no per-call list around it.
                let total = self
                    .ctx
                    .builder_from(&result_header, src)
                    .encode_into(result_buf.raw_mut(), len)?;
                result_buf.set_len(total);
                // A send failure is indistinguishable from loss on the
                // wire: the caller retransmits and the duplicate is
                // answered from the retained buffer.
                let _ = self.ctx.transport.send(&result_buf, src);
                span.stamp(crate::trace::Stamp::ResultSent);
                Ok(Retained::Pooled(result_buf))
            }
            Written::Spilled(data) => {
                drop(result_buf);
                let count = crate::fragment::fragment_count(data.len())?;
                let frames = crate::fragment::fragments(&data)
                    .map(|(index, chunk)| {
                        let header = RpcHeader {
                            packet_type: PacketType::Result,
                            fragment: index,
                            fragment_count: count,
                            ..result_header
                        };
                        // Stop-and-wait: every fragment but the last asks
                        // for the ack that releases its successor.
                        self.ctx
                            .builder_from(&header, src)
                            .please_ack(index + 1 != count)
                            .build(chunk)
                            .map(|frame| frame.into_bytes())
                    })
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                Ok(Retained::Frames(frames.into()))
            }
        }
    }
}
