//! Multi-packet calls and results stream from the demultiplexer.
//!
//! An ack's arrival sends the next fragment from the demux thread, in
//! both directions, so neither the caller thread nor a server worker
//! waits out a fragment exchange: the caller sleeps once per call, and a
//! worker hands its result's fragment 0 to the wire and moves on. These
//! tests pin the consequences: a caller that stops acking cannot hold a
//! server thread, the caller endpoint counts one direct wakeup per
//! multi-fragment call, the caller's own timer recovers a result
//! fragment lost while it was probing (or a lost fragment 0, which it
//! cannot re-ack), and a network that duplicates packets does not
//! multiply result fragments.

use firefly_idl::{parse_interface, InterfaceDef, Value};
use firefly_rpc::transport::{FaultPlan, LoopbackNet, Transport};
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte offset of the RPC header within a frame (Ethernet 14 + IP 20 +
/// UDP 8); the packet type is its first byte, the flags its second and
/// the fragment index (big-endian) bytes 14..16.
const RPC_OFFSET: usize = 42;
const TYPE_RESULT: u8 = 2;
const TYPE_ACK: u8 = 3;
/// The acks-result bit of the flags byte.
const FLAG_ACKS_RESULT: u8 = 0x04;

/// What a [`Lossy`] transport swallows.
enum Loss {
    /// Every ack of a result fragment (a caller that stopped acking).
    ResultAcks,
    /// The first transmission of the result fragment with this index.
    FirstResultFragment(u16),
}

/// A transport that loses the frames its [`Loss`] rule names.
struct Lossy {
    inner: Arc<dyn Transport>,
    rule: Loss,
    dropped: AtomicBool,
}

impl Lossy {
    fn new(inner: Arc<dyn Transport>, rule: Loss) -> Arc<Lossy> {
        Arc::new(Lossy {
            inner,
            rule,
            dropped: AtomicBool::new(false),
        })
    }

    fn swallows(&self, frame: &[u8]) -> bool {
        let Some(rpc) = frame.get(RPC_OFFSET..RPC_OFFSET + 16) else {
            return false;
        };
        match self.rule {
            Loss::ResultAcks => rpc[0] == TYPE_ACK && rpc[1] & FLAG_ACKS_RESULT != 0,
            Loss::FirstResultFragment(index) => {
                rpc[0] == TYPE_RESULT
                    && u16::from_be_bytes([rpc[14], rpc[15]]) == index
                    && !self.dropped.swap(true, Ordering::SeqCst)
            }
        }
    }
}

impl Transport for Lossy {
    fn send(&self, frame: &[u8], dst: SocketAddr) -> io::Result<()> {
        if self.swallows(frame) {
            return Ok(()); // Lost on the "wire".
        }
        self.inner.send(frame, dst)
    }

    fn recv(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv(buf)
    }

    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

fn interface() -> InterfaceDef {
    parse_interface(
        "DEFINITION MODULE Stream;
           PROCEDURE Null();
           PROCEDURE Blob(VAR IN data: ARRAY OF CHAR; VAR OUT copy: ARRAY OF CHAR);
           PROCEDURE SlowBig(ms: INTEGER; VAR OUT big: ARRAY OF CHAR);
         END Stream.",
    )
    .unwrap()
}

/// Null, a byte-exact Blob echo, and SlowBig: sleep `ms`, then return a
/// 4000-byte (three-fragment) result.
fn service() -> Arc<dyn firefly_rpc::Service> {
    ServiceBuilder::new(interface())
        .on_call("Null", |_a, _w| Ok(()))
        .on_call("Blob", |args, w| {
            let data = args[0].bytes().unwrap();
            w.next_bytes(data.len())?.copy_from_slice(data);
            Ok(())
        })
        .on_call("SlowBig", |args, w| {
            let ms = args[0].value().and_then(Value::as_integer).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            w.next_bytes(4000)?.fill(7);
            Ok(())
        })
        .build()
        .unwrap()
}

fn blob(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn caller_that_stops_acking_does_not_hold_the_server_thread() {
    let net = LoopbackNet::new();
    let server_cfg = Config {
        server_threads: 1,
        ..Config::default()
    };
    let server = Endpoint::new(net.station(1), server_cfg).unwrap();
    server.export(service()).unwrap();
    // Caller A loses every result-fragment ack it sends; caller B is
    // healthy. Both talk to the same single-threaded server.
    let stalled = Endpoint::new(
        Lossy::new(net.station(2), Loss::ResultAcks),
        Config::default(),
    )
    .unwrap();
    let healthy = Endpoint::new(net.station(3), Config::default()).unwrap();
    let a = stalled.bind(&interface(), server.address()).unwrap();
    let b = healthy.bind(&interface(), server.address()).unwrap();

    let data = blob(5000);
    let stuck = std::thread::spawn(move || {
        a.call_with_deadline(
            "Blob",
            &[Value::Bytes(data), Value::Bytes(Vec::new())],
            Duration::from_secs(3),
        )
    });
    // Wait until the server has handed A's result to the wire: from
    // then on A's missing acks are all that stands between it and the
    // rest of its result.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().fragments_sent() == 0 {
        assert!(Instant::now() < deadline, "A's result never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    b.call("Null", &[]).unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "Null() waited {took:?} behind a caller that stopped acking"
    );
    // A never gets past fragment 0 of its result, and says so.
    assert!(stuck.join().unwrap().is_err());
}

#[test]
fn caller_wakes_once_per_multi_fragment_call() {
    let net = LoopbackNet::new();
    // Timers long enough that no retransmission (and so no ack or probe
    // wakeup) can happen on a slow test host.
    let cfg = Config {
        retransmit_initial: Duration::from_secs(1),
        retransmit_max: Duration::from_secs(2),
        ..Config::default()
    };
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    server.export(service()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();

    // 5760 bytes each way: four call fragments and four result fragments.
    let data = blob(5760);
    const CALLS: u64 = 20;
    for _ in 0..CALLS {
        let r = client
            .call(
                "Blob",
                &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())],
            )
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &data[..]);
    }
    // Counters are bumped just after the packet they count goes out, so
    // join the endpoints' threads before reading them.
    caller.shutdown();
    server.shutdown();
    let stats = caller.stats();
    assert_eq!(stats.retransmissions(), 0);
    assert_eq!(stats.fragments_sent(), 4 * CALLS);
    assert_eq!(server.stats().fragments_sent(), 4 * CALLS);
    // Six fragment acks per call, none of which wakes anybody: the
    // caller thread is woken only by each complete result.
    assert_eq!(stats.acks_sent() + server.stats().acks_sent(), 6 * CALLS);
    assert_eq!(stats.direct_wakeups(), CALLS);
}

#[test]
fn result_fragment_lost_while_probing_recovers_quickly() {
    let net = LoopbackNet::new();
    let server = Endpoint::new(
        Lossy::new(net.station(1), Loss::FirstResultFragment(1)),
        Config::default(),
    )
    .unwrap();
    server.export(service()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();

    // The handler outlasts the caller's first retransmission timer, so
    // the server acks the call and the caller is probing, on its long
    // timer, when the result starts; fragment 1 is then lost once.
    let started = Instant::now();
    let r = client
        .call("SlowBig", &[Value::Integer(150), Value::Bytes(Vec::new())])
        .unwrap();
    let took = started.elapsed();
    assert_eq!(r[0].as_bytes().unwrap(), &[7u8; 4000][..]);
    assert!(
        took < Duration::from_secs(1),
        "recovering a lost result fragment took {took:?}"
    );
    server.shutdown();
    assert!(
        caller.stats().acks_received() > 0,
        "the caller never probed"
    );
    // The lost fragment was resent (a slow host may add a fragment-0
    // resend answering a second call retransmission).
    assert!(server.stats().retransmissions() >= 1);
}

#[test]
fn lost_first_result_fragment_is_resent_with_the_executing_reply() {
    // With fragment 0 lost the caller holds nothing it could re-ack; its
    // please-ack retransmission is answered as for an executing call
    // (an ack) plus a resend of fragment 0.
    let net = LoopbackNet::new();
    let server = Endpoint::new(
        Lossy::new(net.station(1), Loss::FirstResultFragment(0)),
        Config::default(),
    )
    .unwrap();
    server.export(service()).unwrap();
    let caller = Endpoint::new(net.station(2), Config::default()).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();

    let started = Instant::now();
    let r = client
        .call_with_deadline(
            "SlowBig",
            &[Value::Integer(0), Value::Bytes(Vec::new())],
            Duration::from_secs(2),
        )
        .unwrap();
    assert_eq!(r[0].as_bytes().unwrap(), &[7u8; 4000][..]);
    assert!(started.elapsed() < Duration::from_secs(1));
    server.shutdown();
    assert!(server.stats().duplicate_calls() >= 1);
    assert!(server.stats().retransmissions() >= 1);
}

#[test]
fn duplicated_acks_do_not_multiply_result_fragments() {
    // Every frame is delivered twice, so every result fragment draws two
    // acks. A repeated ack resends a fragment only once a caller's retry
    // timer could have fired; answering the network's copies instead
    // would double the stream at each hop, for every fragment left.
    let net = LoopbackNet::new();
    let cfg = Config {
        retransmit_initial: Duration::from_secs(1),
        retransmit_max: Duration::from_secs(2),
        ..Config::default()
    };
    let server = Endpoint::new(net.station(1), cfg.clone()).unwrap();
    server.export(service()).unwrap();
    let caller = Endpoint::new(net.station(2), cfg).unwrap();
    let client = caller.bind(&interface(), server.address()).unwrap();
    net.set_faults(FaultPlan {
        loss: 0.0,
        duplicate: 1.0,
        corrupt: 0.0,
        delay: None,
    });

    // 8 fragments each way.
    let data = blob(11_000);
    const CALLS: u64 = 10;
    for _ in 0..CALLS {
        let r = client
            .call(
                "Blob",
                &[Value::Bytes(data.clone()), Value::Bytes(Vec::new())],
            )
            .unwrap();
        assert_eq!(r[0].as_bytes().unwrap(), &data[..]);
    }
    server.shutdown();
    assert_eq!(server.stats().fragments_sent(), 8 * CALLS);
    // A descheduled demux can let an occasional copy arrive late; a
    // chain costs several resends per fragment (hundreds here).
    let resent = server.stats().retransmissions();
    assert!(resent <= 2 * CALLS, "{resent} result fragments resent");
}
