//! The isolated layer suite: each layer's public functions timed alone,
//! with nanosecond resolution, outside the running stack.
//!
//! CPU-bound operations are timed in calibrated batches and reported as
//! the median ns per operation over the batches; blocking round trips
//! (raw UDP, condvar wakeup) are timed one by one and reported as the
//! exact median.

use crate::stats;
use firefly_idl::{parse_interface, CompiledStub, StubEngine, Value};
use firefly_pool::BufferPool;
use firefly_rng::Rng;
use firefly_rpc::calltable::{Deliver, ShardedCallTable, Wait};
use firefly_rpc::packet::Packet;
use firefly_rpc::transport::{Transport, UdpTransport};
use firefly_sync::{Condvar, Mutex};
use firefly_wire::{internet_checksum, ActivityId, Frame, FrameBuilder, PacketType};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Data bytes of a maximal single-packet frame (1514 bytes on the wire).
const MAX_DATA: usize = 1440;

/// Median ns per call of `f`, over batches sized to run at least
/// 100 µs each, sampled until `budget` is spent (at least 5 batches).
fn ns_per_op(budget: Duration, mut f: impl FnMut()) -> f64 {
    let batch_target = Duration::from_micros(100);
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= batch_target || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let end = Instant::now() + budget;
    let mut per_op = Vec::new();
    while per_op.len() < 5 || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_op.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&per_op)
}

/// Exact median of individually timed operations, run until `budget`
/// is spent (at least 100 of them), in µs.
fn median_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let end = Instant::now() + budget;
    let mut ns = Vec::new();
    while ns.len() < 100 || Instant::now() < end {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    stats::quantile_sorted(&ns, 0.5) as f64 / 1e3
}

fn compiled(source: &str, procedure: &str) -> CompiledStub {
    let iface = parse_interface(source).expect("layer-suite interface parses");
    let p = iface.procedure(procedure).expect("procedure declared");
    CompiledStub::new(p.name(), Arc::clone(p.plan()))
}

fn data_frame(data: &[u8]) -> Vec<u8> {
    FrameBuilder::new(PacketType::Call)
        .activity(ActivityId::new(1, 2, 3))
        .call_seq(42)
        .build(data)
        .expect("frame builds")
        .bytes()
        .to_vec()
}

/// Raw `UdpTransport` ping-pong of one `len`-byte datagram against an
/// echo thread: the floor under any RPC round trip.
fn udp_rtt_us(frame: &[u8], budget: Duration) -> f64 {
    let ping = UdpTransport::localhost().expect("ping socket");
    let echo = UdpTransport::localhost().expect("echo socket");
    let echo_addr = echo.local_addr();
    std::thread::scope(|scope| {
        let echo_side = Arc::clone(&echo);
        scope.spawn(move || {
            let mut buf = vec![0u8; 2048];
            while let Ok((n, src)) = echo_side.recv(&mut buf) {
                if echo_side.send(&buf[..n], src).is_err() {
                    break;
                }
            }
        });
        let mut buf = vec![0u8; 2048];
        let rtt = median_us(budget, || {
            ping.send(frame, echo_addr).expect("ping send");
            let (n, _) = ping.recv(&mut buf).expect("ping recv");
            assert_eq!(n, frame.len(), "echo returned a different datagram");
        });
        echo.shutdown();
        rtt
    })
}

/// One-way wakeup through a `firefly_sync` Mutex+Condvar: half the
/// median round trip of two threads handing a turn back and forth.
fn condvar_wakeup_us(budget: Duration) -> f64 {
    // Odd: the responder's turn; even: the initiator's; `u64::MAX`: stop.
    let turn = Mutex::new(0u64);
    let cond = Condvar::new();
    let far = Instant::now() + Duration::from_secs(3600);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            let mut t = turn.lock();
            while t.is_multiple_of(2) {
                cond.wait_until(&mut t, far);
            }
            if *t == u64::MAX {
                return;
            }
            *t += 1;
            cond.notify_one();
        });
        let rtt = median_us(budget, || {
            let mut t = turn.lock();
            *t += 1;
            cond.notify_one();
            while !t.is_multiple_of(2) {
                cond.wait_until(&mut t, far);
            }
        });
        *turn.lock() = u64::MAX;
        cond.notify_one();
        rtt / 2.0
    })
}

/// Runs the whole suite within about `budget`; returns
/// `(metric name, value)` pairs in the units their names carry.
pub fn run(seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    // Thirteen batch timings take one share each and the three round
    // trips two: 19 of 20 shares, leaving room for set-up.
    let share = budget / 20;
    let mut rng = Rng::new(seed);
    let mut random = |len: usize| {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    };
    let mut out = Vec::new();

    // Wire: Table VI's checksum rows and the Sender / interrupt-routine
    // frame work.
    for (name, len) in [("wire.checksum_74_ns", 74), ("wire.checksum_1514_ns", 1514)] {
        let data = random(len);
        out.push((
            name,
            ns_per_op(share, || {
                black_box(internet_checksum(black_box(&data)));
            }),
        ));
    }
    let small = random(0);
    let large = random(MAX_DATA);
    for (name, data) in [
        ("wire.frame_build_74_ns", &small),
        ("wire.frame_build_1514_ns", &large),
    ] {
        let builder = FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(1, 2, 3))
            .call_seq(42);
        out.push((
            name,
            ns_per_op(share, || {
                black_box(builder.build(black_box(data)).expect("frame builds"));
            }),
        ));
    }
    for (name, data) in [
        ("wire.frame_parse_74_ns", &small),
        ("wire.frame_parse_1514_ns", &large),
    ] {
        let bytes = data_frame(data);
        out.push((
            name,
            ns_per_op(share, || {
                black_box(Frame::parse(black_box(&bytes)).expect("frame parses"));
            }),
        ));
    }

    // IDL: marshalling by argument type, Tables II-V and IX.
    let ints = compiled(
        "DEFINITION MODULE M; PROCEDURE P(a, b, x, y: INTEGER); END M.",
        "P",
    );
    let args: Vec<Value> = random(16)
        .chunks(4)
        .map(|b| Value::Integer(i32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect();
    let mut buf = vec![0u8; 2048];
    out.push((
        "idl.marshal_four_integers_ns",
        ns_per_op(share, || {
            black_box(
                ints.marshal_call(black_box(&args), &mut buf)
                    .expect("marshal"),
            );
        }),
    ));
    let arr = compiled(
        "DEFINITION MODULE A; PROCEDURE P(VAR IN b: ARRAY OF CHAR); END A.",
        "P",
    );
    let args = vec![Value::Bytes(large.clone())];
    out.push((
        "idl.marshal_open_array_1440_ns",
        ns_per_op(share, || {
            black_box(
                arr.marshal_call(black_box(&args), &mut buf)
                    .expect("marshal"),
            );
        }),
    ));
    let text = compiled("DEFINITION MODULE T; PROCEDURE P(t: Text.T); END T.", "P");
    let chars: String = random(128)
        .iter()
        .map(|b| char::from(b'a' + b % 26))
        .collect();
    let args = vec![Value::text(&chars)];
    out.push((
        "idl.text_128_round_trip_ns",
        ns_per_op(share, || {
            let n = text
                .marshal_call(black_box(&args), &mut buf)
                .expect("marshal");
            black_box(text.unmarshal_call(&buf[..n]).expect("unmarshal").len());
        }),
    ));
    let result = compiled(
        "DEFINITION MODULE R; PROCEDURE P(VAR OUT b: ARRAY OF CHAR); END R.",
        "P",
    );
    let outputs = vec![Value::Bytes(large.clone())];
    out.push((
        "idl.marshal_result_1440_ns",
        ns_per_op(share, || {
            black_box(
                result
                    .marshal_result(black_box(&outputs), &mut buf)
                    .expect("marshal"),
            );
        }),
    ));

    // Pool: the Starter/Ender buffer paths.
    let pool = BufferPool::new(8);
    out.push((
        "pool.alloc_free_ns",
        ns_per_op(share, || {
            black_box(pool.alloc().expect("pool has free buffers"));
        }),
    ));
    out.push((
        "pool.recycle_take_ns",
        ns_per_op(share, || {
            let buf = pool.take_receive_buffer().expect("pool has free buffers");
            pool.recycle_to_receive_queue(buf);
        }),
    ));

    // Call table: register a call, deliver its (real, parsed) result
    // packet, collect it and unregister.
    let table = ShardedCallTable::new(4);
    let activity = ActivityId::new(7, 1, 1);
    let result_frame = FrameBuilder::new(PacketType::Result)
        .activity(activity)
        .call_seq(1)
        .build(&[])
        .expect("result frame builds");
    out.push((
        "calltable.register_deliver_ns",
        ns_per_op(share, || {
            let entry = table.register(activity, 1);
            let mut buf = pool.alloc().expect("pool has free buffers");
            buf.fill_from(result_frame.bytes());
            let pkt = Packet::from_buf(buf).expect("result frame validates");
            assert!(matches!(table.deliver(pkt), Deliver::Accepted));
            assert!(matches!(entry.poll(), Some(Wait::Complete(_))));
            table.unregister(activity);
        }),
    ));

    // Transport floor and thread wakeup.
    out.push((
        "transport.udp_rtt_us",
        udp_rtt_us(&data_frame(&small), share * 2),
    ));
    out.push((
        "transport.udp_rtt_1514_us",
        udp_rtt_us(&data_frame(&large), share * 2),
    ));
    out.push(("sync.wakeup_us", condvar_wakeup_us(share * 2)));
    out
}
