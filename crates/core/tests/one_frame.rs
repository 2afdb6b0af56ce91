//! One frame per datagram.
//!
//! Every call and result travels as its own datagram (§3.1.3), so the
//! demultiplexer accepts a datagram only when it is exactly one frame
//! long. Two valid call frames packed into one datagram are dropped
//! whole and counted as a validation drop; neither call executes.

use firefly_idl::parse_interface;
use firefly_rpc::transport::UdpTransport;
use firefly_rpc::{Config, Endpoint, ServiceBuilder};
use firefly_wire::{ActivityId, FrameBuilder, PacketType};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_datagram_holding_two_frames_is_dropped_whole() {
    let iface = parse_interface(
        "DEFINITION MODULE Nul;
           PROCEDURE Null();
         END Nul.",
    )
    .unwrap();
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    let service = ServiceBuilder::new(iface.clone())
        .on_call("Null", move |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
        .build()
        .unwrap();
    let server = Endpoint::new(UdpTransport::localhost().unwrap(), Config::default()).unwrap();
    server.export(service).unwrap();

    let null_call = |machine: u32| {
        FrameBuilder::new(PacketType::Call)
            .activity(ActivityId::new(machine, 1, 1))
            .call_seq(1)
            .interface(iface.uid(), iface.version())
            .procedure(0)
            .build(&[])
            .unwrap()
            .into_bytes()
    };
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let drops_before = server.stats().validation_drops();

    let mut packed = null_call(101);
    packed.extend_from_slice(&null_call(102));
    raw.send_to(&packed, server.address()).unwrap();

    // A third call on its own proves the frames themselves are valid,
    // and, since the demux handles datagrams in order, that the packed
    // one has been handled by the time the lone call runs.
    raw.send_to(&null_call(103), server.address()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while runs.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the lone call never ran");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Give a wrongly split datagram's calls time to run before counting.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(runs.load(Ordering::SeqCst), 1, "only the lone call may run");
    assert_eq!(server.stats().validation_drops(), drops_before + 1);
    server.shutdown();
}
