//! Frame construction and transmission shared by caller and server paths.
//!
//! This is the runtime's `Sender` procedure (§3.1.3): it fills in the
//! Ethernet, IP and UDP headers — including the software UDP checksum —
//! around marshalled data and hands the frame to the bound transport.

use crate::stats::RpcStats;
use crate::trace::Tracer;
use crate::transport::Transport;
use crate::Result;
use firefly_pool::ShardedPool;
use firefly_wire::{FrameBuilder, MacAddr, PacketType, RpcHeader};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Derives a deterministic locally-administered MAC for a socket address.
pub(crate) fn mac_for(addr: &SocketAddr) -> MacAddr {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    };
    match addr.ip() {
        IpAddr::V4(v4) => v4.octets().iter().copied().for_each(&mut eat),
        IpAddr::V6(v6) => v6.octets().iter().copied().for_each(&mut eat),
    }
    addr.port().to_be_bytes().iter().copied().for_each(&mut eat);
    MacAddr::from_host_id(h)
}

/// The IPv4 address used in the inner IP header for an endpoint.
pub(crate) fn ipv4_of(addr: &SocketAddr) -> Ipv4Addr {
    match addr.ip() {
        IpAddr::V4(v4) => v4,
        // The inner header is IPv4-only; synthesize a stable stand-in.
        IpAddr::V6(_) => Ipv4Addr::new(10, 255, 255, 254),
    }
}

/// Everything needed to build and send frames from one endpoint.
pub(crate) struct SendCtx {
    pub transport: Arc<dyn Transport>,
    pub pool: ShardedPool,
    pub stats: Arc<RpcStats>,
    /// Per-call step tracer (the live latency account); rides here so
    /// both the caller path and the server path reach it through the
    /// context they already hold.
    pub tracer: Tracer,
    pub checksum: bool,
    pub src_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    /// Server-side protocol-transition witness (protocol.toml rows the
    /// demux/server handlers took); the caller-side rows live on the
    /// call-table shards. Relaxed counters, safe under any lock.
    pub witness: crate::witness::ProtocolWitness,
    ip_ident: AtomicU16,
}

impl SendCtx {
    pub fn new(
        transport: Arc<dyn Transport>,
        pool: ShardedPool,
        stats: Arc<RpcStats>,
        checksum: bool,
        trace_capacity: usize,
    ) -> SendCtx {
        let addr = transport.local_addr();
        SendCtx {
            src_mac: mac_for(&addr),
            src_ip: ipv4_of(&addr),
            transport,
            pool,
            stats,
            tracer: Tracer::new(trace_capacity),
            witness: crate::witness::ProtocolWitness::new(),
            checksum,
            ip_ident: AtomicU16::new(1),
        }
    }

    /// Starts a frame builder addressed to `dst` with this endpoint's
    /// identity and checksum policy filled in.
    pub fn builder(&self, packet_type: PacketType, dst: SocketAddr) -> FrameBuilder {
        FrameBuilder::new(packet_type)
            .macs(self.src_mac, mac_for(&dst))
            .ips(self.src_ip, ipv4_of(&dst))
            .with_checksum(self.checksum)
            .ip_ident(self.ip_ident.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a builder whose RPC header fields are copied from `hdr`.
    pub fn builder_from(&self, hdr: &RpcHeader, dst: SocketAddr) -> FrameBuilder {
        self.builder(hdr.packet_type, dst)
            .activity(hdr.activity)
            .call_seq(hdr.call_seq)
            .fragment(hdr.fragment, hdr.fragment_count)
            .interface(hdr.interface_uid, hdr.interface_version)
            .procedure(hdr.procedure)
            .please_ack(hdr.flags.please_ack)
            .acks_result(hdr.flags.acks_result)
            .call_failed(hdr.flags.call_failed)
    }

    /// Builds and sends a small frame (header-only or short data).
    pub fn send_built(&self, builder: &FrameBuilder, data: &[u8], dst: SocketAddr) -> Result<()> {
        let frame = builder.build(data)?;
        self.transport.send(frame.bytes(), dst)?;
        Ok(())
    }

    /// Sends an explicit acknowledgement described by `ack`.
    pub fn send_ack(&self, ack: &RpcHeader, dst: SocketAddr) -> Result<()> {
        self.send_built(&self.builder_from(ack, dst), &[], dst)?;
        RpcStats::bump(&self.stats.acks_sent);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_are_stable_and_distinct() {
        let a: SocketAddr = "10.0.0.1:3072".parse().unwrap();
        let b: SocketAddr = "10.0.0.2:3072".parse().unwrap();
        assert_eq!(mac_for(&a), mac_for(&a));
        assert_ne!(mac_for(&a), mac_for(&b));
        assert_ne!(mac_for(&a), mac_for(&"10.0.0.1:3073".parse().unwrap()));
    }

    #[test]
    fn builder_from_copies_every_header_field() {
        use firefly_wire::{ActivityId, Frame, PacketFlags, PacketType, RpcHeader};
        let pool = ShardedPool::new(1, 1);
        let stats = Arc::new(RpcStats::default());
        let a: SocketAddr = "127.0.0.1:9".parse().unwrap();
        // A loopback-ish transport stub is unnecessary: build the frame
        // and parse it back directly.
        struct Nop(SocketAddr);
        impl Transport for Nop {
            fn send(&self, _f: &[u8], _d: SocketAddr) -> std::io::Result<()> {
                Ok(())
            }
            fn recv(&self, _b: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
                Err(std::io::Error::other("nop"))
            }
            fn local_addr(&self) -> SocketAddr {
                self.0
            }
            fn shutdown(&self) {}
        }
        let ctx = SendCtx::new(Arc::new(Nop(a)), pool, stats, true, 8);
        let hdr = RpcHeader {
            packet_type: PacketType::Result,
            flags: PacketFlags {
                please_ack: true,
                last_fragment: false,
                acks_result: true,
                call_failed: true,
            },
            activity: ActivityId::new(7, 8, 9),
            call_seq: 1234,
            fragment: 2,
            fragment_count: 5,
            interface_uid: 0xabcd,
            interface_version: 3,
            procedure: 11,
            data_len: 4,
        };
        let dst: SocketAddr = "127.0.0.1:10".parse().unwrap();
        let frame = ctx.builder_from(&hdr, dst).build(&[1, 2, 3, 4]).unwrap();
        let parsed = Frame::parse(frame.bytes()).unwrap();
        assert_eq!(parsed.rpc, hdr);
    }

    #[test]
    fn ipv4_passthrough() {
        let a: SocketAddr = "192.168.7.9:99".parse().unwrap();
        assert_eq!(ipv4_of(&a), Ipv4Addr::new(192, 168, 7, 9));
        let v6: SocketAddr = "[::1]:99".parse().unwrap();
        assert_eq!(ipv4_of(&v6), Ipv4Addr::new(10, 255, 255, 254));
    }
}
