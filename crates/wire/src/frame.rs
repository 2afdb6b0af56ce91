//! Assembly and parsing of complete RPC-over-Ethernet frames.
//!
//! A frame is `Ethernet ‖ IPv4 ‖ UDP ‖ RPC ‖ data`. With empty data this is
//! exactly 74 bytes — the paper's minimal RPC packet — and with the maximal
//! 1440-byte single-packet payload it is 1514 bytes, the Ethernet maximum.
//!
//! [`FrameBuilder`] plays the role of the paper's `Sender` procedure, which
//! "fill\[s\] in the UDP, IP, and Ethernet headers, including the UDP
//! checksum on the packet contents"; [`Frame::parse`] plays the role of the
//! receive interrupt routine's header validation.

use crate::ethernet::{EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::ip::{Ipv4Header, IPV4_HEADER_LEN};
use crate::rpc::{ActivityId, PacketType, RpcHeader, MAX_SINGLE_PACKET_DATA, RPC_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::{Result, WireError};
use std::net::Ipv4Addr;

/// Total header bytes in every RPC frame: 14 + 20 + 8 + 32 = 74.
pub const RPC_HEADERS_LEN: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + RPC_HEADER_LEN;

/// The minimum RPC frame length — "the 74-byte minimum size generated for
/// Ethernet RPC" (§2 of the paper).
pub const MIN_FRAME_LEN: usize = RPC_HEADERS_LEN;

/// The maximum Ethernet frame length (excluding FCS): 1514 bytes.
pub const MAX_FRAME_LEN: usize = 1514;

// The arithmetic the paper depends on: 74 + 1440 = 1514.
const _: () = assert!(RPC_HEADERS_LEN == 74);
const _: () = assert!(RPC_HEADERS_LEN + MAX_SINGLE_PACKET_DATA == MAX_FRAME_LEN);

/// Byte offset of the RPC data within a frame.
pub const DATA_OFFSET: usize = RPC_HEADERS_LEN;

/// Returns the wire length of the frame starting at `bytes[0]`, read
/// from its IP total-length field without validating the rest.
///
/// Every datagram carries exactly one frame, so the demultiplexer
/// accepts a datagram only when this equals its length; bytes past the
/// first frame, or a frame cut short, make the whole datagram invalid.
/// Frames laid back to back in one buffer can still be walked by
/// repeated calls, which is how tools count the frames in raw bytes.
/// Full validation (checksums, lengths) happens in
/// [`FrameView::parse`]. Returns `None` when the prefix is too short or
/// the claimed length is implausible or overruns `bytes`.
pub fn coalesced_frame_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < ETHERNET_HEADER_LEN + IPV4_HEADER_LEN {
        return None;
    }
    let total = u16::from_be_bytes([
        bytes[ETHERNET_HEADER_LEN + 2],
        bytes[ETHERNET_HEADER_LEN + 3],
    ]) as usize;
    let len = ETHERNET_HEADER_LEN + total;
    if (MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) && len <= bytes.len() {
        Some(len)
    } else {
        None
    }
}

/// A fully parsed RPC frame, with owned headers and a data region described
/// by offset into the original buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The Ethernet header.
    pub ethernet: EthernetHeader,
    /// The IPv4 header.
    pub ip: Ipv4Header,
    /// The UDP header.
    pub udp: UdpHeader,
    /// The RPC header.
    pub rpc: RpcHeader,
    /// The marshalled data bytes.
    pub data: Vec<u8>,
}

impl Frame {
    /// Parses and validates a complete frame.
    ///
    /// Performs the same checks as the Firefly Ethernet interrupt routine:
    /// EtherType, IP version and header checksum, IP protocol, UDP length
    /// consistency, UDP checksum (when present), RPC packet type, and RPC
    /// data length.
    pub fn parse(bytes: &[u8]) -> Result<Frame> {
        if bytes.len() > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLong(bytes.len()));
        }
        let ethernet = EthernetHeader::decode_ipv4(bytes)?;
        let ip_bytes = &bytes[ETHERNET_HEADER_LEN..];
        let ip = Ipv4Header::decode_udp(ip_bytes)?;
        let udp_bytes = &ip_bytes[IPV4_HEADER_LEN..];
        let udp = UdpHeader::decode(udp_bytes)?;
        let avail_after_udp = udp_bytes.len().saturating_sub(UDP_HEADER_LEN);
        let udp_data_len = udp.data_len();
        if udp_data_len < RPC_HEADER_LEN || udp_data_len > avail_after_udp {
            return Err(WireError::BadUdpLength {
                claimed: udp.length as usize,
                available: avail_after_udp + UDP_HEADER_LEN,
            });
        }
        let udp_payload = &udp_bytes[UDP_HEADER_LEN..UDP_HEADER_LEN + udp_data_len];
        udp.verify_checksum(&ip, udp_bytes, udp_payload)?;
        let rpc = RpcHeader::decode(udp_payload)?;
        let data_avail = udp_payload.len() - RPC_HEADER_LEN;
        if rpc.data_len as usize != data_avail {
            return Err(WireError::BadDataLength {
                claimed: rpc.data_len as usize,
                available: data_avail,
            });
        }
        Ok(Frame {
            ethernet,
            ip,
            udp,
            rpc,
            // lint:allow(no-alloc-on-fast-path): `Frame::decode` builds
            // an owned frame for tools and tests; the runtime parses
            // packets in place in the pooled buffer instead.
            data: udp_payload[RPC_HEADER_LEN..].to_vec(),
        })
    }

    /// Returns the wire length of this frame when re-encoded.
    pub fn wire_len(&self) -> usize {
        RPC_HEADERS_LEN + self.data.len()
    }
}

/// A parsed frame that borrows its data region from the receive buffer.
///
/// The Firefly interrupt handler validates headers and hands the waiting
/// thread the *buffer itself*, never copying packet data; `FrameView` is
/// the same idea — [`Frame::parse`] copies the payload, `FrameView::parse`
/// does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The Ethernet header.
    pub ethernet: EthernetHeader,
    /// The IPv4 header.
    pub ip: Ipv4Header,
    /// The UDP header.
    pub udp: UdpHeader,
    /// The RPC header.
    pub rpc: RpcHeader,
    /// The marshalled data, borrowed from the packet buffer.
    pub data: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses and validates a frame without copying the data region.
    ///
    /// Performs the same validation as [`Frame::parse`].
    pub fn parse(bytes: &'a [u8]) -> Result<FrameView<'a>> {
        if bytes.len() > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLong(bytes.len()));
        }
        let ethernet = EthernetHeader::decode_ipv4(bytes)?;
        let ip_bytes = &bytes[ETHERNET_HEADER_LEN..];
        let ip = Ipv4Header::decode_udp(ip_bytes)?;
        let udp_bytes = &ip_bytes[IPV4_HEADER_LEN..];
        let udp = UdpHeader::decode(udp_bytes)?;
        let avail_after_udp = udp_bytes.len().saturating_sub(UDP_HEADER_LEN);
        let udp_data_len = udp.data_len();
        if udp_data_len < RPC_HEADER_LEN || udp_data_len > avail_after_udp {
            return Err(WireError::BadUdpLength {
                claimed: udp.length as usize,
                available: avail_after_udp + UDP_HEADER_LEN,
            });
        }
        let udp_payload = &udp_bytes[UDP_HEADER_LEN..UDP_HEADER_LEN + udp_data_len];
        udp.verify_checksum(&ip, udp_bytes, udp_payload)?;
        let rpc = RpcHeader::decode(udp_payload)?;
        let data_avail = udp_payload.len() - RPC_HEADER_LEN;
        if rpc.data_len as usize != data_avail {
            return Err(WireError::BadDataLength {
                claimed: rpc.data_len as usize,
                available: data_avail,
            });
        }
        Ok(FrameView {
            ethernet,
            ip,
            udp,
            rpc,
            data: &udp_payload[RPC_HEADER_LEN..],
        })
    }
}

/// An encoded frame, ready for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    bytes: Vec<u8>,
}

impl EncodedFrame {
    /// Returns the raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the frame, returning the byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Returns the total wire length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns true if the frame is empty (never the case for built
    /// frames, which are at least 74 bytes).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Builder that assembles a complete RPC frame, the job of the paper's
/// `Sender` procedure.
///
/// # Examples
///
/// ```
/// use firefly_wire::{FrameBuilder, PacketType, ActivityId, MAX_FRAME_LEN};
///
/// let data = vec![0u8; 1440];
/// let frame = FrameBuilder::new(PacketType::Call)
///     .activity(ActivityId::new(1, 2, 3))
///     .call_seq(9)
///     .build(&data)
///     .unwrap();
/// assert_eq!(frame.len(), MAX_FRAME_LEN);
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    packet_type: PacketType,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    activity: ActivityId,
    call_seq: u32,
    fragment: u16,
    fragment_count: u16,
    please_ack: bool,
    acks_result: bool,
    call_failed: bool,
    interface_uid: u64,
    interface_version: u16,
    procedure: u16,
    ip_ident: u16,
    with_checksum: bool,
}

impl FrameBuilder {
    /// Starts a builder for the given packet type with neutral defaults.
    pub fn new(packet_type: PacketType) -> Self {
        FrameBuilder {
            packet_type,
            src_mac: MacAddr::from_host_id(0),
            dst_mac: MacAddr::from_host_id(0),
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            activity: ActivityId::default(),
            call_seq: 0,
            fragment: 0,
            fragment_count: 1,
            please_ack: false,
            acks_result: false,
            call_failed: false,
            interface_uid: 0,
            interface_version: 0,
            procedure: 0,
            ip_ident: 0,
            with_checksum: true,
        }
    }

    /// Sets source and destination MAC addresses.
    pub fn macs(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Sets source and destination IP addresses.
    pub fn ips(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.src_ip = src;
        self.dst_ip = dst;
        self
    }

    /// Sets the calling activity.
    pub fn activity(mut self, a: ActivityId) -> Self {
        self.activity = a;
        self
    }

    /// Sets the call sequence number.
    pub fn call_seq(mut self, seq: u32) -> Self {
        self.call_seq = seq;
        self
    }

    /// Sets fragment index and count for multi-packet calls/results.
    pub fn fragment(mut self, index: u16, count: u16) -> Self {
        self.fragment = index;
        self.fragment_count = count;
        self
    }

    /// Requests an explicit acknowledgement (retransmissions, non-final
    /// fragments).
    pub fn please_ack(mut self, v: bool) -> Self {
        self.please_ack = v;
        self
    }

    /// Marks an Ack as acknowledging a result packet (caller→server).
    pub fn acks_result(mut self, v: bool) -> Self {
        self.acks_result = v;
        self
    }

    /// Marks a Result as an RPC-layer failure whose data is an error text.
    pub fn call_failed(mut self, v: bool) -> Self {
        self.call_failed = v;
        self
    }

    /// Sets the interface binding.
    pub fn interface(mut self, uid: u64, version: u16) -> Self {
        self.interface_uid = uid;
        self.interface_version = version;
        self
    }

    /// Sets the procedure index.
    pub fn procedure(mut self, index: u16) -> Self {
        self.procedure = index;
        self
    }

    /// Sets the IP identification field.
    pub fn ip_ident(mut self, ident: u16) -> Self {
        self.ip_ident = ident;
        self
    }

    /// Enables or disables the software UDP checksum (§4.2.4).
    pub fn with_checksum(mut self, v: bool) -> Self {
        self.with_checksum = v;
        self
    }

    /// Assembles the frame around `data`.
    ///
    /// Fails if `data` exceeds the 1440-byte single-packet maximum; larger
    /// values must be fragmented by the RPC layer first.
    pub fn build(&self, data: &[u8]) -> Result<EncodedFrame> {
        if data.len() > MAX_SINGLE_PACKET_DATA {
            return Err(WireError::PayloadTooLarge(data.len()));
        }
        let total = RPC_HEADERS_LEN + data.len();
        // lint:allow(no-alloc-on-fast-path): `build` is the heap-frame
        // constructor for retained results and fragments; the per-call
        // path uses `encode_into` on the pooled buffer.
        let mut bytes = vec![0u8; total];
        bytes[DATA_OFFSET..].copy_from_slice(data);
        self.encode_into(&mut bytes, data.len())?;
        Ok(EncodedFrame { bytes })
    }

    /// Writes the headers **in place** around data that is already at
    /// [`DATA_OFFSET`]`..DATA_OFFSET + data_len` in `buf`, and returns the
    /// total frame length.
    ///
    /// This is the zero-copy path the paper's buffer-pool design enables:
    /// the stub marshals straight into a pool buffer and the `Sender` then
    /// "fill\[s\] in the UDP, IP, and Ethernet headers, including the UDP
    /// checksum" without the data ever moving.
    pub fn encode_into(&self, buf: &mut [u8], data_len: usize) -> Result<usize> {
        if data_len > MAX_SINGLE_PACKET_DATA {
            return Err(WireError::PayloadTooLarge(data_len));
        }
        let total = RPC_HEADERS_LEN + data_len;
        if buf.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                available: buf.len(),
            });
        }
        let bytes = &mut buf[..total];

        let eth = EthernetHeader::ipv4(self.src_mac, self.dst_mac);
        eth.encode(&mut bytes[..ETHERNET_HEADER_LEN])?;

        let udp_len = UDP_HEADER_LEN + RPC_HEADER_LEN + data_len;
        let ip = Ipv4Header::udp(self.src_ip, self.dst_ip, udp_len, self.ip_ident);
        ip.encode(&mut bytes[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + IPV4_HEADER_LEN])?;

        let rpc = RpcHeader {
            packet_type: self.packet_type,
            flags: crate::rpc::PacketFlags {
                please_ack: self.please_ack,
                last_fragment: self.fragment + 1 == self.fragment_count,
                acks_result: self.acks_result,
                call_failed: self.call_failed,
            },
            activity: self.activity,
            call_seq: self.call_seq,
            fragment: self.fragment,
            fragment_count: self.fragment_count,
            interface_uid: self.interface_uid,
            interface_version: self.interface_version,
            procedure: self.procedure,
            data_len: data_len as u16,
        };
        // Encode the RPC header first so the UDP checksum can be computed
        // over the final payload bytes (the data is already in place).
        let udp_payload_start = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
        rpc.encode(&mut bytes[udp_payload_start..udp_payload_start + RPC_HEADER_LEN])?;

        let udp = UdpHeader::rpc(RPC_HEADER_LEN + data_len);
        // Split the buffer so the UDP encoder can see its payload while
        // writing the header.
        let (head, payload) = bytes.split_at_mut(udp_payload_start);
        let udp_header_out = &mut head[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..];
        udp.encode(udp_header_out, &ip, payload, self.with_checksum)?;

        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> FrameBuilder {
        FrameBuilder::new(PacketType::Call)
            .macs(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ips(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .activity(ActivityId::new(1, 7, 3))
            .call_seq(55)
            .interface(0x1122_3344_5566_7788, 4)
            .procedure(2)
    }

    #[test]
    fn null_call_is_exactly_74_bytes() {
        let f = builder().build(&[]).unwrap();
        assert_eq!(f.len(), 74);
        assert_eq!(f.len(), MIN_FRAME_LEN);
    }

    #[test]
    fn max_result_is_exactly_1514_bytes() {
        let data = vec![0xa5u8; MAX_SINGLE_PACKET_DATA];
        let f = FrameBuilder::new(PacketType::Result).build(&data).unwrap();
        assert_eq!(f.len(), MAX_FRAME_LEN);
    }

    #[test]
    fn oversize_payload_rejected() {
        let data = vec![0u8; MAX_SINGLE_PACKET_DATA + 1];
        assert_eq!(
            builder().build(&data).unwrap_err(),
            WireError::PayloadTooLarge(1441)
        );
    }

    #[test]
    fn full_round_trip() {
        let data: Vec<u8> = (0..1440u32).map(|i| (i % 251) as u8).collect();
        let f = builder().build(&data).unwrap();
        let parsed = Frame::parse(f.bytes()).unwrap();
        assert_eq!(parsed.rpc.packet_type, PacketType::Call);
        assert_eq!(parsed.rpc.activity, ActivityId::new(1, 7, 3));
        assert_eq!(parsed.rpc.call_seq, 55);
        assert_eq!(parsed.rpc.interface_uid, 0x1122_3344_5566_7788);
        assert_eq!(parsed.rpc.procedure, 2);
        assert_eq!(parsed.data, data);
        assert_eq!(parsed.wire_len(), f.len());
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let data = vec![7u8; 100];
        let f = builder().build(&data).unwrap();
        let mut bytes = f.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert!(matches!(
            Frame::parse(&bytes),
            Err(WireError::BadUdpChecksum { .. })
        ));
    }

    #[test]
    fn disabled_checksum_skips_verification() {
        let data = vec![7u8; 100];
        let f = builder().with_checksum(false).build(&data).unwrap();
        let mut bytes = f.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        // Without the end-to-end checksum the corruption goes undetected —
        // exactly why the paper keeps checksums on (§4.2.4).
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed.data[99], 7 ^ 0x80);
    }

    #[test]
    fn truncated_frame_rejected() {
        let f = builder().build(&[1, 2, 3]).unwrap();
        let bytes = f.bytes();
        for cut in [0, 10, 20, 40, 73, bytes.len() - 1] {
            assert!(Frame::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn data_length_mismatch_rejected() {
        let f = builder().build(&[1, 2, 3, 4]).unwrap();
        let mut bytes = f.into_bytes();
        // Lie about the RPC data length (offset 30 within the RPC header).
        let rpc_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
        bytes[rpc_off + 30..rpc_off + 32].copy_from_slice(&10u16.to_be_bytes());
        // The UDP checksum now fails first; zero it to reach the RPC check.
        bytes[rpc_off - 2..rpc_off].copy_from_slice(&[0, 0]);
        assert!(matches!(
            Frame::parse(&bytes),
            Err(WireError::BadDataLength {
                claimed: 10,
                available: 4
            })
        ));
    }

    #[test]
    fn coalesced_frame_len_reads_one_frame() {
        let f = builder().build(&[1, 2, 3]).unwrap();
        assert_eq!(coalesced_frame_len(f.bytes()), Some(f.len()));
        // A maximal frame fills the datagram exactly.
        let max = FrameBuilder::new(PacketType::Result)
            .build(&vec![0u8; MAX_SINGLE_PACKET_DATA])
            .unwrap();
        assert_eq!(coalesced_frame_len(max.bytes()), Some(MAX_FRAME_LEN));
    }

    #[test]
    fn coalesced_frame_len_walks_packed_frames() {
        let a = builder().build(&[]).unwrap();
        let b = builder().call_seq(56).build(&[9; 40]).unwrap();
        let mut packed = a.bytes().to_vec();
        packed.extend_from_slice(b.bytes());
        let first = coalesced_frame_len(&packed).unwrap();
        assert_eq!(first, a.len());
        let second = coalesced_frame_len(&packed[first..]).unwrap();
        assert_eq!(second, b.len());
        assert_eq!(first + second, packed.len());
        // Each boundary parses as a complete, valid frame.
        let fa = Frame::parse(&packed[..first]).unwrap();
        let fb = Frame::parse(&packed[first..]).unwrap();
        assert_eq!(fa.rpc.call_seq, 55);
        assert_eq!(fb.rpc.call_seq, 56);
        assert_eq!(fb.data, vec![9; 40]);
    }

    #[test]
    fn coalesced_frame_len_rejects_garbage() {
        // Too short to hold the IP header at all.
        assert_eq!(coalesced_frame_len(&[0u8; 33]), None);
        // Claimed length below the 74-byte minimum.
        let mut short = builder().build(&[]).unwrap().into_bytes();
        short[ETHERNET_HEADER_LEN + 2..ETHERNET_HEADER_LEN + 4]
            .copy_from_slice(&10u16.to_be_bytes());
        assert_eq!(coalesced_frame_len(&short), None);
        // Claimed length overrunning the datagram (truncated tail).
        let f = builder().build(&[7; 100]).unwrap();
        assert_eq!(coalesced_frame_len(&f.bytes()[..f.len() - 1]), None);
        // Claimed length above the Ethernet maximum.
        let mut long = builder().build(&[]).unwrap().into_bytes();
        long[ETHERNET_HEADER_LEN + 2..ETHERNET_HEADER_LEN + 4]
            .copy_from_slice(&4000u16.to_be_bytes());
        long.resize(4100, 0);
        assert_eq!(coalesced_frame_len(&long), None);
    }

    #[test]
    fn frame_view_borrows_data() {
        let data: Vec<u8> = (0..100u8).collect();
        let f = builder().build(&data).unwrap();
        let bytes = f.bytes();
        let view = FrameView::parse(bytes).unwrap();
        assert_eq!(view.data, &data[..]);
        // The borrowed slice points into the original buffer.
        assert_eq!(view.data.as_ptr(), bytes[DATA_OFFSET..].as_ptr());
        // And agrees with the copying parser.
        let owned = Frame::parse(bytes).unwrap();
        assert_eq!(owned.rpc, view.rpc);
        assert_eq!(owned.data, view.data);
    }

    #[test]
    fn encode_into_matches_build() {
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let built = builder().build(&data).unwrap();
        let mut buf = vec![0u8; 1514];
        buf[DATA_OFFSET..DATA_OFFSET + data.len()].copy_from_slice(&data);
        let n = builder().encode_into(&mut buf, data.len()).unwrap();
        assert_eq!(n, built.len());
        assert_eq!(&buf[..n], built.bytes());
    }

    #[test]
    fn encode_into_needs_room() {
        let mut buf = vec![0u8; 80];
        assert!(matches!(
            builder().encode_into(&mut buf, 100),
            Err(WireError::Truncated { .. })
        ));
        let mut big = vec![0u8; 2000];
        assert!(matches!(
            builder().encode_into(&mut big, MAX_SINGLE_PACKET_DATA + 1),
            Err(WireError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn fragment_flags_derived_from_position() {
        let b = builder().fragment(0, 3);
        let f = b.build(&[0u8; 10]).unwrap();
        let parsed = Frame::parse(f.bytes()).unwrap();
        assert!(!parsed.rpc.flags.last_fragment);
        let b = builder().fragment(2, 3);
        let f = b.build(&[0u8; 10]).unwrap();
        let parsed = Frame::parse(f.bytes()).unwrap();
        assert!(parsed.rpc.flags.last_fragment);
    }
}
