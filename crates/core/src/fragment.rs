//! Splitting large calls and results into packet-sized fragments.
//!
//! "The RPC implementation allows arguments and results larger than 1440
//! bytes, but such larger arguments and results necessarily are
//! transmitted in multiple packets." (§2.) Following Birrell–Nelson,
//! every fragment except the last is sent stop-and-wait: it carries the
//! please-ack flag and the next fragment goes out only once its explicit
//! acknowledgement arrives, so no more than one packet per call is ever
//! outstanding without an ack.
//!
//! The sending thread does not wait out each exchange. It builds every
//! fragment frame up front, parks them (on the caller's call-table entry,
//! or in the server's activity slot), sends fragment 0 and sleeps or
//! moves on; the receiving demultiplexer sends fragment f+1 when the ack
//! of fragment f arrives, as interrupt-level work. The caller owns every
//! retransmission timer (see docs/PROTOCOL.md). The batching ablation,
//! `Config::fragment_blast`, replaces the caller's stop-and-wait with a
//! back-to-back window blast; see `Client::transact_blast`.

use firefly_wire::MAX_SINGLE_PACKET_DATA;

use crate::{Result, RpcError};

/// Maximum marshalled bytes a single fragment carries.
pub const MAX_FRAGMENT_DATA: usize = MAX_SINGLE_PACKET_DATA;

/// Maximum total marshalled size of one call or result.
pub const MAX_TRANSFER: usize = MAX_FRAGMENT_DATA * u16::MAX as usize;

/// Number of fragments needed for `len` bytes (at least 1 — a zero-byte
/// body still sends one packet).
pub fn fragment_count(len: usize) -> Result<u16> {
    if len > MAX_TRANSFER {
        return Err(RpcError::TooLarge(len));
    }
    Ok(len.div_ceil(MAX_FRAGMENT_DATA).max(1) as u16)
}

/// Iterates `(index, chunk)` fragments of `data`.
pub fn fragments(data: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    let count = data.len().div_ceil(MAX_FRAGMENT_DATA).max(1);
    (0..count).map(move |i| {
        let start = i * MAX_FRAGMENT_DATA;
        let end = (start + MAX_FRAGMENT_DATA).min(data.len());
        (i as u16, &data[start..end])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bodies_are_one_fragment() {
        assert_eq!(fragment_count(0).unwrap(), 1);
        assert_eq!(fragment_count(1).unwrap(), 1);
        assert_eq!(fragment_count(1440).unwrap(), 1);
        assert_eq!(fragment_count(1441).unwrap(), 2);
    }

    #[test]
    fn fragments_cover_data_exactly() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let parts: Vec<_> = fragments(&data).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1.len(), 1440);
        assert_eq!(parts[1].1.len(), 1440);
        assert_eq!(parts[2].1.len(), 1120);
        let rejoined: Vec<u8> = parts.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        assert_eq!(rejoined, data);
        assert_eq!(parts[2].0, 2);
    }

    #[test]
    fn empty_data_yields_one_empty_fragment() {
        let parts: Vec<_> = fragments(&[]).collect();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].1.is_empty());
    }

    #[test]
    fn oversize_rejected() {
        assert!(matches!(
            fragment_count(MAX_TRANSFER + 1),
            Err(RpcError::TooLarge(_))
        ));
    }
}
