//! Wire format for the UDP deployment.
//!
//! A datagram carries a message kind (request or response), a flags byte, the
//! sender's own descriptor and a list of descriptors. Each descriptor is encoded
//! as identifier (8 bytes), IPv4 address (4 bytes), port (2 bytes) and timestamp
//! (8 bytes). When the deployment runs with a descriptor-verification key
//! (`BootstrapParams::descriptor_verifier`), every descriptor is followed by an
//! 8-byte keyed stamp over its identifier × address binding — the wire-format
//! stand-in for a signature by the identifier's key holder — and receivers
//! reject descriptors whose stamp does not verify. A full message with the
//! paper's parameters stays well under a kilobyte and a half even when stamped,
//! comfortably inside a single UDP datagram.

use bss_sim::adversary::stamp;
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

/// Whether a datagram is the opening message of an exchange or the answer —
/// and which protocol layer it belongs to: the bootstrap exchange of Fig. 2,
/// or the peer-sampling gossip that keeps each node's sample pool a live
/// random view of the network (the deployment's NEWSCAST stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// Active-thread message (Fig. 2a line 5).
    Request,
    /// Passive-thread answer (Fig. 2b line 4).
    Response,
    /// Sampling-layer gossip: a draw from the sender's sample pool, addressed
    /// to a random pool member. Feeds pools only, never protocol tables.
    SampleRequest,
    /// Sampling-layer answer: the receiver's own pool draw.
    SampleResponse,
}

/// A decoded protocol datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Request or response.
    pub kind: MessageKind,
    /// The sender's own descriptor (identifier + address + timestamp).
    pub sender: Descriptor<SocketAddr>,
    /// The descriptors carried by the message.
    pub descriptors: Vec<Descriptor<SocketAddr>>,
    /// Keyed identity stamps, present only on keyed deployments: `stamps[0]`
    /// covers the sender descriptor, `stamps[i + 1]` covers `descriptors[i]`.
    /// Empty on unstamped messages.
    pub stamps: Vec<u64>,
}

impl WireMessage {
    /// An unstamped message (deployments without a verification key).
    pub fn unstamped(
        kind: MessageKind,
        sender: Descriptor<SocketAddr>,
        descriptors: Vec<Descriptor<SocketAddr>>,
    ) -> Self {
        WireMessage {
            kind,
            sender,
            descriptors,
            stamps: Vec::new(),
        }
    }

    /// Whether the message carries identity stamps.
    pub(crate) fn is_stamped(&self) -> bool {
        !self.stamps.is_empty()
    }
}

/// Error returned when a datagram cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed datagram: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Error returned when a message cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EncodeError {
    message: String,
}

impl EncodeError {
    fn new(message: impl Into<String>) -> Self {
        EncodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unencodable message: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

const MAGIC: u8 = 0xB5;
const VERSION: u8 = 2;
const FLAG_STAMPED: u8 = 0b0000_0001;

/// Number of bytes the fixed header occupies (magic, version, kind, flags,
/// count).
pub(crate) const HEADER_BYTES: usize = 6;

/// Number of bytes one encoded descriptor occupies (excluding its stamp).
pub(crate) const DESCRIPTOR_BYTES: usize = 8 + 4 + 2 + 8;

/// Number of bytes one identity stamp occupies.
pub(crate) const STAMP_BYTES: usize = 8;

/// Largest number of descriptors one datagram can carry: the count field on the
/// wire is a `u16`.
pub(crate) const MAX_DESCRIPTORS: usize = u16::MAX as usize;

/// Packs a socket address into the 64-bit address key the identity stamps
/// bind: IPv4 octets in the high bits, port in the low 16.
///
/// # Panics
///
/// Panics on IPv6 addresses (the localhost deployment only uses IPv4).
pub(crate) fn address_key(address: SocketAddr) -> u64 {
    match address {
        SocketAddr::V4(v4) => {
            (u64::from(u32::from_be_bytes(v4.ip().octets())) << 16) | u64::from(v4.port())
        }
        SocketAddr::V6(_) => panic!("the UDP deployment only supports IPv4 addresses"),
    }
}

/// The keyed identity stamp for one descriptor: the wire equivalent of the
/// simulator's registry check, computed over the identifier × address binding.
pub(crate) fn descriptor_stamp(key: u64, descriptor: &Descriptor<SocketAddr>) -> u64 {
    stamp(key, descriptor.id(), address_key(descriptor.address()))
}

/// Fills in the message's identity stamps under `key` (sender first, then
/// every carried descriptor), replacing any stamps already present.
pub fn seal(message: &mut WireMessage, key: u64) {
    message.stamps.clear();
    message.stamps.reserve(1 + message.descriptors.len());
    message.stamps.push(descriptor_stamp(key, &message.sender));
    for descriptor in &message.descriptors {
        message.stamps.push(descriptor_stamp(key, descriptor));
    }
}

/// Encodes a message into a datagram payload.
///
/// # Panics
///
/// Panics if the message carries more than `MAX_DESCRIPTORS` descriptors
/// (the wire count field is a `u16`; silently truncating the count while
/// encoding every descriptor would emit a corrupt datagram), if a stamped
/// message's stamp count does not match its descriptor count, or if any
/// descriptor carries a non-IPv4 address (the localhost deployment only uses
/// IPv4). Use `try_encode` to handle malformed messages as a value.
pub fn encode(message: &WireMessage) -> Bytes {
    match try_encode(message) {
        Ok(bytes) => bytes,
        Err(error) => panic!("{error}"),
    }
}

/// Encodes a message into a datagram payload, rejecting messages whose
/// descriptor count does not fit the wire format's `u16` count field or whose
/// stamp list does not cover exactly the sender plus every descriptor.
///
/// # Errors
///
/// Returns [`EncodeError`] when the message carries more than
/// [`MAX_DESCRIPTORS`] descriptors, or is stamped with a stamp count other
/// than `descriptors.len() + 1`.
///
/// # Panics
///
/// Panics if any descriptor carries a non-IPv4 address (the localhost
/// deployment only supports IPv4).
pub(crate) fn try_encode(message: &WireMessage) -> Result<Bytes, EncodeError> {
    if message.descriptors.len() > MAX_DESCRIPTORS {
        return Err(EncodeError::new(format!(
            "{} descriptors exceed the wire format's limit of {MAX_DESCRIPTORS}",
            message.descriptors.len()
        )));
    }
    let stamped = message.is_stamped();
    if stamped && message.stamps.len() != message.descriptors.len() + 1 {
        return Err(EncodeError::new(format!(
            "{} stamps cannot cover the sender plus {} descriptors",
            message.stamps.len(),
            message.descriptors.len()
        )));
    }
    let entry = DESCRIPTOR_BYTES + if stamped { STAMP_BYTES } else { 0 };
    let mut buffer =
        BytesMut::with_capacity(HEADER_BYTES + entry * (1 + message.descriptors.len()));
    buffer.put_u8(MAGIC);
    buffer.put_u8(VERSION);
    buffer.put_u8(match message.kind {
        MessageKind::Request => 0,
        MessageKind::Response => 1,
        MessageKind::SampleRequest => 2,
        MessageKind::SampleResponse => 3,
    });
    buffer.put_u8(if stamped { FLAG_STAMPED } else { 0 });
    buffer.put_u16(message.descriptors.len() as u16);
    put_descriptor(&mut buffer, &message.sender);
    if stamped {
        buffer.put_u64(message.stamps[0]);
    }
    for (index, descriptor) in message.descriptors.iter().enumerate() {
        put_descriptor(&mut buffer, descriptor);
        if stamped {
            buffer.put_u64(message.stamps[index + 1]);
        }
    }
    Ok(buffer.freeze())
}

/// Decodes a datagram payload.
///
/// # Errors
///
/// Returns [`DecodeError`] when the payload is truncated, has the wrong magic,
/// version, kind or flags byte, or advertises a length that does not match the
/// payload.
pub fn decode(mut payload: &[u8]) -> Result<WireMessage, DecodeError> {
    if payload.len() < HEADER_BYTES {
        return Err(DecodeError::new("shorter than the fixed header"));
    }
    let magic = payload.get_u8();
    if magic != MAGIC {
        return Err(DecodeError::new(format!("bad magic byte {magic:#x}")));
    }
    let version = payload.get_u8();
    if version != VERSION {
        return Err(DecodeError::new(format!("unsupported version {version}")));
    }
    let kind = match payload.get_u8() {
        0 => MessageKind::Request,
        1 => MessageKind::Response,
        2 => MessageKind::SampleRequest,
        3 => MessageKind::SampleResponse,
        other => return Err(DecodeError::new(format!("unknown message kind {other}"))),
    };
    let flags = payload.get_u8();
    if flags & !FLAG_STAMPED != 0 {
        return Err(DecodeError::new(format!("unknown flags {flags:#010b}")));
    }
    let stamped = flags & FLAG_STAMPED != 0;
    let count = payload.get_u16() as usize;
    let entry = DESCRIPTOR_BYTES + if stamped { STAMP_BYTES } else { 0 };
    let expected = entry * (count + 1);
    if payload.remaining() != expected {
        return Err(DecodeError::new(format!(
            "expected {expected} descriptor bytes, found {}",
            payload.remaining()
        )));
    }
    let mut stamps = Vec::with_capacity(if stamped { count + 1 } else { 0 });
    let sender = get_descriptor(&mut payload);
    if stamped {
        stamps.push(payload.get_u64());
    }
    let descriptors = (0..count)
        .map(|_| {
            let descriptor = get_descriptor(&mut payload);
            if stamped {
                stamps.push(payload.get_u64());
            }
            descriptor
        })
        .collect();
    Ok(WireMessage {
        kind,
        sender,
        descriptors,
        stamps,
    })
}

fn put_descriptor(buffer: &mut BytesMut, descriptor: &Descriptor<SocketAddr>) {
    buffer.put_u64(descriptor.id().raw());
    match descriptor.address() {
        SocketAddr::V4(v4) => {
            buffer.put_slice(&v4.ip().octets());
            buffer.put_u16(v4.port());
        }
        SocketAddr::V6(_) => panic!("the UDP deployment only supports IPv4 addresses"),
    }
    buffer.put_u64(descriptor.timestamp());
}

fn get_descriptor(payload: &mut &[u8]) -> Descriptor<SocketAddr> {
    let id = NodeId::new(payload.get_u64());
    let mut octets = [0u8; 4];
    payload.copy_to_slice(&mut octets);
    let port = payload.get_u16();
    let address = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::from(octets), port));
    let timestamp = payload.get_u64();
    Descriptor::new(id, address, timestamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }

    fn descriptor(id: u64, port: u16, ts: u64) -> Descriptor<SocketAddr> {
        Descriptor::new(NodeId::new(id), addr(port), ts)
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(42, 9000, 7),
            vec![
                descriptor(1, 9001, 1),
                descriptor(u64::MAX, 65535, u64::MAX),
            ],
        );
        let encoded = encode(&message);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, message);
    }

    #[test]
    fn sampling_layer_kinds_round_trip() {
        for kind in [MessageKind::SampleRequest, MessageKind::SampleResponse] {
            let message =
                WireMessage::unstamped(kind, descriptor(9, 4000, 3), vec![descriptor(10, 4001, 2)]);
            let decoded = decode(&encode(&message)).unwrap();
            assert_eq!(decoded, message);
            let mut stamped = message;
            seal(&mut stamped, 0xabcd);
            assert_eq!(decode(&encode(&stamped)).unwrap(), stamped);
        }
    }

    #[test]
    fn round_trip_of_empty_and_response_messages() {
        let message = WireMessage::unstamped(MessageKind::Response, descriptor(3, 1234, 0), vec![]);
        let decoded = decode(&encode(&message)).unwrap();
        assert_eq!(decoded.kind, MessageKind::Response);
        assert!(decoded.descriptors.is_empty());
        assert!(!decoded.is_stamped());
    }

    #[test]
    fn stamped_round_trip_preserves_stamps() {
        let mut message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(42, 9000, 7),
            vec![descriptor(1, 9001, 1), descriptor(2, 9002, 2)],
        );
        seal(&mut message, 0xfeed_beef);
        assert!(message.is_stamped());
        assert_eq!(message.stamps.len(), 3);
        let decoded = decode(&encode(&message)).unwrap();
        assert_eq!(decoded, message);
        assert_eq!(
            decoded.stamps[0],
            descriptor_stamp(0xfeed_beef, &message.sender)
        );
    }

    #[test]
    fn stamps_bind_the_descriptor_identity_and_the_key() {
        let d = descriptor(42, 9000, 7);
        let s = descriptor_stamp(1, &d);
        assert_eq!(descriptor_stamp(1, &d), s, "deterministic");
        assert_ne!(descriptor_stamp(2, &d), s, "key matters");
        assert_ne!(
            descriptor_stamp(1, &descriptor(43, 9000, 7)),
            s,
            "id matters"
        );
        assert_ne!(
            descriptor_stamp(1, &descriptor(42, 9001, 7)),
            s,
            "address matters"
        );
        assert_eq!(
            descriptor_stamp(1, &descriptor(42, 9000, 99)),
            s,
            "the stamp covers identity, not freshness"
        );
    }

    #[test]
    fn mismatched_stamp_counts_are_rejected() {
        let mut message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(1, 1, 1),
            vec![descriptor(2, 2, 2)],
        );
        message.stamps = vec![7]; // needs 2: sender + one descriptor
        let error = try_encode(&message).unwrap_err();
        assert!(error.to_string().contains("cannot cover"), "{error}");
    }

    #[test]
    fn encoded_size_matches_formula() {
        let message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(1, 1, 1),
            (0..10).map(|i| descriptor(i, 9000, 0)).collect(),
        );
        assert_eq!(encode(&message).len(), HEADER_BYTES + DESCRIPTOR_BYTES * 11);
        let mut stamped = message;
        seal(&mut stamped, 1);
        assert_eq!(
            encode(&stamped).len(),
            HEADER_BYTES + (DESCRIPTOR_BYTES + STAMP_BYTES) * 11
        );
    }

    #[test]
    fn paper_sized_messages_fit_one_datagram() {
        // c = 20 ring entries plus a generous 40 prefix-useful entries.
        let message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(1, 1, 1),
            (0..60).map(|i| descriptor(i, 9000, 0)).collect(),
        );
        assert!(encode(&message).len() < 1500, "must fit a typical MTU");
        // Stamping costs 8 bytes per descriptor, so the keyed deployment's
        // headroom is smaller but a paper-default message (c = 20 plus cr = 30
        // samples, before selection trims it) still fits.
        let mut stamped = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(1, 1, 1),
            (0..45).map(|i| descriptor(i, 9000, 0)).collect(),
        );
        seal(&mut stamped, 1);
        assert!(encode(&stamped).len() < 1500, "stamped must fit an MTU too");
    }

    #[test]
    fn descriptor_count_boundary_round_trips_and_overflow_is_rejected() {
        // Exactly at the u16 boundary: encodes and round-trips losslessly.
        let at_limit = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(0, 1, 0),
            (0..MAX_DESCRIPTORS as u64)
                .map(|i| descriptor(i, (i % 60_000) as u16, i))
                .collect(),
        );
        let encoded = try_encode(&at_limit).expect("the boundary count must encode");
        assert_eq!(
            encoded.len(),
            HEADER_BYTES + DESCRIPTOR_BYTES * (MAX_DESCRIPTORS + 1)
        );
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, at_limit);

        // One past the boundary: the count field would silently wrap to 0 while
        // all 65 536 descriptors were still written — a corrupt datagram. The
        // encoder must reject it instead.
        let mut oversized = at_limit;
        oversized.descriptors.push(descriptor(u64::MAX, 1, 1));
        let error = try_encode(&oversized).unwrap_err();
        assert!(error.to_string().contains("65536"), "{error}");
    }

    #[test]
    #[should_panic(expected = "exceed the wire format's limit")]
    fn infallible_encode_panics_on_oversized_messages() {
        let oversized = WireMessage::unstamped(
            MessageKind::Response,
            descriptor(0, 1, 0),
            (0..=MAX_DESCRIPTORS as u64)
                .map(|i| descriptor(i, 9000, 0))
                .collect(),
        );
        let _ = encode(&oversized);
    }

    #[test]
    fn truncated_and_corrupted_payloads_are_rejected() {
        let message = WireMessage::unstamped(
            MessageKind::Request,
            descriptor(1, 1, 1),
            vec![descriptor(2, 2, 2)],
        );
        let encoded = encode(&message);
        assert!(decode(&encoded[..3]).is_err());
        assert!(decode(&encoded[..encoded.len() - 1]).is_err());
        let mut wrong_magic = encoded.to_vec();
        wrong_magic[0] = 0x00;
        assert!(decode(&wrong_magic).is_err());
        let mut wrong_version = encoded.to_vec();
        wrong_version[1] = 99;
        assert!(decode(&wrong_version).is_err());
        let mut wrong_kind = encoded.to_vec();
        wrong_kind[2] = 7;
        assert!(decode(&wrong_kind).is_err());
        let mut wrong_flags = encoded.to_vec();
        wrong_flags[3] = 0b1000_0000;
        assert!(decode(&wrong_flags).is_err());
        assert!(decode(&[]).is_err());
        let error = decode(&encoded[..3]).unwrap_err();
        assert!(error.to_string().contains("malformed"));
    }
}
