//! Decode-robustness properties for the wire codec: `decode` must be total —
//! any byte string either decodes or returns `Err`, never panics — and
//! encode/decode must be a stable round trip, stamped or not; and the wire
//! peers' in-place path must put the same bytes on the wire as the public
//! `WireMessage` path.

use bss_net::codec::{
    decode, encode, read_datagram, seal, write_datagram, MessageKind, WireMessage,
};
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use proptest::collection::vec;
use proptest::prelude::*;
use std::iter::{once, repeat};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

/// A descriptor as wire peers hold it.
fn wire(raw: (u64, u32, u16, u64)) -> Descriptor<SocketAddrV4> {
    let (id, ip, port, timestamp) = raw;
    Descriptor::new(
        NodeId::new(id),
        SocketAddrV4::new(Ipv4Addr::from(ip), port),
        timestamp,
    )
}

/// The same descriptor as a `WireMessage` carries it.
fn descriptor(raw: (u64, u32, u16, u64)) -> Descriptor<SocketAddr> {
    let held = wire(raw);
    Descriptor::new(held.id(), SocketAddr::V4(held.address()), held.timestamp())
}

fn message(
    request: bool,
    sender: (u64, u32, u16, u64),
    carried: Vec<(u64, u32, u16, u64)>,
    key: Option<u64>,
) -> WireMessage {
    let kind = if request {
        MessageKind::Request
    } else {
        MessageKind::Response
    };
    let mut message = WireMessage::unstamped(
        kind,
        descriptor(sender),
        carried.into_iter().map(descriptor).collect(),
    );
    if let Some(key) = key {
        seal(&mut message, key);
    }
    message
}

proptest! {
    #[test]
    fn round_trips_are_stable(
        request in any::<bool>(),
        sender in (any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()),
        carried in vec((any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()), 0..40),
        stamped in any::<bool>(),
        key in any::<u64>(),
    ) {
        let original = message(request, sender, carried, stamped.then_some(key));
        let encoded = encode(&original);
        let decoded = decode(&encoded).expect("a fresh encoding must decode");
        prop_assert_eq!(&decoded, &original);
        // Stability: re-encoding the decoded message yields the same bytes.
        prop_assert_eq!(encode(&decoded), encoded);
    }

    #[test]
    fn the_wire_peers_path_and_the_public_path_agree(
        request in any::<bool>(),
        sender in (any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()),
        carried in vec((any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()), 0..40),
        stamped in any::<bool>(),
        key in any::<u64>(),
    ) {
        let key = stamped.then_some(key);
        let public = message(request, sender, carried.clone(), key);
        let held: Vec<_> = carried.into_iter().map(wire).collect();
        let mut written = Vec::new();
        write_datagram(&mut written, public.kind, wire(sender), &held, key);
        prop_assert_eq!(&written, &encode(&public));
        // Each path reads the other's datagram: the same bytes, so the same
        // entries and stamps.
        let read = read_datagram(&written).expect("a fresh datagram reads");
        prop_assert_eq!(read.kind, public.kind);
        let stamps = public.stamps.iter().copied().map(Some).chain(repeat(None));
        let expected: Vec<_> = once(wire(sender)).chain(held).zip(stamps).collect();
        prop_assert_eq!(read.entries().collect::<Vec<_>>(), expected);
        prop_assert_eq!(decode(&written).expect("a fresh datagram decodes"), public);
    }

    #[test]
    fn truncations_of_valid_encodings_are_rejected_not_panics(
        sender in (any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()),
        carried in vec((any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()), 0..20),
        stamped in any::<bool>(),
        cut in any::<u64>(),
    ) {
        let original = message(true, sender, carried, stamped.then_some(1));
        let encoded = encode(&original);
        // Every strict prefix is malformed: the header advertises more bytes
        // than remain.
        let length = (cut % encoded.len() as u64) as usize;
        prop_assert!(decode(&encoded[..length]).is_err());
    }

    #[test]
    fn byte_mutations_never_panic_the_decoder(
        sender in (any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()),
        carried in vec((any::<u64>(), any::<u32>(), any::<u16>(), any::<u64>()), 0..20),
        stamped in any::<bool>(),
        position in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let original = message(false, sender, carried, stamped.then_some(2));
        let mut bytes = encode(&original).to_vec();
        let index = (position % bytes.len() as u64) as usize;
        bytes[index] ^= xor;
        // Mutations may still decode (a flipped payload byte yields a
        // different but well-formed message); they must never panic.
        let _ = decode(&bytes);
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_decoder(
        bytes in vec(any::<u8>(), 0..200),
    ) {
        let _ = decode(&bytes);
    }
}
