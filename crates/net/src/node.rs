//! The clocked protocol glue between a [`BootstrapNode`] and the wire, plus the
//! handle through which callers and tests read a running peer.
//!
//! `compose_request` and `apply_datagram` implement both threads of Fig. 2
//! over datagrams: on a periodic timer a peer selects a partner, composes a
//! message and sends a request (active thread); whenever a request arrives it
//! answers with its own message and applies the received one (passive thread);
//! responses are simply applied. The node-local state is the very same
//! [`BootstrapNode`] the simulator uses, instantiated with `SocketAddrV4` as
//! the address type, the IPv4 address and port a datagram carries: a
//! descriptor is 24 bytes, half the 48 a `SocketAddr` one takes. The codec's
//! one reader and one writer ([`crate::codec::read_datagram`],
//! [`crate::codec::write_datagram`]) move descriptors between the datagram
//! and the working memory in place; no [`WireMessage`](crate::codec::WireMessage)
//! is built on the way. The driver ([`crate::driver`]) is the one caller: it
//! owns the sockets and the clock, runs one peer or a thousand, and sends
//! each datagram these functions encode the moment they return it.
//!
//! The wire path is *clocked*: every peer derives a cycle number from its
//! wall-clock uptime (`elapsed millis / Δ`) and drives the protocol through
//! `create_message_at` / `receive_at`, so descriptor aging
//! (`descriptor_max_age`), heartbeat re-stamping and the failure detector
//! behave on real packets exactly as they do in the simulators. When a
//! descriptor-verification key is configured, outgoing datagrams are sealed
//! with per-descriptor identity stamps and incoming descriptors failing
//! verification are rejected before any merge ([`crate::codec`]).

use crate::codec::{descriptor_stamp, read_datagram, write_datagram, DecodeError, MessageKind};
use bss_core::leafset::MergeScratch;
use bss_core::message::MessageScratch;
use bss_core::node::BootstrapNode;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use std::net::SocketAddrV4;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The wire's cycle period: Δ, floored at 10 ms so a misconfigured Δ of 0
/// cannot spin the active thread.
pub(crate) fn effective_cycle_millis(params: &BootstrapParams) -> u64 {
    params.cycle_millis.max(10)
}

/// The wire clock: the cycle number a driver started at `started` is in now.
/// Every peer of a driver reads this one clock, so no honest descriptor is
/// ever stamped ahead of a receiver's `now`.
pub(crate) fn wire_cycle(started: Instant, cycle_millis: u64) -> u64 {
    started.elapsed().as_millis() as u64 / cycle_millis
}

/// Caller-owned working memory for the clocked wire path: message-composition
/// and merge scratch plus the buffer outgoing datagrams are encoded into,
/// reusable across datagrams (and across *nodes* — the driver keeps one per
/// sweeping thread).
#[derive(Debug, Default)]
pub(crate) struct ProtocolScratch {
    message: MessageScratch<SocketAddrV4>,
    merge: MergeScratch<SocketAddrV4>,
    received: Vec<Descriptor<SocketAddrV4>>,
    verdicts: Vec<bool>,
    datagram: Vec<u8>,
}

impl ProtocolScratch {
    /// Encodes `node`'s message of `kind` carrying `descriptors` into the
    /// datagram buffer, sealed when the parameters carry a verification key.
    fn encode(
        &mut self,
        node: &BootstrapNode<SocketAddrV4>,
        kind: MessageKind,
        descriptors: &[Descriptor<SocketAddrV4>],
    ) -> &[u8] {
        let key = node.params().descriptor_verifier;
        write_datagram(
            &mut self.datagram,
            kind,
            node.own_descriptor(),
            descriptors,
            key,
        );
        &self.datagram
    }
}

/// Capacity of a peer's [`SamplePool`]: comfortably above the cluster sizes
/// the parity tests pin (there the pool converges to the whole population,
/// matching the simulator's oracle sampler exactly) while keeping the
/// per-datagram ingest scan cheap at larger deployments, where the pool
/// behaves like a NEWSCAST-style partial view.
const SAMPLE_POOL_CAPACITY: usize = 128;

/// The wire's peer-sampling stand-in: a bounded descriptor pool, seeded with
/// the static start-up contacts and fed by the sampling-gossip layer's
/// payloads plus every (verified) sender heartbeat. The `cr` random samples of
/// Fig. 2 are drawn from it on both the active and the passive path, so sample
/// content diffuses epidemically across the network — approximating the
/// uniform sampling service the paper assumes is "already functional" when the
/// bootstrap starts.
///
/// A *static* contact list is not enough: once the overlay is nearly
/// converged, exchanges only flow along ring-local edges, and a structurally
/// unlucky node whose neighbourhood never holds its last missing ring
/// neighbour would wait forever for a descriptor no partner can supply. The
/// pool restores the global reach that the simulator gets from its oracle
/// sampler.
#[derive(Debug, Clone)]
pub(crate) struct SamplePool {
    entries: Vec<Descriptor<SocketAddrV4>>,
}

impl SamplePool {
    /// A pool seeded with the peer's static start-up contacts.
    pub(crate) fn new(contacts: impl IntoIterator<Item = Descriptor<SocketAddrV4>>) -> Self {
        let mut pool = SamplePool {
            entries: Vec::new(),
        };
        for contact in contacts {
            if pool.entries.len() == SAMPLE_POOL_CAPACITY {
                break;
            }
            if pool.entries.iter().all(|entry| entry.id() != contact.id()) {
                pool.entries.push(contact);
            }
        }
        pool
    }

    /// The pool's entries, in pool order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[Descriptor<SocketAddrV4>] {
        &self.entries
    }

    /// Folds descriptors into the pool, keeping the freshest copy per
    /// identifier and evicting a *uniformly random* incumbent when full.
    ///
    /// Random eviction matters: sampling payloads carry descriptors stamped at
    /// their owner's last heartbeat, so against a pool of fresher incumbents an
    /// evict-the-oldest policy throws exactly those entries straight back out.
    /// The pool then collapses to the most recently heard-from neighbourhood
    /// and the `cr` draws stop being uniform — at a few hundred nodes that
    /// starves last-mile convergence. A uniform victim keeps the pool a
    /// reservoir over everything in circulation; *expiry* of dead peers is
    /// [`SamplePool::prune`]'s job, not the eviction policy's.
    pub(crate) fn ingest(
        &mut self,
        rng: &mut SimRng,
        descriptors: impl IntoIterator<Item = Descriptor<SocketAddrV4>>,
    ) {
        for descriptor in descriptors {
            match self
                .entries
                .iter_mut()
                .find(|entry| entry.id() == descriptor.id())
            {
                Some(existing) => {
                    if descriptor.timestamp() >= existing.timestamp() {
                        *existing = descriptor;
                    }
                }
                None => {
                    if self.entries.len() == SAMPLE_POOL_CAPACITY {
                        let victim = rng.index(self.entries.len());
                        self.entries.swap_remove(victim);
                    }
                    self.entries.push(descriptor);
                }
            }
        }
    }

    /// Drops entries older than the aging bound, mirroring table eviction:
    /// dead peers stop heartbeating, so their pool entries expire too and the
    /// sampling service stops resurrecting them.
    pub(crate) fn prune(&mut self, now: u64, max_age: u64) {
        self.entries
            .retain(|entry| now.saturating_sub(entry.timestamp()) <= max_age);
    }

    /// Draws up to `count` distinct random samples from the pool.
    pub(crate) fn draw(&self, rng: &mut SimRng, count: usize) -> Vec<Descriptor<SocketAddrV4>> {
        rng.sample(&self.entries, count.min(self.entries.len()))
    }

    /// Picks a uniformly random pool member (other than the node itself) as
    /// the target of one sampling-gossip exchange.
    pub(crate) fn pick_target(&self, rng: &mut SimRng, own: NodeId) -> Option<SocketAddrV4> {
        let eligible = self
            .entries
            .iter()
            .filter(|entry| entry.id() != own)
            .count();
        if eligible == 0 {
            return None;
        }
        let pick = rng.index(eligible);
        self.entries
            .iter()
            .filter(|entry| entry.id() != own)
            .nth(pick)
            .map(|entry| entry.address())
    }
}

/// One sampling-layer firing: gossip a draw from the own pool to a uniformly
/// random pool member. This is what keeps the sampling service *connected*
/// independently of the bootstrap overlay: once the leaf sets converge, the
/// bootstrap exchange graph collapses to ring-local cliques (a node only ever
/// initiates towards the closer half of its leaf set), and a descriptor the
/// clique never held could otherwise not reach it — the sampling overlay, a
/// random graph over pool membership, has no such cuts. Sampling messages
/// feed pools only; the protocol tables are exclusively the bootstrap
/// layer's. The datagram is encoded into `scratch`.
pub(crate) fn compose_sample_exchange<'a>(
    node: &BootstrapNode<SocketAddrV4>,
    rng: &mut SimRng,
    pool: &mut SamplePool,
    now: u64,
    scratch: &'a mut ProtocolScratch,
) -> Option<(SocketAddrV4, &'a [u8])> {
    let params = *node.params();
    if let Some(max_age) = params.descriptor_max_age {
        pool.prune(now, max_age);
    }
    let target = pool.pick_target(rng, node.own_descriptor().id())?;
    let samples = pool.draw(rng, params.random_samples);
    let datagram = scratch.encode(node, MessageKind::SampleRequest, &samples);
    Some((target, datagram))
}

/// One active-thread firing (Fig. 2a): select a peer from the leaf set, compose
/// the clocked message (re-stamping the own descriptor under aging) and encode
/// the request datagram into `scratch`. Returns `None` when the leaf set is
/// empty. Sealed with identity stamps when the parameters carry a
/// verification key.
pub(crate) fn compose_request<'a>(
    node: &mut BootstrapNode<SocketAddrV4>,
    rng: &mut SimRng,
    pool: &mut SamplePool,
    now: u64,
    scratch: &'a mut ProtocolScratch,
) -> Option<(SocketAddrV4, &'a [u8])> {
    let params = *node.params();
    if let Some(max_age) = params.descriptor_max_age {
        pool.prune(now, max_age);
    }
    let peer = node.select_peer_with(rng, &mut Vec::new())?;
    let samples = pool.draw(rng, params.random_samples);
    let descriptors = node.create_message_at(peer.id(), &samples, true, now, &mut scratch.message);
    let datagram = scratch.encode(node, MessageKind::Request, &descriptors);
    Some((peer.address(), datagram))
}

/// Applies one received datagram to the node through the clocked (and, under a
/// verification key, verified) receive path. For requests the passive thread's
/// answer is composed *before* the request is applied (Fig. 2b), encoded into
/// `scratch` and returned for the caller to send; responses return `None`.
///
/// Descriptors that pass verification feed the peer's [`SamplePool`] first, so
/// the passive thread's answer draws its `cr` samples from the same sampling
/// service the active thread uses (Fig. 2 runs `CREATEMESSAGE` identically on
/// both paths) — with the sample count bounded by what the pool actually
/// holds, never a hard-coded constant.
///
/// # Errors
///
/// Returns the [`DecodeError`] of a malformed datagram, which changes
/// nothing.
pub(crate) fn apply_datagram<'a>(
    node: &mut BootstrapNode<SocketAddrV4>,
    rng: &mut SimRng,
    pool: &mut SamplePool,
    payload: &[u8],
    now: u64,
    scratch: &'a mut ProtocolScratch,
) -> Result<Option<&'a [u8]>, DecodeError> {
    let datagram = read_datagram(payload)?;
    let params = *node.params();
    let own_id = node.own_descriptor().id();

    // Stage the received descriptors (carried list plus the sender, held
    // *last*) and, under a verification key, their per-descriptor verdicts,
    // aligned to `received` order. Unstamped datagrams on a keyed deployment
    // are rejected wholesale. Timestamps are clamped to `now`: aging measures
    // `now - timestamp`, saturating, so a descriptor stamped in the future
    // would never expire, and the identity stamps do not cover freshness.
    scratch.received.clear();
    scratch.verdicts.clear();
    let (received, verdicts) = (&mut scratch.received, &mut scratch.verdicts);
    let mut stage = |(descriptor, stamp): (Descriptor<SocketAddrV4>, Option<u64>)| {
        if let Some(key) = params.descriptor_verifier {
            verdicts.push(stamp == Some(descriptor_stamp(key, &descriptor)));
        }
        received.push(descriptor.refreshed(descriptor.timestamp().min(now)));
    };
    let mut entries = datagram.entries();
    let sender = entries.next().expect("a datagram carries its sender");
    let sender_id = sender.0.id();
    entries.for_each(&mut stage);
    stage(sender);
    let verified = params.descriptor_verifier.is_some();

    // The sampling service learns only from its own layer's payloads, plus
    // every verified sender heartbeat. Bootstrap payloads are ring- and
    // prefix-targeted table entries: letting their ~`2c` descriptors per
    // datagram into a bounded pool drowns the uniform samples in ring-local
    // neighbours, and at a few hundred nodes the `cr` draws stop being random
    // and last-mile convergence stalls. Forged or unstamped descriptors must
    // never be re-gossiped as samples either way.
    let sampling_payload = matches!(
        datagram.kind,
        MessageKind::SampleRequest | MessageKind::SampleResponse
    );
    let sender_index = scratch.received.len() - 1;
    let verdicts = &scratch.verdicts;
    pool.ingest(
        rng,
        scratch
            .received
            .iter()
            .enumerate()
            .filter(|&(index, descriptor)| {
                (sampling_payload || index == sender_index)
                    && descriptor.id() != own_id
                    && (!verified || verdicts[index])
            })
            .map(|(_, descriptor)| *descriptor),
    );
    if let Some(max_age) = params.descriptor_max_age {
        pool.prune(now, max_age);
    }

    let answer = match datagram.kind {
        MessageKind::Request => {
            let samples = pool.draw(rng, params.random_samples);
            let descriptors =
                node.create_message_at(sender_id, &samples, false, now, &mut scratch.message);
            Some((MessageKind::Response, descriptors))
        }
        MessageKind::SampleRequest => {
            let samples = pool.draw(rng, params.random_samples);
            Some((MessageKind::SampleResponse, samples))
        }
        MessageKind::Response | MessageKind::SampleResponse => None,
    };

    // Merge bootstrap-layer messages into the protocol tables through
    // `receive_at`, or `receive_verified_at` when a key is configured: a
    // descriptor merges only with a matching identity stamp. Sampling-layer
    // messages feed the pool alone — the two layers stay separate, exactly as
    // in the paper's architecture.
    if matches!(datagram.kind, MessageKind::Request | MessageKind::Response) {
        let received = &scratch.received;
        if verified {
            let verdicts = &scratch.verdicts;
            node.receive_verified_at(received, now, &mut scratch.merge, |index, _| {
                verdicts[index]
            });
        } else {
            node.receive_at(received, now, &mut scratch.merge);
        }
    }
    Ok(answer.map(|(kind, descriptors)| scratch.encode(node, kind, &descriptors)))
}

/// A cheap, cloneable view of one running peer: its identity, address and
/// shared protocol state. The driver exposes its peers through handles, so
/// callers and tests read them between sweeps.
#[derive(Debug, Clone)]
pub struct PeerHandle {
    id: NodeId,
    address: SocketAddrV4,
    state: Arc<Mutex<BootstrapNode<SocketAddrV4>>>,
}

impl PeerHandle {
    pub(crate) fn new(node: BootstrapNode<SocketAddrV4>) -> Self {
        let own = node.own_descriptor();
        PeerHandle {
            id: own.id(),
            address: own.address(),
            state: Arc::new(Mutex::new(node)),
        }
    }

    /// The peer's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The peer's socket address.
    pub fn address(&self) -> SocketAddrV4 {
        self.address
    }

    /// Number of exchanges the peer has initiated so far.
    pub fn exchanges_initiated(&self) -> u64 {
        self.state().exchanges_initiated()
    }

    /// A snapshot of the peer's current protocol state.
    pub fn state_snapshot(&self) -> BootstrapNode<SocketAddrV4> {
        self.state().clone()
    }

    /// The peer's protocol state, locked.
    pub(crate) fn state(&self) -> MutexGuard<'_, BootstrapNode<SocketAddrV4>> {
        self.state
            .lock()
            .expect("only a panic while the peer state was locked poisons it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, seal, WireMessage};
    use crate::driver::{DriverConfig, NetDriver};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr};
    use std::time::Duration;

    fn params() -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: 4,
            random_samples: 4,
            cycle_millis: 30,
            ..BootstrapParams::paper_default()
        }
    }

    /// Two peers on one driver: the second starts knowing the first, the first
    /// knows nobody, so being linked is something the wire has to achieve.
    fn bind_pair(params: BootstrapParams) -> io::Result<(NetDriver, PeerHandle, PeerHandle)> {
        let driver = NetDriver::bind(DriverConfig {
            size: 2,
            params,
            contacts_per_peer: 0,
            seed: 1,
        })?;
        let handles = driver.handles();
        let (first, second) = (handles[0].clone(), handles[1].clone());
        let first_descriptor = first.state().own_descriptor();
        second.state().initialize([first_descriptor]);
        Ok((driver, first, second))
    }

    /// Sweeps the driver on this thread until `done` holds or 10 s pass.
    fn poll_until(driver: &mut NetDriver, done: impl Fn() -> bool) -> bool {
        driver.poll_until(Duration::from_secs(10), |_| done())
    }

    fn wait_linked(driver: &mut NetDriver, first: &PeerHandle, second: &PeerHandle) -> bool {
        poll_until(driver, || {
            first.state_snapshot().leaf_set().contains(second.id())
                && second.state_snapshot().leaf_set().contains(first.id())
        })
    }

    #[test]
    fn a_pair_of_peers_learns_about_each_other() {
        let (mut driver, first, second) = match bind_pair(params()) {
            Ok(pair) => pair,
            Err(error) => {
                eprintln!("skipping UDP peer test: {error}");
                return;
            }
        };
        assert!(
            wait_linked(&mut driver, &first, &second),
            "peers never learned about each other"
        );
        assert!(second.exchanges_initiated() > 0);
        assert_ne!(first.address(), second.address());
    }

    #[test]
    fn aging_peers_heartbeat_their_own_descriptor_on_the_wire() {
        let aged = BootstrapParams {
            descriptor_max_age: Some(4),
            ..params()
        };
        let (mut driver, first, second) = match bind_pair(aged) {
            Ok(pair) => pair,
            Err(error) => {
                eprintln!("skipping UDP peer test: {error}");
                return;
            }
        };
        assert!(
            wait_linked(&mut driver, &first, &second),
            "aged peers never learned about each other"
        );
        // Several cycles in, the active thread must have re-stamped the own
        // descriptor with the current wire cycle — the timestamp-0 descriptor
        // of an aging peer would otherwise expire out of every table.
        assert!(
            poll_until(&mut driver, || second.state().own_descriptor().timestamp()
                > 0),
            "heartbeat never re-stamped the own descriptor"
        );
    }

    #[test]
    fn keyed_peers_exchange_stamped_datagrams_and_still_link() {
        let keyed = BootstrapParams {
            descriptor_verifier: Some(0xfeed_beef),
            ..params()
        };
        let (mut driver, first, second) = match bind_pair(keyed) {
            Ok(pair) => pair,
            Err(error) => {
                eprintln!("skipping UDP peer test: {error}");
                return;
            }
        };
        assert!(
            wait_linked(&mut driver, &first, &second),
            "keyed peers never learned about each other"
        );
    }

    #[test]
    fn peer_exposes_descriptor_and_id() {
        let (_driver, peer, other) = match bind_pair(params()) {
            Ok(pair) => pair,
            Err(error) => {
                eprintln!("skipping UDP peer test: {error}");
                return;
            }
        };
        // Identifiers are the simulator's draw for the same seed and size.
        let ids = SimRng::seed_from(1).distinct_u64(2);
        assert_eq!(peer.state().own_descriptor().id(), NodeId::new(ids[0]));
        assert_eq!(peer.state().own_descriptor().address(), peer.address());
        assert_eq!(peer.id(), NodeId::new(ids[0]));
        assert_eq!(other.id(), NodeId::new(ids[1]));
    }

    const KEY: u64 = 0x5eed_cafe;

    fn address(port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)
    }

    /// A message between wire peers, in the public codec's form.
    fn message(
        kind: MessageKind,
        sender: Descriptor<SocketAddrV4>,
        carried: &[Descriptor<SocketAddrV4>],
    ) -> WireMessage {
        let public = |descriptor: &Descriptor<SocketAddrV4>| {
            let address = SocketAddr::V4(descriptor.address());
            Descriptor::new(descriptor.id(), address, descriptor.timestamp())
        };
        WireMessage::unstamped(kind, public(&sender), carried.iter().map(public).collect())
    }

    /// Applies `message`, encoded, to the peer.
    fn apply<'a>(
        node: &mut BootstrapNode<SocketAddrV4>,
        rng: &mut SimRng,
        pool: &mut SamplePool,
        message: &WireMessage,
        now: u64,
        scratch: &'a mut ProtocolScratch,
    ) -> Option<&'a [u8]> {
        let datagram = encode(message);
        apply_datagram(node, rng, pool, &datagram, now, scratch).expect("an encoded message reads")
    }

    #[test]
    fn wire_descriptors_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Descriptor<SocketAddrV4>>(), 24);
        // What a handle's state and a pool hold; with `SocketAddr` addresses
        // these stop compiling.
        let snapshot: fn(&PeerHandle) -> BootstrapNode<SocketAddrV4> = PeerHandle::state_snapshot;
        let pooled: fn(&SamplePool) -> &[Descriptor<SocketAddrV4>] = SamplePool::entries;
        let _ = (snapshot, pooled);
    }

    #[test]
    fn keyed_merges_reject_unstamped_and_forged_descriptors() {
        // Unit-level check of the verification glue, no sockets involved.
        let key = 0xdead_cafe;
        let keyed = BootstrapParams {
            leaf_set_size: 4,
            random_samples: 4,
            descriptor_verifier: Some(key),
            ..BootstrapParams::paper_default()
        };
        let own = Descriptor::new(NodeId::new(1000), address(1), 0);
        let mut node = BootstrapNode::new(own, &keyed).unwrap();
        let mut pool = SamplePool::new([]);
        let mut scratch = ProtocolScratch::default();
        let mut rng = SimRng::seed_from(1);

        // An unstamped message on a keyed deployment merges nothing — and
        // feeds nothing to the sampling pool.
        let honest = Descriptor::new(NodeId::new(2000), address(2), 0);
        let unstamped = message(MessageKind::Response, honest, &[]);
        apply(&mut node, &mut rng, &mut pool, &unstamped, 0, &mut scratch);
        assert!(
            node.leaf_set().is_empty(),
            "unstamped sender must not merge"
        );
        assert!(
            pool.entries.is_empty(),
            "unstamped sender must not be sampled"
        );

        // A properly sealed message merges; a forged descriptor inside it
        // (stamp minted for a different identifier) is rejected alone.
        let forged = Descriptor::new(NodeId::new(3000), address(3), 0);
        let mut sealed = message(MessageKind::Response, honest, &[forged]);
        seal(&mut sealed, key);
        // Corrupt the forged descriptor's stamp: bind it to another id.
        let other = Descriptor::new(NodeId::new(4000), address(3), 0);
        sealed.stamps[1] = descriptor_stamp(key, &other);
        apply(&mut node, &mut rng, &mut pool, &sealed, 0, &mut scratch);
        assert!(
            node.leaf_set().contains(honest.id()),
            "sealed sender merges"
        );
        assert!(
            !node.leaf_set().contains(forged.id()),
            "forged descriptor must be rejected"
        );
        assert!(
            pool.entries.iter().any(|entry| entry.id() == honest.id()),
            "verified sender feeds the sampling pool"
        );
        assert!(
            pool.entries.iter().all(|entry| entry.id() != forged.id()),
            "forged descriptor must not be re-gossiped as a sample"
        );
    }

    /// An initialised peer: tables and pool seeded with six contacts at
    /// identifiers 100, 200, …, its own identifier 1000 behind port 1.
    fn live_peer(keyed: bool, aging: bool) -> (BootstrapNode<SocketAddrV4>, SamplePool) {
        let params = BootstrapParams {
            descriptor_verifier: keyed.then_some(KEY),
            descriptor_max_age: aging.then_some(8),
            ..params()
        };
        let contacts =
            (1..=6u16).map(|n| Descriptor::new(NodeId::new(u64::from(n) * 100), address(n + 1), 3));
        let mut node =
            BootstrapNode::new(Descriptor::new(NodeId::new(1000), address(1), 0), &params).unwrap();
        node.initialize(contacts.clone());
        (node, SamplePool::new(contacts))
    }

    /// A descriptor an attacker could put on the wire: half the time one of
    /// the identifiers the peer knows (its own included, behind any address),
    /// with a timestamp at either end of the clock or anywhere between.
    fn hostile_descriptor((id, port, timestamp): (u64, u16, u64)) -> Descriptor<SocketAddrV4> {
        let id = if id % 2 == 0 {
            (id / 2 % 10 + 1) * 100
        } else {
            id
        };
        let timestamp = match timestamp % 4 {
            0 => 0,
            1 => u64::MAX - timestamp % 3,
            2 => timestamp % 64,
            _ => timestamp,
        };
        Descriptor::new(NodeId::new(id), address(port), timestamp)
    }

    /// Any message kind around hostile descriptors, with stamps that never
    /// verify under [`KEY`]: none, sealed under another key, sealed under
    /// [`KEY`] and then bent, or `junk` (a datagram holds one stamp per
    /// descriptor or none, so the junk is cut or padded to that count).
    fn hostile_message(
        kind: u8,
        sender: (u64, u16, u64),
        carried: Vec<(u64, u16, u64)>,
        stamping: u8,
        junk: Vec<u64>,
    ) -> WireMessage {
        let kinds = [
            MessageKind::Request,
            MessageKind::Response,
            MessageKind::SampleRequest,
            MessageKind::SampleResponse,
        ];
        let carried: Vec<_> = carried.into_iter().map(hostile_descriptor).collect();
        let mut message = message(
            kinds[usize::from(kind % 4)],
            hostile_descriptor(sender),
            &carried,
        );
        match stamping % 4 {
            0 => {}
            1 => seal(&mut message, KEY ^ 1),
            2 => {
                seal(&mut message, KEY);
                let bend = 1 << (junk.len() % 64);
                message.stamps.iter_mut().for_each(|stamp| *stamp ^= bend);
            }
            _ => {
                let count = carried.len() + 1;
                let padded = junk.iter().copied().chain(0..);
                message.stamps = padded.take(count).collect();
            }
        }
        message
    }

    proptest! {
        /// ROADMAP 5c, one layer above the codec's decode properties: whatever
        /// datagram arrives, a byte of it perhaps flipped, applying it to a
        /// live peer never panics; one that does not read is refused and
        /// changes nothing; an answer goes out for requests only; and on a
        /// keyed peer a message none of whose stamps verify leaves the tables
        /// and the sample pool as they were (without aging, which evicts on
        /// its own clock). No peer ends up holding a descriptor dated after
        /// `now`, which would never age out.
        #[test]
        fn no_datagram_panics_a_live_peer_or_merges_unverified(
            shape in (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()),
            sender in (any::<u64>(), any::<u16>(), any::<u64>()),
            carried in vec((any::<u64>(), any::<u16>(), any::<u64>()), 0..40),
            junk in vec(any::<u64>(), 0..44),
            flip in (any::<u64>(), any::<u8>()),
            now in any::<u64>(),
        ) {
            let (kind, stamping, keyed, aging) = shape;
            let mut datagram = encode(&hostile_message(kind, sender, carried, stamping, junk));
            let (position, xor) = flip;
            let length = datagram.len() as u64;
            datagram[(position % length) as usize] ^= xor;
            let read = read_datagram(&datagram).map(|datagram| datagram.kind);

            let (mut node, mut pool) = live_peer(keyed, aging);
            let before = (node.leaf_set().to_vec(), node.prefix_table().to_vec(), pool.entries.clone());
            let now = if now % 2 == 0 { now % 32 } else { now };
            let mut scratch = ProtocolScratch::default();
            let applied = apply_datagram(
                &mut node,
                &mut SimRng::seed_from(now),
                &mut pool,
                &datagram,
                now,
                &mut scratch,
            );
            prop_assert_eq!(applied.is_ok(), read.is_ok());
            let answer = applied
                .ok()
                .flatten()
                .map(|bytes| decode(bytes).expect("answers are well-formed"));
            let expected = match read {
                Ok(MessageKind::Request) => Some(MessageKind::Response),
                Ok(MessageKind::SampleRequest) => Some(MessageKind::SampleResponse),
                _ => None,
            };
            prop_assert_eq!(answer.as_ref().map(|answer| answer.kind), expected);
            if let Some(answer) = &answer {
                prop_assert_eq!(answer.sender.id(), NodeId::new(1000));
                prop_assert_eq!(answer.is_stamped(), keyed);
            }
            // The live peer's contacts were stamped 3 before the datagram came.
            let ceiling = now.max(3);
            let dated = |descriptor: &Descriptor<SocketAddrV4>| descriptor.timestamp() <= ceiling;
            prop_assert!(node.leaf_set().iter().all(dated));
            prop_assert!(node.prefix_table().iter().all(dated) && pool.entries.iter().all(dated));
            if (keyed && !aging) || read.is_err() {
                let after = (node.leaf_set().to_vec(), node.prefix_table().to_vec(), pool.entries);
                prop_assert_eq!(after, before);
            }
        }
    }

    #[test]
    fn a_duplicated_descriptor_is_judged_by_its_own_stamp() {
        // The same descriptor twice: the first copy's stamp forged, the
        // second's genuine. Verdicts go by position, so the genuine copy
        // merges, once, and only the forged one is rejected.
        let (mut node, mut pool) = live_peer(true, false);
        let sender = Descriptor::new(NodeId::new(1001), address(9), 4);
        let twice = Descriptor::new(NodeId::new(1002), address(10), 4);
        let mut sealed = message(MessageKind::Response, sender, &[twice, twice]);
        seal(&mut sealed, KEY);
        sealed.stamps[1] ^= 1;
        let mut scratch = ProtocolScratch::default();
        let mut rng = SimRng::seed_from(1);
        apply(&mut node, &mut rng, &mut pool, &sealed, 5, &mut scratch);
        let copies = node
            .leaf_set()
            .iter()
            .filter(|d| d.id() == twice.id())
            .count();
        assert_eq!(copies, 1, "the genuine copy merges once");
        let rejected = scratch.verdicts.iter().filter(|&&verdict| !verdict).count();
        assert_eq!(rejected, 1, "only the forged copy is rejected");
    }

    #[test]
    fn a_replayed_descriptor_restamped_into_the_future_still_ages_out() {
        // A genuine descriptor, sealed under the right key, replayed with a
        // timestamp near the end of the clock: the stamps bind identifier and
        // address, not freshness, so it verifies and merges.
        let (mut node, mut pool) = live_peer(true, true);
        let (mut rng, mut scratch) = (SimRng::seed_from(1), ProtocolScratch::default());
        let replayed = Descriptor::new(NodeId::new(1001), address(9), u64::MAX - 1);
        let mut sealed = message(MessageKind::Response, replayed, &[]);
        seal(&mut sealed, KEY);
        apply(&mut node, &mut rng, &mut pool, &sealed, 5, &mut scratch);
        assert!(
            node.leaf_set().contains(replayed.id()),
            "a verified replay merges"
        );
        assert!(pool.entries.iter().any(|entry| entry.id() == replayed.id()));

        // A thousand cycles later (`max_age` is 8) a live peer's heartbeat
        // arrives, and the replayed descriptor is gone from tables and pool.
        let live = Descriptor::new(NodeId::new(1002), address(10), 1005);
        let mut sealed = message(MessageKind::Response, live, &[]);
        seal(&mut sealed, KEY);
        apply(&mut node, &mut rng, &mut pool, &sealed, 1005, &mut scratch);
        assert!(node.leaf_set().contains(live.id()));
        let mut held = node.leaf_set().iter().chain(node.prefix_table().iter());
        assert!(held.all(|descriptor| descriptor.id() != replayed.id()));
        assert!(pool.entries.iter().all(|entry| entry.id() != replayed.id()));
    }

    #[test]
    fn sample_pool_keeps_freshest_stays_bounded_and_prunes_expired() {
        let mut pool = SamplePool::new([Descriptor::new(NodeId::new(1), address(1), 0)]);
        let mut rng = SimRng::seed_from(3);

        // A fresher copy of a known identifier replaces the stale one in place.
        pool.ingest(&mut rng, [Descriptor::new(NodeId::new(1), address(1), 5)]);
        assert_eq!(pool.entries.len(), 1);
        assert_eq!(pool.entries[0].timestamp(), 5);

        // Filling past capacity stays bounded and always admits the arrival —
        // the victim is a uniformly random incumbent, *not* the oldest entry,
        // so stale-but-alive descriptors keep circulating as samples.
        let newest = SAMPLE_POOL_CAPACITY as u16 + 1;
        let arrivals = (2..=newest)
            .map(|n| Descriptor::new(NodeId::new(u64::from(n)), address(n), 2 + u64::from(n % 7)));
        pool.ingest(&mut rng, arrivals);
        assert_eq!(pool.entries.len(), SAMPLE_POOL_CAPACITY);
        assert!(
            pool.entries
                .iter()
                .any(|entry| entry.id() == NodeId::new(u64::from(newest))),
            "the newest arrival must always be admitted"
        );

        // Pruning drops everything beyond the aging bound.
        pool.prune(10, 3);
        assert!(pool.entries.iter().all(|entry| entry.timestamp() >= 7));

        // Draws are bounded by what the pool holds.
        assert_eq!(
            pool.draw(&mut rng, SAMPLE_POOL_CAPACITY).len(),
            pool.entries.len()
        );
    }
}
