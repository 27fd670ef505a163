//! Ring topologies and channel wiring.
//!
//! A ring of `n` nodes has `n` undirected links; each link carries two
//! directed FIFO channels. [`RingSpec`] describes a ring — node IDs in
//! clockwise position order plus an optional per-node port flip — and
//! compiles it into a [`Wiring`], the channel table used by the simulator.

use crate::port::{Direction, Port};
use rand::Rng;
use std::fmt;

/// Index of a node within a network (its clockwise position for rings).
pub type NodeIndex = usize;

/// Identifier of a directed channel: the pair (source node, source port).
///
/// Channel `ChannelId::new(v, p)` carries messages sent by node `v` from its
/// port `p`; its delivery endpoint is given by [`Wiring::endpoint`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(usize);

impl ChannelId {
    /// Builds the channel id for messages leaving `node` via `port`.
    #[must_use]
    pub fn new(node: NodeIndex, port: Port) -> ChannelId {
        ChannelId(node * 2 + port.index())
    }

    /// The sending node.
    #[must_use]
    pub fn node(self) -> NodeIndex {
        self.0 / 2
    }

    /// The sending port.
    #[must_use]
    pub fn port(self) -> Port {
        Port::from_index(self.0 % 2)
    }

    /// Dense index in `0..2n`, usable as a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Inverse of [`ChannelId::index`].
    #[must_use]
    pub fn from_index(index: usize) -> ChannelId {
        ChannelId(index)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch({}, {})", self.node(), self.port())
    }
}

/// Compiled channel table of a network.
///
/// For every directed channel (node, out-port) the wiring records the
/// destination (node, in-port) and an optional global [`Direction`] tag used
/// only by the harness's instrumentation (nodes never observe it).
///
/// The endpoint map of a valid wiring is an involution when read as a map on
/// (node, port) pairs: the channel leaving `(v, p)` arrives at `(u, q)` iff
/// the channel leaving `(u, q)` arrives at `(v, p)` — the two directed
/// channels of one undirected link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wiring {
    n: usize,
    /// `endpoints[c]` = destination (node, port) of channel with index `c`.
    endpoints: Vec<(NodeIndex, Port)>,
    /// `directions[c]` = global direction carried by channel `c`, if the
    /// network is a ring.
    directions: Vec<Option<Direction>>,
}

impl Wiring {
    /// Builds a wiring from an explicit endpoint map.
    ///
    /// # Errors
    ///
    /// Returns a [`WiringError`] if the map is not a valid set of undirected
    /// links: wrong length, endpoint out of range, or not an involution.
    pub fn from_endpoints(
        n: usize,
        endpoints: Vec<(NodeIndex, Port)>,
        directions: Vec<Option<Direction>>,
    ) -> Result<Wiring, WiringError> {
        if n == 0 {
            return Err(WiringError::Empty);
        }
        if endpoints.len() != 2 * n || directions.len() != 2 * n {
            return Err(WiringError::WrongLength {
                expected: 2 * n,
                endpoints: endpoints.len(),
                directions: directions.len(),
            });
        }
        for &(v, _) in &endpoints {
            if v >= n {
                return Err(WiringError::NodeOutOfRange { node: v, n });
            }
        }
        // The map (v, p) -> endpoint(v, p) must be an involution: following a
        // link from either side lands back where we started.
        for c in 0..2 * n {
            let id = ChannelId::from_index(c);
            let (dst, dst_port) = endpoints[c];
            let back = endpoints[ChannelId::new(dst, dst_port).index()];
            if back != (id.node(), id.port()) {
                return Err(WiringError::NotInvolution { channel: id });
            }
        }
        Ok(Wiring {
            n,
            endpoints,
            directions,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network has no nodes (never true for a valid wiring).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of directed channels (`2n` for a ring).
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Destination (node, in-port) of the given channel.
    #[must_use]
    pub fn endpoint(&self, channel: ChannelId) -> (NodeIndex, Port) {
        self.endpoints[channel.index()]
    }

    /// Global direction carried by the channel, if known.
    #[must_use]
    pub fn direction(&self, channel: ChannelId) -> Option<Direction> {
        self.directions[channel.index()]
    }

    /// Iterates over all channel ids.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.channel_count()).map(ChannelId::from_index)
    }
}

/// The ring's channel table as seen by the generic event core: every node
/// has exactly two ports and channel `node * 2 + port` leaves `(node, port)`
/// (the [`ChannelId`] layout).
impl crate::engine::Topology for Wiring {
    fn len(&self) -> usize {
        self.n
    }

    fn channel_count(&self) -> usize {
        self.endpoints.len()
    }

    fn degree(&self, _node: usize) -> usize {
        2
    }

    fn out_channel(&self, node: usize, port: usize) -> usize {
        node * 2 + port
    }

    fn endpoint(&self, channel: usize) -> (usize, usize) {
        let (node, port) = self.endpoints[channel];
        (node, port.index())
    }

    fn direction(&self, channel: usize) -> Option<Direction> {
        self.directions[channel]
    }
}

/// Error building a [`Wiring`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WiringError {
    /// The network must have at least one node.
    Empty,
    /// Endpoint or direction tables have the wrong length.
    WrongLength {
        /// Expected number of channels (`2n`).
        expected: usize,
        /// Provided endpoint count.
        endpoints: usize,
        /// Provided direction count.
        directions: usize,
    },
    /// An endpoint references a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node index.
        node: NodeIndex,
        /// The network size.
        n: usize,
    },
    /// The endpoint map is not an involution.
    NotInvolution {
        /// A channel whose reverse does not lead back.
        channel: ChannelId,
    },
}

impl fmt::Display for WiringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WiringError::Empty => f.write_str("network must have at least one node"),
            WiringError::WrongLength {
                expected,
                endpoints,
                directions,
            } => write!(
                f,
                "expected {expected} channels, got {endpoints} endpoints and {directions} directions"
            ),
            WiringError::NodeOutOfRange { node, n } => {
                write!(f, "endpoint node {node} out of range for n={n}")
            }
            WiringError::NotInvolution { channel } => {
                write!(f, "endpoint map is not an involution at {channel}")
            }
        }
    }
}

impl std::error::Error for WiringError {}

/// Description of a ring network: IDs in clockwise position order plus the
/// per-node port layout.
///
/// Position `i`'s clockwise neighbour is position `(i + 1) % n`. If
/// `flips[i]` is `false`, node `i` follows the oriented convention
/// (`Port::One` leads clockwise); if `true`, its ports are swapped. A ring is
/// *oriented* exactly when every flip is `false` (or every flip is `true`,
/// which is the mirror image; we canonicalise to `false`).
///
/// ```rust
/// use co_net::{Direction, Port, RingSpec};
/// let spec = RingSpec::oriented(vec![10, 20, 30]);
/// assert!(spec.is_oriented());
/// assert_eq!(spec.id_max(), 30);
/// assert_eq!(spec.cw_port(0), Port::One);
/// let wiring = spec.wiring();
/// // Node 0's clockwise channel arrives at node 1's counterclockwise port.
/// let ch = co_net::ChannelId::new(0, Port::One);
/// assert_eq!(wiring.endpoint(ch), (1, Port::Zero));
/// assert_eq!(wiring.direction(ch), Some(Direction::Cw));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingSpec {
    ids: Vec<u64>,
    flips: Vec<bool>,
}

impl RingSpec {
    /// Builds an oriented ring with the given IDs (clockwise order).
    ///
    /// # Panics
    ///
    /// Panics with "IDs must be positive integers" if any ID is zero, and
    /// panics if `ids` is empty. This is the contract, not a stopgap: the
    /// paper's IDs are positive integers, so a zero ID is a caller bug.
    /// Check untrusted IDs before building a ring, as the CLI does.
    #[must_use]
    pub fn oriented(ids: Vec<u64>) -> RingSpec {
        let flips = vec![false; ids.len()];
        RingSpec::with_flips(ids, flips)
    }

    /// Builds a non-oriented ring with an explicit port layout.
    ///
    /// # Panics
    ///
    /// Panics with "IDs must be positive integers" if any ID is zero, and
    /// panics if `ids` is empty or `flips.len() != ids.len()`. As for
    /// [`RingSpec::oriented`], the panic on ID 0 is the contract.
    #[must_use]
    pub fn with_flips(ids: Vec<u64>, flips: Vec<bool>) -> RingSpec {
        assert!(!ids.is_empty(), "a ring needs at least one node");
        assert_eq!(ids.len(), flips.len(), "one flip per node required");
        assert!(
            ids.iter().all(|&id| id > 0),
            "IDs must be positive integers"
        );
        RingSpec { ids, flips }
    }

    /// Builds a ring with uniformly random port flips.
    #[must_use]
    pub fn random_flips<R: Rng + ?Sized>(ids: Vec<u64>, rng: &mut R) -> RingSpec {
        let flips = (0..ids.len()).map(|_| rng.gen::<bool>()).collect();
        RingSpec::with_flips(ids, flips)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ring has no nodes (never true for a valid spec).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The node IDs in clockwise position order.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The per-node port flips.
    #[must_use]
    pub fn flips(&self) -> &[bool] {
        &self.flips
    }

    /// ID of the node at clockwise position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn id(&self, i: NodeIndex) -> u64 {
        self.ids[i]
    }

    /// The largest ID in the ring (the paper's `ID_max`).
    #[must_use]
    pub fn id_max(&self) -> u64 {
        *self.ids.iter().max().expect("ring is non-empty")
    }

    /// Position of the first node holding the largest ID.
    #[must_use]
    pub fn max_position(&self) -> NodeIndex {
        let max = self.id_max();
        self.ids
            .iter()
            .position(|&id| id == max)
            .expect("non-empty")
    }

    /// Whether all IDs are pairwise distinct.
    #[must_use]
    pub fn ids_unique(&self) -> bool {
        let mut sorted = self.ids.clone();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// Whether the ring is oriented (no node has flipped ports).
    #[must_use]
    pub fn is_oriented(&self) -> bool {
        self.flips.iter().all(|&f| !f)
    }

    /// The port of node `i` that leads to its clockwise neighbour.
    #[must_use]
    pub fn cw_port(&self, i: NodeIndex) -> Port {
        if self.flips[i] {
            Port::Zero
        } else {
            Port::One
        }
    }

    /// The port of node `i` that leads to its counterclockwise neighbour.
    #[must_use]
    pub fn ccw_port(&self, i: NodeIndex) -> Port {
        self.cw_port(i).opposite()
    }

    /// Clockwise neighbour position of node `i`.
    #[must_use]
    pub fn cw_neighbor(&self, i: NodeIndex) -> NodeIndex {
        (i + 1) % self.len()
    }

    /// Counterclockwise neighbour position of node `i`.
    #[must_use]
    pub fn ccw_neighbor(&self, i: NodeIndex) -> NodeIndex {
        (i + self.len() - 1) % self.len()
    }

    /// Compiles the spec into the simulator's channel table.
    ///
    /// Clockwise channels (leaving a node's clockwise port) are tagged
    /// [`Direction::Cw`]; the reverse channels [`Direction::Ccw`]. For
    /// `n = 1` the two ports of the single node are connected to each other
    /// (a self-loop); for `n = 2` the two nodes are joined by two parallel
    /// links, keeping every node at degree two as the paper's model requires.
    #[must_use]
    pub fn wiring(&self) -> Wiring {
        let n = self.len();
        let mut endpoints = vec![(0, Port::Zero); 2 * n];
        let mut directions = vec![None; 2 * n];
        for i in 0..n {
            let j = self.cw_neighbor(i);
            let out = ChannelId::new(i, self.cw_port(i));
            let back = ChannelId::new(j, self.ccw_port(j));
            endpoints[out.index()] = (j, self.ccw_port(j));
            directions[out.index()] = Some(Direction::Cw);
            endpoints[back.index()] = (i, self.cw_port(i));
            directions[back.index()] = Some(Direction::Ccw);
        }
        Wiring::from_endpoints(n, endpoints, directions).expect("ring wiring is always valid")
    }
}

impl fmt::Display for RingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring[n={}](", self.len())?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}{}", id, if self.flips[i] { "↺" } else { "" })?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oriented_ring_wiring_n3() {
        let spec = RingSpec::oriented(vec![1, 2, 3]);
        let w = spec.wiring();
        assert_eq!(w.len(), 3);
        assert_eq!(w.channel_count(), 6);
        // CW channel of node 2 wraps to node 0.
        assert_eq!(w.endpoint(ChannelId::new(2, Port::One)), (0, Port::Zero));
        // CCW channel of node 0 goes back to node 2.
        assert_eq!(w.endpoint(ChannelId::new(0, Port::Zero)), (2, Port::One));
        assert_eq!(
            w.direction(ChannelId::new(0, Port::Zero)),
            Some(Direction::Ccw)
        );
    }

    #[test]
    fn self_loop_ring_n1() {
        let spec = RingSpec::oriented(vec![7]);
        let w = spec.wiring();
        assert_eq!(w.endpoint(ChannelId::new(0, Port::One)), (0, Port::Zero));
        assert_eq!(w.endpoint(ChannelId::new(0, Port::Zero)), (0, Port::One));
    }

    #[test]
    fn double_edge_ring_n2() {
        let spec = RingSpec::oriented(vec![1, 2]);
        let w = spec.wiring();
        // Two parallel links; all four channels distinct.
        assert_eq!(w.endpoint(ChannelId::new(0, Port::One)), (1, Port::Zero));
        assert_eq!(w.endpoint(ChannelId::new(1, Port::One)), (0, Port::Zero));
        assert_eq!(w.endpoint(ChannelId::new(0, Port::Zero)), (1, Port::One));
        assert_eq!(w.endpoint(ChannelId::new(1, Port::Zero)), (0, Port::One));
    }

    #[test]
    fn flipped_node_swaps_ports() {
        let spec = RingSpec::with_flips(vec![1, 2, 3], vec![false, true, false]);
        assert!(!spec.is_oriented());
        assert_eq!(spec.cw_port(1), Port::Zero);
        let w = spec.wiring();
        // Node 0's CW channel arrives at node 1's CCW-side port, which is
        // Port::One because node 1 is flipped.
        assert_eq!(w.endpoint(ChannelId::new(0, Port::One)), (1, Port::One));
        assert_eq!(w.endpoint(ChannelId::new(1, Port::Zero)), (2, Port::Zero));
    }

    #[test]
    fn wiring_is_involution_for_random_specs() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 5, 8, 17] {
            let ids = (1..=n as u64).collect();
            let spec = RingSpec::random_flips(ids, &mut rng);
            let w = spec.wiring();
            for c in w.channels() {
                let (v, p) = w.endpoint(c);
                let (back_v, back_p) = w.endpoint(ChannelId::new(v, p));
                assert_eq!((back_v, back_p), (c.node(), c.port()));
            }
        }
    }

    #[test]
    fn id_helpers() {
        let spec = RingSpec::oriented(vec![5, 9, 9, 2]);
        assert_eq!(spec.id_max(), 9);
        assert_eq!(spec.max_position(), 1);
        assert!(!spec.ids_unique());
        assert_eq!(spec.cw_neighbor(3), 0);
        assert_eq!(spec.ccw_neighbor(0), 3);
    }

    #[test]
    #[should_panic(expected = "IDs must be positive integers")]
    fn zero_id_rejected() {
        let _ = RingSpec::oriented(vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "IDs must be positive integers")]
    fn zero_id_rejected_with_flips() {
        let _ = RingSpec::with_flips(vec![2, 0, 1], vec![false, true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_rejected() {
        let _ = RingSpec::oriented(vec![]);
    }

    #[test]
    fn invalid_wiring_rejected() {
        // Two nodes, all channels point at node 0 port 0 — not an involution.
        let endpoints = vec![(0, Port::Zero); 4];
        let err = Wiring::from_endpoints(2, endpoints, vec![None; 4]).unwrap_err();
        assert!(matches!(err, WiringError::NotInvolution { .. }));
    }

    #[test]
    fn display_renders() {
        let spec = RingSpec::with_flips(vec![1, 2], vec![false, true]);
        assert_eq!(spec.to_string(), "ring[n=2](1, 2↺)");
        assert_eq!(ChannelId::new(1, Port::Zero).to_string(), "ch(1, Port_0)");
    }
}
