//! Typed identifiers for the two sides of the bipartite graph.
//!
//! The paper distributes *items* `T = {t1, …, tn}` to *consumers*
//! `C = {c1, …, cm}`.  Identifiers are dense indices into the respective
//! side, which keeps every per-node array (capacities, dual variables,
//! degrees) a flat vector.

use smr_storage::codec::{decode_fixed, encode_fixed};
use smr_storage::{impl_codec_newtype, Codec, CodecError};
use std::fmt;

/// Identifier of an item (a piece of content: a photo, a question, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemId(pub u32);

/// Identifier of a consumer (a user the content is delivered to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConsumerId(pub u32);

impl ItemId {
    /// The dense index of this item.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ConsumerId {
    /// The dense index of this consumer.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl_codec_newtype!(ItemId(u32));
impl_codec_newtype!(ConsumerId(u32));

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

impl From<u32> for ConsumerId {
    fn from(v: u32) -> Self {
        ConsumerId(v)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for ConsumerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A node of the bipartite graph: either an item or a consumer.
///
/// `NodeId` is the key type used by the MapReduce matching algorithms: the
/// node-based graph representation of Section 5.3 keys every record by the
/// node whose local neighbourhood it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// An item node (left side, `T`).
    Item(ItemId),
    /// A consumer node (right side, `C`).
    Consumer(ConsumerId),
}

impl NodeId {
    /// Creates an item node id.
    pub fn item(index: u32) -> Self {
        NodeId::Item(ItemId(index))
    }

    /// Creates a consumer node id.
    pub fn consumer(index: u32) -> Self {
        NodeId::Consumer(ConsumerId(index))
    }
}

impl Ord for NodeId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Items order before consumers; within a side, by index.  A total
        // order is required because MapReduce reduce partitions are sorted
        // by key.
        match (self, other) {
            (NodeId::Item(a), NodeId::Item(b)) => a.cmp(b),
            (NodeId::Consumer(a), NodeId::Consumer(b)) => a.cmp(b),
            (NodeId::Item(_), NodeId::Consumer(_)) => std::cmp::Ordering::Less,
            (NodeId::Consumer(_), NodeId::Item(_)) => std::cmp::Ordering::Greater,
        }
    }
}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A fixed-width record of 5 bytes: a tag byte (0 = item, 1 = consumer),
/// then the dense index.
impl Codec for NodeId {
    const WIDTH: Option<usize> = <(u8, u32)>::WIDTH;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_fixed(self, out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        decode_fixed(input)
    }

    #[inline]
    fn encoded_len(&self) -> usize {
        5
    }

    #[inline]
    fn write_fixed(&self, out: &mut [u8]) {
        let tagged = match *self {
            NodeId::Item(t) => (0u8, t.0),
            NodeId::Consumer(c) => (1u8, c.0),
        };
        tagged.write_fixed(out);
    }

    #[inline]
    fn read_fixed(bytes: &[u8]) -> Result<Self, CodecError> {
        match <(u8, u32)>::read_fixed(bytes)? {
            (0, index) => Ok(NodeId::item(index)),
            (1, index) => Ok(NodeId::consumer(index)),
            (other, _) => Err(CodecError::InvalidData(format!(
                "invalid NodeId tag {other}"
            ))),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Item(t) => write!(f, "{t}"),
            NodeId::Consumer(c) => write!(f, "{c}"),
        }
    }
}

impl From<ItemId> for NodeId {
    fn from(t: ItemId) -> Self {
        NodeId::Item(t)
    }
}

impl From<ConsumerId> for NodeId {
    fn from(c: ConsumerId) -> Self {
        NodeId::Consumer(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_the_codec() {
        for node in [NodeId::item(0), NodeId::item(u32::MAX), NodeId::consumer(7)] {
            let bytes = node.encode_to_vec();
            assert_eq!(node.encoded_len(), bytes.len());
            assert_eq!(NodeId::decode_all(&bytes).unwrap(), node);
        }
        assert!(NodeId::decode_all(&[2, 0, 0, 0, 0]).is_err(), "bad tag");
        let item = ItemId(9).encode_to_vec();
        assert_eq!(ItemId::decode_all(&item).unwrap(), ItemId(9));
        let consumer = ConsumerId(5).encode_to_vec();
        assert_eq!(ConsumerId::decode_all(&consumer).unwrap(), ConsumerId(5));
    }

    #[test]
    fn node_id_constructors_build_the_variants() {
        assert_eq!(NodeId::item(3), NodeId::Item(ItemId(3)));
        assert_eq!(NodeId::consumer(5), NodeId::Consumer(ConsumerId(5)));
    }

    #[test]
    fn node_ordering_puts_items_before_consumers() {
        let mut nodes = vec![
            NodeId::consumer(0),
            NodeId::item(2),
            NodeId::consumer(3),
            NodeId::item(0),
        ];
        nodes.sort();
        assert_eq!(
            nodes,
            vec![
                NodeId::item(0),
                NodeId::item(2),
                NodeId::consumer(0),
                NodeId::consumer(3),
            ]
        );
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(NodeId::item(7).to_string(), "t7");
        assert_eq!(NodeId::consumer(9).to_string(), "c9");
        assert_eq!(ItemId(1).to_string(), "t1");
        assert_eq!(ConsumerId(2).to_string(), "c2");
    }

    #[test]
    fn conversions_round_trip() {
        let t: NodeId = ItemId(4).into();
        let c: NodeId = ConsumerId(8).into();
        assert_eq!(t, NodeId::item(4));
        assert_eq!(c, NodeId::consumer(8));
        assert_eq!(ItemId::from(4u32).index(), 4);
        assert_eq!(ConsumerId::from(8u32).index(), 8);
    }
}
