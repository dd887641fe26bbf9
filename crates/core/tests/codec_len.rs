//! `Codec::encoded_len` is exact for every codec the engine sizes data
//! with — the primitives, `String`, `Vec`, `Option`, tuples, both struct
//! macros, `NodeId`, the round notes and the two matcher state records:
//! state partitions and emitted notes spill by it, so an under-reporting
//! codec would never spill.

use proptest::prelude::*;
use smr_graph::NodeId;
use smr_matching::maximal::{WorkEdge, WorkRecord};
use smr_matching::state::{AdjEdge, NodeRecord};
use smr_storage::{impl_codec_newtype, impl_codec_struct, Codec};

/// Checks the length claim and the round trip of one value.
fn exact<T: Codec + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    let bytes = value.encode_to_vec();
    prop_assert_eq!(value.encoded_len(), bytes.len());
    prop_assert_eq!(&T::decode_all(&bytes).expect("round trip"), value);
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
struct Labelled {
    id: u32,
    label: String,
    weights: Vec<f64>,
}
impl_codec_struct!(Labelled { id, label, weights });

#[derive(Debug, Clone, PartialEq)]
struct Wrapped(Vec<u16>);
impl_codec_newtype!(Wrapped(Vec<u16>));

fn node() -> impl Strategy<Value = NodeId> {
    (any::<bool>(), any::<u32>()).prop_map(|(item, i)| {
        if item {
            NodeId::item(i)
        } else {
            NodeId::consumer(i)
        }
    })
}

fn adjacency() -> impl Strategy<Value = Vec<AdjEdge>> {
    proptest::collection::vec(
        (any::<usize>(), node(), any::<f64>()).prop_map(|(e, other, w)| AdjEdge::new(e, other, w)),
        0..6,
    )
}

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2_0000, 0..8)
        .prop_map(|chars| chars.into_iter().filter_map(char::from_u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn primitives_and_containers(
        (a, b, c, d) in (any::<u64>(), any::<u32>(), any::<bool>(), any::<f64>()),
        s in text(),
        v in proptest::collection::vec(any::<u64>(), 0..9),
        o in (any::<bool>(), any::<u32>()),
    ) {
        exact(&a)?;
        exact(&(b as u8, b as u16, b as i32, a as i64))?;
        exact(&(a as usize, a as i128, b as f32))?;
        exact(&c)?;
        exact(&d)?;
        exact(&char::from_u32(b % 0xD800).unwrap_or('x'))?;
        exact(&())?;
        exact(&s)?;
        exact(&v)?;
        exact(&o.0.then_some(o.1))?;
        exact(&(s.clone(), v.clone()))?;
        exact(&vec![(b, Some(s.clone())), (a as u32, None)])?;
    }

    #[test]
    fn struct_macros(id in any::<u32>(), label in text(), weights in proptest::collection::vec(any::<f64>(), 0..5)) {
        let wrapped = Wrapped(weights.iter().map(|w| (w * 1e4) as u16).collect());
        exact(&Labelled { id, label, weights })?;
        exact(&wrapped)?;
    }

    #[test]
    fn node_ids_and_round_messages(n in node(), edge in any::<usize>()) {
        exact(&n)?;
        exact(&edge)?;
        exact(&(n, edge))?;
    }

    #[test]
    fn matcher_state_records(
        capacity in any::<u64>(),
        adjacency in adjacency(),
        flags in proptest::collection::vec(any::<bool>(), 0..6),
    ) {
        let edges = adjacency
            .iter()
            .zip(&flags)
            .map(|(adj, &in_f)| WorkEdge {
                edge: adj.edge,
                other: adj.other,
                weight: adj.weight,
                in_f,
            })
            .collect();
        exact(&NodeRecord::new(capacity, adjacency))?;
        exact(&WorkRecord { capacity, edges })?;
    }
}
