//! The bytes of every record type the matchers park, pinned against
//! bytes written out by hand (the join's `Posting` is pinned beside it in
//! `smr_simjoin`), and the hostile inputs the fixed-width decoding path
//! must refuse, and arbitrary bytes, which every decoder answers with an
//! `Ok` or an `Err`, never a panic.
//!
//! The golden bytes hold the run-file format (`FORMAT_VERSION` 2) still:
//! a faster encoding that drifted a single byte would fail here before it
//! moved a spill or shuffle byte count.  The hostile inputs each return an
//! `Err` without a panic; a decoder that sized an allocation by a corrupt
//! length before testing it against the input would panic on the largest
//! lengths used here, whose allocations pass `isize::MAX` bytes.

use proptest::prelude::*;
use smr_graph::{EdgeId, NodeId};
use smr_matching::maximal::{WorkEdge, WorkRecord};
use smr_matching::state::{AdjEdge, NodeRecord};
use smr_storage::{Codec, CodecError};

/// Concatenates byte fields into one expected encoding.
fn bytes(fields: &[&[u8]]) -> Vec<u8> {
    fields.concat()
}

/// Checks that `value` encodes to exactly `expected`, that its length
/// claim agrees and that the bytes decode back to it.
fn golden<T: Codec + PartialEq + std::fmt::Debug>(value: T, expected: &[u8]) {
    assert_eq!(value.encode_to_vec(), expected, "{value:?}");
    assert_eq!(value.encoded_len(), expected.len(), "{value:?}");
    assert_eq!(T::decode_all(expected).unwrap(), value);
}

/// 0.5 and 0.25 as little-endian `f64` bit patterns.
const HALF: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
const QUARTER: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xD0, 0x3F];

/// Two adjacency entries: edge 3 to item 1 at 0.5, edge 258 to consumer 2
/// at 0.25.
fn adjacency() -> Vec<AdjEdge> {
    vec![
        AdjEdge::new(3, NodeId::item(1), 0.5),
        AdjEdge::new(258, NodeId::consumer(2), 0.25),
    ]
}

/// The bytes of [`adjacency`]: the `u64` length, then per entry the
/// edge (`u64`), the `NodeId` (tag byte, `u32` index) and the weight.
fn adjacency_bytes() -> Vec<u8> {
    bytes(&[
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[3, 0, 0, 0, 0, 0, 0, 0],
        &[0, 1, 0, 0, 0],
        &HALF,
        &[2, 1, 0, 0, 0, 0, 0, 0],
        &[1, 2, 0, 0, 0],
        &QUARTER,
    ])
}

#[test]
fn fixed_widths_are_the_sums_of_their_fields() {
    assert_eq!(NodeId::WIDTH, Some(5));
    assert_eq!(AdjEdge::WIDTH, Some(21));
    assert_eq!(WorkEdge::WIDTH, Some(22));
    assert_eq!(EdgeId::WIDTH, Some(8));
    assert_eq!(<(NodeId, EdgeId)>::WIDTH, Some(13));
    assert_eq!(<((usize, usize), f64)>::WIDTH, Some(24));
    assert_eq!(NodeRecord::WIDTH, None);
    assert_eq!(WorkRecord::WIDTH, None);
}

#[test]
fn node_record_bytes() {
    let record = NodeRecord::new(2, adjacency());
    let expected = bytes(&[&[2, 0, 0, 0, 0, 0, 0, 0], &adjacency_bytes()]);
    golden(record, &expected);
    golden(NodeRecord::new(0, Vec::new()), &[0; 16]);
}

#[test]
fn work_record_bytes() {
    let record = WorkRecord {
        capacity: 1,
        edges: vec![
            WorkEdge {
                edge: 9,
                other: NodeId::consumer(5),
                weight: 0.5,
                in_f: false,
            },
            WorkEdge {
                edge: 10,
                other: NodeId::consumer(6),
                weight: 0.25,
                in_f: true,
            },
        ],
    };
    let expected = bytes(&[
        &[1, 0, 0, 0, 0, 0, 0, 0],
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[9, 0, 0, 0, 0, 0, 0, 0],
        &[1, 5, 0, 0, 0],
        &HALF,
        &[0],
        &[10, 0, 0, 0, 0, 0, 0, 0],
        &[1, 6, 0, 0, 0],
        &QUARTER,
        &[1],
    ]);
    golden(record, &expected);
}

#[test]
fn round_note_bytes() {
    let note: (NodeId, EdgeId) = (NodeId::consumer(3), 0x0102);
    golden(note, &[1, 3, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]);
    let notes = vec![note, (NodeId::item(0), 1)];
    let expected = bytes(&[
        &[2, 0, 0, 0, 0, 0, 0, 0],
        &[1, 3, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    ]);
    golden(notes, &expected);
}

#[test]
fn candidate_pair_bytes() {
    let pair: ((usize, usize), f64) = ((1, 0x0100), 0.5);
    golden(
        pair,
        &bytes(&[&[1, 0, 0, 0, 0, 0, 0, 0], &[0, 1, 0, 0, 0, 0, 0, 0], &HALF]),
    );
}

/// An adjacency of one entry behind a length prefix of `len`.
fn adjacency_claiming(len: u64) -> Vec<u8> {
    let mut input = len.encode_to_vec();
    AdjEdge::new(1, NodeId::item(2), 0.5).encode(&mut input);
    input
}

#[test]
fn a_length_of_u64_max_is_refused() {
    let input = adjacency_claiming(u64::MAX);
    assert!(matches!(
        Vec::<AdjEdge>::decode_all(&input),
        Err(CodecError::UnexpectedEof { .. })
    ));
    let mut wide = u64::MAX.encode_to_vec();
    wide.extend_from_slice(&[0; 16]);
    assert!(Vec::<u8>::decode_all(&wide).is_err());
    assert!(Vec::<bool>::decode_all(&wide).is_err());
}

#[test]
fn a_length_whose_byte_count_overflows_is_refused() {
    // 21 × len wraps past usize::MAX.
    let len = usize::MAX / 21 + 1;
    let input = adjacency_claiming(len as u64);
    assert!(matches!(
        Vec::<AdjEdge>::decode_all(&input),
        Err(CodecError::UnexpectedEof { .. })
    ));
}

#[test]
fn a_length_past_the_input_is_refused() {
    // One entry short, and a length whose allocation alone could never be
    // made: either is refused by the bounds test, before any allocation.
    for len in [2, isize::MAX as u64 / 24 + 1] {
        let input = adjacency_claiming(len);
        assert!(
            matches!(
                Vec::<AdjEdge>::decode_all(&input),
                Err(CodecError::UnexpectedEof { .. })
            ),
            "length {len}"
        );
    }
    let mut record = NodeRecord::new(1, adjacency()).encode_to_vec();
    record.pop();
    assert!(matches!(
        NodeRecord::decode_all(&record),
        Err(CodecError::UnexpectedEof { .. })
    ));
}

#[test]
fn a_bad_tag_inside_an_adjacency_element_is_refused() {
    // capacity (8) + length (8) + the first entry's edge (8).
    let mut record = NodeRecord::new(1, adjacency()).encode_to_vec();
    assert_eq!(record[24], 0, "the first entry's NodeId tag");
    record[24] = 2;
    assert!(matches!(
        NodeRecord::decode_all(&record),
        Err(CodecError::InvalidData(_))
    ));

    // The second entry's `in_f`: its edge, NodeId and weight follow the
    // first 22-byte entry.
    let edge = |in_f| WorkEdge {
        edge: 1,
        other: NodeId::consumer(1),
        weight: 0.5,
        in_f,
    };
    let work = WorkRecord {
        capacity: 1,
        edges: vec![edge(false), edge(true)],
    };
    let mut record = work.encode_to_vec();
    let in_f_at = 8 + 8 + 22 + 8 + 5 + 8;
    assert_eq!(record[in_f_at], 1);
    record[in_f_at] = 2;
    assert!(matches!(
        WorkRecord::decode_all(&record),
        Err(CodecError::InvalidData(_))
    ));
}

/// Decodes `input` as a `T`, whose answer, `Ok` or `Err`, is dropped: the
/// call must return at all, without a panic.
fn decode<T: Codec>(input: &[u8]) {
    let _ = T::decode_all(input);
}

/// Decodes `input` as every record type the matchers and the join park.
fn decode_every_parked_type(input: &[u8]) {
    decode::<NodeId>(input);
    decode::<AdjEdge>(input);
    decode::<NodeRecord>(input);
    decode::<WorkEdge>(input);
    decode::<WorkRecord>(input);
    decode::<(NodeId, EdgeId)>(input);
    decode::<((usize, usize), f64)>(input);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        input in proptest::collection::vec(0u8..=255, 0..256),
        len in 0u64..8,
    ) {
        decode_every_parked_type(&input);
        // A small length at either place a record keeps one, the first
        // word (a bare adjacency) or the second (after the capacity), so
        // the element decoders see the hostile bytes too.
        for at in [0, 8] {
            if input.len() >= at + 8 {
                let mut input = input.clone();
                input[at..at + 8].copy_from_slice(&len.to_le_bytes());
                decode_every_parked_type(&input);
            }
        }
    }
}
