//! The compact binary record codec.
//!
//! Every type that crosses the engine's shuffle — and therefore may be
//! spilled to disk when a job runs under a memory budget — implements
//! [`Codec`]: a deterministic little-endian binary encoding with
//! length-prefixed variable-size fields.  The encoding is self-contained
//! (no schema is needed to decode beyond the Rust type itself) and
//! *canonical*: encoding a value always produces the same bytes, which the
//! byte-identity guarantees of the spill path rely on.
//!
//! Implementations are provided for the primitive types, `String`,
//! `Vec<T>`, `Option<T>`, and tuples up to arity four.  User-defined
//! structs get an implementation via [`crate::impl_codec_struct!`] /
//! [`crate::impl_codec_newtype!`]; enums are implemented by hand with a
//! leading tag byte (see `NodeId` in `smr_graph` for the idiom).
//!
//! Floating-point values are encoded by bit pattern, so round-tripping is
//! exact for every value including NaNs and signed zeros.

use std::fmt;

/// An error produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was fully decoded.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The bytes are not a valid encoding of the requested type.
    InvalidData(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::InvalidData(message) => write!(f, "invalid data: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reads exactly `n` bytes from the front of `input`, advancing it.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEof {
            needed: n,
            remaining: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// A type with a canonical binary encoding.
///
/// `decode` is the exact inverse of `encode`: decoding the encoded bytes
/// yields a value equal to the original and consumes exactly the bytes
/// `encode` produced.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it past the
    /// consumed bytes.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Exactly how many bytes [`Codec::encode`] appends for `self`.  The
    /// engine sizes buffers with it and sizes round-state partitions
    /// against their share of the memory budget, so it must be exact: a
    /// type that under-reports never spills.  Required, so that every
    /// implementation states it; [`crate::impl_codec_struct!`] and
    /// [`crate::impl_codec_newtype!`] generate it.
    fn encoded_len(&self) -> usize;

    /// Encodes into a caller-owned scratch buffer, clearing it first, and
    /// returns the encoded bytes as a slice.  Reusing one scratch across
    /// records keeps the engine's per-record lanes allocation-free: the
    /// buffer grows to the largest record seen and stays there.
    fn encode_into<'a>(&self, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        scratch.clear();
        scratch.reserve(self.encoded_len());
        self.encode(scratch);
        scratch.as_slice()
    }

    /// Convenience: encodes into a fresh vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must consume the whole input.
    fn decode_all(mut input: &[u8]) -> Result<Self, CodecError> {
        let value = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(CodecError::InvalidData(format!(
                "{} trailing bytes after value",
                input.len()
            )));
        }
        Ok(value)
    }
}

macro_rules! impl_codec_int {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized slice")))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
    )+};
}

impl_codec_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| CodecError::InvalidData(format!("usize out of range: {v}")))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let v = i64::decode(input)?;
        isize::try_from(v).map_err(|_| CodecError::InvalidData(format!("isize out of range: {v}")))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidData(format!(
                "invalid bool byte {other}"
            ))),
        }
    }
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u32::decode(input)?;
        char::from_u32(v).ok_or_else(|| CodecError::InvalidData(format!("invalid char {v:#x}")))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::InvalidData(format!("invalid utf-8 string: {e}")))
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        // Guard against a corrupt length forcing a huge allocation: never
        // pre-reserve more elements than the remaining bytes could encode
        // (every element costs at least one byte unless T is zero-sized).
        let cap = len.min(input.len().max(1));
        let mut items = Vec::with_capacity(cap);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(CodecError::InvalidData(format!(
                "invalid Option tag {other}"
            ))),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
}

macro_rules! impl_codec_tuple {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }
            fn encoded_len(&self) -> usize {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                0 $(+ $name.encoded_len())+
            }
        }
    )+};
}

impl_codec_tuple!((A), (A, B), (A, B, C), (A, B, C, D));

/// Implements [`Codec`] for a struct by encoding its named fields in the
/// order given.
///
/// ```
/// use smr_storage::{impl_codec_struct, Codec};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Edge { from: u32, to: u32, weight: f64 }
/// impl_codec_struct!(Edge { from, to, weight });
///
/// let e = Edge { from: 1, to: 2, weight: 0.5 };
/// assert_eq!(Edge::decode_all(&e.encode_to_vec()).unwrap(), e);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Codec::encode(&self.$field, out);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::CodecError> {
                Ok($ty { $($field: $crate::Codec::decode(input)?,)+ })
            }
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Codec::encoded_len(&self.$field))+
            }
        }
    };
}

/// Implements [`Codec`] for a single-field tuple struct (newtype).
///
/// ```
/// use smr_storage::{impl_codec_newtype, Codec};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct TermId(u32);
/// impl_codec_newtype!(TermId(u32));
///
/// assert_eq!(TermId::decode_all(&TermId(7).encode_to_vec()).unwrap(), TermId(7));
/// ```
#[macro_export]
macro_rules! impl_codec_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::Codec::encode(&self.0, out);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::CodecError> {
                Ok($ty(<$inner as $crate::Codec>::decode(input)?))
            }
            fn encoded_len(&self) -> usize {
                $crate::Codec::encoded_len(&self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode_to_vec();
        assert_eq!(
            value.encoded_len(),
            bytes.len(),
            "the size hint of the provided impls is exact"
        );
        let mut scratch = vec![0xAA; 3];
        assert_eq!(
            value.encode_into(&mut scratch),
            &bytes[..],
            "encode_into clears the scratch and produces the same bytes"
        );
        assert_eq!(T::decode_all(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-17i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(f64::NEG_INFINITY);
        round_trip(-0.0f64);
        round_trip('é');
        round_trip(());
    }

    #[test]
    fn encode_into_reuses_the_scratch_capacity() {
        let mut scratch = Vec::new();
        "x".repeat(100).encode_into(&mut scratch);
        let cap = scratch.capacity();
        // A smaller record never reallocates an already-grown scratch.
        "y".to_string().encode_into(&mut scratch);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn nan_round_trips_by_bit_pattern() {
        let bytes = f64::NAN.encode_to_vec();
        let back = f64::decode_all(&bytes).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn compound_types_round_trip() {
        round_trip("héllo wörld".to_string());
        round_trip(String::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some("x".to_string()));
        round_trip(None::<u64>);
        round_trip((42u32, "value".to_string()));
        round_trip((1u8, 2u16, 3u32, 4u64));
        round_trip(vec![(1usize, 0.5f64), (2, 1.5)]);
    }

    #[test]
    fn truncated_input_is_an_eof_error() {
        let bytes = "hello".to_string().encode_to_vec();
        for cut in 0..bytes.len() {
            let err = String::decode_all(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::UnexpectedEof { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_by_decode_all() {
        let mut bytes = 7u32.encode_to_vec();
        bytes.push(0);
        assert!(matches!(
            u32::decode_all(&bytes),
            Err(CodecError::InvalidData(_))
        ));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(bool::decode_all(&[2]).is_err());
        assert!(Option::<u8>::decode_all(&[9]).is_err());
        let not_utf8 = {
            let mut b = 2usize.encode_to_vec();
            b.extend_from_slice(&[0xff, 0xfe]);
            b
        };
        assert!(String::decode_all(&not_utf8).is_err());
    }

    #[test]
    fn corrupt_vec_length_does_not_allocate_the_moon() {
        // A length claiming 2^60 elements with a 2-byte payload must fail
        // with EOF, not abort on an allocation.
        let mut bytes = (1u64 << 60).encode_to_vec();
        bytes.extend_from_slice(&[1, 2]);
        assert!(Vec::<u64>::decode_all(&bytes).is_err());
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        id: u32,
        label: String,
        weights: Vec<f64>,
    }
    impl_codec_struct!(Demo { id, label, weights });

    #[derive(Debug, Clone, PartialEq)]
    struct Wrapper(u64);
    impl_codec_newtype!(Wrapper(u64));

    #[test]
    fn macros_generate_working_impls() {
        round_trip(Demo {
            id: 9,
            label: "demo".into(),
            weights: vec![0.25, -1.0],
        });
        round_trip(Wrapper(u64::MAX));
    }
}
