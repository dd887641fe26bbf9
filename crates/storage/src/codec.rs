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
//!
//! A *fixed-width* type — one whose every value encodes to the same
//! number of bytes, [`Codec::WIDTH`] — also writes and reads itself into
//! and out of an exact-size slice ([`Codec::write_fixed`] /
//! [`Codec::read_fixed`]), and its `encode` / `decode` go through that
//! slice form ([`encode_fixed`] / [`decode_fixed`]).  The integers,
//! `f32`, `f64`, `char`, `bool`, `()` and tuples of fixed-width types are
//! fixed-width, and so is every struct the two macros derive whose fields
//! all are.  A `Vec` of a fixed-width element encodes with one `resize`
//! and decodes after one bounds test of `len × width` bytes, element by
//! element over exact-size chunks; the bytes are the same as element by
//! element through `encode`.

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
#[inline]
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
    /// The number of bytes every value encodes to, when that number is
    /// the same for every value of the type; `None` (the default) when it
    /// is not.  A type that reports a width implements
    /// [`Codec::write_fixed`] and [`Codec::read_fixed`], and routes
    /// `encode` and `decode` through them ([`encode_fixed`] /
    /// [`decode_fixed`]) so that the two forms cannot disagree.  (A type
    /// that sets only the width keeps working: the two methods' defaults
    /// go through its `encode` / `decode`, one allocation per value.)
    /// [`crate::impl_codec_struct!`] and [`crate::impl_codec_newtype!`]
    /// derive all of it whenever every field is fixed-width.
    const WIDTH: Option<usize> = None;

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

    /// Writes the encoding of `self` into `out`, which is exactly
    /// [`Codec::WIDTH`] bytes long.  The default goes through
    /// [`Codec::encode`], so a type that reports a width but keeps its own
    /// `encode` stays correct; one whose `encode` is [`encode_fixed`] must
    /// implement it.
    ///
    /// # Panics
    /// The default panics when `encode` does not write exactly
    /// `out.len()` bytes.
    fn write_fixed(&self, out: &mut [u8]) {
        let mut bytes = Vec::with_capacity(out.len());
        self.encode(&mut bytes);
        assert_eq!(
            bytes.len(),
            out.len(),
            "{} encoded to a width other than its WIDTH",
            std::any::type_name::<Self>()
        );
        out.copy_from_slice(&bytes);
    }

    /// Decodes a value from `bytes`, which are exactly [`Codec::WIDTH`]
    /// bytes long.  The default is [`Codec::decode_all`]; a type whose
    /// `decode` is [`decode_fixed`] must implement it.
    fn read_fixed(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode_all(bytes)
    }

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

/// The width of a fixed-width `T`.
///
/// # Panics
/// Panics when `T` is not fixed-width.
#[inline]
fn fixed_width<T: Codec>() -> usize {
    T::WIDTH.unwrap_or_else(|| panic!("{} is not fixed-width", std::any::type_name::<T>()))
}

/// [`Codec::encode`] of a fixed-width type: grows `out` by the width and
/// writes the value into the new bytes with [`Codec::write_fixed`].
#[inline]
pub fn encode_fixed<T: Codec>(value: &T, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + fixed_width::<T>(), 0);
    value.write_fixed(&mut out[start..]);
}

/// [`Codec::decode`] of a fixed-width type: takes the width's bytes from
/// the front of `input` and reads them with [`Codec::read_fixed`].
#[inline]
pub fn decode_fixed<T: Codec>(input: &mut &[u8]) -> Result<T, CodecError> {
    T::read_fixed(take(input, fixed_width::<T>())?)
}

/// Writes a fixed-width field into the front of `out` and advances `out`
/// past it: how [`Codec::write_fixed`] of a record writes its fields in
/// turn.
///
/// # Panics
/// Panics when `out` is shorter than the field's width.
#[inline]
pub fn put_fixed<T: Codec>(value: &T, out: &mut &mut [u8]) {
    let (head, tail) = std::mem::take(out).split_at_mut(fixed_width::<T>());
    value.write_fixed(head);
    *out = tail;
}

/// The width of a record whose fields have the given widths: their sum,
/// or `None` when one of them is not fixed-width.
pub const fn sum_widths(widths: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < widths.len() {
        match widths[i] {
            Some(width) => total += width,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

/// The [`Codec::WIDTH`] of the field `field` projects to: how
/// [`crate::impl_codec_struct!`] names a field's type by the field's name.
#[doc(hidden)]
pub const fn field_width<S, F: Codec>(field: fn(&S) -> &F) -> Option<usize> {
    let _ = field;
    F::WIDTH
}

macro_rules! impl_codec_int {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$ty>());
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
                std::mem::size_of::<$ty>()
            }
            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact-width slice")))
            }
        }
    )+};
}

impl_codec_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// Implements the fixed-width [`Codec`] of a type `$ty` stored as the
/// fixed-width `$repr`: `into` converts a value to its representation,
/// `from` checks a decoded representation and converts it back.
macro_rules! impl_codec_via {
    ($ty:ty as $repr:ty, into: $into:expr, from: $from:expr) => {
        impl Codec for $ty {
            const WIDTH: Option<usize> = <$repr as Codec>::WIDTH;
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
                std::mem::size_of::<$repr>()
            }
            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                let into: fn(&$ty) -> $repr = $into;
                into(self).write_fixed(out);
            }
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Result<Self, CodecError> {
                let from: fn($repr) -> Result<$ty, CodecError> = $from;
                from(<$repr>::read_fixed(bytes)?)
            }
        }
    };
}

impl_codec_via!(usize as u64, into: |v| *v as u64, from: |v| {
    usize::try_from(v).map_err(|_| CodecError::InvalidData(format!("usize out of range: {v}")))
});

impl_codec_via!(isize as i64, into: |v| *v as i64, from: |v| {
    isize::try_from(v).map_err(|_| CodecError::InvalidData(format!("isize out of range: {v}")))
});

impl_codec_via!(bool as u8, into: |v| u8::from(*v), from: |v| match v {
    0 => Ok(false),
    1 => Ok(true),
    other => Err(CodecError::InvalidData(format!("invalid bool byte {other}"))),
});

impl_codec_via!(f32 as u32, into: |v| v.to_bits(), from: |v| Ok(f32::from_bits(v)));

impl_codec_via!(f64 as u64, into: |v| v.to_bits(), from: |v| Ok(f64::from_bits(v)));

impl_codec_via!(char as u32, into: |v| *v as u32, from: |v| {
    char::from_u32(v).ok_or_else(|| CodecError::InvalidData(format!("invalid char {v:#x}")))
});

impl Codec for () {
    const WIDTH: Option<usize> = Some(0);
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
        0
    }
    #[inline]
    fn write_fixed(&self, _out: &mut [u8]) {}
    #[inline]
    fn read_fixed(_bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(())
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

/// A `Vec` of a fixed-width element of non-zero width encodes its
/// elements into one `resize` of the output and decodes them from
/// exact-size chunks, after one checked test that the `len × width`
/// bytes are there — so a corrupt length fails before any allocation
/// larger than the input.  Other elements, zero-width ones included, go
/// one `encode` / `decode` at a time.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        match T::WIDTH {
            Some(width) if width > 0 => {
                let start = out.len();
                out.resize(start + width * self.len(), 0);
                for (item, chunk) in self.iter().zip(out[start..].chunks_exact_mut(width)) {
                    item.write_fixed(chunk);
                }
            }
            _ => {
                for item in self {
                    item.encode(out);
                }
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        match T::WIDTH {
            Some(width) if width > 0 => {
                let needed = len.checked_mul(width).ok_or(CodecError::UnexpectedEof {
                    needed: usize::MAX,
                    remaining: input.len(),
                })?;
                let bytes = take(input, needed)?;
                let mut items = Vec::with_capacity(len);
                for chunk in bytes.chunks_exact(width) {
                    items.push(T::read_fixed(chunk)?);
                }
                Ok(items)
            }
            _ => {
                // Guard against a corrupt length forcing a huge allocation:
                // never pre-reserve more elements than the remaining bytes
                // could encode (every element costs at least one byte unless
                // T is zero-sized).
                let cap = len.min(input.len().max(1));
                let mut items = Vec::with_capacity(cap);
                for _ in 0..len {
                    items.push(T::decode(input)?);
                }
                Ok(items)
            }
        }
    }
    fn encoded_len(&self) -> usize {
        8 + match T::WIDTH {
            Some(width) => width * self.len(),
            None => self.iter().map(Codec::encoded_len).sum::<usize>(),
        }
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
        #[allow(non_snake_case)]
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            const WIDTH: Option<usize> = sum_widths(&[$($name::WIDTH),+]);
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                if Self::WIDTH.is_some() {
                    return encode_fixed(self, out);
                }
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                if Self::WIDTH.is_some() {
                    return decode_fixed(input);
                }
                Ok(($($name::decode(input)?,)+))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                let ($($name,)+) = self;
                match Self::WIDTH {
                    Some(width) => width,
                    None => 0 $(+ $name.encoded_len())+,
                }
            }
            #[inline]
            fn write_fixed(&self, mut out: &mut [u8]) {
                let ($($name,)+) = self;
                $(put_fixed($name, &mut out);)+
            }
            #[inline]
            fn read_fixed(mut bytes: &[u8]) -> Result<Self, CodecError> {
                Ok(($(decode_fixed::<$name>(&mut bytes)?,)+))
            }
        }
    )+};
}

impl_codec_tuple!((A), (A, B), (A, B, C), (A, B, C, D));

/// Implements [`Codec`] for a struct by encoding its named fields in the
/// order given.
///
/// The struct is fixed-width ([`Codec::WIDTH`]) when every field is: its
/// width is the sum of theirs, and `encode` / `decode` write and read the
/// fields into and out of one exact-size slice.  A struct with a
/// variable-width field (a `String`, a `Vec`, an `Option`) encodes field
/// by field.  The bytes are the same either way.
///
/// ```
/// use smr_storage::{impl_codec_struct, Codec};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Edge { from: u32, to: u32, weight: f64 }
/// impl_codec_struct!(Edge { from, to, weight });
///
/// let e = Edge { from: 1, to: 2, weight: 0.5 };
/// assert_eq!(Edge::WIDTH, Some(16));
/// assert_eq!(Edge::decode_all(&e.encode_to_vec()).unwrap(), e);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            const WIDTH: Option<usize> = $crate::codec::sum_widths(&[$(
                $crate::codec::field_width(|record: &$ty| &record.$field)
            ),+]);
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                if Self::WIDTH.is_some() {
                    return $crate::codec::encode_fixed(self, out);
                }
                $($crate::Codec::encode(&self.$field, out);)+
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::CodecError> {
                if Self::WIDTH.is_some() {
                    return $crate::codec::decode_fixed(input);
                }
                Ok($ty { $($field: $crate::Codec::decode(input)?,)+ })
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                match Self::WIDTH {
                    Some(width) => width,
                    None => 0 $(+ $crate::Codec::encoded_len(&self.$field))+,
                }
            }
            #[inline]
            fn write_fixed(&self, mut out: &mut [u8]) {
                $($crate::codec::put_fixed(&self.$field, &mut out);)+
            }
            #[inline]
            fn read_fixed(mut bytes: &[u8]) -> Result<Self, $crate::CodecError> {
                Ok($ty { $($field: $crate::codec::decode_fixed(&mut bytes)?,)+ })
            }
        }
    };
}

/// Implements [`Codec`] for a single-field tuple struct (newtype): the
/// inner value's encoding, fixed-width when the inner type is.
///
/// ```
/// use smr_storage::{impl_codec_newtype, Codec};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct TermId(u32);
/// impl_codec_newtype!(TermId(u32));
///
/// assert_eq!(TermId::WIDTH, Some(4));
/// assert_eq!(TermId::decode_all(&TermId(7).encode_to_vec()).unwrap(), TermId(7));
/// ```
#[macro_export]
macro_rules! impl_codec_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::Codec for $ty {
            const WIDTH: Option<usize> = <$inner as $crate::Codec>::WIDTH;
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::Codec::encode(&self.0, out);
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::CodecError> {
                Ok($ty(<$inner as $crate::Codec>::decode(input)?))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                $crate::Codec::encoded_len(&self.0)
            }
            #[inline]
            fn write_fixed(&self, out: &mut [u8]) {
                $crate::Codec::write_fixed(&self.0, out);
            }
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Result<Self, $crate::CodecError> {
                Ok($ty(<$inner as $crate::Codec>::read_fixed(bytes)?))
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

    #[test]
    fn fixed_widths_of_the_primitives_and_tuples() {
        assert_eq!(u8::WIDTH, Some(1));
        assert_eq!(i128::WIDTH, Some(16));
        assert_eq!(usize::WIDTH, Some(8));
        assert_eq!(bool::WIDTH, Some(1));
        assert_eq!(f64::WIDTH, Some(8));
        assert_eq!(char::WIDTH, Some(4));
        assert_eq!(<()>::WIDTH, Some(0));
        assert_eq!(<(u8, u16, u32, u64)>::WIDTH, Some(15));
        assert_eq!(String::WIDTH, None);
        assert_eq!(Vec::<u8>::WIDTH, None);
        assert_eq!(Option::<u8>::WIDTH, None);
        assert_eq!(<(u32, String)>::WIDTH, None);
    }

    #[test]
    fn a_fixed_width_vec_has_the_bytes_of_its_elements_in_turn() {
        let items = vec![(1u32, 0.5f64), (2, -1.0), (u32::MAX, f64::NAN)];
        let mut expected = items.len().encode_to_vec();
        for (a, b) in &items {
            expected.extend_from_slice(&a.to_le_bytes());
            expected.extend_from_slice(&b.to_bits().to_le_bytes());
        }
        assert_eq!(items.encode_to_vec(), expected);
        assert_eq!(items.encoded_len(), expected.len());
        let back = Vec::<(u32, f64)>::decode_all(&expected).unwrap();
        assert_eq!(back.encode_to_vec(), expected);
    }

    #[test]
    fn hostile_fixed_width_lengths_are_errors() {
        let body = [0u8; 24];
        for len in [u64::MAX, u64::MAX / 8 + 1, 4, 1 << 62] {
            let mut input = len.encode_to_vec();
            input.extend_from_slice(&body);
            assert!(
                matches!(
                    Vec::<u64>::decode_all(&input),
                    Err(CodecError::UnexpectedEof { .. })
                ),
                "length {len}"
            );
        }
        let mut bad_bool = 3usize.encode_to_vec();
        bad_bool.extend_from_slice(&[1, 0, 2]);
        assert!(matches!(
            Vec::<bool>::decode_all(&bad_bool),
            Err(CodecError::InvalidData(_))
        ));
    }

    #[test]
    fn zero_width_elements_go_one_at_a_time() {
        // A `Vec<()>` is its length alone: decoding takes no element bytes
        // and never chunks the input by a width of zero.
        round_trip(vec![(); 5]);
        round_trip(vec![((), ()); 3]);
        assert_eq!(vec![(); 5].encode_to_vec(), 5usize.encode_to_vec());
        assert_eq!(
            Vec::<()>::decode_all(&3usize.encode_to_vec())
                .unwrap()
                .len(),
            3
        );
    }

    /// Reports a width but keeps its own `encode` / `decode`, with the
    /// default `write_fixed` / `read_fixed`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct WidthOnly(u16);
    impl Codec for WidthOnly {
        const WIDTH: Option<usize> = Some(2);
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(WidthOnly(u16::decode(input)?))
        }
        fn encoded_len(&self) -> usize {
            2
        }
    }

    #[test]
    fn a_type_that_sets_only_its_width_still_round_trips() {
        round_trip(vec![WidthOnly(1), WidthOnly(0xBEEF)]);
        round_trip(vec![(WidthOnly(7), 3u8); 4]);
        assert_eq!(
            vec![WidthOnly(0x0102)].encode_to_vec(),
            [&1usize.encode_to_vec()[..], &[2, 1]].concat()
        );
        let mut short = 2usize.encode_to_vec();
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            Vec::<WidthOnly>::decode_all(&short),
            Err(CodecError::UnexpectedEof { .. })
        ));
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
        assert_eq!(Demo::WIDTH, None);
        assert_eq!(Wrapper::WIDTH, Some(8));
    }
}
