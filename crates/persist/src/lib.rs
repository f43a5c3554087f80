//! A compact, tagged binary serialization format for the `temspc`
//! workspace ("TPB": temspc binary).
//!
//! Calibrating the dual-level MSPC monitor at paper scale takes minutes of
//! simulation; a deployed detector loads a *persisted* calibration
//! instead. `serde` defines the data model but no wire format, and the
//! workspace's dependency policy does not include a format crate — so
//! this crate implements one: a byte-oriented, deterministic,
//! tag-prefixed encoding of the serde data model.
//!
//! Properties:
//!
//! * **Tagged** — every value carries a 1-byte type tag, so decoding a
//!   mismatched or corrupted buffer fails fast with a precise error
//!   instead of misinterpreting bytes.
//! * **Deterministic** — the same value always encodes to the same bytes
//!   (no map ordering issues arise; maps are encoded in iteration order).
//! * **Self-contained** — fixed-width big-endian integers, IEEE 754
//!   floats, UTF-8 strings.
//!
//! # Example
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Calibration {
//!     name: String,
//!     limits: Vec<f64>,
//! }
//!
//! let value = Calibration { name: "controller".into(), limits: vec![47.7, 12.3] };
//! let bytes = temspc_persist::to_bytes(&value).unwrap();
//! let back: Calibration = temspc_persist::from_bytes(&bytes).unwrap();
//! assert_eq!(back, value);
//! ```

#![warn(missing_docs)]

mod atomic;
mod de;
mod error;
mod framed;
mod ser;

pub use atomic::write_atomic;
pub use de::{from_bytes, Deserializer};
pub use error::PersistError;
pub use framed::{load_framed, load_framed_generation, read_generation, save_framed, FramedError};
pub use ser::{to_bytes, Serializer};

/// Type tags of the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Unit = 0x01,
    Bool = 0x02,
    U64 = 0x03,
    I64 = 0x04,
    F64 = 0x05,
    Str = 0x06,
    Bytes = 0x07,
    None = 0x08,
    Some = 0x09,
    Seq = 0x0A,
    Map = 0x0B,
    Variant = 0x0C,
    F32 = 0x0D,
    Char = 0x0E,
}

impl Tag {
    pub(crate) fn from_byte(b: u8) -> Option<Tag> {
        Some(match b {
            0x01 => Tag::Unit,
            0x02 => Tag::Bool,
            0x03 => Tag::U64,
            0x04 => Tag::I64,
            0x05 => Tag::F64,
            0x06 => Tag::Str,
            0x07 => Tag::Bytes,
            0x08 => Tag::None,
            0x09 => Tag::Some,
            0x0A => Tag::Seq,
            0x0B => Tag::Map,
            0x0C => Tag::Variant,
            0x0D => Tag::F32,
            0x0E => Tag::Char,
            _ => return None,
        })
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Tag::Unit => "unit",
            Tag::Bool => "bool",
            Tag::U64 => "u64",
            Tag::I64 => "i64",
            Tag::F64 => "f64",
            Tag::Str => "str",
            Tag::Bytes => "bytes",
            Tag::None => "none",
            Tag::Some => "some",
            Tag::Seq => "seq",
            Tag::Map => "map",
            Tag::Variant => "variant",
            Tag::F32 => "f32",
            Tag::Char => "char",
        }
    }
}
