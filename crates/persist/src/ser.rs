//! The TPB serializer.

use serde::ser::{self, Serialize};

use crate::error::PersistError;
use crate::Tag;

/// Serializes a value to TPB bytes.
///
/// # Errors
///
/// Returns [`PersistError`] if the value's `Serialize` implementation
/// fails (the format itself accepts the whole serde data model).
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, PersistError> {
    let mut serializer = Serializer::new();
    value.serialize(&mut serializer)?;
    Ok(serializer.into_bytes())
}

/// A serde serializer writing the TPB format into an in-memory buffer.
#[derive(Debug, Default)]
pub struct Serializer {
    pub(crate) out: Vec<u8>,
}

impl Serializer {
    /// Creates an empty serializer.
    pub fn new() -> Self {
        Serializer { out: Vec::new() }
    }

    /// Consumes the serializer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn tag(&mut self, tag: Tag) {
        self.out.push(tag as u8);
    }

    fn u32_raw(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }
}

impl<'a> ser::Serializer for &'a mut Serializer {
    type Ok = ();
    type Error = PersistError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), PersistError> {
        self.tag(Tag::Bool);
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), PersistError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), PersistError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), PersistError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), PersistError> {
        self.tag(Tag::I64);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), PersistError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), PersistError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), PersistError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), PersistError> {
        self.tag(Tag::U64);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), PersistError> {
        self.tag(Tag::F32);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), PersistError> {
        self.tag(Tag::F64);
        self.out.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), PersistError> {
        self.tag(Tag::Char);
        self.u32_raw(v as u32);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), PersistError> {
        self.tag(Tag::Str);
        self.u32_raw(v.len() as u32);
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), PersistError> {
        self.tag(Tag::Bytes);
        self.u32_raw(v.len() as u32);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), PersistError> {
        self.tag(Tag::None);
        Ok(())
    }

    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), PersistError> {
        self.tag(Tag::Some);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), PersistError> {
        self.tag(Tag::Unit);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), PersistError> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), PersistError> {
        self.tag(Tag::Variant);
        self.u32_raw(variant_index);
        self.serialize_unit()
    }

    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), PersistError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), PersistError> {
        self.tag(Tag::Variant);
        self.u32_raw(variant_index);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Compound<'a>, PersistError> {
        let len = len.ok_or_else(|| {
            PersistError::Message("TPB requires sequence lengths up front".into())
        })?;
        self.tag(Tag::Seq);
        self.u32_raw(len as u32);
        Ok(Compound { ser: self })
    }

    fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, PersistError> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, PersistError> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, PersistError> {
        self.tag(Tag::Variant);
        self.u32_raw(variant_index);
        self.serialize_seq(Some(len))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Compound<'a>, PersistError> {
        let len =
            len.ok_or_else(|| PersistError::Message("TPB requires map lengths up front".into()))?;
        self.tag(Tag::Map);
        self.u32_raw(len as u32);
        Ok(Compound { ser: self })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, PersistError> {
        // Structs are positional sequences of their fields.
        self.serialize_seq(Some(len))
    }

    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, PersistError> {
        self.serialize_tuple_variant(name, variant_index, variant, len)
    }
}

/// Compound-serialization state shared by all container kinds.
#[derive(Debug)]
pub struct Compound<'a> {
    ser: &'a mut Serializer,
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), PersistError> {
        key.serialize(&mut *self.ser)
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = PersistError;

    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), PersistError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), PersistError> {
        Ok(())
    }
}
