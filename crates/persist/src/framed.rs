//! Framed TPB files, the one on-disk layout of every persisted artifact:
//!
//! ```text
//! magic (8 bytes: kind + format version) ‖ [generation: u64 BE] ‖ TPB payload
//! ```
//!
//! A file of one kind loaded as another fails fast as
//! [`FramedError::BadHeader`]. A kind that carries a generation keeps it
//! at a fixed offset, so [`read_generation`] reads 16 bytes, not the
//! file. Saves go through [`write_atomic`], never leaving a torn file.

use std::io::{self, Read as _};
use std::path::Path;

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::{from_bytes, write_atomic, PersistError, Serializer};

/// Errors from framed-file I/O.
#[derive(Debug)]
pub enum FramedError {
    /// Filesystem failure (a missing file is [`io::ErrorKind::NotFound`]).
    Io(io::Error),
    /// The payload failed to encode or decode.
    Format(PersistError),
    /// The file does not start with the expected magic, or is torn short
    /// of its fixed header.
    BadHeader,
}

impl std::fmt::Display for FramedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramedError::Io(e) => write!(f, "i/o failure: {e}"),
            FramedError::Format(e) => write!(f, "format failure: {e}"),
            FramedError::BadHeader => write!(f, "bad header (another kind or format version)"),
        }
    }
}

impl std::error::Error for FramedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FramedError::Io(e) => Some(e),
            FramedError::Format(e) => Some(e),
            FramedError::BadHeader => None,
        }
    }
}

impl From<io::Error> for FramedError {
    fn from(e: io::Error) -> Self {
        FramedError::Io(e)
    }
}

/// Saves `value` to `path` as `magic ‖ [generation] ‖ TPB`, atomically.
/// The payload is serialized into the buffer that holds the header, so a
/// save never holds a second copy of the file.
///
/// # Errors
///
/// Returns [`FramedError`] on encoding or I/O failure; `path` is then
/// left as it was.
pub fn save_framed<T: Serialize + ?Sized>(
    path: impl AsRef<Path>,
    magic: &[u8; 8],
    generation: Option<u64>,
    value: &T,
) -> Result<(), FramedError> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(magic);
    if let Some(generation) = generation {
        out.extend_from_slice(&generation.to_be_bytes());
    }
    let mut serializer = Serializer { out };
    value
        .serialize(&mut serializer)
        .map_err(FramedError::Format)?;
    write_atomic(path, &serializer.out)?;
    Ok(())
}

/// Loads a file saved by [`save_framed`] without a generation.
///
/// # Errors
///
/// [`FramedError::BadHeader`] for a foreign or torn header,
/// [`FramedError::Format`] for a bad payload, [`FramedError::Io`] else.
pub fn load_framed<T: DeserializeOwned>(
    path: impl AsRef<Path>,
    magic: &[u8; 8],
) -> Result<T, FramedError> {
    let bytes = std::fs::read(path)?;
    let payload = bytes.strip_prefix(magic).ok_or(FramedError::BadHeader)?;
    from_bytes(payload).map_err(FramedError::Format)
}

/// Loads a file saved by [`save_framed`] with a generation, returning
/// the generation and the value.
///
/// # Errors
///
/// As [`load_framed`].
pub fn load_framed_generation<T: DeserializeOwned>(
    path: impl AsRef<Path>,
    magic: &[u8; 8],
) -> Result<(u64, T), FramedError> {
    let bytes = std::fs::read(path)?;
    let (generation, payload) = bytes
        .strip_prefix(magic)
        .and_then(<[u8]>::split_first_chunk)
        .ok_or(FramedError::BadHeader)?;
    let value = from_bytes(payload).map_err(FramedError::Format)?;
    Ok((u64::from_be_bytes(*generation), value))
}

/// Reads the generation of a file saved by [`save_framed`] with one,
/// from its 16-byte header alone.
///
/// # Errors
///
/// [`FramedError::BadHeader`] for a foreign or torn header,
/// [`FramedError::Io`] else.
pub fn read_generation(path: impl AsRef<Path>, magic: &[u8; 8]) -> Result<u64, FramedError> {
    let mut header = [0u8; 16];
    match std::fs::File::open(path)?.read_exact(&mut header) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FramedError::BadHeader),
        result => result?,
    }
    let (found, generation) = header.split_at(8);
    if found != magic {
        return Err(FramedError::BadHeader);
    }
    Ok(u64::from_be_bytes(generation.try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_bytes;

    const MAGIC: &[u8; 8] = b"TETEST\x01\x00";

    fn tmp(test: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!(
                "temspc_persist_framed_{test}_{}",
                std::process::id()
            ))
            .join("file.tpb")
    }

    #[test]
    fn layout_is_magic_generation_payload() {
        let value = (String::from("cohort_0"), vec![1.5f64, -2.0]);
        let path = tmp("layout");
        save_framed(&path, MAGIC, None, &value).unwrap();
        let plain = [MAGIC.as_slice(), &to_bytes(&value).unwrap()].concat();
        assert_eq!(std::fs::read(&path).unwrap(), plain);
        assert_eq!(
            load_framed::<(String, Vec<f64>)>(&path, MAGIC).unwrap(),
            value
        );

        save_framed(&path, MAGIC, Some(7), &value).unwrap();
        let generational = [
            MAGIC.as_slice(),
            &7u64.to_be_bytes(),
            &to_bytes(&value).unwrap(),
        ]
        .concat();
        assert_eq!(std::fs::read(&path).unwrap(), generational);
        assert_eq!(read_generation(&path, MAGIC).unwrap(), 7);
        assert_eq!(
            load_framed_generation::<(String, Vec<f64>)>(&path, MAGIC).unwrap(),
            (7, value)
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn foreign_torn_and_missing_files_error_cleanly() {
        let path = tmp("torn");
        save_framed(&path, MAGIC, Some(3), &42u64).unwrap();
        let valid = std::fs::read(&path).unwrap();
        for bytes in [&b""[..], &valid[..4], &valid[..12], b"WRONGMAGICANDMORE"] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                read_generation(&path, MAGIC),
                Err(FramedError::BadHeader)
            ));
            assert!(matches!(
                load_framed_generation::<u64>(&path, MAGIC),
                Err(FramedError::BadHeader)
            ));
        }
        std::fs::write(&path, &valid[..valid.len() - 1]).unwrap();
        assert!(matches!(
            load_framed_generation::<u64>(&path, MAGIC),
            Err(FramedError::Format(_))
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        assert!(matches!(
            read_generation(&path, MAGIC),
            Err(FramedError::Io(e)) if e.kind() == io::ErrorKind::NotFound
        ));
    }
}
