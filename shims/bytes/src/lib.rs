//! Minimal offline stand-in for the `bytes` crate.
//!
//! This build environment has no registry access, so the workspace
//! vendors the tiny subset of `bytes` it actually uses: [`Bytes`], an
//! immutable, cheaply-cloneable byte container. Cloning shares the
//! underlying allocation via `Arc`, so a captured payload moves between
//! queues without another copy.
//!
//! Which constructors copy, unlike the real crate's: **every one that
//! takes bytes does, once** — [`Bytes::copy_from_slice`], `From<&[u8]>`,
//! [`Bytes::from_static`] and also `From<Vec<u8>>` (an `Arc<[u8]>` keeps
//! its reference counts in front of the data, so the `Vec`'s buffer
//! cannot be adopted). Callers holding a slice should therefore pass the
//! slice, not `to_vec()` it first. [`Bytes::new`], `default()` and
//! `clone()` neither copy nor allocate, and `From<Arc<[u8]>>` adopts a
//! buffer a caller filled in place (a shim-only constructor: the real
//! crate's zero-copy one is `From<Vec<u8>>`).

#![warn(missing_docs)]

use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer, so it costs no allocation.
    data: Option<Arc<[u8]>>,
}

impl Bytes {
    /// An empty buffer. Allocates nothing.
    pub const fn new() -> Self {
        Bytes { data: None }
    }

    /// Wraps a static slice. The shim copies it once (the real crate
    /// points at the static data; the observable behaviour is the same).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer: one allocation, one copy.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: (!data.is_empty()).then(|| Arc::from(data)),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_none()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.data.as_deref().unwrap_or(&[])
    }
}

/// Copies the vector's bytes into a new buffer (see the module doc).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::copy_from_slice(&v)
    }
}

/// Adopts the buffer: no copy.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        Bytes {
            data: (!data.is_empty()).then_some(data),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"xy")[..], b"xy");
    }

    #[test]
    fn empty_buffers_hold_no_allocation_and_compare_equal() {
        for empty in [
            Bytes::new(),
            Bytes::default(),
            Bytes::copy_from_slice(&[]),
            Bytes::from(Vec::new()),
        ] {
            assert!(empty.data.is_none());
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert_eq!(&empty[..], &[] as &[u8]);
            assert_eq!(empty, Bytes::new());
        }
        assert_ne!(Bytes::new(), Bytes::from_static(b"x"));
    }
}
