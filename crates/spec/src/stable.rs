//! Toolchain-stable identities: a canonical field-by-field byte encoding
//! and the 64-bit FNV-1a digest of it.
//!
//! The algorithm of `std`'s default hasher is unspecified across Rust
//! releases, and derived `Debug` text is not a stable format either, so
//! neither may feed an identity that is persisted (checkpoint
//! fingerprints) or compared exactly (staged-DSE twin classes). A
//! [`StableBytes`] encoding writes each field explicitly: integers
//! little-endian at fixed width, floats as their IEEE-754 bit patterns,
//! strings and lists length-prefixed, and enum variants as a leading tag.
//! Every piece is self-delimiting, so equal encodings mean equal fields,
//! and [`fnv1a64`] digests the bytes identically on every platform and
//! toolchain.
//!
//! ```
//! use cimloop_spec::stable::{fnv1a64, StableBytes};
//!
//! let mut a = StableBytes::new();
//! a.str("ab").str("c");
//! let mut b = StableBytes::new();
//! b.str("a").str("bc");
//! assert_ne!(a, b, "length prefixes keep fields apart");
//! assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
//! ```

/// 64-bit FNV-1a of `data`: fixed by its published constants, so the
/// value never changes across platforms or Rust versions.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A canonical byte encoding under construction (see the module docs for
/// the rules). Writers return `&mut Self` so fields chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StableBytes {
    bytes: Vec<u8>,
}

impl StableBytes {
    /// An empty encoding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes an enum-variant tag (or any single byte).
    pub fn tag(&mut self, tag: u8) -> &mut Self {
        self.bytes.push(tag);
        self
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.tag(u8::from(v))
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` length or element count as a `u64`.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (so `-0.0` and `0.0`
    /// differ, as their `Debug` text does).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes an optional `f64`: a presence tag, then the value.
    pub fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.tag(1).f64(v),
            None => self.tag(0),
        }
    }

    /// Writes a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes_field(s.as_bytes())
    }

    /// Writes a nested encoding (or any byte string), length-prefixed.
    pub fn bytes_field(&mut self, data: &[u8]) -> &mut Self {
        self.count(data.len());
        self.bytes.extend_from_slice(data);
        self
    }

    /// The finished encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// [`fnv1a64`] of the encoding so far.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fields_are_self_delimiting() {
        let mut a = StableBytes::new();
        a.opt_f64(None).u32(7);
        let mut b = StableBytes::new();
        b.opt_f64(Some(0.0)).u32(7);
        assert_ne!(a, b);
        let mut zero = StableBytes::new();
        zero.f64(0.0);
        let mut negative_zero = StableBytes::new();
        negative_zero.f64(-0.0);
        assert_ne!(zero, negative_zero);
        let mut fields = StableBytes::new();
        fields.bytes_field(b"xy").bool(true).i64(-1);
        let fingerprint = fields.fingerprint();
        let bytes = fields.into_bytes();
        assert_eq!(bytes.len(), 8 + 2 + 1 + 8);
        assert_eq!(fingerprint, fnv1a64(&bytes));
    }
}
