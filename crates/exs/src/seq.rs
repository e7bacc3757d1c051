//! Stream sequence numbers.
//!
//! A sequence number is the byte position of a transfer in the stream:
//! "the sequence number of transfer *x* is the number of data bytes sent
//! on the connection prior to the start of transfer *x*" (paper §II-B).
//! ADVERTs carry *estimated* sequence numbers for future receives; the
//! estimates are corrected as data actually arrives so that, whenever
//! both sides quiesce, the estimate equals the true position again.

/// A byte position in the stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Seq(pub u64);

impl Seq {
    /// Stream start.
    pub(crate) const ZERO: Seq = Seq(0);

    /// Advances by `n` bytes.
    #[inline]
    pub(crate) fn advance(&mut self, n: u64) {
        self.0 = self
            .0
            .checked_add(n)
            .expect("stream sequence number overflow");
    }

    /// Byte distance from `earlier` to `self`, or `None` when `earlier`
    /// is actually ahead. The non-panicking variant for validating
    /// sequence numbers that arrived off the wire (ADVERT/FIN/ACK
    /// control paths).
    #[inline]
    pub(crate) fn checked_distance_from(self, earlier: Seq) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance() {
        let mut s = Seq::ZERO;
        s.advance(10);
        assert_eq!(s, Seq(10));
    }

    #[test]
    fn checked_distance_is_total() {
        assert_eq!(Seq(30).checked_distance_from(Seq(12)), Some(18));
        assert_eq!(Seq(5).checked_distance_from(Seq(5)), Some(0));
        assert_eq!(Seq(1).checked_distance_from(Seq(2)), None);
    }

    #[test]
    fn ordering() {
        assert!(Seq(1) < Seq(2));
        assert_eq!(format!("{}", Seq(42)), "S42");
    }
}
