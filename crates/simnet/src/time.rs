//! Virtual time for the discrete-event engine.
//!
//! Time is measured in integer nanoseconds since the start of the
//! simulation. An `u64` nanosecond clock covers ~584 years of simulated
//! time, far beyond any experiment in this repository, so arithmetic is
//! allowed to panic on overflow in debug builds and wrap in release (it
//! never triggers in practice; the blast runs simulate seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since time zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far"
    /// sentinel by schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since time zero as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// The span since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `max(self, other)`.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a span from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer factor.
    #[inline]
    pub fn mul_u64(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// The time to serialize `bytes` onto a link of `bits_per_sec`,
    /// rounded up to the next nanosecond so zero-cost transmission is
    /// impossible for a non-empty payload.
    #[inline]
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        if bytes == 0 || bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let bits = (bytes as u128) * 8 * 1_000_000_000;
        let ns = bits.div_ceil(bits_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.duration_since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Human-friendly rendering of a nanosecond count, used by both time types.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(7).as_nanos(), 7_000_000);
        assert_eq!(SimDuration::from_secs(7).as_nanos(), 7_000_000_000);
    }

    #[test]
    fn add_sub_time() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(25);
        assert_eq!((t + d).as_nanos(), 125);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).duration_since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_on_negative() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_nanos(5);
        assert_eq!(
            t.saturating_duration_since(SimTime::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn transmission_delay_rounds_up() {
        // 1000 bytes at 1 Gbit/s = 8000 ns exactly.
        assert_eq!(
            SimDuration::transmission(1000, 1_000_000_000).as_nanos(),
            8_000
        );
        // 1 byte at 54.3 Gbit/s = 8 / 54.3 ns, rounds up to 1 ns.
        assert_eq!(SimDuration::transmission(1, 54_300_000_000).as_nanos(), 1);
        // Zero payload costs nothing.
        assert!(SimDuration::transmission(0, 1_000_000_000).is_zero());
    }

    #[test]
    fn transmission_zero_bandwidth_is_zero() {
        // Degenerate configuration treated as "infinitely fast".
        assert!(SimDuration::transmission(100, 0).is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "t+12ns");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(
            SimTime::from_nanos(1).max(SimTime::from_nanos(2)),
            SimTime::from_nanos(2)
        );
    }
}
