//! Integer-nanosecond virtual time.
//!
//! The event clock uses `u64` nanoseconds so event ordering never suffers
//! float drift; conversion helpers go to/from the `f64` seconds and
//! milliseconds the analytic layers speak.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From integer nanoseconds (exact).
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// As integer nanoseconds (exact) — what the calendar queue's bucket
    /// arithmetic runs on.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// From seconds (rounds to the nearest nanosecond).
    pub fn from_secs(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "SimTime: seconds must be non-negative, got {s}"
        );
        SimTime((s * 1e9).round() as u64)
    }

    /// From milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// As seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Duration needed to serialize `bytes` on a link of `rate_bps`.
    pub fn serialization(bytes: f64, rate_bps: f64) -> SimTime {
        assert!(rate_bps > 0.0, "serialization: rate must be positive");
        Self::from_secs(bytes * 8.0 / rate_bps)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        // lint:allow(unwrap): a negative SimTime is unrepresentable; panicking beats wrapping to ~58 000 years
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_millis(47.0);
        assert_eq!(t.0, 47_000_000);
        assert!((t.as_millis() - 47.0).abs() < 1e-12);
        assert!((t.as_secs() - 0.047).abs() < 1e-15);
        assert_eq!(SimTime::from_nanos(250).as_nanos(), 250);
        assert_eq!(SimTime::from_nanos(47_000_000), t);
    }

    #[test]
    fn serialization_time() {
        // 125 B at 5 Mbps = 200 µs.
        let t = SimTime::serialization(125.0, 5_000_000.0);
        assert_eq!(t.0, 200_000);
        // 80 B at 128 kbps = 5 ms.
        let t2 = SimTime::serialization(80.0, 128_000.0);
        assert_eq!(t2.0, 5_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10.0);
        let b = SimTime::from_millis(4.0);
        assert_eq!((a + b).as_millis(), 14.0);
        assert_eq!((a - b).as_millis(), 6.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1.0) - SimTime::from_millis(2.0);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime(1);
        let b = SimTime(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
