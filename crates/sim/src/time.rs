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

    /// From seconds (rounds to the nearest nanosecond, halves away from
    /// zero, exactly as `(s * 1e9).round() as u64`). Refuses NaN,
    /// negative seconds and any whose nanoseconds do not fit a `u64`
    /// (about 584 years), rather than saturating.
    ///
    /// The rounding is an integer step: truncate, then compare the
    /// fraction with ½. The fraction `x - trunc(x)` of an f64 is exact,
    /// and the inline float-to-integer conversions avoid the
    /// out-of-line `round` the baseline x86-64 target would call.
    pub fn from_secs(s: f64) -> Self {
        assert!(
            Self::fits_secs(s),
            "SimTime: seconds must be non-negative and fit u64 nanoseconds, got {s}"
        );
        let ns = s * 1e9;
        let whole = ns as u64;
        SimTime(whole + u64::from(ns - whole as f64 >= 0.5))
    }

    /// Whether [`SimTime::from_secs`] accepts `s`: not NaN, not negative,
    /// and rounding to fewer than 2⁶⁴ nanoseconds. No rounding is
    /// needed: the largest f64 below 2⁶⁴ is an integer, so
    /// `round(x) < 2⁶⁴` exactly when `x < 2⁶⁴`.
    pub fn fits_secs(s: f64) -> bool {
        s >= 0.0 && s * 1e9 < 18_446_744_073_709_551_616.0
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
    fn seconds_past_u64_nanoseconds_are_refused() {
        assert!(SimTime::fits_secs(0.0));
        assert!(SimTime::fits_secs(1.8e10));
        for s in [1.85e10, 1e30, f64::INFINITY, f64::NAN, -1e-9] {
            assert!(!SimTime::fits_secs(s), "{s}");
        }
    }

    /// The nanosecond value `from_secs` rounds by `f64::round`.
    fn reference(s: f64) -> u64 {
        (s * 1e9).round() as u64
    }

    /// Seconds whose product with 1e9 is exactly `ns`, searched within a
    /// few ulps of `ns / 1e9`.
    fn secs_for(ns: f64) -> f64 {
        let mut s = ns / 1e9;
        for _ in 0..4 {
            s = s.next_down();
        }
        for _ in 0..9 {
            if s * 1e9 == ns {
                return s;
            }
            s = s.next_up();
        }
        panic!("no seconds value gives exactly {ns} ns");
    }

    /// 2⁵² + ½ is not an f64 (the spacing there is 1), so its
    /// neighbours 2⁵² and 2⁵² + 1 stand in for it.
    #[test]
    fn from_secs_rounds_like_f64_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0;
        let below_two64 = 18_446_744_073_709_549_568.0; // 2⁶⁴ − 2048
        for ns in [
            0.0,
            0.5,
            0.499_999_999_999_999_94,
            1.5,
            2.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52,
            below_two64,
        ] {
            let s = secs_for(ns);
            assert_eq!(SimTime::from_secs(s).0, reference(s), "{ns} ns");
        }
        assert_eq!(SimTime::from_secs(-0.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(secs_for(0.5)).0, 1);
        assert_eq!(SimTime::from_secs(secs_for(0.499_999_999_999_999_94)).0, 0);
        assert_eq!(SimTime::from_secs(secs_for(two52 - 0.5)).0, 1 << 52);
        assert_eq!(SimTime::from_secs(secs_for(below_two64)).0, u64::MAX - 2047);
    }

    #[test]
    fn fits_secs_accepts_the_largest_f64_below_two64_ns_only() {
        assert!(SimTime::fits_secs(secs_for(18_446_744_073_709_549_568.0)));
        assert!(SimTime::fits_secs(-0.0));
        for s in [
            secs_for(18_446_744_073_709_551_616.0),
            f64::NAN,
            (-0.0f64).next_down(),
            -1.0,
        ] {
            assert!(!SimTime::fits_secs(s), "{s}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn from_secs_equals_f64_round_for_random_bit_patterns(bits in 0u64..u64::MAX) {
            let s = f64::from_bits(bits);
            let fits = s >= 0.0 && s * 1e9 < 18_446_744_073_709_551_616.0;
            proptest::prop_assert_eq!(SimTime::fits_secs(s), fits, "{}", s);
            if fits {
                proptest::prop_assert_eq!(SimTime::from_secs(s).0, reference(s), "{}", s);
            }
        }

        #[test]
        fn from_secs_equals_f64_round_below_two53_ns(ns in 0u64..1 << 53, frac in 0.0f64..1.0) {
            let s = (ns as f64 + frac) / 1e9;
            proptest::prop_assert_eq!(SimTime::from_secs(s).0, reference(s), "{}", s);
        }
    }

    #[test]
    #[should_panic(expected = "fit u64 nanoseconds")]
    fn from_secs_refuses_rather_than_saturates() {
        let _ = SimTime::from_secs(1e30);
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
