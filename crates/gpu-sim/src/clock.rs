//! Virtual time for the simulation.
//!
//! All performance results in this repository are expressed in *virtual*
//! nanoseconds computed by analytic cost models, never wall-clock time. This
//! keeps every experiment deterministic and machine-independent.
//!
//! [`SimTime`] is a point on (or a span of) the virtual timeline with
//! picosecond resolution; picoseconds are needed because individual
//! operations can be priced from bandwidths like 212 GB/s where a 4-byte
//! element costs ~19 ps. [`SimClock`] is the per-agent (per MPI rank, per
//! CPU thread) monotonic clock that operations advance.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration or instant on the virtual timeline, in picoseconds.
///
/// `SimTime` is used both as a point in time (e.g. "the stream is busy until
/// t") and as a span (e.g. "this memcpy takes 11 µs"); the arithmetic is the
/// same for both and the context makes the meaning clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    ps: u64,
}

impl SimTime {
    /// The zero time / empty duration.
    pub const ZERO: SimTime = SimTime { ps: 0 };

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime { ps }
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime { ps: ns * 1_000 }
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime { ps: us * 1_000_000 }
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime {
            ps: ms * 1_000_000_000,
        }
    }

    /// Construct from a floating-point nanosecond quantity (rounded to the
    /// nearest picosecond, saturating at zero for negative inputs).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        let ps = (ns * 1e3).round();
        SimTime {
            ps: if ps <= 0.0 { 0 } else { ps as u64 },
        }
    }

    /// Construct from a floating-point microsecond quantity.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Self::from_ns_f64(us * 1e3)
    }

    /// Construct from a floating-point second quantity.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Self::from_ns_f64(s * 1e9)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.ps
    }

    /// As floating-point nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.ps as f64 / 1e3
    }

    /// As floating-point microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.ps as f64 / 1e6
    }

    /// As floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.ps as f64 / 1e12
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.ps >= other.ps {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.ps <= other.ps {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction (`self - other`, clamped at zero).
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime {
            ps: self.ps.saturating_sub(other.ps),
        }
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.ps == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            ps: self
                .ps
                .checked_add(rhs.ps)
                .expect("SimTime overflow: virtual timeline exceeded ~213 days"),
        }
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            ps: self
                .ps
                .checked_sub(rhs.ps)
                .expect("SimTime underflow: subtracted a later instant from an earlier one"),
        }
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime {
            ps: self.ps.checked_mul(rhs).expect("SimTime overflow in mul"),
        }
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime { ps: self.ps / rhs }
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns_f64();
        if ns < 1e3 {
            write!(f, "{ns:.1} ns")
        } else if ns < 1e6 {
            write!(f, "{:.2} us", ns / 1e3)
        } else if ns < 1e9 {
            write!(f, "{:.3} ms", ns / 1e6)
        } else {
            write!(f, "{:.4} s", ns / 1e9)
        }
    }
}

/// A monotonic per-agent virtual clock.
///
/// Each MPI rank (and each standalone benchmark context) owns exactly one
/// `SimClock`. Synchronous work advances it with [`SimClock::advance`];
/// completion of asynchronous work is folded in with
/// [`SimClock::advance_to`], which never moves the clock backwards
/// (Lamport-style).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        SimClock { now: SimTime::ZERO }
    }

    /// The current virtual instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by a duration (synchronous work on this agent).
    #[inline]
    pub fn advance(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// Move the clock forward to `t` if `t` is in the future; otherwise do
    /// nothing. Returns the amount of time the clock actually moved.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        if t > self.now {
            let waited = t - self.now;
            self.now = t;
            waited
        } else {
            SimTime::ZERO
        }
    }

    /// Reset to time zero (used between independent benchmark repetitions).
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
    }
}

/// A simple stopwatch over a [`SimClock`], for timing phases in examples and
/// benchmark harnesses.
#[derive(Debug, Clone, Copy)]
pub struct SimStopwatch {
    start: SimTime,
}

impl SimStopwatch {
    /// Start timing at the clock's current instant.
    pub fn start(clock: &SimClock) -> Self {
        SimStopwatch { start: clock.now() }
    }

    /// Elapsed virtual time since `start`.
    pub fn elapsed(&self, clock: &SimClock) -> SimTime {
        clock.now() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_ns_f64(2.5), SimTime::from_ps(2_500));
        assert_eq!(SimTime::from_us_f64(11.0), SimTime::from_us(11));
        assert_eq!(SimTime::from_secs_f64(1e-9), SimTime::from_ns(1));
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimTime::from_ns_f64(-5.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(b * 3, SimTime::from_us(12));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        c.advance(SimTime::from_us(5));
        assert_eq!(c.now(), SimTime::from_us(5));
        // advance_to in the past is a no-op
        assert_eq!(c.advance_to(SimTime::from_us(3)), SimTime::ZERO);
        assert_eq!(c.now(), SimTime::from_us(5));
        // advance_to in the future waits
        assert_eq!(c.advance_to(SimTime::from_us(9)), SimTime::from_us(4));
        assert_eq!(c.now(), SimTime::from_us(9));
    }

    #[test]
    fn stopwatch_measures_elapsed() {
        let mut c = SimClock::new();
        c.advance(SimTime::from_us(2));
        let sw = SimStopwatch::start(&c);
        c.advance(SimTime::from_us(7));
        assert_eq!(sw.elapsed(&c), SimTime::from_us(7));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_ns(500)), "500.0 ns");
        assert_eq!(format!("{}", SimTime::from_us(11)), "11.00 us");
        assert_eq!(format!("{}", SimTime::from_ms(3)), "3.000 ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.0)), "2.0000 s");
    }
}
