//! Exact rational arithmetic used by every analysis result.
//!
//! Throughput values, cycle ratios and repetition-vector intermediates are
//! ratios of (potentially large) integers. Floating point would silently
//! break equality-based state-space recurrence checks and the `≤ 1.1 × λ`
//! stopping rule of the slice allocator, so all analysis results in this
//! workspace are [`Rational`] numbers over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Greatest common divisor of two non-negative integers.
///
/// # Examples
///
/// ```
/// assert_eq!(sdfrs_sdf::rational::gcd(12, 18), 6);
/// assert_eq!(sdfrs_sdf::rational::gcd(0, 5), 5);
/// ```
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two positive integers.
///
/// # Panics
///
/// Panics on overflow of `u128` (far beyond any repetition vector arising
/// from realistic SDFGs).
///
/// # Examples
///
/// ```
/// assert_eq!(sdfrs_sdf::rational::lcm(4, 6), 12);
/// ```
pub fn lcm(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

/// An exact rational number `num / den` with `den > 0`, always normalized.
///
/// The representation is canonical: the fraction is fully reduced and the
/// sign lives on the numerator, so derived `PartialEq`/`Hash` agree with
/// mathematical equality.
///
/// # Examples
///
/// ```
/// use sdfrs_sdf::Rational;
/// let a = Rational::new(2, 4);
/// assert_eq!(a, Rational::new(1, 2));
/// assert_eq!(a + Rational::new(1, 2), Rational::from_integer(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den`, normalizing sign and common
    /// factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let n = num.unsigned_abs();
        let d = den.unsigned_abs();
        let g = gcd(n, d);
        Rational {
            num: sign * (n / g) as i128,
            den: (d / g) as i128,
        }
    }

    /// Creates a rational from an integer.
    pub fn from_integer(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// The normalized numerator (carries the sign).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The normalized denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Lossy conversion to `f64` (for reporting only, never for analysis).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Largest integer `≤ self`.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_integer(n)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_fractions(self.num, self.den, other.num, other.den)
    }
}

/// Orders `an/ad` against `bn/bd` for positive denominators, exactly.
///
/// Cross-multiplication preserves the order, and decides whenever both
/// products fit in `i128`. Otherwise the floors decide when they differ;
/// when they are equal, the remainders `ra/ad` and `rb/bd` in `[0, 1)`
/// decide, and two positive remainders compare as their reciprocals in
/// reverse: `ra/ad < rb/bd` exactly when `bd/rb < ad/ra`. Each step
/// shrinks the denominators as in Euclid's algorithm, so this ends.
fn cmp_fractions(mut an: i128, mut ad: i128, mut bn: i128, mut bd: i128) -> Ordering {
    loop {
        if let (Some(a), Some(b)) = (an.checked_mul(bd), bn.checked_mul(ad)) {
            return a.cmp(&b);
        }
        let (fa, fb) = (an.div_euclid(ad), bn.div_euclid(bd));
        if fa != fb {
            return fa.cmp(&fb);
        }
        let (ra, rb) = (an.rem_euclid(ad), bn.rem_euclid(bd));
        if ra == 0 || rb == 0 {
            return ra.cmp(&rb);
        }
        (an, ad, bn, bd) = (bd, rb, ad, ra);
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        Rational::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(54, 24), 6);
        assert_eq!(gcd(17, 5), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 3), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(7, 7), 7);
        assert_eq!(lcm(3, 5), 15);
    }

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(2, -4));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, -5), Rational::ZERO);
        assert_eq!(Rational::new(0, 5).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
        assert_eq!(
            Rational::new(1, 3).max(Rational::new(2, 5)),
            Rational::new(2, 5)
        );
        assert_eq!(
            Rational::new(1, 3).min(Rational::new(2, 5)),
            Rational::new(1, 3)
        );
    }

    #[test]
    fn ordering_at_extreme_magnitudes() {
        let max = i128::MAX;
        // 1 + 1/(max − 1) < 1 + 1/(max − 2): every cross product overflows.
        let a = Rational::new(max, max - 1);
        let b = Rational::new(max - 1, max - 2);
        assert!(a < b);
        assert!(b > a);
        assert!(-a > -b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Equal floors and remainders whose reciprocals overflow too.
        let c = Rational::new(max - 2, max - 4);
        assert!(b < c);
        assert_eq!(a.max(c), c);
        assert_eq!(b.min(a), a);
        // Different floors decide at once.
        let huge = Rational::new(max, 3);
        let big = Rational::new(max - 3, 3);
        assert!(big < huge);
        assert!(Rational::new(max, 7) > Rational::new(3, max));
        assert!(Rational::new(-max, 7) < Rational::new(-3, max));
        // Comparing with small values.
        assert!(a > Rational::ONE);
        assert!(Rational::new(1, max) > Rational::ZERO);
        assert!(Rational::new(1, max) < Rational::new(1, max - 1));
        assert!(Rational::new(-1, max) > Rational::new(-1, max - 1));
    }

    #[test]
    fn extreme_ordering_agrees_with_small_ordering() {
        // Scaling both sides by the same huge factor keeps their order.
        let scale = i128::MAX / 1_000;
        for (p, q) in [(1i128, 3i128), (2, 7), (5, 9), (4, 11)] {
            for (r, t) in [(1i128, 3i128), (3, 10), (5, 9), (6, 11)] {
                let small = Rational::new(p, q).cmp(&Rational::new(r, t));
                // p·s/(q·s + 1) vs r·s/(t·s + 1): within 1/s² of p/q and
                // r/t, so distinct small ratios keep their order.
                let big_a = Rational::new(p * scale, q * scale + 1);
                let big_b = Rational::new(r * scale, t * scale + 1);
                if small != Ordering::Equal {
                    assert_eq!(big_a.cmp(&big_b), small, "{p}/{q} vs {r}/{t}");
                }
            }
        }
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_integer(5).floor(), 5);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::from_integer(-3).to_string(), "-3");
    }

    #[test]
    fn sum_iterator() {
        let s: Rational = (1..=3).map(|n| Rational::new(1, n)).sum();
        assert_eq!(s, Rational::new(11, 6));
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }
}
