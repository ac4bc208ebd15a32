//! Exact rational arithmetic for the simplex core.
//!
//! Rationals are stored as reduced `i128` fractions with a positive
//! denominator. The linear programs arising from refinement-type
//! verification conditions are tiny, so `i128` precision is ample; all
//! operations use checked arithmetic and panic on overflow rather than
//! silently producing wrong answers, in release builds too.
//!
//! The encoder's coefficients and bounds are integers, so most values
//! have denominator 1: [`Rational::new`], `+` and `*` then skip the gcd,
//! and `cmp` compares numerators whenever the denominators are equal.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let abs = |x: i128| x.checked_abs().expect("rational overflow in gcd");
    let (mut a, mut b) = (abs(a), abs(b));
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        if den == 1 {
            return Rational { num, den };
        }
        // The divisor takes the denominator's sign, so `den` ends positive.
        let g = gcd(num, den) * den.signum();
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// Creates an integral rational.
    pub fn from_int(n: i64) -> Rational {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// True if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Largest integer less than or equal to this rational.
    pub fn floor(&self) -> i128 {
        // Euclidean division by a positive divisor rounds down and cannot
        // overflow.
        self.num.div_euclid(self.den)
    }

    /// Smallest integer greater than or equal to this rational.
    pub fn ceil(&self) -> i128 {
        // A non-integer's floor lies below a representable value.
        self.floor() + i128::from(!self.is_integer())
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the rational is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_add(rhs.num)
                .expect("rational overflow in add");
            return Rational { num, den: 1 };
        }
        Rational::new(
            self.num
                .checked_mul(rhs.den)
                .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
                .expect("rational overflow in add"),
            self.den
                .checked_mul(rhs.den)
                .expect("rational overflow in add"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_mul(rhs.num)
                .expect("rational overflow in mul");
            return Rational { num, den: 1 };
        }
        Rational::new(
            self.num
                .checked_mul(rhs.num)
                .expect("rational overflow in mul"),
            self.den
                .checked_mul(rhs.den)
                .expect("rational overflow in mul"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: self.num.checked_neg().expect("rational overflow in neg"),
            den: self.den,
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
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational overflow in cmp");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational overflow in cmp");
        lhs.cmp(&rhs)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_reduces_fractions() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
    }

    #[test]
    fn ordering_is_consistent() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::from_int(2) > Rational::new(3, 2));
    }

    #[test]
    fn floor_and_ceil_handle_negatives() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn integer_fast_paths_agree_with_the_general_path() {
        assert_eq!(
            Rational::new(6, 3) + Rational::from_int(1),
            Rational::from_int(3)
        );
        let values = [
            (-3, 1),
            (0, 1),
            (2, 1),
            (7, 1),
            (1, 2),
            (-5, 3),
            (4, -6),
            (6, 3),
        ];
        for (p, q) in values {
            for (r, s) in values {
                let (a, b) = (Rational::new(p, q), Rational::new(r, s));
                // Doubling the denominator keeps the value and takes the
                // general path, whatever the operands' denominators.
                assert_eq!(a + b, Rational::new(2 * (p * s + r * q), 2 * q * s));
                assert_eq!(a - b, Rational::new(2 * (p * s - r * q), 2 * q * s));
                assert_eq!(a * b, Rational::new(2 * p * r, 2 * q * s));
                assert_eq!(a.cmp(&b), (a.num * b.den).cmp(&(b.num * a.den)));
                assert_eq!(-a, Rational::new(-2 * p, 2 * q));
            }
        }
        assert!(Rational::from_int(-2) < Rational::from_int(1));
        assert!(Rational::new(-1, 3) > Rational::new(-2, 3));
        assert_eq!(
            Rational::new(4, 2).cmp(&Rational::from_int(2)),
            Ordering::Equal
        );
    }

    #[test]
    #[should_panic(expected = "rational overflow in neg")]
    fn negating_i128_min_panics_in_every_profile() {
        let _ = -Rational::new(i128::MIN, 1);
    }

    #[test]
    fn floor_and_ceil_do_not_overflow_at_the_extremes() {
        assert_eq!(Rational::new(i128::MIN, 1).floor(), i128::MIN);
        assert_eq!(Rational::new(i128::MIN, 1).ceil(), i128::MIN);
        assert_eq!(Rational::new(i128::MAX, 1).ceil(), i128::MAX);
        assert_eq!(Rational::new(i128::MAX, 2).ceil(), i128::MAX / 2 + 1);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }
}
