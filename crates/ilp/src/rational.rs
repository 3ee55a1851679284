//! Exact rational arithmetic over `i128`.
//!
//! IPET coefficients are small integers (cycle counts, loop bounds), but
//! simplex pivoting produces intermediate fractions. `i128` with aggressive
//! GCD normalisation gives ample headroom for the problem sizes the WCET
//! analysis generates; arithmetic is checked and panics loudly on overflow
//! rather than silently wrapping (an overflowed WCET bound would be
//! unsound).
//!
//! The values stay far narrower than their fields: a wcet-fleet pass
//! takes ~8.6M gcds, and none has an operand wider than 28 bits. So the
//! gcd and the divisions by it run at the operands' width. A gcd whose
//! operands both fit in 64 bits is a binary (Stein) gcd on `u64`, a
//! division whose operands both fit is an `i64` division, and a division
//! by a gcd of 1 (two in three) is skipped. Only wider operands take the
//! `i128` Euclid loop and `i128` division, which compile to software
//! routines. A gcd is unique and an exact quotient is the same at any
//! width, so every path stores the same canonical `num / den`, and every
//! result, overflow panics included, is the one the `i128` path alone
//! gives.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

const OVERFLOW_MSG: &str = "rt-ilp: rational arithmetic overflow (i128)";

/// `gcd(|a|, |b|)`, on `u64` when both magnitudes fit in 64 bits.
fn gcd(a: i128, b: i128) -> i128 {
    match (
        u64::try_from(a.unsigned_abs()),
        u64::try_from(b.unsigned_abs()),
    ) {
        (Ok(a), Ok(b)) => i128::from(binary_gcd(a, b)),
        _ => euclid_gcd(a, b),
    }
}

/// Stein's gcd: shifts and subtractions, no division.
fn binary_gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The `i128` Euclid gcd, for operands wider than 64 bits.
fn euclid_gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

/// `x / g` for a divisor `g` of `x`: nothing to do when `g == 1`, an
/// `i64` division when both fit in 64 bits, else an `i128` one.
fn div_exact(x: i128, g: i128) -> i128 {
    if g == 1 {
        return x;
    }
    match (i64::try_from(x), i64::try_from(g)) {
        (Ok(x), Ok(g)) => i128::from(x / g),
        _ => x / g,
    }
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den`, normalising sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rt-ilp: rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = (div_exact(num, g), div_exact(den, g));
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Creates the integer rational `n / 1`.
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator (sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this rational is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Converts to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer or does not fit in `i64`.
    pub fn to_i64(self) -> i64 {
        assert!(self.is_integer(), "rt-ilp: {self} is not an integer");
        i64::try_from(self.num).expect("rt-ilp: rational exceeds i64 range")
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "rt-ilp: reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn checked_add(self, rhs: Rat) -> Option<Rat> {
        // Integer fast path: den 1 + den 1 needs no gcd work, and IPET
        // tableaus are mostly integral, so this is the common case.
        if self.den == 1 && rhs.den == 1 {
            return Some(Rat {
                num: self.num.checked_add(rhs.num)?,
                den: 1,
            });
        }
        // Cross-multiply with pre-division by gcd of denominators to keep
        // magnitudes small.
        let g = gcd(self.den, rhs.den);
        let (da, db) = (div_exact(self.den, g), div_exact(rhs.den, g));
        let lhs = self.num.checked_mul(db)?;
        let rhs_n = rhs.num.checked_mul(da)?;
        let num = lhs.checked_add(rhs_n)?;
        let den = self.den.checked_mul(db)?;
        Some(Rat::new(num, den))
    }

    fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        // Integer fast path (see `checked_add`).
        if self.den == 1 && rhs.den == 1 {
            return Some(Rat {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        // Cross-cancel before multiplying: num/den of the product are then
        // already coprime, so `Rat::new`'s gcd pass runs on small values.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = div_exact(self.num, g1).checked_mul(div_exact(rhs.num, g2))?;
        let den = div_exact(self.den, g2).checked_mul(div_exact(rhs.den, g1))?;
        Some(Rat::new(num, den))
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).expect(OVERFLOW_MSG)
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs).expect(OVERFLOW_MSG)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // a / b == a * (1/b) by definition
impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Integer fast path: no cross-multiplication (and no overflow risk)
        // when both denominators are 1.
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        // num_a/den_a ? num_b/den_b  <=>  num_a*den_b ? num_b*den_a
        // (denominators are positive).
        let lhs = self.num.checked_mul(other.den).expect(OVERFLOW_MSG);
        let rhs = other.num.checked_mul(self.den).expect(OVERFLOW_MSG);
        lhs.cmp(&rhs)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rat {
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
    fn normalisation() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert_eq!(Rat::new(1, -2).denom(), 2);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(5) > Rat::new(9, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(-3, 6).to_string(), "-1/2");
    }

    // --- integer fast-path coverage -------------------------------------
    //
    // The den == 1 fast paths in add/mul/cmp skip gcd normalisation; these
    // tests pin that they agree with the general (cross-multiplying) path
    // and that overflow still panics loudly instead of wrapping.

    #[test]
    fn integer_fast_paths_agree_with_general_path() {
        // `Rat::new` normalises, so an integer-valued rational is always
        // stored with den == 1 and the only way to exercise the general
        // (cross-multiplying) code on the same *mathematical* inputs is to
        // detour through genuinely fractional intermediates.
        let ints = [
            -1_000_000_000_000_000_007i128,
            -1_000_000_007,
            -17,
            -1,
            0,
            1,
            2,
            3,
            1_000_000_007,
            1_000_000_000_000_000_007,
        ];
        for &a in &ints {
            for &b in &ints {
                // add: (a + 1/2) + (b - 1/2) runs the general path twice
                // and must land exactly on the fast path's a + b.
                let fast = Rat::int(a) + Rat::int(b);
                let slow = (Rat::int(a) + Rat::new(1, 2)) + (Rat::int(b) + Rat::new(-1, 2));
                assert_eq!(fast, slow, "add {a} {b}");
                // mul: (a/3) * 3b cross-cancels through the general path.
                let fast = Rat::int(a) * Rat::int(b);
                let slow = Rat::new(a, 3) * Rat::int(3 * b);
                assert_eq!(fast, slow, "mul {a} {b}");
                // cmp: order is preserved under the shift x -> x + 1/3,
                // which forces den == 3 operands into the general compare.
                assert_eq!(
                    Rat::int(a).cmp(&Rat::int(b)),
                    (Rat::int(a) + Rat::new(1, 3)).cmp(&(Rat::int(b) + Rat::new(1, 3))),
                    "cmp {a} {b}"
                );
            }
        }
    }

    #[test]
    fn integer_fast_path_boundaries() {
        // i128::MIN itself is unrepresentable headroom-wise (|MIN| has no
        // positive counterpart for gcd/abs); MIN+1 must round-trip.
        let lo = Rat::int(i128::MIN + 1);
        assert_eq!(lo + Rat::ZERO, lo);
        assert_eq!(lo * Rat::ONE, lo);
        assert!(lo < Rat::int(i128::MIN + 2));
        let hi = Rat::int(i128::MAX);
        assert_eq!(hi + Rat::ZERO, hi);
        assert!(hi > Rat::int(i128::MAX - 1));
        // Sum landing exactly on the boundary is fine...
        assert_eq!(Rat::int(i128::MAX - 1) + Rat::ONE, Rat::int(i128::MAX),);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn integer_add_overflow_panics() {
        let _ = Rat::int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn integer_mul_overflow_panics() {
        let _ = Rat::int(i128::MAX / 2 + 1) * Rat::int(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fractional_add_overflow_panics() {
        // General path: denominators force cross-multiplication overflow.
        let _ = Rat::new(i128::MAX, 2) + Rat::new(i128::MAX, 3);
    }

    // --- both widths -----------------------------------------------------
    //
    // IPET values never leave 64 bits, so the solver's own tests never
    // reach the `i128` gcd and divisions. These operands sit at, across
    // and far beyond the 64-bit boundary, and every operation must give
    // what the `i128` Euclid algorithm alone gives: the same canonical
    // value, or the same overflow panic.

    use proptest::prelude::*;
    use std::panic::{catch_unwind, UnwindSafe};

    /// A rational as its `(num, den)` fields.
    type Pair = (i128, i128);

    /// Euclid's gcd in `i128`, the reference the width split must match.
    fn ref_gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.abs()
    }

    fn ref_new((num, den): Pair) -> Pair {
        let g = ref_gcd(num, den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            (-num, -den)
        } else {
            (num, den)
        }
    }

    /// Addition as the `i128` path computes it; `None` on overflow.
    fn ref_add(a: Pair, b: Pair) -> Option<Pair> {
        if a.1 == 1 && b.1 == 1 {
            return Some((a.0.checked_add(b.0)?, 1));
        }
        let g = ref_gcd(a.1, b.1);
        let (da, db) = (a.1 / g, b.1 / g);
        let num = a.0.checked_mul(db)?.checked_add(b.0.checked_mul(da)?)?;
        Some(ref_new((num, a.1.checked_mul(db)?)))
    }

    /// Multiplication as the `i128` path computes it; `None` on overflow.
    fn ref_mul(a: Pair, b: Pair) -> Option<Pair> {
        if a.1 == 1 && b.1 == 1 {
            return Some((a.0.checked_mul(b.0)?, 1));
        }
        let (g1, g2) = (ref_gcd(a.0, b.1), ref_gcd(b.0, a.1));
        let num = (a.0 / g1).checked_mul(b.0 / g2)?;
        let den = (a.1 / g2).checked_mul(b.1 / g1)?;
        Some(ref_new((num, den)))
    }

    fn ref_cmp(a: Pair, b: Pair) -> Option<Ordering> {
        if a.1 == 1 && b.1 == 1 {
            return Some(a.0.cmp(&b.0));
        }
        Some(a.0.checked_mul(b.1)?.cmp(&b.0.checked_mul(a.1)?))
    }

    /// Runs `f`, returning its value or its panic message.
    fn outcome<T>(f: impl FnOnce() -> T + UnwindSafe) -> Result<T, String> {
        catch_unwind(f).map_err(|e| match e.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => e.downcast_ref::<String>().cloned().unwrap_or_default(),
        })
    }

    /// `got` must be the reference value `want`, in canonical form, or,
    /// where the reference overflows, the overflow panic.
    fn expect_value(
        op: &str,
        got: Result<Rat, String>,
        want: Option<Pair>,
    ) -> Result<(), TestCaseError> {
        let got = got.map(|r| (r.numer(), r.denom()));
        match want {
            Some(w) => {
                prop_assert_eq!(got, Ok(w), "{}", op);
                prop_assert!(
                    w.1 > 0 && ref_gcd(w.0, w.1) == 1,
                    "{op}: {w:?} not canonical"
                );
            }
            None => prop_assert_eq!(got, Err(OVERFLOW_MSG.to_string()), "{}", op),
        }
        Ok(())
    }

    /// Integers small, near ±2^63 (the `i64` edge), near ±2^64 (the `u64`
    /// edge) and up to ±2^100.
    fn wide_int() -> impl Strategy<Value = i128> {
        let signed = |m: i128, neg: bool| if neg { -m } else { m };
        prop_oneof![
            (-1000i64..=1000).prop_map(i128::from),
            (-4i64..=4, any::<bool>())
                .prop_map(move |(d, neg)| signed((1i128 << 63) + i128::from(d), neg)),
            (-4i64..=4, any::<bool>())
                .prop_map(move |(d, neg)| signed((1i128 << 64) + i128::from(d), neg)),
            (0u64..1 << 36, any::<u64>(), any::<bool>())
                .prop_map(move |(hi, lo, neg)| signed(i128::from(hi) << 64 | i128::from(lo), neg)),
        ]
    }

    /// A `(num, den)` pair, both scaled by a common factor where that
    /// fits, so normalisation has real common factors to cancel.
    fn wide_pair() -> impl Strategy<Value = Pair> {
        let factor = prop_oneof![
            Just(1i128),
            (2i64..=60).prop_map(i128::from),
            (1u32..=40).prop_map(|k| 1i128 << k)
        ];
        (wide_int(), wide_int(), factor).prop_map(|(num, den, f)| {
            let den = if den == 0 { 1 } else { den };
            match (num.checked_mul(f), den.checked_mul(f)) {
                (Some(n), Some(d)) => (n, d),
                _ => (num, den),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every operation over operands of both widths equals the `i128`
        /// Euclid reference, value and overflow alike.
        #[test]
        fn both_widths_match_the_euclid_reference(a in wide_pair(), b in wide_pair()) {
            let (ra, rb) = (Rat::new(a.0, a.1), Rat::new(b.0, b.1));
            let (pa, pb) = (ref_new(a), ref_new(b));
            expect_value("new a", Ok(ra), Some(pa))?;
            expect_value("new b", Ok(rb), Some(pb))?;
            expect_value("add", outcome(|| ra + rb), ref_add(pa, pb))?;
            expect_value("sub", outcome(|| ra - rb), ref_add(pa, (-pb.0, pb.1)))?;
            expect_value("mul", outcome(|| ra * rb), ref_mul(pa, pb))?;
            if pb.0 != 0 {
                expect_value("div", outcome(|| ra / rb), ref_mul(pa, ref_new((pb.1, pb.0))))?;
            }
            let cmp = outcome(|| ra.cmp(&rb));
            match ref_cmp(pa, pb) {
                Some(o) => prop_assert_eq!(cmp, Ok(o)),
                None => prop_assert_eq!(cmp, Err(OVERFLOW_MSG.to_string())),
            }
        }
    }
}
