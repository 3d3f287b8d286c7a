//! The exactness fast path: a small-rational scalar that promotes to
//! [`Rational`] only on overflow.
//!
//! Simplex pivot arithmetic over the Shannon-cone programs is dominated by
//! coefficients that are tiny (almost all ±1 or small fractions), yet the
//! dense solver pays full `BigInt` allocation cost for every one of them.
//! [`Scalar`] keeps a value as a canonical `i64 / i64` fraction for as long as
//! it fits, and switches to the exact arbitrary-precision [`Rational`]
//! representation the moment a result no longer fits.  Results are demoted
//! back to the small form whenever possible, so a temporary excursion
//! through big arithmetic does not poison subsequent operations.
//!
//! Each operation takes the cheapest route its operands allow, all inside
//! the one function:
//!
//! * **integers** (every operand has denominator 1, the bulk of the cone
//!   programs' FTRAN/BTRAN traffic): checked `i64` arithmetic, no
//!   normalization at all;
//! * **fractions**: the exact `i128` numerator and denominator, reduced by a
//!   binary gcd and divided in `u64` when both magnitudes fit there, and in
//!   `u128` only when one does not;
//! * **overflow**: the `Rational` fall-through.
//!
//! Every route yields the canonical form below, so which one ran never
//! shows in a value.
//!
//! The representation invariant (checked in debug builds) is:
//!
//! * `Small(num, den)` has `den > 0` and `gcd(|num|, den) = 1`;
//! * `Big(r)` is only used for values whose canonical numerator or
//!   denominator does not fit in an `i64`.
//!
//! Together these make the representation *unique*, so derived structural
//! equality and hashing coincide with numeric equality, exactly as for
//! [`Rational`] itself.

use bqc_arith::{BigInt, Rational};
use bqc_obs::LazyCounter;
use std::cmp::Ordering;
use std::fmt;

/// Small→Big transitions: an operation on small operands whose result no
/// longer fits the `i64` pair.  Lives on the overflow path only, so the
/// all-small fast path pays nothing.
static PROMOTIONS: LazyCounter = LazyCounter::new("bqc_lp_scalar_promotions_total");
/// Big→Small transitions: an operation with a big operand whose result fits
/// the `i64` pair again (a temporary excursion that healed).
static DEMOTIONS: LazyCounter = LazyCounter::new("bqc_lp_scalar_demotions_total");

/// An exact rational scalar with an `i64`-pair fast path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// `num / den` with `den > 0`, `gcd(|num|, den) = 1`, both in `i64`.
    Small(i64, i64),
    /// Arbitrary-precision fallback; never holds an `i64`-representable value.
    Big(Rational),
}

impl Scalar {
    /// The scalar zero.
    pub const ZERO: Scalar = Scalar::Small(0, 1);
    /// The scalar one.
    pub const ONE: Scalar = Scalar::Small(1, 1);

    /// Builds a scalar from an integer.
    pub fn from_int(v: i64) -> Scalar {
        Scalar::Small(v, 1)
    }

    /// Builds a scalar from a (possibly non-canonical) `i128` fraction,
    /// reducing and promoting as needed.
    ///
    /// An integer (`den == 1`) that fits is returned as is, with no gcd.
    /// Otherwise the magnitudes are reduced by a binary gcd in `u64` when
    /// both fit there, and in `u128` only when one does not.
    fn from_i128_frac(num: i128, den: i128) -> Scalar {
        debug_assert!(den != 0, "scalar with zero denominator");
        if den == 1 {
            if let Ok(n) = i64::try_from(num) {
                return Scalar::Small(n, 1);
            }
        }
        if num == 0 {
            return Scalar::ZERO;
        }
        let negative = (num < 0) != (den < 0);
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let (n, d) = match (u64::try_from(n), u64::try_from(d)) {
            (Ok(n), Ok(d)) => {
                let g = gcd_u64(n, d);
                (u128::from(n / g), u128::from(d / g))
            }
            _ => {
                let g = gcd_u128(n, d);
                (n / g, d / g)
            }
        };
        // `|i64::MIN| = 2^63` is a valid numerator magnitude when negative.
        let num_limit = i64::MAX as u128 + u128::from(negative);
        if n <= num_limit && d <= i64::MAX as u128 {
            let n = n as i64;
            return Scalar::Small(if negative { n.wrapping_neg() } else { n }, d as i64);
        }
        PROMOTIONS.inc();
        let n = BigInt::from(n);
        Scalar::Big(Rational::new(
            if negative { -n } else { n },
            BigInt::from(d),
        ))
    }

    /// Rational fall-through shared by the binary operations; counts the
    /// promotion (small operands overflowed `i128`) or demotion (a big
    /// excursion whose result fits `i64` again) the transition represents.
    fn from_rational_op(r: Rational, small_inputs: bool) -> Scalar {
        let out = Scalar::from_rational(r);
        match (&out, small_inputs) {
            (Scalar::Big(_), true) => PROMOTIONS.inc(),
            (Scalar::Small(..), false) => DEMOTIONS.inc(),
            _ => {}
        }
        out
    }

    fn both_small(a: &Scalar, b: &Scalar) -> bool {
        matches!((a, b), (Scalar::Small(..), Scalar::Small(..)))
    }

    /// Converts a [`Rational`], demoting to the small form when it fits.
    pub fn from_rational(r: Rational) -> Scalar {
        match (r.numer().to_i64(), r.denom().to_i64()) {
            // `Rational` is canonical (den > 0, reduced), so the parts can be
            // reused directly.
            (Some(n), Some(d)) => Scalar::Small(n, d),
            _ => Scalar::Big(r),
        }
    }

    /// Converts to the arbitrary-precision representation.
    pub fn to_rational(&self) -> Rational {
        match self {
            Scalar::Small(n, d) => Rational::from_pair(*n, *d),
            Scalar::Big(r) => r.clone(),
        }
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        match self {
            Scalar::Small(n, _) => *n == 0,
            Scalar::Big(r) => r.is_zero(),
        }
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match self {
            Scalar::Small(n, _) => *n > 0,
            Scalar::Big(r) => r.is_positive(),
        }
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match self {
            Scalar::Small(n, _) => *n < 0,
            Scalar::Big(r) => r.is_negative(),
        }
    }

    /// `true` iff the value is `1` or `-1` (a unit pivot candidate).
    pub fn is_unit(&self) -> bool {
        matches!(self, Scalar::Small(1, 1) | Scalar::Small(-1, 1))
    }

    /// Additive inverse.
    pub fn neg(&self) -> Scalar {
        match self {
            Scalar::Small(n, d) if *n != i64::MIN => Scalar::Small(-n, *d),
            other => {
                Scalar::from_rational_op(-other.to_rational(), !matches!(other, Scalar::Big(_)))
            }
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Scalar {
        match self {
            Scalar::Small(n, d) => {
                assert!(*n != 0, "reciprocal of zero scalar");
                Scalar::from_i128_frac(*d as i128, *n as i128)
            }
            Scalar::Big(r) => Scalar::from_rational(r.recip()),
        }
    }

    /// Sum.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        if let (Scalar::Small(an, 1), Scalar::Small(bn, 1)) = (self, rhs) {
            if let Some(sum) = an.checked_add(*bn) {
                return Scalar::Small(sum, 1);
            }
        }
        if let (Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, rhs) {
            let num = (*an as i128)
                .checked_mul(*bd as i128)
                .and_then(|x| x.checked_add((*bn as i128) * (*ad as i128)));
            if let Some(num) = num {
                return Scalar::from_i128_frac(num, (*ad as i128) * (*bd as i128));
            }
        }
        Scalar::from_rational_op(
            self.to_rational() + rhs.to_rational(),
            Scalar::both_small(self, rhs),
        )
    }

    /// Difference.
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        if let (Scalar::Small(an, 1), Scalar::Small(bn, 1)) = (self, rhs) {
            if let Some(difference) = an.checked_sub(*bn) {
                return Scalar::Small(difference, 1);
            }
        }
        if let (Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, rhs) {
            let num = (*an as i128)
                .checked_mul(*bd as i128)
                .and_then(|x| x.checked_sub((*bn as i128) * (*ad as i128)));
            if let Some(num) = num {
                return Scalar::from_i128_frac(num, (*ad as i128) * (*bd as i128));
            }
        }
        Scalar::from_rational_op(
            self.to_rational() - rhs.to_rational(),
            Scalar::both_small(self, rhs),
        )
    }

    /// Product.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        if let (Scalar::Small(an, 1), Scalar::Small(bn, 1)) = (self, rhs) {
            if let Some(product) = an.checked_mul(*bn) {
                return Scalar::Small(product, 1);
            }
        }
        if let (Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, rhs) {
            return Scalar::from_i128_frac(
                (*an as i128) * (*bn as i128),
                (*ad as i128) * (*bd as i128),
            );
        }
        Scalar::from_rational_op(self.to_rational() * rhs.to_rational(), false)
    }

    /// Quotient.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div(&self, rhs: &Scalar) -> Scalar {
        if let (Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, rhs) {
            assert!(*bn != 0, "division by zero scalar");
            if (*ad, *bd) == (1, 1) && an.checked_rem(*bn) == Some(0) {
                // Exact integer quotient; `i64::MIN / -1` has no remainder
                // in `i64` and takes the general route below.
                return Scalar::Small(an / bn, 1);
            }
            return Scalar::from_i128_frac(
                (*an as i128) * (*bd as i128),
                (*ad as i128) * (*bn as i128),
            );
        }
        Scalar::from_rational_op(self.to_rational() / rhs.to_rational(), false)
    }

    /// Fused `self + a * b`, the inner-loop operation of FTRAN/BTRAN.
    pub fn add_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        if let (Scalar::Small(sn, 1), Scalar::Small(an, 1), Scalar::Small(bn, 1)) = (self, a, b) {
            if let Some(num) = an.checked_mul(*bn).and_then(|p| sn.checked_add(p)) {
                return Scalar::Small(num, 1);
            }
        }
        if let (Scalar::Small(sn, sd), Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, a, b)
        {
            let prod_den = (*ad as i128) * (*bd as i128);
            let prod_num = (*an as i128) * (*bn as i128);
            if let (Some(lhs), Some(den)) = (
                (*sn as i128).checked_mul(prod_den),
                (*sd as i128).checked_mul(prod_den),
            ) {
                if let Some(num) = prod_num
                    .checked_mul(*sd as i128)
                    .and_then(|x| lhs.checked_add(x))
                {
                    return Scalar::from_i128_frac(num, den);
                }
            }
        }
        let small = Scalar::both_small(self, a) && matches!(b, Scalar::Small(..));
        Scalar::from_rational_op(
            self.to_rational() + a.to_rational() * b.to_rational(),
            small,
        )
    }

    /// Fused `self - a * b`, the inner-loop operation of every pivot update.
    pub fn sub_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        if let (Scalar::Small(sn, 1), Scalar::Small(an, 1), Scalar::Small(bn, 1)) = (self, a, b) {
            if let Some(num) = an.checked_mul(*bn).and_then(|p| sn.checked_sub(p)) {
                return Scalar::Small(num, 1);
            }
        }
        if let (Scalar::Small(sn, sd), Scalar::Small(an, ad), Scalar::Small(bn, bd)) = (self, a, b)
        {
            // self - a*b = (sn·(ad·bd) - (an·bn)·sd) / (sd·ad·bd).
            let prod_den = (*ad as i128) * (*bd as i128);
            let prod_num = (*an as i128) * (*bn as i128);
            if let (Some(lhs), Some(den)) = (
                (*sn as i128).checked_mul(prod_den),
                (*sd as i128).checked_mul(prod_den),
            ) {
                if let Some(num) = prod_num
                    .checked_mul(*sd as i128)
                    .and_then(|x| lhs.checked_sub(x))
                {
                    return Scalar::from_i128_frac(num, den);
                }
            }
        }
        let small = Scalar::both_small(self, a) && matches!(b, Scalar::Small(..));
        Scalar::from_rational_op(
            self.to_rational() - a.to_rational() * b.to_rational(),
            small,
        )
    }

    /// Numeric comparison (total order).
    pub fn cmp_value(&self, other: &Scalar) -> Ordering {
        match (self, other) {
            (Scalar::Small(an, ad), Scalar::Small(bn, bd)) => {
                ((*an as i128) * (*bd as i128)).cmp(&((*bn as i128) * (*ad as i128)))
            }
            _ => self.to_rational().cmp(&other.to_rational()),
        }
    }
}

impl Default for Scalar {
    fn default() -> Scalar {
        Scalar::ZERO
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Small(n, 1) => write!(f, "{n}"),
            Scalar::Small(n, d) => write!(f, "{n}/{d}"),
            Scalar::Big(r) => write!(f, "{r}"),
        }
    }
}

/// Binary (Stein) gcd: shifts and subtractions only, no division.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return (a | b).max(1);
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

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::ratio;
    use proptest::prelude::*;

    fn s(n: i64, d: i64) -> Scalar {
        Scalar::from_rational(Rational::from_pair(n, d))
    }

    #[test]
    fn canonical_small_form() {
        assert_eq!(s(2, 4), Scalar::Small(1, 2));
        assert_eq!(s(-2, -4), Scalar::Small(1, 2));
        assert_eq!(s(2, -4), Scalar::Small(-1, 2));
        assert_eq!(s(0, 7), Scalar::ZERO);
    }

    #[test]
    fn arithmetic_matches_rational() {
        let cases = [(1i64, 2i64), (-3, 7), (5, 1), (0, 1), (-1, 3)];
        for &(an, ad) in &cases {
            for &(bn, bd) in &cases {
                let (a, b) = (s(an, ad), s(bn, bd));
                assert_eq!(a.add(&b).to_rational(), ratio(an, ad) + ratio(bn, bd));
                assert_eq!(a.sub(&b).to_rational(), ratio(an, ad) - ratio(bn, bd));
                assert_eq!(a.mul(&b).to_rational(), ratio(an, ad) * ratio(bn, bd));
                if bn != 0 {
                    assert_eq!(a.div(&b).to_rational(), ratio(an, ad) / ratio(bn, bd));
                }
                assert_eq!(
                    a.sub_mul(&b, &s(2, 3)).to_rational(),
                    ratio(an, ad) - ratio(bn, bd) * ratio(2, 3)
                );
                assert_eq!(
                    a.add_mul(&b, &s(-2, 3)).to_rational(),
                    ratio(an, ad) + ratio(bn, bd) * ratio(-2, 3)
                );
                assert_eq!(
                    a.cmp_value(&b),
                    ratio(an, ad).cmp(&ratio(bn, bd)),
                    "cmp {an}/{ad} vs {bn}/{bd}"
                );
            }
        }
    }

    #[test]
    fn overflow_promotes_and_demotes() {
        let huge = Scalar::Small(i64::MAX, 1);
        let squared = huge.mul(&huge);
        assert!(matches!(squared, Scalar::Big(_)), "must promote");
        assert_eq!(
            squared.to_rational(),
            Rational::from(BigInt::from(i64::MAX)) * Rational::from(BigInt::from(i64::MAX))
        );
        // Dividing back demotes to the small representation.
        let back = squared.div(&huge);
        assert_eq!(back, huge);
        assert!(matches!(back, Scalar::Small(..)));
        // i64::MIN negation corner case.
        let min = Scalar::Small(i64::MIN, 1);
        assert_eq!(min.neg().to_rational(), -Rational::from(i64::MIN));
        assert_eq!(min.recip().mul(&min), Scalar::ONE);
    }

    /// `true` iff `value` is in the unique representation: `Small` iff the
    /// reduced parts fit `i64`, with `den > 0` and `gcd(|num|, den) = 1`.
    fn is_canonical(value: &Scalar) -> bool {
        match value {
            Scalar::Small(n, d) => *d > 0 && gcd_u128(n.unsigned_abs().into(), *d as u128) == 1,
            Scalar::Big(r) => r.numer().to_i64().is_none() || r.denom().to_i64().is_none(),
        }
    }

    /// Operands on the boundary of each arithmetic route: zero, units, the
    /// `i64` extremes, both sides of the `checked_mul` boundary
    /// `⌊√i64::MAX⌋ = 3_037_000_499`, small fractions, fractions whose
    /// products need the `u128` reduction (`2^40 / (2^40 + 1)` and its
    /// reciprocal multiply back to 1 only through it), and a big value.
    fn edge_operands() -> Vec<Scalar> {
        let big = Rational::new(
            BigInt::from(2u64).pow(70) + BigInt::from(1),
            BigInt::from(3),
        );
        let p40 = 1i64 << 40;
        let mut out: Vec<Scalar> = [
            0,
            1,
            -1,
            2,
            -3,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
            3_037_000_499,
            -3_037_000_499,
            3_037_000_500,
            -3_037_000_500,
        ]
        .into_iter()
        .map(Scalar::from_int)
        .collect();
        for (n, d) in [
            (1, 3),
            (-7, 2),
            (i64::MAX, i64::MAX - 1),
            (i64::MIN + 1, i64::MAX - 2),
            (p40, p40 + 1),
            (p40 + 1, p40),
        ] {
            out.push(s(n, d));
        }
        out.push(Scalar::from_rational(big));
        out
    }

    /// Checks every operation of `a`, `b`, `c` against the `Rational`
    /// reference: same value, canonical form, and a promotion counted
    /// whenever small operands produce a big result.
    fn check_against_rational(a: &Scalar, b: &Scalar, c: &Scalar) {
        let (ra, rb, rc) = (a.to_rational(), b.to_rational(), c.to_rational());
        let all_small = [a, b, c].iter().all(|v| matches!(v, Scalar::Small(..)));
        let check = |name: &str, op: &dyn Fn() -> Scalar, expected: Rational| {
            let before = PROMOTIONS.get();
            let got = op();
            let promotions = PROMOTIONS.get() - before;
            assert_eq!(got.to_rational(), expected, "{name}({a}, {b}, {c})");
            assert!(is_canonical(&got), "{name}({a}, {b}, {c}) = {got:?}");
            if all_small && matches!(got, Scalar::Big(_)) {
                assert!(promotions > 0, "{name}({a}, {b}, {c}) promoted uncounted");
            }
        };
        check("add", &|| a.add(b), &ra + &rb);
        check("sub", &|| a.sub(b), &ra - &rb);
        check("mul", &|| a.mul(b), &ra * &rb);
        check("add_mul", &|| a.add_mul(b, c), &ra + &rb * &rc);
        check("sub_mul", &|| a.sub_mul(b, c), &ra - &rb * &rc);
        check("neg", &|| a.neg(), -&ra);
        if !b.is_zero() {
            check("div", &|| a.div(b), &ra / &rb);
            check("recip", &|| b.recip(), rb.recip());
        }
        assert_eq!(a.cmp_value(b), ra.cmp(&rb), "cmp({a}, {b})");
    }

    #[test]
    fn edge_operands_match_rational() {
        let edges = edge_operands();
        for a in &edges {
            for b in &edges {
                for c in &edges {
                    check_against_rational(a, b, c);
                }
            }
        }
        // The checked_mul boundary: one side stays small, the other
        // promotes.
        let below = Scalar::from_int(3_037_000_499);
        assert!(matches!(below.mul(&below), Scalar::Small(_, 1)));
        let above = Scalar::from_int(3_037_000_500);
        assert!(matches!(above.mul(&above), Scalar::Big(_)));
        // Reduced through u128 back to the small form.
        let p40 = 1i64 << 40;
        assert_eq!(s(p40, p40 + 1).mul(&s(p40 + 1, p40)), Scalar::ONE);
    }

    /// One operand: an integer three times in five (as in the cone
    /// programs), else a fraction; numerators and denominators are drawn
    /// from the edge values, the full `i64` range or small values.
    fn operand() -> impl Strategy<Value = Scalar> {
        (0u8..20, any::<i64>(), -12i64..13, any::<i64>(), 1i64..13).prop_map(
            |(pick, wide, small, wide_den, small_den)| {
                let part = |choice: u8, wide: i64, small: i64| match choice % 4 {
                    0 => [0, 1, -1, i64::MAX, i64::MIN, 3_037_000_499, 3_037_000_500]
                        [(wide as u64 % 7) as usize],
                    1 => wide,
                    _ => small,
                };
                let num = part(pick, wide, small);
                let den = match pick / 4 {
                    0..=2 => 1,
                    3 => small_den,
                    _ => match part(pick / 2, wide_den, small_den) {
                        0 => 1,
                        d => d,
                    },
                };
                Scalar::from_rational(Rational::new(BigInt::from(num), BigInt::from(den)))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn fast_paths_match_rational(a in operand(), b in operand(), c in operand()) {
            check_against_rational(&a, &b, &c);
        }
    }

    #[test]
    fn predicates() {
        assert!(Scalar::ZERO.is_zero());
        assert!(!Scalar::ZERO.is_positive());
        assert!(s(1, 2).is_positive());
        assert!(s(-1, 2).is_negative());
        assert!(Scalar::ONE.is_unit());
        assert!(s(-1, 1).is_unit());
        assert!(!s(1, 2).is_unit());
    }

    #[test]
    fn display_matches_rational() {
        assert_eq!(s(-7, 3).to_string(), "-7/3");
        assert_eq!(Scalar::from_int(4).to_string(), "4");
    }
}
