"""The exact pieces that both law routes share: errors, rationals, binomial
numerators, the packed-int product and its slot reader, sign runs and the
one convex-order verdict reader.

Laws read from files or built by the library are held as
``distributions.DiscreteDistribution`` and compared by ``cx_order``; laws
of a Rasa sweep are held on the integer lattice by ``lattice``.  Both routes
raise the same errors, coerce parameters with :func:`as_rational`, quote
values in messages through :func:`_quoted`, build binomial laws from
:func:`binomial_numerators`, fold their independent sums into one int with
:func:`_packed_product` and read it back with :func:`_slots`, count sign
changes with :func:`sign_changes` and hand their stop-loss gaps to
:func:`_oracle_verdict`, so equal laws get equal verdicts, witnesses
included.  These names have their one home here, and this module imports
no other module of the package, so a ``verify-rasa`` sweep, which runs only
the lattice route, never loads ``distributions`` or ``cx_order``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

__all__ = [
    "RationalLike",
    "ParameterError",
    "FormatError",
    "MAX_RATIONAL_DIGITS",
    "as_rational",
    "binomial_numerators",
    "sign_changes",
    "CxVerdict",
]

RationalLike = Union[Fraction, int, str]


class ParameterError(ValueError):
    """An argument violates an operation's contract (range, sign, length)."""


class FormatError(ValueError):
    """Input text or JSON does not encode a valid distribution."""


MAX_RATIONAL_DIGITS = 10_000
"""The most decimal digits a parsed rational string may carry.

The count is every digit written plus the magnitude of a decimal exponent,
since ``1e-k`` puts k digits into the denominator.  The limit keeps values
near 33 000 bits, so a hostile string such as ``1e-999999999`` is rejected
before any big integer is built.
"""


def _decimal_digits(text: str) -> int:
    """Digits written in text plus its exponent's magnitude, capped above the limit.

    A string whose length alone exceeds what the limit allows (at most one
    underscore per digit and a few signs and separators) is over it.
    """
    over = MAX_RATIONAL_DIGITS + 1
    if len(text) > 2 * MAX_RATIONAL_DIGITS + 8:
        return over
    mantissa, _, exponent = text.lower().partition("e")
    written = sum(c.isdigit() for c in mantissa)
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not magnitude.isdigit():  # no exponent, a zero one, or one Fraction rejects
        return written
    if len(magnitude) > len(str(MAX_RATIONAL_DIGITS)):
        return over
    return min(written + int(magnitude), over)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or `p/q` string to an exact Fraction.

    Floats are rejected: they carry rounding error and this library promises
    exactness end to end.  A string carrying more than
    :data:`MAX_RATIONAL_DIGITS` decimal digits is rejected before it is
    parsed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _decimal_digits(text) > MAX_RATIONAL_DIGITS:
            raise FormatError(
                f"rational {text[:24]!r}{'...' if len(text) > 24 else ''} exceeds "
                f"the limit of {MAX_RATIONAL_DIGITS} decimal digits "
                "(an exponent counts as its magnitude in digits)"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse rational from {value!r}") from exc
    raise FormatError(f"not a rational value: {value!r} (floats are rejected)")


_QUOTED_BITS = 200


def _quoted(value: Fraction | int) -> str:
    """A value (a Fraction or an int) as an error message quotes it, in one short line.

    Its ``p/q`` text when both terms have at most 200 bits (about 60
    digits); otherwise six significant digits, rounded toward zero, and the
    bit length of the denominator if that is a long term.  A message built
    from an input's values thus never passes Python's limit on int-to-string
    conversion.
    """
    p, q = value.numerator, value.denominator
    size = abs(p)
    if size.bit_length() <= _QUOTED_BITS and q.bit_length() <= _QUOTED_BITS:
        return str(value)
    # The exponent e with 10^e <= |value| < 10^(e+1), from the bit lengths'
    # estimate (log10 2 is about 0.30103) and moved to the exact one.
    e = (size.bit_length() - q.bit_length()) * 30103 // 100000
    while True:
        lead = size * 10 ** (5 - e) // q if e <= 5 else size // (q * 10 ** (e - 5))
        if lead >= 10**6:
            e += 1
        elif lead < 10**5:
            e -= 1
        else:
            break
    sign = "-" if p < 0 else ""
    text = str(lead)
    text = f"about {sign}{text[0]}.{text[1:]}e{e}"
    if q.bit_length() > _QUOTED_BITS:
        text += f" (a {q.bit_length()}-bit denominator)"
    return text


def binomial_numerators(n: int, a: int, q: int) -> list[int]:
    """C(n, k) a^k (q - a)^(n - k), k = 0 .. n: the binomial(n, a/q) masses times q^n.

    The one place the binomial numerators are computed, for
    ``distributions.binomial`` and for ``lattice.bernstein_numerators``: the
    running power products a^k b^(n-k) times the running binomial
    coefficients.  a = 0 and a = q put all mass on one end.
    """
    b = q - a
    if not b:
        return [0] * n + [a**n]
    out = _power_products(a, b, n)
    c = 1
    for k in range(1, n):
        c = c * (n - k + 1) // k
        out[k] *= c
    return out


def _power_products(a: int, b: int, n: int) -> list[int]:
    """a^k b^(n-k) for k = 0..n, b > 0, as one running product.

    Each step trades a factor b for a factor a by an exact division, which
    costs time linear in the term's size where a product of two powers
    would cost a full big-int multiplication.
    """
    term = b**n
    out = [term]
    for _ in range(n):
        term = term // b * a
        out.append(term)
    return out


def _packed_product(
    parts: Iterable[tuple[Sequence[int], Sequence[int]]], bits: int
) -> int:
    """The product of the polynomials sum_j nums[j] z^offsets[j], one per
    (offsets, nums) part, as one int with z = 2^bits.

    The one writer of the Kronecker layout :func:`_slots` reads, for both
    independent sums: ``distributions.convolve_many``'s parts and
    ``lattice.binomial_sum``'s factors.  A running int is multiplied by
    each of a part's small numerators and shifted to its offset, so a step
    costs time linear in the int, where a product of two packed ints would
    cost a full big-int multiplication.  The int holds the product's
    coefficients exactly when every partial product's are below 2^bits.
    """
    packed = 1
    for offsets, nums in parts:
        packed = sum((packed * v) << (bits * o) for o, v in zip(offsets, nums))
    return packed


def _slots(packed: int, count: int, slot: int) -> list[int]:
    """The ``count`` slots of ``slot`` bytes each of a nonnegative int, lowest first.

    The one reader of the Kronecker layout :func:`_packed_product` writes,
    a polynomial's coefficient c_k at bit 8 * slot * k: the int is read
    back once through its little-endian bytes.  It holds the coefficients
    exactly when each is below 2^(8 * slot).
    """
    raw = packed.to_bytes(count * slot, "little")
    return [int.from_bytes(raw[i:i + slot], "little") for i in range(0, len(raw), slot)]


def _sign_runs(values: Iterable) -> tuple[int, list[int]]:
    """The first nonzero sign of values (0 if none) and the indices where it alternates.

    Zero terms are discarded, so an index is the first term of a run of
    the new sign.
    """
    first = previous = 0
    changes: list[int] = []
    for i, v in enumerate(values):
        if v == 0:
            continue
        sign = 1 if v > 0 else -1
        if not previous:
            first = sign
        elif sign != previous:
            changes.append(i)
        previous = sign
    return first, changes


def sign_changes(values: Iterable) -> int:
    """Number of sign alternations after discarding zero terms."""
    return len(_sign_runs(values)[1])


# The mean gap of every equal-means verdict; a Fraction is immutable.
_ZERO = Fraction(0)


class CxVerdict(NamedTuple):
    """Outcome of a convex-order comparison lhs <=_cx rhs.

    ``witness`` is a threshold t with stop_loss(lhs, t) > stop_loss(rhs, t);
    it is present exactly when the means agree but dominance fails, and it is
    the smallest such t on the union of supports.  ``mean_gap`` is
    mean(rhs) - mean(lhs).
    """

    holds: bool
    means_equal: bool
    witness: Optional[Fraction]
    mean_gap: Fraction


# Every verdict that holds; a CxVerdict is immutable and compares by value.
_HOLDS = CxVerdict(holds=True, means_equal=True, witness=None, mean_gap=_ZERO)


def _oracle_verdict(
    mean_gap: int, gaps: Iterable[tuple[int, int]], den: int, scale: int
) -> CxVerdict:
    """Equal means, then the first grid point with a negative stop-loss gap.

    ``mean_gap / den`` is mean(rhs) - mean(lhs).  Once it is 0, ``gaps``
    yields each point g of the union of supports, left to right, as
    ``(g * scale, gap)``, where ``gap / den`` is the stop-loss gap
    E(rhs - g)_+ - E(lhs - g)_+; it is not read when the means differ.
    Every ``CxVerdict`` the package returns is made here.
    """
    if mean_gap:
        gap = Fraction(mean_gap, den)
        return CxVerdict(holds=False, means_equal=False, witness=None, mean_gap=gap)
    witness = next((Fraction(g, scale) for g, gap in gaps if gap < 0), None)
    if witness is None:
        return _HOLDS
    return CxVerdict(holds=False, means_equal=True, witness=witness, mean_gap=_ZERO)
