"""Reading a law from the text or JSON distribution format.

Text format, one atom per line:   <support> <mass>
with rationals written p/q or as plain integers; '#' starts a comment and
atoms need not be sorted.  JSON form: {"atoms": [[s, m], ...]} with
rationals as strings (integers also accepted).  Atoms at equal supports
merge; a negative mass on any line or entry is rejected, not netted.
:func:`.distributions.distribution_to_json_obj` writes the JSON form.

Only ``cx-compare`` and callers of :func:`parse_distribution` load this
module, which is the one home of its names.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator

from .distributions import DiscreteDistribution
from .exact import FormatError, ParameterError, as_rational

__all__ = ["MAX_ATOMS", "MAX_LAW_BITS", "parse_distribution"]


MAX_ATOMS = 100_000
"""The most atoms a parsed distribution may list, text lines or JSON entries.

Counted before any value is parsed.  Parsing costs about 25 us and 0.5 kB
per atom with integer supports and equal masses, and the oracle on two such
laws 0.5 to 0.7 us more, so one file at the limit parses in about 2.5 s
(Python 3.11, one 2-core x86-64 host).  The cost of many distinct
denominators is bounded by :data:`MAX_LAW_BITS`.
"""


MAX_LAW_BITS = 50_000_000
"""The largest size of a parsed law: atoms times the bit length of the
larger common denominator, of the supports or of the masses.

A law holds every support and mass numerator over those common
denominators, so this product bounds its ints.  Well within
:data:`MAX_ATOMS`, distinct prime denominators make the common multiple
grow with the atom count: 6000 supports k / p_k with distinct primes p_k
took 15.6 s and 150 MB to parse without this bound.  The parsers keep both least common multiples as they
read and stop at the first atom that passes the limit, so a file over it
is rejected in well under a second.  The largest admitted files of the two
hardest kinds, on one 2-core x86-64 host with Python 3.11: 2005 supports
k / p_k with masses 1/2005 (a 24 926-bit denominator, 50.0 million) parse
in 0.33 s with a peak RSS of 28 MB, and 2898 atom lines whose supports
and masses both run over 1449 distinct primes, two lines per prime
(17 242 bits, 49.9 million), in 0.50 s and 42 MB; ``cx-compare`` of the
latter against itself takes 1.1 s and 58 MB.
"""


def parse_distribution(text: str) -> DiscreteDistribution:
    """Parse either the text or the JSON distribution format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_text(text)


def _parsed_law(pairs: Iterable[tuple[Fraction, Fraction]]) -> DiscreteDistribution:
    """The law of parsed (support, mass) pairs, read one at a time.

    The least common multiples of the support and of the mass denominators
    are kept as the pairs arrive, and the first pair that takes the law past
    :data:`MAX_LAW_BITS` stops the parse before the next one is read.
    """
    held = []
    scale = den = 1
    for support, mass in pairs:
        held.append((support, mass))
        scale = math.lcm(scale, support.denominator)
        den = math.lcm(den, mass.denominator)
        bits = max(scale.bit_length(), den.bit_length())
        if len(held) * bits > MAX_LAW_BITS:
            raise FormatError(
                f"{len(held)} atoms over a {bits}-bit common denominator pass "
                f"the limit of {MAX_LAW_BITS} for atoms times denominator bits"
            )
    try:
        return DiscreteDistribution.from_pairs(held)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


# The line boundaries ``str.splitlines`` splits at.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, one at a time, so that a file of
    many lines is never held as a list of them."""
    start = 0
    for match in _LINE_BREAK.finditer(text):
        yield text[start:match.start()]
        start = match.end()
    if start < len(text):
        yield text[start:]


def _parse_text(text: str) -> DiscreteDistribution:
    lines = []
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, raw, line))
            if len(lines) > MAX_ATOMS:
                raise FormatError(f"more than the limit of {MAX_ATOMS} atom lines")
    if not lines:
        raise FormatError("no atoms found in distribution text")
    return _parsed_law(map(_text_atom, lines))


def _text_atom(numbered_line: tuple[int, str, str]) -> tuple[Fraction, Fraction]:
    lineno, raw, line = numbered_line
    tokens = line.split()
    if len(tokens) != 2:
        raise FormatError(f"line {lineno}: expected '<support> <mass>', got {raw!r}")
    support, mass = as_rational(tokens[0]), as_rational(tokens[1])
    if mass < 0:
        raise FormatError(f"line {lineno}: negative mass in {raw!r}")
    return support, mass


def _parse_json(text: str) -> DiscreteDistribution:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed, or an int over Python's digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise FormatError('JSON distribution must be {"atoms": [[s, m], ...]}')
    entries = obj["atoms"]
    if not isinstance(entries, list):
        raise FormatError('"atoms" must be a list of [support, mass] pairs')
    if len(entries) > MAX_ATOMS:
        raise FormatError(
            f"{len(entries)} atom entries, above the limit of {MAX_ATOMS}"
        )
    return _parsed_law(map(_json_atom, entries))


def _json_atom(entry) -> tuple[Fraction, Fraction]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise FormatError(f"bad atom entry: {entry!r}")
    support, mass = as_rational(entry[0]), as_rational(entry[1])
    if mass < 0:
        raise FormatError(f"negative mass in atom entry {entry!r}")
    return support, mass
