"""Linear symmetric hedge algebras and their finite linguistic truth domains.

A hedge algebra describes how modifier words such as "very" or "probably"
act on two opposite primary terms ("false" < "true").  Modifiers split into
a strengthening class and a weakening class, each linearly ranked, and a
positivity matrix records whether one modifier amplifies or dampens the
effect of another.  Everything else is derived from that description: the
sign of a modified term, the direction its hedge chains run, and so the
truth domain the rest of the package computes with, every bounded
modifier string in ascending order.  The order is read off in one
depth-first walk that carries each term's sign and outermost hedge (Ho &
Wechler, "Hedge algebras", FSS 1990); no two values are ever compared.
A truth value is its index in that order, spelled by its literal.

Algebras and domains are never changed once built, so they can be shared
freely across threads.
"""

from __future__ import annotations

import errno
import functools
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterable

BOTTOM_NAME = "absfalse"
MIDDLE_NAME = "middle"
TOP_NAME = "abstrue"
RESERVED_NAMES = frozenset({BOTTOM_NAME, MIDDLE_NAME, TOP_NAME})

# A name a program can write: a predicate, a constant or a hedge.
NAME_PATTERN = "[a-z][a-z0-9_]*"

# The conjunctions of rules and bodies on domain indices, Gödel's min(i, j)
# and Łukasiewicz's max(i + j - n, 0), each residuated with its implication
# (Vojtáš, "Fuzzy logic programming", FSS 2001); the engines fold them inline.
GODEL = "godel"
LUKA = "luka"

# Most values plus hedge words (a value of k hedges holds k) a truth
# domain may enumerate, so memory is bounded too.  The default hedges need
# 334,965 at ``limit: 7`` and 1,514,613 at ``limit: 8``; a single hedge
# needs L² + 3L + 5 at ``limit: L``.
DOMAIN_LIMIT = 10**6


class InputError(ValueError):
    """Malformed input (an algebra config, inverse table, program or control
    file); carries every violation found."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class AlgebraError(InputError):
    """Invalid algebra description or operation."""


class LimitError(RuntimeError):
    """A run would need more of a bounded resource than its limit allows."""

    subject = unit = ""

    def __init__(self, needed: int, limit: int):
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"{self.subject} needs at least {needed} {self.unit}, over the limit of {limit}"
        )


class DomainLimitError(LimitError):
    subject, unit = "the truth domain", "values and hedge words"


def record(name: str, fields: str, defaults: tuple = (), compared: int | None = None):
    """An immutable record type of its caller's module: a ``namedtuple``
    that equals only records of its own type (never a plain tuple), on its
    first ``compared`` fields (all when None), and hashes the same fields.
    A ``namedtuple`` already has no ``__dict__``, so only a record with
    methods subclasses the type, and declares empty ``__slots__``.

    With every field compared, hashing is ``tuple.__hash__`` itself.
    """
    cls = namedtuple(name, fields, defaults=defaults, module=sys._getframe(1).f_globals["__name__"])
    eq = _fields_equal(len(cls._fields) if compared is None else compared)
    cls.__eq__ = eq
    cls.__ne__ = lambda s, o: not eq(s, o)
    if compared is not None:
        cls.__hash__ = lambda s: hash(s[:compared])
    return cls


@functools.cache
def _fields_equal(n: int):
    """``eq(s, o)``: same class, and the first ``n`` fields equal.  Field by
    field runs about twice as fast as a call to ``tuple.__eq__``."""
    same = " and ".join(f"s[{i}] == o[{i}]" for i in range(n))
    return eval(f"lambda s, o: o.__class__ is s.__class__ and {same}")


# A declared hedge.  ``positive_class`` is True for the strengthening
# class; a higher ``rank`` modifies more strongly within its class.
HedgeDecl = record("HedgeDecl", "name positive_class rank")

# Raw, unvalidated description of an algebra.  ``hedges`` is a tuple of
# ``HedgeDecl``.  ``positivity`` maps an ordered pair ``(modifier, target)``
# to True when the modifier is positive (amplifying) with respect to the
# target.  It must classify every ordered pair of declared hedges.
HedgeAlgebraSpec = record(
    "HedgeAlgebraSpec", "negative_primary positive_primary hedges positivity limit"
)


class HedgeAlgebra:
    """Validated algebra with the derived extended order on hedges.

    The extended order places weakening hedges below the identity (stronger
    ones lower) and strengthening hedges above it (stronger ones higher).
    It is exposed through :meth:`e_index`, where the identity is 0.
    """

    def __init__(self, spec: HedgeAlgebraSpec):
        self.spec = spec
        self.limit = spec.limit
        self.negative_primary = spec.negative_primary
        self.positive_primary = spec.positive_primary
        plus = sorted((d for d in spec.hedges if d.positive_class), key=lambda d: d.rank)
        minus = sorted((d for d in spec.hedges if not d.positive_class), key=lambda d: d.rank)
        # plus_hedges[i] has extended index i+1, minus_hedges[i] has -(i+1)
        self.plus_hedges = tuple(d.name for d in plus)
        self.minus_hedges = tuple(d.name for d in minus)
        self._e_index = {name: i + 1 for i, name in enumerate(self.plus_hedges)}
        self._e_index.update({name: -(i + 1) for i, name in enumerate(self.minus_hedges)})
        # _flip[h, outer] is -1 when h applied over a term with outermost
        # hedge ``outer`` (None: a primary) reverses the term's sign: a
        # weakening hedge over a primary, or h negative w.r.t. ``outer``.
        self._flip = {(d.name, None): 1 if d.positive_class else -1 for d in spec.hedges}
        self._flip.update({pair: 1 if pos else -1 for pair, pos in spec.positivity.items()})
        # The greatest hedge in the extended order, whose effect on a term
        # tells which way the term's chains run.
        self._ref = (self.plus_hedges[-1:] or self.minus_hedges[:1] or (None,))[0]
        # Children of a term with chain direction d, in push order for the
        # walk: descending d·e(h), with the term itself (None) at e = 0.
        rising = (*reversed(self.minus_hedges), None, *self.plus_hedges)
        self._push = {1: rising[::-1], -1: rising}

    # -- lookups ---------------------------------------------------------

    def has_hedge(self, name: str) -> bool:
        return name in self._e_index

    def e_index(self, name: str | None) -> int:
        """Extended-order index of a hedge; None stands for the identity."""
        if name is None:
            return 0
        try:
            return self._e_index[name]
        except KeyError:
            raise AlgebraError([f"undeclared hedge: {name!r}"]) from None

    def hedge_by_e_index(self, idx: int) -> str | None:
        if idx == 0:
            return None
        hedges = self.plus_hedges if idx > 0 else self.minus_hedges
        if abs(idx) <= len(hedges):
            return hedges[abs(idx) - 1]
        raise AlgebraError([f"no hedge with extended index {idx}"])

    def extended_order(self) -> tuple[str, ...]:
        """All hedges, ascending by the extended order (identity omitted)."""
        return tuple(reversed(self.minus_hedges)) + self.plus_hedges

    # -- the order -------------------------------------------------------

    def flip(self, hedge: str, outer: str | None) -> int:
        """-1 when applying ``hedge`` reverses the sign of a term whose
        outermost hedge is ``outer`` (None: a primary), else +1.  A term's
        sign is +1 when it sits above the term it modifies (a positive
        primary counts as above), -1 when below."""
        return self._flip[hedge, outer]

    def direction(self, sign: int, outer: str | None) -> int:
        """+1 when the hedge chains over a term ascend with the extended
        order, -1 when they descend, from the term's sign and outermost
        hedge: chains ascend when the greatest hedge moves the term the
        way it moves a primary of its class."""
        ref = self._ref
        return sign if ref is None else sign * self._flip[ref, outer] * self._flip[ref, None]

    def terms(self, positive: bool) -> list[tuple[str, ...]]:
        """The hedge strings (outermost hedge first) of every term over one
        primary, ascending, in one depth-first walk.

        Under a term with chain direction ``d`` come the subtrees of the
        hedges ``h`` with ``d·e(h) < 0``, then the term itself, then the
        subtrees with ``d·e(h) > 0``, each in ascending ``d·e(h)``.  Each
        term's sign and outermost hedge are carried down, so no two values
        are ever compared; a pushed sign of 0 marks a term to emit.
        """
        flip, push, limit = self._flip, self._push, self.limit
        out: list[tuple[str, ...]] = []
        todo: list = [((), 1 if positive else -1, None)]
        while todo:
            hedges, sign, outer = todo.pop()
            if not sign:
                out.append(hedges)
                continue
            for h in push[self.direction(sign, outer)] if len(hedges) < limit else (None,):
                todo.append((hedges, 0, None) if h is None
                            else ((h, *hedges), sign * flip[h, outer], h))
        return out


def build_algebra(spec: HedgeAlgebraSpec) -> HedgeAlgebra:
    """Validate a spec and derive the algebra.

    All violations are collected and reported together so a config file can
    be fixed in one pass.
    """
    problems: list[str] = []
    if spec.limit < 0:
        problems.append(f"limit must be >= 0, got {spec.limit}")
    prim = (spec.negative_primary, spec.positive_primary)
    for p in prim:
        if not p:
            problems.append("primary names must be non-empty")
        elif p in RESERVED_NAMES:
            problems.append(f"primary name {p!r} is reserved")
        elif not all(re.fullmatch(NAME_PATTERN, word) for word in p.split()):
            problems.append(
                f"primary name {p!r} must be words matching {NAME_PATTERN} to be written")
    if prim[0] == prim[1]:
        problems.append(f"primaries must differ, both are {prim[0]!r}")

    seen: set[str] = set()
    ranks: dict[tuple[bool, int], str] = {}
    for d in spec.hedges:
        if d.name in seen:
            problems.append(f"duplicate hedge name {d.name!r}")
        seen.add(d.name)
        if not re.fullmatch(NAME_PATTERN, d.name):
            problems.append(f"hedge name {d.name!r} must match {NAME_PATTERN} to be written")
        if d.name in prim or d.name in RESERVED_NAMES:
            problems.append(f"hedge name {d.name!r} collides with a primary or reserved word")
        if d.rank < 1:
            problems.append(f"hedge {d.name!r} must have rank >= 1, got {d.rank}")
        key = (d.positive_class, d.rank)
        if key in ranks:
            cls = "+" if d.positive_class else "-"
            problems.append(
                f"hedges {ranks[key]!r} and {d.name!r} share rank {d.rank} in class {cls}"
            )
        ranks[key] = d.name

    for (a, b) in spec.positivity:
        for name in (a, b):
            if name not in seen:
                problems.append(f"positivity entry mentions undeclared hedge {name!r}")
    for a in seen:
        for b in seen:
            if (a, b) not in spec.positivity:
                problems.append(f"positivity of {a!r} w.r.t. {b!r} is not declared")

    if problems:
        raise AlgebraError(sorted(set(problems)))
    size = domain_size(spec)
    if size > DOMAIN_LIMIT:
        raise DomainLimitError(size, DOMAIN_LIMIT)
    return HedgeAlgebra(spec)


def domain_size(spec: HedgeAlgebraSpec) -> int:
    """Number of values ``enumerate_domain`` yields plus the hedge words
    they hold: 3 + 2·Σ_{k≤limit} (k + 1)·h^k for h hedges.  Counting stops
    early once past ``DOMAIN_LIMIT``."""
    h = len(spec.hedges)
    size, layer = 3, 2
    for k in range(spec.limit + 1):
        size += layer * (k + 1)
        layer *= h
        if layer == 0 or size > DOMAIN_LIMIT:
            break
    return size


def enumerate_domain(algebra: HedgeAlgebra) -> TruthDomain:
    """All hedge strings up to the length limit over both primaries, plus
    the three constants, ascending: 0, the negative terms, W, the positive
    terms, 1.  Deterministic for a given spec."""
    def spelled(primary: str, positive: bool) -> list[str]:
        return [" ".join((*hedges, primary)) for hedges in algebra.terms(positive)]

    return TruthDomain(algebra, [
        BOTTOM_NAME, *spelled(algebra.negative_primary, False),
        MIDDLE_NAME, *spelled(algebra.positive_primary, True), TOP_NAME,
    ])


class TruthDomain:
    """The fully enumerated, ascending truth domain of an algebra: its
    literals ("absfalse", "very more true", ...) by index and back."""

    def __init__(self, algebra: HedgeAlgebra, literals: Iterable[str]):
        self.algebra = algebra
        self._literals = tuple(literals)
        self.index = {s: i for i, s in enumerate(self._literals)}
        self.n = len(self._literals) - 1
        self.middle_index = self.index[MIDDLE_NAME]

    def __len__(self) -> int:
        return len(self._literals)

    def literal(self, i: int) -> str:
        return self._literals[i]

    def parse_literal(self, text: str) -> int:
        """Resolve a truth literal to its domain index.

        A literal is either one of the three constant names or hedge words
        followed by a primary name, separated by blanks.  Text that is no
        literal is read word by word only to say why: it is empty, does not
        end in a primary, holds an unknown hedge or is over the limit.
        """
        index = self.index.get(text)  # as written: a primary may hold blanks
        if index is not None:
            return index
        words = text.split()
        index = self.index.get(" ".join(words))
        if index is not None:
            return index
        if not words:
            raise ValueError("empty truth literal")
        alg = self.algebra
        if words[-1] not in (alg.negative_primary, alg.positive_primary):
            raise ValueError(f"truth literal must end in a primary name, got {text!r}")
        for h in words[:-1]:
            if not alg.has_hedge(h):
                raise ValueError(f"unknown hedge {h!r} in truth literal {text!r}")
        raise ValueError(f"value not in domain: {' '.join(words)}")


def format_value(domain: TruthDomain, index: int) -> str:
    return f"{domain.literal(index)} (v{index})"


# -- algebra config files -------------------------------------------------
#
# Line-oriented text, one declaration per line, % starts a comment:
#   primary: <negative>, <positive>
#   hedge: <name> class=<+|-> rank=<int>
#   positive: <modifier> -> <target>, <target>, ...
#   negative: <modifier> -> <target>, ...
#   limit: <int>
#   inverse: <hedge> <truth literal> -> <truth literal>     (optional override)


# An ``inverse:`` row; ``source`` and ``target`` are truth literals.
InverseOverride = record("InverseOverride", "hedge source target line")


def parse_algebra_config(text: str) -> tuple[HedgeAlgebraSpec, tuple[InverseOverride, ...]]:
    problems: list[str] = []
    primaries: tuple[str, str] | None = None
    hedges: list[HedgeDecl] = []
    positivity: dict[tuple[str, str], bool] = {}
    pos_lines: dict[tuple[str, str], int] = {}
    limit: int | None = None
    overrides: list[InverseOverride] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):  # as ``lang._scan`` does
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if not sep:
            problems.append(f"line {lineno}: expected '<key>: ...', got {raw.strip()!r}")
            continue
        if key == "primary":
            names = [p.strip() for p in rest.split(",")]
            if len(names) != 2 or not all(names):
                problems.append(f"line {lineno}: expected 'primary: <negative>, <positive>'")
            elif primaries is not None:
                problems.append(f"line {lineno}: duplicate primary declaration")
            else:
                primaries = (names[0], names[1])
        elif key == "hedge":
            parts = rest.split()
            opts = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
            if (
                len(parts) != 3
                or set(opts) != {"class", "rank"}
                or opts["class"] not in ("+", "-")
            ):
                problems.append(
                    f"line {lineno}: expected 'hedge: <name> class=<+|-> rank=<int>'"
                )
                continue
            try:
                rank = int(opts["rank"])
            except ValueError:
                problems.append(f"line {lineno}: rank must be an integer")
                continue
            hedges.append(HedgeDecl(parts[0], opts["class"] == "+", rank))
        elif key in ("positive", "negative"):
            head, arrow, targets = rest.partition("->")
            if not arrow:
                problems.append(f"line {lineno}: expected '{key}: <hedge> -> <list>'")
                continue
            modifier = head.strip()
            flag = key == "positive"
            for target in (t.strip() for t in targets.split(",")):
                if not target:
                    problems.append(f"line {lineno}: empty target in {key} list")
                    continue
                pair = (modifier, target)
                if pair in positivity and positivity[pair] != flag:
                    problems.append(
                        f"line {lineno}: {modifier!r} w.r.t. {target!r} already declared "
                        f"{'positive' if positivity[pair] else 'negative'} "
                        f"on line {pos_lines[pair]}"
                    )
                positivity[pair] = flag
                pos_lines.setdefault(pair, lineno)
        elif key == "limit":
            try:
                limit = int(rest)
            except ValueError:
                problems.append(f"line {lineno}: limit must be an integer")
        elif key == "inverse":
            parts = rest.split(None, 1)
            src, arrow, dst = (parts[1] if len(parts) > 1 else "").partition("->")
            if len(parts) < 2 or not arrow:
                problems.append(
                    f"line {lineno}: expected 'inverse: <hedge> <literal> -> <literal>'"
                )
                continue
            overrides.append(InverseOverride(parts[0], src.strip(), dst.strip(), lineno))
        else:
            problems.append(f"line {lineno}: unknown declaration {key!r}")

    if primaries is None:
        problems.append("missing 'primary:' declaration")
    if limit is None:
        problems.append("missing 'limit:' declaration")
    if problems:
        raise AlgebraError(problems)
    assert primaries is not None and limit is not None
    spec = HedgeAlgebraSpec(primaries[0], primaries[1], tuple(hedges), positivity, limit)
    return spec, tuple(overrides)


def read_text(path: str | Path) -> str:
    """A file's text, less one leading byte-order mark.  A file that is not
    UTF-8 cannot be read, as a missing one cannot: the ``OSError`` names it."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text, byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        raise OSError(errno.EILSEQ, reason, str(path)) from None


def read_algebra_config(*paths: str | Path | None) -> tuple[str, str | Path | None]:
    """Text and path of the first config file named (``None`` names none),
    else the built-in default and None."""
    for path in paths:
        if path is not None:
            return read_text(path), path
    return DEFAULT_ALGEBRA_CONFIG, None


def load_algebra_config(text: str):
    """Parse, validate and enumerate in one go.

    Returns ``(algebra, domain, overrides)``; the overrides still carry raw
    literals and are resolved by the inverse-table builder.
    """
    spec, overrides = parse_algebra_config(text)
    algebra = build_algebra(spec)
    return algebra, enumerate_domain(algebra), overrides


# Default algebra: two strengthening and two weakening hedges over
# false < true, hedge strings capped at two words.
DEFAULT_ALGEBRA_CONFIG = """\
% Default linguistic truth algebra over false < true.
% "very" and "more" strengthen a term, "probably" and "little" weaken it.
primary: false, true
hedge: very class=+ rank=2
hedge: more class=+ rank=1
hedge: probably class=- rank=1
hedge: little class=- rank=2
positive: very -> very, more, little
negative: very -> probably
positive: more -> very, more, little
negative: more -> probably
positive: probably -> probably
negative: probably -> very, more, little
positive: little -> probably
negative: little -> very, more, little
limit: 2
"""
