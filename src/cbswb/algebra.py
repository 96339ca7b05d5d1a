"""Finite algebras with explicitly tabulated operations.

An algebra is a carrier {0, .., n-1} together with finitely many named
operations, each stored as a flat table in mixed-radix order: the value of
f(i1, .., ik) sits at flat index i1*n^(k-1) + .. + ik.  Everything built on
top (products, quotients, congruence lattices, the CBS machinery) reduces
to lookups in these tables.

On a carrier of at most BYTE_CARRIER (256) elements every table is a bytes
object, one byte per cell; larger carriers keep tuples of ints.  Only
cell_type, compose, concat and gather know which, and every table kernel
(the homomorphism check, products, quotients, relabelings) is written once
on top of them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import FormatError, ValidationError, over_budget

DEFAULT_EVAL_BUDGET = 10_000_000
# the largest carrier whose tables are bytes: every element fits in one byte
BYTE_CARRIER = 256
DEFAULT_ISO_CAP = 10
# parse_term's nesting limit: the term walkers recurse once per level
MAX_TERM_DEPTH = 256


class Operation(NamedTuple):
    name: str
    arity: int
    # flat, length size**arity, of cell_type(size) (FiniteAlgebra converts
    # any sequence); compose, concat and gather build new tables
    table: bytes | tuple


class FiniteAlgebra:
    """Immutable finite algebra over carrier 0..size-1.

    This constructor, and so parse_algebra, checks every cell.  The library's
    product, power, quotient, relabel and quasi-cyclic truncation map checked
    tables into range and build through _built, which checks nothing.
    """

    def __init__(self, name: str, size: int, ops: Sequence[Operation]):
        if not isinstance(name, str) or not name:
            raise ValidationError("algebra name must be a nonempty string")
        if not isinstance(size, int) or size < 1:
            raise ValidationError("algebra size must be a positive integer")
        seen = set()
        for op in ops:
            if op.name in seen:
                raise ValidationError(f"duplicate operation name {op.name!r}")
            seen.add(op.name)
            if op.arity < 0:
                raise ValidationError(f"operation {op.name!r} has negative arity")
            table = op.table
            # size ** arity > 2 ** arity > len(table) past its bit length: no power taken
            if size > 1 and op.arity > len(table).bit_length() or len(table) != size ** op.arity:
                raise ValidationError(
                    f"operation {op.name!r}: table length {len(table)}, expected {size}^{op.arity}"
                )
            _check_range(table, size, lambda v: (
                f"operation {op.name!r}: table entry {v!r} out of range 0..{size - 1}"))
        self._fields(name, size, ops)

    @classmethod
    def _built(cls, name: str, size: int, ops: Sequence[Operation]) -> "FiniteAlgebra":
        """An algebra on tables built from checked tables by maps into range."""
        A = cls.__new__(cls)
        A._fields(name, size, ops)
        return A

    def _fields(self, name, size, ops):
        self.name = name
        self.size = size
        cells = cell_type(size)
        self.ops = tuple(op if type(op.table) is cells else Operation(op.name, op.arity, cells(op.table))
                         for op in ops)
        self._by_name = {op.name: op for op in self.ops}
        self._hash = None
        # Con(A), kept by congruence.all_congruences on first enumeration
        self._con = None

    def signature(self) -> tuple:
        return tuple((op.name, op.arity) for op in self.ops)

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown operation {name!r} in algebra {self.name!r}")

    def apply(self, name: str, *args: int) -> int:
        op = self.op(name)
        if len(args) != op.arity:
            raise ValidationError(
                f"operation {name!r} has arity {op.arity}, got {len(args)} arguments"
            )
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    def same_tables(self, other: "FiniteAlgebra") -> bool:
        """Structural equality that ignores the display name."""
        return self.size == other.size and self.ops == other.ops

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return self.name == other.name and self.size == other.size and self.ops == other.ops

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.name, self.size, self.ops))
        return self._hash

    def __repr__(self):
        sig = ",".join(f"{n}/{a}" for n, a in self.signature())
        return f"FiniteAlgebra({self.name!r}, size={self.size}, sig=[{sig}])"


def _check_range(values: Sequence[int], size: int, message) -> None:
    """ValidationError(message(v)) for the first v of values that is not an int
    in range(size).  One pass over types, min and max decides; the element
    loop names the bad entry, admits int subclasses and refuses bools."""
    if set(map(type, values)) != {int} or min(values) < 0 or max(values) >= size:
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < size):
                raise ValidationError(message(v))


def cell_type(size: int) -> type:
    """The type of every operation table of an algebra of the given size."""
    return bytes if size <= BYTE_CARRIER else tuple


def _byte_map(mapping: Sequence[int]) -> bytes:
    """mapping, whose domain and values lie below BYTE_CARRIER, as a
    bytes.translate table: bytes outside its domain map to 0."""
    return bytes(mapping).ljust(BYTE_CARRIER, b"\0")


def compose(cells, mapping: Sequence[int], size: int):
    """mapping[c] for every cell c of cells, as a cell_type(size) table.
    mapping's domain is the carrier of cells, so bytes cells never meet a
    map of more than BYTE_CARRIER entries."""
    if type(cells) is bytes and size <= BYTE_CARRIER:
        return cells.translate(_byte_map(mapping))
    return cell_type(size)(_getter(cells)(mapping))


def concat(rows: Iterable, cells: type):
    """The rows, tables of type cells, joined into one table of that type."""
    if cells is bytes:
        return b"".join(rows)
    # list += takes each row's length, which a tuple of an iterator cannot
    out = []
    for row in rows:
        out += row
    return tuple(out)


def image_indices(mapping: Sequence[int], arity: int, size: int) -> list:
    """Flat index of (mapping[a1], .., mapping[ak]) in an arity-k table over
    a carrier of the given size, for every (a1, .., ak) over the domain of
    mapping in table order."""
    row = [0]
    for _ in range(arity):
        row = [i * size + v for i in row for v in mapping]
    return row


def _getter(indices: Sequence[int]):
    """itemgetter over indices that returns a tuple even for a single index."""
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def gather(table, mapping: Sequence[int], arity: int, size: int):
    """table[i] at every i of image_indices(mapping, arity, size), in table
    order, as a table of table's type.

    The cells whose first arity-1 arguments have the image prefix p form the
    row table[p*size:(p+1)*size]; each distinct row is gathered once at the
    last argument, and the rows are joined in prefix order.
    """
    if arity == 0:
        return table
    prefixes = image_indices(mapping, arity - 1, size)
    if type(table) is bytes:
        # each row by one translate here: a compose call per row is slower
        keys = bytes(mapping)
        rows = {p: keys.translate(table[p * size:(p + 1) * size].ljust(BYTE_CARRIER, b"\0"))
                for p in set(prefixes)}
    else:
        pick = _getter(mapping)
        rows = {p: pick(table[p * size:(p + 1) * size]) for p in set(prefixes)}
    return concat(map(rows.__getitem__, prefixes), type(table))


def table_args(arity: int, size: int, idx: int) -> tuple:
    """Argument tuple stored at flat index idx of an arity-k table."""
    return tuple(idx // size ** (arity - 1 - pos) % size for pos in range(arity))


def parse_algebra(doc) -> FiniteAlgebra:
    """Build a FiniteAlgebra from a JSON document (dict or JSON text).

    Expected shape::

        {"name": str, "size": n,
         "operations": [{"name": str, "arity": k, "table": ...}, ...]}

    Arity-0 tables may be a bare element or a singleton list.  Arity-2
    tables may be given as n lists of n (row = first argument).  Arities
    3 and up require the flat form.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, undecodable bytes and overlong integers
            raise FormatError(f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    for key in ("name", "size", "operations"):
        if key not in doc:
            raise FormatError(f"algebra document missing {key!r}")
    name = doc["name"]
    size = doc["size"]
    if not isinstance(size, int) or isinstance(size, bool):
        raise FormatError("algebra size must be an integer")
    if not isinstance(doc["operations"], list):
        raise FormatError("operations must be a list")
    ops = []
    for entry in doc["operations"]:
        if not isinstance(entry, dict):
            raise FormatError("each operation must be an object")
        for key in ("name", "arity", "table"):
            if key not in entry:
                raise FormatError(f"operation entry missing {key!r}")
        oname, arity, table = entry["name"], entry["arity"], entry["table"]
        if not isinstance(oname, str):
            raise FormatError("operation name must be a string")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise FormatError(f"operation {oname!r}: arity must be a nonnegative integer")
        flat = _flatten_table(oname, arity, size, table)
        ops.append(Operation(oname, arity, flat))
    return FiniteAlgebra(name, size, ops)


def _flatten_table(oname, arity, size, table):
    if arity == 0:
        if isinstance(table, int) and not isinstance(table, bool):
            return (table,)
        if isinstance(table, list) and len(table) == 1:
            table = table[0]
            if isinstance(table, int) and not isinstance(table, bool):
                return (table,)
        raise FormatError(f"operation {oname!r}: arity-0 table must be a single element")
    if arity == 2 and isinstance(table, list) and table and isinstance(table[0], list):
        if len(table) != size or any(not isinstance(r, list) or len(r) != size for r in table):
            raise ValidationError(f"operation {oname!r}: nested table must be {size}x{size}")
        return tuple(v for row in table for v in row)
    if not isinstance(table, list) or any(isinstance(v, list) for v in table):
        raise FormatError(
            f"operation {oname!r}: arity {arity} requires a flat table"
            + (" (nested rows only allowed at arity 2)" if arity >= 3 else "")
        )
    return tuple(table)


def render_algebra(A: FiniteAlgebra) -> dict:
    """Inverse of parse_algebra, with arity-2 tables rendered as rows."""
    ops = []
    for op in A.ops:
        if op.arity == 0:
            table = op.table[0]
        elif op.arity == 2:
            n = A.size
            table = [list(op.table[i * n : (i + 1) * n]) for i in range(n)]
        else:
            table = list(op.table)
        ops.append({"name": op.name, "arity": op.arity, "table": table})
    return {"name": A.name, "size": A.size, "operations": ops}


# ---------------------------------------------------------------------------
# terms and sentences


class Term(NamedTuple):
    head: str
    args: tuple = ()
    is_var: bool = False

    @staticmethod
    def var(name: str) -> "Term":
        return Term(name, (), True)

    @staticmethod
    def app(op: str, args: Iterable["Term"] = ()) -> "Term":
        return Term(op, tuple(args), False)

    def variables(self) -> tuple:
        """Variable names in first-occurrence order."""
        out = []

        def walk(t):
            if t.is_var:
                if t.head not in out:
                    out.append(t.head)
            else:
                for s in t.args:
                    walk(s)

        walk(self)
        return tuple(out)

    def render(self) -> str:
        if self.is_var or not self.args:
            return self.head
        return "(" + " ".join([self.head] + [a.render() for a in self.args]) + ")"


def _tokenize_sexpr(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(text: str, signature=None) -> Term:
    """Parse a prefix s-expression like ``(+ x (+ y y))``.

    With a signature, atoms naming arity-0 operations become constants;
    every other atom is a variable and must be an identifier.  Nesting
    deeper than MAX_TERM_DEPTH parentheses is a FormatError.
    """
    tokens = _tokenize_sexpr(text)
    if not tokens:
        raise FormatError("empty term")
    pos = 0

    nullary = set()
    arities = {}
    if signature is not None:
        for n, a in signature:
            arities[n] = a
            if a == 0:
                nullary.add(n)

    def atom(tok):
        if tok in nullary:
            return Term.app(tok)
        if tok in arities and arities[tok] > 0:
            raise FormatError(f"operation {tok!r} of arity {arities[tok]} used without arguments")
        if not tok.replace("_", "").isalnum() or tok[0].isdigit():
            raise FormatError(f"bad variable name {tok!r}")
        return Term.var(tok)

    def read(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unexpected end of term")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise FormatError("unexpected ')'")
        if tok != "(":
            return atom(tok)
        if depth == MAX_TERM_DEPTH:
            raise FormatError(f"term nested deeper than {MAX_TERM_DEPTH} levels")
        if pos >= len(tokens):
            raise FormatError("unexpected end of term")
        head = tokens[pos]
        pos += 1
        if head in ("(", ")"):
            raise FormatError("operation name expected after '('")
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(read(depth + 1))
        if pos >= len(tokens):
            raise FormatError("missing ')'")
        pos += 1
        if signature is not None:
            if head not in arities:
                raise FormatError(f"unknown operation {head!r}")
            if arities[head] != len(args):
                raise FormatError(
                    f"operation {head!r} has arity {arities[head]}, got {len(args)} arguments"
                )
        return Term.app(head, args)

    term = read(0)
    if pos != len(tokens):
        raise FormatError("trailing tokens after term")
    return term


def compile_term(A: FiniteAlgebra, term: Term, variables: Sequence[str]):
    """term as a function of a tuple of values, one per name in variables.

    One walk checks every operation and arity against A, a node before its
    arguments, and every variable against variables.  A variable becomes an
    itemgetter, and an operation folds its argument values into the flat
    index of its table.
    """
    if term.is_var:
        if term.head not in variables:
            raise ValidationError(f"unbound variable {term.head!r}")
        return itemgetter(variables.index(term.head))
    op = A.op(term.head)
    if op.arity != len(term.args):
        raise ValidationError(
            f"operation {term.head!r} has arity {op.arity}, got {len(term.args)} arguments"
        )
    table, n = op.table, A.size
    args = [compile_term(A, s, variables) for s in term.args]

    def fold(values):
        i = 0
        for f in args:
            i = i * n + f(values)
        return table[i]

    return fold


class Sentence(NamedTuple):
    """Universally quantified equation or quasi-equation.

    premises is a tuple of (lhs, rhs) term pairs; empty for a plain
    equation.  The sentence holds under an assignment when some premise
    fails or the conclusion holds.
    """

    premises: tuple
    lhs: Term
    rhs: Term

    def variables(self) -> tuple:
        out = []
        for s, t in list(self.premises) + [(self.lhs, self.rhs)]:
            for v in s.variables() + t.variables():
                if v not in out:
                    out.append(v)
        return tuple(out)

    def render(self) -> str:
        eq = f"{self.lhs.render()} = {self.rhs.render()}"
        if not self.premises:
            return eq
        pre = " & ".join(f"{s.render()} = {t.render()}" for s, t in self.premises)
        return f"{pre} => {eq}"


def parse_sentence(text: str, signature=None) -> Sentence:
    """Parse ``s = t`` or ``p1 = q1 & p2 = q2 => s = t``."""

    def equation(part):
        pieces = part.split("=")
        if len(pieces) != 2:
            raise FormatError(f"expected a single '=' in {part.strip()!r}")
        return parse_term(pieces[0], signature), parse_term(pieces[1], signature)

    if "=>" in text:
        pre_text, _, conc_text = text.partition("=>")
        premises = tuple(equation(p) for p in pre_text.split("&"))
        lhs, rhs = equation(conc_text)
        return Sentence(premises, lhs, rhs)
    lhs, rhs = equation(text)
    return Sentence((), lhs, rhs)


def satisfies(A: FiniteAlgebra, sentences, budget: int = DEFAULT_EVAL_BUDGET):
    """Exhaustively check universal sentences; returns (holds, witness).

    The witness names the failing sentence and assignment, or is None.
    Enumeration over n**m assignments is refused once it exceeds the
    budget (default 10**7).
    """
    for idx, sent in enumerate(sentences):
        names = sent.variables()
        *premises, (lhs, rhs) = [(compile_term(A, s, names), compile_term(A, t, names))
                                 for s, t in (*sent.premises, (sent.lhs, sent.rhs))]
        count = A.size ** len(names)
        if count > budget:
            raise over_budget("term evaluation", "assignments", count, budget, "assignment")
        for values in itertools.product(range(A.size), repeat=len(names)):
            # the premises are read only where the conclusion fails
            if lhs(values) != rhs(values) and all(s(values) == t(values) for s, t in premises):
                return False, {"sentence": idx, "rendered": sent.render(),
                               "assignment": dict(zip(names, values))}
    return True, None


# ---------------------------------------------------------------------------
# homomorphisms


class Homomorphism:
    """Total map between algebras of the same signature.

    This constructor checks the map on every cell.  Inverses and composites
    of homomorphisms are homomorphisms, so inverse and compose build through
    _built, which checks nothing.
    """

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]):
        if source.signature() != target.signature():
            raise ValidationError(
                f"signature mismatch: {source.name!r} vs {target.name!r}"
            )
        mapping = tuple(mapping)
        if len(mapping) != source.size:
            raise ValidationError("mapping length differs from source size")
        _check_range(mapping, target.size, lambda v: f"mapping value {v!r} out of range")
        # equal signatures list the same operations in the same order
        for op, op_t in zip(source.ops, target.ops):
            # m(f(a1, .., ak)) against f(m(a1), .., m(ak)), in table order
            lhs_row = compose(op.table, mapping, target.size)
            rhs_row = gather(op_t.table, mapping, op.arity, target.size)
            if lhs_row != rhs_row:
                i = next(i for i, (lhs, rhs) in enumerate(zip(lhs_row, rhs_row)) if lhs != rhs)
                raise ValidationError(
                    f"map does not preserve {op.name!r} at {table_args(op.arity, source.size, i)}: "
                    f"{lhs_row[i]} != {rhs_row[i]}"
                )
        self.source = source
        self.target = target
        self.mapping = mapping

    @classmethod
    def _built(cls, source: FiniteAlgebra, target: FiniteAlgebra,
               mapping: Sequence[int]) -> "Homomorphism":
        """A map derived from checked homomorphisms, onto tables known to match."""
        h = cls.__new__(cls)
        h.source, h.target, h.mapping = source, target, tuple(mapping)
        return h

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(set(self.mapping)) == self.source.size

    def inverse(self) -> "Homomorphism":
        if not self.is_bijective():
            raise ValidationError("map is not bijective")
        inv = [0] * self.target.size
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return Homomorphism._built(self.target, self.source, inv)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self after inner (inner applies first)."""
        if not inner.target.same_tables(self.source):
            raise ValidationError("composition domains do not match")
        return Homomorphism._built(inner.source, self.target, [self.mapping[y] for y in inner.mapping])

    def __eq__(self, other):
        if not isinstance(other, Homomorphism):
            return NotImplemented
        return (
            self.mapping == other.mapping
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return hash((self.source.name, self.target.name, self.mapping))

    def __repr__(self):
        return f"Homomorphism({self.source.name!r} -> {self.target.name!r}, {list(self.mapping)})"


# ---------------------------------------------------------------------------
# products, quotients, relabelings


def _product_ops(opsa, na: int, opsb, nb: int) -> list:
    """Operations of the product of two carriers of sizes na and nb whose
    operations have one signature, (a, b) encoded as a*nb + b, with tables
    of cell_type(na * nb)."""
    n = na * nb
    left = [p // nb for p in range(n)]
    right = list(range(nb)) * na
    # a list, as an itemgetter reads a range by building each int anew
    scale = list(range(0, n, nb))
    ops = []
    for opa, opb in zip(opsa, opsb):
        # A's table scaled by nb into cell_type(n) before the gather, which
        # only reorders cells and keeps the type, plus B's
        a = gather(compose(opa.table, scale, n), left, opa.arity, na)
        b = gather(opb.table, right, opa.arity, nb)
        if type(a) is bytes:
            # each cell sum a*nb + b is below 256, so the tables add as big
            # integers with no carry across cells
            cells = (int.from_bytes(a, "big") + int.from_bytes(b, "big")).to_bytes(len(a), "big")
        else:
            cells = tuple(map(add, a, b))
        ops.append(Operation(opa.name, opa.arity, cells))
    return ops


def direct_product(A: FiniteAlgebra, B: FiniteAlgebra, name: Optional[str] = None) -> FiniteAlgebra:
    """Componentwise product; element (a, b) is encoded as a*|B| + b."""
    if A.signature() != B.signature():
        raise ValidationError("product factors must share a signature")
    return FiniteAlgebra._built(name or f"{A.name}x{B.name}", A.size * B.size,
                                _product_ops(A.ops, A.size, B.ops, B.size))


def power_algebra(A: FiniteAlgebra, m: int, name: Optional[str] = None) -> FiniteAlgebra:
    """Direct power A^m with coordinate 0 most significant in the encoding."""
    if m < 1:
        raise ValidationError("power exponent must be >= 1")
    # A^(j+1) = A^j x A: the new coordinate is the least significant one
    ops, n = A.ops, A.size
    for _ in range(m - 1):
        ops, n = _product_ops(ops, n, A.ops, A.size), n * A.size
    return FiniteAlgebra._built(name or f"{A.name}^{m}", n, ops)


def _quotient_name(A: FiniteAlgebra, blocks) -> str:
    if A.size <= 10:
        return f"{A.name}/" + "|".join("".join(str(x) for x in b) for b in blocks)
    digest = hashlib.md5(repr(blocks).encode()).hexdigest()[:8]
    return f"{A.name}/{len(blocks)}b.{digest}"


class Quotient(NamedTuple):
    algebra: FiniteAlgebra
    projection: Homomorphism


def _image(A: FiniteAlgebra, name: str, section: Sequence[int], projection: Sequence[int]):
    """The algebra on range(len(section)) whose f(i1, .., ik) is projection applied to
    A's f(section[i1], .., section[ik]), and the projection checked as a map onto it.
    Its tables are not cell-checked: projection must take values in that range."""
    B = FiniteAlgebra._built(name, len(section), [
        Operation(op.name, op.arity,
                  compose(gather(op.table, section, op.arity, A.size), projection, len(section)))
        for op in A.ops
    ])
    return B, Homomorphism(A, B, projection)


def quotient_algebra(A: FiniteAlgebra, theta) -> Quotient:
    """Quotient modulo a congruence, blocks ordered by least element.

    Returns the quotient algebra together with the natural projection.  The
    quotient by the diagonal has A's tables and the identity projection,
    which no check can reject.
    """
    if theta.algebra != A:
        raise ValidationError("congruence does not belong to this algebra")
    blocks = theta.blocks
    name = _quotient_name(A, blocks)
    if theta.is_diagonal():
        B = FiniteAlgebra._built(name, A.size, A.ops)
        return Quotient(B, Homomorphism._built(A, B, range(A.size)))
    # the projection check is what rejects a partition that is not a congruence
    return Quotient(*_image(A, name, [b[0] for b in blocks], theta.block_index()))


def relabel(A: FiniteAlgebra, perm: Sequence[int], name: Optional[str] = None):
    """Isomorphic copy of A along a carrier permutation; returns (copy, iso)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(A.size)):
        raise ValidationError("relabeling must be a permutation of the carrier")
    inv = [0] * A.size
    for x, y in enumerate(perm):
        inv[y] = x
    return _image(A, name or f"{A.name}'", inv, perm)


# ---------------------------------------------------------------------------
# isomorphism search


def _element_labels(A: FiniteAlgebra):
    """Isomorphism-invariant label of every element: per operation, how often
    it occurs as a value and the (tail, cycle) shape of its orbit under the
    diagonal x -> f(x, .., x), stored at flat index x * (1 + n + .. + n^(k-1))."""
    n = A.size
    labels = [[] for _ in range(n)]
    for op in A.ops:
        s = sum(n ** i for i in range(op.arity))
        diag = [op.table[x * s] for x in range(n)]
        for x in range(n):
            seen, cur = {}, x
            while cur not in seen:
                seen[cur] = len(seen)
                cur = diag[cur]
            labels[x].append((op.table.count(x), seen[cur], len(seen) - seen[cur]))
    return [tuple(label) for label in labels]


def _isomorphisms(A: FiniteAlgebra, B: FiniteAlgebra, max_size: int):
    """Every isomorphism A -> B as a mapping tuple, in lexicographic order.
    Each cell is checked when the last of its arguments is assigned, so a
    yielded map is a homomorphism and callers build it through _built."""
    if A.signature() != B.signature() or A.size != B.size:
        return
    if A.size > max_size:
        raise over_budget("isomorphism search", "carrier", A.size, max_size, "element")

    n = A.size
    label_a = _element_labels(A)
    label_b = _element_labels(B)
    if sorted(label_a) != sorted(label_b):
        return
    pools = [[y for y in range(n) if label_b[y] == label] for label in label_a]

    # equal signatures list the same operations in the same order
    tables = [(op.table, op_b.table, op.arity) for op, op_b in zip(A.ops, B.ops)]
    fwd, rev = [-1] * n, [-1] * n
    trail = []  # assigned elements of A, in assignment order

    def assign(a, b):
        """Assign a -> b and all it forces, onto the trail; False on a conflict."""
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            if fwd[x] == y:
                continue
            if fwd[x] >= 0 or rev[y] >= 0 or label_a[x] != label_b[y]:
                return False
            fwd[x], rev[y] = y, x
            trail.append(x)
            # every argument tuple over the assigned elements with its first x
            # at position p (other elements before p, any assigned one after),
            # as flat indices into both tables
            assigned = [(u, fwd[u]) for u in trail]
            for ta, tb, k in tables:
                head = [(0, 0)]
                for p in range(k):
                    if p:
                        head = [(i * n + u, j * n + v) for i, j in head for u, v in assigned[:-1]]
                    cells = [(i * n + x, j * n + y) for i, j in head]
                    for _ in range(k - 1 - p):
                        cells = [(i * n + u, j * n + v) for i, j in cells for u, v in assigned]
                    for i, j in cells:
                        r, rb = ta[i], tb[j]
                        if fwd[r] < 0:
                            queue.append((r, rb))
                        elif fwd[r] != rb:
                            return False
        return True

    for ta, tb, k in tables:
        if k == 0 and not assign(ta[0], tb[0]):
            return

    # branching on the least unassigned element with candidates in ascending
    # order finds the maps in lexicographic order
    def extend():
        if len(trail) == n:
            yield tuple(fwd)
            return
        a = fwd.index(-1)
        mark = len(trail)
        for b in pools[a]:
            if rev[b] < 0 and assign(a, b):
                yield from extend()
            for x in trail[mark:]:
                rev[fwd[x]] = -1
                fwd[x] = -1
            del trail[mark:]

    yield from extend()


def iso_search(A: FiniteAlgebra, B: FiniteAlgebra, max_size: int = DEFAULT_ISO_CAP):
    """The lexicographically least isomorphism A -> B, or None."""
    mapping = next(_isomorphisms(A, B, max_size), None)
    return None if mapping is None else Homomorphism._built(A, B, mapping)
