"""Built-in corpus of small algebras used by the test suites and the CLI."""

from __future__ import annotations

import itertools
import os

from .algebra import FiniteAlgebra, Operation, render_algebra
from .report import json_text


def _op(name, arity, size, fn):
    table = tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))
    return Operation(name, arity, table)


def _cyclic(name, n):
    return FiniteAlgebra(name, n, [_op("+", 2, n, lambda a, b: (a + b) % n)])


def _klein():
    return FiniteAlgebra("v4", 4, [_op("+", 2, 4, lambda a, b: a ^ b)])


def _chain(name, n):
    ops = [
        _op("meet", 2, n, min),
        _op("join", 2, n, max),
        Operation("bot", 0, (0,)),
        Operation("top", 0, (n - 1,)),
    ]
    return FiniteAlgebra(name, n, ops)


def _square_lattice():
    # carrier encodes pairs over the 2-chain as 2a + b
    def meet(p, q):
        return ((p // 2) & (q // 2)) * 2 + ((p % 2) & (q % 2))

    def join(p, q):
        return ((p // 2) | (q // 2)) * 2 + ((p % 2) | (q % 2))

    ops = [
        _op("meet", 2, 4, meet),
        _op("join", 2, 4, join),
        Operation("bot", 0, (0,)),
        Operation("top", 0, (3,)),
    ]
    return FiniteAlgebra("lat22", 4, ops)


def _boole2():
    ops = [
        _op("and", 2, 2, lambda a, b: a & b),
        _op("or", 2, 2, lambda a, b: a | b),
        _op("not", 1, 2, lambda a: 1 - a),
        Operation("0", 0, (0,)),
        Operation("1", 0, (1,)),
    ]
    return FiniteAlgebra("boole2", 2, ops)


def _semilat2():
    ops = [
        _op("*", 2, 2, lambda a, b: a & b),
        Operation("0", 0, (0,)),
        Operation("1", 0, (1,)),
    ]
    return FiniteAlgebra("semilat2", 2, ops)


def _z4ring():
    ops = [
        _op("add", 2, 4, lambda a, b: (a + b) % 4),
        _op("mul", 2, 4, lambda a, b: (a * b) % 4),
        _op("neg", 1, 4, lambda a: (-a) % 4),
        Operation("0", 0, (0,)),
        Operation("1", 0, (1,)),
    ]
    return FiniteAlgebra("z4ring", 4, ops)


def _one():
    return FiniteAlgebra("one", 1, [])


_BUILDERS = {
    "z2": lambda: _cyclic("z2", 2),
    "z3": lambda: _cyclic("z3", 3),
    "z4": lambda: _cyclic("z4", 4),
    "v4": _klein,
    "chain2": lambda: _chain("chain2", 2),
    "chain3": lambda: _chain("chain3", 3),
    "lat22": _square_lattice,
    "boole2": _boole2,
    "semilat2": _semilat2,
    "z4ring": _z4ring,
    "one": _one,
}

CORPUS_NAMES = tuple(sorted(_BUILDERS))


def corpus_algebra(name: str) -> FiniteAlgebra:
    return _BUILDERS[name]()


def corpus() -> dict:
    return {name: corpus_algebra(name) for name in CORPUS_NAMES}


def write_corpus(directory: str) -> list:
    """Write every corpus algebra as a JSON file; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in CORPUS_NAMES:
        doc = render_algebra(corpus_algebra(name))
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(json_text(doc) + "\n")
        paths.append(path)
    return paths


if __name__ == "__main__":
    for p in write_corpus("corpus"):
        print(p)
