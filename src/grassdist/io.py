"""Reading and writing subspace files and distance matrices.

A subspace file is JSON:

    {
      "field": "real" | "complex",
      "ambient_dim": n,
      "subspaces": [{"id": "...", "vectors": [[...], ...]}, ...]
    }

Each vector is one spanning row of length n; complex entries are encoded
as two-element ``[re, im]`` arrays to avoid string-parsing ambiguity.
Every entry must be a JSON number (an integer must fit a double); a complex
file may mix real numbers with ``[re, im]`` pairs.  JSON is the canonical
machine format (full precision); CSV is provided for distance matrices only.

Each subspace's vectors take one array conversion when they form a regular
(k, n) array of numbers in a real file, or (k, n, 2) in a complex one, and
the file text holds no ``true`` or ``false`` (numpy would read a boolean as
1 or 0).  Anything else -- mixed reals and pairs, strings, ``null``,
booleans, ragged rows, integers beyond 64 bits -- goes through the
per-scalar validator, which words every rejection.  Both give bit-identical
bases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import DEFAULT_TOL, Field, Tolerance
from .subspace import Subspace


class SubspaceFileError(ValueError):
    """Malformed subspace file (CLI exit code 2)."""


@dataclass(frozen=True)
class SubspaceFile:
    field: Field
    ambient_dim: int
    subspaces: list[tuple[str, Subspace]]

    def ids(self) -> list[str]:
        return [name for name, _ in self.subspaces]

    def get(self, name: str) -> Subspace:
        for sid, sub in self.subspaces:
            if sid == name:
                return sub
        raise KeyError(name)


# JSON numbers decode to exactly these types; ``bool`` subclasses ``int``
# but ``true``/``false`` are not numbers, so types are compared exactly.
_NUMBER_TYPES = (int, float)


def _parse_scalar(entry, field: Field):
    try:
        if type(entry) in _NUMBER_TYPES:
            return float(entry)
        if (field is Field.COMPLEX and type(entry) is list and len(entry) == 2
                and type(entry[0]) in _NUMBER_TYPES
                and type(entry[1]) in _NUMBER_TYPES):
            return complex(entry[0], entry[1])
    except OverflowError as exc:
        raise SubspaceFileError(
            f"entry {entry!r} does not fit a double: {exc}") from exc
    raise SubspaceFileError(f"bad scalar entry {entry!r} for field {field.value}")


def _validated_columns(vectors: list, sid: str, n: int, field: Field) -> np.ndarray:
    """The (n, k) columns of ``vectors``, checked entry by entry."""
    rows = []
    for vec in vectors:
        if not isinstance(vec, list) or len(vec) != n:
            raise SubspaceFileError(
                f"subspace {sid!r}: every vector must have length {n}")
        rows.append([_parse_scalar(x, field) for x in vec])
    return (np.array(rows, dtype=field.dtype).T if rows
            else np.zeros((n, 0), dtype=field.dtype))


def _array_columns(vectors: list, n: int, field: Field) -> np.ndarray | None:
    """The (n, k) columns of ``vectors`` from one array conversion, or None
    when they are not a regular array of numbers.  numpy infers the dtype,
    so strings and ``null`` fall out as non-numeric kinds and integers
    beyond 64 bits as objects; the caller must rule out booleans."""
    try:
        a = np.asarray(vectors)
    except ValueError:   # ragged: mixed reals and pairs, or bad lengths
        return None
    shape = (len(vectors), n) + ((2,) if field is Field.COMPLEX else ())
    if a.dtype.kind not in "fiu" or a.shape != shape:
        return None
    a = a.astype(np.float64, copy=False)
    if field is Field.COMPLEX:
        # reinterpret the [re, im] pairs; re + 1j * im would turn a -0.0
        # real part into +0.0
        a = a.view(np.complex128)[..., 0]
    return a.T


def parse_subspace_file(text: str, tol: Tolerance = DEFAULT_TOL) -> SubspaceFile:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the interpreter's digit limit,
        # or nesting too deep for the decoder
        raise SubspaceFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SubspaceFileError("top level must be an object")
    try:
        field = Field(doc["field"])
        n = doc["ambient_dim"]
        entries = doc["subspaces"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SubspaceFileError(f"missing or malformed header field: {exc}") from exc
    if type(n) is not int:
        raise SubspaceFileError(f"ambient_dim must be an integer, got {n!r}")
    if n < 1:
        raise SubspaceFileError("ambient_dim must be positive")
    if not isinstance(entries, list) or not entries:
        raise SubspaceFileError("need at least one subspace")
    may_hold_bool = "true" in text or "false" in text
    out: list[tuple[str, Subspace]] = []
    seen: set[str] = set()
    for item in entries:
        try:
            sid = str(item["id"])
            vectors = item["vectors"]
        except (KeyError, TypeError) as exc:
            raise SubspaceFileError(f"malformed subspace entry: {exc}") from exc
        if sid in seen:
            raise SubspaceFileError(f"duplicate subspace id {sid!r}")
        if not isinstance(vectors, list):
            raise SubspaceFileError(f"subspace {sid!r}: vectors must be a list")
        seen.add(sid)
        cols = None if may_hold_bool else _array_columns(vectors, n, field)
        if cols is None:
            cols = _validated_columns(vectors, sid, n, field)
        try:
            sub = Subspace.from_columns(cols, field, tol)
        except DimensionError as exc:
            raise SubspaceFileError(f"subspace {sid!r}: {exc}") from exc
        out.append((sid, sub))
    return SubspaceFile(field, n, out)


def load_subspace_file(path, tol: Tolerance = DEFAULT_TOL) -> SubspaceFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SubspaceFileError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_subspace_file(text, tol)


def _encode_scalar(x, field: Field):
    if field is Field.COMPLEX:
        z = complex(x)
        return [z.real, z.imag]
    return float(np.real(x))


def dump_subspace_file(sfile: SubspaceFile) -> str:
    """Serialize; parsing the result reproduces identical bases bit for bit
    (orthonormal bases pass through construction unchanged)."""
    doc = {
        "field": sfile.field.value,
        "ambient_dim": sfile.ambient_dim,
        "subspaces": [
            {"id": sid,
             "vectors": [[_encode_scalar(x, sfile.field) for x in sub.basis[:, j]]
                         for j in range(sub.dim)]}
            for sid, sub in sfile.subspaces
        ],
    }
    return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class DistanceMatrixOutput:
    """A pairwise distance matrix; entry [i][j] is the distance FROM ids[i]
    TO ids[j] (direction convention row->column)."""

    metric: str
    ids: list[str]
    values: np.ndarray
    units: str
    direction_convention: str = "row->column"

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): an infinite entry, such as Martin's, is
        written as ``null``; CSV keeps ``inf``."""
        return json.dumps({
            "metric": self.metric,
            "direction_convention": self.direction_convention,
            "ids": self.ids,
            "values": [[None if x == math.inf else x for x in map(float, row)]
                       for row in self.values],
            "units": self.units,
        }, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        lines = [f"# metric={self.metric} units={self.units} "
                 f"direction={self.direction_convention}"]
        lines.append(",".join(["id"] + self.ids))
        for sid, row in zip(self.ids, self.values):
            lines.append(",".join([sid] + [repr(float(x)) for x in row]))
        return "\n".join(lines) + "\n"
