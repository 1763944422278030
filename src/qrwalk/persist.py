"""Reproducible on-disk artifacts: the P(t) store, tables, JSON reports,
manifests.

Every output directory carries one ``manifest.json`` describing the run
(graph, operator specs, initial state, horizon, thresholds, RNG algorithm
and master seed, tool version); data files reference the manifest by its
hash, which :func:`write_table` stamps as their ``manifest`` metadata.
Floats use shortest round-trip formatting and all row orders are
canonical, so re-running a manifest reproduces files byte for byte.

A sequence is read back only from its array store ``sequence.npz``,
whose members are the arrays a
:class:`~qrwalk.equivalence.TransitionMatrixSeq` holds: the CSC arrays of
the ratio columns of all steps end to end, and the step offsets. So the
writer saves them as they are, and the reader hands them to the
sequence, which checks them once, all steps in one pass per check. The
tables are the human-readable export: CSV (default, with ``# key=value``
comment lines for metadata) or an equivalent JSON document. The
``p_matrix`` table renders the store, so it lists the ratio columns of
P(t) only, for every K: a source not listed at step t had no mass and
moves uniformly, ``1 / d(u)`` to each neighbour. The ``rho`` table lists
the support of rho(t) only, the rows with a non-zero mass: an unlisted
(t, v) has mass exactly 0, and the ``states`` metadata sizes rho(t).

A table holds numbers and plain labels only: 1-d numeric arrays, and
columns of non-empty strings without a comma, a quote, a line break or a
NUL. So no CSV cell is ever quoted, and the bytes are those of
``csv.writer`` with floats in ``repr`` form; the JSON form is that of
``json.dumps``. A label column may also be a bytes array (numpy ``S``
dtype) of ASCII texts, checked as bytes, which reads back as ``str``
(:attr:`Table.rows`, :meth:`CodedColumn.tolist`, the JSON form): the
state labels are made that way
(:meth:`~qrwalk.graphs.ProductGraph.label_texts`), so no ``str`` is made
per label on the CSV path. A table is checked whole before its file is
opened, then written in chunks of :data:`CHUNK_ROWS` rows, so the write's
memory stays that of one chunk.

Both formats have one row writer, :func:`_rows`, and differ only in data
(:data:`_FORMATS`): the texts that end a cell, a row and the table, and
the speller of the values no kernel spells. A chunk is assembled as
packed bytes, with no Python work per row: each distinct cell text, with
the text that ends it, is NUL-padded to whole 8-byte words; one gather
per column lays the chunk's words out row by row; and their non-NUL
bytes, in order, are the chunk's rows (so no cell may hold a NUL). Each
distinct value of a numeric column (by bit pattern) is spelled once per
chunk, with no Python work per value either: an integer by the
package's one digit kernel (``numtext._digits``), a float by its one
vectorised float speller (``numtext._reprs``), which gives ``repr``'s
texts and leaves a chunk of fewer than ``numtext.FLOAT_FLOOR`` distinct
floats, and its zeros, subnormals and non-finite values, to the format's
speller (``str`` for CSV, ``json.dumps`` for JSON). Columns whose cells
repeat a few values (steps, trajectory ids, state labels) are coded
(:class:`CodedColumn`: an int code per cell over an array of values);
their values are spelled once per table, and each chunk only gathers
their words.
"""

from __future__ import annotations

import hashlib
import json
import locale
import re
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .coins import UNITARY_ATOL
from .equivalence import (
    COLUMN_SUM_ERROR,
    ZERO_PROB,
    TransitionMatrixSeq,
)
from .errors import ConfigError, ValidationError
from .graphs import PortGraph, ProductGraph, graph_from_json, graph_hash
from .numtext import _digits, _reprs
from .trajectory import RNG_ALGORITHM, TrajectoryEnsemble
from .walk import NORM_ATOL, CoinSpec, InteractionSpec, ShiftSpec, WaveFunction

__all__ = [
    "RunManifest",
    "Table",
    "CodedColumn",
    "coin_from_json",
    "shift_from_json",
    "interaction_from_json",
    "initial_state_from_json",
    "graph_and_spaces",
    "int_entry",
    "int_list",
    "rho_table",
    "matrix_table",
    "trajectories_table",
    "ensemble_mean_table",
    "tvd_table",
    "write_table",
    "save_sequence",
    "load_sequence",
    "write_json",
]

MANIFEST_NAME = "manifest.json"
STORE_NAME = "sequence.npz"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Everything needed to reproduce a run's outputs bit-identically."""

    command: str
    graph: dict
    graph_sha256: str
    walkers: int = 1
    coin: dict | None = None
    shift: dict | None = None
    interaction: dict | None = None
    initial_state: list | None = None
    horizon: int | None = None
    seed: int | None = None
    rng_algorithm: str = RNG_ALGORITHM
    tool_version: str = __version__
    thresholds: dict = field(default_factory=lambda: {
        "zero_probability": ZERO_PROB,
        "unitary_atol": UNITARY_ATOL,
        "column_sum_error": COLUMN_SUM_ERROR,
        "norm_atol": NORM_ATOL,
    })
    params: dict = field(default_factory=dict)

    def _compact(self) -> str:
        # vars(self) holds exactly the fields; dataclasses.asdict would
        # deep-copy the graph document on every call
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self._compact().encode()).hexdigest()

    def save(self, out_dir: str | Path) -> str:
        """Write the compact form that :attr:`sha256` hashes, plus a
        newline, and return its :attr:`sha256`."""
        compact = self._compact()
        (Path(out_dir) / MANIFEST_NAME).write_text(compact + "\n")
        return hashlib.sha256(compact.encode()).hexdigest()

    @classmethod
    def load(cls, out_dir: str | Path) -> "RunManifest":
        """Read ``out_dir/manifest.json``; a file that is not a manifest's
        JSON object raises :class:`ValidationError`."""
        return cls._read(Path(out_dir) / MANIFEST_NAME)[0]

    @classmethod
    def _read(cls, path: Path) -> tuple["RunManifest", bytes]:
        """The manifest in the file ``path``, as :meth:`load` reads it,
        and the file's bytes."""
        text = path.read_bytes()
        try:
            return cls(**json.loads(text)), text
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{path} holds no valid manifest: {exc}") \
                from None


def manifest_for(config: dict, command: str, base: PortGraph,
                 **params) -> RunManifest:
    return RunManifest(
        command=command,
        graph=config["graph"],
        graph_sha256=graph_hash(base),
        walkers=int_entry(config, "walkers", 1, minimum=1),
        coin=config.get("coin"),
        shift=config.get("shift"),
        interaction=config.get("interaction"),
        initial_state=config.get("initial_state"),
        horizon=config.get("horizon"),
        seed=config.get("seed"),
        params=params,
    )


# ---------------------------------------------------------------------------
# operator and state specs from JSON documents
# ---------------------------------------------------------------------------

@contextmanager
def _reading(what: str) -> Iterator[None]:
    """Report a missing entry or a value of the wrong type or form (a
    string for an object fails by ``AttributeError``) as a ConfigError."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed {what}: {exc!r}") from None


def int_entry(config: dict, key: str, default: int | None,
              minimum: int = 0) -> int | None:
    """The integer entry ``key`` of a config, at least ``minimum``;
    ``default`` when absent, and with a ``None`` default also when null."""
    value = config.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not int or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got "
                          f"{value!r}")
    return value


def int_list(config: dict, key: str, minimum: int = 0) -> list[int]:
    """The non-empty list entry ``key`` of a config, each item an integer
    at least ``minimum`` as :func:`int_entry` reads it."""
    values = config[key]
    if type(values) is not list or not values:
        raise ConfigError(f"{key} must be a non-empty list of integers, "
                          f"got {values!r}")
    return [int_entry({key: v}, key, 0, minimum) for v in values]


def _complex_matrix(rows) -> np.ndarray:
    """Parse a matrix whose entries are numbers or [re, im] pairs."""
    def entry(x):
        if isinstance(x, (list, tuple)):
            return complex(x[0], x[1])
        return complex(x)
    return np.array([[entry(x) for x in row] for row in rows],
                    dtype=np.complex128)


def _scheduled(doc: dict, build: Callable[[dict], object]):
    """``{"schedule": {"0": spec, ...}, "default": spec}`` becomes a
    callable ``t -> spec``; plain documents build the spec directly. Each
    key is an integer step, named by one key only (not ``"1"`` and
    ``"01"``)."""
    if "schedule" not in doc:
        return build(doc)
    table = {int(t): build(sub) for t, sub in doc["schedule"].items()}
    if len(table) < len(doc["schedule"]):
        raise ConfigError("two schedule keys name one step")
    default = build(doc["default"])
    return lambda t: table.get(t, default)


@_reading("coin")
def coin_from_json(doc: dict, graph: PortGraph):
    def build(d: dict) -> CoinSpec:
        kind = d.get("type")
        if kind == "hadamard":
            return CoinSpec.hadamard(graph)
        if kind == "grover":
            return CoinSpec.grover(graph)
        if kind == "identity":
            return CoinSpec.identity(graph)
        if kind == "random-unitary":
            rng = np.random.default_rng(d.get("seed"))
            return CoinSpec.random_unitary(graph, rng)
        if kind == "explicit":
            blocks = [_complex_matrix(b) for b in d["blocks"]]
            return CoinSpec.from_blocks(graph, blocks)
        raise ConfigError(f"unknown coin type {kind!r}")
    return _scheduled(doc, build)


@_reading("shift")
def shift_from_json(doc: dict, graph: PortGraph):
    def build(d: dict) -> ShiftSpec:
        kind = d.get("type")
        if kind in ("flip-flop", "flipflop", "default"):
            return ShiftSpec.flip_flop(graph)
        if kind == "moving":
            return ShiftSpec.moving(graph)
        if kind == "explicit":
            return ShiftSpec(graph, d["permutation"])
        raise ConfigError(f"unknown shift type {kind!r}")
    return _scheduled(doc, build)


@_reading("interaction")
def interaction_from_json(doc: dict | None, pg: ProductGraph):
    if doc is None:
        return None

    def build(d: dict) -> InteractionSpec:
        kind = d.get("type")
        if kind == "identity":
            return InteractionSpec.identity(pg)
        if kind == "coincidence-phase":
            return InteractionSpec.coincidence_phase(pg, float(d["phi"]))
        if kind == "explicit":
            blocks = {tuple(item["vertices"]): _complex_matrix(item["block"])
                      for item in d["tuples"]}
            return InteractionSpec.from_blocks(pg, blocks)
        raise ConfigError(f"unknown interaction type {kind!r}")
    return _scheduled(doc, build)


@_reading("initial_state")
def initial_state_from_json(
    doc: list | None,
    graph: PortGraph | ProductGraph,
) -> WaveFunction:
    """Parse ``[{"vertex": v, "port": c, "re": x, "im": y}, ...]``.

    The default (None) is the localized state on vertex 0, port 0; lists
    in the vertex/port fields address multiple walkers. The state is held
    as its nonzero components, renormalised on load (with a warning
    beyond 1e-8 drift); a vertex or port that is not an integer is refused.
    """
    if doc is None:
        return WaveFunction.localized(graph, 0, 0)
    comps = []
    for item in doc:
        vertex = item["vertex"]
        port = item.get("port", 0)
        amp = complex(item.get("re", 0.0), item.get("im", 0.0))
        vertex = tuple(vertex) if isinstance(vertex, list) else vertex
        port = tuple(port) if isinstance(port, list) else port
        comps.append((vertex, port, amp))
    return WaveFunction.from_components(graph, comps)


def graph_and_spaces(config: dict) -> tuple[PortGraph, ProductGraph, int]:
    """Build the base graph, the walkers' product graph and their count."""
    with _reading("graph"):
        base = graph_from_json(config["graph"])
    walkers = int_entry(config, "walkers", 1, minimum=1)
    return base, ProductGraph(base, walkers), walkers


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodedColumn:
    """A table column whose cells repeat a few values: cell ``i`` is
    ``values[codes[i]]``, both 1-d numpy arrays, the codes integers in
    ``0 .. len(values) - 1`` (else :class:`ValidationError`). ``len``,
    iteration and :meth:`tolist` give the cells."""

    codes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        codes = self.codes
        if not (isinstance(codes, np.ndarray) and codes.ndim == 1
                and codes.dtype.kind in "iu"
                and (not codes.size or codes.min() >= 0
                     and codes.max() < len(self.values))):
            raise ValidationError(
                "a coded column's codes must be a 1-d integer array in "
                f"0 .. {len(self.values) - 1}")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator:
        return iter(self.tolist())

    def tolist(self) -> list:
        return _values(self)


class Table:
    """Header, cells and ``meta`` key/value pairs of one data file.

    Cells are held column by column, as numpy arrays, lists of strings or
    coded columns (:class:`CodedColumn`), so that whole columns are
    formatted at once; a coded column's values are formatted once per
    table, and once for all the columns that share them. ``rows`` is the
    row view, of the cell values.
    """

    def __init__(self, header: Sequence[str], columns: Sequence,
                 meta: dict | None = None):
        self.header = list(header)
        self.columns = list(columns)
        self.meta = dict(meta) if meta else {}
        if len(self.columns) != len(self.header):
            raise ValidationError(f"{len(self.columns)} columns under "
                                  f"{len(self.header)} header cells")
        sizes = [len(c) for c in self.columns]
        if len(set(sizes)) > 1:
            raise ValidationError(f"columns of unequal lengths {sizes}")

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*map(_values, self.columns)))


def _values(column) -> list:
    """The cells of a table column as Python values; the texts of a bytes
    array as ``str``."""
    if isinstance(column, CodedColumn):
        return np.array(_values(column.values), object)[column.codes].tolist()
    if not isinstance(column, np.ndarray):
        return list(column)
    return (column.astype("U") if column.dtype.kind == "S"
            else column).tolist()


#: Rows formatted and written at a time by :func:`write_table`.
CHUNK_ROWS = 1 << 14
#: Characters no text cell may hold: the delimiter, the quote character
#: and both line-break characters, which would need quoting, and NUL, which
#: pads the packed words.
_SPECIAL = re.compile(r'[,"\r\n\0]')
#: The bytes no text of a bytes array may hold: those of :data:`_SPECIAL`
#: but NUL, which pads the array (a NUL inside a text is refused apart),
#: and every byte that is not ASCII.
_SPECIAL_OCTETS = np.array([i > 127 or i > 0 and bool(_SPECIAL.match(chr(i)))
                            for i in range(256)])
#: What tells the formats apart, per format: the text after each cell of a
#: row but the last, after the last cell of each row, and after the last
#: cell of the table; and the speller of the values no kernel spells
#: (bools, texts, and the floats ``numtext._reprs`` leaves to Python).
_FORMATS = {"csv": (",", "\n", "\n", str),
            "json": (", ", "], [", "]", json.dumps)}


def _numeric(part) -> bool:
    return (isinstance(part, np.ndarray) and part.ndim == 1
            and part.dtype.kind in "biuf"
            and part.dtype.itemsize in (1, 2, 4, 8))


def _octets(texts: np.ndarray) -> np.ndarray:
    """The ``(len(texts), itemsize)`` uint8 table of a bytes array."""
    texts = np.ascontiguousarray(texts)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _check_text(part, name: str, encoding: str | None = None) -> None:
    """Raise :class:`ValidationError` unless every cell of ``part``, a
    column that is not numeric, is a non-empty string without a special
    character that, given an ``encoding``, it can hold. A bytes array
    (numpy ``S`` dtype) is checked as bytes: each text must be non-empty
    ASCII, with no NUL before its last byte."""
    if isinstance(part, np.ndarray) and part.dtype.kind == "S":
        octets = _octets(part)
        valid = (octets[:, :1].all() and not _SPECIAL_OCTETS[octets].any()
                 and not ((octets[:, :-1] == 0) & (octets[:, 1:] != 0)).any())
        text = ""  # ASCII, which a locale's encoding holds
    else:
        values = part.tolist() if isinstance(part, np.ndarray) else list(part)
        valid = set(map(type, values)) <= {str} and all(values)
        text = "".join(values) if valid else ""
        valid = valid and not _SPECIAL.search(text)
    if not valid:
        raise ValidationError(
            f"{name} holds a cell that is neither a number nor a non-empty "
            "string without a comma, a quote, a line break or a NUL")
    if encoding is not None:
        try:
            text.encode(encoding)
        except UnicodeEncodeError:
            raise ValidationError(f"{name} holds a cell that the encoding "
                                  f"{encoding} cannot hold") from None


def _cells(part, spell: Callable[[object], str],
           encoding: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cell texts of a slice of a checked column, as a 2-d
    uint8 table with one text per row, whose non-NUL bytes are the text,
    and the index of each cell's text among them.

    A numeric array spells each distinct bit pattern once (so ``-0.0``
    and ``0.0`` stay apart), in ASCII: integers by :func:`_digits`, floats
    by :func:`~qrwalk.numtext._reprs`, whose texts are those of ``repr``
    but for the values it leaves to ``spell``, and bools by ``spell``.
    Other cells are spelled by ``spell`` each, in ``encoding``: ``str``
    leaves a text as it is, so a bytes array (the state labels) is then its
    own ASCII text, with no Python work per cell.
    """
    if _numeric(part):
        distinct, codes = np.unique(part.view(f"u{part.dtype.itemsize}"),
                                    return_inverse=True)
        part = distinct.view(part.dtype)
        if part.dtype.kind in "iu":
            return _digits(part), codes
        if part.dtype.kind == "f":
            return _reprs(part, spell), codes
    else:
        codes = np.arange(len(part))
        if spell is str and isinstance(part, np.ndarray) \
                and part.dtype.kind == "S":
            return _octets(part), codes
    return _octets(np.array([spell(value).encode(encoding)
                             for value in _values(part)], dtype="S")), codes


def _words(octets: np.ndarray, end: str) -> np.ndarray:
    """The ``(len(octets), w)`` uint64 table of a table of NUL-padded
    texts: each row and then ``end`` (ASCII), NUL-padded to ``w`` whole
    8-byte words (the NULs between a text and its ``end`` are dropped with
    the others)."""
    width = octets.shape[1] + len(end)
    words = np.zeros((len(octets), -(-width // 8) * 8), np.uint8)
    words[:, :octets.shape[1]] = octets
    words[:, octets.shape[1]:width] = np.frombuffer(end.encode(), np.uint8)
    return words.view(np.uint64)


def _rows(columns: Sequence, size: int, fmt: str,
          encoding: str) -> Iterator[bytes]:
    """The bytes of rows 0 to ``size - 1`` of checked columns in format
    ``fmt`` (:data:`_FORMATS`), :data:`CHUNK_ROWS` rows at a time: each
    column's word table (:func:`_words`) gathered by code side by side, one
    ``(rows, words)`` array per chunk, whose bytes, with every NUL deleted
    by ``bytes.translate``, are the chunk's rows. The word table of a coded
    column's values is made once per distinct values array and separator,
    so columns that share their values (the ``u`` and ``v`` labels of
    :func:`matrix_table`) share one table."""
    sep, end, last, spell = _FORMATS[fmt]
    ends = [sep] * (len(columns) - 1) + [end]
    tables = {}
    for c, e in zip(columns, ends):
        if isinstance(c, CodedColumn) and (id(c.values), e) not in tables:
            octets, inverse = _cells(c.values, spell, encoding)
            tables[id(c.values), e] = _words(octets, e)[inverse]
    for lo in range(0, size, CHUNK_ROWS):
        hi, parts = lo + CHUNK_ROWS, []
        for c, e in zip(columns, ends):
            if isinstance(c, CodedColumn):
                parts.append(tables[id(c.values), e][c.codes[lo:hi]])
            else:
                octets, codes = _cells(c[lo:hi], spell, encoding)
                parts.append(_words(octets, e)[codes])
        # the table's last row ends in ``last``, a start of ``end``; no
        # name holds a chunk's bytes while the next chunk is built
        cut = len(end) - len(last) if hi >= size else 0
        yield np.concatenate(parts, axis=1).tobytes().translate(
            None, b"\0")[:-cut or None]


def write_table(path_base: str | Path, table: Table, fmt: str = "csv",
                manifest: str | None = None) -> Path:
    """Write a table as ``<base>.csv`` or ``<base>.json``, with the
    ``manifest`` digest, when given, added to its metadata (``table``
    itself is not changed).

    The CSV form is what ``csv.writer`` writes (excel dialect, newline
    line ends) for cells that need no quotes, with its metadata as ``#
    key=value`` lines above the header. The JSON form is ``json.dumps`` of
    ``{"meta", "header", "rows"}`` with sorted keys, and a newline. In
    either format, a cell that is neither a number of a 1-d numeric array
    nor a non-empty string without a comma, a quote, a line break or a NUL
    (for a bytes array, non-empty ASCII without them) raises
    :class:`ValidationError` naming its column (each distinct values array
    is checked once, under the first column that holds it), before the
    file is opened. So does a CSV text cell or header that the locale's
    encoding, which the file is opened with, cannot hold; JSON escapes
    every text to ASCII.

    Both forms have one row writer, :func:`_rows`, and differ only in
    their separators and in the speller of the values no kernel spells
    (:data:`_FORMATS`). Integers are spelled by the digit kernel,
    :func:`~qrwalk.numtext._digits`, and floats, in shortest round-trip
    form, by the float speller, :func:`~qrwalk.numtext._reprs`. The CSV
    form spells the other values as ``str`` does: bools as ``True`` and
    ``False``, strings as they are, in the encoding of a text-mode file,
    and the texts of a bytes array as their ASCII bytes. The JSON form
    spells them as ``json.dumps`` does: ``NaN`` and ``Infinity``, ``true``
    and ``false``, and each text quoted, the texts of a bytes array as
    ``str``. The rows are written in chunks of :data:`CHUNK_ROWS`, so the
    write's memory stays bounded whatever the table's length.
    """
    base = Path(path_base)
    meta = {**table.meta, "manifest": manifest} if manifest else table.meta
    encoding = locale.getpreferredencoding(False)
    holds = encoding if fmt == "csv" else None
    _check_text(table.header, "the header", holds)
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    checked = set()
    for h, c in zip(table.header, table.columns):
        part = c.values if isinstance(c, CodedColumn) else c
        if not _numeric(part) and id(part) not in checked:  # numbers pass
            _check_text(part, f"column {h!r}", holds)
            checked.add(id(part))
    size = len(table.columns[0]) if table.columns else 0
    if fmt == "csv":
        head = "".join(f"# {key}={meta[key]}\n" for key in sorted(meta)) \
            + ",".join(table.header) + "\n"
        tail = ""
    else:
        # "rows" sorts last: the document up to its opening bracket and the
        # first row's, then the rows, each ending in the next one's bracket
        head = json.dumps({"meta": meta, "header": table.header, "rows": []},
                          sort_keys=True)[:-2] + "[" * (size > 0)
        tail = "]}\n"
    path = base.with_suffix(f".{fmt}")
    with path.open("w", newline="", encoding=encoding) as fh:
        fh.write(head)
        fh.flush()  # the rows are bytes, written below the text layer
        fh.buffer.writelines(_rows(table.columns, size, fmt, encoding))
        fh.write(tail)
    return path


def _table_meta(states: int, walkers: int, base: int) -> dict:
    return {"states": states, "walkers": walkers, "base": base}


def _runs(size: int, counts) -> CodedColumn:
    """Each of ``0 .. size - 1`` in turn, ``i`` repeated ``counts[i]``
    times (or ``counts`` times, for a scalar)."""
    values = np.arange(size)
    return CodedColumn(np.repeat(values, counts), values)


def _coded_states(count: int, *states: np.ndarray
                  ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct joint states and the codes of each array of ``states``
    over them: all ``count`` states of the space, coded by themselves,
    when the arrays hold at least as many cells, else the states they
    hold."""
    sizes = [s.size for s in states]
    if count <= sum(sizes):
        return np.arange(count), list(states)
    distinct, inverse = np.unique(np.concatenate(states), return_inverse=True)
    return distinct, np.split(inverse, np.cumsum(sizes)[:-1])


def rho_table(rho: np.ndarray, num_walkers: int, num_base: int) -> Table:
    """Rows ``t,v,rho`` (tuple states serialised as ``u1|u2|...``) of the
    non-zero masses only: an unlisted (t, v) has mass exactly 0."""
    rho = np.asarray(rho, dtype=np.float64)
    (t, v), states = np.nonzero(rho), rho.shape[1]
    distinct, (codes,) = _coded_states(states, v)
    labels = ProductGraph.label_texts(distinct, num_walkers, num_base)
    return Table(["t", "v", "rho"], [CodedColumn(t, np.arange(len(rho))),
                                     CodedColumn(codes, labels), rho[t, v]],
                 _table_meta(states, num_walkers, num_base))


def matrix_table(store: dict[str, np.ndarray]) -> Table:
    """Rows ``t,u,v,p`` of the store :func:`save_sequence` writes: row i
    is stored entry i, for every K. Only ratio columns are stored; a
    source not listed at step t moves uniformly to its neighbours."""
    k, n = int(store["num_walkers"]), store["port_offsets"].size - 1
    indptr = store["indptr"]
    distinct, (u, v) = _coded_states(
        n ** k, np.repeat(store["col_ids"], np.diff(indptr)),
        store["indices"])
    labels = ProductGraph.label_texts(distinct, k, n)
    columns = [_runs(store["step_ptr"].size - 1,
                     np.diff(indptr[store["step_ptr"]])),
               CodedColumn(u, labels), CodedColumn(v, labels),
               store["data"]]
    return Table(["t", "u", "v", "p"], columns, _table_meta(n ** k, k, n))


def trajectories_table(
    ens: TrajectoryEnsemble,
    num_walkers: int = 1,
    num_base: int | None = None,
    torus_dims: Sequence[int] | None = None,
) -> Table:
    """Rows ``traj_id,t,vertex`` plus unfolded ``x,y`` columns on a
    generated 2-D torus (plot-ready long format). ``num_base`` defaults to
    the ``num_walkers``-th root of the state count."""
    num_base = ProductGraph.base_size(ens.num_states, num_walkers, num_base)
    unfold = (torus_dims is not None and len(torus_dims) == 2
              and num_walkers == 1)
    header = ["traj_id", "t", "vertex"] + (["x", "y"] if unfold else [])
    size, steps = ens.paths.shape
    distinct, (states,) = _coded_states(ens.num_states, ens.paths.reshape(-1))
    columns = [_runs(size, steps),
               CodedColumn(np.tile(np.arange(steps), size), np.arange(steps)),
               CodedColumn(states, ProductGraph.label_texts(
                   distinct, num_walkers, num_base))]
    if unfold:
        columns += [CodedColumn(states, x) for x in np.unravel_index(
            distinct, tuple(int(d) for d in torus_dims))]
    meta = {"trajectories": ens.size, "length": ens.length,
            "method": ens.method, "rng": RNG_ALGORITHM}
    if ens.master_seed is not None:
        meta["seed"] = ens.master_seed
    return Table(header, columns, meta)


def ensemble_mean_table(ens: TrajectoryEnsemble,
                        torus_dims: Sequence[int]) -> Table:
    """Per-instant empirical mean of the unfolded torus coordinates."""
    dims = tuple(int(d) for d in torus_dims)
    means = np.mean(np.unravel_index(ens.paths, dims), axis=1)
    header = ["t"] + [f"mean_axis{i}" for i in range(len(dims))]
    return Table(header, [np.arange(ens.length + 1), *means])


def tvd_table(rows: Sequence[tuple[int, int, float]]) -> Table:
    return Table(["M", "t", "tvd"], [
        np.array([row[i] for row in rows], dtype)
        for i, dtype in enumerate((np.int64, np.int64, np.float64))])


# ---------------------------------------------------------------------------
# sequence round trip
# ---------------------------------------------------------------------------

#: Members of the store: their dtype kind and number of dimensions.
_STORE_MEMBERS = {
    "rho": ("f", 2), "step_ptr": ("i", 1), "col_ids": ("i", 1),
    "indptr": ("i", 1), "indices": ("i", 1), "data": ("f", 1),
    "num_walkers": ("i", 0), "port_offsets": ("i", 1), "heads": ("i", 1),
    "manifest": ("U", 0),
}


def save_sequence(out_dir: str | Path, seq: TransitionMatrixSeq,
                  manifest_sha: str | None = None,
                  fmt: str = "csv") -> tuple[Path, Path]:
    """Write the store ``sequence.npz`` that :func:`load_sequence` reads,
    then export the ``p_matrix`` and ``rho`` tables and return their paths.

    The store's members are the sequence's own arrays, written as they
    are: ``rho``, the CSC arrays of the stored (ratio) columns of all
    steps end to end (P(t) owns ``col_ids[step_ptr[t]:step_ptr[t + 1]]``;
    ``indptr`` spans all steps), and with them the walker count, the base
    graph's ``port_offsets`` and ``heads``, which fix the uniform columns,
    and ``manifest_sha`` (an empty string without one). The ``p_matrix``
    table renders the same arrays (:func:`matrix_table`): ratio columns
    only; the ``rho`` table lists the non-zero masses (:func:`rho_table`).
    Both tables carry ``manifest_sha`` as their ``manifest`` entry.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = dict(rho=seq.rho, step_ptr=seq.step_ptr, col_ids=seq.col_ids,
                 indptr=seq.indptr, indices=seq.indices, data=seq.data,
                 num_walkers=np.int64(seq.num_walkers),
                 port_offsets=seq.graph.base.port_offsets,
                 heads=seq.graph.base.heads,
                 manifest=np.str_(manifest_sha or ""))
    np.savez(out / STORE_NAME, allow_pickle=False, **store)
    p1 = write_table(out / "p_matrix", matrix_table(store), fmt, manifest_sha)
    p2 = write_table(out / "rho", rho_table(
        seq.rho, seq.num_walkers, seq.num_base_vertices), fmt, manifest_sha)
    return p1, p2


def _read_store(path: Path) -> dict[str, np.ndarray]:
    """Every member of the store, checked for its dtype kind and shape."""
    if not zipfile.is_zipfile(path):  # also when it is missing
        raise ValidationError(f"{path} is missing or not an .npz archive; "
                              "`qrwalk equivalence` writes it")
    try:
        with np.load(path, allow_pickle=False) as store:
            members = {name: store[name] for name in _STORE_MEMBERS
                       if name in store.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    for name, (kind, ndim) in _STORE_MEMBERS.items():
        arr = members.get(name)
        if arr is None or arr.dtype.kind != kind or arr.ndim != ndim:
            raise ValidationError(f"{path} lacks a {ndim}-d member {name!r} "
                                  f"of dtype kind {kind!r}")
    return members


def load_sequence(out_dir: str | Path) -> TransitionMatrixSeq:
    """Rebuild the sequence saved in ``out_dir/sequence.npz`` so that
    sampling and verification run without re-evolving the walk.

    When the directory holds a ``manifest.json``, the store must record
    that manifest's hash. The graph is rebuilt through the checking
    :class:`~qrwalk.graphs.PortGraph` constructor. The store's arrays
    become the sequence's, not copied, and the sequence checks them over
    that graph once, all steps in one pass per check (every P(t) and
    rho); its :attr:`~qrwalk.equivalence.TransitionMatrixSeq.matrices` are
    views of them. A store without the graph, or whose arrays fail a
    check, is refused.
    """
    return _load_run(out_dir)[0]


def _load_run(out_dir: str | Path
              ) -> tuple[TransitionMatrixSeq, RunManifest | None]:
    """The sequence of :func:`load_sequence` and the manifest beside it
    (``None`` without one), each file read once. The store's digest is
    checked against the hash of the manifest file's bytes less the last
    newline, the text :meth:`RunManifest.save` hashed, and only when they
    differ against the parsed manifest's :attr:`~RunManifest.sha256`, so
    that a manifest spelled otherwise still matches its run."""
    out = Path(out_dir)
    path = out / STORE_NAME
    m = _read_store(path)
    digest, manifest = str(m["manifest"]), None
    if (out / MANIFEST_NAME).exists():
        manifest, text = RunManifest._read(out / MANIFEST_NAME)
        if digest != hashlib.sha256(text.removesuffix(b"\n")).hexdigest():
            expected = manifest.sha256
            if digest != expected:
                raise ValidationError(
                    f"{path} and {out / MANIFEST_NAME} come from different "
                    f"runs: manifest hashes {digest or None!r} and "
                    f"{expected!r}"
                )
    try:
        graph = ProductGraph(PortGraph(m["port_offsets"], m["heads"]),
                             int(m["num_walkers"]))
        # the store's arrays are the sequence's, kept, not copied
        return TransitionMatrixSeq.from_arrays(
            m["rho"], graph, m["step_ptr"], m["col_ids"], m["indptr"],
            m["indices"], m["data"]), manifest
    except ValidationError as exc:
        raise ValidationError(f"{path} holds no valid sequence: {exc}") \
            from None


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
