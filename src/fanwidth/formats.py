"""Text formats for graphs, decompositions, product inputs, drawings and
certificates.

All serializers are canonical (sorted, no timestamps) so identical inputs
give byte-identical outputs.  Parsers raise ``InputError`` with 1-based line
numbers.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, ProductVertex
from .pipeline import Crossing, DrawnGraph, FanCertificate

# Graphs keep Python objects per vertex, so a vertex count above this is
# rejected before anything is allocated for it.
MAX_VERTICES = 10**7


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its previous state.
    A parse allocates a container per vertex, edge or record and frees almost
    none of them, so the collections those allocations set off find nothing
    to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Lines:
    """Line cursor that skips blanks and tracks 1-based numbers."""

    def __init__(self, text: str):
        self.rows = text.splitlines()
        self.pos = 0

    def peek(self):
        pos = self.pos
        while pos < len(self.rows):
            if self.rows[pos].strip():
                return self.rows[pos].strip(), pos + 1
            pos += 1
        return None, pos + 1

    def take(self, what: str):
        while self.pos < len(self.rows):
            row = self.rows[self.pos].strip()
            self.pos += 1
            if row:
                return row, self.pos
        raise InputError(f"line {self.pos + 1}: expected {what}, found end of file")

    def records(self, count: int, width: int, what: str, field: str,
                check=None) -> list[int]:
        """The ``width`` integer fields of each of the next ``count`` non-blank
        rows, in one flat list; ``what`` names a row for the end-of-file
        message and ``field`` for the others.

        The rows are split at once.  ``check(values, lineno)`` then gets the
        values of the rows that parsed and raises for the first bad record,
        ``lineno(k)`` giving the line of record ``k``.  Only when a row fails
        to parse is that row found, after ``check`` has passed the rows
        before it, and reported with the message of ``_ints`` (or of
        ``take`` at the end of the text).
        """
        if count == 0:
            return []
        start = self.pos
        rows: list[str] = []
        while len(rows) < count and self.pos < len(self.rows):
            chunk = self.rows[self.pos:self.pos + count - len(rows)]
            self.pos += len(chunk)
            rows += filter(None, map(str.strip, chunk))
        values = _split_ints(rows, width) if len(rows) == count else None
        lines = []

        def lineno(k: int) -> int:
            if not lines:
                lines.extend(i + 1 for i in range(start, self.pos) if self.rows[i].strip())
            return lines[k]

        if values is not None:
            if check:
                check(values, lineno)
            return values
        values, error = [], None
        for k, row in enumerate(rows):
            try:
                values += _ints(row, lineno(k), width, field)
            except InputError as exc:
                error = exc
                break
        else:
            error = InputError(f"line {self.pos + 1}: expected {what}, found end of file")
        if check:
            check(values, lineno)
        raise error

    def remaining(self) -> int:
        """Lines after the cursor, blank ones included."""
        return len(self.rows) - self.pos

    def end(self, what: str):
        """Check that only blank lines follow the cursor: ``what`` ends here."""
        row, lineno = self.peek()
        if row is not None:
            raise InputError(f"line {lineno}: unexpected line after the {what}: "
                             f"{_shown(row)!r}")


def _shown(row: str) -> str:
    """``row`` stripped, and cut to 60 characters for a message."""
    row = row.strip()
    return row if len(row) <= 60 else row[:57] + "..."


def _split_ints(rows: list, width: int):
    """The integer fields of ``rows`` in one list, or None unless each row
    has exactly ``width`` of them."""
    # rows are joined by ";" tokens, which must fall on every (width + 1)-th
    # token; a ";" inside a row fails int(), so none is taken for a joint
    tokens = " ; ".join(rows).split()
    joints = len(rows) - 1
    if len(tokens) != len(rows) * width + joints or tokens[width::width + 1].count(";") != joints:
        return None
    del tokens[width::width + 1]
    try:
        return list(map(int, tokens))
    except ValueError:
        return None


def _ints(row: str, lineno: int, count: int | None, what: str):
    """The integer fields of ``row``; exactly ``count`` of them unless
    ``count`` is None."""
    parts = row.split()
    if count is not None and len(parts) != count:
        raise InputError(f"line {lineno}: expected {count} fields for {what}, got {len(parts)}")
    try:
        return list(map(int, parts))
    except ValueError:
        raise InputError(f"line {lineno}: non-integer field in {what!r}: {_shown(row)!r}")


def _counts(row: str, lineno: int, what: str, *names: str):
    """The header ``row`` of ``what``: one non-negative count per name, or
    one count named ``what``."""
    names = names or (what,)
    values = _ints(row, lineno, len(names), what)
    for name, value in zip(names, values):
        if value < 0:
            raise InputError(f"line {lineno}: {name} {value} is negative")
    return values


# -- graphs ------------------------------------------------------------------


def _read_graph(cur: _Lines, what: str) -> Graph:
    """The header ``n m`` and the ``m`` edge lines ``u v`` of a graph;
    ``what`` names the graph in messages."""
    row, lineno = cur.take(f"{what} header 'n m'")
    n, m = _counts(row, lineno, f"{what} header", f"{what} vertex count",
                   f"{what} edge count")
    if n > MAX_VERTICES:
        raise InputError(f"line {lineno}: {what} vertex count {n} exceeds the "
                         f"supported {MAX_VERTICES}")
    field = f"{what} edge"

    def check(values, lineno):
        us, vs = values[0::2], values[1::2]
        if us and not (min(us) >= 0 and max(vs) < n and all(map(int.__lt__, us, vs))):
            k = next(k for k, (u, v) in enumerate(zip(us, vs)) if not 0 <= u < v < n)
            raise InputError(f"line {lineno(k)}: {field} needs 0 <= u < v < n, "
                             f"got {us[k]} {vs[k]}")

    values = cur.records(m, 2, f"{field} 'u v'", field, check)
    try:
        return Graph(n, zip(values[0::2], values[1::2]))
    except InputError as exc:
        raise InputError(f"{what} body: {exc}")


@_collector_paused()
def parse_graph(text: str) -> Graph:
    cur = _Lines(text)
    g = _read_graph(cur, "graph")
    cur.end("graph")
    return g


def serialize_graph(g: Graph) -> str:
    if g.removed:
        raise InputError("cannot serialize a graph with removed vertices")
    edges = sorted(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str) -> list[int]:
    cur = _Lines(text)
    row, lineno = cur.take("vertex count")
    (count,) = _counts(row, lineno, "vertex count")
    out = cur.records(count, 1, "vertex id", "vertex id")
    cur.end("vertex set")
    return out


def serialize_vertex_set(vs) -> str:
    vs = sorted(vs)
    return "\n".join([str(len(vs))] + [str(v) for v in vs]) + "\n"


# -- tree decompositions -------------------------------------------------------


def parse_decomposition(cur: _Lines) -> TreeDecomposition:
    from .treedec import TreeDecomposition

    row, lineno = cur.take("bag count")
    (k,) = _counts(row, lineno, "bag count")
    bags = {}
    for _ in range(k):
        row, lineno = cur.take("bag line 'node: v1 v2 ...'")
        head, sep, rest = row.partition(":")
        if not sep:
            raise InputError(f"line {lineno}: bag line needs 'node: vertices'")
        try:
            node = int(head.strip())
        except ValueError:
            raise InputError(f"line {lineno}: bad bag node id {head.strip()!r}")
        if node in bags:
            raise InputError(f"line {lineno}: duplicate bag node {node}")
        try:
            members = frozenset(int(t) for t in rest.split())
        except ValueError:
            raise InputError(f"line {lineno}: non-integer bag member in {rest!r}")
        bags[node] = members
    tree_edges = set()
    for _ in range(max(0, k - 1)):
        probe = cur.peek()
        if probe[0] is None or probe[0].startswith("["):
            break
        row, lineno = cur.take("tree edge 'x y'")
        x, y = _ints(row, lineno, 2, "tree edge")
        for node in (x, y):
            if node not in bags:
                raise InputError(f"line {lineno}: tree edge references unknown bag {node}")
        tree_edges.add((min(x, y), max(x, y)))
    return TreeDecomposition(bags, frozenset(tree_edges))


def serialize_decomposition(td: TreeDecomposition) -> str:
    lines = [str(len(td.bags))]
    for node in sorted(td.bags):
        members = " ".join(str(v) for v in sorted(td.bags[node]))
        lines.append(f"{node}: {members}".rstrip())
    for x, y in sorted((min(e), max(e)) for e in td.tree_edges):
        lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


# -- product documents ---------------------------------------------------------


@_collector_paused()
def parse_product_input(text: str):
    """Parse a product document into (host, td-or-None, rows, placements, g).

    Every edge of the embedded graph must be a legal product edge: equal host
    vertices on adjacent rows, or host-adjacent vertices at row distance at
    most one.
    """
    cur = _Lines(text)
    row, lineno = cur.take("section [H]")
    if row != "[H]":
        raise InputError(f"line {lineno}: expected [H], got {row!r}")
    host = _read_graph(cur, "host")

    td = None
    row, lineno = cur.take("section [TD] or [P]")
    if row == "[TD]":
        td = parse_decomposition(cur)
        row, lineno = cur.take("section [P]")
    if row != "[P]":
        raise InputError(f"line {lineno}: expected [P], got {row!r}")
    row, lineno = cur.take("row count")
    (rows,) = _ints(row, lineno, 1, "row count")
    if rows < 1:
        raise InputError(f"line {lineno}: row count must be positive")

    row, lineno = cur.take("section [G]")
    if row != "[G]":
        raise InputError(f"line {lineno}: expected [G], got {row!r}")
    row, lineno = cur.take("embedded graph header 'n m'")
    gn, gm = _counts(row, lineno, "embedded graph header", "placement count",
                     "embedded edge count")
    if gn > cur.remaining():
        raise InputError(f"line {lineno}: {gn} placements but only "
                         f"{cur.remaining()} lines follow")

    def check_placements(values, lineno):
        vids, hs, ps = values[0::3], values[1::3], values[2::3]
        if not vids or (min(vids) >= 0 and max(vids) < gn and len(set(vids)) == len(vids)
                        and min(hs) >= 0 and max(hs) < host.n and min(ps) >= 1
                        and max(ps) <= rows and len(set(zip(hs, ps))) == len(hs)):
            return
        placed, used = set(), {}
        for k, (vid, h, p) in enumerate(zip(vids, hs, ps)):
            at = f"line {lineno(k)}"
            if not (0 <= vid < gn):
                raise InputError(f"{at}: vertex id {vid} outside 0..{gn - 1}")
            if vid in placed:
                raise InputError(f"{at}: duplicate placement for vertex {vid}")
            if not (0 <= h < host.n):
                raise InputError(f"{at}: host vertex {h} outside 0..{host.n - 1}")
            if not (1 <= p <= rows):
                raise InputError(f"{at}: row {p} outside 1..{rows}")
            if (h, p) in used:
                raise InputError(f"{at}: vertices {used[(h, p)]} and {vid} share cell ({h},{p})")
            placed.add(vid)
            used[(h, p)] = vid

    values = cur.records(gn, 3, "placement 'id host_vertex row'", "placement",
                         check_placements)
    placements: list = [None] * gn
    for vid, h, p in zip(values[0::3], values[1::3], values[2::3]):
        placements[vid] = ProductVertex(h, p)

    def check_edges(values, lineno):
        for k, (u, v) in enumerate(zip(values[0::2], values[1::2])):
            if not (0 <= u < v < gn):
                raise InputError(f"line {lineno(k)}: embedded edge needs 0 <= u < v < n")
            pu, pv = placements[u], placements[v]
            gap = abs(pu.p - pv.p)
            if not ((pu.h == pv.h and gap == 1) or (host.has_edge(pu.h, pv.h) and gap <= 1)):
                raise InputError(
                    f"line {lineno(k)}: edge ({u},{v}) is not a product edge: "
                    f"hosts {pu.h},{pv.h} rows {pu.p},{pv.p}"
                )

    values = cur.records(gm, 2, "embedded edge 'u v'", "embedded edge", check_edges)
    cur.end("product document")
    g = Graph(gn, zip(values[0::2], values[1::2]))
    return host, td, rows, placements, g


def serialize_product_input(host: Graph, td, rows: int, placements, g: Graph) -> str:
    parts = ["[H]", serialize_graph(host).rstrip("\n")]
    if td is not None:
        parts += ["[TD]", serialize_decomposition(td).rstrip("\n")]
    parts += ["[P]", str(rows), "[G]"]
    edges = sorted(g.edges())
    parts.append(f"{g.n} {len(edges)}")
    for vid in range(g.n):
        pv = placements[vid]
        parts.append(f"{vid} {pv.h} {pv.p}")
    parts += [f"{u} {v}" for u, v in edges]
    return "\n".join(parts) + "\n"


# -- drawings -------------------------------------------------------------------


def parse_drawing(text: str) -> DrawnGraph:
    cur = _Lines(text)
    row, lineno = cur.take("section [graph]")
    if row != "[graph]":
        raise InputError(f"line {lineno}: expected [graph], got {row!r}")
    g = _read_graph(cur, "graph")
    row, lineno = cur.take("section [crossings]")
    if row != "[crossings]":
        raise InputError(f"line {lineno}: expected [crossings], got {row!r}")
    row, lineno = cur.take("crossing count")
    (count,) = _counts(row, lineno, "crossing count")
    crossings = []
    for _ in range(count):
        row, lineno = cur.take("crossing 'u1 v1 u2 v2 t1 t2'")
        parts = row.split()
        if len(parts) != 6:
            raise InputError(f"line {lineno}: crossing needs 6 fields")
        try:
            u1, v1, u2, v2 = (int(p) for p in parts[:4])
            t1, t2 = float(parts[4]), float(parts[5])
        except ValueError:
            raise InputError(f"line {lineno}: bad crossing fields {row!r}")
        crossings.append(Crossing((u1, v1), (u2, v2), t1, t2))
    cur.end("drawing")
    return DrawnGraph(g, crossings)


def serialize_drawing(dg: DrawnGraph) -> str:
    parts = ["[graph]", serialize_graph(dg.graph).rstrip("\n"), "[crossings]",
             str(len(dg.crossings))]
    for cr in dg.crossings:
        (u1, v1), (u2, v2) = cr.edge_a, cr.edge_b
        parts.append(f"{u1} {v1} {u2} {v2} {cr.pos_a!r} {cr.pos_b!r}")
    return "\n".join(parts) + "\n"


# -- certificates ----------------------------------------------------------------


def serialize_certificate(cert: FanCertificate) -> str:
    lines = [
        "fan-certificate v1",
        f"n {cert.n}",
        f"b {cert.b}",
        f"fan_size {cert.fan_size}",
        f"measured_bandwidth {cert.measured_bandwidth}",
        f"seed {cert.seed}",
    ]
    for key in sorted(cert.params):
        lines.append(f"param {key} {cert.params[key]}")
    lines.append("X " + " ".join(str(v) for v in cert.x))
    lines.append("ordering " + " ".join(str(v) for v in cert.ordering))
    lines.append("mapping")
    for v in sorted(cert.mapping):
        node, slot = cert.mapping[v]
        lines.append(f"{v} {node} {slot}")
    lines.append("end")
    return "\n".join(lines) + "\n"


@_collector_paused()
def parse_certificate(text: str) -> FanCertificate:
    cur = _Lines(text)
    row, lineno = cur.take("certificate header")
    if row != "fan-certificate v1":
        raise InputError(f"line {lineno}: not a fan-certificate document")
    fields = {}
    for name in ("n", "b", "fan_size", "measured_bandwidth", "seed"):
        row, lineno = cur.take(f"field {name}")
        parts = row.split()
        if len(parts) != 2 or parts[0] != name:
            raise InputError(f"line {lineno}: expected '{name} <int>', got {row!r}")
        try:
            fields[name] = int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: bad integer for {name}")
    params = {}
    while True:
        probe, lineno = cur.peek()
        if probe is None:
            raise InputError(f"line {lineno}: certificate ends before X")
        if not probe.startswith("param "):
            break
        parts = probe.split(maxsplit=2)
        if len(parts) != 3:
            raise InputError(f"line {lineno}: param line needs 'param key value'")
        if parts[1] in params:
            raise InputError(f"line {lineno}: duplicate param {parts[1]}")
        params[parts[1]] = parts[2]
        cur.take("param")
    row, lineno = cur.take("X line")
    if row != "X" and not row.startswith("X "):
        raise InputError(f"line {lineno}: expected 'X <ids>', got {row!r}")
    x = _ints(row[1:], lineno, None, "X line")
    row, lineno = cur.take("ordering line")
    if row != "ordering" and not row.startswith("ordering "):
        raise InputError(f"line {lineno}: expected 'ordering <ids>', got {row!r}")
    ordering = _ints(row[len("ordering"):], lineno, None, "ordering line")
    row, lineno = cur.take("mapping header")
    if row != "mapping":
        raise InputError(f"line {lineno}: expected 'mapping', got {row!r}")
    # the mapping rows are the non-blank rows before the first 'end'
    rest = list(map(str.strip, cur.rows[cur.pos:]))
    if "end" in rest:
        rest = rest[:rest.index("end")]
    count = len(rest) - rest.count("")

    def check(values, lineno):
        vs = values[0::3]
        if len(set(vs)) != len(vs):
            seen = set()
            for k, v in enumerate(vs):
                if v in seen:
                    raise InputError(f"line {lineno(k)}: duplicate mapping for vertex {v}")
                seen.add(v)

    values = cur.records(count, 3, "mapping row or 'end'", "mapping row", check)
    mapping = dict(zip(values[0::3], zip(values[1::3], values[2::3])))
    cur.take("mapping row or 'end'")  # the 'end' row
    cur.end("certificate")
    return FanCertificate(
        n=fields["n"],
        b=fields["b"],
        fan_size=fields["fan_size"],
        x=x,
        ordering=ordering,
        mapping=mapping,
        measured_bandwidth=fields["measured_bandwidth"],
        seed=fields["seed"],
        params=params,
    )


# -- embeddings -------------------------------------------------------------------


def serialize_embedding(emb) -> str:
    lines = [f"{len(emb.point_ids)} {emb.L} {emb.k} {emb.a!r} {emb.seed}"]
    for t, vid in enumerate(emb.point_ids):
        coords = " ".join(map(repr, emb.coords[t].tolist()))
        lines.append(f"{vid} {coords}".rstrip())
    return "\n".join(lines) + "\n"


# -- misc --------------------------------------------------------------------------


def write_atomic(path: str, text: str):
    """Write ``text`` to ``path`` through ``path.tmp``.  An OS error becomes
    an InputError, and a ``.tmp`` file this call made is removed."""
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        os.remove(tmp)
        raise InputError(f"cannot write {path}: {exc}")


def format_density(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)
