"""Text formats for graphs, decompositions, product inputs, drawings and
certificates.

All serializers are canonical (sorted, no timestamps) so identical inputs
give byte-identical outputs.  Parsers raise ``InputError`` with 1-based line
numbers.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, ProductVertex
from .pipeline import Crossing, DrawnGraph, FanCertificate
from .treedec import TreeDecomposition

# Graphs keep Python objects per vertex, so a vertex count above this is
# rejected before anything is allocated for it.
MAX_VERTICES = 10**7


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


def _ints(row: str, lineno: int, count: int | None, what: str):
    """The integer fields of ``row``; exactly ``count`` of them unless
    ``count`` is None."""
    parts = row.split()
    if count is not None and len(parts) != count:
        raise InputError(f"line {lineno}: expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
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
    expected, field = f"{what} edge 'u v'", f"{what} edge"
    edges = []
    for _ in range(m):
        row, lineno = cur.take(expected)
        u, v = _ints(row, lineno, 2, field)
        if not (0 <= u < v < n):
            raise InputError(f"line {lineno}: {field} needs 0 <= u < v < n, got {u} {v}")
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except InputError as exc:
        raise InputError(f"{what} body: {exc}")


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
    out = []
    for _ in range(count):
        row, lineno = cur.take("vertex id")
        (v,) = _ints(row, lineno, 1, "vertex id")
        out.append(v)
    cur.end("vertex set")
    return out


def serialize_vertex_set(vs) -> str:
    vs = sorted(vs)
    return "\n".join([str(len(vs))] + [str(v) for v in vs]) + "\n"


# -- tree decompositions -------------------------------------------------------


def parse_decomposition(cur: _Lines) -> TreeDecomposition:
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
    placements: list = [None] * gn
    used = {}
    for _ in range(gn):
        row, lineno = cur.take("placement 'id host_vertex row'")
        vid, h, p = _ints(row, lineno, 3, "placement")
        if not (0 <= vid < gn):
            raise InputError(f"line {lineno}: vertex id {vid} outside 0..{gn - 1}")
        if placements[vid] is not None:
            raise InputError(f"line {lineno}: duplicate placement for vertex {vid}")
        if not (0 <= h < host.n):
            raise InputError(f"line {lineno}: host vertex {h} outside 0..{host.n - 1}")
        if not (1 <= p <= rows):
            raise InputError(f"line {lineno}: row {p} outside 1..{rows}")
        if (h, p) in used:
            raise InputError(
                f"line {lineno}: vertices {used[(h, p)]} and {vid} share cell ({h},{p})"
            )
        used[(h, p)] = vid
        placements[vid] = ProductVertex(h, p)
    gedges = []
    for _ in range(gm):
        row, lineno = cur.take("embedded edge 'u v'")
        u, v = _ints(row, lineno, 2, "embedded edge")
        if not (0 <= u < v < gn):
            raise InputError(f"line {lineno}: embedded edge needs 0 <= u < v < n")
        pu, pv = placements[u], placements[v]
        gap = abs(pu.p - pv.p)
        legal = (pu.h == pv.h and gap == 1) or (host.has_edge(pu.h, pv.h) and gap <= 1)
        if not legal:
            raise InputError(
                f"line {lineno}: edge ({u},{v}) is not a product edge: "
                f"hosts {pu.h},{pv.h} rows {pu.p},{pv.p}"
            )
        gedges.append((u, v))
    cur.end("product document")
    g = Graph(gn, gedges)
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
    mapping = {}
    while True:
        row, lineno = cur.take("mapping row or 'end'")
        if row == "end":
            break
        v, node, slot = _ints(row, lineno, 3, "mapping row")
        if v in mapping:
            raise InputError(f"line {lineno}: duplicate mapping for vertex {v}")
        mapping[v] = (node, slot)
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
