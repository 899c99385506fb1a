"""Workload inputs, job command lines and output checks.

Inputs are built only through the public ``fanwidth`` API.  The workload
seed picks the inputs and the program seeds; the program sees it only as
``--seed`` and through the generated files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from fanwidth import ProductVertex, fan_certificate, grid_graph, path_graph
from fanwidth import formats
from fanwidth.graphs import Graph
from fanwidth.pipeline import verify_certificate

# Jobs get program seeds ("variants") 0..VARIANTS-1, taken in turn from the
# workload seed on; perfbench/expected.json holds the certify output digest of
# every variant.  verify-large takes its seed through the input files instead.
VARIANTS = 16
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

PLANAR_SIDE = 32
PRODUCT_SIDE = 16
VERIFY_SIDE = 100
VERIFY_B = 100
VERIFY_LINE = f"ok: round-trip width {VERIFY_B} <= 2b-1 = {2 * VERIFY_B - 1}\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Check:
    """Outcome of checking one job's output."""

    ok: bool
    cert_b: int | None
    digest: str | None
    reason: str = ""


class Certify:
    """``certify`` on one input file; every output is byte-compared with the
    recorded digest and re-verified with ``verify_certificate``."""

    def __init__(self, name: str, flag: str, density: str):
        self.name = name
        self.flag = flag
        self.density = density

    def setup(self, work: Path, seed: int):
        self.write_input(work)
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            self.expected = json.load(fh)[self.name]

    def write_input(self, work: Path):
        if self.flag == "--graph":
            g, _ = grid_graph(PLANAR_SIDE, PLANAR_SIDE)
            text = formats.serialize_graph(g)
        else:
            side = PRODUCT_SIDE
            g, _ = grid_graph(side, side)
            placements = [ProductVertex(v % side, v // side + 1) for v in range(side * side)]
            text = formats.serialize_product_input(path_graph(side), None, side, placements, g)
        self.graph = g
        self.input = work / "input.txt"
        self.input.write_text(text, encoding="utf-8")

    def argv(self, variant: int, out: Path) -> list[str]:
        return ["certify", self.flag, str(self.input), "--D", self.density,
                "--seed", str(variant), "--out", str(out)]

    def check(self, variant: int, out: Path, stdout: str) -> Check:
        try:
            data = out.read_bytes()
        except OSError as exc:
            return Check(False, None, None, f"no certificate: {exc}")
        digest = sha256(data)
        cert = formats.parse_certificate(data.decode("utf-8"))
        want = self.expected[str(variant)]
        if digest != want:
            return Check(False, cert.b, digest, f"digest {digest[:12]} != recorded {want[:12]}")
        violations = verify_certificate(self.graph, cert)
        if violations:
            return Check(False, cert.b, digest, f"verify_certificate: {violations[0]}")
        return Check(True, cert.b, digest)


class VerifyLarge:
    """``verify`` of a row-major fan certificate on a grid whose vertex ids
    are shuffled by the workload seed."""

    name = "verify-large"

    def setup(self, work: Path, seed: int):
        side = VERIFY_SIDE
        n = side * side
        label = list(range(n))
        random.Random(seed).shuffle(label)
        grid, _ = grid_graph(side, side)
        g = Graph(n, [(label[u], label[v]) for u, v in grid.edges()])
        cert = fan_certificate(g, [], [label[v] for v in range(n)], VERIFY_B)
        self.graph_file = work / "graph.txt"
        self.cert_file = work / "cert.txt"
        self.graph_file.write_text(formats.serialize_graph(g), encoding="utf-8")
        self.cert_file.write_text(formats.serialize_certificate(cert), encoding="utf-8")
        self.b = cert.b

    def argv(self, variant: int, out: Path) -> list[str]:
        return ["verify", "--graph", str(self.graph_file), "--cert", str(self.cert_file)]

    def check(self, variant: int, out: Path, stdout: str) -> Check:
        digest = sha256(stdout.encode("utf-8"))
        if stdout != VERIFY_LINE:
            return Check(False, self.b, digest, f"stdout {stdout!r} != {VERIFY_LINE!r}")
        return Check(True, self.b, digest)


def make(name: str):
    if name == "planar-cut":
        return Certify(name, "--graph", "8")
    if name == "product-certified":
        return Certify(name, "--product", "32")
    if name == "verify-large":
        return VerifyLarge()
    raise KeyError(name)


WORKLOADS = ("planar-cut", "product-certified", "verify-large")
