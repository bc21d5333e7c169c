"""The benchmark's four workloads: input generation, command, output check.

Every workload runs one `flowprof` command through `flowprof.cli.main`.
Inputs are generated from the workload seed in set-up; expected outputs come
from the symbolic oracle (or, for wide_oracle, from digests recorded when
the benchmark was created), so every pass is checked byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import flowprof
from flowprof import (
    EventSignature,
    build_report,
    load_model,
    oracle_tree,
    render_csv,
)
from flowprof.cli import main as cli_main

MODELS_DIR = Path(flowprof.__file__).parent / "models"
M = 20  # captures per experiment, the CLI default

# 500 captures, not 1,500: set-up runs three times per benchmark run, and at
# 1,500 it took about 27 of the run's seconds
CORPUS_CAPTURES = 500
CORPUS_CHUNK = 100  # captures per `simulate` call; bounds set-up memory

# wide_oracle: `oracle --model hs110_toggle.json --no-pruning --max-depth 4`,
# recorded from the tree both the bundled and any reordered model produce.
# Never run hs110_toggle unpruned without a depth cap: it grows exponentially.
WIDE_DEPTH = 4
WIDE_NODES = 10_227
WIDE_TREE_SHA256 = \
    "bb16854bdf29bf177e4ce355757d99eb1218238e03296ffa3e3caf3f6fd6f003"
WIDE_DOT_SHA256 = \
    "ff78716357402ccf34dc302727ea36da4c147c4ed76f6121958d586de9368187"

GROUP_VALUES = {
    "category": ("plug", "hub", "camera", "speaker"),
    "app": ("kasa", "smartthings", "homekit"),
    "manufacturer": ("tplink", "acme", "globex"),
}


@dataclass
class Check:
    """Outcome of one checked operation of a pass."""

    name: str
    ok: bool
    detail: str = ""


# -- generators -----------------------------------------------------------------


def write_manifest(path: Path, seed: int) -> list:
    """Manifest over every bundled model in a seeded order, each entry with a
    seeded group on every axis render_csv footers aggregate."""
    rng = random.Random(seed)
    models = sorted(MODELS_DIR.glob("*.json"))
    rng.shuffle(models)
    entries = [{"label": model.stem,
                "model_path": str(model),
                "group": {axis: rng.choice(values)
                          for axis, values in GROUP_VALUES.items()}}
               for model in models]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return entries


def write_shuffled_model(path: Path, seed: int, source: Path) -> None:
    """The model at `source` with its flow, noise and DNS-record lists in a
    seeded order; the expected tree does not depend on declaration order."""
    rng = random.Random(seed)
    doc = json.loads(source.read_text())
    for key in ("flows", "noise", "dns_records"):
        rng.shuffle(doc.get(key, []))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def write_corpus(corpus: Path, seed: int, model: Path,
                 captures: int = CORPUS_CAPTURES) -> None:
    """`captures` pcaps plus success.txt, made by `flowprof simulate` in
    chunks and renumbered into one directory; capture i uses simulator seed
    seed * captures + i whatever the chunking."""
    corpus.mkdir(parents=True, exist_ok=True)
    flags = []
    for first in range(0, captures, CORPUS_CHUNK):
        count = min(CORPUS_CHUNK, captures - first)
        chunk = corpus / f"chunk{first}"
        rc = cli_main(["simulate", "--model", str(model),
                       "--m", str(count), "--seed", str(seed * captures + first),
                       "--out-dir", str(chunk)])
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc} while generating corpus")
        for i in range(count):
            os.replace(chunk / f"capture_{i:03d}.pcap",
                       corpus / f"capture_{first + i:05d}.pcap")
        flags.append((chunk / "success.txt").read_text())
        (chunk / "success.txt").unlink()
        chunk.rmdir()
    (corpus / "success.txt").write_text("".join(flags))


# -- checks -----------------------------------------------------------------------


def compare_files(out: Path, expected: dict, name: str) -> Check:
    """Byte comparison of out/<relpath> against each expected text."""
    for rel, text in expected.items():
        path = out / rel
        if not path.is_file():
            return Check(name, False, f"{rel} was not written")
        actual = path.read_text()
        if actual != text:
            return Check(name, False, f"{rel} differs: {_first_diff(actual, text)}")
    return Check(name, True)


def _first_diff(actual: str, expected: str) -> str:
    got, want = actual.splitlines(), expected.splitlines()
    for lineno, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return f"line {lineno}: got {a.strip()!r}, want {b.strip()!r}"
    return f"got {len(got)} lines, want {len(want)}"


def check_wide_tree(tree_json: bytes, tree_dot: bytes) -> Check:
    """Node count and recorded digests of the wide_oracle outputs."""
    nodes = tree_json.count(b'"status"') - 1  # every node but the root
    if nodes != WIDE_NODES:
        return Check("oracle", False, f"{nodes} nodes, want {WIDE_NODES}")
    digest = hashlib.sha256(tree_json).hexdigest()
    if digest != WIDE_TREE_SHA256:
        return Check("oracle", False, f"tree.json sha256 {digest}")
    digest = hashlib.sha256(tree_dot).hexdigest()
    if digest != WIDE_DOT_SHA256:
        return Check("oracle", False, f"tree.dot sha256 {digest}")
    return Check("oracle", True)


def _tree_files(tree, prefix: str = "") -> dict:
    return {prefix + "tree.json": tree.export_json(),
            prefix + "tree.dot": tree.to_dot(False)}


# -- workloads --------------------------------------------------------------------


class Workload:
    """One benchmark workload.

    setup(work) generates the inputs from the seed into `work` (timed as
    set-up); reference() computes the expected outputs (untimed); argv(out)
    is the flowprof command of one pass; check(out) verifies one pass's
    outputs and returns one Check per operation.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, out: Path) -> list:
        raise NotImplementedError

    def operations(self) -> int:
        """Operations one pass attempts; all fail when the command fails."""
        return 1


class BlindWalk(Workload):
    name = "blind_walk"

    def setup(self, work):
        self.model_path = MODELS_DIR / "appendix_c.json"
        self.model = load_model(self.model_path)

    def reference(self):
        tree = oracle_tree(self.model, pruning=False)
        self.expected = _tree_files(tree)
        self.expected["report.csv"] = render_csv(
            [build_report(tree, self.model_path.stem)])

    def argv(self, out):
        return ["profile", "--model", str(self.model_path), "--no-pruning",
                "--m", str(M), "--seed", str(self.seed), "--out-dir", str(out)]

    def check(self, out):
        return [compare_files(out, self.expected, "profile")]


class Fleet(Workload):
    name = "fleet"

    def setup(self, work):
        self.manifest = work / "manifest.json"
        self.entries = write_manifest(self.manifest, self.seed)
        self.models = {e["label"]: load_model(e["model_path"])
                       for e in self.entries}

    def reference(self):
        self.expected = {}
        reports = []
        for entry in self.entries:
            label = entry["label"]
            tree = oracle_tree(self.models[label], pruning=True)
            self.expected[label] = _tree_files(tree, prefix=label + "/")
            reports.append(build_report(tree, label, entry["group"]))
        self.expected_report = render_csv(reports)

    def argv(self, out):
        return ["profile", "--manifest", str(self.manifest), "--m", str(M),
                "--seed", str(self.seed), "--out-dir", str(out)]

    def check(self, out):
        checks = [compare_files(out, files, label)
                  for label, files in self.expected.items()]
        checks.append(compare_files(out, {"report.csv": self.expected_report},
                                    "report"))
        return checks

    def operations(self):
        return len(self.entries) + 1


class ExtractCorpus(Workload):
    name = "extract_corpus"

    captures = CORPUS_CAPTURES

    def setup(self, work):
        self.model_path = MODELS_DIR / "hs110_toggle.json"
        self.model = load_model(self.model_path)
        self.corpus = work / "corpus"
        write_corpus(self.corpus, self.seed, self.model_path, self.captures)

    def reference(self):
        tree = oracle_tree(self.model, pruning=True)
        first_level = frozenset(tree.node(h).flow
                                for h in tree.node(tree.root).children)
        # the unblocked event succeeds in every capture
        signature = EventSignature(flows=first_level, m=self.captures,
                                   m_plus=self.captures)
        self.expected = {"signature.json":
                         json.dumps(signature.to_obj(), indent=2) + "\n"}

    def argv(self, out):
        return ["extract", "--dir", str(self.corpus), "--m", str(self.captures),
                "--model", str(self.model_path), "--out-dir", str(out)]

    def check(self, out):
        return [compare_files(out, self.expected, "extract")]


class WideOracle(Workload):
    name = "wide_oracle"

    def setup(self, work):
        self.model_path = work / "hs110_toggle.json"
        write_shuffled_model(self.model_path, self.seed,
                             MODELS_DIR / "hs110_toggle.json")
        load_model(self.model_path)

    def reference(self):
        pass  # digests recorded above

    def argv(self, out):
        return ["oracle", "--model", str(self.model_path), "--no-pruning",
                "--max-depth", str(WIDE_DEPTH), "--out-dir", str(out)]

    def check(self, out):
        try:
            tree_json = (out / "tree.json").read_bytes()
            tree_dot = (out / "tree.dot").read_bytes()
        except OSError as exc:
            return [Check("oracle", False, f"output missing: {exc}")]
        return [check_wide_tree(tree_json, tree_dot)]


WORKLOADS = {w.name: w for w in (BlindWalk, Fleet, ExtractCorpus, WideOracle)}
