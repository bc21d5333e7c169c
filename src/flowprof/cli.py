"""Command-line surface for the profiling pipeline.

Subcommands: extract (pcap dir -> signature), profile (model or manifest ->
tree + report), analyze (tree JSONs -> report), rules (flows -> rule text),
simulate (model -> pcap corpus), oracle (model -> expected tree).  All
outputs are files, written atomically after inputs validate; exit code 0 on
success, 1 on input errors, 2 when the event fails with nothing blocked.
Every JSON input (model, tree, flows file, manifest) goes through one reader:
a malformed field exits 1 with one error line naming the file and its JSON
path, and a JSON boolean is never read as a number.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .core import FlowId, SchemaError, check, member, read_json
from .pcapio import filter_control_plane, read_pcap, write_pcap
from .signature import DnsTable, aggregate_flows, extract_signature
from .blocklist import RuleSet, compile_rules, parse as parse_rules, render
from .sigtree import RootFailed, SigTree
from .simnet import SimDriver, load_model, oracle_tree
from .profiler import ProfileConfig, build_report, profile_event, render_csv


CHUNK = 1024  # parts per write: about 0.3 MB of tree.json, 0.1 MB of tree.dot


def _write_text(path, text: str):
    _write_chunks(path, (text.encode(),))


def _write_parts(path, parts: list):
    """Write `"".join(parts)` as UTF-8, CHUNK parts at a time, so that no
    whole file is held as one string or one bytes object."""
    _write_chunks(path, ("".join(parts[i:i + CHUNK]).encode()
                         for i in range(0, len(parts), CHUNK)))


def _write_chunks(path, chunks):
    """Write the bytes objects of `chunks` through a temporary sibling
    file, removed again whatever raised, in building a chunk too.  Each
    command makes its output directory once, before its first write.
    `path` is a string or a Path; the sibling's name is a string, since
    pathlib interns the parts of each path it parses (see
    _successful_traces)."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def _write_tree(out_dir: Path, tree: SigTree, hide_failed: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_parts(out_dir / "tree.json", tree.json_parts())
    _write_parts(out_dir / "tree.dot", tree.dot_parts(hide_failed))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: each build leaves strings behind."""
    parser = _Parser(prog="flowprof",
                     description="Smart-home traffic profiling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[], help="signature from a pcap dir")
    p.add_argument("--dir", required=True,
                   help="directory of *.pcap captures plus success.txt")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--model", required=True,
                   help="device model supplying the network topology")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("profile", help="profile a model or manifest")
    p.add_argument("--model")
    p.add_argument("--manifest")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--hide-failed", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze", help="report from finished tree JSONs")
    p.add_argument("trees", nargs="*", help="tree JSON files")
    p.add_argument("--dir", help="directory of tree JSON files")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rules", help="compile flows to deny rules")
    p.add_argument("flows", help="JSON list of FlowId objects")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("simulate", help="emit a capture corpus from a model")
    p.add_argument("--model", required=True)
    p.add_argument("rules_file", nargs="?",
                   help="deny rules applied during the captures")
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="expected tree straight from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--hide-failed", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RootFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        message = str(exc).replace("\n", " ").strip() or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main(sys.argv[1:]))


# -- commands ---------------------------------------------------------------------


def cmd_extract(args) -> int:
    capture_dir = Path(args.dir)
    if not capture_dir.is_dir():
        raise ValueError(f"not a directory: {capture_dir}")
    if args.m < 1:
        raise ValueError("m must be at least 1")
    # names, not Paths: a Path keeps several times the bytes of its name,
    # and pathlib interns every name it parses
    pcaps = sorted(name for name in os.listdir(capture_dir)
                   if name.endswith(".pcap"))
    if len(pcaps) != args.m:
        raise ValueError(f"expected {args.m} captures, found {len(pcaps)}")
    flags_path = capture_dir / "success.txt"
    if not flags_path.is_file():
        raise ValueError(f"missing success sidecar: {flags_path}")
    flags = flags_path.read_text().split()
    if len(flags) != args.m or not set(flags) <= {"0", "1"}:
        raise ValueError(
            f"success.txt must hold {args.m} 0/1 flags, one per capture")
    table = DnsTable(load_model(args.model).topology)
    signature = extract_signature(
        aggregate_flows(_successful_traces(capture_dir, pcaps, flags), table),
        m=args.m)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "signature.json",
                json.dumps(signature.to_obj(), indent=2) + "\n")
    return 0


def _successful_traces(capture_dir: Path, pcaps: list, flags: list):
    """The data-plane packets of each successful capture, read one at a
    time; a corrupt capture errors even when it failed, so every one is
    read."""
    for name, flag in zip(pcaps, flags):
        # not capture_dir / name: that interns each name, and the dead names
        # fill the interned-string table until it is resized, 1 MB at a time
        # unbuffered: each file is read whole, so a buffer would only cost
        with open(os.path.join(capture_dir, name), "rb", buffering=0) as pcap:
            trace = read_pcap(pcap.read())
        if flag == "1":
            yield filter_control_plane(trace)


def _profile_one(model_path: str, args) -> SigTree:
    model = load_model(model_path)
    config = ProfileConfig(
        m=args.m,
        seed=args.seed,
        pruning=not args.no_pruning,
        max_depth=args.max_depth,
    )
    return profile_event(SimDriver(model), config)


def cmd_profile(args) -> int:
    if bool(args.model) == bool(args.manifest):
        raise ValueError("exactly one of --model or --manifest is required")
    out_dir = Path(args.out_dir)
    if args.model:
        tree = _profile_one(args.model, args)
        _write_tree(out_dir, tree, args.hide_failed)
        _write_text(out_dir / "report.csv",
                    render_csv([build_report(tree, Path(args.model).stem)]))
        return 0
    entries = _load_manifest(Path(args.manifest))
    results = []
    for entry in entries:
        tree = _profile_one(entry["model_path"], args)
        results.append((entry, tree))
    reports = []
    for entry, tree in results:
        _write_tree(out_dir / entry["label"], tree, args.hide_failed)
        reports.append(build_report(tree, entry["label"], entry.get("group")))
    _write_text(out_dir / "report.csv", render_csv(reports))
    return 0


def _load_manifest(path: Path) -> list:
    def entries(obj) -> list:
        if not check(obj, [dict]):
            raise SchemaError("manifest must be a non-empty JSON list")
        labels = set()
        for index, entry in enumerate(obj):
            label = member(entry, "label", str, (index,))
            model_path = member(entry, "model_path", str, (index,))
            # the label names a subdirectory of --out-dir, beside report.csv
            if not label or "/" in label or label in labels \
                    or label in (".", "..", "report.csv", "report.csv.tmp"):
                raise SchemaError(f"bad or duplicate manifest label {label!r}")
            labels.add(label)
            for key, value in member(entry, "group", dict, (index,), {}).items():
                check(value, str, (index, "group", key))
            entry["model_path"] = str((path.parent / model_path).resolve())
        return obj

    return read_json(entries, "manifest", path=path)


def cmd_analyze(args) -> int:
    paths = [Path(p) for p in args.trees]
    if args.dir:
        tree_dir = Path(args.dir)
        if not tree_dir.is_dir():
            raise ValueError(f"not a directory: {tree_dir}")
        paths.extend(sorted(tree_dir.glob("*.json")))
    if not paths:
        raise ValueError("no tree files given")
    labels = {}
    for path in paths:
        label = _tree_label(path)
        if label in labels:
            raise ValueError(f"{labels[label]} and {path} would both be "
                             f"reported as {label!r}")
        labels[label] = path
    reports = []
    for label, path in labels.items():
        tree = read_json(SigTree.from_obj, "tree", path=path)
        reports.append(build_report(tree, label))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "report.csv", render_csv(reports))
    return 0


def _tree_label(path: Path) -> str:
    """Report label of a tree file: `profile` writes `<label>/tree.json`,
    so such a file is named by its directory, any other by its stem."""
    if path.name == "tree.json":
        return path.resolve().parent.name
    return path.stem


def cmd_rules(args) -> int:
    flows = read_json(_flows_from_obj, "flows", path=args.flows)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "rules.txt", render(compile_rules(flows)))
    return 0


def _flows_from_obj(obj) -> list:
    """A flows file's list of FlowId objects, alone or as its "flows"."""
    path = ("flows",) if isinstance(obj, dict) else ()
    items = check(obj.get("flows") if path else obj, list, path)
    return [FlowId.from_obj(item, path + (i,)) for i, item in enumerate(items)]


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    rules = RuleSet()
    if args.rules_file:
        rules = parse_rules(Path(args.rules_file).read_text())
    # the driver refuses a model whose packets a capture cannot carry
    captures = SimDriver(model).run(rules, args.m, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = []
    for index, capture in enumerate(captures):
        _write_chunks(os.path.join(out_dir, f"capture_{index:03d}.pcap"),
                      (write_pcap(capture.trace),))
        flags.append("1\n" if capture.success else "0\n")
    _write_text(out_dir / "success.txt", "".join(flags))
    return 0


def cmd_oracle(args) -> int:
    model = load_model(args.model)
    tree = oracle_tree(model, pruning=not args.no_pruning,
                       max_depth=args.max_depth)
    _write_tree(Path(args.out_dir), tree, args.hide_failed)
    return 0


if __name__ == "__main__":
    entrypoint()
