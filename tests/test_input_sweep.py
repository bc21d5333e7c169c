"""Every JSON input is read or refused with one error line, never a traceback.

One member of a valid input at a time (an object member or a list item, at
any depth) is replaced by each value of VALUES, and the command that reads
that input runs through cli.main.  No run may raise.  A run that exits
nonzero prints exactly one `error:` line and writes no output."""

import copy
import json
import shutil

import pytest

from flowprof import load_model, oracle_tree
from flowprof.cli import main

from conftest import model_path
from test_simnet import BASE

VALUES = (1, 1.5, True, None, [], {}, ["x"], {"a": 1}, "x")


def _members(obj, path=()):
    """The path of every object member and list item below `obj`."""
    items = obj.items() if isinstance(obj, dict) \
        else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _members(value, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _sweep(tmp_path, capsys, doc, argv):
    """Run `argv + [input, --out-dir, out]` on each substitution in doc."""
    source, out = tmp_path / "input.json", tmp_path / "out"
    for path in _members(doc):
        for value in VALUES:
            source.write_text(json.dumps(_replaced(doc, path, value)))
            case = f"{path} = {value!r}"
            try:
                code = main(argv + [str(source), "--out-dir", str(out)])
            except Exception as exc:
                raise AssertionError(f"{case} raised") from exc
            err = capsys.readouterr().err
            if code == 0:
                shutil.rmtree(out, ignore_errors=True)
                continue
            assert code in (1, 2), case
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (case, err)
            assert not out.exists(), case


@pytest.mark.parametrize("name", ["coap_http", "essential_no_fallback"])
def test_a_model(tmp_path, capsys, name):
    doc = json.loads(model_path(name).read_text())
    _sweep(tmp_path, capsys, doc, ["oracle", "--model"])


def test_a_tree(tmp_path, capsys):
    tree = oracle_tree(load_model(model_path("coap_http")))
    _sweep(tmp_path, capsys, json.loads(tree.export_json()), ["analyze"])


@pytest.mark.parametrize("form", ["list", "object"])
def test_a_flows_file(tmp_path, capsys, form):
    flows = [spec["flow"] for name in ("coap_http", "essential_no_fallback")
             for spec in json.loads(model_path(name).read_text())["flows"]]
    doc = flows if form == "list" else {"flows": flows}
    _sweep(tmp_path, capsys, doc, ["rules"])


def test_a_manifest(tmp_path, capsys):
    (tmp_path / "mini.json").write_text(json.dumps(BASE))
    doc = [{"label": "a", "model_path": "mini.json",
            "group": {"room": "kitchen"}},
           {"label": "b", "model_path": "mini.json"}]
    _sweep(tmp_path, capsys, doc, ["profile", "--m", "1", "--manifest"])
