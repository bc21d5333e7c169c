"""Source hygiene: every module-level import and private function or class
in the package is used by its own module, every private method is loaded by
its module outside its own body, no module imports another's private name,
every exported name is used inside the package, only the modules that render the file formats call the text
serializers, every packet is built through core.new_packet with its fields
named, no frozen value is changed after it was built, only core spells out
the selector vocabulary, every module-level memo is bounded, and only the
one JSON reader decodes JSON or names a decode error in an except clause."""

import ast
import pathlib

import flowprof
from flowprof.core import COAP_CODES, COAP_TYPES, DNS_QTYPES, HTTP_METHODS

PACKAGE = pathlib.Path(flowprof.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _unloaded_privates(tree: ast.Module) -> list:
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in loaded)


def _unloaded_private_methods(tree: ast.Module) -> list:
    """Private methods of the module's classes that no attribute load
    outside the method's own body names."""
    unused = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name.startswith("_")
                    and not method.name.startswith("__")):
                continue
            inside = {id(node) for node in ast.walk(method)}
            if not any(isinstance(node, ast.Attribute)
                       and node.attr == method.name
                       and isinstance(node.ctx, ast.Load)
                       and id(node) not in inside for node in ast.walk(tree)):
                unused.append((method.lineno, f"{cls.name}.{method.name}"))
    return sorted(unused)


def _private_imports(tree: ast.Module) -> list:
    """Names starting with `_` that the module imports from another module
    of the package: what one module keeps private, another must not use."""
    return sorted((node.lineno, f"{node.module or ''}.{alias.name}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0]
                       == "flowprof")
                  for alias in node.names if alias.name.startswith("_"))


def _unloaded_exports(exported, trees) -> list:
    loaded = set()
    for tree in trees:
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        # loading an import alias loads the name it was imported as
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        loaded |= names | {aliases[name] for name in names & aliases.keys()}
    return sorted(set(exported) - loaded)


# text serializers, and the modules that render the file formats with them
SERIALIZERS = ("token", "canonical_json")
FORMAT_MODULES = ("core.py", "blocklist.py")


def _serializer_calls(tree: ast.Module) -> list:
    return sorted((node.lineno, node.func.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in SERIALIZERS)


def test_module_level_imports_are_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _unused_imports(tree)]
    assert unused == []


def test_check_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nfrom typing import Optional, Tuple\n"
                     "def f(x: Optional[int]): return json.dumps(x)\n")
    assert _unused_imports(tree) == [(3, "Tuple")]


def test_module_level_private_definitions_are_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _unloaded_privates(tree)]
    assert unused == []


def test_check_flags_an_unused_private_function():
    tree = ast.parse("def _used(): return 1\n"
                     "def _left_over(addr): return 40\n"
                     "class _Slot: pass\n"
                     "def public(): return _used(), _Slot()\n")
    assert _unloaded_privates(tree) == [(2, "_left_over")]


def test_private_methods_are_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _unloaded_private_methods(tree)]
    assert unused == []


def test_check_flags_an_unused_private_method():
    tree = ast.parse("class Tree:\n"
                     "    def _used(self): return 1\n"
                     "    def _node_obj(self, n):\n"
                     "        return [self._node_obj(c) for c in n]\n"
                     "    def __len__(self): return 0\n"
                     "    def public(self): return self._used()\n"
                     "class Other:\n"
                     "    def _spare(self): return 2\n")
    assert _unloaded_private_methods(tree) == [(3, "Tree._node_obj"),
                                               (8, "Other._spare")]


def test_modules_import_no_private_name_of_another():
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports += [f"{path.name}:{line}: {name}"
                    for line, name in _private_imports(tree)]
    assert imports == []


def test_check_flags_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from ._util import helper\n"
                     "from .pcapio import (\n"
                     "    TCP_ACK,\n"
                     "    _headers_len,\n"
                     ")\n"
                     "from flowprof.core import _LABEL_RE as label_re\n"
                     "from . import _private_module\n"
                     "from collections import _chain\n"
                     "def f(): from .sigtree import _dot_escape\n")
    assert _private_imports(tree) == [(3, "pcapio._headers_len"),
                                      (7, "flowprof.core._LABEL_RE"),
                                      (8, "._private_module"),
                                      (10, "sigtree._dot_escape")]


def test_exported_names_are_used_inside_the_package():
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    assert _unloaded_exports(flowprof.__all__, trees) == []


def test_check_flags_an_export_nothing_loads():
    trees = [ast.parse("def run(): return 1\n"
                       "def left_over(): return run()\n"
                       "def parse(text): return text\n"),
             ast.parse("from .a import parse as parse_rules\n"
                       "class Model: pass\n"
                       "def load(): return Model(), parse_rules('')\n")]
    assert _unloaded_exports(["run", "left_over", "parse", "Model", "load"],
                             trees) == ["left_over", "load"]


def test_only_format_modules_serialize_to_text():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in FORMAT_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{line}: .{name}()"
                  for line, name in _serializer_calls(tree)]
    assert calls == []


def test_check_flags_a_serializer_call():
    tree = ast.parse("def key(host, flow):\n"
                     "    return (host.token(), flow.canonical_json(),\n"
                     "            sorted([flow], key=FlowId.canonical_json))\n")
    assert _serializer_calls(tree) == [(2, "canonical_json"), (2, "token")]


def _positional_packet_calls(tree: ast.Module) -> list:
    """Lines that call ParsedPacket, a second and slower way to build a
    packet than core.new_packet, or new_packet with positional arguments,
    whose values a reorder of the fields would shift silently."""
    calls = [(node, getattr(node.func, "id", None)
              or getattr(node.func, "attr", None))
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return sorted(node.lineno for node, name in calls
                  if name == "ParsedPacket"
                  or name == "new_packet" and node.args)


def test_packets_are_built_with_keywords():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{line}: not new_packet(field=...)"
                  for line in _positional_packet_calls(tree)]
    assert calls == []


def test_check_flags_a_positional_packet():
    tree = ast.parse("def build(ts, src, dst, fields, args):\n"
                     "    return [ParsedPacket(ts_us=ts, src_addr=src,\n"
                     "                         dst_addr=dst),\n"
                     "            ParsedPacket(**fields),\n"
                     "            ParsedPacket(ts, src, dst),\n"
                     "            core.ParsedPacket(ts, src_addr=src,\n"
                     "                              dst_addr=dst),\n"
                     "            ParsedPacket(*args),\n"
                     "            new_packet(ts_us=ts, src_addr=src,\n"
                     "                       dst_addr=dst),\n"
                     "            new_packet(**fields),\n"
                     "            core.new_packet(ts, src_addr=src,\n"
                     "                            dst_addr=dst),\n"
                     "            new_packet(*args)]\n")
    assert _positional_packet_calls(tree) == [2, 4, 5, 6, 8, 12, 14]


def _outside_mutations(tree: ast.Module) -> list:
    """Lines that call object.__setattr__ on anything but `self`: a frozen
    value changed after its constructor returned keeps a stale hash."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__"
                  and getattr(node.func.value, "id", None) == "object"
                  and getattr(node.args[0] if node.args else None,
                              "id", None) != "self")


def test_frozen_values_are_set_only_while_built():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{line}: object.__setattr__(...)"
                  for line in _outside_mutations(tree)]
    assert calls == []


def test_check_flags_a_flow_changed_from_outside():
    tree = ast.parse("def bump(flow):\n"
                     "    object.__setattr__(flow, 'responder_port', 80)\n"
                     "class HostRef:\n"
                     "    def __post_init__(self):\n"
                     "        object.__setattr__(self, 'value', 'x')\n"
                     "        setattr(self, 'kind', 'role')\n"
                     "def touch(args):\n"
                     "    object.__setattr__(*args)\n")
    assert _outside_mutations(tree) == [2, 8]


# every token of a coded selector field, from the one vocabulary in core
SELECTOR_TOKENS = frozenset(DNS_QTYPES) | frozenset(HTTP_METHODS) \
    | frozenset(COAP_TYPES) | frozenset(COAP_CODES)


def _selector_vocabularies(tree: ast.Module) -> list:
    """Module-level assignments of a collection that holds a selector token:
    a second copy of the vocabulary, free to drift from core's."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not node.value:
            continue
        if any(isinstance(elt, ast.Constant) and elt.value in SELECTOR_TOKENS
               for coll in ast.walk(node.value)
               if isinstance(coll, (ast.Tuple, ast.List, ast.Set, ast.Dict))
               for elt in ast.iter_child_nodes(coll)):
            target = node.targets[0] if isinstance(node, ast.Assign) \
                else node.target
            found.append((node.lineno, ast.unparse(target)))
    return found


def test_only_core_holds_the_selector_vocabulary():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _selector_vocabularies(tree)]
    assert found == []


def test_check_flags_a_copy_of_the_selector_vocabulary():
    tree = ast.parse("_METHODS = ('GET', 'POST')\n"
                     "KINDS = {'tcp': 6, 'udp': 17}\n"
                     "_CODES: dict = {1: 'GET', 69: '2.05'}\n"
                     "LABEL = 'GET'\n"
                     "def parse(qtype):\n"
                     "    return qtype in ('A', 'AAAA')\n"
                     "_TYPES = frozenset(['CON', 'NON'])\n"
                     "_QTYPES = {name: code for code, name in _NAMES}\n")
    assert _selector_vocabularies(tree) == [(1, "_METHODS"), (3, "_CODES"),
                                            (7, "_TYPES")]


def _memo_kind(decorator):
    """'lru_cache' or 'cache' for a functools memo decorator, else None."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = getattr(func, "attr", None) or getattr(func, "id", None)
    return name if name in ("lru_cache", "cache") else None


def _bounded(decorator) -> bool:
    """An lru_cache whose maxsize is a named constant or 1."""
    if not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords
                                  if kw.arg == "maxsize"]
    return len(sizes) == 1 and (
        isinstance(sizes[0], ast.Name) and sizes[0].id.isupper()
        or isinstance(sizes[0], ast.Constant) and sizes[0].value == 1)


def _unbounded_memos(tree: ast.Module) -> list:
    """Module-level functions and methods of module-level classes memoized
    without an explicit bound: such a memo lives as long as the process.
    A memo inside a function dies with its call and may be unbounded."""
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return sorted((node.lineno, node.name) for body in scopes for node in body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for decorator in node.decorator_list
                  if _memo_kind(decorator) and not _bounded(decorator))


def test_module_level_memos_are_bounded():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _unbounded_memos(tree)]
    assert found == []


def test_check_flags_an_unbounded_memo():
    tree = ast.parse("import functools\n"
                     "from functools import lru_cache\n"
                     "@functools.lru_cache(maxsize=CACHE_SIZE)\n"
                     "def named(x): return x\n"
                     "@lru_cache(1)\n"
                     "def single(x): return x\n"
                     "@functools.lru_cache\n"
                     "def default(x): return x\n"
                     "@functools.lru_cache(maxsize=None)\n"
                     "def unbounded(x): return x\n"
                     "@functools.cache\n"
                     "def cached(x): return x\n"
                     "@lru_cache(maxsize=4096)\n"
                     "def literal(x): return x\n"
                     "class Table:\n"
                     "    @functools.lru_cache()\n"
                     "    def lookup(self, x): return x\n"
                     "def per_call(xs):\n"
                     "    @functools.cache\n"
                     "    def inner(x): return x\n"
                     "    return [inner(x) for x in xs]\n")
    assert _unbounded_memos(tree) == [(8, "default"), (10, "unbounded"),
                                      (12, "cached"), (14, "literal"),
                                      (17, "lookup")]


# the one JSON reader, and the errors only it may catch
READER = "read_json"
DECODE_ERRORS = ("JSONDecodeError", "RecursionError")


def _json_decoding(tree: ast.Module) -> list:
    """Calls of json.loads or json.load, and except clauses naming a decode
    error, outside the body of the reader."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == READER
              for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) \
                and ast.unparse(node.func) in ("json.loads", "json.load"):
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found += [(node.lineno, name) for name in DECODE_ERRORS
                      if name in ast.unparse(node.type)]
    return sorted(found)


def test_only_the_reader_decodes_json():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _json_decoding(tree)]
    assert found == []


def test_check_flags_json_decoding_outside_the_reader():
    tree = ast.parse("import json\n"
                     "def read_json(build, text):\n"
                     "    try:\n"
                     "        return build(json.loads(text))\n"
                     "    except (ValueError, RecursionError):\n"
                     "        raise\n"
                     "def load(path):\n"
                     "    try:\n"
                     "        with open(path) as file:\n"
                     "            return json.load(file)\n"
                     "    except json.JSONDecodeError:\n"
                     "        return json.loads('null'), json.dumps(path)\n"
                     "    except (OSError, RecursionError) as exc:\n"
                     "        raise ValueError(path) from exc\n")
    assert _json_decoding(tree) == [(10, "json.load"),
                                    (11, "JSONDecodeError"),
                                    (12, "json.loads"),
                                    (13, "RecursionError")]
