import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sparse_expand

PACKAGE = Path(sparse_expand.__file__).parent

# Imports every module of the package in a fresh interpreter and prints the
# top-level names of the modules that importing them loaded.
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import sparse_expand
for info in pkgutil.iter_modules(sparse_expand.__path__):
    importlib.import_module("sparse_expand." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_the_package_loads_only_the_standard_library_and_click():
    src = str(Path(sparse_expand.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "sparse_expand" in loaded and "click" in loaded
    assert loaded - sys.stdlib_module_names - {"sparse_expand", "click"} == set()


_JSON_PARSERS = {"load", "loads", "JSONDecoder"}


def _json_reads(source: str) -> list[int]:
    """Line numbers where `source` uses or imports a JSON parser of `json`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _JSON_PARSERS:
            if getattr(node.value, "id", None) == "json":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if {alias.name for alias in node.names} & _JSON_PARSERS:
                lines.append(node.lineno)
    return lines


def test_only_files_module_parses_json():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py" and (lines := _json_reads(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, "parse JSON records with sparse_expand.files.json_object"
    assert _json_reads((PACKAGE / "files.py").read_text(encoding="utf-8"))


def test_json_read_guard_sees_every_json_read():
    source = "\n".join(
        [
            "json.loads(text)",
            "json.load(handle)",
            "from json import loads",
            "from json import dumps, load",
            "parse = json.loads",
            "json.JSONDecoder(object_pairs_hook=hook)",
            "from json import JSONDecoder",
            "json.dumps(obj)",
            "from json import dumps",
            "obj.loads(text)",
        ]
    )
    assert sorted(_json_reads(source)) == [1, 2, 3, 4, 5, 6, 7]


# Attributes private to `Index` and its per-field records: every other
# module reads an index through its public methods.
_INDEX_PRIVATE = {"_fields", "_term_tables", "_columns", "ordinals", "_span", "_term_ordinals", "_position_offsets"}


def _private_reads(source: str, private: set[str]) -> list[int]:
    """Line numbers where `source` reads an attribute named in `private`,
    directly or by name through `getattr` or `attrgetter`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in private:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in {
            "getattr",
            "attrgetter",
        }:
            if any(isinstance(arg, ast.Constant) and arg.value in private for arg in node.args):
                lines.append(node.lineno)
    return lines


def test_only_index_module_reads_index_internals():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "index.py"
        and (lines := _private_reads(path.read_text(encoding="utf-8"), _INDEX_PRIVATE))
    }
    assert offenders == {}, "read an Index through its public methods"
    assert _private_reads((PACKAGE / "index.py").read_text(encoding="utf-8"), _INDEX_PRIVATE)


def test_index_internals_guard_sees_every_read():
    source = "\n".join(
        [
            "index._fields[field]",
            "idx._term_tables.get(lang)",
            "index._columns(field, term, 1)",
            "columns.ordinals",
            "getattr(index, '_fields')",
            "operator.attrgetter('ordinals')",
            "attrgetter('_term_tables')(index)",
            "index._span(field, term)",
            "index._term_ordinals[field]",
            "getattr(index, '_position_offsets')",
            "index.fields",
            "index.raw_values(field)",
            "index.term_docs(fields, term)",
            "chain._cache",
            "ordinals = {}",
        ]
    )
    assert sorted(_private_reads(source, _INDEX_PRIVATE)) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


# Attributes private to `ArticleStore`: its articles, its two title run
# tables and its lead memo. Other modules use `wikitext`, `match` and `lead`.
_STORE_PRIVATE = {"_articles", "_standard", "_exact", "_leads"}


def test_only_wiki_lead_module_reads_store_internals():
    root = PACKAGE.parents[1]
    paths = [*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]
    offenders = {
        path.name: lines
        for path in sorted(paths)
        if path.name != "wiki_lead.py"
        and (lines := _private_reads(path.read_text(encoding="utf-8"), _STORE_PRIVATE))
    }
    assert offenders == {}, "read an ArticleStore through its public methods"
    assert _private_reads((PACKAGE / "wiki_lead.py").read_text(encoding="utf-8"), _STORE_PRIVATE)


def test_store_internals_guard_sees_every_read():
    source = "\n".join(
        [
            "store._articles[title]",
            "self._leads.get(key)",
            "chain, runs = store._standard",
            "store._exact[1]",
            "getattr(store, '_leads')",
            "operator.attrgetter('_articles')(store)",
            "store.wikitext(title)",
            "store.lead(title, 3)",
            "articles = {}",
            "getattr(store, 'titles')",
        ]
    )
    assert sorted(_private_reads(source, _STORE_PRIVATE)) == [1, 2, 3, 4, 5, 6]


_CHAIN_MAKERS = {"chain_for", "AnalyzerChain"}


def _chain_makes(source: str) -> list[int]:
    """Line numbers where `source` calls `chain_for` or constructs an
    `AnalyzerChain`, by name or as a module attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in _CHAIN_MAKERS
    ]


def test_only_analysis_module_makes_chains():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "analysis.py" and (lines := _chain_makes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, "take the chain of a profile from analysis.shared_chain"
    assert _chain_makes((PACKAGE / "analysis.py").read_text(encoding="utf-8"))


def test_chain_guard_sees_every_chain_made():
    source = "\n".join(
        [
            "chain_for('en')",
            "analysis.chain_for(lang, frozenset())",
            "AnalyzerChain(lang, stopwords)",
            "analysis.AnalyzerChain('de')",
            "shared_chain('en')",
            "chains: dict[str, AnalyzerChain] = {}",
            "from .analysis import AnalyzerChain, chain_for",
            "index.chain_for_field(field)",
        ]
    )
    assert sorted(_chain_makes(source)) == [1, 2, 3, 4]
