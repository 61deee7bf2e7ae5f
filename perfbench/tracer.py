"""In-memory span tracer installed around the package's public functions.

Spans record (name, start, end, parent, thread). Hot leaf calls keep
aggregate counters instead (calls, total time, self time, items), and
their time is charged to the innermost open span, so a span's self time
is its duration minus the union of its child spans' intervals minus the
leaf time spent directly inside it.

Each function is wrapped under every name its callers look it up by:
the defining module, and every package module that imported it by name
(`sparse_expand.pipeline.suggest_str`, `sparse_expand.analysis.porter_stem`,
...). Methods are wrapped on their class. Nothing under `src/` changes;
`uninstall` restores every original.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# (module, attribute path, kind); kind is "span" or "leaf".
TARGETS = (
    ("corpus", "ingest_documents", "span"),
    ("corpus", "read_topics", "span"),
    ("analysis", "AnalyzerChain.run", "leaf"),
    ("porter", "porter_stem", "leaf"),
    ("index", "build_index", "span"),
    ("index", "Index.save", "span"),
    ("index", "Index.load", "span"),
    ("index", "Index.search", "span"),
    ("index", "Index.doc_set", "span"),
    ("index", "Index.postings", "leaf"),
    ("str_recommender", "suggest_str", "span"),
    ("wiki_lead", "ArticleStore.from_dir", "span"),
    ("wiki_lead", "ArticleStore.match", "span"),
    ("wiki_lead", "extract_lead", "span"),
    ("wiki_lead", "suggest_wiki_lead", "span"),
    ("docsim", "SimCorpus.from_dir", "span"),
    ("docsim", "SimCorpus.sim", "leaf"),
    ("docsim", "suggest_docsim", "span"),
    ("expand", "build_query", "span"),
    ("expand", "combo_merge", "span"),
    ("expand", "parse_query", "span"),
    ("suggestions", "write_suggestion_file", "span"),
    ("suggestions", "read_suggestion_file", "span"),
    ("evaluation", "evaluate_run", "span"),
    ("evaluation", "read_run_file", "span"),
    ("evaluation", "write_run_file", "span"),
    ("evaluation", "read_qrels_file", "span"),
    ("pipeline", "run_pipeline", "span"),
    ("pipeline", "read_seeds_file", "span"),
)

# Layer names follow the module names, except str_recommender.
LAYER = {"str_recommender": "str"}

# Span fields, kept as lists for cheap mutation.
NAME, START, END, PARENT, THREAD, LEAF_S = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list[dict] = []
        self._main_stack: list[list] = []
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[list]):
        if stack:
            return stack[-1]
        # A pool worker's first span belongs to whatever the main thread
        # was running when it handed out the work.
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name: str):
        """Context manager recording one span (used for benchmark phases)."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, self._parent(stack), threading.get_ident(), 0.0]
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()

    def _leaf_acc(self) -> tuple[dict, list]:
        local = self._local
        acc = getattr(local, "acc", None)
        if acc is None:
            acc = local.acc = {}
            local.leaf_stack = []
            with self._lock:
                self._accs.append(acc)
        return acc, local.leaf_stack

    def wrap_span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def wrap_leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc, leaf_stack = self._leaf_acc()
            leaf_stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                inner = leaf_stack.pop()
                entry = acc.get(name)
                if entry is None:
                    entry = acc[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
                if isinstance(result, (list, tuple)):
                    entry[3] += len(result)
                if leaf_stack:
                    leaf_stack[-1] += elapsed
                else:
                    stack = self._stack()
                    parent = self._parent(stack)
                    if parent is not None:
                        with self._lock:
                            parent[LEAF_S] += elapsed

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for module_name, path, kind in TARGETS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrap = self.wrap_span if kind == "span" else self.wrap_leaf
            wrapped = wrap(f"{module_name}.{path}", fn)
            new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
            self._patch(owner, attr, new)
            if not owner_name:
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is raw:
                        self._patch(mod, attr, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis -------------------------------------------------------

    def leaves(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s, items], summed over threads."""
        out: dict[str, list] = {}
        for acc in self._accs:
            for name, entry in acc.items():
                total = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i, value in enumerate(entry):
                    total[i] += value
        return out

    def self_times(self) -> dict[int, float]:
        """id(span) -> duration minus union of children minus direct leaf time."""
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        out = {}
        for span in self.spans:
            start, end = span[START], span[END]
            covered = _union_length(
                (max(start, c[START]), min(end, c[END])) for c in children.get(id(span), ())
            )
            out[id(span)] = (end - start) - covered - span[LEAF_S]
        return out

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total_s, self_s) over every span and leaf counter."""
        out: dict[str, list] = {}
        self_s = self.self_times()
        for span in self.spans:
            entry = out.setdefault(span[NAME], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[END] - span[START]
            entry[2] += self_s[id(span)]
        for name, (calls, total, own, _items) in self.leaves().items():
            out[name] = [calls, total, own]
        return {name: tuple(entry) for name, entry in sorted(out.items())}

    def descendants(self, root: list) -> list[list]:
        """Spans below `root`, in start order."""
        inside = {id(root)}
        out = []
        for span in sorted(self.spans, key=lambda s: s[START]):
            if span[PARENT] is not None and id(span[PARENT]) in inside:
                inside.add(id(span))
                out.append(span)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return LAYER.get(module, module)
