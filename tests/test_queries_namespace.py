"""Guards for the queries package namespace (VERDICT r3 #1/#2).

The round-3 `cm_user_counts` red row was a silent top-level name
collision (`_cm_sql` defined twice in the then-64k-line single module;
`oracle_sql()` resolved the wrong one).  These tests make that bug
class impossible to reintroduce:

- no top-level name may be defined in two different query modules, and
  none may be defined twice within one module (AST-level, so it also
  catches shadowing that the import-time ``__defined__`` guard in
  ``battery/queries/__init__.py`` would miss after an edit);
- every module's ``__defined__`` registry matches its actual AST
  definitions (keeps the cheap import-time guard honest);
- the driver-facing surface is intact: 715 queries, every oracle key is
  a query key;
- no query module re-grows a driver-side dim materialization on the
  fact-scale tables (``take_all()`` adjacent to a customer/supplier/
  part/orders/lineitem read — the VERDICT r3 #2 pattern; dimension
  reads go through ``broadcast_dim``/``_dim_np``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "battery" / "queries"
MODULES = sorted(p for p in PKG.glob("b*.py"))


def _defined(node):
    out = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.append(node.name)
    elif isinstance(node, ast.Assign):
        for t in node.targets:
            if isinstance(t, ast.Name):
                out.append(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                out.extend(e.id for e in t.elts if isinstance(e, ast.Name))
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def _module_defs(path):
    tree = ast.parse(path.read_text())
    defs = []
    for node in tree.body:
        defs.extend(_defined(node))
    return defs


def test_no_duplicate_toplevel_names_within_a_module():
    for path in MODULES:
        defs = _module_defs(path)
        seen: dict[str, int] = {}
        for name in defs:
            seen[name] = seen.get(name, 0) + 1
        dups = {k: v for k, v in seen.items()
                if v > 1 and k != "__defined__"}
        assert not dups, f"{path.name}: shadowed top-level names {dups}"


def test_no_duplicate_toplevel_names_across_modules():
    owner: dict[str, str] = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for name in set(_defined(node)):
                if name == "__defined__":
                    continue
                # names may legitimately be re-bound within a module
                # (caught above if defined twice); across modules any
                # re-definition is the cm_user_counts bug class
                if name in owner and owner[name] != path.name:
                    raise AssertionError(
                        f"{name!r} defined in both {owner[name]} and "
                        f"{path.name} — the merged battery.queries "
                        "namespace would silently shadow one")
                owner[name] = path.name


def test_defined_registry_matches_ast():
    import importlib

    for path in MODULES:
        mod = importlib.import_module(f"battery.queries.{path.stem}")
        ast_defs = set(_module_defs(path)) - {"__defined__"}
        reg = set(mod.__defined__)
        missing = ast_defs - reg
        stale = reg - ast_defs
        assert not missing and not stale, (
            f"{path.name}: __defined__ out of sync "
            f"(missing={sorted(missing)}, stale={sorted(stale)})")


def test_driver_surface_intact():
    from battery.queries import ORACLE_SQL, QUERIES

    assert len(QUERIES) == 715
    assert set(ORACLE_SQL) <= set(QUERIES)


FACT_TABLES = ("customer", "supplier", "part", "orders", "lineitem")


def test_no_fact_table_take_all():
    pat = re.compile(
        r'_read\(sf_dir,\s*"(%s)"[^)]*\)(\s*\\\n\s*)?\s*\.take_all\(\)'
        % "|".join(FACT_TABLES))
    offenders = []
    for path in MODULES:
        for m in pat.finditer(path.read_text()):
            offenders.append(f"{path.name}: {m.group(0)[:60]}")
    assert not offenders, (
        "driver-side fact/dim take_all() reintroduced (use "
        f"broadcast_dim/_dim_np or bucketed_join): {offenders}")


# Every table that is fact-scale at the 100 TB design point — the r4
# verdict extended the r3 ban beyond the TPC-H five to the corpus
# tables (embeddings/documents/events) and image reads, which had
# escaped the chained-call regex above by assigning the read to a
# variable first (`emb = _read(...)` … `emb.take_all()`).
GUARDED_TABLES = FACT_TABLES + ("embeddings", "documents", "events")

# ops that neither contract cardinality nor leave the driver-side
# materialization hazard behind — a take_all through ONLY these is
# still a whole-table collect.  filter / groupby / aggregate / limit /
# map_batches chains are allowed: those either contract or transform
# before collecting (knn's bounded `vec_id<5` filter, count-scale
# aggregates).
_PASSTHROUGH = {"select_columns", "materialize", "drop_columns",
                "rename_columns"}


def _is_guarded_read(call):
    """True when ``call`` is itself a guarded-table `_read` / image-
    table read (NOT merely a call that takes one as an argument — a
    pair-discovery op like ``minhash_lsh_pairs(_read(...))`` contracts
    to pair scale and is outside this ban)."""
    f = call.func
    fname = (f.id if isinstance(f, ast.Name)
             else f.attr if isinstance(f, ast.Attribute) else None)
    if (fname == "_read" and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and call.args[1].value in GUARDED_TABLES):
        return True
    return fname in ("read_image_table", "_read_docs")


def _chain_base(v):
    """Unwind a pass-through call chain to its base node."""
    while (isinstance(v, ast.Call)
           and isinstance(v.func, ast.Attribute)
           and v.func.attr in _PASSTHROUGH):
        v = v.func.value
    return v


def _tainted_reads(fn):
    """Variable names bound (directly, through a pass-through chain,
    or TRANSITIVELY via another tainted name — `e2 =
    emb.select_columns(...)`) to a guarded-table `_read` / image-table
    read inside ``fn``.  Handles plain and annotated assignments;
    iterates to a fixpoint so re-bindings can't launder the taint."""
    assigns = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            assigns.append((node.targets[0].id, node.value))
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)):
            assigns.append((node.target.id, node.value))
    tainted: set = set()
    changed = True
    while changed:
        changed = False
        for name, v in assigns:
            if name in tainted:
                continue
            base = _chain_base(v)
            if ((isinstance(base, ast.Call) and _is_guarded_read(base))
                    or (isinstance(base, ast.Name)
                        and base.id in tainted)):
                tainted.add(name)
                changed = True
    return tainted


def test_no_corpus_table_take_all_ast():
    """AST taint guard: no `take_all()` on a raw guarded-table read —
    even through an intermediate variable or select_columns chain (the
    exact idiom the r4 verdict flagged in the three embedding-audit
    queries). Route driver-side gathers through the size-capped
    broadcast_dim/_dim_np/_emb_dim_np instead."""
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for fn in [n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef)]:
            tainted = _tainted_reads(fn)
            if not tainted:
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "take_all"):
                    continue
                base = _chain_base(node.func.value)
                hit = ((isinstance(base, ast.Name) and base.id in tainted)
                       or (isinstance(base, ast.Call)
                           and _is_guarded_read(base)))
                if hit:
                    offenders.append(
                        f"{path.name}:{node.lineno} in {fn.name}")
    assert not offenders, (
        "whole-corpus driver take_all() on a fact-scale table (use "
        f"broadcast_dim/_dim_np/_emb_dim_np): {offenders}")
