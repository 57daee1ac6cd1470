"""The package's surface, read from its source: every import is used, every
public name has a caller in ``src/`` or is a traced-benchmark target, and no
module is long enough to step up the parser's peak memory."""

import ast
import importlib
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "toricqet").glob("*.py"))
# CPython's parser peak memory steps up by about 225 KB once a file passes
# 4,096 tokens (comments and blank lines not counted)
PARSER_TOKEN_STEP = 4096


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def module_imports(body):
    """(bound name, statement) of each import run at module level, inside a
    module-level if or try too, __future__ imports left out."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node
        elif isinstance(node, (ast.If, ast.Try)):
            handlers = [h.body for h in getattr(node, "handlers", ())]
            for block in (node.body, node.orelse, getattr(node, "finalbody", []), *handlers):
                yield from module_imports(block)


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, the names inside string annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = parse(path)
        kept = used_names(tree) | exported(tree)
        unused += [f"{path.name}:{node.lineno} {name}" for name, node in module_imports(tree.body)
                   if name not in kept]
    assert not unused, f"imports neither used in their module nor listed in __all__: {unused}"


@pytest.fixture(scope="module")
def span_components() -> set:
    """Every component of a function path that perfbench/spans.py wraps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        spans = importlib.import_module("spans")
    return {part for target in (*spans.TARGETS, *spans.GENERATOR_TARGETS) for part in target[1].split(".")}


def test_every_public_name_has_a_caller(span_components):
    sources = {path: path.read_text().splitlines() for path in MODULES}
    uncalled = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in span_components:
                continue
            word = re.compile(rf"\b{node.name}\b")
            # every line of src/ but those of the definition itself
            elsewhere = ("\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:]) if p == path
                         else "\n".join(lines) for p, lines in sources.items())
            if not any(word.search(text) for text in elsewhere):
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, f"public names with no caller in src/ that perfbench/spans.py does not wrap: {uncalled}"


def parser_tokens(path: Path) -> int:
    with tokenize.open(path) as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.generate_tokens(fh.readline))


def test_every_module_below_the_parser_token_step():
    counts = {path.name: parser_tokens(path) for path in MODULES}
    over = {name: n for name, n in counts.items() if n >= PARSER_TOKEN_STEP}
    assert not over, (
        f"modules of {PARSER_TOKEN_STEP} parser tokens or more: {over}. perfbench compiles every "
        f"module in each sample (PYTHONDONTWRITEBYTECODE=1), and compile()'s peak memory steps up "
        f"about 225 KB at {PARSER_TOKEN_STEP} tokens, more than the 0.1 MB peak_rss_mb bound; see "
        f"the FOUND line in CHANGES.md on CPython's parser peak memory. Move code to another module.")
