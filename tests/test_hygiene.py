"""Source hygiene: every name a module of the package or of its tests
imports is used in that module, every module-level `_private` function or
class is referenced somewhere in the package, and every public one there or
in the benchmark, unless an allowlist names it.

The package's `__init__.py` re-exports its imports, and `from __future__`
imports are directives, so both are exempt from the import check.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "transducer_workbench"
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            # A quoted annotation names its types inside a string.
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 10
    assert len(TESTS) >= 10


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ):
            yield node.name, node.lineno


def _referenced_names(tree):
    """Names read as variables, attributes or imports, annotations included."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCE.glob("*.py")}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unreferenced = [
        f"{module}: {name} (line {line})"
        for module, tree in sorted(trees.items())
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]
    assert unreferenced == [], f"private definitions nothing references: {unreferenced}"


# Public definitions that neither the package nor the benchmark uses, each
# with the reason it stays.
UNREFERENCED_PUBLIC = {
    "fusion.py: rescore_nbest": "a second density-ratio path; its deletion waits on the "
                                "benchmark revision",
    "decoding.py: exhaustive_decode": "the exact-search oracle of ALSD",
    "numerics.py: finite_difference_gradient": "the central-difference oracle of every "
                                               "backward pass",
    "joint.py: joint_backward": "the per-node reference of `joint_backward_lattice`",
}


def _public_definitions(body):
    """(top-level index, member node or None, name) of every public
    module-level function or class in `body`, and of every public method or
    property of its classes, named `Class.member`. Dunders are not public."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for i, node in enumerate(body):
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield i, None, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield i, member, f"{node.name}.{member.name}"


def test_no_unreferenced_public_definitions():
    """Every public module-level function or class of the package, and every
    public method or property of its classes, is referenced outside its own
    definition, in the package (its own module included) or in a file under
    `benchmark/`, or is on `UNREFERENCED_PUBLIC`, which names nothing that
    is referenced. A re-export in `__init__.py` is not a use: a name only
    tests read would pass through it. A member counts as referenced when its
    name is read anywhere else, as an attribute or a name."""
    nodes = {p.name: ast.parse(p.read_text(encoding="utf-8")).body for p in MODULES}
    names = {module: [_referenced_names(node) for node in body] for module, body in nodes.items()}
    benchmark = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                              for p in BENCHMARK.rglob("*.py")))
    unreferenced = set()
    for module, body in nodes.items():
        outside = benchmark.union(*(n for m, module_names in names.items() if m != module
                                    for n in module_names))
        for i, member, name in _public_definitions(body):
            elsewhere = outside.union(*(n for j, n in enumerate(names[module]) if j != i))
            if member is not None:
                elsewhere |= set().union(*(_referenced_names(node) for node in body[i].body
                                           if node is not member))
            if name.rpartition(".")[2] not in elsewhere:
                unreferenced.add(f"{module}: {name}")
    assert sorted(unreferenced) == sorted(UNREFERENCED_PUBLIC)


def test_every_error_type_is_raised():
    """Every exception class of `errors.py` but the base `WorkbenchError` is
    raised somewhere in the package, so no handler waits on an error that
    nothing raises."""
    tree = ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8"))
    errors = [node.name for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name != "WorkbenchError"]
    raised = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert errors
    assert [name for name in errors if name not in raised] == []


STEPWISE_LM_ORACLE = {"LMState", "_lm_step", "lm_init_state", "lm_score_next", "lm_end_increment"}


def test_stepwise_lm_oracle_has_no_package_caller():
    """The stepwise LM API stays in `networks` only as the oracle of the
    prefix-table path (`lm_score` reading a `PrefixStates` table): outside
    its own definitions, nothing in the package reads it."""
    readers = []
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = [n for n in tree.body if getattr(n, "name", None) not in STEPWISE_LM_ORACLE]
        names = set().union(*map(_referenced_names, nodes))
        readers += [f"{path.name}: {name}" for name in sorted(STEPWISE_LM_ORACLE & names)]
    assert readers == []


LABEL_FORWARD_CALLERS = {
    "networks.py: PrefixStates._step",
    "networks.py: predict_embed",
    "networks.py: _lm_step",
}


def _readers(tree, name, scope=()):
    """The enclosing definition of every reference to `name` (a name, an
    attribute or an import), outside a definition of that name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name != name:
                yield from _readers(node, name, (*scope, node.name))
            continue
        named = (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
        )
        if named:
            yield ".".join(scope) or "<module>"
        yield from _readers(node, name, scope)


def _package_readers(name, skip=()):
    readers = set()
    for path in SOURCE.glob("*.py"):
        if path.name not in skip:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers |= {f"{path.name}: {where}" for where in _readers(tree, name)}
    return readers


def test_label_network_forward_has_one_prefix_state_caller():
    """Label prefixes are stepped only through the `PrefixStates` table: the
    label-network forward is called by its block step, by the sequence
    forward `predict_embed` (of the prediction network and of LM training),
    and by the stepwise LM oracle, and by nothing else in the package."""
    assert _package_readers("_label_forward") == LABEL_FORWARD_CALLERS


def test_one_minibatch_loop_clips_and_steps():
    """The transducer and both character LMs train through one minibatch
    loop, `training._fit`: it is the only package caller of the clip and of
    the optimizer step, so divergence handling cannot drift between them."""
    for name in ("clip_gradients", "optimizer_step"):
        assert _package_readers(name) == {"training.py: _fit"}, name


LM_HEAD_READERS = {
    "networks.py: LabelNetParams",  # the field
    "networks.py: LabelNetParams.num_labels",  # the end marker's embedding row
    "networks.py: LabelNetParams.arrays",  # checkpoints and the optimizer
    "networks.py: PrefixStates.__init__",  # an LM table's columns
    "networks.py: PrefixStates.columns",  # scoring
    "networks.py: lm_loss_and_grads",  # training
    "networks.py: _lm_step",  # the stepwise oracle
}


def test_lm_head_has_one_scoring_reader():
    """An LM's output head `(W_out, b_out)` scores label prefixes in one
    place, the column fill of its `PrefixStates` table, which `lm_score`
    reads; the table keys those columns on the head. Apart from its
    declaration and parameter container, training and the stepwise oracle
    are its only other readers. data.py's `head` is a byte-string prefix."""
    assert _package_readers("head", skip={"data.py"}) == LM_HEAD_READERS


ALL_MODULES = sorted(SOURCE.glob("*.py"))


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_allocator_settings(path):
    """The training step keeps its page faults down through its own
    allocation pattern, not through the C allocator: no module imports
    ctypes (the way to `mallopt` or `malloc_trim`), and none reads or sets
    a `MALLOC_*` environment variable, which are per-process settings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "ctypes"] == []
    texts = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    texts += [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    assert [t for t in texts if "MALLOC_" in t] == []


ARTIFACT_PREFIXES = ("model_", "nbest_", "lm_", "weights_", "combination_", "metrics_",
                     "features_", "transcripts_", "external_text", "config.ini", "report.")


def artifact_literals(path, naming_site="ARTIFACTS"):
    """The line and text of every artifact-name literal in the module at
    `path`, outside a module-level assignment to `naming_site`: an f-string
    that starts with an artifact prefix, or a string constant that does
    and reads as a file name (no whitespace, a dot suffix). Config keys
    such as `external_text_factor` and checkpoint metadata such as
    `lm_config` share the prefixes but name no file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {id(node) for top in tree.body
               if isinstance(top, ast.Assign)
               and any(getattr(t, "id", None) == naming_site for t in top.targets)
               for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.JoinedStr) and node.values:
            head = node.values[0]
            text = head.value if isinstance(head, ast.Constant) else ""
            if text.startswith(ARTIFACT_PREFIXES):
                found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith(ARTIFACT_PREFIXES)
              and re.fullmatch(r"\S+\.[a-z]+", node.value)):
            found.append((node.lineno, node.value))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_artifact_names_come_from_one_helper(path):
    """Every file name of a run directory is spelled once, in
    `experiment.ARTIFACTS`, which `experiment.artifact` fills; the stages,
    the CLI and `verify_report` call the helper."""
    assert artifact_literals(path) == []


CACHE_CLASSES = {"LSTMSeqCache", "EncoderCache", "JointCache", "JointLatticeCache"}


def test_every_cache_field_is_read():
    """A forward pass keeps in its cache only what a backward pass reads:
    each field of a package `*Cache` dataclass is read as an attribute
    somewhere in the package outside the class body."""
    caches, reads = {}, set()
    for path in SOURCE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Cache"):
                caches[node.name] = [item.target.id for item in node.body
                                     if isinstance(item, ast.AnnAssign)]
                continue
            reads |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    assert set(caches) == CACHE_CLASSES
    unread = [f"{name}.{field}" for name, fields in sorted(caches.items())
              for field in fields if field not in reads]
    assert unread == []
