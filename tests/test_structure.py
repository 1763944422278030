"""Guards on the shape of the package sources.

Every large allocation is checked against the memory budget by one
function, ``walk.check_budget``: it alone reads ``DEFAULT_MEMORY_BUDGET``
and raises ``ResourceLimitError``. A module that imported the budget by
name would hold its own copy, and patching or changing the budget would
miss it.

Shifts, coins, states and P(t) are checked against the paper's
conditions whenever they are made, so no parameter or dataclass field
may offer to skip a check.

Every state space is a ``ProductGraph``, one walker being the product
of one, so only ``graphs.py`` may ask which graph type it holds.

Integers are spelled in one place, ``numtext._digits``, with no Python
work per value: the graph hash, the state labels and the integer cells
of a table all go through it, so no other code may spell them one ``str``
or one numpy bytes cast at a time. Floats are spelled in one place too,
``numtext._reprs``, so no other code may map ``repr`` or
``float.__repr__`` over them. That holds for the JSON form of a table as
for the CSV form: both go through one row writer, which hands
``json.dumps`` to ``_reprs`` as the speller of the values it leaves to
Python (non-finite ones, arrays below its floor) and calls it on distinct
cell values only. So ``persist.py`` calls ``json.dumps`` by name only
where it writes the manifest, the reports and a JSON table's head, and
never in a loop.

P(t) stores only its ratio columns and makes the uniform ones on demand,
so a reader of its stored column ids would miss the uniform columns:
only ``equivalence.py``, which owns that convention, and ``persist.py``,
which stores the arrays, may read ``col_ids``. The store and its text
export hold those ratio columns only, so ``persist.py`` reads the stored
arrays and never calls ``find``, which makes the uniform ones.

A sequence of P(t) holds the store's arrays, all steps end to end, so
the passes over a whole sequence read them at once: the theorem check
(``verify_theorem_properties``), the store's writer (``save_sequence``)
and its reader (``persist._load_run``) hold no loop over the per-step
matrices or the step offsets.

P(t) has one core, shared by a lone matrix and a sequence: one check,
one lookup and one propagation. So the refusal of a malformed P(t) is
spelled once, in the one check, and the uniform columns are merged in
by one function, ``equivalence._with_uniform``, which only the one
lookup, ``equivalence._lookup``, calls.

One walk loop, the light-cone loop ``walk._light_cone``, turns the walk
into rho(t): it yields each step's masses on the walk's box with their
``vertex_masses``, so only ``walk.py`` may call ``vertex_masses``, and
no other module keeps a walk loop of its own. ``walk.evolve`` is that
loop with the masses put over the whole space; ``build_sequence`` and the
commands that need only rho(t) read the loop itself.

The walk's kernels have one driver, the box of a state's support: the
loop and ``walk.step`` both take it from ``walk._workspace``, which takes
the state alone, so no caller can ask for a whole-space box instead. A
box is built only there and in the spec that caches the whole-space
coincidence mask (``InteractionSpec._whole_coincident``), and no box
method puts a whole-space state back together: the one scatter to the
basis order is ``walk._in_basis``. The tests' oracles build whole-space
boxes of their own.
"""

import ast
from pathlib import Path

import qrwalk

SRC = Path(qrwalk.__file__).parent
BUDGET, ERROR = "DEFAULT_MEMORY_BUDGET", "ResourceLimitError"
#: Names of the switches that once skipped a check.
KNOBS = {"validate", "strict", "enforce_edges"}
#: The graph types that were once two kinds of state space.
GRAPH_TYPES = {"PortGraph", "ProductGraph"}
#: The modules that may read the stored column ids of P(t).
COLUMN_OWNERS = {"equivalence.py", "persist.py"}
#: The modules that write the stored columns only, never the uniform ones.
STORE_WRITERS = {"persist.py"}
#: The one integer formatter: module and function.
DIGIT_KERNEL = ("numtext.py", "_digits")
#: The one float formatter: module and function.
FLOAT_SPELLER = ("numtext.py", "_reprs")
#: The one module that sums basis-state masses into rho(t).
WALK_LOOP = "walk.py"
#: The functions of ``persist.py`` that may call ``json.dumps``, once
#: each: those that write the manifest, the reports and a JSON table's
#: head.
JSON_WRITERS = {"_compact", "write_json", "write_table"}
#: The nodes that repeat their body: a call inside one runs per row, per
#: chunk or per cell.
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
#: The functions that read all steps of P(t) at once, in the store's
#: layout: they may not loop over the steps.
ONE_PASS = {"verify_theorem_properties", "save_sequence", "_load_run"}
#: A part of the text that refuses a malformed P(t).
CSC_REFUSAL = "is not a CSC matrix"
#: The one function that merges in uniform columns, and its one caller.
UNIFORM_MERGE = ("_with_uniform", "_lookup")
#: What a loop over the steps iterates: the per-step matrices or the step
#: offsets, by name, attribute or store key.
STEPS = {"matrices", "step_ptr"}
#: The one driver of the walk's kernels, which takes the state alone.
WALK_DRIVER = "_workspace"
#: The functions that may build a box: the driver, and the spec that
#: caches the whole-space box's coincidence mask.
BOX_BUILDERS = {"_workspace", "_whole_coincident"}


def _names(node) -> set[str]:
    """Names an expression refers to, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def gate_breaches(source: str, module: str) -> list[str]:
    """Each place in ``source`` that raises ``ResourceLimitError``, reads
    the budget or imports it by name, outside ``walk.check_budget``."""
    tree = ast.parse(source)
    inside = set()
    if module == "walk.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "check_budget":
                inside = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Raise) and node.exc is not None \
                and ERROR in _names(node.exc):
            found.append((node.lineno, f"raises {ERROR}"))
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load) \
                and BUDGET in (getattr(node, "id", None),
                               getattr(node, "attr", None)):
            found.append((node.lineno, f"reads {BUDGET}"))
        elif isinstance(node, ast.ImportFrom) \
                and BUDGET in {a.name for a in node.names}:
            found.append((node.lineno, f"imports {BUDGET}"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_only_check_budget_reads_the_budget_and_raises():
    walk_source = (SRC / "walk.py").read_text()
    assert "def check_budget(" in walk_source
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in gate_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_guard_sees_each_breach():
    source = (
        "from .walk import DEFAULT_MEMORY_BUDGET\n"
        "def f(n):\n"
        "    if n > walk.DEFAULT_MEMORY_BUDGET:\n"
        "        raise errors.ResourceLimitError('too big')\n"
        "def check_budget(n):\n"
        "    raise ResourceLimitError(DEFAULT_MEMORY_BUDGET)\n"
    )
    assert gate_breaches(source, "other.py") == [
        "other.py:1 imports DEFAULT_MEMORY_BUDGET",
        "other.py:3 reads DEFAULT_MEMORY_BUDGET",
        "other.py:4 raises ResourceLimitError",
        "other.py:6 raises ResourceLimitError",
        "other.py:6 reads DEFAULT_MEMORY_BUDGET",
    ]
    assert gate_breaches(source, "walk.py") == [
        "walk.py:1 imports DEFAULT_MEMORY_BUDGET",
        "walk.py:3 reads DEFAULT_MEMORY_BUDGET",
        "walk.py:4 raises ResourceLimitError",
    ]


def knob_breaches(source: str, module: str) -> list[str]:
    """Each function parameter and dataclass field in ``source`` named in
    :data:`KNOBS`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs \
                + [p for p in (a.vararg, a.kwarg) if p is not None]
            found += [(p.lineno, f"parameter {p.arg}") for p in params
                      if p.arg in KNOBS]
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in _names(d) for d in node.decorator_list):
            found += [(f.lineno, f"field {f.target.id}") for f in node.body
                      if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)
                      and f.target.id in KNOBS]
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_no_parameter_or_field_skips_a_check():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in knob_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_knob_guard_sees_each_breach():
    source = (
        "@dataclass(frozen=True)\n"
        "class State:\n"
        "    strict: bool = True\n"
        "class Plain:\n"
        "    validate: bool = True\n"
        "def build(g, validate=True, *, enforce_edges=False):\n"
        "    def check(x, strict):\n"
        "        return x\n"
        "def validate(spec):\n"
        "    return spec\n"
    )
    assert knob_breaches(source, "m.py") == [
        "m.py:3 field strict",
        "m.py:6 parameter enforce_edges",
        "m.py:6 parameter validate",
        "m.py:7 parameter strict",
    ]


def type_check_breaches(source: str, module: str) -> list[str]:
    """Each ``isinstance`` call in ``source`` that names a graph type,
    unless ``module`` is ``graphs.py``."""
    if module == "graphs.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            found += [(node.lineno, f"isinstance on {name}")
                      for name in sorted(GRAPH_TYPES & _names(node.args[1]))]
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_only_graphs_asks_which_graph_type_it_holds():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in type_check_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_type_check_guard_sees_each_breach():
    source = (
        "def f(g, x):\n"
        "    if isinstance(g, ProductGraph):\n"
        "        return g.base\n"
        "    if isinstance(x, (dict, graphs.PortGraph)):\n"
        "        return x\n"
        "    return isinstance(g, (PortGraph, ProductGraph, int))\n"
        "def g(x):\n"
        "    return isinstance(x, dict) or ProductGraph.of(x)\n"
    )
    assert type_check_breaches(source, "m.py") == [
        "m.py:2 isinstance on ProductGraph",
        "m.py:4 isinstance on PortGraph",
        "m.py:6 isinstance on PortGraph",
        "m.py:6 isinstance on ProductGraph",
    ]
    assert type_check_breaches(source, "graphs.py") == []


def column_id_breaches(source: str, module: str) -> list[str]:
    """Each read of a ``col_ids`` attribute in ``source``, unless
    ``module`` is in :data:`COLUMN_OWNERS`."""
    if module in COLUMN_OWNERS:
        return []
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr == "col_ids"
             and isinstance(node.ctx, ast.Load)]
    return [f"{module}:{line} reads col_ids" for line in sorted(found)]


def test_only_the_owners_read_stored_column_ids():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in column_id_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_column_id_guard_sees_each_breach():
    source = (
        "def draw(seq, states):\n"
        "    mat = seq.matrices[0]\n"
        "    pos = np.searchsorted(mat.col_ids, states)\n"
        "    return getattr(mat, 'indptr')[pos], seq.matrices[1].col_ids\n"
        "def col_ids(x):\n"
        "    return x\n"
    )
    assert column_id_breaches(source, "trajectory.py") == [
        "trajectory.py:3 reads col_ids",
        "trajectory.py:4 reads col_ids",
    ]
    assert column_id_breaches(source, "equivalence.py") == []
    assert column_id_breaches(source, "persist.py") == []


def find_call_breaches(source: str, module: str) -> list[str]:
    """Each call of a ``find`` method in ``source``, if ``module`` is in
    :data:`STORE_WRITERS`."""
    if module not in STORE_WRITERS:
        return []
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "find"]
    return [f"{module}:{line} calls find" for line in sorted(found)]


def test_the_store_writer_never_makes_uniform_columns():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in find_call_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_find_guard_sees_each_breach():
    source = (
        "def table(seq):\n"
        "    mats = [m.find(np.arange(m.num_states))[0]\n"
        "            for m in seq.matrices]\n"
        "    return mats, seq.matrices[0].col_ids, find(seq)\n"
    )
    assert find_call_breaches(source, "persist.py") == [
        "persist.py:2 calls find",
    ]
    assert find_call_breaches(source, "trajectory.py") == []


def vertex_masses_breaches(source: str, module: str) -> list[str]:
    """Each call of ``vertex_masses`` in ``source``, bare or as an
    attribute, unless ``module`` is :data:`WALK_LOOP`."""
    if module == WALK_LOOP:
        return []
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and "vertex_masses" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    return [f"{module}:{line} calls vertex_masses" for line in sorted(found)]


def test_only_the_walk_loop_makes_rho():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in vertex_masses_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_vertex_masses_guard_sees_each_breach():
    source = (
        "from .walk import evolve, vertex_masses\n"
        "def rhos(space, psi, coin, shift, horizon):\n"
        "    return [vertex_masses(space, p)\n"
        "            for p, _ in evolve(psi, coin, shift, horizon)]\n"
        "def rho(space, p):\n"
        "    return walk.vertex_masses(space, p), space.vertex_masses\n"
    )
    assert vertex_masses_breaches(source, "cli.py") == [
        "cli.py:3 calls vertex_masses",
        "cli.py:6 calls vertex_masses",
    ]
    assert vertex_masses_breaches(source, "walk.py") == []


def _inside(tree, module: str, kernel: tuple[str, str]) -> set[int]:
    """The ids of the nodes of the top-level function ``kernel`` names,
    when ``module`` is its module."""
    return {id(n) for node in tree.body
            if module == kernel[0] and isinstance(node, ast.FunctionDef)
            and node.name == kernel[1] for n in ast.walk(node)}


def spelling_breaches(source: str, module: str) -> list[str]:
    """Each ``map(str, ...)`` call and each ``astype`` to a bytes dtype
    (``"S"`` or ``"S<n>"``) in ``source``, outside the digit kernel, and
    each ``map(repr, ...)`` or ``map(float.__repr__, ...)`` call outside
    the float speller."""
    tree = ast.parse(source)
    digits = _inside(tree, module, DIGIT_KERNEL)
    floats = _inside(tree, module, FLOAT_SPELLER)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        mapped = ast.unparse(args[0]) if isinstance(func, ast.Name) \
            and func.id == "map" and args else None
        if mapped in ("repr", "float.__repr__") and id(node) not in floats:
            found.append((node.lineno, f"map({mapped}, ...)"))
        if id(node) in digits:
            continue
        if mapped == "str":
            found.append((node.lineno, "map(str, ...)"))
        elif isinstance(func, ast.Attribute) and func.attr == "astype":
            dtypes = args[:1] + [k.value for k in node.keywords
                                 if k.arg == "dtype"]
            if any(isinstance(d, ast.Constant) and isinstance(d.value, str)
                   and d.value.lstrip("|").startswith("S")
                   for d in dtypes):
                found.append((node.lineno, "astype to bytes"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_integers_are_spelled_by_the_digit_kernel_only():
    # and floats by the float speller only
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in spelling_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_spelling_guard_sees_each_breach():
    source = (
        "def _digits(values):\n"
        "    return values.astype('S'), list(map(str, values))\n"
        "def labels(ids):\n"
        "    return '|'.join(map(str, ids.tolist()))\n"
        "def cells(part):\n"
        "    return part.astype('S21'), part.astype(dtype='|S'), \\\n"
        "        part.astype('U'), list(map(repr, part))\n"
        "def _reprs(values):\n"
        "    return list(map(float.__repr__, values)), map(repr, values)\n"
    )
    floats = ["7 map(repr, ...)", "9 map(float.__repr__, ...)",
              "9 map(repr, ...)"]
    assert spelling_breaches(source, "persist.py") == [
        "persist.py:2 astype to bytes",
        "persist.py:2 map(str, ...)",
        "persist.py:4 map(str, ...)",
        "persist.py:6 astype to bytes",
        "persist.py:6 astype to bytes",
    ] + [f"persist.py:{b}" for b in floats]
    # the kernels are exempt in their own module only
    assert spelling_breaches(source, "numtext.py") == [
        "numtext.py:4 map(str, ...)",
        "numtext.py:6 astype to bytes",
        "numtext.py:6 astype to bytes",
        "numtext.py:7 map(repr, ...)",
    ]


def json_dumps_breaches(source: str, module: str) -> list[str]:
    """Each ``json.dumps`` call in ``persist.py`` outside the functions of
    :data:`JSON_WRITERS`, or inside a loop (:data:`LOOPS`)."""
    if module != "persist.py":
        return []
    tree = ast.parse(source)
    allowed = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in JSON_WRITERS for n in ast.walk(node)}
    looped = {id(n) for node in ast.walk(tree) if isinstance(node, LOOPS)
              for n in ast.walk(node)}
    found = [(node.lineno, "in a loop" if id(node) in looped else "")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "json.dumps"
             and (id(node) not in allowed or id(node) in looped)]
    return [f"{module}:{line} calls json.dumps {where}".rstrip()
            for line, where in sorted(found)]


def _mentions(node) -> set[str]:
    """Names an expression refers to, bare or as an attribute, and the
    strings it holds (a store key)."""
    return _names(node) | {n.value for n in ast.walk(node)
                           if isinstance(n, ast.Constant)
                           and isinstance(n.value, str)}


def step_loop_breaches(source: str, module: str) -> list[str]:
    """Each loop (:data:`LOOPS`) in a function of :data:`ONE_PASS` whose
    iterable, or condition, mentions one of :data:`STEPS`."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name in ONE_PASS):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                heads = [node.iter]
            elif isinstance(node, ast.While):
                heads = [node.test]
            elif isinstance(node, LOOPS):
                heads = [g.iter for g in node.generators]
            else:
                continue
            steps = STEPS & set().union(*map(_mentions, heads))
            if steps:
                found.append((node.lineno, f"{func.name} loops over "
                              f"{', '.join(sorted(steps))}"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


def test_the_sequence_passes_read_all_steps_at_once():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in step_loop_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_step_loop_guard_sees_each_breach():
    source = (
        "def verify_theorem_properties(seq):\n"
        "    for t, mat in enumerate(seq.matrices):\n"
        "        pass\n"
        "    return [m.data for m in seq.matrices]\n"
        "def save_sequence(out, seq):\n"
        "    lo = 0\n"
        "    while lo < seq.step_ptr[-1]:\n"
        "        lo += 1\n"
        "def _load_run(m):\n"
        "    ptr = {t: 1 for t in m['step_ptr']}\n"
        "    return [data for data in m['data']]\n"
        "def draw(seq):\n"
        "    return [m.data for m in seq.matrices]\n"
    )
    assert step_loop_breaches(source, "m.py") == [
        "m.py:2 verify_theorem_properties loops over matrices",
        "m.py:4 verify_theorem_properties loops over matrices",
        "m.py:7 save_sequence loops over step_ptr",
        "m.py:10 _load_run loops over step_ptr",
    ]


def test_json_rows_are_not_spelled_by_json_dumps():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in json_dumps_breaches(path.read_text(), path.name)]
    assert breaches == []


def test_the_json_dumps_guard_sees_each_breach():
    source = (
        "def write_table(table, size):\n"
        "    head = json.dumps(table.meta)\n"
        "    chunks = (json.dumps(rows(lo)) for lo in range(0, size, 8))\n"
        "    return head, [json.dumps(c) for c in table.columns]\n"
        "def _chunk(rows):\n"
        "    return json.dumps(rows)\n"
        "_FORMATS = {'json': json.dumps}\n"
    )
    assert json_dumps_breaches(source, "persist.py") == [
        "persist.py:3 calls json.dumps in a loop",
        "persist.py:4 calls json.dumps in a loop",
        "persist.py:6 calls json.dumps"]
    assert json_dumps_breaches(source, "cli.py") == []


def core_breaches(sources: dict[str, str]) -> list[str]:
    """Each spelling of :data:`CSC_REFUSAL` in ``sources`` (module:
    source) but the first, each call of :data:`UNIFORM_MERGE`'s function
    outside its one caller, and each call in that caller but the first;
    a note when the text or that call is missing."""
    func, caller = UNIFORM_MERGE
    spelled, calls = [], []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        inside = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == caller for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and CSC_REFUSAL in node.value:
                spelled.append((module, node.lineno))
            elif isinstance(node, ast.Call) and func in _names(node.func):
                calls.append((id(node) in inside, module, node.lineno))
    calls.sort()
    within = [(m, line) for ok, m, line in calls if ok]
    found = [f"{m}:{line} spells the CSC refusal again"
             for m, line in sorted(spelled)[1:]]
    found += [f"{m}:{line} calls {func} outside {caller}"
              for ok, m, line in calls if not ok]
    found += [f"{m}:{line} calls {func} again" for m, line in within[1:]]
    if not spelled:
        found.append("the CSC refusal is spelled nowhere")
    if not within:
        found.append(f"{caller} never calls {func}")
    return found


def test_the_core_does_each_job_once():
    assert core_breaches({path.name: path.read_text()
                          for path in sorted(SRC.glob("*.py"))}) == []


def test_the_core_guard_sees_each_breach():
    core = (
        "def _check(t):\n"
        "    raise E(f'P({t}) is not a CSC matrix over')\n"
        "def _lookup(arrays):\n"
        "    return _with_uniform(arrays)\n"
    )
    other = (
        "class M:\n"
        "    def __post_init__(self):\n"
        "        raise E(f'P({self.time}) is not a CSC matrix')\n"
        "    def find(self):\n"
        "        return equivalence._with_uniform(self.arrays)\n"
        "def _lookup(arrays):\n"
        "    return _with_uniform(_with_uniform(arrays))\n"
    )
    assert core_breaches({"a.py": core}) == []
    assert core_breaches({"a.py": core, "b.py": other}) == [
        "b.py:3 spells the CSC refusal again",
        "b.py:5 calls _with_uniform outside _lookup",
        "b.py:7 calls _with_uniform again",
        "b.py:7 calls _with_uniform again",
    ]
    assert core_breaches({"b.py": "def f():\n    return 1\n"}) == [
        "the CSC refusal is spelled nowhere",
        "_lookup never calls _with_uniform"]


def driver_breaches(sources: dict[str, str]) -> list[str]:
    """Each definition of :data:`WALK_DRIVER` in ``sources`` (module:
    source) with other than one parameter, each call of it with other
    than one argument, each ``_Box(...)`` outside :data:`BOX_BUILDERS`
    and each ``state`` method of ``_Box``; a note when the driver is
    defined nowhere."""
    found, defined = [], False
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        inside = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in BOX_BUILDERS for n in ast.walk(node)}
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.FunctionDef) \
                    and node.name == WALK_DRIVER:
                defined = True
                a = node.args
                count = len(a.posonlyargs + a.args + a.kwonlyargs) \
                    + (a.vararg is not None) + (a.kwarg is not None)
                if count != 1:
                    found.append(f"{where} gives {WALK_DRIVER} {count} "
                                 "parameters")
            elif isinstance(node, ast.ClassDef) and node.name == "_Box":
                found += [f"{module}:{item.lineno} gives _Box a state "
                          "method" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "state"]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) \
                    or getattr(node.func, "attr", None)
                count = len(node.args) + len(node.keywords)
                if name == WALK_DRIVER and count != 1:
                    found.append(f"{where} calls {WALK_DRIVER} with {count} "
                                 "arguments")
                elif name == "_Box" and id(node) not in inside:
                    found.append(f"{where} builds a _Box outside "
                                 f"{', '.join(sorted(BOX_BUILDERS))}")
    if not defined:
        found.append(f"{WALK_DRIVER} is defined nowhere")
    return sorted(found)


def test_the_walk_kernels_have_one_driver():
    assert driver_breaches({path.name: path.read_text()
                            for path in sorted(SRC.glob("*.py"))}) == []


def test_the_driver_guard_sees_each_breach():
    driver = (
        "class _Box:\n"
        "    def gather(self, amps):\n"
        "        return amps\n"
        "def _workspace(psi):\n"
        "    return _Box(psi.graph, psi.amplitudes != 0)\n"
        "class InteractionSpec:\n"
        "    def _whole_coincident(self):\n"
        "        return _Box(self.graph, None)\n"
        "def step(psi):\n"
        "    return _workspace(psi)\n"
    )
    assert driver_breaches({"a.py": driver}) == []
    whole = (
        "class _Box:\n"
        "    def state(self, x, y):\n"
        "        return x\n"
        "def _workspace(psi, cone=False):\n"
        "    return _Box(psi.graph, None)\n"
        "def _light_cone(psi0):\n"
        "    return walk._workspace(psi0, cone=True)\n"
        "def apply(psi):\n"
        "    return walk._Box(psi.graph, None), _workspace()\n"
    )
    assert driver_breaches({"a.py": whole}) == [
        "a.py:2 gives _Box a state method",
        "a.py:4 gives _workspace 2 parameters",
        "a.py:7 calls _workspace with 2 arguments",
        "a.py:9 builds a _Box outside _whole_coincident, _workspace",
        "a.py:9 calls _workspace with 0 arguments",
    ]
    assert driver_breaches({"b.py": "def f():\n    return 1\n"}) == [
        "_workspace is defined nowhere"]
