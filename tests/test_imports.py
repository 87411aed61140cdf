"""Checks that run in a fresh interpreter: that runs never load scipy or
``numpy.ma``, and that the benchmark's per-layer hooks still find every call
boundary.  Also static checks of the source: no module imports scipy, only
``cli`` defines the output format, one call site runs the population loop,
only the quantile estimators join per-replica parts (their survivors), every
mean estimate comes from one block-moment path, one mixer rule turns the
uniforms of random-environment draws into laws (the simulation kernel builds
none, and no module but ``distributions`` builds a geometric law), one
report function certifies every damped condition series, one environment
method evaluates a function once per law, the package binds no library name
a second time, the mixer's and the spec's constructors alone check their
keys and kinds, a law and a spec are each built one way, ``quench_many``
alone draws a random environment's laws, ``check_budget`` alone refuses
a size past an in-memory budget, and one routine keeps every law's totals
contract."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from test_golden import CONFIGS

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> str:
    prelude = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
               f"{str(ROOT / 'bench')!r}]\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_never_load_scipy(tmp_path):
    # every golden config, plus a heavy-tail log-power psi series (zeta and
    # the tail quadrature), run through the CLI in one fresh interpreter;
    # numpy.ma (which np.median, np.quantile and np.unique import on their
    # first call) stays unloaded too
    configs = dict(CONFIGS, heavy_psi={
        "experiment": "conditions",
        "environment": {"preset": "heavy_tail_supercritical"},
        "params": {"series": "psi", "phi": {"log_power": 1}, "horizon": 8}})
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    out = run_python(
        "import json, bpve.cli\n"
        f"for name in {sorted(configs)!r}:\n"
        f"    cfg = {str(tmp_path)!r} + '/' + name\n"
        "    assert bpve.cli.main(['run', cfg + '.json', '--threads', '2',\n"
        "                          '--out', cfg + '-out']) == 0, name\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.partition('.')[0] == 'scipy'\n"
        "                        or (m + '.').startswith('numpy.ma.'))))")
    assert json.loads(out.splitlines()[-1]) == []


def source_nodes():
    """``(file name, node)`` for every syntax node of every bpve module."""
    for path in sorted((ROOT / "src" / "bpve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def imported_packages(node) -> list:
    """Top-level names of the packages an import statement imports."""
    names = ([alias.name for alias in node.names]
             if isinstance(node, ast.Import) else
             [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
    return [n.partition(".")[0] for n in names]


def test_no_module_imports_scipy():
    for name, node in source_nodes():
        assert "scipy" not in imported_packages(node), \
            f"{name}:{node.lineno} imports scipy"


def test_output_format_lives_in_cli():
    # cli.jsonable serializes every result dataclass from its fields
    for name, node in source_nodes():
        if name == "cli.py":
            continue
        assert "json" not in imported_packages(node), \
            f"{name}:{node.lineno} imports json"
        assert not (isinstance(node, ast.FunctionDef)
                    and node.name in ("to_dict", "to_csv")), \
            f"{name}:{node.lineno} defines {node.name}"


def module_callers(module: str) -> dict:
    """For each plain name a module's top-level functions call, the names
    of those functions, once per call."""
    callers = {}
    for func in ast.parse((ROOT / "src" / "bpve" / module).read_text()).body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, []).append(func.name)
    return callers


def holds_exp_w(expr, names) -> bool:
    """Whether ``expr`` holds an exp'd ``W``: a call of ``exp``, or one of
    ``names``."""
    return any(isinstance(n, ast.Call) and getattr(
                   n.func, "attr", getattr(n.func, "id", None)) == "exp"
               or isinstance(n, ast.Name) and n.id in names
               for n in ast.walk(expr))


def test_one_population_loop_reads_survival_from_log_w():
    # the estimators share one block runner, and a replica is alive when
    # log W > -inf: the exp'd W of a live replica can underflow to 0
    calls = [f"{name}:{node.lineno}" for name, node in source_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "simulate_block"]
    assert len(calls) == 1, calls
    tree = ast.parse((ROOT / "src" / "bpve" / "estimators.py").read_text())
    for func in tree.body:
        names = set()  # assigned from an exp'd W, in source order
        for node in sorted((n for n in ast.walk(func)
                            if isinstance(n, (ast.Assign, ast.Call))),
                           key=lambda n: n.lineno):
            value, targets = ((node.value, node.targets)
                              if isinstance(node, ast.Assign) else
                              (node, [k.value for k in node.keywords
                                      if k.arg == "out"]))
            if holds_exp_w(value, names):
                names |= {n.id for target in targets
                          for n in ast.walk(target) if isinstance(n, ast.Name)}
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, sides, sides[1:]):
                zero, w = ((rhs, lhs) if isinstance(op, ast.Gt) else
                           (lhs, rhs) if isinstance(op, ast.Lt) else
                           (None, None))
                assert not (isinstance(zero, ast.Constant) and zero.value == 0
                            and holds_exp_w(w, names)), \
                    f"estimators.py:{node.lineno} reads {ast.unparse(w)} > 0"


def test_only_the_quantile_estimators_join_per_replica_parts():
    # every other estimator reduces its blocks to counts or moments, and
    # _moments squares deviations in place; a join or numpy's std would
    # each copy a per-replica array
    tree = ast.parse((ROOT / "src" / "bpve" / "estimators.py").read_text())
    owner = {id(n): top.name for top in tree.body
             if isinstance(top, (ast.FunctionDef, ast.ClassDef))
             for n in ast.walk(top)}
    calls = {}
    for node in ast.walk(tree):  # module level and class bodies too
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            calls.setdefault(name, []).append(
                f"{owner.get(id(node), '<module>')}:{node.lineno}")
    joins = calls.get("concatenate", [])
    assert sorted(c.partition(":")[0] for c in joins) == [
        "mc_conditioned_critical", "mc_flt_discrepancy"], joins
    assert calls.get("std", []) == []


def test_one_block_moment_path_for_every_mean_estimate():
    # every mean estimate merges per-block (count, mean, M2) through
    # _w_moments, and every estimator runs through _reduce_blocks alone
    callers = module_callers("estimators.py")
    assert sorted(callers["_w_moments"]) == ["mc_increment_covariance",
                                             "mc_increment_covariance",
                                             "mc_l2_span"]
    defined = [f"{name}:{node.lineno} defines {node.name}"
               for name, node in source_nodes()
               if isinstance(node, ast.FunctionDef)
               and node.name in ("collect_w", "sample_mean", "_run_blocks")]
    assert defined == []


def test_one_mixer_rule_draws_every_environment():
    # Mixer.sample alone turns uniforms into log-means and laws, for the
    # quenched and the annealed path alike; a quenched draw takes its
    # uniforms from the one first_uniforms pass in Mixer.draw, so the
    # environment opens no stream per key and no module draws a normal
    calls = []
    for path in sorted((ROOT / "src" / "bpve").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): f"{cls.name}.{f.name}" for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for f in cls.body
                 if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            attr = getattr(node, "attr", None)
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                of = getattr(getattr(node.func, "value", None), "attr", None)
                watched = {"standard_normal", "first_uniforms"} | (
                    {"substream"} if path.name == "environment.py" else set())
                if name in watched or name == "searchsorted" and of == "cdf":
                    calls.append((name, path.name, owner.get(id(node), "")))
            assert not (isinstance(node, ast.Attribute)
                        and attr in ("mu", "sigma", "cdf")
                        and path.name != "environment.py"), \
                f"{path.name}:{node.lineno} reads a mixer's .{attr}"
    assert sorted(calls) == [
        ("first_uniforms", "environment.py", "Mixer.draw"),
        ("searchsorted", "environment.py", "Mixer.sample")]


def builds_geometric_law(call: ast.Call) -> bool:
    """Whether ``call`` is ``OffspringDistribution("geometric", ...)``, the
    kind given first or as ``kind=``."""
    kinds = call.args[:1] + [k.value for k in call.keywords if k.arg == "kind"]
    return getattr(call.func, "id", None) == "OffspringDistribution" and any(
        isinstance(k, ast.Constant) and k.value == "geometric" for k in kinds)


def test_geometric_laws_of_gaussian_draws_are_built_outside_the_kernel():
    # Mixer.sample returns a Gaussian draw's mean and GeometricRows owns
    # its q and its refusal, so the simulation kernel computes neither; a
    # quenched law table is a GeometricRows too, so no module but
    # distributions.py builds a geometric law
    for path in sorted((ROOT / "src" / "bpve").glob("*.py")):
        banned = {"simulate.py": ("exp", "geometric"),
                  "distributions.py": ()}.get(path.name, ("geometric",))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                assert name not in banned and not (
                    banned and builds_geometric_law(node)), \
                    f"{path.name}:{node.lineno} calls {ast.unparse(node)}"


def test_one_report_path_for_every_damped_series():
    # the variance, fractional, psi and increment-variance checkers share one
    # report function: it sums a row through damped_series and certifies it
    callers = module_callers("conditions.py")
    assert callers["_certify"] == ["_report"]
    assert sorted(callers["damped_series"]) == ["_report",
                                                "tightness_diagnostic"]
    assert "psi_series" not in callers["_certify"] + callers["damped_series"]


def test_one_law_table_for_every_per_law_evaluation():
    # an environment holds a table of laws and a law index per generation;
    # QuenchedEnvironment.map_laws is the one place that finds a range's
    # distinct laws, so nothing keys laws by id() and nothing but
    # environment.py reads an environment's per-generation .dists
    dedupes, callers = [], set()
    for path in sorted((ROOT / "src" / "bpve").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) \
                    or getattr(node.func, "attr", None)
                assert name != "id", f"{path.name}:{node.lineno} calls id()"
                if name in ("fromkeys", "at"):
                    dedupes.append((path.name, owner.get(id(node))))
                if name == "map_laws":
                    callers.add((path.name, owner.get(id(node))))
            if isinstance(node, ast.Attribute) and node.attr == "dists" \
                    and path.name != "environment.py":
                assert ast.unparse(node.value).endswith("mixer"), \
                    f"{path.name}:{node.lineno} reads an environment's .dists"
    assert dedupes == [("environment.py", "map_laws")]
    assert callers == {("conditions.py", "damped_series"),
                       ("conditions.py", "peak"),
                       ("conditions.py", "jagers_sum"),
                       ("conditions.py", "moment_ratio_sup"),
                       ("estimators.py", "_check_span")}


def test_one_totals_contract_for_every_law():
    # both totals methods are one call of _sample_totals, and neither
    # refuses a total past int64, skips a row without parents or writes out
    # itself; and a quenched environment offers no per-generation law list
    tree = ast.parse((ROOT / "src" / "bpve" / "distributions.py").read_text())
    for cls in ("OffspringDistribution", "GeometricRows"):
        body = next(node.body for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        method = next(node for node in body
                      if getattr(node, "name", None)
                      == "sample_generation_totals")
        calls = [n for n in ast.walk(method) if isinstance(n, ast.Call)]
        names = [getattr(c.func, "id", getattr(c.func, "attr", None))
                 for c in calls]
        assert names.count("_sample_totals") == 1, cls
        assert not {"overflow_rows", "_positive_rows"} & set(names), cls
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(method))
        # out is only handed on: the routine writes it
        routine = calls[names.index("_sample_totals")]
        outs = [n for n in ast.walk(method)
                if isinstance(n, ast.Name) and n.id == "out"]
        assert len(outs) == 1 and outs[0] in routine.args, cls
    tree = ast.parse((ROOT / "src" / "bpve" / "environment.py").read_text())
    body = next(node.body for node in tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "QuenchedEnvironment")
    assert "dists" not in {getattr(node, "name", None) for node in body}


def test_one_binding_per_name_and_one_owner_per_mixer_rule():
    # the package re-exports nothing, so every name has the one binding the
    # tracer and monkeypatch reach; Mixer.__init__ owns the mixer key rules
    package = ast.parse((ROOT / "src" / "bpve" / "__init__.py").read_text())
    assert not [node.lineno for node in ast.walk(package)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    tree = ast.parse((ROOT / "src" / "bpve" / "environment.py").read_text())
    mixer = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Mixer")
    from_config = next(node for node in mixer.body
                       if getattr(node, "name", None) == "from_config")
    for node in ast.walk(from_config):
        assert not isinstance(node, ast.Raise), \
            f"environment.py:{node.lineno} raises in Mixer.from_config"
        assert not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "check_keys"), \
            f"environment.py:{node.lineno} checks keys in Mixer.from_config"
    # and each spec and mixer constructor alone refuses an unknown kind
    for text in ("unknown mixer kind", "unknown environment kind"):
        raises = [f"{name}:{node.lineno}" for name, node in source_nodes()
                  if isinstance(node, ast.Raise) and text in ast.unparse(node)]
        assert len(raises) == 1, raises


def test_laws_and_specs_are_built_one_way():
    # a law is OffspringDistribution(kind, **params) and a spec
    # EnvironmentSpec(kind, ...), or either from its config; no family
    # classmethod and no table of preset factories spells them again
    for module, cls in (("distributions.py", "OffspringDistribution"),
                        ("environment.py", "EnvironmentSpec")):
        tree = ast.parse((ROOT / "src" / "bpve" / module).read_text())
        body = next(node.body for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        extra = [f"{cls}.{node.name}" for node in body
                 if isinstance(node, ast.FunctionDef)
                 and "classmethod" in map(ast.unparse, node.decorator_list)
                 and node.name != "from_config"]
        assert extra == []
    tree = ast.parse((ROOT / "src" / "bpve" / "environment.py").read_text())
    bound = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "PRESETS"]
    assert bound == []


def test_one_quench_draw_and_one_budget_raiser():
    # quench_many alone resolves a random environment's laws (dist_at
    # refuses a random spec), and check_budget alone refuses a size past
    # an in-memory budget
    draws, raisers = [], []
    for path in sorted((ROOT / "src" / "bpve").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "draw":
                draws.append((path.name, owner.get(id(node))))
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and "ResourceWarningError" in ast.unparse(node.exc):
                raisers.append((path.name, owner.get(id(node))))
    assert draws == [("environment.py", "quench_many")]
    assert raisers == [("environment.py", "check_budget")]


def test_bench_tracer_finds_every_hook():
    out = run_python("import json, bpve, bpve.cli\n"
                     "from spans import Tracer\n"
                     "tracer = Tracer()\n"
                     "tracer.install(bpve)\n"
                     "print(json.dumps(tracer.missing))")
    assert json.loads(out) == []
