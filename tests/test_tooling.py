"""Tooling that reaches into fedmmg by name still finds what it names, and
the benchmark's configs still build runs."""

import ast
import importlib
import importlib.util
import inspect
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_perfbench(name: str):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, qualname: str) -> bool:
    """Whether the benchmark tracer can wrap fedmmg.<module>.<qualname>: a
    function defined in that module, or a function, classmethod or
    staticmethod in the named class's own namespace."""
    mod = importlib.import_module(f"fedmmg.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        return inspect.isfunction(raw)
    fn = getattr(mod, attr, None)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_every_exported_name_resolves():
    import fedmmg
    namespace: dict = {}
    exec("from fedmmg import *", namespace)  # AttributeError on a stale name
    assert set(fedmmg.__all__) <= set(namespace)


def test_every_trace_target_resolves():
    targets = _load_perfbench("tracing").TARGETS
    assert targets
    missing = [f"{m}.{q}" for m, q in targets if not _resolves(m, q)]
    assert not missing, f"perfbench trace targets not found in fedmmg: {missing}"


def test_every_observer_reads_real_return_values(tmp_path):
    # a traced 3-client, 2-round in-process run calls each observer on the
    # values fedmmg really returns, so a renamed field fails here rather
    # than inside a traced benchmark child
    from fedmmg import cli, config
    from fedmmg.config import ExperimentConfig
    from fedmmg.federation import run_federation

    tr = _load_perfbench("tracing")
    called = {name: 0 for name in tr.OBSERVERS}

    def counting(name, observe):
        def wrapped(*args):
            called[name] += 1
            observe(*args)
        return wrapped

    for name, observe in list(tr.OBSERVERS.items()):
        tr.OBSERVERS[name] = counting(name, observe)

    cfg = ExperimentConfig()
    cfg.seed = 1
    cfg.task = "lp"
    cfg.data.blocks = 3
    cfg.data.nodes_per_block = 12
    cfg.data.d_img = 10
    cfg.data.d_txt = 9
    cfg.federation.clients = 3
    cfg.federation.rounds = 2
    cfg.federation.workers = 1
    cfg.model.hidden_dim = 8

    tracer = tr.Tracer("tooling")
    inst = tr.install(tracer)
    try:
        assembly = config.assemble_run(cfg)  # looked up as the tracer wraps it
        with tracer.root():
            history = run_federation(assembly.setup)
        cli.write_outputs(str(tmp_path), cfg, history, assembly.missing_fraction)
    finally:
        inst.restore()

    assert all(called.values()), f"observers never called: {called}"
    out = tr.summarize(tracer)
    # the spans perfbench/selftest.py expects of a link-prediction
    # (scale-lp) run, which the selftest checks outside this suite
    expected = {tr.span_name(m, q) for m, q in tr.TARGETS} - {
        "tasks.nc_task_loss", "numerics.grad_check"}
    silent = sorted(name for name in expected if out[f"{name}.calls"] < 1)
    assert not silent, f"spans never fired: {silent}"
    for key in ("generation.bank_slots", "numerics.tape_ops",
                "model.graph_cache_bytes"):
        assert out[key] > 0, key
    assert 0 < tracer.counts["generation.bank_usable"] <= out["generation.bank_slots"]
    assert 0 < out["generation.bank_fill_ratio"] <= 1
    tags = {s.tag for s in tracer.spans if s.name == "federation.client_local_round"}
    assert tags == {0, 1}
    assert out["federation.client_local_round.calls"] == 6


def test_benchmark_workload_configs_build_runs():
    # each federated workload's full and dry configs parse, and its dry
    # config assembles into as many clients as it asks for
    from fedmmg.config import ExperimentConfig, assemble_run

    workloads = _load_perfbench("workloads")
    federated = {name: wl for name, wl in workloads.WORKLOADS.items()
                 if isinstance(wl, workloads.Federated)}
    assert federated
    for name, workload in federated.items():
        ExperimentConfig.from_dict(workload.experiment(0, dry=False))
        cfg = ExperimentConfig.from_dict(workload.experiment(0, dry=True))
        setup = assemble_run(cfg).setup
        assert len(setup.clients) == cfg.federation.clients, name


def test_benchmark_link_prediction_set_up_stays_small():
    # assembling scale-lp's full config (a 4,000-node graph with 41 MB of
    # features, split into two clients) peaked at 91.6 MiB while each
    # client's feature rows were copied twice; copied once, 81.4-83.5 MiB;
    # cut one modality at a time, with the graph's matrix of a modality
    # dropped once it is cut, 64.9 MiB
    from fedmmg.config import ExperimentConfig, assemble_run

    workload = _load_perfbench("workloads").WORKLOADS["scale-lp"]
    cfg = ExperimentConfig.from_dict(workload.experiment(0, dry=False))
    tracemalloc.start()
    try:
        setup = assemble_run(cfg).setup
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(setup.clients) == 2
    assert peak < 68 * 2**20


def test_benchmark_gradcheck_calls_bind_to_the_suite():
    # perfbench/child.py unpacks each (dry) call in a for loop and passes the
    # parts to run_gradcheck_suite by keyword; bind them, without a run
    from fedmmg import verify

    with open(os.path.join(ROOT, "perfbench", "child.py")) as fh:
        tree = ast.parse(fh.read())
    call = next(node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "run_gradcheck_suite")
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For)
                and any(inner is call for inner in ast.walk(node)))
    names = [target.id for target in loop.target.elts]
    position = {kw.arg: names.index(kw.value.id) for kw in call.keywords}
    assert set(position) == {"seeds", "h", "tasks", "max_entries"}
    signature = inspect.signature(verify.run_gradcheck_suite)
    workloads = _load_perfbench("workloads")
    gradchecks = [wl for wl in workloads.WORKLOADS.values()
                  if isinstance(wl, workloads.Gradcheck)]
    assert gradchecks
    for workload in gradchecks:
        for values in workload.calls + workload.dry_calls:
            assert len(values) == len(names)
            signature.bind(**{key: values[i] for key, i in position.items()})


def test_output_digest_prints_the_digest_of_one_untraced_child(monkeypatch, capsys):
    # tools/output_digest.py hands perfbench's run_child the spec the
    # benchmark's own children get, untraced and at full size, and prints
    # the digest it returns, one line per seed in turn; a failed check in
    # any run also sets the exit status
    path = os.path.join(ROOT, "tools", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for var in tool.child.THREAD_VARS:
        monkeypatch.setenv(var, "4")  # restored after the test
    specs = []

    def run_child(child_spec):
        specs.append(child_spec)
        assert os.path.isdir(child_spec["workdir"])
        assert all(os.environ[var] == "1" for var in tool.child.THREAD_VARS)
        failures = ["final metric_1 below floor"] if len(specs) in (2, 3) else []
        return {"digest": f"d{len(specs)}", "failed": len(failures), "failures": failures}

    monkeypatch.setattr(tool.child, "run_child", run_child)
    assert tool.main(["scale-lp", "2027"]) == 0
    assert capsys.readouterr().out == "d1\n"
    assert tool.main(["smoke-nc", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "d2\n" and out.err == "final metric_1 below floor\n"
    assert set(specs[0]) == {"workload", "seed", "trace", "dry", "run_id", "workdir"}
    assert (specs[0]["workload"], specs[0]["seed"]) == ("scale-lp", 2027)
    assert specs[0]["trace"] is False and specs[0]["dry"] is False
    # two seeds: a failed first run still lets the second run and print
    assert tool.main(["smoke-nc", "0", "2027"]) == 1
    out = capsys.readouterr()
    assert out.out == "d3\nd4\n" and out.err == "final metric_1 below floor\n"
    assert tool.main(["scale-lp", "1", "2"]) == 0
    assert capsys.readouterr().out == "d5\nd6\n"
    assert [(s["workload"], s["seed"]) for s in specs[2:]] == [
        ("smoke-nc", 0), ("smoke-nc", 2027), ("scale-lp", 1), ("scale-lp", 2)]
    assert len({s["run_id"] for s in specs[2:]}) == 4
