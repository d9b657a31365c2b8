"""Every config field is passed by some caller in src/, bench/ or tests/,
every error class is raised somewhere in src/, and each of five rules has
one owner in src/: nn.rng_stream builds every random generator but the one
of data's fixed mode templates, checkpoint alone hashes (its checksum names
every set of weights), diffusion alone turns a clean estimate into noise
(the sampler works on clean estimates only), hand_model alone builds a
HandMesh (contact's anchors; the moving hand reaches contact as points), and
no module in src/ names a reflection matrix, MIRROR_MAT (a left hand is
hand_model.mirror's four sign flips of a hand vector and hand_model.negate_x's
one x-negation of world points). Every stream tag in nn is read by another
module, every network holds float32 weights only, no module reads another
package module's underscore name, and no module asks whether an input has
an attribute: no hasattr(...) call and no getattr(...) with a default.

A field that no call site ever sets is a constant with extra ways to go
wrong; it belongs in its module as a named constant instead. An error class
that nothing raises promises callers a failure that cannot happen. A second
generator, hash, mesh builder or mirror is a second copy of a rule, free to
drift from the first. A tag that nothing reads keys a stream that nothing
draws. A network in another dtype would not round-trip bit for bit, and its
checksum would not name its weights. A private name read from outside its
module is a rule with a second owner that its own module cannot see. A
branch on whether an attribute exists serves an input without it, such as
a test double, and runs no path that real inputs take; a double carries
the interface instead.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

from handpair.backbone import BackboneConfig, FeatureBackbone, regression_target, train_backbone
from handpair.checkpoint import load_backbone, load_denoiser, save_backbone, save_denoiser
from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, make_schedule
from handpair.hand_model import pair_segments
from handpair.mesh import sample_surface_points
from handpair.nn import Adam
from handpair.sampler import SampleConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "handpair"
GENERATOR_BUILDERS = {"Philox", "Generator", "default_rng"}
# (module, function) of each generator built outside nn.rng_stream. The mode
# templates of two_mode_spec come from default_rng(1234); drawing them from
# rng_stream would change every synthetic dataset, and with them the data the
# committed bench fixture was trained on.
FIXED_TEMPLATE_STREAMS = {("data", "two_mode_spec")}
FIELDS = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
          for cls in (SampleConfig, TrainConfig, BackboneConfig, DenoiserConfig)}


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_every_config_field_is_passed_by_some_caller():
    passed = {name: set() for name in FIELDS}
    for folder in ("src", "bench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = _callee(node.func) if isinstance(node, ast.Call) else None
                if name in FIELDS:
                    passed[name].update(FIELDS[name][:len(node.args)])
                    passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    unset = {name: [f for f in fields if f not in passed[name]]
             for name, fields in FIELDS.items()}
    assert not any(unset.values()), f"config fields no caller sets: {unset}"


def test_every_error_class_is_raised_in_src():
    # errors.py holds HandpairError and its subclasses, nothing else.
    errors = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)} - {"HandpairError"}
    raised = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_callee(exc))
    never = sorted(errors - raised)
    assert not never, f"error classes nothing in src/ raises: {never}"


def _calls_by_function(node, owner=None):
    """(name of the innermost enclosing function or None, call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else owner
        yield from _calls_by_function(child, inner)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_only_rng_stream_builds_generators():
    builders = {(module, owner) for module, tree in _modules()
                for owner, call in _calls_by_function(tree)
                if _callee(call.func) in GENERATOR_BUILDERS}
    assert builders - FIXED_TEMPLATE_STREAMS == {("nn", "rng_stream")}


def test_only_checkpoint_hashes():
    users = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = [node.id] if isinstance(node, ast.Name) else []
            if "hashlib" in names:
                users.add(module)
    assert users == {"checkpoint"}


def test_only_diffusion_calls_eps_from_x0():
    callers = {module for module, tree in _modules()
               for _, call in _calls_by_function(tree) if _callee(call.func) == "eps_from_x0"}
    assert callers == {"diffusion"}


def test_only_hand_model_builds_hand_meshes():
    builders = {module for module, tree in _modules()
                for _, call in _calls_by_function(tree) if _callee(call.func) == "HandMesh"}
    assert builders == {"hand_model"}


def test_no_module_names_a_mirror_matrix():
    names = {module for module, tree in _modules() for node in ast.walk(tree)
             if "MIRROR_MAT" in ([alias.name for alias in node.names]
                                 if isinstance(node, ast.ImportFrom) else [_callee(node)])}
    assert not names, names


def test_no_module_reads_another_modules_private_name():
    # `from .m import _x`, and `m._x` after `from . import m`; dunders are public.
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = set()
    for module, tree in _modules():
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads |= {(module, f"{node.module}.{a.name}") for a in node.names
                          if private(a.name)}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in siblings and private(node.attr):
                reads.add((module, f"{node.value.id}.{node.attr}"))
    assert not reads, sorted(reads)


def test_no_module_probes_an_input_for_an_attribute():
    probes = sorted((module, call.lineno) for module, tree in _modules()
                    for _, call in _calls_by_function(tree)
                    if isinstance(call.func, ast.Name)
                    and (call.func.id == "hasattr"
                         or (call.func.id == "getattr" and len(call.args) == 3)))
    assert not probes, probes


def test_stream_tags_are_distinct():
    tags = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id.startswith("TAG_"):
                value = eval(compile(ast.Expression(node.value), module, "eval"), {})
                tags[f"{module}.{node.targets[0].id}"] = value
    assert len(tags) >= 7, tags     # the seven of nn's table, at least
    # A tag's derived range (tag + i) and diffusion.train's raw step tags
    # (0, 1, 2, ...) stay below 2**32, so tags this far apart never meet.
    values = sorted([0, *tags.values()])
    assert min(b - a for a, b in zip(values, values[1:])) >= 2**32, tags


def test_every_stream_tag_is_read_outside_nn():
    modules = dict(_modules())
    tags = {node.targets[0].id for node in modules.pop("nn").body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("TAG_")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unread = sorted(tags - read)
    assert tags and not unread, unread


def test_every_network_holds_float32_weights_only(tmp_path, hand_model):
    dataset = generate_synthetic(two_mode_spec(count=8, seed=1))
    config = BackboneConfig(feature_dim=16, n_surface=64, epochs=1, batch_size=4)
    networks = {"Denoiser": Denoiser(), "FeatureBackbone": FeatureBackbone(config),
                "train_backbone": train_backbone(dataset, config, hand_model)}
    save_denoiser(tmp_path / "den", networks["Denoiser"], make_schedule(16, 2e-4, 0.02))
    save_backbone(tmp_path / "bb", networks["train_backbone"])
    networks["load_denoiser"] = load_denoiser(tmp_path / "den")[0]
    networks["load_backbone"] = load_backbone(tmp_path / "bb")
    wrong = sorted((who, name, str(w.dtype)) for who, net in networks.items()
                   for name, w in net.params.items() if w.dtype != np.float32)
    assert not wrong, wrong[:4]

    x_l, x_r = dataset.pair(np.arange(4))
    clouds = sample_surface_points(*pair_segments(x_l, x_r, hand_model), config.n_surface, 0)
    opt = Adam()
    networks["FeatureBackbone"].train_step(clouds, regression_target(x_l, x_r), opt, config.lr)
    moments = [*opt.m.values(), *opt.v.values()]
    assert moments and all(a.dtype == np.float32 for a in moments)
