"""The spec classes: each family's annotated class body declares its fields
once, and the classes become frozen dataclasses when the first spec is
constructed."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import stokit
from stokit import DomainError, specs

SPECS = [stokit.Brownian(drift=0.1), stokit.GeometricBrownian(0.05, 0.2),
         stokit.LevyStable(1.5, 0.0, 0.3), stokit.GeometricLevy(1.5, 0.0, 0.3),
         stokit.OrnsteinUhlenbeck(1.0, 0.0, 0.3, 0.0),
         stokit.AdaptiveOU(1.0, 0.0, 0.3, 0.0, eta=0.5, theta_max=5.0),
         stokit.Poisson(2.0)]
IDS = [type(spec).__name__ for spec in SPECS]


def fresh(code: str) -> list[str]:
    """The lines that `code` prints in a fresh interpreter, where no spec has
    been constructed yet."""
    src = Path(specs.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return done.stdout.splitlines()


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_spec_fields_are_the_dataclass_fields(spec):
    expected = [(f.name, None if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(spec)]
    assert list(specs.spec_fields(type(spec)).items()) == expected


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_specs_behave_as_frozen_dataclasses(spec):
    values = dataclasses.asdict(spec)
    twin = type(spec)(**values)
    assert twin == spec and twin is not spec and hash(twin) == hash(spec)
    assert repr(spec) == (f"{type(spec).__name__}("
                          + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")")
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.copy(spec) == spec
    moved = dataclasses.replace(spec, x0=spec.x0 + 1.0)
    assert moved != spec and moved.x0 == spec.x0 + 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.x0 = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del spec.x0
    assert dataclasses.is_dataclass(type(spec))


def test_replace_validates_as_construction_does():
    with pytest.raises(DomainError, match="^scale must be >= 0"):
        dataclasses.replace(stokit.Brownian(), scale=-1.0)


def test_first_spec_of_a_process_may_come_from_a_pickle():
    lines = fresh("import pickle\n"
                  f"spec = pickle.loads({pickle.dumps(SPECS[-2])!r})\n"
                  "print(repr(spec))\n"
                  "print(hash(spec) == hash(pickle.loads(pickle.dumps(spec))))")
    assert lines == [repr(SPECS[-2]), "True"]


@pytest.mark.parametrize("protocol", [0, 1, 2, 5])
def test_first_spec_of_a_process_may_come_from_any_pickle_protocol(protocol):
    """Protocols 0 and 1 rebuild through `copyreg`, not the class, unless the
    spec says how to rebuild itself."""
    spec = SPECS[-2]
    lines = fresh("import dataclasses, pickle\n"
                  f"spec = pickle.loads({pickle.dumps(spec, protocol=protocol)!r})\n"
                  "print(repr(spec))\n"
                  "print(dataclasses.is_dataclass(spec))\n"
                  "import stokit\n"
                  f"print(spec == stokit.{spec!r})")
    assert lines == [repr(spec), "True", "True"]


@dataclasses.dataclass(frozen=True, kw_only=True)
class Tagged(stokit.Brownian):
    """A user subclass whose own field is keyword-only."""
    tag: float


@pytest.mark.parametrize("protocol", [0, 1, 2, 5])
def test_keyword_only_subclass_round_trips_through_pickle(protocol):
    spec = Tagged(drift=0.5, tag=2.0)
    twin = pickle.loads(pickle.dumps(spec, protocol=protocol))
    assert type(twin) is Tagged and twin == spec and repr(twin) == repr(spec)


def test_user_subclasses_get_their_parents_fields():
    lines = fresh("""\
import dataclasses, stokit
from stokit.specs import spec_fields
print(dataclasses.is_dataclass(stokit.Brownian))  # nothing frozen yet

class Shifted(stokit.Brownian):
    shift: float = 2.0

@dataclasses.dataclass(frozen=True)
class Marked(stokit.Poisson):
    mark: float = 0.5

class Level(stokit.ProcessSpec):
    level: float

for spec in (Shifted(drift=0.5), Marked(rate=1.0), Level(level=3.0)):
    names = [f.name for f in dataclasses.fields(spec)]
    print(names == list(spec_fields(type(spec))), spec)
try:
    Shifted(scale=-1.0)
except stokit.DomainError as exc:
    print(exc)
try:
    Level(level=1.0).level = 2.0
except dataclasses.FrozenInstanceError:
    print("frozen")
""")
    assert lines == [
        "False",
        "True Shifted(drift=0.5, scale=1.0, x0=0.0, shift=2.0)",
        "True Marked(rate=1.0, jump=1.0, x0=0.0, mark=0.5)",
        "True Level(level=3.0)",
        "scale must be >= 0, got -1.0",
        "frozen"]


def test_first_construction_from_four_threads():
    """Each thread builds the family frozen last, so a thread that went ahead
    before every class was a dataclass would build a bare object."""
    lines = fresh("""\
import sys, threading, stokit
sys.setswitchinterval(1e-6)  # switch threads as often as possible
start, results = threading.Barrier(4, timeout=30), [None] * 4

def build(i):
    start.wait()
    try:
        results[i] = repr(stokit.Poisson(rate=float(i)))
    except Exception as exc:
        results[i] = f"failed: {exc!r}"

threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(*results, sep="\\n")
print(any(thread.is_alive() for thread in threads))
""")
    assert lines == [*(f"Poisson(rate={i}.0, jump=1.0, x0=0.0)" for i in range(4)), "False"]
