import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eif.rng as rng_module
from eif.rng import (
    RNG_FAMILY,
    RngStream,
    choose_indices,
    derive_stream,
    fold_seed,
    make_rng,
    subsample,
)
from oracles import choose_indices_oracle, fisher_yates_oracle


def draws(stream, n):
    return stream.uniform(0.0, 1.0, n).tolist()


def test_same_seed_same_sequence():
    assert draws(make_rng(42), 100) == draws(make_rng(42), 100)


def test_distinct_seeds_differ():
    assert draws(make_rng(42), 100) != draws(make_rng(43), 100)


def test_zero_seed_not_degenerate():
    r = make_rng(0)
    mean = r.uniform(0.0, 1.0, 10_000).mean()
    assert abs(mean - 0.5) < 0.02


def test_make_rng_is_root_stream():
    r = make_rng(9)
    assert (r.seed, r.stream_index) == (9, 0)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
def test_seed_must_be_u64(bad):
    with pytest.raises(ValueError):
        make_rng(bad)


def test_derive_same_index_same_sequence():
    r1, r2 = make_rng(3), make_rng(3)
    assert draws(derive_stream(r1, 5), 50) == draws(derive_stream(r2, 5), 50)


def test_derive_distinct_indices_differ():
    r = make_rng(3)
    assert draws(derive_stream(r, 5), 50) != draws(derive_stream(r, 6), 50)


def test_derive_is_independent_of_siblings():
    r1 = make_rng(3)
    _ = [derive_stream(r1, i) for i in range(10)]
    late = derive_stream(r1, 3)
    fresh = derive_stream(make_rng(3), 3)
    assert draws(late, 50) == draws(fresh, 50)


def test_derived_streams_share_no_prefix():
    r = make_rng(11)
    a = draws(derive_stream(r, 0), 20)
    b = draws(derive_stream(r, 1), 20)
    assert a[0] != b[0]
    assert not set(a) & set(b)


def test_nested_derivation_is_deterministic():
    a = derive_stream(derive_stream(make_rng(1), 4), 2)
    b = derive_stream(derive_stream(make_rng(1), 4), 2)
    assert draws(a, 20) == draws(b, 20)


def test_fold_seed_is_deterministic_and_spreads():
    assert fold_seed(5, 9) == fold_seed(5, 9)
    children = {fold_seed(5, i) for i in range(1000)}
    assert len(children) == 1000
    assert all(0 <= c < 2**64 for c in children)


def test_standard_normal_moments():
    r = make_rng(123)
    xs = r.standard_normal(100_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - 1.0) < 0.03


def test_standard_normal_first_draw_reproducible():
    assert make_rng(77).standard_normal() == make_rng(77).standard_normal()


def test_standard_normal_ks_against_gaussian():
    # Distributional check at significance 0.01 on ten fixed seeds; one
    # marginal failure is within the contract.
    from scipy import stats

    passed = 0
    for seed in range(10):
        r = make_rng(seed)
        xs = r.standard_normal(10_000)
        if stats.kstest(xs, "norm").pvalue > 0.01:
            passed += 1
    assert passed >= 9


def test_uniform_degenerate_range_returns_lo():
    assert make_rng(1).uniform(3.0, 3.0) == 3.0


def test_uniform_mean():
    r = make_rng(8)
    mean = r.uniform(0.0, 1.0, 100_000).mean()
    assert abs(mean - 0.5) < 0.01


@given(lo=st.floats(-1e6, 1e6), width=st.floats(0, 1e6), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_uniform_stays_in_range(lo, width, seed):
    v = make_rng(seed).uniform(lo, lo + width)
    assert lo <= v <= lo + width


def test_subsample_exhaustive_is_permutation():
    data = np.arange(256 * 2, dtype=float).reshape(256, 2)
    out = subsample(make_rng(5), data, 256)
    assert out.shape == data.shape
    assert np.array_equal(np.sort(out[:, 0]), data[:, 0])


def test_subsample_draws_distinct_rows():
    data = np.arange(1000 * 1, dtype=float).reshape(1000, 1)
    out = subsample(make_rng(5), data, 256)
    assert out.shape == (256, 1)
    assert len(np.unique(out[:, 0])) == 256


def test_subsample_rows_come_from_input():
    data = make_rng(2).standard_normal((40, 3))
    out = subsample(make_rng(5), data, 17)
    rows = {tuple(r) for r in data}
    assert all(tuple(r) in rows for r in out)


def test_subsample_leaves_input_unmodified():
    data = np.arange(12, dtype=float).reshape(6, 2)
    before = data.copy()
    subsample(make_rng(1), data, 3)
    assert np.array_equal(data, before)


def test_subsample_single_row_frequencies():
    data = np.arange(10, dtype=float).reshape(10, 1)
    r = make_rng(31)
    counts = np.zeros(10)
    reps = 10_000
    for _ in range(reps):
        counts[int(subsample(r, data, 1)[0, 0])] += 1
    assert np.all(np.abs(counts / reps - 0.1) < 0.01)


def test_subsample_rejects_bad_psi():
    data = np.zeros((5, 2))
    with pytest.raises(ValueError, match="insufficient data"):
        subsample(make_rng(1), data, 6)
    with pytest.raises(ValueError):
        subsample(make_rng(1), data, 0)


def test_choose_indices_exact_and_distinct():
    idx = choose_indices(make_rng(4), 10, 10)
    assert sorted(idx) == list(range(10))
    idx = choose_indices(make_rng(4), 10, 3)
    assert len(set(idx)) == 3
    assert choose_indices(make_rng(4), 1, 1) == [0]
    assert choose_indices(make_rng(4), 0, 0) == []  # was [-1]: the span-1 slot of an empty population


def test_choose_indices_rejects_more_than_n():
    rng = make_rng(4)
    with pytest.raises(ValueError, match="^cannot choose 4 indices from 3$"):
        choose_indices(rng, 3, 4)
    with pytest.raises(ValueError, match="^cannot choose -1 indices from 3$"):
        choose_indices(rng, 3, -1)
    # nothing was drawn: the next bounded and float draws are a fresh stream's
    fresh = make_rng(4)
    assert choose_indices(rng, 10, 3) == choose_indices(fresh, 10, 3)
    assert rng.random(2).tobytes() == fresh.random(2).tobytes()


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_replay_any_seed_bitwise(seed):
    a = make_rng(seed)
    b = make_rng(seed)
    ops_a = [a.standard_normal(), a.uniform(-2.0, 5.0), choose_indices(a, 1000, 3)]
    ops_b = [b.standard_normal(), b.uniform(-2.0, 5.0), choose_indices(b, 1000, 3)]
    assert ops_a == ops_b


def numpy_twin(seed, index):
    """numpy's own generator under the key an ``RngStream(seed, index)`` uses."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@st.composite
def population_and_count(draw):
    n = draw(st.integers(1, 300))
    return n, draw(st.sampled_from([0, n]) | st.integers(0, n))


@given(seed=st.integers(0, 2**64 - 1), nk=population_and_count())
@settings(max_examples=200, deadline=None)
def test_choose_indices_matches_scalar_fisher_yates(seed, nk):
    n, k = nk
    a, b = RngStream(seed, 5), numpy_twin(seed, 5)
    assert choose_indices(a, n, k) == choose_indices_oracle(b, n, k).tolist()
    # the stream is left in the same state: later draws agree too
    assert a.standard_normal(3).tolist() == b.standard_normal(3).tolist()
    assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)


# Spans around the 32-bit boundaries of numpy's bounded rule: 3 * 2**30
# rejects a quarter of its 32-bit draws, 2**32 - 1 is the widest span the
# 32-bit rule rejects on, 2**32 never rejects, and 2**32 + 5 starts with
# five spans that numpy's 64-bit rule draws from whole words.
_WIDE = [3 * 2**30, 2**32 - 1, 2**32, 2**32 + 5]


@st.composite
def draw_call(draw):
    """One ``choose_indices(n, k)``: odd k leaves half a word pending."""
    n = draw(st.sampled_from(_WIDE) | st.integers(1, 40))
    k = draw(st.sampled_from([0, 1, 3, 40]).map(lambda k: min(k, n)) | st.integers(0, min(n, 40)))
    return n, k, draw(st.sampled_from(["random", "standard_normal", None])), draw(st.integers(0, 3))


@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(draw_call(), min_size=1, max_size=8))
@example(seed=2**64 - 1, calls=[(9, 3, "random", 2), (7, 0, None, 0), (5, 5, "standard_normal", 1),
                                (3 * 2**30, 31, "random", 1), (2**32 - 1, 1, None, 0), (2**32, 3, "random", 3),
                                (2**32 + 5, 9, "standard_normal", 2), (8, 7, None, 0)])
@settings(max_examples=200, deadline=None)
def test_choose_indices_sequence_matches_numpy_integers(seed, calls):
    """A run of choose_indices calls, float draws between them, against
    ``Generator.integers(np.arange(k), n)`` on a twin numpy generator. A
    pending half must carry over the float draws into the next call."""
    a, b = RngStream(seed, 3), numpy_twin(seed, 3)
    for n, k, floats, size in calls:
        expected = fisher_yates_oracle(b.integers(np.arange(k), n).tolist())
        assert choose_indices(a, n, k) == expected.tolist()
        if floats:
            assert getattr(a, floats)(size).tobytes() == getattr(b, floats)(size).tobytes()
    assert a.random(2).tobytes() == b.random(2).tobytes()
    assert choose_indices(a, 2**32, 3) == choose_indices_oracle(b, 2**32, 3).tolist()


def test_running_numpy_meets_the_draw_contract():
    assert (rng_module._meets_contract(), RNG_FAMILY) == (True, "eif-philox/4")


def _one_draw_off(method):
    """A numpy Generator whose ``method`` moves the first value of each draw
    by one ulp (an integer by one)."""
    base = np.random.Generator
    def draw(self, *args, **kwargs):
        values = getattr(base, method)(self, *args, **kwargs)
        if not isinstance(values, np.ndarray):
            return values + 1
        values.flat[0] = np.nextafter(values.flat[0], np.inf) if values.dtype.kind == "f" else values.flat[0] + 1
        return values
    return type("OneDrawOff", (base,), {method: draw})


@pytest.mark.parametrize("method", ["standard_normal", "random", "uniform", "integers"])
def test_draw_contract_check_sees_one_altered_draw(monkeypatch, method):
    monkeypatch.setattr(np.random, "Generator", type("Same", (np.random.Generator,), {}))
    assert rng_module._meets_contract()
    monkeypatch.setattr(np.random, "Generator", _one_draw_off(method))
    assert not rng_module._meets_contract()


# Run in a fresh interpreter, since the package checks the contract once, on
# import: numpy with one normal draw off, then a model trained and saved, then
# the same file stamped eif-philox/4 and loaded.
_FALLBACK_RUN = """
import json, sys, warnings
from pathlib import Path
import numpy as np
{one_draw_off}
np.random.Generator = _one_draw_off("standard_normal")
from eif.forest import build_forest
from eif.model_io import load_forest, save_forest
from eif.rng import RNG_FAMILY

path = Path(sys.argv[1])
save_forest(build_forest(np.arange(40.0).reshape(20, 2), 3, 8, 1, seed=5), path)
trained = json.loads(path.read_text())["rng_family"]
path.write_text(path.read_text().replace(json.dumps(trained), json.dumps("eif-philox/4")))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    load_forest(path)
print(json.dumps([np.__version__, RNG_FAMILY, trained, [str(w.message) for w in caught]]))
"""


def test_numpy_off_the_contract_falls_back_to_its_version(tmp_path):
    script = _FALLBACK_RUN.format(one_draw_off=inspect.getsource(_one_draw_off))
    env = dict(os.environ, PYTHONPATH=str(Path(rng_module.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "m.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    version, family, trained, warned = json.loads(done.stdout)
    assert family == trained == f"numpy-philox4x64/{version}"
    assert warned == [f"model {tmp_path / 'm.json'} was built under rng family 'eif-philox/4', "
                      f"this build runs {family!r}: it scores as before, but retraining from its "
                      "seed may not reproduce it"]
