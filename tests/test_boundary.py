"""The library boundary: every numeric argument of the engine, the sampler and
the one-sample path, every value a model passed to them returns, every model and
every container argument may be of any kind, and each call either returns its
documented types or raises ``CensoringError``.

Every call runs at n <= 10 and B <= 10 with one model, so it is one chunk and
starts no worker pool whatever ``workers`` is.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import picgof as pg

SCHEME = pg.CensoringScheme((0.0, 0.2, 0.4, 0.6), (0.3, 0.3, 1.0))
TABLE = pg.critical_values(SCHEME, 10, replications=10, seed=1)
RUN = {"n": 10, "replications": 10, "seed": 1, "workers": 1}
ROW = dict(zip(pg.STAT_NAMES, (0.1, 0.1, 0.1, 0.1, 0.005, 0.05)))

#: Each kind of value a caller may pass, made from a number.
KINDS = {
    "int": int,
    "float": float,
    "np.int64": lambda x: np.int64(int(x)),
    "np.float64": np.float64,
    "Fraction": Fraction,
    "Decimal": lambda x: Decimal(repr(x)),
    "bool": bool,
    "None": lambda x: None,
    "str": str,
    "inf": lambda x: math.inf,
    "-inf": lambda x: -math.inf,
    "nan": lambda x: math.nan,
}

#: Numbers small enough to keep every call one short chunk, integral or not.
NUMBERS = st.one_of(st.integers(-2, 10), st.sampled_from([0.05, 0.5, 2.5]))


def check_table(table):
    assert type(table) is pg.CriticalValueTable
    assert [type(v) for v in (table.n, table.level, table.replications, table.seed)] == [
        int, float, int, int]
    assert list(table.values) == list(pg.STAT_NAMES)
    assert all(type(v) is float for v in table.values.values())


def check_p_values(p):
    assert list(p) == list(pg.STAT_NAMES)
    assert all(type(v) is float and 0.0 < v <= 1.0 for v in p.values())


def check_power(result):
    freq, stderr = result
    for a in (freq, stderr):
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (1, 6)


def check_rows(stats):
    assert type(stats) is np.ndarray and stats.dtype == np.float64
    assert stats.shape[0] >= 1 and stats.shape[1] == 6


def check_sample(sample):
    assert type(sample) is pg.CensoredSample and type(sample.n) is int
    assert all(type(c) is int for c in sample.failures + sample.removals)


def check_survival(values):
    assert type(values) is list and len(values) == 2
    assert all(type(v) is float and 0.0 <= v <= 1.0 for v in values)


def check_statistics(stats):
    assert type(stats) is pg.StatisticSet
    assert all(type(v) is float and math.isfinite(v) for v in stats)


def p_value(**kw):
    row = tuple(kw.pop(name) for name in pg.STAT_NAMES)
    return pg.p_value(row, SCHEME, **kw)


#: name -> (call, its numeric arguments with valid values, check of its result)
CALLS = {
    "critical_values": (lambda **kw: pg.critical_values(SCHEME, **kw),
                        {**RUN, "level": 0.05}, check_table),
    "p_value": (p_value, {**RUN, **ROW}, check_p_values),
    "power": (lambda **kw: pg.power(SCHEME, critical=TABLE, models=[pg.UNIFORM], **kw),
              RUN, check_power),
    "replicated_statistics": (lambda **kw: pg.replicated_statistics(SCHEME, model=pg.UNIFORM, **kw),
                              RUN, check_rows),
    "simulate_sample": (lambda n: pg.simulate_sample(SCHEME, n, pg.UNIFORM, pg.derive_stream(1, 0)),
                        {"n": 10}, check_sample),
    "survival_values": (lambda n, x1, x2, r1, r2: pg.survival_values(n, (x1, x2), (r1, r2)),
                        {"n": 10, "x1": 2, "x2": 1, "r1": 4, "r2": 3}, check_survival),
    "compute_statistics": (lambda d1, d2, d3: pg.compute_statistics([d1, d2, d3]),
                           {"d1": 0.1, "d2": -0.2, "d3": 0.0}, check_statistics),
}
ARGUMENTS = [(name, arg) for name, (_, valid, _) in CALLS.items() for arg in valid]


def every_kind(test):
    """``test`` with an explicit example of each kind, so none is left to chance."""
    for kind in KINDS:
        test = example(kind=kind, number=1)(test)
    return test


@pytest.mark.parametrize("name,arg", ARGUMENTS, ids=[".".join(a) for a in ARGUMENTS])
@settings(max_examples=30, deadline=None)
@every_kind
@given(kind=st.sampled_from(sorted(KINDS)), number=NUMBERS)
def test_returns_documented_types_or_raises_censoring_error(name, arg, kind, number):
    call, valid, check = CALLS[name]
    try:
        result = call(**{**valid, arg: KINDS[kind](number)})
    except pg.CensoringError:
        return
    check(result)


def check_scheme(scheme):
    assert type(scheme) is pg.CensoringScheme
    assert all(type(v) is float for v in scheme.times + scheme.percentages)


def check_deviations(d):
    assert type(d) is tuple and len(d) == 3
    assert all(type(v) is float and math.isfinite(v) for v in d)


SAMPLE = pg.simulate_sample(SCHEME, 10, pg.UNIFORM, pg.derive_stream(1, 0))

#: name -> (call of a model, check of its result)
MODEL_CALLS = {
    "power": (lambda model: pg.power(SCHEME, critical=TABLE, models=[model], **RUN), check_power),
    "replicated_statistics": (lambda model: pg.replicated_statistics(SCHEME, model=model, **RUN),
                              check_rows),
    "simulate_sample": (lambda model: pg.simulate_sample(SCHEME, 10, model, pg.derive_stream(1, 0)),
                        check_sample),
    "deviations": (lambda model: pg.deviations(SAMPLE, model), check_deviations),
    "test_general": (lambda model: pg.test_general(SAMPLE, model), check_statistics),
    "transform_scheme": (lambda model: pg.transform_scheme(SCHEME, model), check_scheme),
}


@pytest.mark.parametrize("name", MODEL_CALLS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_model_value_of_any_kind_gives_documented_types_or_censoring_error(name, kind):
    # the model is the uniform cdf, each of its values made into ``kind``
    call, check = MODEL_CALLS[name]
    try:
        result = call(lambda t: KINDS[kind](pg.UNIFORM(t)))
    except pg.CensoringError:
        return
    check(result)


#: Models that break the model rule at the design's times: one decreases, the other is the
#: uniform but for a nan at t_0 alone.
RULE_BREAKERS = {
    "decreasing": lambda t: 1.0 - t,
    "nan at t_0": lambda t: math.nan if t == 0.0 else pg.UNIFORM(t),
}


@pytest.mark.parametrize("name", MODEL_CALLS)
@pytest.mark.parametrize("model", RULE_BREAKERS)
def test_every_model_entry_refuses_a_model_that_breaks_the_model_rule(name, model):
    call, _ = MODEL_CALLS[name]
    with pytest.raises(pg.CensoringError, match="cdf decreases|cdf value must be a finite real"):
        call(RULE_BREAKERS[model])


@pytest.mark.parametrize("name", MODEL_CALLS)
@pytest.mark.parametrize("model", [5, None, "uniform"], ids=repr)
def test_every_model_entry_refuses_a_model_that_is_not_callable(name, model):
    call, _ = MODEL_CALLS[name]
    with pytest.raises(pg.CensoringError, match="model must be a callable cdf"):
        call(model)


def check_tabulated(cdf):
    assert type(cdf) is pg.TabulatedCdf
    assert all(type(v) is float for v in cdf.xs + cdf.values)


def check_decisions(decisions):
    assert list(decisions) == list(pg.STAT_NAMES)
    assert all(type(v) is bool for v in decisions.values())


#: name -> (call of one container argument, valid items for it, check of the result).  Every
#: container of counts or reals holds small integers, so its bytes reads as the same items.
CONTAINER_CALLS = {
    "CensoringScheme.times": (lambda c: pg.CensoringScheme(c, (0.0, 1.0)), [0, 1, 2],
                              check_scheme),
    "CensoringScheme.percentages": (lambda c: pg.CensoringScheme((0.0, 1.0, 2.0), c), [0, 1],
                                    check_scheme),
    "TabulatedCdf.xs": (lambda c: pg.TabulatedCdf(c, (0.0, 1.0)), [0, 1], check_tabulated),
    "TabulatedCdf.values": (lambda c: pg.TabulatedCdf((0.0, 1.0), c), [0, 1], check_tabulated),
    "CensoredSample.failures": (lambda c: pg.CensoredSample(SCHEME, 10, c, (2, 1, 3)), [1, 2, 1],
                                check_sample),
    "CensoredSample.removals": (lambda c: pg.CensoredSample(SCHEME, 10, (1, 2, 1), c), [2, 1, 3],
                                check_sample),
    "survival_values.failures": (lambda c: pg.survival_values(10, c, (4, 3)), [2, 1],
                                 check_survival),
    "survival_values.removals": (lambda c: pg.survival_values(10, (2, 1), c), [4, 3],
                                 check_survival),
    "compute_statistics": (pg.compute_statistics, [1, 0, 1], check_statistics),
    "p_value": (lambda c: pg.p_value(c, SCHEME, **RUN), [1] * 6, check_p_values),
    "reject": (lambda c: pg.reject(c, TABLE), [1] * 6, check_decisions),
    "power": (lambda c: pg.power(SCHEME, critical=TABLE, models=c, **RUN), [pg.UNIFORM],
              check_power),
}

#: Containers of the valid items that every container argument accepts.
ACCEPTED = {
    "list": list,
    "tuple": tuple,
    "np.array": np.array,
    "generator": lambda items: (v for v in items),
}

#: Values that are no container and that every container argument refuses; the bytes of
#: power's models is b"\x01", the bytes of one model that is no model.
REFUSED = {
    "int": lambda items: 5,
    "None": lambda items: None,
    "str": str,
    "bytes": lambda items: bytes(v if type(v) is int else 1 for v in items),
    "np.float64": lambda items: np.float64(1.0),
}


@pytest.mark.parametrize("kind", ACCEPTED)
@pytest.mark.parametrize("name", CONTAINER_CALLS)
def test_a_container_argument_accepts_any_iterable_of_its_items(name, kind):
    call, items, check = CONTAINER_CALLS[name]
    check(call(ACCEPTED[kind](items)))


@pytest.mark.parametrize("kind", REFUSED)
@pytest.mark.parametrize("name", CONTAINER_CALLS)
def test_a_container_argument_refuses_text_bytes_and_non_iterables(name, kind):
    # the container rule names the whole value, where a refused item would name only the item
    call, items, _ = CONTAINER_CALLS[name]
    value = REFUSED[kind](items)
    with pytest.raises(pg.CensoringError, match=re.escape(f", got {value!r}") + "$"):
        call(value)
