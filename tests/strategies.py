"""Hypothesis strategies shared across the test modules."""

import hypothesis.strategies as st

import picgof as pg


@st.composite
def schemes(draw, max_m=5):
    """Valid censoring schemes with t_m < 1 (usable for uniformity tests)."""
    m = draw(st.integers(1, max_m))
    times = draw(
        st.lists(
            st.floats(0.005, 0.995, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    percentages = [
        draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(m - 1)
    ] + [1.0]
    return pg.CensoringScheme((0.0, *sorted(times)), percentages)


@st.composite
def samples(draw, scheme=None, max_n=25):
    """Valid censored samples: any feasible failure/removal trajectory."""
    sch = scheme if scheme is not None else draw(schemes())
    n = draw(st.integers(1, max_n))
    failures, removals = [], []
    at_risk = n
    last = sch.m - 1
    for i in range(sch.m):
        x = draw(st.integers(0, at_risk))
        survivors = at_risk - x
        r = survivors if i == last else draw(st.integers(0, survivors))
        failures.append(x)
        removals.append(r)
        at_risk = survivors - r
    return pg.CensoredSample(sch, n, tuple(failures), tuple(removals))


@st.composite
def no_removal_samples(draw, max_n=30, max_m=5):
    """Samples whose only removals happen at the final inspection."""
    sch = draw(schemes(max_m=max_m))
    n = draw(st.integers(1, max_n))
    failures = []
    at_risk = n
    for _ in range(sch.m):
        x = draw(st.integers(0, at_risk))
        failures.append(x)
        at_risk -= x
    removals = [0] * (sch.m - 1) + [at_risk]
    return pg.CensoredSample(sch, n, tuple(failures), tuple(removals))


@st.composite
def deviation_vectors(draw, max_m=8):
    values = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=max_m
        )
    )
    return tuple(values)


def families():
    """Parametric lifetime models, including the uniform itself."""
    return st.one_of(
        st.just(pg.UNIFORM),
        st.floats(0.3, 3.0).map(lambda a: pg.AlternativeFamily("lehmann", a)),
        st.floats(0.3, 3.0).map(lambda b: pg.AlternativeFamily("centered", b)),
        st.floats(0.0, 0.45).map(lambda g: pg.AlternativeFamily("compressed", g)),
    )
