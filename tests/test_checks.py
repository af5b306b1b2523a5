import math

from nozzleflow import Check


def test_check_passes_up_to_and_at_its_bound():
    assert Check(0.5, 0.9) and Check(0.9, 0.9)
    assert not Check(0.9000001, 0.9)
    assert Check(0.5, 0.9).margin == 0.9 - 0.5
    assert Check(-math.inf, 0.9).margin == math.inf


def test_a_nan_check_fails():
    assert not Check(math.nan, 1.0)
    assert not Check(0.0, math.nan)
    assert math.isnan(Check(math.nan, 1.0).margin)


def test_check_spells_value_bound_and_margin():
    assert str(Check(2.0, 0.5)) == "FAIL value=2 bound=0.5 margin=-1.5"
    assert str(Check(1e-4, 1e-3)) == \
        "pass value=0.0001 bound=0.001 margin=0.0009"
    assert str(Check(math.nan, 1.0)) == "FAIL value=nan bound=1 margin=nan"


def test_check_stores_plain_floats():
    import numpy as np
    c = Check(np.float64(1.0), 3)
    assert type(c.value) is float and type(c.bound) is float
    assert c == Check(1.0, 3.0)


def test_a_report_passes_when_every_check_does():
    from nozzleflow import Report
    rep = Report(checks={"b": Check(1.0, 2.0), "a": Check(math.nan, 1.0),
                         "c": Check(3.0, 2.0)})
    assert not rep.passed and set(rep.failing()) == {"a", "c"}
    assert rep.check_lines("{name}: {check}") == [
        "a: FAIL value=nan bound=1 margin=nan",
        "b: pass value=1 bound=2 margin=1",
        "c: FAIL value=3 bound=2 margin=-1"]
    assert Report().passed and Report().failing() == {}
