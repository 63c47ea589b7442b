"""Model file validation and the command line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from credal_bayes import cli, parse_model, precise_posterior
from credal_bayes.capacity import Capacity, OutcomeSpace, ProbabilityVector
from credal_bayes.choquet import Functional
from credal_bayes.errors import ModelError
from credal_bayes.model import capacity_to_json


def _base_model(eps=0.1):
    return {
        "version": 1,
        "outcomes": ["t1", "t2", "t3"],
        "prior": {"kind": "eps-contamination", "p": [1 / 3, 1 / 3, 1 / 3], "eps": eps},
        "likelihood": {"band": {"lower": [0.5, 0.3, 0.2], "upper": [0.5, 0.3, 0.2]}},
        "events": [["t1"]],
        "options": {},
    }


def _write(tmp_path, doc, name="model.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse rejected the command line
            code = ex.code
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_round_trip(self):
        m = parse_model(_base_model())
        assert m.space.labels == ("t1", "t2", "t3")
        assert m.event_masks() == [0b001]

    def test_missing_version(self):
        doc = _base_model()
        del doc["version"]
        with pytest.raises(ModelError, match=r"\$\.version"):
            parse_model(doc)

    def test_bad_event_label_names_path(self):
        doc = _base_model()
        doc["events"] = [["nope"]]
        with pytest.raises(ModelError, match=r"\$\.events\[0\]"):
            parse_model(doc)

    def test_bad_band_value_names_path(self):
        doc = _base_model()
        doc["likelihood"]["band"]["lower"][1] = "zzz"
        with pytest.raises(ModelError, match=r"\$\.likelihood\.band\.lower\[1\]"):
            parse_model(doc)

    def test_crossed_band_rejected(self):
        doc = _base_model()
        doc["likelihood"]["band"]["lower"] = [0.9, 0.9, 0.9]
        with pytest.raises(ModelError, match=r"\$\.likelihood\.band"):
            parse_model(doc)

    def test_non_monotone_prior_named(self):
        doc = _base_model()
        doc["prior"] = {
            "kind": "explicit",
            "values": {"": 0, "t1": 0.6, "t2": 0.1, "t3": 0.1,
                       "t1,t2": 0.5, "t1,t3": 0.7, "t2,t3": 0.4, "t1,t2,t3": 1},
        }
        with pytest.raises(ModelError, match=r"\$\.prior"):
            parse_model(doc)

    def test_exact_mode_reads_decimals_faithfully(self):
        from fractions import Fraction

        doc = _base_model()
        doc["options"] = {"exact": True}
        doc["prior"] = {"kind": "eps-contamination", "p": ["1/3", "1/3", "1/3"], "eps": 0.1}
        doc["likelihood"] = {
            "band": {"lower": ["1/2", 0.3, "1/5"], "upper": ["1/2", 0.3, "1/5"]}
        }
        m = parse_model(doc)
        assert m.prior.exact
        assert m.likelihoods.lower.values[1] == Fraction(3, 10)


    @pytest.mark.parametrize("field", ["upper", "eps"])
    def test_exact_infinity_names_path(self, tmp_path, field):
        doc = _base_model()
        doc["options"] = {"exact": True}
        doc["prior"]["p"] = ["1/3", "1/3", "1/3"]
        if field == "upper":
            doc["likelihood"]["band"]["upper"][0] = float("inf")
            path = "$.likelihood.band.upper[0]"
        else:
            doc["prior"]["eps"] = float("inf")
            path = "$.prior.eps"
        code, _, err = _run(["update", _write(tmp_path, doc)])
        assert code == 2
        assert f"{path}: not a finite number" in err, err

    @pytest.mark.parametrize(
        "prior, path",
        [
            ({"outcomes": 5}, "$.prior.outcomes"),
            ({"outcomes": "abc"}, "$.prior.outcomes"),
            ({"p": [0.5, "x", 0.5]}, "$.prior.p[1]"),
            ({"p": [10**400, 0, 0]}, "$.prior.p[0]"),
            ({"eps": "x"}, "$.prior.eps"),
            ({"eps": 2}, "$.prior.eps"),
            ({"kind": "distortion", "alpha": "x"}, "$.prior.alpha"),
            ({"kind": "envelope", "vertices": [[1, 0, 0], [0.5, 0.6, 0.1]]}, "$.prior.vertices[1]"),
            ({"kind": "explicit", "values": {"": 0, "a": 0.5, "a,b,c": 1}}, "$.prior.values"),
            ({"kind": "explicit", "values": {"": 0, "z": 1}}, '$.prior.values["z"]'),
            ({"kind": "nope"}, "$.prior.kind"),
        ],
    )
    def test_bad_prior_names_its_field(self, tmp_path, prior, path):
        doc = _base_model()
        doc["outcomes"] = ["a", "b", "c"]
        doc["events"] = [["a"]]
        doc["prior"].update(prior)
        code, out, err = _run(["update", _write(tmp_path, doc)])
        assert code == 2
        assert out == ""
        assert f"validation error: {path}: " in err, err

    def test_float_mode_reads_literals_as_floats(self, tmp_path):
        doc = _base_model()
        doc["prior"] = {"kind": "eps-contamination", "p": ["1/3"] * 3, "eps": "1/10"}
        lik = ["1/2", "3/10", "1/5"]
        doc["likelihood"] = {"band": {"lower": lik, "upper": lik}}
        code, out, err = _run(["update", _write(tmp_path, doc), "--json"])
        assert code == 0, err
        upper = json.loads(out)["events"][0]["upper_vertex"]
        assert isinstance(upper, float) and upper == pytest.approx(4 / 7, abs=1e-12)
        doc["options"] = {"exact": True}
        code, out, err = _run(["update", _write(tmp_path, doc), "--json"])
        assert code == 0, err
        assert json.loads(out)["events"][0]["upper_vertex"] == "4/7"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1e300"])
@pytest.mark.parametrize("where", ["model", "flag", "flag-random"])
def test_bad_tolerance_is_rejected(tmp_path, tol, where):
    """No tolerance can be set: every check runs at the arithmetic mode's
    own. A model's "tol" is an unknown option and argparse has no --tol,
    so a tolerance that would switch the chain off is refused too."""
    doc = _base_model()
    if where == "model":
        doc["options"] = {"tol": float(tol)}
    path = _write(tmp_path, doc)
    argv = {
        "model": ["verify", path],
        "flag": ["verify", path, "--tol", tol],
        "flag-random": ["verify", "--random", "3", "--tol", tol],
    }[where]
    code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    if where == "model":
        assert "validation error: $.options.tol: unknown option" in err
    else:
        assert "unrecognized arguments: --tol" in err


def test_unknown_options_are_refused_in_order():
    doc = _base_model()
    doc["options"] = {"exact": True, "zeta": 1, "tol": 0}
    with pytest.raises(ModelError, match=r"^\$\.options\.zeta: unknown option"):
        parse_model(doc)


class TestUpdate:
    def test_precise_model_collapses(self, tmp_path):
        path = _write(tmp_path, _base_model(eps=0))
        code, out, err = _run(["update", path, "--json"])
        assert code == 0
        rec = json.loads(out)["events"][0]
        p = ProbabilityVector(OutcomeSpace(("t1", "t2", "t3")), (1 / 3,) * 3)
        want = precise_posterior(p, Functional(p.space, (0.5, 0.3, 0.2)), 0b001)
        assert rec["upper_vertex"] == pytest.approx(want, abs=1e-12)
        assert rec["lower_vertex"] == pytest.approx(want, abs=1e-12)

    def test_fixture_table(self, tmp_path):
        path = _write(tmp_path, _base_model())
        code, out, err = _run(["update", path])
        assert code == 0
        assert "0.571429" in out
        assert "ProvenEqual" in out

    def test_vacuous_prior_reports_one_everywhere(self, tmp_path):
        doc = _base_model(eps=1.0)
        doc["events"] = "all"
        path = _write(tmp_path, doc)
        code, out, _ = _run(["update", path, "--json"])
        assert code == 0
        for rec in json.loads(out)["events"]:
            if rec["event"]:
                assert rec["upper_vertex"] == pytest.approx(1.0, abs=1e-12)

    def test_validation_exit_code(self, tmp_path):
        doc = _base_model()
        doc["outcomes"] = ["a", "a", "b"]
        path = _write(tmp_path, doc)
        code, _, err = _run(["update", path])
        assert code == 2
        assert "validation error" in err

    def test_undefined_ratio_exit_code(self, tmp_path):
        doc = _base_model()
        doc["likelihood"] = {
            "band": {"lower": [0, 0, 0], "upper": [1, 1, 1]}
        }
        doc["events"] = [[]]  # empty event with vanishing lower evidence
        path = _write(tmp_path, doc)
        code, _, err = _run(["update", path])
        assert code == 3
        assert "undefined ratio" in err

    def test_determinism(self, tmp_path):
        path = _write(tmp_path, _base_model())
        first = _run(["update", path, "--sweep", "--json"])
        second = _run(["update", path, "--sweep", "--json"])
        assert first == second

    def test_posterior_round_trip(self, tmp_path):
        path = _write(tmp_path, _base_model())
        code, out, _ = _run(["update", path, "--sweep", "--json"])
        assert code == 0
        posterior = json.loads(out)["posterior"]
        doc = _base_model()
        doc["prior"] = posterior
        path2 = _write(tmp_path, doc, "model2.json")
        code2, out2, err2 = _run(["update", path2])
        assert code2 == 0, err2

    def test_family_likelihood_reports_bound_only(self, tmp_path):
        doc = _base_model()
        doc["likelihood"] = {"family": [[0.5, 0.1, 0.1], [0.1, 0.5, 0.1]]}
        doc["events"] = [["t1", "t2"]]  # switch vector (0.5, 0.5, 0.1)
        path = _write(tmp_path, doc)
        code, out, _ = _run(["update", path])
        assert code == 0
        assert "BoundOnly" in out


class TestVerify:
    def test_model_mode(self, tmp_path):
        path = _write(tmp_path, _base_model())
        code, out, _ = _run(["verify", path])
        assert code == 0
        assert "ProvenEqual" in out
        # Valid within 1e-12 only: c({a}) exceeds c(Omega) by 1e-13, so
        # one marginal vector's mass on b is -1e-13 before the clip.
        doc = _base_model()
        doc["outcomes"] = ["a", "b"]
        doc["prior"] = {"kind": "explicit",
                        "values": {"": 0, "a": 1.0000000000001, "b": 0.5, "a,b": 1}}
        doc["likelihood"] = {"band": {"lower": [0.5, 0.5], "upper": [1, 1]}}
        doc["events"] = [["a"]]
        code, out, err = _run(["verify", _write(tmp_path, doc, "near.json")])
        assert (code, err) == (0, "")
        assert "Traceback" not in err and "ProvenEqual" in out

    def test_random_campaign_deterministic(self):
        a = _run(["verify", "--random", "25", "--seed", "11", "--family", "distortion", "--json"])
        b = _run(["verify", "--random", "25", "--seed", "11", "--family", "distortion", "--json"])
        assert a == b
        assert a[0] == 0
        lines = a[1].strip().splitlines()
        assert len(lines) == 26  # 25 records plus the summary
        summary = json.loads(lines[-1])["summary"]
        assert summary["diagnosis_counts"] == {"ProvenEqual": 25}

    def test_random_campaign_arbitrary(self):
        code, out, _ = _run(["verify", "--random", "25", "--seed", "5", "--family", "arbitrary"])
        assert code == 0
        assert "violations: 0" in out

    def test_exact_distortion_rejected(self):
        code, _, err = _run(["verify", "--random", "5", "--family", "distortion", "--exact"])
        assert code == 2
        assert "float-only" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--random", "0"], "--random needs a positive count"),
            (["verify"], "verify needs a model path or --random N"),
        ],
    )
    def test_bad_command_line_is_a_validation_error(self, argv, message):
        assert _run(argv) == (2, "", f"validation error: $: {message}\n")

    def test_chain_violation_exit_code(self, monkeypatch, tmp_path):
        from credal_bayes.errors import ChainViolation

        def boom(**kwargs):
            raise ChainViolation("forced for the exit-code contract", {"instance": 0})

        monkeypatch.setattr(cli, "run_campaign", boom)
        code, _, err = _run(["verify", "--random", "5"])
        assert code == 4
        assert "chain violation" in err


class TestReplayDumps:
    def test_query_model_round_trips(self):
        from random import Random

        from credal_bayes.campaign import query_to_model_json, random_query

        for family in ("contamination", "arbitrary"):
            q = random_query(Random(5), family)
            m = parse_model(query_to_model_json(q))
            assert m.prior.values == q.prior.values
            assert m.likelihoods.lower.values == q.likelihoods.lower.values
            assert m.event_masks() == [q.event]
        q = random_query(Random(5), "contamination", exact=True)
        m = parse_model(query_to_model_json(q))
        assert m.prior.exact and m.prior.values == q.prior.values

    def test_family_query_round_trips(self):
        from fractions import Fraction
        from random import Random

        from credal_bayes import LikelihoodSet, PosteriorQuery
        from credal_bayes.campaign import query_to_model_json, random_contamination

        space = OutcomeSpace(("a", "b", "c"))
        prior = random_contamination(Random(7), space, exact=True)
        members = [Functional(space, (Fraction(1, 3), 1, Fraction(1, 2))),
                   Functional(space, (1, Fraction(1, 4), Fraction(1, 2)))]
        q = PosteriorQuery(prior, LikelihoodSet.family(members), 0b011)
        doc = query_to_model_json(q)
        assert doc["likelihood"] == {"family": [["1/3", 1, "1/2"], [1, "1/4", "1/2"]]}
        m = parse_model(doc)
        assert m.likelihoods.members == q.likelihoods.members
        assert m.prior.values == prior.values and m.event_masks() == [0b011]


def _counter(calls):
    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_sweep_and_iterate_lp_traffic(tmp_path, monkeypatch):
    """An n=6 sweep solves each of its 2 * 2**n LPs once and checks the
    core once; iterate solves no LP at all."""
    from credal_bayes import bayes, optim

    calls = {"expectation": 0, "core": 0, "solve": 0}
    counted = _counter(calls)

    for name in ("sup_expectation", "inf_expectation"):
        monkeypatch.setattr(bayes, name, counted("expectation", getattr(bayes, name)))
    monkeypatch.setattr(cli, "is_core_empty", counted("core", cli.is_core_empty))
    monkeypatch.setattr(optim, "solve", counted("solve", optim.solve))

    doc = _base_model()
    doc["outcomes"] = ["a", "b", "c", "d", "e", "f"]
    doc["prior"] = {"kind": "eps-contamination",
                    "p": [0.3, 0.2, 0.2, 0.1, 0.1, 0.1], "eps": 0.2}
    doc["likelihood"] = {"band": {"lower": [0.4, 0.3, 0.2, 0.1, 0.3, 0.2],
                                  "upper": [0.5, 0.4, 0.3, 0.2, 0.6, 0.2]}}
    doc["events"] = "all"
    mp = _write(tmp_path, doc)
    code, out, err = _run(["update", mp, "--sweep", "--json"])
    assert code == 0, err
    assert json.loads(out)["posterior"] is not None
    assert calls["expectation"] == 2 * 2**6
    assert calls["core"] == 1

    calls.update(expectation=0, core=0, solve=0)
    step = {"band": {"lower": [0.2, 0.3, 0.4, 0.1, 0.2, 0.3],
                     "upper": [0.3, 0.3, 0.5, 0.4, 0.2, 0.6]}}
    op = _write(tmp_path, {"version": 1, "observations": [step] * 3}, "obs.json")
    code, out, err = _run(["iterate", mp, op, "--json"])
    assert code == 0, err
    assert calls == {"expectation": 0, "core": 0, "solve": 0}


def test_verify_walks_the_core_once(tmp_path, monkeypatch):
    """verify on all 2**n events of an n=5 model walks the core's vertices
    once and solves each of its 2 * 2**n LPs once; one campaign instance
    walks them once."""
    from credal_bayes import bayes, oracle

    calls = {"walk": 0, "expectation": 0}
    counted = _counter(calls)
    monkeypatch.setattr(
        oracle, "core_vertices_two_monotone",
        counted("walk", oracle.core_vertices_two_monotone),
    )
    for name in ("sup_expectation", "inf_expectation"):
        monkeypatch.setattr(bayes, name, counted("expectation", getattr(bayes, name)))

    doc = _base_model()
    doc["outcomes"] = ["a", "b", "c", "d", "e"]
    doc["prior"] = {"kind": "eps-contamination", "p": [0.3, 0.2, 0.2, 0.2, 0.1], "eps": 0.2}
    doc["likelihood"] = {"band": {"lower": [0.4, 0.3, 0.2, 0.1, 0.3],
                                  "upper": [0.5, 0.4, 0.3, 0.2, 0.6]}}
    doc["events"] = "all"
    code, out, err = _run(["verify", _write(tmp_path, doc), "--json"])
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["summary"]["events"] == 2**5
    assert calls == {"walk": 1, "expectation": 2 * 2**5}

    calls.update(walk=0, expectation=0)
    code, _, err = _run(["verify", "--random", "1"])
    assert code == 0, err
    assert calls["walk"] == 1


def test_update_rejects_thirteen_outcomes(tmp_path):
    doc = _base_model()
    doc["outcomes"] = [f"x{i}" for i in range(13)]
    doc["prior"] = {"kind": "eps-contamination", "p": [1 / 13] * 13, "eps": 0.1}
    doc["likelihood"] = {"band": {"lower": [0.5] * 13, "upper": [0.5] * 13}}
    doc["events"] = [["x0"]]
    code, out, err = _run(["update", _write(tmp_path, doc)])
    assert code == 2
    assert out == ""
    assert "$.outcomes" in err and "between 1 and 12" in err


def test_verify_names_outcomes_past_the_vertex_cap(tmp_path):
    """The oracle walks a 2-alternating prior's vertices, which stops at
    n = 10; update on the same model runs."""
    doc = _base_model()
    doc["outcomes"] = [f"x{i}" for i in range(11)]
    doc["prior"] = {"kind": "eps-contamination", "p": [1 / 11] * 11, "eps": 0.1}
    doc["likelihood"] = {"band": {"lower": [0.5] * 11, "upper": [0.5] * 11}}
    doc["events"] = [["x0"]]
    path = _write(tmp_path, doc)
    code, out, err = _run(["verify", path])
    assert code == 2
    assert out == ""
    assert "validation error: $.outcomes: " in err and "n <= 10, got 11" in err
    code, _, err = _run(["update", path])
    assert code == 0, err


def test_closed_reader_exits_quietly(tmp_path):
    """A reader that stops early, as ``| head`` does, ends the run with
    exit 1 and nothing on stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "credal_bayes.cli", "update", _write(tmp_path, _base_model()), "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # Closed before the child has even imported the package, so its
    # first write to stdout meets a pipe with no reader.
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_solver_failure_is_reported_without_traceback(tmp_path, monkeypatch):
    from credal_bayes import _simplex

    monkeypatch.setattr(_simplex, "_MAX_ITER", 0)
    code, _, err = _run(["update", _write(tmp_path, _base_model())])
    assert code == 2
    assert "iteration limit" in err
    assert "Traceback" not in err


class TestErrorPaths:
    def test_empty_core_is_a_validation_error(self, tmp_path):
        doc = _base_model()
        doc["outcomes"] = ["a", "b"]
        doc["prior"] = {"kind": "explicit", "values": {"": 0, "a": 0.2, "b": 0.2, "a,b": 1}}
        doc["likelihood"] = {"band": {"lower": [0.5, 0.5], "upper": [0.5, 0.5]}}
        doc["events"] = [["a"]]
        path = _write(tmp_path, doc)
        for command in ("update", "verify"):
            code, out, err = _run([command, path])
            assert code == 2
            assert out == ""
            assert err == "error: the prior core is empty; no posterior exists\n"

    def test_unreadable_model_named_at_root(self, tmp_path):
        code, out, err = _run(["update", os.path.join(tmp_path, "missing.json")])
        assert (code, out) == (2, "")
        assert err.startswith("validation error: $: cannot read ")

    def test_invalid_json_named_at_root(self, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1,')
        code, out, err = _run(["verify", path])
        assert (code, out) == (2, "")
        assert err.startswith("validation error: $: invalid JSON in ")


    def test_all_zero_evidence_is_an_undefined_ratio(self, tmp_path):
        """Every (prior, likelihood) pair has zero evidence: verify meets the
        vanished denominator in its bounds first, as update does."""
        doc = _base_model()
        doc["prior"] = {"kind": "eps-contamination", "p": ["1/2", "1/4", "1/4"], "eps": "1/5"}
        doc["likelihood"] = {"band": {"lower": [0, 0, 0], "upper": [0, 0, 0]}}
        doc["options"] = {"exact": True}
        path = _write(tmp_path, doc)
        for command in ("update", "verify"):
            code, out, err = _run([command, path])
            assert (code, out) == (3, "")
            assert err == "undefined ratio: denominator vanished for event 't1'\n"


@pytest.mark.parametrize("exact", [True, False])
def test_integer_model_prints_no_float(tmp_path, exact):
    """A model written only in integers is exact in either mode, so no
    record of update, verify or iterate holds a float."""
    doc = {
        "version": 1,
        "outcomes": ["a", "b", "c"],
        "prior": {"kind": "envelope", "vertices": [[1, 0, 0], [0, 1, 0]]},
        "likelihood": {"band": {"lower": [1, 2, 3], "upper": [1, 2, 3]}},
        "events": [["a"], ["b", "c"]],
        "options": {"exact": exact},
    }
    mp = _write(tmp_path, doc)
    obs = {"version": 1, "observations": [{"band": {"lower": [1, 2, 3], "upper": [1, 2, 3]}},
                                          {"band": {"lower": [2, 1, 1], "upper": [3, 1, 1]}}]}
    op = _write(tmp_path, obs, "obs.json")

    def floats(node):
        if isinstance(node, dict):
            return [f for v in node.values() for f in floats(v)]
        if isinstance(node, list):
            return [f for v in node for f in floats(v)]
        return [node] if isinstance(node, float) else []

    for argv in (["update", mp, "--json"], ["update", mp, "--sweep", "--json"],
                 ["iterate", mp, op, "--json"], ["verify", mp, "--json"]):
        code, out, err = _run(argv)
        assert code == 0, err
        if argv[0] == "verify":  # the summary line's gap is a float by design
            docs = [json.loads(line) for line in out.splitlines()[:-1]]
        else:
            docs = [json.loads(out)]
        assert docs and floats(docs) == [], argv
    code, out, _ = _run(["update", mp, "--json"])
    rec = json.loads(out)["events"][0]
    assert (rec["upper_vertex"], rec["upper_choquet"], rec["lower_choquet"]) == ("1/1", "1/1", "0/1")


class TestEqualityClausePerEvent:
    """Two outcomes, the precise prior (1/2, 1/2), the family {(1, 1),
    (1/2, 1/2)} and the event {a}: both members are constant, so every
    posterior of {a} is 1/2, and the switch vector (1, 1/2) behind the
    bound 2/3 is not a member."""

    @pytest.fixture
    def model(self, tmp_path):
        doc = {
            "version": 1,
            "outcomes": ["a", "b"],
            "prior": {"kind": "explicit", "values": {"": 0, "a": "1/2", "b": "1/2", "a,b": 1}},
            "likelihood": {"family": [[1, 1], ["1/2", "1/2"]]},
            "events": [["a"]],
            "options": {"exact": True},
        }
        return _write(tmp_path, doc)

    def test_update_reports_a_bound(self, model):
        code, out, err = _run(["update", model, "--sweep", "--json"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["posterior"] is None
        by_event = {r["event"]: r for r in doc["events"]}
        assert by_event["a"]["upper_vertex"] == "2/3"
        assert by_event["a"]["diagnosis"] == "BoundOnly"
        assert by_event["a,b"]["diagnosis"] == "ProvenEqual"  # e = (1, 1)

    def test_verify_finds_the_gap(self, model):
        code, out, err = _run(["verify", model, "--json"])
        assert code == 0, err
        rec = json.loads(out.splitlines()[0])
        assert (rec["oracle"], rec["upper_vertex"]) == ("1/2", "2/3")
        assert rec["diagnosis"] == "StrictGap"

    def test_iterate_names_the_step(self, model, tmp_path):
        step = {"band": {"lower": [1, 1], "upper": [1, 1]}}
        family = {"family": [[1, 1], ["1/2", "1/2"]]}
        obs = _write(tmp_path, {"version": 1, "observations": [step, family]}, "obs.json")
        code, out, err = _run(["iterate", model, obs])
        assert (code, out) == (2, "")
        assert err.startswith("validation error: $.observations[1]: ")
        assert "switch vector of event 'a'" in err


class TestIterate:
    def test_empty_observation_list_echoes_prior(self, tmp_path):
        mp = _write(tmp_path, _base_model())
        op = _write(tmp_path, {"version": 1, "observations": []}, "obs.json")
        code, out, _ = _run(["iterate", mp, op, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 0
        want = 0.9 * (1 / 3) + 0.1
        assert doc["final"]["values"]["t1"] == pytest.approx(want, abs=1e-12)

    def test_repeated_precise_observation_squares_likelihood(self, tmp_path):
        doc = _base_model(eps=0)
        L = [0.5, 0.3, 0.2]
        doc["likelihood"] = {"band": {"lower": L, "upper": L}}
        mp = _write(tmp_path, doc)
        obs = {"version": 1, "observations": [
            {"band": {"lower": L, "upper": L}},
            {"band": {"lower": L, "upper": L}},
        ]}
        op = _write(tmp_path, obs, "obs.json")
        code, out, _ = _run(["iterate", mp, op, "--json"])
        assert code == 0
        final = json.loads(out)["final"]["values"]
        space = OutcomeSpace(("t1", "t2", "t3"))
        p = ProbabilityVector(space, (1 / 3,) * 3)
        squared = Functional(space, tuple(x * x for x in L))
        for label, mask in (("t1", 0b001), ("t2", 0b010), ("t3", 0b100)):
            assert final[label] == pytest.approx(
                precise_posterior(p, squared, mask), abs=1e-9
            )

    def test_malformed_step_names_path(self, tmp_path):
        mp = _write(tmp_path, _base_model())
        step = {"band": {"lower": [0.5, 0.3, 0.2], "upper": [0.5, "zzz", 0.2]}}
        op = _write(tmp_path, {"version": 1, "observations": [step]}, "obs.json")
        code, out, err = _run(["iterate", mp, op])
        assert code == 2
        assert out == ""
        assert "$.observations[0].band.upper[1]" in err

    def test_unreadable_observations_named(self, tmp_path):
        mp = _write(tmp_path, _base_model())
        missing = os.path.join(tmp_path, "missing.json")
        code, out, err = _run(["iterate", mp, missing])
        assert code == 2
        assert out == ""
        assert "validation error: $: cannot read observations" in err

    def test_observations_without_a_list_named(self, tmp_path):
        mp = _write(tmp_path, _base_model())
        op = _write(tmp_path, {"version": 1, "observations": {}}, "obs.json")
        code, out, err = _run(["iterate", mp, op])
        assert (code, out) == (2, "")
        assert "validation error: $.observations: expected an object" in err

    def test_lost_concavity_exits_with_a_witness(self, tmp_path, monkeypatch):
        """A posterior that is not 2-alternating stops the fold with exit 4,
        the witness pair and the offending capacity on stderr."""
        space = OutcomeSpace(("t1", "t2", "t3"))
        # c(t1) + c(t2) < c(t1, t2) + c(empty): not 2-alternating
        bent = Capacity(space, (0, 0.4, 0.4, 0.9, 0.4, 0.9, 0.9, 1))
        monkeypatch.setattr(cli, "posterior_capacity", lambda prior, lik: bent)
        mp = _write(tmp_path, _base_model())
        step = _base_model()["likelihood"]
        op = _write(tmp_path, {"version": 1, "observations": [step, step]}, "obs.json")
        code, out, err = _run(["iterate", mp, op, "--json"])
        assert (code, out) == (4, "")
        head, dump = err.split("\n", 1)
        assert head == "concavity lost at step 1: witness events {t1} / {t2}"
        assert json.loads(dump) == capacity_to_json(bent)

    def test_band_steps_keep_concavity(self, tmp_path):
        doc = _base_model()
        doc["outcomes"] = ["a", "b", "c", "d"]
        doc["prior"] = {"kind": "eps-contamination", "p": [0.4, 0.3, 0.2, 0.1], "eps": 0.2}
        doc["likelihood"] = {"band": {"lower": [0.4, 0.3, 0.2, 0.1],
                                      "upper": [0.5, 0.4, 0.3, 0.2]}}
        doc["events"] = [["a"], ["a", "b"]]
        mp = _write(tmp_path, doc)
        from random import Random

        rng = Random(21)
        steps = []
        for _ in range(10):
            lo = [round(rng.uniform(0.05, 0.8), 6) for _ in range(4)]
            hi = [round(x + rng.uniform(0, 0.3), 6) for x in lo]
            steps.append({"band": {"lower": lo, "upper": hi}})
        op = _write(tmp_path, {"version": 1, "observations": steps}, "obs.json")
        code, out, err = _run(["iterate", mp, op])
        assert code == 0, err
        assert out.count("10    ") >= 2  # both watched events reported at step 10
