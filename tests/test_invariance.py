"""The verdicts of ``check`` and ``fit`` do not depend on how a dataset is
written down.

Seeded datasets of all four models, clean and with some choices
re-drawn, go through ``refdep.cli.main`` as files.  Shuffling the order
of the alternatives, the observations and the ids inside each menu and
choice leaves the ``--json`` bytes unchanged.  Renaming the ids at
random, mapping the AREU prizes by a positive affine map and scaling the
FSPU incomes and floor by one positive factor leave the verdicts and
the witness counts unchanged.
"""

import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from refdep.cli import main
from refdep.serialize import dataset_to_dict, format_rational, parse_rational

from helpers import areu_data, fspu_data, ordu_data, pbdu_data, perturbed

MAKERS = {"ordu": ordu_data, "areu": areu_data, "pbdu": pbdu_data, "fspu": fspu_data}


def _documents(model, seed):
    """A clean and a perturbed dataset document of ``model``."""
    rng = random.Random(seed)
    clean = MAKERS[model](rng)
    return [dataset_to_dict(clean), dataset_to_dict(perturbed(rng, clean))]


def _outputs(tmp_path, model, doc):
    """Per command, the exit code and bytes of ``refdep --json <command>
    --model <model>`` on ``doc``, for ``check`` and ``fit``."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    outputs = {}
    for command in ("check", "fit"):
        buffer, stdout = io.StringIO(), sys.stdout
        sys.stdout = buffer
        try:
            code = main(["--json", command, "--model", model, str(path)])
        finally:
            sys.stdout = stdout
        outputs[command] = code, buffer.getvalue()
    return outputs


def _verdicts(outputs):
    """The exit codes, each check's verdict and witness count, and the
    fit's status and witness count."""
    (check_code, check_out), (fit_code, fit_out) = outputs["check"], outputs["fit"]
    checked, fitted = json.loads(check_out), json.loads(fit_out)
    return (check_code, {key: (result["pass"], len(result["witnesses"]))
                         for key, result in checked["results"].items()},
            fit_code, fitted["fit"], len(fitted.get("witnesses", ())))


def _shuffled(rng, doc):
    observations = [{"menu": rng.sample(obs["menu"], len(obs["menu"])),
                     "choice": rng.sample(obs["choice"], len(obs["choice"]))}
                    for obs in doc["observations"]]
    return {**doc, "alternatives": rng.sample(doc["alternatives"], len(doc["alternatives"])),
            "observations": rng.sample(observations, len(observations))}


def _renamed(rng, doc):
    ids = [alt["id"] for alt in doc["alternatives"]]
    names = dict(zip(ids, (f"n{k}" for k in rng.sample(range(100, 1000), len(ids)))))
    return {**doc,
            "alternatives": [{**alt, "id": names[alt["id"]]} for alt in doc["alternatives"]],
            "observations": [{key: [names[x] for x in obs[key]] for key in ("menu", "choice")}
                             for obs in doc["observations"]]}


def _mapped(doc, field_map):
    """``doc`` with each payload's fields rewritten by ``field_map``."""
    return {**doc, "alternatives": [{**alt, "payload": field_map(alt["payload"])}
                                    for alt in doc["alternatives"]]}


def _affine_prizes(rng, doc):
    scale, shift = F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(-20, 20), 3)

    def move(prize):
        return format_rational(scale * parse_rational(prize) + shift)
    return _mapped(doc, lambda payload: {"probs": {move(x): p for x, p in
                                                   payload["probs"].items()}})


def _scaled_incomes(rng, doc):
    scale = F(rng.randint(1, 9), rng.randint(1, 4))

    def times(value):
        return format_rational(scale * parse_rational(value))
    scaled = _mapped(doc, lambda payload: {key: times(v) for key, v in payload.items()})
    return {**scaled, "floor": times(doc["floor"])}


RESCALINGS = {"areu": _affine_prizes, "fspu": _scaled_incomes}


@pytest.mark.parametrize("model", sorted(MAKERS))
def test_check_and_fit_ignore_file_order_ids_and_units(model, tmp_path):
    rng = random.Random(61)
    codes = set()
    for seed in range(6):
        for doc in _documents(model, seed):
            outputs = _outputs(tmp_path, model, doc)
            assert _outputs(tmp_path, model, _shuffled(rng, doc)) == outputs, seed
            verdicts = _verdicts(outputs)
            assert _verdicts(_outputs(tmp_path, model, _renamed(rng, doc))) == verdicts, seed
            if model in RESCALINGS:
                rescaled = RESCALINGS[model](rng, doc)
                assert _verdicts(_outputs(tmp_path, model, rescaled)) == verdicts, seed
            codes.add(verdicts[0])
    assert codes == {0, 1}, codes
