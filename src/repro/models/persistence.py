"""Saving and loading trained matcher weights.

The matchers are tiny (a few thousand parameters), so persistence is a plain
``.npz`` of the MLP weight arrays plus a JSON sidecar with the model
configuration.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.artifacts import write_atomic_npz, write_atomic_text
from repro.exceptions import ModelError, NotFittedError
from repro.models.base import ERModel
from repro.models.nn.network import MLPClassifier
from repro.models.training import make_model


def save_model(model: ERModel, directory: str | Path) -> Path:
    """Persist a trained matcher's weights and configuration to ``directory``.

    Each file is written atomically (temp file + fsync + rename), so a killed
    save never leaves a torn file behind.  The pair is not atomic together:
    ``weights.npz`` is replaced first, so a save that fails before
    ``config.json`` is written can leave new weights beside an older config,
    which :func:`load_model` rejects when the shapes disagree.
    """
    if not model.is_fitted:
        raise NotFittedError(f"cannot save unfitted model {model.name!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    classifier = model._require_fitted()
    weights = classifier.get_weights()
    write_atomic_npz(directory / "weights.npz", {f"w{i}": w for i, w in enumerate(weights)})
    config = {
        "name": model.name,
        "input_dim": classifier.input_dim,
        "hidden_dims": list(classifier.hidden_dims),
        "dropout": classifier.dropout,
        "learning_rate": classifier.learning_rate,
        "seed": classifier.seed,
    }
    write_atomic_text(directory / "config.json", json.dumps(config, indent=2))
    return directory


def load_model(directory: str | Path, **model_overrides) -> ERModel:
    """Load a matcher persisted by :func:`save_model`.

    The featurisation state of the stand-in matchers is deterministic (hashed
    embeddings), so restoring the MLP weights fully restores behaviour.
    Raises :class:`~repro.exceptions.ModelError` when ``directory`` holds no
    saved model or its weights do not fit its config.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    weights_path = directory / "weights.npz"
    if not config_path.exists() or not weights_path.exists():
        raise ModelError(f"{directory} does not contain a saved model")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    model = make_model(config["name"], **model_overrides)
    classifier = MLPClassifier(
        input_dim=int(config["input_dim"]),
        hidden_dims=tuple(config["hidden_dims"]),
        dropout=float(config["dropout"]),
        learning_rate=float(config["learning_rate"]),
        seed=int(config["seed"]),
    )
    with np.load(weights_path) as payload:
        weights = [payload[f"w{i}"] for i in range(len(payload.files))]
    try:
        classifier.set_weights(weights)
    except ValueError as exc:
        raise ModelError(
            f"{directory}: weights.npz does not fit config.json ({exc}); "
            f"a save may have failed between its two writes"
        ) from exc
    model._classifier = classifier
    return model
