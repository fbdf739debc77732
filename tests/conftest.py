import numpy as np
import pytest

from fedaudit import data as dat
from fedaudit import fedsim as fed
from fedaudit import model as mdl
from fedaudit.numstat import RngStream


@pytest.fixture(scope="session")
def tiny_setup():
    """Small separable problem shared by training-dependent tests."""
    rng = RngStream(42)
    dataset = dat.synth_blobs(rng.derive(100), num_classes=3, input_dim=8, per_class=120, class_sep=2.0)
    partition = dat.partition_iid(rng.derive(101), dataset, num_clients=4, per_client=60, holdout=80)
    spec = mdl.ModelSpec("mlp", input_dim=8, hidden_dim=16, num_classes=3, init_std=0.1)
    return dataset, partition, spec


@pytest.fixture(scope="session")
def tiny_trace(tiny_setup):
    dataset, partition, spec = tiny_setup
    config = fed.FedConfig(rounds=6, local_epochs=2, lr=0.1, lr_decay=0.99, batch_size=16)
    return fed.run_federation(dataset, partition, spec, config, fed.DefenseConfig(), 42)


def make_toy_trace(updates_per_round, global_models, spec, lr_eff=0.1, final_model=None):
    """Hand-assembled trace from explicit update matrices and global models."""
    rounds = [
        fed.RoundRecord(t, np.asarray(global_models[t], dtype=np.float64),
                        np.asarray(updates_per_round[t], dtype=np.float64), lr_eff)
        for t in range(len(updates_per_round))
    ]
    if final_model is None:
        final_model = np.asarray(global_models[-1], dtype=np.float64)
    return fed.UpdateTrace(
        model_spec=spec,
        rounds=rounds,
        final_model=np.asarray(final_model, dtype=np.float64),
        round_accuracy=[float("nan")] * len(rounds),
        defense=fed.DefenseConfig(),
        seed=0,
    )
