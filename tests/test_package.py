"""The package's public names: `readmitlab.__all__` is derived from what
`readmitlab/__init__.py` imports, so each name is written once."""

import inspect

import readmitlab


def test_all_is_every_public_name_that_is_not_a_module():
    public = sorted(name for name, value in vars(readmitlab).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert readmitlab.__all__ == public
    assert {"load_cascade", "cross_validate", "train_network"} <= set(readmitlab.__all__)
