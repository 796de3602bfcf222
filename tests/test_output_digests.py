"""The pinned output set keeps its bytes (see tests/output_digests.py)."""

import json

import numpy as np
import pytest

from output_digests import DIGESTS, run_set


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"digests pinned on numpy {pinned['numpy']}, this is numpy {np.__version__}; "
                    f"FFT rounding may differ")
    got = run_set(tmp_path)
    want = pinned["digests"]
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert (changed, sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())) \
        == ([], [], []), "outputs differ from tests/output_digests.json: changed, missing, new"
