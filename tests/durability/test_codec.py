"""Codec roundtrips: every primitive the state dicts are built from."""

import numpy as np
import pytest

from repro.common.errors import RecoveryError
from repro.common.simtime import Window
from repro.durability.codec import (
    StateCodec,
    decode_array,
    decode_config,
    decode_window,
    encode_array,
    encode_config,
    encode_window,
    require_keys,
    state_checksum,
)
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import ScalingPolicy, WarehouseSize


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.float32),
            np.array([[True, False]]),
            np.arange(5, dtype=np.int64),
        ],
    )
    def test_roundtrip_exact(self, arr):
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_noncontiguous_input(self):
        arr = np.arange(12).reshape(3, 4)[:, ::2]
        assert np.array_equal(decode_array(encode_array(arr)), arr)

    def test_encoding_is_json_safe_and_stable(self):
        arr = np.linspace(0, 1, 7)
        assert encode_array(arr) == encode_array(arr.copy())

    def test_decoded_array_is_writable(self):
        out = decode_array(encode_array(np.ones(3)))
        out[0] = 2.0  # would raise on a frombuffer view


class TestConfigAndWindowCodec:
    def test_config_roundtrip(self):
        config = WarehouseConfig(
            size=WarehouseSize.L,
            auto_suspend_seconds=300.0,
            min_clusters=1,
            max_clusters=4,
            scaling_policy=ScalingPolicy.ECONOMY,
            max_concurrency=12,
        )
        assert decode_config(encode_config(config)) == config

    def test_window_roundtrip(self):
        window = Window(10.0, 3600.0)
        out = decode_window(encode_window(window))
        assert (out.start, out.end) == (window.start, window.end)


class TestChecksumAndKeys:
    def test_checksum_order_insensitive(self):
        assert state_checksum({"a": 1, "b": [2]}) == state_checksum({"b": [2], "a": 1})

    def test_checksum_value_sensitive(self):
        assert state_checksum({"a": 1}) != state_checksum({"a": 2})

    def test_require_keys_passes(self):
        require_keys({"a": 1, "b": 2}, ("a", "b"), "owner")

    def test_require_keys_typed_error(self):
        with pytest.raises(RecoveryError, match="ledger state missing keys: b, c"):
            require_keys({"a": 1}, ("a", "b", "c"), "ledger")


class TestStateCodecProtocol:
    def test_core_components_implement_protocol(self):
        from repro.core.actuator import CircuitBreaker
        from repro.learning.buffer import ReplayBuffer
        from repro.learning.network import MLP

        # SavingsLedger left the protocol: its entries are an append-only
        # log the optimizer's checkpoint carries (tests/durability/test_logs.py).
        assert isinstance(CircuitBreaker(), StateCodec)
        assert isinstance(ReplayBuffer(capacity=8), StateCodec)
        assert isinstance(MLP(4, 3, (8,), np.random.default_rng(0)), StateCodec)
