"""Shared fixtures."""

from unittest import mock

import pytest

from bpdg import dg_core

_ghost_trace = dg_core.ghost_trace


def _formed_ghosts(field, values):
    """The ghost traces `_interface_flux` forms from `values` for `field`, as
    `ghost_trace` returns them: (states, pressures), each in left, right,
    bottom, top order; `pressures` is empty when `values` carry none."""
    formed = {False: [], True: []}

    def recording(bc, interior, wrap, coords, of_state=None):
        ghost = _ghost_trace(bc, interior, wrap, coords, of_state)
        formed[of_state is not None].append(ghost)
        return ghost

    with mock.patch.object(dg_core, "ghost_trace", recording):
        for axis in (0, 1):
            dg_core._interface_flux(field, values, axis, 1.0)
    return tuple(formed[False]), tuple(formed[True])


@pytest.fixture(scope="session")
def formed_ghosts():
    """`_formed_ghosts`, for the tests that check the flux's ghost traces."""
    return _formed_ghosts
