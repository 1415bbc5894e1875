"""The prefetcher zoo: I-SPY's baselines and the protocol they share.

``protocol``    the :class:`Prefetcher` ABC, capability flags and the
                variant registry (:func:`get_prefetcher`).
``asmdb``       the state-of-the-art profile-guided prefetcher.
``contiguous``  Contiguous-n / Non-contiguous-n limit study (Fig. 5)
                and hardware next-N-line prefetching (a contiguous
                window with no filter).
``fdip``        fetch-directed (branch-predictor-run-ahead) prefetching.
``ideal``       the no-miss upper bound.
``ispy``        I-SPY itself, as a registered zoo member.
``mana``        spatial-region metadata prefetching (MANA).

Every member is reached through the registry: replay one with
``get_prefetcher(name).simulate(view, trace, ctx)``.  The run-time
members (next-N-line, the windows, MANA and FDIP) are
:class:`~repro.baselines.protocol.MechanismPrefetcher` subclasses: each
supplies a trigger to the one demand-fetch loop,
:func:`repro.sim.mechanism.replay_mechanism`.

Exports resolve lazily (like :mod:`repro` itself) so importing the
package stays cheap; the registry loads the member modules on first
access.
"""

from __future__ import annotations

#: name -> "module:attribute" for the package API.
_EXPORTS = {
    # protocol & registry
    "Footprint": "repro.baselines.protocol:Footprint",
    "MechanismPrefetcher": "repro.baselines.protocol:MechanismPrefetcher",
    "Prefetcher": "repro.baselines.protocol:Prefetcher",
    "ProfileView": "repro.baselines.protocol:ProfileView",
    "ReplayContext": "repro.baselines.protocol:ReplayContext",
    "capability_rows": "repro.baselines.protocol:capability_rows",
    "get_prefetcher": "repro.baselines.protocol:get_prefetcher",
    "plan_of": "repro.baselines.protocol:plan_of",
    "plan_prefetcher_names": "repro.baselines.protocol:plan_prefetcher_names",
    "prefetcher_names": "repro.baselines.protocol:prefetcher_names",
    "register_prefetcher": "repro.baselines.protocol:register_prefetcher",
    # asmdb
    "ASMDB_FANOUT_THRESHOLD": "repro.baselines.asmdb:ASMDB_FANOUT_THRESHOLD",
    "AsmDBPrefetcher": "repro.baselines.asmdb:AsmDBPrefetcher",
    "AsmDBResult": "repro.baselines.asmdb:AsmDBResult",
    "build_asmdb_plan": "repro.baselines.asmdb:build_asmdb_plan",
    # window limit study and next-N-line
    "NextLinePrefetcher": "repro.baselines.contiguous:NextLinePrefetcher",
    "WindowPrefetcher": "repro.baselines.contiguous:WindowPrefetcher",
    "build_window_plan": "repro.baselines.contiguous:build_window_plan",
    # fdip
    "BimodalBTB": "repro.baselines.fdip:BimodalBTB",
    "FDIPPrefetcher": "repro.baselines.fdip:FDIPPrefetcher",
    # ideal
    "IdealPrefetcher": "repro.baselines.ideal:IdealPrefetcher",
    # ispy adapter
    "ISpyPrefetcher": "repro.baselines.ispy:ISpyPrefetcher",
    # mana
    "ManaPrefetcher": "repro.baselines.mana:ManaPrefetcher",
    "ManaResult": "repro.baselines.mana:ManaResult",
    "ManaTable": "repro.baselines.mana:ManaTable",
    "build_mana_table": "repro.baselines.mana:build_mana_table",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Lazy package exports (see :mod:`repro`)."""
    try:
        target = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.baselines' has no attribute {name!r}"
        ) from None
    import importlib

    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return __all__
