"""Synthetic data-center workloads (substitute for the paper's nine apps).

``cfgmodel``     stochastic control-flow models and trace walks.
``layout``       linker-style address-space layout of synthesized code.
``synthesis``    the application generator (:func:`synthesize`).
``apps``         the nine named application specs (:func:`get_app`).
``adversarial``  hash/Bloom/phase-change stress generators.
``inputs``       alternative request mixes for the Fig. 16 study.
``ingest``       external trace ingestion (ChampSim/JSONL/CSV).
"""

from .adversarial import ADVERSARIAL_APP_NAMES, PhasedApp
from .apps import ALL_APP_NAMES, APP_NAMES, app_spec, build_app, get_app
from .cfgmodel import Branch, Call, ControlFlowModel, Jump, Return
from .ingest import (
    IngestedWorkload,
    ingest_records,
    ingest_trace_file,
    load_ingested,
    write_ingested,
)
from .inputs import INPUT_NAMES, InputTrace, input_mixes, trace_for_input
from .synthesis import AppSpec, SyntheticApp, scaled_spec, synthesize

__all__ = [
    "ADVERSARIAL_APP_NAMES",
    "ALL_APP_NAMES",
    "APP_NAMES",
    "AppSpec",
    "Branch",
    "Call",
    "ControlFlowModel",
    "INPUT_NAMES",
    "IngestedWorkload",
    "InputTrace",
    "Jump",
    "PhasedApp",
    "Return",
    "SyntheticApp",
    "app_spec",
    "build_app",
    "get_app",
    "ingest_records",
    "ingest_trace_file",
    "input_mixes",
    "load_ingested",
    "scaled_spec",
    "synthesize",
    "trace_for_input",
    "write_ingested",
]
