"""The five compared methods of §4.1.2 plus the Table 1 ablation variants."""

from repro.methods.ablations import MFCPHardPenalty, MFCPLinearLoss, make_table1_methods
from repro.methods.base import BaseMethod, Decision, FitContext, MatchSpec
from repro.methods.dfl_baselines import BlackboxDiff, PerturbedOpt, SPOPlus, make_dfl_methods
from repro.methods.mfcp import MFCP, MFCPConfig
from repro.methods.tam import TAM
from repro.methods.tsm import TSM
from repro.methods.ucb import UCB

__all__ = [
    "BaseMethod",
    "Decision",
    "FitContext",
    "MatchSpec",
    "TAM",
    "TSM",
    "UCB",
    "MFCP",
    "MFCPConfig",
    "MFCPLinearLoss",
    "MFCPHardPenalty",
    "make_table1_methods",
    "SPOPlus",
    "BlackboxDiff",
    "PerturbedOpt",
    "make_dfl_methods",
]
