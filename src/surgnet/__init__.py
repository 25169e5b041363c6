"""surgnet: co-worker network analytics for surgical case records.

Reconstructs provider collaboration networks from case files, computes
node- and team-level structure measures, counts postoperative
complications from ICD9-CM diagnosis codes, and estimates their
interrelations with Spearman correlation and count regression (Poisson
and NB2 negative binomial). The API is the modules (``surgnet.records``,
``surgnet.pipeline``, ``surgnet.synth``, ...); the package re-exports
nothing, so importing one loads only what that module needs.
"""

__version__ = "0.1.0"
