"""Bounded-delay packet scheduling: model, policies, optimum, experiments.

Importing the package loads none of its modules; import the one you need:

- model: Packet, Instance, validation, the variant flags, the JSON-lines files.
- generators: seeded random and variant instances, the adversarial family.
- provisional: the optimal provisional schedule and its incremental form.
- policies: MG and EDF_alpha, the simulator and its trace.
- offline: the offline optimum and the competitive-ratio report.
- analysis: charging-chain bounds and the seeded ratio sweep.
- cli: the `mgsched` command.
"""
