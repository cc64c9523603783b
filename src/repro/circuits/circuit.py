"""The SM-circuit container.

A :class:`Circuit` is an ordered list of :class:`Operation` with helpers
for appending instructions, counting resources, and validating detector
references.  Layer boundaries are explicit ``TICK`` operations — the noise
model uses them to locate idle qubits and the idle-error study (§6.3)
counts them as gate layers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .gates import GATE_ARITY, MEASURE_GATES, NOISE_GATES, Operation


def check_measurement_refs(op: Operation, measured: int) -> None:
    """Raise ``ValueError`` unless every target of ``op`` (a DETECTOR or
    OBSERVABLE_INCLUDE) indexes one of the ``measured`` records so far."""
    for idx in op.targets:
        if not 0 <= idx < measured:
            raise ValueError(
                f"{op.gate} references measurement {idx}, "
                f"only {measured} recorded so far"
            )


class Circuit:
    """A mutable sequence of operations forming one experiment."""

    def __init__(self, operations: Iterable[Operation] | None = None):
        self.operations: list[Operation] = list(operations or [])

    # -- append helpers ------------------------------------------------------

    def append(
        self,
        gate: str,
        targets: Iterable[int] = (),
        args: Iterable[float] = (),
        label: tuple = (),
    ) -> None:
        self.operations.append(
            Operation(gate, tuple(targets), tuple(args), tuple(label))
        )

    def tick(self) -> None:
        self.append("TICK")

    def extend(self, other: "Circuit") -> None:
        self.operations.extend(other.operations)

    # -- iteration / inspection ----------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.operations == other.operations

    @property
    def num_qubits(self) -> int:
        highest = -1
        for op in self.operations:
            if op.gate in GATE_ARITY and op.targets:
                highest = max(highest, max(op.targets))
        return highest + 1

    @property
    def num_measurements(self) -> int:
        return sum(
            len(op.target_groups())
            for op in self.operations
            if op.gate in MEASURE_GATES
        )

    @property
    def num_detectors(self) -> int:
        return sum(1 for op in self.operations if op.gate == "DETECTOR")

    @property
    def num_observables(self) -> int:
        indices = {
            int(op.args[0])
            for op in self.operations
            if op.gate == "OBSERVABLE_INCLUDE"
        }
        return max(indices) + 1 if indices else 0

    def count_gate(self, gate: str) -> int:
        return sum(
            len(op.target_groups()) for op in self.operations if op.gate == gate
        )

    def num_layers(self) -> int:
        """Number of TICK-delimited layers that contain at least one gate."""
        layers = 0
        seen_gate = False
        for op in self.operations:
            if op.gate == "TICK":
                if seen_gate:
                    layers += 1
                seen_gate = False
            elif op.gate in GATE_ARITY and op.gate not in NOISE_GATES:
                seen_gate = True
        return layers + (1 if seen_gate else 0)

    def detectors(self) -> list[Operation]:
        return [op for op in self.operations if op.gate == "DETECTOR"]

    def observables(self) -> list[Operation]:
        return [op for op in self.operations if op.gate == "OBSERVABLE_INCLUDE"]

    def without_noise(self) -> "Circuit":
        return Circuit(op for op in self.operations if not op.is_noise())

    def validate(self) -> None:
        """Check measurement references and layer structure.

        Raises ``ValueError`` on: detector/observable referencing a
        measurement that does not exist (yet), or a qubit acted on twice
        within one TICK layer.
        """
        measured = 0
        active: set[int] = set()
        for op in self.operations:
            if op.gate == "TICK":
                active.clear()
            elif op.gate in GATE_ARITY and op.gate not in NOISE_GATES:
                for q in op.targets:
                    if q in active:
                        raise ValueError(
                            f"qubit {q} acted on twice in one layer ({op.gate})"
                        )
                    active.add(q)
            if op.gate in MEASURE_GATES:
                measured += len(op.target_groups())
            elif op.gate in ("DETECTOR", "OBSERVABLE_INCLUDE"):
                check_measurement_refs(op, measured)

    def __str__(self) -> str:
        return "\n".join(str(op) for op in self.operations)

    def __repr__(self) -> str:
        return (
            f"Circuit(ops={len(self.operations)}, qubits={self.num_qubits}, "
            f"measurements={self.num_measurements}, detectors={self.num_detectors})"
        )
