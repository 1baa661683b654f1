"""Size caps for the various enumerations and solvers.

Every potentially explosive operation checks one of these before doing
work; the defaults suit desk-scale groups and can be overridden per job.
H^1, H^2 and the class module count unknowns (``check_unknowns``), not order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CapExceeded, ValidationError


@dataclass(frozen=True)
class Caps:
    table_group: int = 4096          # largest group stored as a full table or enumerated
    closure: int = 1 << 18           # commuting generator pairs of the bic family
    class_module_unknowns: int = 2048  # unknowns of an H^1, H^2 or class-module solve
    nonabelian_enum: int = 10**7     # candidate tables |G|^#generators
    local_tuples: int = 10**4        # rows enumerated in a Brauer-Manin tuple table

    def with_overrides(self, overrides: dict) -> "Caps":
        """A copy with the named caps set; values are integers >= 0 or digit strings."""
        values = {}
        for name, value in overrides.items():
            if name not in self.__dataclass_fields__:
                raise ValidationError("unknown cap name", witness=name)
            if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
                value = int(value)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"cap {name} needs an integer value", witness=value)
            if value < 0:
                raise ValidationError(f"cap {name} must not be negative", witness=value)
            values[name] = value
        return replace(self, **values)

    def check_unknowns(self, count: int) -> None:
        """Refuse a cohomology solve with more than ``class_module_unknowns`` unknowns."""
        if count > self.class_module_unknowns:
            raise CapExceeded("class_module_unknowns", self.class_module_unknowns, count)


DEFAULT_CAPS = Caps()
