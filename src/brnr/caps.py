"""Size caps for the various enumerations and solvers.

Every potentially explosive operation checks one of these before doing
work.  Defaults are sized for desk-scale groups; all of them can be
overridden per job through the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Caps:
    table_group: int = 4096          # largest group stored as a full table or enumerated
    closure: int = 1 << 18           # abelian subgroups listed, or bic generator pairs
    h2_group: int = 256              # largest base group for any H^2 computation
    class_module_unknowns: int = 2048
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


DEFAULT_CAPS = Caps()
