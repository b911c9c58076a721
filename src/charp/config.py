"""Resource caps.

Gröbner-type computations can blow up; the caps make them fail loudly
with a ResourceError instead of hanging.  All engine entry points accept
a Caps instance and default to DEFAULT_CAPS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    max_degree: int = 64          # total degree allowed during basis completion
    max_basis: int = 512          # generators tracked during basis completion
    chain_steps: int = 64         # iterations allowed in fixed-ideal chains
    image_levels: int = 8         # largest level at which a stable image may settle
    frobenius_block: int = 256    # largest p^e handled by basis expansion
    ext_degree: int = 3           # largest field extension used for point sampling

    def with_overrides(self, **kwargs: int) -> "Caps":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown cap names: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_CAPS = Caps()
