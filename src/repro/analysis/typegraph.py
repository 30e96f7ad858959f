"""The pointer-reachability graph over declared types.

The paper's transfer machinery is driven entirely by the static type
graph: a long pointer's data type specifier names a struct, the struct's
pointer fields name further structs, and the closure walker follows
those edges at run time.  :class:`TypeGraph` builds the same graph
ahead of time — from an :class:`~repro.rpc.idl.IdlDocument` and/or a
:class:`~repro.xdr.registry.TypeRegistry` — so the analyzer can reason
about reachability, by-value embedding cycles, and per-procedure
closure footprints without running anything.

Two edge kinds matter and are kept separate:

* **pointer edges** (``A -> B`` because ``A`` has a field ``B *``):
  followed lazily at run time, so cycles are fine (trees, lists);
* **embed edges** (``A -> B`` because ``A`` embeds ``B`` by value):
  resolved at layout time, so a cycle means infinite size — the IDL
  parser cannot produce one, but programmatically built or
  wire-decoded specs can, and the analyzer must not crash on them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.rpc.interface import ProcedureDef
from repro.xdr.arch import Architecture
from repro.xdr.types import (
    ArrayType,
    PointerType,
    StructType,
    TypeSpec,
    UnionType,
)


class TypeGraph:
    """Pointer and embed edges over a set of named struct types."""

    def __init__(self) -> None:
        self.structs: Dict[str, StructType] = {}
        # name -> set of pointer-target names (may include unknowns)
        self.pointer_edges: Dict[str, Set[str]] = {}
        # name -> set of embedded struct names
        self.embed_edges: Dict[str, Set[str]] = {}

    # -- construction ---------------------------------------------------------

    def add_struct(self, name: str, spec: StructType) -> None:
        """Add one named struct and extract its edges."""
        self.structs[name] = spec
        pointers: Set[str] = set()
        embeds: Set[str] = set()
        for field in spec.fields:
            _collect_edges(field.spec, pointers, embeds)
        self.pointer_edges[name] = pointers
        self.embed_edges[name] = embeds

    @classmethod
    def from_structs(
        cls, structs: Dict[str, StructType]
    ) -> "TypeGraph":
        """Build a graph from a name -> struct mapping."""
        graph = cls()
        for name, spec in structs.items():
            graph.add_struct(name, spec)
        return graph

    # -- queries --------------------------------------------------------------

    def knows(self, name: str) -> bool:
        """Whether the graph has a definition for ``name``."""
        return name in self.structs

    def pointer_targets(self, name: str) -> Set[str]:
        """Names targeted by pointer fields of ``name`` (direct)."""
        return self.pointer_edges.get(name, set())

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every type name reachable from ``roots`` via either edge kind.

        Unknown names are included in the result (so callers can flag
        them) but not expanded.
        """
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            for target in self.pointer_edges.get(name, ()):
                if target not in seen:
                    stack.append(target)
            for target in self.embed_edges.get(name, ()):
                if target not in seen:
                    stack.append(target)
        return seen

    def embedding_cycle(self) -> Optional[List[str]]:
        """A by-value embedding cycle, if one exists.

        Returns the cycle as a name list ``[a, b, ..., a]`` or ``None``.
        Only embed edges participate — pointer cycles are legal.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.structs}
        path: List[str] = []

        def visit(name: str) -> Optional[List[str]]:
            color[name] = GREY
            path.append(name)
            for target in sorted(self.embed_edges.get(name, ())):
                if target not in color:
                    continue  # unknown target: reported elsewhere
                if color[target] == GREY:
                    return path[path.index(target):] + [target]
                if color[target] == WHITE:
                    found = visit(target)
                    if found is not None:
                        return found
            color[name] = BLACK
            path.pop()
            return None

        for name in sorted(self.structs):
            if color[name] == WHITE:
                found = visit(name)
                if found is not None:
                    return found
        return None

    # -- sizes ----------------------------------------------------------------

    def _embed_reachable(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.embed_edges.get(current, ()))
        return seen

    def safe_sizeof(
        self, name: str, arch: Architecture
    ) -> Optional[int]:
        """``sizeof`` that refuses to recurse into embedding cycles.

        Returns ``None`` when the size is undefined (unknown type or
        infinite via an embedding cycle) instead of overflowing the
        stack the way a naive ``spec.sizeof`` would.
        """
        spec = self.structs.get(name)
        if spec is None:
            return None
        for reached in self._embed_reachable(name):
            if reached in self._embed_reachable_strict(reached):
                return None  # ``reached`` sits on an embedding cycle
        return spec.sizeof(arch)

    def _embed_reachable_strict(self, name: str) -> Set[str]:
        """Names embed-reachable from ``name`` via at least one edge."""
        seen: Set[str] = set()
        stack = list(self.embed_edges.get(name, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.embed_edges.get(current, ()))
        return seen

    def procedure_roots(self, procedure: ProcedureDef) -> List[str]:
        """Pointer-target names rooted in one procedure signature.

        Covers pointer parameters, pointers buried in by-value struct
        parameters, and the result type.
        """
        roots: Set[str] = set()
        specs: List[TypeSpec] = [param.spec for param in procedure.params]
        if procedure.returns is not None:
            specs.append(procedure.returns)
        for spec in specs:
            pointers: Set[str] = set()
            embeds: Set[str] = set()
            _collect_edges(spec, pointers, embeds)
            roots |= pointers
            # Pointers inside by-value embedded structs are roots too
            # (the embedded value is marshalled as data, its pointer
            # fields swizzle on arrival) — follow embed edges only.
            for name in embeds:
                for reached in self._embed_reachable(name):
                    roots |= self.pointer_edges.get(reached, set())
        return sorted(roots)

def _collect_edges(
    spec: TypeSpec, pointers: Set[str], embeds: Set[str]
) -> None:
    """Walk one field/parameter spec, recording its direct edges."""
    if isinstance(spec, PointerType):
        pointers.add(spec.target_type_id)
    elif isinstance(spec, ArrayType):
        _collect_edges(spec.element, pointers, embeds)
    elif isinstance(spec, StructType):
        embeds.add(spec.name)
    elif isinstance(spec, UnionType):
        # Arms are pointer-free by construction; embedded structs in
        # arms still contribute embed edges for size accounting.
        for arm in spec.arms.values():
            _collect_edges(arm, pointers, embeds)
