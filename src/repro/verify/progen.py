"""Seeded fuzz-program generation aimed at the allocator's pressure
points.

The base :class:`~repro.testing.generator.ProgramGenerator` optimizes
for breadth of language constructs; differential fuzzing of the
*allocation* machinery wants something sharper — programs that actually
make the analyzer's directives bite:

* **register pressure** — functions holding many simultaneously-live
  values across a call, forcing callee-saves demand, spill-code motion
  into cluster roots, and non-trivial FREE/MSPILL sets;
* **hot global traffic** — tight loops over a handful of globals, so
  the web machinery (configs C-F) finds promotions worth making, with
  both read-only and read-write webs;
* **multi-argument calls** — exercising the caller-saves argument
  registers around calls;
* **varied shape** — module/function/global counts themselves derive
  from the seed, so a seed sweep covers single-module programs through
  wide multi-module call graphs.

Each seed yields one deterministic, terminating program; the same seed
always yields the same sources (the fuzz suite's cache keys and the
differential oracle both rely on this).
"""

from __future__ import annotations

import random
import re

from repro.testing.generator import ProgramGenerator, _GenContext

#: Top-level function definition header (generated code always puts the
#: opening brace on the header line at column zero).
_FUNC_DEF_RE = re.compile(r"^int (\w+)\(([^)]*)\) \{$", re.MULTILINE)
#: Top-level scalar global definitions and extern declarations.
_GLOBAL_DEF_RE = re.compile(
    r"^(?:static )?int (\w+)(?: = -?\d+)?;$", re.MULTILINE
)
_GLOBAL_EXTERN_RE = re.compile(r"^extern int (\w+);$", re.MULTILINE)


class FuzzProgramGenerator(ProgramGenerator):
    """Allocator-hostile variant of the testing generator."""

    def __init__(self, seed: int):
        self.seed = seed
        # Shape knobs draw from a stream decoupled from the body RNG so
        # both stay reproducible per seed.
        shape = random.Random(f"progen-shape-{seed}")
        super().__init__(
            seed,
            num_modules=shape.randint(2, 4),
            functions_per_module=shape.randint(2, 4),
            num_globals=shape.randint(4, 10),
        )

    def _function(self, name: str, globals_visible: list, arrays: list,
                  callees: list) -> list:
        if self._chance(0.45):
            return self._pressure_function(
                name, globals_visible, arrays, callees
            )
        return super()._function(name, globals_visible, arrays, callees)

    def _pressure_function(self, name: str, globals_visible: list,
                           arrays: list, callees: list) -> list:
        """Many values live across a call: the shape that forces
        callee-saves usage, spilling, and (under clustering) MSPILL
        motion to the enclosing root."""
        width = self._randint(6, 12)
        locals_ = [f"n{i}" for i in range(width)]
        lines = [f"int {name}(int a) {{"]
        for i, local in enumerate(locals_):
            seedling = (
                self._pick(globals_visible) if globals_visible
                and self._chance(0.5) else str(self._randint(1, 9))
            )
            lines.append(f"  int {local} = a * {i + 1} + {seedling};")
        # Global traffic inside a loop: web fodder for configs C-F.
        if globals_visible:
            hot = self._pick(globals_visible)
            trip = self._randint(2, 6)
            lines += [
                "  { int p;",
                f"  for (p = 0; p < {trip}; p++) {{",
                f"    {hot} = {hot} + {locals_[0]} - p;",
                "  } }",
            ]
        # A call in the middle keeps every local live across it.
        ctx = _GenContext(scalars=list(locals_), arrays=list(arrays))
        for callee in self._rng.sample(
            callees, k=min(len(callees), self._randint(1, 2))
        ):
            lines.append(f"  a += {callee}({self._expr(ctx, 1)});")
        total = " + ".join(locals_)
        lines.append(f"  return a + {total};")
        lines.append("}")
        return lines

    def _main_module(self, global_names: list, arrays: list,
                     function_names: list) -> str:
        base = super()._main_module(global_names, arrays, function_names)
        if not self._chance(0.6):
            return base
        # A multi-argument helper stressing the argument registers, and
        # a call to it from main (spliced in before main's epilogue).
        helper = [
            "int mix3(int x, int y, int z) {",
            "  int s = x * 2 + y * 3 + z * 5;",
            "  return s - (x & y & z);",
            "}",
            "",
        ]
        lines = base.split("\n")
        anchor = lines.index("  int acc = 0;")
        lines.insert(
            anchor + 1,
            f"  acc += mix3({self._randint(1, 9)}, acc + 2, "
            f"{self._randint(1, 9)});",
        )
        return "\n".join(helper) + "\n" + "\n".join(lines)

    # -- synthetic scale programs ------------------------------------------

    def synthesize_large(self, modules: int, procedures: int) -> list:
        """Synthesize summary files for a huge program directly.

        Returns a list of :class:`~repro.frontend.summary.ModuleSummary`
        — the analyzer's input — for a program of exactly ``modules``
        compilation units and ``procedures`` procedures.  Parsing 50k
        procedures of Tiny-C through phase 1 would take longer than the
        analysis being measured, so the scale harness synthesizes what
        phase 1 *would have produced*: a wide, shallow call-graph forest
        (``main`` calling every module root, binary call trees inside
        each module, occasional cross-module and self-recursive edges),
        module-local globals plus a few program-wide hot ones, and
        seeded register-need estimates.  Deterministic per
        ``(seed, modules, procedures)``.
        """
        from repro.frontend.summary import (
            GlobalSummary,
            ModuleSummary,
            ProcedureSummary,
        )

        if modules < 1:
            raise ValueError("modules must be >= 1")
        if procedures < modules:
            raise ValueError("procedures must be >= modules")
        rng = random.Random(
            f"progen-large-{self.seed}-{modules}-{procedures}"
        )

        per_module = [procedures // modules] * modules
        for m in range(procedures % modules):
            per_module[m] += 1

        shared = [f"shared_g{k}" for k in range(4)]
        summaries: list = []
        module_names = [f"mod{m:04d}" for m in range(modules)]
        proc_names: dict[int, list] = {}
        for m, module in enumerate(module_names):
            proc_names[m] = [
                "main" if m == 0 and i == 0 else f"m{m}_p{i}"
                for i in range(per_module[m])
            ]

        address_taken = sorted(
            rng.sample(
                [n for names in proc_names.values() for n in names
                 if n != "main"],
                k=min(2, max(0, procedures - 1)),
            )
        )

        for m, module in enumerate(module_names):
            # Globals scale with module size: real C programs of this
            # vintage carry roughly one file-scope scalar per procedure
            # (state flags, counters, cursors — the "hundreds of
            # globals" character of the paper's larger benchmarks).
            local_globals = [
                f"m{m}_g{j}"
                for j in range(max(2, per_module[m]))
            ]
            globals_ = [
                GlobalSummary(name=g, module=module) for g in local_globals
            ]
            if m == 0:
                globals_ += [
                    GlobalSummary(name=g, module=module) for g in shared
                ]
            procs = []
            names = proc_names[m]
            for i, name in enumerate(names):
                refs: dict = {}
                stores: dict = {}
                for g in rng.sample(
                    local_globals,
                    k=rng.randint(1, min(6, len(local_globals))),
                ):
                    refs[g] = rng.randint(1, 200)
                    if rng.random() < 0.5:
                        stores[g] = rng.randint(1, refs[g])
                if rng.random() < 0.05:
                    refs[rng.choice(shared)] = rng.randint(1, 50)
                calls: dict = {}
                for child in (2 * i + 1, 2 * i + 2):
                    if child < len(names):
                        calls[names[child]] = rng.randint(1, 100)
                if name == "main":
                    for other in range(1, modules):
                        calls[proc_names[other][0]] = rng.randint(1, 20)
                elif i == 0 and m + 1 < modules and rng.random() < 0.15:
                    target = rng.randrange(m + 1, modules)
                    calls[proc_names[target][0]] = rng.randint(1, 10)
                if rng.random() < 0.02:
                    calls[name] = rng.randint(1, 5)  # self-recursion
                procs.append(ProcedureSummary(
                    name=name,
                    module=module,
                    global_refs=refs,
                    global_stores=stores,
                    calls=calls,
                    address_taken_procs=(
                        address_taken if name == "main" else []
                    ),
                    makes_indirect_calls=(
                        name != "main" and rng.random() < 0.0005
                    ),
                    indirect_call_freq=rng.randint(1, 10),
                    callee_saves_needed=rng.randint(0, 8),
                    caller_saves_needed=rng.randint(0, 6),
                    max_call_args=rng.randint(0, 5),
                    num_params=rng.randint(0, 4),
                ))
            summaries.append(ModuleSummary(
                module_name=module,
                globals=globals_,
                procedures=procs,
            ))
        return summaries

    # -- seeded mutation ---------------------------------------------------

    def mutate(self, sources: dict, step: int) -> dict:
        """One seeded edit of ``sources``: same (seed, step, sources)
        always yields the same mutated program.

        Draws one of the edit kinds of an editing session — edit a
        function body, add or remove a call edge, take a procedure's
        address (which also adds an indirect call site), or reference a
        previously-untouched global.  Mutants are valid,
        analyzable, linkable programs, but call-edge additions may
        create runtime recursion: mutants are meant to be *analyzed and
        built*, not executed.
        """
        rng = random.Random(f"progen-mutate-{self.seed}-{step}")
        operations = [
            self._mutate_body,
            self._mutate_add_call,
            self._mutate_remove_call,
            self._mutate_take_address,
            self._mutate_toggle_global,
        ]
        rng.shuffle(operations)
        for operation in operations:
            mutated = operation(dict(sources), rng, step)
            if mutated is not None:
                return mutated
        return dict(sources)

    # The helpers below return None when the edit kind has no candidate
    # site in this program, letting ``mutate`` fall through to another.

    @staticmethod
    def _definitions(sources: dict) -> list:
        """(module, name, params) for every function definition."""
        return [
            (module, match.group(1), match.group(2))
            for module, text in sorted(sources.items())
            for match in _FUNC_DEF_RE.finditer(text)
        ]

    @staticmethod
    def _visible_scalars(text: str) -> list:
        """Scalar globals a module's functions can reference."""
        return sorted(
            set(_GLOBAL_DEF_RE.findall(text))
            | set(_GLOBAL_EXTERN_RE.findall(text))
        )

    @staticmethod
    def _insert_into_body(text: str, function: str, statement: str) -> str:
        """Insert ``statement`` as the first line of ``function``."""
        pattern = re.compile(
            rf"^(int {re.escape(function)}\([^)]*\) \{{)$", re.MULTILINE
        )
        return pattern.sub(rf"\1\n{statement}", text, count=1)

    @staticmethod
    def _ensure_extern_function(text: str, name: str) -> str:
        if re.search(rf"^(?:extern )?int {re.escape(name)}\(", text,
                     re.MULTILINE):
            return text
        return f"extern int {name}(int);\n" + text

    def _mutate_body(self, sources, rng, step):
        """Edit a body: new loop traffic on an already-visible global
        (moves reference frequencies without touching the call graph)."""
        candidates = [
            (module, name)
            for module, name, _params in self._definitions(sources)
            if self._visible_scalars(sources[module])
        ]
        if not candidates:
            return None
        module, function = rng.choice(candidates)
        variable = rng.choice(self._visible_scalars(sources[module]))
        trip = rng.randint(2, 7)
        counter = f"mb{step}"
        statement = (
            f"  {{ int {counter}; for ({counter} = 0; {counter} < {trip}; "
            f"{counter}++) {{ {variable} = {variable} + {counter}; }} }}"
        )
        sources[module] = self._insert_into_body(
            sources[module], function, statement
        )
        return sources

    def _mutate_add_call(self, sources, rng, step):
        """Add a call edge from one single-int-arg function to another
        (guarded so existing runtime behavior is preserved)."""
        definitions = self._definitions(sources)
        callers = [
            (module, name, params.split()[1])
            for module, name, params in definitions
            if re.fullmatch(r"int \w+", params) and name != "main"
        ]
        callees = [
            name
            for _module, name, params in definitions
            if re.fullmatch(r"int \w+", params) and name != "main"
        ]
        if not callers or not callees:
            return None
        module, caller, param = rng.choice(callers)
        callee = rng.choice([c for c in callees if c != caller] or callees)
        statement = (
            f"  if ({param} > 999983) {{ {param} += {callee}({param}); }}"
        )
        text = self._ensure_extern_function(sources[module], callee)
        sources[module] = self._insert_into_body(text, caller, statement)
        return sources

    def _mutate_remove_call(self, sources, rng, step):
        """Remove one direct call site, keeping its argument expression
        (``x += f(e);`` becomes ``x += 0 + (e);``)."""
        defined = {name for _m, name, _p in self._definitions(sources)}
        sites = []
        for module, text in sorted(sources.items()):
            for match in re.finditer(r"\+= (\w+)\(", text):
                line_end = text.find("\n", match.start())
                line = text[match.start():line_end]
                if match.group(1) in defined and "," not in line:
                    sites.append((module, match.start(), match.group(1)))
        if not sites:
            return None
        module, position, callee = rng.choice(sites)
        text = sources[module]
        sources[module] = (
            text[:position]
            + text[position:].replace(f"+= {callee}(", "+= 0 + (", 1)
        )
        return sources

    def _mutate_take_address(self, sources, rng, step):
        """Take a procedure's address and call through the pointer —
        the shape change with the widest blast radius (every
        address-taken procedure becomes a conservative indirect-call
        target)."""
        definitions = self._definitions(sources)
        callers = [
            (module, name, params.split()[1])
            for module, name, params in definitions
            if re.fullmatch(r"int \w+", params) and name != "main"
        ]
        targets = [
            name
            for _module, name, params in definitions
            if re.fullmatch(r"int \w+", params) and name != "main"
        ]
        if not callers or not targets:
            return None
        module, caller, param = rng.choice(callers)
        target = rng.choice([t for t in targets if t != caller] or targets)
        pointer = f"pa{step}"
        statement = (
            f"  {{ int *{pointer} = &{target}; "
            f"{param} += {pointer}({param} & 7); }}"
        )
        text = self._ensure_extern_function(sources[module], target)
        sources[module] = self._insert_into_body(text, caller, statement)
        return sources

    def _mutate_toggle_global(self, sources, rng, step):
        """Reference a global the chosen function did not touch."""
        candidates = []
        for module, name, _params in self._definitions(sources):
            body = self._function_body(sources[module], name)
            for variable in self._visible_scalars(sources[module]):
                if not re.search(rf"\b{re.escape(variable)}\b", body):
                    candidates.append((module, name, variable))
        if not candidates:
            return None
        module, function, variable = rng.choice(candidates)
        sources[module] = self._insert_into_body(
            sources[module], function, f"  {variable} = {variable} + 1;"
        )
        return sources

    @staticmethod
    def _function_body(text: str, function: str) -> str:
        match = re.search(
            rf"^int {re.escape(function)}\([^)]*\) \{{$", text,
            re.MULTILINE,
        )
        if match is None:
            return ""
        end = text.find("\n}", match.end())
        return text[match.end(): end if end != -1 else len(text)]


def generate_fuzz_program(seed: int) -> dict:
    """Sources for one seeded fuzz program (``{module: text}``)."""
    return FuzzProgramGenerator(seed).generate()
