"""Built-in reprolint rules: the repo's review-hardened invariants.

Each rule encodes an invariant that was established (usually after a
real bug) in an earlier PR and that nothing else enforces mechanically.
The rule docstrings name the motivating incident; README's "Static
analysis & invariants" section is the user-facing index.

Rules are deliberately scoped to the modules where their invariant
lives — REPRO001 does not care about float arrays in the energy model,
only in the counter kernels that must stay integer-exact.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from reprolint.dataflow import assigned_names
from reprolint.framework import Finding, Module, Rule, register_rule
from reprolint.project import ClassInfo, FunctionInfo, Project

#: Engine names the registry owns. String-comparing against these
#: outside the registry module is exactly the dispatch style PR 4
#: removed (REPRO004).
ENGINE_NAMES = frozenset({"fast", "reference", "finegrain", "auto"})

#: numpy float dtype spellings REPRO001 refuses in counter kernels.
_FLOAT_DTYPE_ATTRS = frozenset(
    {"float16", "float32", "float64", "float128", "double", "single", "half"}
)

#: ``np.random`` attributes that *are* seed-disciplined constructors;
#: everything else on the module is the process-global legacy RNG.
_SEEDED_RANDOM_API = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: stdlib ``random`` module functions that draw from the global RNG.
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
    }
)

#: Builtin exception types library code must not raise directly —
#: callers contract on ``repro.errors.ReproError`` (REPRO006).
#: TypeError/KeyError/IndexError/NotImplementedError stay allowed:
#: they are Python *protocol* errors (wrong argument type, mapping
#: lookup miss, abstract method), not library semantics.
_FORBIDDEN_RAISES = frozenset(
    {"Exception", "BaseException", "ValueError", "RuntimeError", "OSError", "IOError"}
)

#: Calls that produce *fresh* state — the RHS shapes REPRO008 treats as
#: "re-initialization" when assigned to a carry attribute per chunk.
_FRESH_STATE_CALLS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "array",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "arange",
        "dict",
        "list",
        "set",
    }
)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    return dotted_name(node.func)


def keyword(node: ast.Call, name: str) -> ast.keyword | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw
    return None


def has_double_star(node: ast.Call) -> bool:
    return any(kw.arg is None for kw in node.keywords)


def _is_float_dtype_value(node: ast.expr) -> bool:
    """Whether a ``dtype=`` value names a float dtype."""
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_DTYPE_ATTRS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith(("float", "f8", "f4", "f2", "<f", ">f"))
    return False


def _is_set_expr(node: ast.expr) -> bool:
    """Set display, set comprehension, or a ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and dotted_name(node.func) in (
        "set",
        "frozenset",
    )


def _identifiers(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


class _ScopedVisitorRule(Rule):
    """Rule implemented as a single-pass visitor over the module tree."""

    def check(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        self.visit(module, module.tree, findings)
        return findings

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        raise NotImplementedError


class IntegerCounterPurity(_ScopedVisitorRule):
    """REPRO001 — counter kernels stay integer-exact.

    Motivated by the PR 2 ``_per_line_sleep`` bug: a ``np.bincount``
    with ``weights=`` silently accumulates in float64, so cycle
    counters lost exactness past 2**53 and differential tests against
    the reference engine drifted. Counters are int64 end to end;
    derived rates belong in ``@property`` accessors.
    """

    rule_id = "REPRO001"
    title = "counter kernels must stay integer-exact (int64, no float math)"
    rationale = (
        "PR 2: float64 np.bincount(weights=...) in _per_line_sleep broke "
        "bit-identity; fixed with np.add.at on an int64 buffer"
    )
    scope = (
        "power/idleness.py",
        "core/fastsim.py",
        "core/streamsim.py",
        "cache/stats.py",
    )
    #: Kernel-only invariant: the default lint scope also walks
    #: benchmarks/ and tools/, where float math is fine by design.
    exclude = ("benchmarks/*", "tools/*")

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        property_spans: list[tuple[int, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(
                    dotted_name(d) in ("property", "cached_property", "functools.cached_property")
                    for d in node.decorator_list
                ):
                    property_spans.append((node.lineno, node.end_lineno or node.lineno))

        def in_property(node: ast.AST) -> bool:
            line = getattr(node, "lineno", 0)
            return any(start <= line <= end for start, end in property_spans)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name.endswith("bincount") and keyword(node, "weights") is not None:
                    out.append(
                        self.finding(
                            module,
                            node,
                            "np.bincount(weights=...) accumulates in float64; "
                            "counters must stay int64 (use np.add.at on an "
                            "integer buffer)",
                        )
                    )
                dtype = keyword(node, "dtype")
                if dtype is not None and _is_float_dtype_value(dtype.value):
                    out.append(
                        self.finding(
                            module,
                            node,
                            "float dtype in a counter kernel; counters are "
                            "integer-exact (int64)",
                        )
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if not in_property(node):
                    out.append(
                        self.finding(
                            module,
                            node,
                            "true division in a counter kernel; use // for "
                            "integer math, or move the derived rate into a "
                            "@property",
                        )
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                if not in_property(node):
                    out.append(
                        self.finding(
                            module,
                            node,
                            "in-place true division in a counter kernel; "
                            "counters are integer-exact",
                        )
                    )


class HashStableCodec(_ScopedVisitorRule):
    """REPRO002 — everything feeding a content hash is byte-stable.

    The campaign store keys records by the SHA-256 of canonical JSON;
    a ``json.dumps`` without the canonical kwargs, or a set iterated
    into a payload, makes equal configs hash differently across runs
    (set order is salted per process) and silently forks the store.
    """

    rule_id = "REPRO002"
    title = "codec payloads must be canonical: sorted keys, fixed separators, no NaN, no set iteration"
    rationale = (
        "PR 3: store identity is sha256(canonical_json(payload)); "
        "int/float normalization and key sorting were review findings"
    )
    scope = (
        "campaign/codec.py",
        "campaign/tracespec.py",
        "campaign/spec.py",
    )

    _HASH_SINKS = ("canonical_json", "content_hash", "config_hash", "sha256")

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name.endswith("json.dumps") or name == "dumps":
                if not has_double_star(node):
                    missing = [
                        wanted
                        for wanted in ("sort_keys", "separators", "allow_nan")
                        if keyword(node, wanted) is None
                    ]
                    if missing:
                        out.append(
                            self.finding(
                                module,
                                node,
                                "json.dumps in a codec module without "
                                f"{'/'.join(missing)}; hash-stable payloads "
                                "require sort_keys=True, explicit separators "
                                "and allow_nan=False",
                            )
                        )
            sink = name.rsplit(".", 1)[-1]
            if sink in self._HASH_SINKS or name in ("list", "tuple"):
                for arg in node.args:
                    if _is_set_expr(arg):
                        out.append(
                            self.finding(
                                module,
                                node,
                                "set iteration feeding a hashed payload; set "
                                "order is process-salted — sort first "
                                "(sorted(...))",
                            )
                        )


class AtomicWrites(Rule):
    """REPRO003 — result/meta JSON reaches disk atomically.

    A crash between ``open(path, "w")`` and the final flush leaves a
    truncated JSON file that poisons every later campaign resume. All
    persistent JSON goes through ``write_json_atomic`` (temp file +
    ``os.replace``); this rule's first self-run caught the
    ``meta.json`` write in ``save_trace_mmap``.

    Interprocedural (PR 9): a ``json.dump`` is in an atomic context
    when its enclosing function is ``write_json_atomic`` itself,
    performs the temp-file + ``os.replace`` idiom in its own body, or
    is a helper reached *only* from such functions — the per-module
    version flagged serialization helpers that write_json_atomic
    delegates to, and missed nothing it should have.
    """

    rule_id = "REPRO003"
    title = "persistent JSON must be written via write_json_atomic"
    rationale = (
        "PR 3/5: campaign records are resumable state; the non-atomic "
        "meta.json write in trace/stream.py was this rule's first catch"
    )
    scope = ("*.py",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        memo: dict[tuple[str, str], bool] = {}
        for module in project.modules:
            if not self.applies_to(module.rel_path):
                continue
            symbols = project.symbols[module.rel_path]
            spans = [
                (fn, fn.node.lineno, fn.node.end_lineno or fn.node.lineno)
                for fn in symbols.iter_functions()
            ]
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if not (name.endswith("json.dump") or name == "dump"):
                    continue
                enclosing = self._enclosing(spans, node.lineno)
                if enclosing is not None and self._atomic_context(
                    project, enclosing, memo, frozenset()
                ):
                    continue
                findings.append(
                    self.finding(
                        module,
                        node,
                        "direct json.dump to disk; route persistent JSON through "
                        "repro.core.serialize.write_json_atomic (temp file + "
                        "os.replace) so a crash can never truncate it",
                    )
                )
        return findings

    @staticmethod
    def _enclosing(
        spans: list[tuple[FunctionInfo, int, int]], line: int
    ) -> FunctionInfo | None:
        """Innermost known function whose span contains ``line``."""
        best: FunctionInfo | None = None
        best_size = 0
        for fn, start, end in spans:
            if start <= line <= end and (best is None or end - start < best_size):
                best, best_size = fn, end - start
        return best

    def _atomic_context(
        self,
        project: Project,
        function: FunctionInfo,
        memo: dict[tuple[str, str], bool],
        stack: frozenset[tuple[str, str]],
    ) -> bool:
        """Whether every path into ``function`` is an atomic write."""
        cached = memo.get(function.key)
        if cached is not None:
            return cached
        if function.key in stack:
            return False
        if function.name == "write_json_atomic" or self._replaces_in_place(function):
            memo[function.key] = True
            return True
        callers = project.callers(function)
        result = bool(callers) and all(
            self._atomic_context(project, caller, memo, stack | {function.key})
            for caller in callers
        )
        memo[function.key] = result
        return result

    @staticmethod
    def _replaces_in_place(function: FunctionInfo) -> bool:
        return any(
            isinstance(node, ast.Call)
            and call_name(node) in ("os.replace", "os.rename")
            for node in ast.walk(function.node)
        )


class RegistryDiscipline(_ScopedVisitorRule):
    """REPRO004 — dispatch on capabilities, not engine-name strings.

    PR 4 turned every ``engine == "fast"`` special case into a
    registry capability query (``supports()``, ``run_group``,
    ``supports_streaming``); a name comparison outside the registry
    module silently excludes third-party engines from whole code paths.
    """

    rule_id = "REPRO004"
    title = "no engine-name string comparisons outside the registry"
    rationale = (
        "PR 4: the sweep's breakeven fast path once keyed on the name "
        "'fast'; plugins with the same capability were skipped"
    )
    scope = ("*.py",)
    #: The registry itself resolves names; that is its job.
    exclude = ("core/engine.py",)

    @staticmethod
    def _engine_name_constants(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and node.value in ENGINE_NAMES
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(
                isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
                and elt.value in ENGINE_NAMES
                for elt in node.elts
            )
        return False

    @staticmethod
    def _mentions_engine(node: ast.expr) -> bool:
        return any("engine" in ident.lower() for ident in _identifiers(node))

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in node.ops
            ):
                continue
            operands = [node.left, *node.comparators]
            if not any(self._engine_name_constants(operand) for operand in operands):
                continue
            if not any(
                self._mentions_engine(operand)
                for operand in operands
                if not self._engine_name_constants(operand)
            ):
                continue
            out.append(
                self.finding(
                    module,
                    node,
                    "engine-name string comparison; dispatch through the "
                    "registry instead (resolve_engine / supports() / "
                    "result_family / supports_streaming)",
                )
            )


class SpawnSafeWorkers(_ScopedVisitorRule):
    """REPRO005 — process pools ship state via the initializer.

    Under the spawn start method (macOS/Windows default) workers
    inherit nothing: lambdas and closures fail to pickle, and module
    globals captured at fork time silently vanish. The sweep ships the
    trace, LUT and plugin registries through the pool initializer;
    anything submitted must be a top-level function.
    """

    rule_id = "REPRO005"
    title = "process-pool work must be spawn-safe (initializer-shipped state, no lambdas)"
    rationale = (
        "PR 2/4: the parallel sweep's trace and plugin registries "
        "travel via the pool initializer; spawn-mode plugin sweeps "
        "were a review catch"
    )
    scope = (
        "analysis/sweep.py",
        "campaign/run.py",
        "campaign/service/queue.py",
        "core/streamsim.py",
    )

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name.endswith("ProcessPoolExecutor"):
                if keyword(node, "initializer") is None and not has_double_star(node):
                    out.append(
                        self.finding(
                            module,
                            node,
                            "ProcessPoolExecutor without initializer=; shared "
                            "state (trace, LUT, plugin registries) must be "
                            "shipped to spawn-mode workers explicitly",
                        )
                    )
            elif name.rsplit(".", 1)[-1] in ("submit", "map") and "." in name:
                for arg in node.args[:1]:
                    if isinstance(arg, ast.Lambda):
                        out.append(
                            self.finding(
                                module,
                                node,
                                "lambda submitted to a process pool; lambdas "
                                "do not pickle under spawn — use a top-level "
                                "function",
                            )
                        )


class ExceptionPolicy(_ScopedVisitorRule):
    """REPRO006 — failures are loud and derive from ``repro.errors``.

    Callers contract on ``except ReproError``; a bare ``except`` or a
    raised builtin breaks that contract, and a silent ``pass`` handler
    hides corruption until a store or sweep is already wrong.
    """

    rule_id = "REPRO006"
    title = "no bare except / silent pass; library errors derive from repro.errors"
    rationale = (
        "errors.py: 'callers can catch library failures with a single "
        "except clause' — only true if nothing raises bare builtins"
    )
    scope = ("*.py",)

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    out.append(
                        self.finding(
                            module,
                            node,
                            "bare except: catches SystemExit/KeyboardInterrupt "
                            "too; name the exceptions you can actually handle",
                        )
                    )
                if (
                    len(node.body) == 1
                    and isinstance(node.body[0], ast.Pass)
                    and node.type is not None
                    and dotted_name(node.type) not in ("OSError", "KeyError")
                ):
                    # except OSError: pass around best-effort cleanup
                    # (e.g. unlinking a temp file) is the one sanctioned
                    # swallow; everything else must handle or re-raise.
                    out.append(
                        self.finding(
                            module,
                            node,
                            "exception silently swallowed (except ...: pass); "
                            "handle it, re-raise, or narrow to best-effort "
                            "cleanup (OSError)",
                        )
                    )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = (
                    call_name(exc) if isinstance(exc, ast.Call) else dotted_name(exc)
                )
                if name in _FORBIDDEN_RAISES:
                    out.append(
                        self.finding(
                            module,
                            node,
                            f"raise {name}: library errors must derive from "
                            "repro.errors.ReproError so callers can catch "
                            "them with one except clause",
                        )
                    )


class Determinism(_ScopedVisitorRule):
    """REPRO007 — library results never depend on wall clock or global RNG.

    Bit-identical reproduction is the repo's headline claim; randomness
    flows from profile/spec seeds through ``np.random.default_rng``,
    and nothing in library code reads the clock into a result.
    ``time.perf_counter`` stays allowed: it feeds progress display,
    never results.
    """

    rule_id = "REPRO007"
    title = "no wall-clock reads or unseeded global RNG in library code"
    rationale = (
        "trace/synthetic.py threads seeds end-to-end; a np.random.* "
        "module call would make campaigns unreproducible"
    )
    scope = ("*.py",)

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in ("time.time", "time.time_ns"):
                out.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() in library code; results must not depend "
                        "on the wall clock (time.perf_counter is fine for "
                        "progress display)",
                    )
                )
            elif name.startswith("datetime.") and name.rsplit(".", 1)[-1] in (
                "now",
                "utcnow",
                "today",
            ):
                out.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() in library code; timestamps are inputs, "
                        "not ambient state",
                    )
                )
            elif name in ("os.urandom", "uuid.uuid4", "secrets.token_hex"):
                out.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() is unseedable; identity and randomness "
                        "must flow from profile/spec seeds",
                    )
                )
            else:
                parts = name.split(".")
                if (
                    len(parts) >= 3
                    and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] not in _SEEDED_RANDOM_API
                ):
                    out.append(
                        self.finding(
                            module,
                            node,
                            f"{name}() uses numpy's process-global RNG; build "
                            "a Generator from a seed "
                            "(np.random.default_rng(seed))",
                        )
                    )
                elif (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _STDLIB_RANDOM_FNS
                ):
                    out.append(
                        self.finding(
                            module,
                            node,
                            f"{name}() draws from the stdlib global RNG; "
                            "randomness must flow from seeds",
                        )
                    )


class StreamingCarry(_ScopedVisitorRule):
    """REPRO008 — carry state survives the per-chunk path.

    The streaming engine's whole correctness story is that tracker and
    gap state established in ``__init__`` is *mutated* chunk by chunk;
    rebinding such an attribute to a fresh array/zero inside the
    per-chunk path resets the carry and the results silently diverge
    from the one-shot engines (only on multi-chunk inputs, which is
    exactly where tests are thinnest).
    """

    rule_id = "REPRO008"
    title = "carry-state attributes must not be re-initialized per chunk"
    rationale = (
        "PR 5: StreamingGapAccumulator / tracker stacks carry per-bank "
        "state across chunks; bit-identity to the one-shot kernels "
        "depends on it"
    )
    scope = ("core/streamsim.py", "power/idleness.py")
    #: Kernel-only invariant (see REPRO001's exclude).
    exclude = ("benchmarks/*", "tools/*")

    _PER_CHUNK_METHODS = frozenset(
        {"process", "process_chunk", "update", "add", "advance", "consume"}
    )

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            carry: set[str] = set()
            for method in cls.body:
                if (
                    isinstance(method, ast.FunctionDef)
                    and method.name == "__init__"
                ):
                    for node in ast.walk(method):
                        if isinstance(node, ast.Assign):
                            for target in node.targets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    carry.add(target.attr)
            if not carry:
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name not in self._PER_CHUNK_METHODS:
                    continue
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr in carry
                        ):
                            continue
                        if self._is_fresh_state(node.value):
                            out.append(
                                self.finding(
                                    module,
                                    node,
                                    f"carry attribute self.{target.attr} is "
                                    f"re-initialized inside {method.name}(); "
                                    "carry state must persist across chunks "
                                    "(mutate in place or derive from the "
                                    "previous value)",
                                )
                            )

    @staticmethod
    def _is_fresh_state(value: ast.expr) -> bool:
        if isinstance(value, ast.Constant):
            return True
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            return dotted_name(value.func).rsplit(".", 1)[-1] in _FRESH_STATE_CALLS
        return False


class KernelBackendEncapsulation(_ScopedVisitorRule):
    """REPRO009 — compiled kernel backends are private to the package.

    ``repro.kernels`` guarantees bit-identical results across its
    numpy and C backends *through the dispatch layer*: the public
    functions validate inputs, honor ``REPRO_KERNELS`` and the
    ``set_backend``/``use_backend`` overrides, and fall back when the
    compiled backend is unavailable. An import of ``_cext``/``_numpy``
    elsewhere bypasses all of that — it crashes on machines without a
    C compiler and silently pins one backend.
    """

    rule_id = "REPRO009"
    title = "no direct imports of compiled kernel backends outside repro.kernels"
    rationale = (
        "PR 7: the dispatch layer (repro.kernels) owns backend "
        "selection and fallback; a direct _cext import breaks "
        "numpy-only environments"
    )
    scope = ("*.py",)
    #: The package itself wires its backends together.
    exclude = ("kernels/*.py",)

    _PRIVATE_BACKENDS = frozenset({"_numpy", "_cext", "_ckernels"})

    def _is_private_kernel_module(self, dotted: str) -> bool:
        parts = dotted.split(".")
        if "kernels" not in parts:
            return False
        index = parts.index("kernels")
        return index + 1 < len(parts) and parts[index + 1] in self._PRIVATE_BACKENDS

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders = [
                    alias.name
                    for alias in node.names
                    if self._is_private_kernel_module(alias.name)
                ]
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if self._is_private_kernel_module(source):
                    offenders = [source]
                elif source.endswith("kernels") or source == "kernels":
                    offenders = [
                        f"{source}.{alias.name}"
                        for alias in node.names
                        if alias.name in self._PRIVATE_BACKENDS
                    ]
                else:
                    offenders = []
            else:
                continue
            for name in offenders:
                out.append(
                    self.finding(
                        module,
                        node,
                        f"direct import of private kernel backend {name}; go "
                        "through repro.kernels (the dispatch layer owns "
                        "backend selection, validation and numpy fallback)",
                    )
                )


class SqliteEncapsulation(_ScopedVisitorRule):
    """REPRO010 — SQLite connections are private to the campaign index.

    A ``sqlite3.Connection`` must never cross a process fork: a child
    inheriting the parent's handle corrupts SQLite's locking state, and
    the campaign work queue forks workers freely. The index module owns
    the one sanctioned ``connect`` site and hands out lazily created
    per-pid, per-thread connections; everything else goes through
    :class:`repro.campaign.service.index.CampaignIndex`.

    Interprocedural (PR 9): the index module itself must not leak
    either — a *public* function or method that returns a connection
    (directly, through an assignment chain, or by delegating to a
    helper that does) hands the fork-hostile handle to arbitrary
    callers, which is the same bug with extra steps.
    """

    rule_id = "REPRO010"
    title = "no sqlite3.connect outside campaign/service/index.py"
    rationale = (
        "PR 8: the work queue forks worker processes; a connection "
        "opened elsewhere and inherited across fork() corrupts the "
        "index database's locking state"
    )
    scope = ("*.py",)
    #: The index module is the one sanctioned connect site (but its
    #: public surface is still checked for escaping connections).
    exclude = ("campaign/service/index.py",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if self.applies_to(module.rel_path):
                self.visit(module, module.tree, findings)
            elif self._matches(module.rel_path, self.exclude):
                self._check_index_surface(project, module, findings)
        return findings

    def _check_index_surface(
        self, project: Project, module: Module, out: list[Finding]
    ) -> None:
        """Flag public index functions that return a connection."""
        symbols = project.symbols[module.rel_path]
        for fn in symbols.iter_functions():
            if fn.name.startswith("_"):
                continue
            if self._returns_connection(project, fn, frozenset()):
                out.append(
                    self.finding(
                        module,
                        fn.node,
                        f"{fn.qualname} returns a sqlite3 connection out of "
                        "the index module; handles are per-pid/per-thread "
                        "private state — expose an operation on the index, "
                        "not the connection",
                    )
                )

    def _returns_connection(
        self,
        project: Project,
        function: FunctionInfo,
        stack: frozenset[tuple[str, str]],
    ) -> bool:
        if function.key in stack:
            return False
        returns = function.node.returns
        if returns is not None:
            annotated = dotted_name(returns)
            if not annotated and isinstance(returns, ast.Constant):
                annotated = str(returns.value)
            if annotated.rsplit(".", 1)[-1] == "Connection":
                return True
        for call in function.dataflow.returned_calls():
            if call_name(call) in ("sqlite3.connect", "sqlite3.dbapi2.connect"):
                return True
            for callee in project.resolve_call(call, function):
                if self._returns_connection(
                    project, callee, stack | {function.key}
                ):
                    return True
        return False

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and call_name(node) in (
                "sqlite3.connect",
                "sqlite3.dbapi2.connect",
            ):
                out.append(
                    self.finding(
                        module,
                        node,
                        "direct sqlite3.connect; connections must not cross "
                        "process forks — go through "
                        "repro.campaign.service.index.CampaignIndex, which "
                        "opens per-pid, per-thread connections lazily",
                    )
                )
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "sqlite3",
                "sqlite3.dbapi2",
            ):
                for alias in node.names:
                    if alias.name in ("connect", "Connection"):
                        out.append(
                            self.finding(
                                module,
                                node,
                                f"from sqlite3 import {alias.name}; SQLite "
                                "access goes through repro.campaign.service."
                                "index.CampaignIndex (fork-safe connections)",
                            )
                        )


#: Constructors whose result is fork-hostile when stored in a module
#: global: the child either shares the parent's kernel state (files,
#: sockets, sqlite) or silently duplicates it (locks, RNG streams).
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore", "Barrier"}
)
_RNG_CTORS = frozenset({"default_rng", "Random", "RandomState"})
_QUEUE_CTORS = frozenset({"Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"})
_FILE_CTORS = frozenset({"NamedTemporaryFile", "TemporaryFile"})


class ForkSafety(Rule):
    """REPRO011 — no fork-hostile module globals in pool-worker code.

    ``drain_campaign`` forks worker processes. A module-global lock is
    cloned in a possibly-held state (instant deadlock), a global file
    handle or sqlite connection shares one file offset / locking state
    across every worker, and a global RNG instance hands each fork the
    same stream. State a worker needs must be created inside the
    worker or shipped through the pool initializer — that is exactly
    the ``_drain_state`` pattern in ``campaign/service/queue.py``.
    """

    rule_id = "REPRO011"
    title = "no fork-hostile module globals reachable from pool workers"
    rationale = (
        "PR 8: drain workers fork; module globals holding locks, "
        "handles, connections or RNGs are silently shared or "
        "duplicated across the fork boundary"
    )
    scope = ("*.py",)

    @staticmethod
    def _stateful_label(value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        head, _, _ = name.partition(".")
        tail = name.rsplit(".", 1)[-1]
        if tail in _LOCK_CTORS and (
            name == tail or head in ("threading", "multiprocessing")
        ):
            return "a synchronization primitive"
        if tail == "connect" and "sqlite" in name:
            return "a sqlite3 connection"
        if name == "open" or name in ("io.open", "os.fdopen", "gzip.open"):
            return "an open file handle"
        if tail in _FILE_CTORS:
            return "an open temporary file"
        if tail in _RNG_CTORS and (
            name == tail or head in ("np", "numpy", "random")
        ):
            return "an RNG instance"
        if tail in _QUEUE_CTORS and (
            name == tail or head in ("queue", "multiprocessing")
        ):
            return "an in-process queue"
        return None

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        worker_reach = project.service_reachable(kinds=("process",))
        if not worker_reach:
            return findings
        for module in project.modules:
            if not self.applies_to(module.rel_path):
                continue
            symbols = project.symbols[module.rel_path]
            for name in sorted(symbols.globals):
                label = self._stateful_label(symbols.globals[name])
                if label is None:
                    continue
                readers = [
                    reader
                    for reader in project.global_readers(module.rel_path, name)
                    if reader.key in worker_reach
                ]
                if not readers:
                    continue
                reader = min(readers, key=lambda f: (f.module.rel_path, f.qualname))
                findings.append(
                    self.finding(
                        module,
                        symbols.global_nodes[name],
                        f"module global {name} holds {label} and is read by "
                        f"pool-worker code ({reader.qualname}); state "
                        "inherited across fork() is silently shared or "
                        "stale — create it inside the worker or ship it "
                        "via the pool initializer",
                    )
                )
        return findings


class ThreadSharedMutation(Rule):
    """REPRO012 — thread-shared attributes are written under a lock.

    The service runs real threads: the drain loop, the work queue's
    heartbeat, and one HTTP handler per request. An attribute written
    both on a thread path and from ordinary code without either write
    holding the owning class's lock is a data race — exactly the
    ``CampaignService._active`` / ``_last_error`` shape PR 8 guards
    with ``self._lock``.
    """

    rule_id = "REPRO012"
    title = "attributes shared between thread and non-thread paths need the owner's lock"
    rationale = (
        "PR 8: the drain loop and HTTP handlers mutate service state "
        "concurrently; every shared write goes through self._lock"
    )
    scope = ("*.py",)

    _LOCK_CTOR_TAILS = frozenset({"Lock", "RLock", "Condition"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        owners: dict[int, tuple[ClassInfo, list[FunctionInfo]]] = {}
        for entry in project.entry_points():
            cls = entry.function.cls
            if entry.kind != "thread" or cls is None:
                continue
            owners.setdefault(id(cls), (cls, []))[1].append(entry.function)
        for cls, entry_methods in owners.values():
            if not self.applies_to(cls.module.rel_path):
                continue
            thread_keys = project.reachable_from(entry_methods)
            lock_attrs = self._lock_attrs(cls)
            lock_contexts = {f"self.{attr}" for attr in lock_attrs}
            writes: dict[str, list[tuple[ast.stmt, bool, FunctionInfo, bool]]] = {}

            def record(
                attr: str, stmt: ast.stmt, locked: bool, method: FunctionInfo
            ) -> None:
                writes.setdefault(attr, []).append(
                    (stmt, locked, method, method.key in thread_keys)
                )

            for method in cls.methods.values():
                if method.name == "__init__":
                    continue
                self._walk_writes(
                    method.node.body, False, lock_contexts, method, record
                )
            for attr in sorted(writes):
                if attr in lock_attrs:
                    continue
                unlocked_thread = [
                    w for w in writes[attr] if w[3] and not w[1]
                ]
                unlocked_other = [
                    w for w in writes[attr] if not w[3] and not w[1]
                ]
                if not (unlocked_thread and unlocked_other):
                    continue
                stmt, _, method, _ = unlocked_thread[0]
                _, _, other, _ = unlocked_other[0]
                findings.append(
                    self.finding(
                        cls.module,
                        stmt,
                        f"self.{attr} is written on the thread path "
                        f"({cls.name}.{method.name}, a thread/handler entry "
                        f"path) and from non-thread code ({cls.name}."
                        f"{other.name}, line {unlocked_other[0][0].lineno}) "
                        "with neither write holding a lock; guard both "
                        "sides with the class's lock",
                    )
                )
        return findings

    def _lock_attrs(self, cls: ClassInfo) -> set[str]:
        init = cls.methods.get("__init__")
        attrs: set[str] = set()
        if init is None:
            return attrs
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func).rsplit(".", 1)[-1]
                in self._LOCK_CTOR_TAILS
            ):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    def _walk_writes(
        self,
        stmts: Iterable[ast.stmt],
        locked: bool,
        lock_contexts: set[str],
        method: FunctionInfo,
        record: "object",
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs get their own story
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    dotted_name(item.context_expr) in lock_contexts
                    for item in stmt.items
                )
                self._walk_writes(stmt.body, holds, lock_contexts, method, record)
                continue
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value  # self.x[k] = v mutates self.x
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    record(base.attr, stmt, locked, method)  # type: ignore[operator]
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if inner:
                    self._walk_writes(inner, locked, lock_contexts, method, record)
            for handler in getattr(stmt, "handlers", None) or []:
                self._walk_writes(handler.body, locked, lock_contexts, method, record)


class ResourceHygiene(Rule):
    """REPRO013 — handles in service-reachable code cannot escape.

    Workers and handler threads run for the life of the service; a
    file handle that escapes ``with``/``try-finally`` there is not
    cleaned up "soon" by refcounting — it survives exceptions and
    accumulates until the process hits the descriptor limit mid-
    campaign. Ownership transfer (returning the handle) is the one
    sanctioned escape: the caller is then on the hook.
    """

    rule_id = "REPRO013"
    title = "open()/NamedTemporaryFile in service-reachable code must use with/try-finally"
    rationale = (
        "PR 8: the service is long-lived; leaked descriptors in worker "
        "or handler paths accumulate until open() itself fails"
    )
    scope = ("*.py",)

    _RESOURCE_NAMES = frozenset(
        {"open", "io.open", "os.fdopen", "gzip.open", "bz2.open", "lzma.open"}
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        reach = project.service_reachable()
        for function in project.iter_functions():
            if function.key not in reach:
                continue
            if not self.applies_to(function.module.rel_path):
                continue
            self._check_function(function, findings)
        return findings

    def _check_function(
        self, function: FunctionInfo, out: list[Finding]
    ) -> None:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(function.node):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if not (
                name in self._RESOURCE_NAMES
                or name.rsplit(".", 1)[-1] in _FILE_CTORS
            ):
                continue
            if self._managed(node, parents, function):
                continue
            out.append(
                self.finding(
                    function.module,
                    node,
                    f"{name}(...) escapes {function.qualname} without "
                    "with/try-finally; this code is reachable from a "
                    "service worker or handler thread, where a leaked "
                    "handle survives until process exit — use a context "
                    "manager (or return the handle to transfer ownership)",
                )
            )

    def _managed(
        self,
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
        function: FunctionInfo,
    ) -> bool:
        parent = parents.get(call)
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, ast.Return):
            return True  # ownership transferred to the caller
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and function.cls is not None
                    and any(
                        hook in function.cls.methods
                        for hook in ("close", "__exit__", "__del__")
                    )
                ):
                    return True  # instance owns it; its close() releases
            names = [
                name
                for target in parent.targets
                for name in assigned_names(target)
            ]
            for name in names:
                if self._used_as_context(function.node, name):
                    return True
                if self._closed_in_finally(function.node, name):
                    return True
                if self._returned(function, name):
                    return True
        return False

    @staticmethod
    def _used_as_context(func: ast.AST, name: str) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
                if isinstance(expr, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in expr.args
                ):
                    return True  # with contextlib.closing(handle):
        return False

    @staticmethod
    def _closed_in_finally(func: ast.AST, name: str) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and dotted_name(sub.func) == f"{name}.close"
                    ):
                        return True
        return False

    @staticmethod
    def _returned(function: FunctionInfo, name: str) -> bool:
        return any(
            isinstance(value, ast.Name) and value.id == name
            for value in function.dataflow.returns
        )


class ExportIntegrity(Rule):
    """REPRO014 — ``__all__`` stays truthful as surfaces move.

    Package ``__init__`` modules re-export aggressively (PR 4 made the
    registry surface importable from ``repro``); a symbol renamed in
    its home module but left in ``__all__`` breaks star-imports with a
    late AttributeError and quietly rots the documented surface. A
    module-level ``__getattr__`` counts as defining everything —
    ``repro.core`` lazy-loads exactly this way.
    """

    rule_id = "REPRO014"
    title = "__all__ names must be defined, unique, and re-exports must resolve"
    rationale = (
        "PR 4/8: the package surface is re-export-heavy; __all__ drift "
        "is invisible until a star-import or doc build fails"
    )
    scope = ("*.py",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for module in project.modules:
            if not self.applies_to(module.rel_path):
                continue
            symbols = project.symbols[module.rel_path]
            if symbols.all_names is None:
                continue
            node: ast.AST = symbols.all_node or module.tree
            seen: set[str] = set()
            for name in symbols.all_names:
                if name in seen:
                    findings.append(
                        self.finding(
                            module, node, f"duplicate name {name!r} in __all__"
                        )
                    )
                    continue
                seen.add(name)
                if not symbols.defines(name):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{name!r} is exported in __all__ but not defined "
                            "in the module (dead export)",
                        )
                    )
                    continue
                entry = symbols.imports.get(name)
                if entry is None:
                    continue
                source_dotted, original = entry
                if original is None:
                    continue
                source = project.resolve_module(source_dotted)
                if source is not None and not source.defines(original):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"re-export drift: __all__ exports {name!r} but "
                            f"{source_dotted} no longer defines {original!r}",
                        )
                    )
        return findings


class EstimatorIsolation(_ScopedVisitorRule):
    """REPRO015 — the estimate tier never touches the replay machinery.

    The whole point of ``repro.estimate`` is that its predictions come
    from closed-form arithmetic over trace *statistics* — if it could
    call into the replay simulators (``core/fastsim``,
    ``core/streamsim``) or the compiled counter kernels, an "estimate"
    could quietly become a disguised simulation and the fidelity tag on
    its records would stop meaning anything. The estimator reaches
    simulation results only through the engine registry (validation
    compares against them — via :mod:`repro.analysis.sweep`, which is
    fine: that *is* the simulate tier, honestly labeled).
    """

    rule_id = "REPRO015"
    title = "repro.estimate must not import replay internals (fastsim/streamsim/kernels)"
    rationale = (
        "PR 10: the estimate fidelity tier is closed-form by contract; "
        "importing the replay machinery would let a tagged estimate "
        "secretly replay the trace"
    )
    scope = ("estimate/*.py",)

    #: Module leaves of ``repro.core`` that constitute trace replay.
    _REPLAY_LEAVES = frozenset({"fastsim", "streamsim"})

    def _offending(self, dotted: str) -> bool:
        parts = dotted.split(".")
        if "kernels" in parts:
            return True
        return bool(self._REPLAY_LEAVES & set(parts))

    def visit(self, module: Module, tree: ast.AST, out: list[Finding]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders = [
                    alias.name
                    for alias in node.names
                    if self._offending(alias.name)
                ]
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if self._offending(source):
                    offenders = [source]
                else:
                    # `from repro.core import fastsim` and relative
                    # spellings (`from ..core import streamsim`).
                    offenders = [
                        f"{source}.{alias.name}" if source else alias.name
                        for alias in node.names
                        if self._offending(alias.name)
                    ]
            else:
                continue
            for name in offenders:
                out.append(
                    self.finding(
                        module,
                        node,
                        f"estimate tier imports replay machinery {name}; "
                        "the closed-form model must predict from trace "
                        "statistics only (REPRO015 keeps the fidelity "
                        "tag honest)",
                    )
                )


def _register_builtins() -> None:
    for rule_cls in (
        IntegerCounterPurity,
        HashStableCodec,
        AtomicWrites,
        RegistryDiscipline,
        SpawnSafeWorkers,
        ExceptionPolicy,
        Determinism,
        StreamingCarry,
        KernelBackendEncapsulation,
        SqliteEncapsulation,
        ForkSafety,
        ThreadSharedMutation,
        ResourceHygiene,
        ExportIntegrity,
        EstimatorIsolation,
    ):
        register_rule(rule_cls(), replace=True)


_register_builtins()
