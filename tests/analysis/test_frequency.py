"""Usage frequency and register-need estimation tests."""

from repro.analysis.frequency import (
    analyze_function_usage,
    block_weight,
    estimate_callee_saves_need,
)
from repro.ir import lower_source
from repro.opt import optimize_module
from tests.analysis.set_kernels import use_set_kernels


def usage_of(source, name="f", opt_level=0):
    module = lower_source(source, "m")
    if opt_level:
        optimize_module(module, opt_level)
    return analyze_function_usage(module.functions[name])


def test_block_weight_exponential():
    assert block_weight(0) == 1
    assert block_weight(1) == 10
    assert block_weight(2) == 100
    assert block_weight(99) == block_weight(6)  # capped


def test_global_refs_counted_with_loop_weight():
    usage = usage_of(
        """
        int g;
        int f(int n) {
          int i;
          g = 1;
          for (i = 0; i < n; i++) g = g + 1;
          return g;
        }
        """
    )
    # One store at depth 0, plus a load+store at depth 1, plus final load.
    assert usage.global_refs["g"] >= 21
    assert usage.global_stores["g"] >= 11


def test_call_frequency_weighted():
    usage = usage_of(
        """
        extern int h(int);
        int f(int n) {
          int i;
          int s = h(0);
          for (i = 0; i < n; i++) s += h(i);
          return s;
        }
        """
    )
    assert usage.calls["h"] == 11


def test_builtin_calls_not_counted():
    usage = usage_of("int f() { print(1); return 0; }")
    assert not usage.calls


def test_indirect_call_flags():
    usage = usage_of(
        """
        int h(int x) { return x; }
        int f() { int *p = &h; return p(1); }
        """
    )
    assert usage.makes_indirect_calls
    assert usage.indirect_call_freq >= 1
    assert usage.address_taken_functions == {"h"}


def test_leaf_needs_no_callee_saves():
    usage = usage_of("int f(int a, int b) { return a * b + 1; }")
    assert usage.callee_saves_needed == 0


def test_value_live_across_call_needs_callee_saves():
    usage = usage_of(
        """
        extern int h(int);
        int f(int a) {
          int x = a * 3;
          int y = h(a);
          return x + y;
        }
        """,
        opt_level=1,
    )
    assert usage.callee_saves_needed >= 1


def test_many_values_across_call_need_many_registers():
    source_parts = ["extern int h(int);", "int f(int a) {"]
    for i in range(6):
        source_parts.append(f"  int x{i} = a * {i + 2};")
    source_parts.append("  int y = h(a);")
    total = " + ".join(f"x{i}" for i in range(6))
    source_parts.append(f"  return y + {total};")
    source_parts.append("}")
    usage = usage_of("\n".join(source_parts), opt_level=1)
    assert usage.callee_saves_needed >= 6


def test_single_liveness_solve_per_function(monkeypatch):
    """``analyze_function_usage`` solves liveness once and threads the
    result (plus the pre-walked instruction tuples) into both register
    estimates — regression for the hot path that used to re-solve the
    fixpoint three times per function."""
    import repro.analysis.frequency as frequency

    calls = []
    real = frequency.compute_ir_liveness
    monkeypatch.setattr(
        frequency,
        "compute_ir_liveness",
        lambda function: (calls.append(function), real(function))[1],
    )
    module = lower_source(
        """
        int g;
        int f(int n) {
          int s = 0;
          int i;
          for (i = 0; i < n; i++) { s += other(i); g = s; }
          return s;
        }
        int other(int x) { return x + 1; }
        """,
        "m",
    )
    analyze_function_usage(module.functions["f"])
    assert len(calls) == 1


def test_estimates_identical_across_kernels(monkeypatch):
    """Packed bitmask peaks equal the set-based oracle's cardinality
    peaks."""
    source = """
        int g;
        int h;
        int f(int n) {
          int a = n + 1;
          int b = n + 2;
          int c = other(a);
          g = a + b + c;
          h = other(b) + other(c);
          return g + h;
        }
        int other(int x) { return x * 2; }
    """

    def estimates():
        usage = analyze_function_usage(
            lower_source(source, "m").functions["f"]
        )
        return (
            usage.callee_saves_needed,
            usage.caller_saves_needed,
            dict(usage.global_refs),
        )

    packed = estimates()
    with monkeypatch.context() as patch:
        use_set_kernels(patch)
        oracle = estimates()
    assert packed == oracle
    assert packed[1] > 0  # values do live across those calls
