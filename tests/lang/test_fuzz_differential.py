"""Differential fuzzing gate: seeded random programs must agree between
the reference interpreter and the lowered ISA program, across both
engine tiers, and under every optimization pass."""

from repro.lang.fuzz import differential_check, generate_program, run_fuzz


def test_fifty_programs_agree_across_tiers_and_passes():
    summary = run_fuzz(count=50, seed=20260808)
    assert summary["programs"] == 50
    assert summary["output_words"] > 0


def test_generator_is_deterministic():
    assert generate_program(7) == generate_program(7)
    assert generate_program(7) != generate_program(8)


def test_differential_check_summary_shape():
    source = generate_program(123)
    summary = differential_check(source, filename="<seed 123>")
    assert summary["interp_dynamic"] > 0
    assert summary["lowered_dynamic"] > 0
