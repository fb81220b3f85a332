"""The mutation checks as data: each mutant is a defect the tests must catch.

A mutant is one or more exact substitutions in one file under src/cpzsim:
each (old, new) pair replaces the only occurrence of old. `killed_by` names
tests, as pytest node ids, that fail once the mutant is applied; each was
seen failing on a mutated copy of the tree. An equivalent mutant changes no
result the tests can see, for the reason its `argument` gives; it is listed,
not run. tests/test_mutant_ledger.py checks that every old text is still in
its file exactly once and that every killing test is still collected, so a
refactor that moves mutated code or drops a killing test updates this file.
"""

MIMO, SCHEMES, SIM, FLOAT_TEXT = "mimo.py", "schemes.py", "sim.py", "_float_text.py"

MUTANTS = [
    # Placement.
    {"id": "radii_uniform_in_r", "file": SIM,
     "edits": [("    radii *= r_hi * r_hi - r_lo * r_lo\n"
                "    radii += r_lo * r_lo\n"
                "    np.sqrt(radii, out=radii)\n",
                "    radii *= r_hi - r_lo\n"
                "    radii += r_lo\n")],
     "killed_by": ["tests/test_expectation.py::test_scheme_means_match_closed_forms[3-18]",
                   "tests/test_expectation.py::test_scheme_means_match_closed_forms[10-18]"]},
    # Rates: M - K + 1 degrees of freedom in the scalar and the batch rate paths.
    {"id": "rates_m_minus_k_plus_1", "file": SCHEMES,
     "edits": [("per_ue_rate(budget.bandwidth, rho * (m_antennas - k_users))",
                "per_ue_rate(budget.bandwidth, rho * (m_antennas - k_users + 1))"),
               ("/ budget.noise_n0 * (m_antennas - k_users)",
                "/ budget.noise_n0 * (m_antennas - k_users + 1)")],
     "killed_by": ["tests/test_cli.py::test_seeded_output_digests[simulate]",
                   "tests/test_cli.py::test_emitted_bytes_on_fixed_placement[distance]"]},
    # Sums: the kernel's rows in angle order, and a compensated scalar sum.
    {"id": "row_sums_in_angle_order", "file": SCHEMES,
     "edits": [("edge_sums = _row_sums(edge_rates)",
                "edge_sums = _row_sums(np.take_along_axis(edge_rates, order, axis=1))"),
               ("sum_rate[mixed] = _row_sums(scheme_rates)",
                "sum_rate[mixed] = _row_sums(np.take_along_axis(scheme_rates, order[mixed],"
                " axis=1))")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_cli.py::test_seeded_output_digests[simulate]"]},
    {"id": "fsum_in_scalar_sum", "file": SCHEMES,
     "edits": [("    total = 0.0\n    for value in values:\n        total += value\n",
                "    total = math.fsum(values)\n")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_sums.py::test_sums_are_strict_left_folds",
                   "tests/test_sums.py::test_row_sums_match_sum_row_by_row"]},
    # CSV floats: Ryu's shortest digits.
    {"id": "ryu_no_vm_trailing_zeros", "file": FLOAT_TEXT,
     "edits": [("m_zero = vm_tz & (m * scale == vm)", "m_zero = vm_tz")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_no_ties_to_even", "file": FLOAT_TEXT,
     "edits": [("up = (last > 5) | ((last == 5) & ~(vr_tz & (r & 1 == 0)))", "up = last >= 5")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_vp_from_p_plus_t", "file": FLOAT_TEXT,
     "edits": [("low_mv + 2,", "low_mv + 1,")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_scientific_above_1e15", "file": FLOAT_TEXT,
     "edits": [("(decpt > 16)", "(decpt > 15)")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_vr_trailing_zeros_false", "file": FLOAT_TEXT,
     "edits": [("vr_tz = vr_tz & (rest == last * scale_last)", "vr_tz = vr_tz & False")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_vm_trailing_zeros_false", "file": FLOAT_TEXT,
     "edits": [("(r == vm) & ~(even & vm_tz)", "(r == vm) & ~(even & False)")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    # The Wishart trace: Bartlett's draws and the forward substitution.
    {"id": "bartlett_m_plus_1_degrees_of_freedom", "file": MIMO,
     "edits": [("shapes = m_antennas - np.arange(k_users)",
                "shapes = m_antennas + 1 - np.arange(k_users)")],
     "killed_by": ["tests/test_acceptance.py::test_c1_wishart_trace_convergence",
                   "tests/test_mimo.py::test_bartlett_traces_match_channel_traces[4-32-20000]",
                   "tests/test_cli.py::test_verify_stdout_is_pinned"]},
    {"id": "bartlett_no_sqrt2", "file": MIMO,
     "edits": [("    x /= np.sqrt(2.0)\n", "")],
     "killed_by": ["tests/test_acceptance.py::test_c1_wishart_trace_convergence",
                   "tests/test_mimo.py::test_bartlett_traces_match_channel_traces[10-200-2000]",
                   "tests/test_cli.py::test_verify_stdout_is_pinned"]},
    {"id": "substitution_products_folded_one_at_a_time", "file": MIMO,
     "edits": [("            first -= second\n            sum_re -= first\n",
                "            sum_re -= first\n            sum_re += second\n")],
     "killed_by": ["tests/test_mimo.py::test_monte_carlo_trace_equals_per_trial_oracle"
                   "[12-1099511627776-35]",
                   "tests/test_mimo.py::test_trial_i_factor_is_row_i_of_each_child_stream"]},
    # The certificates that spare eigvalsh.
    {"id": "trace_certificate_without_off_diagonal", "file": MIMO,
     "edits": [("trace_g = gammas.sum(axis=1) + np.square(normals).sum(axis=(1, 2)) / 2",
                "trace_g = gammas.sum(axis=1)")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_certificate_sends_exactly_the_blocks_over_half_the_limit"]},
    {"id": "trace_certificate_without_half", "file": MIMO,
     "edits": [("trace_g * traces <= SINGULAR_COND_LIMIT / 2",
                "trace_g * traces <= SINGULAR_COND_LIMIT")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_certificate_sends_exactly_the_blocks_over_half_the_limit"]},
    {"id": "zf_certificate_half_instead_of_eighth", "file": MIMO,
     "edits": [("trace_g * frobenius <= SINGULAR_COND_LIMIT / 8",
                "trace_g * frobenius <= SINGULAR_COND_LIMIT / 2")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_zf_certificate_sends_exactly_the_channels_over_an_eighth_of_the_limit"]},
    {"id": "zf_certificate_without_trace_guard", "file": MIMO,
     "edits": [("certified = (trace_g >= _MIN_CERTIFIED_TRACE\n                 and ",
                "certified = (")],
     "killed_by": ["tests/test_mimo.py::test_zf_certificate_leaves_a_tiny_trace_to_eigvalsh"]},
    {"id": "zf_certificate_without_residual", "file": MIMO,
     "edits": [("certified = float(np.vdot(residual, residual).real) <= 0.25",
                "certified = True")],
     "killed_by": ["tests/test_mimo.py::test_zf_rejects_singular_channel",
                   "tests/test_mimo.py::test_zf_beamformer_rejects_singular_grams_without_warning"
                   "[repeated_row]"]},
]

EQUIVALENT = [
    {"id": "ryu_no_vp_decrement", "file": FLOAT_TEXT,
     "edits": [("    vp -= low & ~even\n", "")],
     "argument": "changed none of 4 million random odd-mantissa doubles in the four"
                 " binades it touches (e2 < 0, q <= 1) when it was run"},
    {"id": "builtin_sum_in_scalar_sum", "file": SCHEMES,
     "edits": [("    total = 0.0\n    for value in values:\n        total += value\n",
                "    total = sum(values, 0.0)\n")],
     "argument": "equivalent only on Python 3.11 and earlier, where builtin sum adds floats"
                 " left to right; from 3.12 on it compensates, and"
                 " test_sums_are_strict_left_folds kills it"},
    {"id": "trace_certificate_strict", "file": MIMO,
     "edits": [("trace_g * traces <= SINGULAR_COND_LIMIT / 2",
                "trace_g * traces < SINGULAR_COND_LIMIT / 2")],
     "argument": "differs only where a product tr(G) tr(G^-1) equals SINGULAR_COND_LIMIT / 2"
                 " exactly, and such a Gram passes eigvalsh's rule either way"},
]
