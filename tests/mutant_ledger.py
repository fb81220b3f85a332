"""The mutation checks as data: each mutant is a defect the tests must catch.

A mutant is one or more exact substitutions in one file under src/cpzsim:
each (old, new) pair replaces the only occurrence of old. `killed_by` names
tests, as pytest node ids, that fail once the mutant is applied; each was
seen failing on a mutated copy of the tree. An equivalent mutant changes no
result the tests can see, for the reason its `argument` gives; it is listed,
not run. tests/test_mutant_ledger.py checks that every old text is still in
its file exactly once and that every killing test is still collected, so a
refactor that moves mutated code or drops a killing test updates this file.
A mutant moved to the code that now does its work keeps its id, and a mutant
of a path that is gone goes with it.
"""

MIMO, SCHEMES, SIM, FLOAT_TEXT = "mimo.py", "schemes.py", "sim.py", "_float_text.py"
PARTITION, PROPAGATION, RECORD = "partition.py", "propagation.py", "_record.py"

# A partition's plan is cached, its total never.
CACHED_PLAN = ("            full, fractions, ring, n_regions = partitions[key]\n"
               "            plans.append((full * (fractions / each.n_sectors), ring, n_regions))\n")
CACHED_TOTAL = ("            if len(partitions[key]) == 4:\n"
                "                full, fractions, ring, n_regions = partitions[key]\n"
                "                partitions[key] = full * (fractions / each.n_sectors), ring, n_regions\n"
                "            plans.append(partitions[key])\n")

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
    # The paper's model: zoom radii, cpz's angular fraction and lognormal shadowing.
    {"id": "zoom_radius_half_an_annulus_out", "file": PARTITION,
     "edits": [("(annulus + 1) * self.cell_radius / self.n_annuli",
                "(annulus + 1.5) * self.cell_radius / self.n_annuli")],
     "killed_by": ["tests/test_partition.py::test_annulus_boundaries",
                   "tests/test_schemes.py::test_zooming_middle_annulus",
                   "tests/test_expectation.py::test_scheme_means_match_closed_forms[10-18]"]},
    {"id": "cpz_fraction_over_one_sector_more", "file": SCHEMES,
     "edits": [("full * (fractions / each.n_sectors)",
                "full * (fractions / (each.n_sectors + 1))")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_schemes.py::test_cpz_single_ue_is_one_sector_fraction",
                   "tests/test_schemes.py::test_cpz_additive_over_sectors",
                   "tests/test_expectation.py::test_scheme_means_match_closed_forms[10-18]"]},
    {"id": "cpz_power_one_percent_high", "file": SCHEMES,
     "edits": [("sized = _ring_powers(size, tops.ravel())",
                "sized = 1.01 * _ring_powers(size, tops.ravel())")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_readme_results.py::"
                   "test_readme_results_match_a_seeded_run_and_the_closed_forms"]},
    {"id": "lognormal_sigma_over_20", "file": PROPAGATION,
     "edits": [("self.sigma_db / 10.0 * gauss", "self.sigma_db / 20.0 * gauss")],
     "killed_by": ["tests/test_propagation.py::test_lognormal_shadowing_statistics",
                   "tests/test_sim.py::"
                   "test_placement_and_shadowing_independent_under_default_seeds"]},
    {"id": "box_muller_minus_one", "file": PROPAGATION,
     "edits": [("np.sqrt(-2.0 * libm(math.log1p", "np.sqrt(-1.0 * libm(math.log1p")],
     "killed_by": ["tests/test_propagation.py::test_lognormal_shadowing_statistics",
                   "tests/test_sim.py::"
                   "test_placement_and_shadowing_independent_under_default_seeds"]},
    # The link budget: the near-field bound and the sizing's rejection of NaN.
    {"id": "snr_rho_near_field_inclusive", "file": PROPAGATION,
     "edits": [("if r < budget.r0:", "if r <= budget.r0:")],
     "killed_by": ["tests/test_propagation.py::test_received_power_at_reference_distance",
                   "tests/test_propagation.py::test_snr_unit_point"]},
    {"id": "sizing_ignores_path_gain_g", "file": PROPAGATION,
     "edits": [("power = rho_req * k_users * budget.noise_n0 * path_loss / budget.path_gain_g",
                "power = rho_req * k_users * budget.noise_n0 * path_loss")],
     "killed_by": ["tests/test_metamorphic.py::test_power_is_inverse_in_path_gain_g[3-unit]",
                   "tests/test_metamorphic.py::test_power_is_inverse_in_path_gain_g[-4-lognormal]",
                   "tests/test_propagation.py::"
                   "test_required_power_rejects_zero_or_infinite_power[1e-09-1e+300-0.0]"]},
    {"id": "sizing_lets_nan_through", "file": PROPAGATION,
     "edits": [("if not 0.0 < power < math.inf:", "if power in (0.0, math.inf):")],
     "killed_by": ["tests/test_propagation.py::test_required_power_rejects_nan_power",
                   "tests/test_cli.py::"
                   "test_simulate_unsizable_target_or_infinite_ee_exits_2[doc6-power of nan W]"]},
    # Rates: M - K + 1 degrees of freedom in the kernel's rate stage.
    {"id": "rates_m_minus_k_plus_1", "file": SCHEMES,
     "edits": [("/ budget.noise_n0 * (m_antennas - k_users)",
                "/ budget.noise_n0 * (m_antennas - k_users + 1)")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_cli.py::test_seeded_output_digests[simulate]",
                   "tests/test_cli.py::test_emitted_bytes_on_fixed_placement[distance]"]},
    # A user keeps its own place: cpz serves it out to its own sector's ring, not
    # the trial's farthest, and it is faded by its own psi, not the first user's.
    {"id": "cpz_region_serves_every_user", "file": SCHEMES,
     "edits": [("_row_sums(sized.T), ring,",
                "_row_sums(sized.T), np.broadcast_to(tops.max(axis=0)[:, None], ring.shape),")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_cli.py::test_seeded_output_digests[simulate]"]},
    {"id": "cpz_ranks_left_in_angle_order", "file": SCHEMES,
     "edits": [("cells.reshape(-1)[flat] = (starts - starts[:, :1]) * len(rb) + rows",
                "cells[:] = (starts - starts[:, :1]) * len(rb) + rows")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_kernel.py::test_cpz_plan_scatters_rings_back_to_user_order[6-7]",
                   "tests/test_cli.py::test_seeded_output_digests[simulate]"]},
    {"id": "oracle_psi_of_first_user", "file": SCHEMES,
     "edits": [("return faded if psi is None else faded * psi",
                "return faded if psi is None else faded * psi[:, :1]")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_metamorphic.py::"
                   "test_permuting_the_users_of_a_trial_moves_only_sum_rate_rounding"
                   "[counts0-lognormal]",
                   "tests/test_cli.py::test_seeded_output_digests[sweep_sectors]"]},
    # Grids share a cpz plan only where their sectors split the users alike, and
    # never share a total: each count divides the shared fraction sum itself.
    {"id": "cpz_plan_shared_by_unlike_partitions", "file": SCHEMES,
     "edits": [("if (key := first.tobytes()) not in partitions:",
                'if (key := b"") not in partitions:')],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_kernel.py::test_shared_cpz_plan_equals_each_grid_alone[blocks]",
                   "tests/test_kernel.py::test_shared_cpz_plan_equals_each_grid_alone[apart]"]},
    {"id": "cpz_total_cached_per_partition", "file": SCHEMES,
     "edits": [(CACHED_PLAN, CACHED_TOTAL)],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_kernel.py::test_shared_cpz_plan_equals_each_grid_alone[blocks]",
                   "tests/test_kernel.py::test_shared_cpz_plan_equals_each_grid_alone[apart]",
                   "tests/test_cli.py::test_seeded_output_digests[sweep_sectors]"]},
    # Sums: the kernel's rows in angle order, and a correctly rounded row sum.
    {"id": "row_sums_in_angle_order", "file": SCHEMES,
     "edits": [("edge_sums = _row_sums(edge_rates)",
                "edge_sums = _row_sums(np.take_along_axis(edge_rates, np.argsort(phib, axis=1),"
                " axis=1))"),
               ("sum_rate = _row_sums(scheme_rates)",
                "sum_rate = _row_sums(np.take_along_axis(scheme_rates, np.argsort(phib, axis=1),"
                " axis=1))")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_cli.py::test_seeded_output_digests[simulate]"]},
    {"id": "fsum_in_scalar_sum", "file": SCHEMES,
     "edits": [("        for column in x.T:\n            total += column\n",
                "        total = np.array([math.fsum(row) for row in x.tolist()])\n")],
     "killed_by": ["tests/test_kernel.py::test_kernel_matches_scalar_oracle",
                   "tests/test_sums.py::test_sums_are_strict_left_folds",
                   "tests/test_sums.py::test_row_sums_match_sum_row_by_row"]},
    # The kernel's sizing and budget guard: new annuli sized in ascending order,
    # and the first total over budget reported in trial-major order.
    {"id": "sizing_descending", "file": SCHEMES,
     "edits": [("[size(a) if a >= 0 else 0.0 for a in distinct.tolist()]",
                "[size(a) if a >= 0 else 0.0 for a in distinct.tolist()[::-1]][::-1]")],
     "killed_by": ["tests/test_kernel.py::test_kernel_sizes_each_annulus_once_in_ascending_order"]},
    {"id": "guard_scheme_major", "file": SCHEMES,
     "edits": [("t, k = np.argwhere(over.T)[0]", "k, t = np.argwhere(over)[0]")],
     "killed_by": ["tests/test_kernel.py::"
                   "test_kernel_guard_reports_first_trial_in_trial_major_order"]},
    # CSV text passes: pieces keyed by (array, chunk), and at most _CSV_PASS floats.
    # Keyed by array alone, a later chunk's piece replaces the first's in the
    # pass, and every chunk of the pass reads that one piece's texts.
    {"id": "text_pass_pieces_keyed_by_array_only", "file": SIM,
     "edits": [("own = {(id(field), start): field[chunk]", "own = {id(field): field[chunk]"),
               ("index[starts[id(field), chunk.start]:]", "index[starts[id(field)]:]")],
     "killed_by": ["tests/test_sim.py::test_sweep_csv_bytes_do_not_depend_on_chunk_or_pass_size",
                   "tests/test_sim.py::test_csv_matches_row_formula_at_chunk_boundaries[1]"]},
    {"id": "text_pass_uncapped", "file": SIM,
     "edits": [("_CSV_PASS = 32 * 1024", "_CSV_PASS = 1 << 60")],
     "killed_by": ["tests/test_sim.py::"
                   "test_csv_writer_memory_does_not_grow_with_the_sweep_values"]},
    # CSV floats: Ryu's tables, filled per exponent on first use, and its shortest digits.
    {"id": "ryu_fill_marks_without_writing", "file": FLOAT_TEXT,
     "edits": [("        _LIMBS[:, b] = [m >> _LIMB * j & _MASK for j in range(5)]\n"
                "        _SHIFT[b], _E10[b], _Q[b] = shift - 4 * _LIMB, e10, q\n", "")],
     "killed_by": ["tests/test_float_text.py::test_lazy_columns_equal_an_eager_fill",
                   "tests/test_float_text.py::"
                   "test_every_exponent_matches_repr_in_any_batch_order[shuffled]",
                   "tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_no_vm_trailing_zeros", "file": FLOAT_TEXT,
     "edits": [("m_zero = vm_tz & (m * scale == vm)", "m_zero = vm_tz")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_no_ties_to_even", "file": FLOAT_TEXT,
     "edits": [("up = (last > 5) | ((last == 5) & ~(vr_tz & (r & 1 == 0)))", "up = last >= 5")],
     "killed_by": ["tests/test_float_text.py::test_fixed_sets_match_repr"]},
    {"id": "ryu_vp_from_p_plus_t", "file": FLOAT_TEXT,
     "edits": [("        col[1] += t\n        col[2] -= t\n", "        col[2] -= t\n")],
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
    # Digits nine at a time as int32: a 19-digit value's high part is 10 digits.
    {"id": "digit_rows_high_part_int32", "file": FLOAT_TEXT,
     "edits": [("high = x // 10 ** 9 if", "high = (x // 10 ** 9).astype(np.int32) if")],
     "killed_by": ["tests/test_float_text.py::"
                   "test_int_texts_and_digit_rows_match_str_at_every_width[19]"]},
    # The Wishart trace: Bartlett's draws and the forward substitution.
    {"id": "bartlett_m_plus_1_degrees_of_freedom", "file": MIMO,
     "edits": [("shapes = m_antennas - np.arange(k_users)",
                "shapes = m_antennas + 1 - np.arange(k_users)")],
     "killed_by": ["tests/test_acceptance.py::test_c1_wishart_trace_convergence",
                   "tests/test_mimo.py::test_bartlett_traces_match_channel_traces[4-32-20000]",
                   "tests/test_cli.py::test_verify_stdout_is_pinned"]},
    {"id": "bartlett_no_sqrt2", "file": MIMO,
     "edits": [("np.sqrt(2.0), out=x[:, :i, i])", "1.0, out=x[:, :i, i])")],
     "killed_by": ["tests/test_acceptance.py::test_c1_wishart_trace_convergence",
                   "tests/test_mimo.py::test_bartlett_traces_match_channel_traces[10-200-2000]",
                   "tests/test_cli.py::test_verify_stdout_is_pinned"]},
    {"id": "x_uncleared_between_blocks", "file": MIMO,
     "edits": [("        x.fill(0.0)  # each sum below the diagonal starts from zero\n", "")],
     "killed_by": ["tests/test_mimo.py::test_monte_carlo_trace_is_independent_of_block_size[16]",
                   "tests/test_mimo.py::test_monte_carlo_trace_equals_per_trial_oracle"
                   "[12-1099511627776-block+1]",
                   "tests/test_mimo.py::test_monte_carlo_trace_equals_per_trial_oracle"
                   "[6-11-2block+3]"]},
    {"id": "substitution_products_folded_one_at_a_time", "file": MIMO,
     "edits": [("            first -= second\n            sum_re -= first\n",
                "            sum_re -= first\n            sum_re += second\n")],
     "killed_by": ["tests/test_mimo.py::test_monte_carlo_trace_equals_per_trial_oracle"
                   "[12-1099511627776-35]",
                   "tests/test_mimo.py::test_trial_i_factor_is_row_i_of_each_child_stream"]},
    # verify's channel stacks: bounded in bytes, so a large shape comes a few channels at a time.
    {"id": "channel_stacks_unbounded", "file": MIMO,
     "edits": [("per_stack = max(1, _STACK_BYTES // (16 * k_users * m_antennas))",
                "per_stack = max(1, n)")],
     "killed_by": ["tests/test_mimo.py::test_channel_stacks_are_n_channel_draws[0]",
                   "tests/test_cli.py::test_verify_runs_eigvalsh_only_for_the_common_sinr"]},
    # The ZF core on a stack: each channel's ||W||_F^2 and residual are its own.
    {"id": "zf_norm_pooled_over_stack", "file": MIMO,
     "edits": [("np.array([np.vdot(a, a).real for a in x.reshape(-1, *x.shape[-2:])])",
                "np.array([np.vdot(x, x).real for a in x.reshape(-1, *x.shape[-2:])])")],
     "killed_by": ["tests/test_mimo.py::test_zero_forcing_stack_equals_each_channel_alone[0]",
                   "tests/test_cli.py::test_verify_stdout_is_pinned"]},
    # The certificates that spare eigvalsh.
    {"id": "trace_certificate_without_off_diagonal", "file": MIMO,
     "edits": [('trace_g = gammas.sum(axis=1) + np.einsum("tcb,tcb->t", normals, normals) / 2',
                "trace_g = gammas.sum(axis=1)")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_certificate_sends_exactly_the_blocks_over_half_the_limit"]},
    # _certified: the Weyl margin / 2, the residual branch's factor 4 and its
    # residual bound, the trace floor, and all of a block's Grams.
    {"id": "trace_certificate_without_half", "file": MIMO,
     "edits": [("bound = SINGULAR_COND_LIMIT / 2", "bound = SINGULAR_COND_LIMIT")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_certificate_sends_exactly_the_blocks_over_half_the_limit",
                   "tests/test_mimo.py::"
                   "test_zf_certificate_sends_exactly_the_channels_over_an_eighth_of_the_limit"]},
    # The residual branch without its factor 4.
    {"id": "zf_certificate_half_instead_of_eighth", "file": MIMO,
     "edits": [("        bound /= 4\n", "")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_zf_certificate_sends_exactly_the_channels_over_an_eighth_of_the_limit"]},
    {"id": "zf_certificate_without_trace_guard", "file": MIMO,
     "edits": [("certified = trace_g >= _MIN_CERTIFIED_TRACE", "certified = True")],
     "killed_by": ["tests/test_mimo.py::test_zf_certificate_leaves_a_tiny_trace_to_eigvalsh",
                   "tests/test_mimo.py::test_factor_traces_leave_a_tiny_trace_to_eigvalsh"]},
    {"id": "zf_certificate_without_residual", "file": MIMO,
     "edits": [("certified = certified & (residual_sq <= 0.25)", "certified = certified")],
     "killed_by": ["tests/test_mimo.py::test_zf_rejects_singular_channel",
                   "tests/test_mimo.py::test_zf_beamformer_rejects_singular_grams_without_warning"
                   "[repeated_row]",
                   "tests/test_mimo.py::test_certificate_needs_a_residual_within_a_half[0.01]"]},
    {"id": "residual_bound_one", "file": MIMO,
     "edits": [("residual_sq <= 0.25", "residual_sq <= 1.0")],
     "killed_by": ["tests/test_mimo.py::test_certificate_needs_a_residual_within_a_half[0.01]",
                   "tests/test_mimo.py::test_certificate_needs_a_residual_within_a_half[0.03]"]},
    {"id": "residual_or_instead_of_and", "file": MIMO,
     "edits": [("certified & (residual_sq", "certified | (residual_sq")],
     "killed_by": ["tests/test_mimo.py::test_zf_rejects_singular_channel",
                   "tests/test_mimo.py::test_zf_certificate_leaves_a_tiny_trace_to_eigvalsh",
                   "tests/test_mimo.py::test_certificate_needs_a_residual_within_a_half[0.01]"]},
    {"id": "block_certified_by_any_gram", "file": MIMO,
     "edits": [("np.all(certified", "np.any(certified")],
     "killed_by": ["tests/test_mimo.py::"
                   "test_certificate_sends_exactly_the_blocks_over_half_the_limit",
                   "tests/test_mimo.py::test_monte_carlo_trace_singular_trial_in_later_block"]},
    # Record: equality within one class only, and no assignment after __init__.
    {"id": "record_eq_across_classes", "file": RECORD,
     "edits": [("        if other.__class__ is not self.__class__:\n"
                "            return NotImplemented\n", "")],
     "killed_by": ["tests/test_sim.py::test_records_with_equal_fields_of_different_classes_differ",
                   "tests/test_partition.py::test_grid_repr_equality_and_hash_are_by_value"]},
    {"id": "record_setattr_assigns", "file": RECORD,
     "edits": [('raise FrozenInstanceError(f"cannot assign to field {name!r}")',
                "object.__setattr__(self, name, value)")],
     "killed_by": ["tests/test_partition.py::test_grid_is_frozen[cell_radius-assign to]",
                   "tests/test_partition.py::test_grid_is_frozen[extra-assign to]"]},
]

EQUIVALENT = [
    {"id": "ryu_no_vp_decrement", "file": FLOAT_TEXT,
     "edits": [("    vp -= low & ~even\n", "")],
     "argument": "changed none of 4 million random odd-mantissa doubles in the four"
                 " binades it touches (e2 < 0, q <= 1) when it was run"},
    {"id": "builtin_sum_in_scalar_sum", "file": SCHEMES,
     "edits": [("        for column in x.T:\n            total += column\n",
                "        total = sum(x.T, total)\n")],
     "argument": "builtin sum adds the columns left to right with ndarray addition on every"
                 " Python version: its compensated float path, from 3.12 on, takes only"
                 " a Python float as the running total"},
    {"id": "trace_certificate_strict", "file": MIMO,
     "edits": [("trace_g * inverse_trace <= bound", "trace_g * inverse_trace < bound")],
     "argument": "differs only where a product tr(G) tr(G^-1), or tr(G) ||W||_F^2, equals"
                 " its bound exactly, and such a Gram passes eigvalsh's rule either way"},
]
