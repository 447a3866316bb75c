"""magpsido: gauge-covariant phase-space operators on truncated grids.

Assembles dense quantizations of frequency symbols twisted by a magnetic
segment phase, and verifies at desk scale the machinery behind eigenfunction
decay: weight conjugation and its remainder bounds, analytic frequency-shift
amplitude identities, contour spectral projectors, and the square-root
kinetic semigroup with its kernel and potential-smearing estimates.
"""
from .decay import (DecayFit, ShiftField, WeightFamily, amplitude_c_eps,
                    amplitude_d_eps, b_shift, conjugate_operator, decay_fit,
                    epsilon0_estimate, remainder_operator,
                    similarity_spectrum_defect, uniform_bound_sweep,
                    weight_taylor_identity_check)
from .gauge import (GaugeData, MagneticField, constant_field_2d, cos_field_2d,
                    field_from_id, gauge_transform, line_integral_A,
                    magnetic_phase, phase_table, transversal_gauge, zero_field)
from .harness import (ScenarioConfig, ScenarioReport, emit_report, run_scenario,
                      verify_suite)
from .mpdo import load_operator, save_operator
from .potentials import potential_from_id
from .quantize import (Grid, GridFunction, OperatorMatrix, fourier_mode,
                       hermitize, kernel_table, mag_derivative, op_amplitude,
                       op_ps, op_weyl, reduce_amplitude, sobolev_norm)
from .relativistic import (PotentialSpec, bessel_k, build_form_sum,
                           diamagnetic_check, kato_estimate, kato_scan,
                           kernel_pt, pointwise_bound_check, semigroup_checks)
from .spectral import (ContourProjector, EigenDecomposition, SpectralWindow,
                       discrete_spectrum_select, eig_hermitian, matrix_exp_neg,
                       relative_bound, resolvent_apply, riesz_projector)
from .symbols import (HormanderSymbol, SampleBox, cauchy_derivative_bound_check,
                      ellipticity_check, eval_analytic, kinetic_symbol,
                      p_s_symbol, relativistic_symbol, seminorm_estimate,
                      symbol_from_id)

__version__ = "0.1.0"


def backend():
    """Name of the array backend; numpy is the only one."""
    return "numpy"
