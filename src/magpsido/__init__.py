"""magpsido: gauge-covariant phase-space operators on truncated grids.

Assembles dense quantizations of frequency symbols twisted by a magnetic
segment phase, and verifies at desk scale the machinery behind eigenfunction
decay: weight conjugation, its transport of bound states and its remainder
bounds, analytic frequency-shift amplitude identities, and the square-root
kinetic semigroup with its kernel and potential-smearing estimates.

The supported entry points are the `magpsido` command line (`magpsido.cli`)
and the submodules, imported as `magpsido.<module>`; the package itself
exports nothing else.
"""
__version__ = "0.1.0"


def backend():
    """Name of the array backend; numpy is the only one."""
    return "numpy"
