"""Volume-preserving vector fields on phase space generated from 2-forms.

The construction: a 2-form alpha on R^{2n} determines a divergence-free
vector field through the relation i_X(omega^n) = -n(n-1) d(alpha) ^
omega^{n-2}, with the canonical symplectic form omega.  Hamiltonian
dynamics is the special case alpha = H omega/(n-1).  The package pairs a
componentwise implementation of the construction with a dense
exterior-algebra oracle, flow integration, and verification suites for
the structural identities (volume preservation, gauge invariance, trace
and Poisson-bracket relations, injectivity lemmas).
"""

from .exterior import (
    KForm,
    PointwiseJet,
    basis_one_form,
    contract,
    d_at_point,
    dp_form,
    dq_form,
    nu_k,
    omega,
    omega_power,
    solve_nu_n,
    trace_of,
    two_form_from_components,
    verify_lemma1,
    verify_lemma2,
    verify_wedge_identities,
    wedge,
)
from .forms import (
    FieldEvaluationError,
    OneFormField,
    Polynomial,
    ScalarField,
    TwoFormField,
    gauge_shift,
    hamiltonian_two_form,
    linear_system_two_form,
    poly_variables,
    trace_field,
    traceless_part,
)
from .generator import (
    FengShangTensor,
    GeneratedField,
    decompose,
    feng_shang_field,
    feng_shang_from_alpha,
    generate,
    hamiltonian_field,
)
from .dynamics import (
    FlowDiagnostics,
    Trajectory,
    check_dotf,
    divergence_at,
    flow_jacobian_dets,
    gradient_one_form,
    integrate,
    lie_derivative_omega,
    monitor,
    poisson_bracket,
    poisson_trace_residual,
)
from .systems import (
    COUPLED_K,
    DRIFT_SIGN,
    LinearSystemSpec,
    SystemInstance,
    build_system,
    coupled_oscillators,
    drift_system,
    harmonic_oscillator,
    linear_system,
    random_alpha_system,
    random_one_form,
    random_polynomial,
    random_two_form,
    zero_system,
)
from .verify import TOLERANCES, SuiteResult, run_all

__version__ = "0.1.0"
