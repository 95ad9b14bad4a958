"""Computational toolkit for Mersenne numbers and perfect numbers.

Implements the classical 1640-era machinery: multiplicative orders and
the power-residue theorem, the primitive parts of Mersenne numbers,
residue-class restrictions on candidate divisors, restricted trial
factoring, Euclid's perfect-number construction, and replays of the
historical computations with embedded expected values.
"""

import types as _types

from .factoring import (
    Factorization,
    FactorTrace,
    TraceStep,
    factor_mersenne,
    factor_nat,
    verify,
)
from .forms import (
    CandidateClass,
    euler_refined_class,
    generalized_class,
    primitive_class,
    qr2,
    sophie_germain_divisor,
    third_proposition_class,
)
from .kernel import digit_count, divisors, gcd, isqrt, modpow
from .mersenne import (
    OrderRecord,
    SweepRecord,
    divisibility_conjecture_check,
    exponent_progression,
    first_proposition_witness,
    flt_check,
    flt_sweep,
    is_mersenne_prime,
    order,
    second_proposition_check,
)
from .perfect import (
    ChallengeReport,
    ExponentVerdict,
    PerfectRecord,
    aliquot_sum,
    enumerate_even_perfect,
    euclid_perfect,
    frenicle_scan,
    is_perfect,
)
from .primes import is_prime, primes_in_classes, primes_up_to
from .render import format_factorization
from .replay import (
    ReplayItem,
    ReplayReport,
    replay_all,
    replay_m23_to_m36,
    replay_m31,
    replay_m37,
    replay_table1,
)

# Every public name imported above; the submodules are not exports.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]

__version__ = "0.1.0"
