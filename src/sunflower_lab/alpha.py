"""The pairwise-equal-intersection probability, bound evaluators, and checkers.

``alpha_exact`` is the exact probability that r independent uniform draws
(with replacement) from a family have pairwise equal intersections; the
Monte-Carlo twin is chunk-seeded so its output depends only on (seed, trials),
never on scheduling.  ``evaluate_bound`` computes every catalogued closed-form
bound in exact big-integer / rational arithmetic; the two bounds that divide
by e carry a certified rational enclosure instead of a float.  A bound whose
exact value would need more than :data:`BOUND_BIT_CAP` bits is refused, and
each power, factorial and binomial is sized before it is built, so a refused
bound costs next to nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple, Optional

from .dimensions import ShatterTree, ls_dimension, sauer_shelah_capacity, vc_dimension
from .errors import EmptyFamilyError, ParameterError
from .family import (
    LambdaResult,
    PackingResult,
    SetFamily,
    Sunflower,
    TransversalResult,
    count_sunflower_tuples,
    find_sunflower,
    lambda_number,
    packing_number,
    popular_element,
    transversal_number,
)
from .rng import seeded_rng

# certified enclosure of 1/e, used wherever a bound divides by e
INV_E_LO = Fraction("0.36787944117144232")
INV_E_HI = Fraction("0.36787944117144233")

_MC_CHUNK = 4096

# Largest bit length of a bound's exact numerator or denominator: at most
# 19,729 decimal digits, which print in milliseconds.
BOUND_BIT_CAP = 1 << 16


class AlphaEstimate(NamedTuple):
    """Sampled value of the pairwise-equal-intersection probability."""

    r: int
    m: int
    estimate: float
    trials: int
    seed: int


def alpha_exact(family: SetFamily, r: int, budget: int | None = None) -> Fraction:
    """Exact probability that r uniform with-replacement draws have pairwise
    equal intersections: the sunflower tuple count over m^r.  An m^r past
    :data:`BOUND_BIT_CAP` bits is refused before anything is counted."""
    if family.m == 0:
        raise EmptyFamilyError("alpha_exact needs a nonempty family")
    of = "alpha's denominator m^r"
    draws = _pow(family.m, r, of)
    _capped(draws.bit_length(), of)  # _pow refuses by a lower estimate only
    return Fraction(count_sunflower_tuples(family, r, budget=budget), draws)


def alpha_monte_carlo(
    family: SetFamily, r: int, trials: int, seed: int = 0
) -> AlphaEstimate:
    """Unbiased sampled estimate, deterministic given (seed, trials).

    Trials are split into fixed-size chunks, each with its own derived seed,
    so any partition of chunks over workers reproduces the same total.  A
    trial draws r member indices as ``random.Random.randrange(m)`` does, by
    ``getrandbits`` of m's bit length with values >= m rejected, so each seed
    draws what ``randrange`` would.  It succeeds when every pairwise
    intersection equals the first pair's, and stops at the first that differs.
    """
    if family.m == 0:
        raise EmptyFamilyError("alpha_monte_carlo needs a nonempty family")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if r < 2:
        raise ParameterError("alpha_monte_carlo requires r >= 2")
    masks = family.masks
    m = family.m
    bits = m.bit_length()
    pairs = list(combinations(range(r), 2))[1:]  # (0, 1) gives the core
    successes = 0
    chunk_count = (trials + _MC_CHUNK - 1) // _MC_CHUNK
    for chunk in range(chunk_count):
        size = min(_MC_CHUNK, trials - chunk * _MC_CHUNK)
        getrandbits = seeded_rng("alpha-mc", seed, chunk).getrandbits
        for _ in range(size):
            drawn = []
            for _ in range(r):
                i = getrandbits(bits)
                while i >= m:
                    i = getrandbits(bits)
                drawn.append(masks[i])
            core = drawn[0] & drawn[1]
            for a, b in pairs:
                if drawn[a] & drawn[b] != core:
                    break
            else:
                successes += 1
    return AlphaEstimate(
        r=r, m=m, estimate=successes / trials, trials=trials, seed=seed
    )


def log_star(k: int) -> int:
    """Iterated base-2 logarithm count: least i with the i-fold log of k <= 2.

    Compares k against the tower 2, 4, 16, 65536, ... in exact integer
    arithmetic; bit-length comparisons keep every intermediate no larger
    than k itself, so arbitrarily big inputs are fine.
    """
    if k < 1:
        raise ParameterError("log_star needs k >= 1")
    i = 0
    tower = 2
    while True:
        if k <= tower:
            return i
        i += 1
        # is k <= 2**tower, without materializing that power?
        bits = k.bit_length() - 1
        if bits < tower or (bits == tower and k == 1 << tower):
            return i
        tower = 1 << tower  # safe: k > 2**tower, so this is no bigger than k


# ---------------------------------------------------------------------------
# bound catalog


class BoundValue(NamedTuple):
    """One evaluated closed-form bound.

    ``value`` is the exact rational part; when ``over_e`` is set the true
    value is ``value / e`` and ``interval`` is a certified rational enclosure
    of it (otherwise the interval is degenerate at ``value``).  ``asymptotic``
    marks forms evaluated without their vanishing correction term.
    """

    bound_id: str
    params: tuple[tuple[str, int], ...]
    value: Fraction
    formula: str
    over_e: bool = False
    asymptotic: bool = False
    note: str = ""

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        if self.over_e:
            return (self.value * INV_E_LO, self.value * INV_E_HI)
        return (self.value, self.value)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


_PAST_CAP = f"exact value has more than {BOUND_BIT_CAP} bits (the cap on {{}})"


def _capped(bits: int, of: str = "bound values") -> None:
    if bits > BOUND_BIT_CAP:
        raise ParameterError(_PAST_CAP.format(of))


def _pow(base: int, exp: int, of: str = "bound values") -> int:
    """``base ** exp`` for ``base, exp >= 0``; refused before it is raised when
    it would pass the cap (on ``of``), since it has at least exp*(bits(base)-1)+1 bits."""
    _capped(exp * (base.bit_length() - 1) + 1, of)
    return base**exp


def _factorial(k: int) -> int:
    """``k!``, refused before it is computed when it would pass the cap,
    since it is at least h**h for h = k // 2."""
    h = k // 2
    _capped(h * (h.bit_length() - 1) + 1)
    return math.factorial(k)


def _binomial_bits(n: int, k: int) -> int:
    """A lower bound on the bit length of C(n, k) for 0 <= k <= n, from
    C(n, k) >= (n/j)^j >= (n//j)^j for j = min(k, n - k)."""
    j = min(k, n - k)
    if j == 0:
        return 1
    return j * ((n // j).bit_length() - 1) + 1


def _bound_er(r: int, k: int) -> BoundValue:
    _require(r >= 2 and k >= 1, "ER needs r >= 2, k >= 1")
    return BoundValue(
        "ER",
        (("r", r), ("k", k)),
        Fraction(_factorial(k) * _pow(r - 1, k)),
        "k! (r-1)^k",
    )


def _bound_t1(r: int, k: int) -> BoundValue:
    _require(r >= 3 and k >= 1, "T1 needs r >= 3, k >= 1")
    return BoundValue("T1", (("r", r), ("k", k)), Fraction(_pow(r, 10 * k)), "r^(10k)")


def _bound_t2(r: int, k: int, d: int) -> BoundValue:
    _require(d >= 2 and k >= 2 and r >= 2, "T2 needs d, k, r >= 2")
    exponent = 10 * k * (d * r) ** (2 * log_star(k))
    return BoundValue(
        "T2",
        (("r", r), ("k", k), ("d", d)),
        Fraction(_pow(2, exponent)),
        "2^(10 k (d r)^(2 log* k))",
    )


def _bound_t3u(r: int, k: int, d: int) -> BoundValue:
    _require(d >= 1 and k >= 1 and r >= 1, "T3U needs d, k, r >= 1")
    return BoundValue(
        "T3U", (("r", r), ("k", k), ("d", d)), Fraction(_pow(r * k, d)), "(r k)^d"
    )


def _bound_t3l(r: int, k: int, d: int) -> BoundValue:
    _require(d >= 3 and r >= 3 and k >= 4 * d, "T3L needs d, r >= 3 and k >= 4d")
    base = Fraction(r * k, d)
    return BoundValue(
        "T3L",
        (("r", r), ("k", k), ("d", d)),
        Fraction(_pow(base.numerator, d), _pow(base.denominator, d)),
        "(r k / d)^d",
        asymptotic=True,
        note="evaluated without the o(d) correction; asymptotic form, not a certified bound",
    )


def _bound_t7(r: int, k: int, lam: int) -> BoundValue:
    _require(r >= 3 and k >= 1 and lam >= 1, "T7 needs r >= 3, k >= 1, lambda >= 1")
    return BoundValue(
        "T7",
        (("r", r), ("k", k), ("lam", lam)),
        Fraction(_pow(lam + r, 6 * lam * k)),
        "(lambda + r)^(6 lambda k)",
    )


def _bound_dsw(lam: int, nu: int) -> BoundValue:
    _require(lam >= 1 and nu >= 0, "DSW needs lambda >= 1, nu >= 0")
    # the value is at least the binomial's square
    _capped(2 * _binomial_bits(lam + nu, lam) - 1)
    value = 11 * lam**2 * (lam + nu + 3) * math.comb(lam + nu, lam) ** 2
    return BoundValue(
        "DSW",
        (("lam", lam), ("nu", nu)),
        Fraction(value),
        "11 lambda^2 (lambda + nu + 3) C(lambda + nu, lambda)^2",
    )


def _bound_ss(n: int, d: int) -> BoundValue:
    _require(n >= 0 and d >= 0, "SS needs n, d >= 0")
    _capped(_binomial_bits(n, min(d, n // 2)))  # the sum's largest term
    try:
        value = sauer_shelah_capacity(n, d, BOUND_BIT_CAP)
    except ParameterError:
        raise ParameterError(_PAST_CAP.format("bound values")) from None
    return BoundValue("SS", (("n", n), ("d", d)), Fraction(value), "sum_{i<=d} C(n, i)")


def _bound_l3(r: int, g: int) -> BoundValue:
    _require(r >= 2 and g >= 1, "L3 needs r >= 2, g >= 1")
    return BoundValue(
        "L3",
        (("r", r), ("g", g)),
        Fraction(1, _pow(g, r - 1)),
        "g^(1-r) / e",
        over_e=True,
    )


def _bound_c1(r: int, k: int) -> BoundValue:
    _require(r >= 2 and k >= 2, "C1 needs r, k >= 2")
    base = _factorial(k) * _pow(r - 1, k + 1) + 1
    return BoundValue(
        "C1",
        (("r", r), ("k", k)),
        Fraction(1, _pow(base, r - 1)),
        "(k! (r-1)^(k+1) + 1)^(1-r) / e",
        over_e=True,
    )


def _bound_t4(r: int, k: int) -> BoundValue:
    _require(r >= 3 and k >= 1, "T4 needs r >= 3, k >= 1")
    return BoundValue(
        "T4", (("r", r), ("k", k)), Fraction(_pow(500 + r, 900 * k)), "(500 + r)^(900 k)"
    )


def _bound_t6(r: int, k: int, d: int) -> BoundValue:
    _require(d >= 2 and k >= 2 and r >= 2, "T6 needs d, k, r >= 2")
    exponent = 10 * k * (d * r) ** (2 * log_star(k))
    return BoundValue(
        "T6",
        (("r", r), ("k", k), ("d", d)),
        Fraction(1, _pow(2, exponent)),
        "2^(-10 k (d r)^(2 log* k))",
    )


_BOUNDS: dict[str, Callable[..., BoundValue]] = {
    "ER": _bound_er,
    "T1": _bound_t1,
    "T2": _bound_t2,
    "T3U": _bound_t3u,
    "T3L": _bound_t3l,
    "T7": _bound_t7,
    "DSW": _bound_dsw,
    "SS": _bound_ss,
    "L3": _bound_l3,
    "C1": _bound_c1,
    "T4": _bound_t4,
    "T6": _bound_t6,
}

BOUND_IDS = tuple(sorted(_BOUNDS))


def evaluate_bound(bound_id: str, **params: int) -> BoundValue:
    """Evaluate one catalogued bound exactly; see :data:`BOUND_IDS`.

    Raises :class:`ParameterError` for a value past :data:`BOUND_BIT_CAP`.
    """
    fn = _BOUNDS.get(bound_id)
    if fn is None:
        raise ParameterError(f"unknown bound id {bound_id!r} (have {', '.join(BOUND_IDS)})")
    try:
        bound = fn(**params)
    except TypeError as exc:
        raise ParameterError(f"bound {bound_id}: {exc}") from None
    _capped(max(bound.value.numerator.bit_length(), bound.value.denominator.bit_length()))
    return bound


# ---------------------------------------------------------------------------
# inequality battery


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


class InequalityReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")


def check_inequalities(
    family: SetFamily,
    r: int,
    extremal_f: Optional[int] = None,
    extremal_g: Optional[int] = None,
    lambda_cap: int = 8,
    budget: int | None = None,
) -> InequalityReport:
    """Evaluate every inequality instantiable from the family alone.

    Checks that cannot be decided exactly (capped lambda, missing
    preconditions) are reported as skipped, never as passed.  Supplying a
    known extremal value enables the threshold-form checks.
    """
    return FamilyAnalysis(family, lambda_cap, budget).checks(r, extremal_f, extremal_g)


class FamilyAnalysis:
    """The quantities of one family, each computed at most once, on first use.

    ``budget`` is a node budget that every search gets afresh, as when it is
    called on its own, so a search aborts or succeeds exactly as it would
    uncached.
    """

    def __init__(self, family: SetFamily, lambda_cap: int = 8, budget: int | None = None):
        self.family = family
        self.lambda_cap = lambda_cap
        self.budget = budget
        self._flowers: dict[int, Optional[Sunflower]] = {}
        self._alphas: dict[int, Fraction] = {}

    @cached_property
    def vc(self) -> tuple[int, tuple[int, ...]]:
        return vc_dimension(self.family, self.budget)

    @cached_property
    def ls(self) -> tuple[int, Optional[ShatterTree]]:
        return ls_dimension(self.family, self.budget)

    @cached_property
    def nu(self) -> PackingResult:
        return packing_number(self.family, self.budget)

    @cached_property
    def tau(self) -> TransversalResult:
        return transversal_number(self.family, self.budget)

    @cached_property
    def lam(self) -> LambdaResult:
        return lambda_number(self.family, cap=self.lambda_cap, budget=self.budget)

    def sunflower(self, r: int) -> Optional[Sunflower]:
        """The r-sunflower :func:`find_sunflower` finds.  Any r members of an
        (r+1)-sunflower form an r-sunflower, so a smaller sunflower-free r
        answers r without a search (which could not abort: it spends the same
        set-up of the cores and opens a subset of the nodes of the smaller r's
        petal walks, and that search ran to the end)."""
        if r not in self._flowers:
            free = any(s < r and hit is None for s, hit in self._flowers.items())
            self._flowers[r] = None if free else find_sunflower(self.family, r, budget=self.budget)
        return self._flowers[r]

    def alpha(self, r: int) -> Fraction:
        if r not in self._alphas:
            self._alphas[r] = alpha_exact(self.family, r, self.budget)
        return self._alphas[r]

    def checks(
        self,
        r: int,
        extremal_f: Optional[int] = None,
        extremal_g: Optional[int] = None,
    ) -> InequalityReport:
        """The inequality battery of :func:`check_inequalities`."""
        if r < 2:
            raise ParameterError("check_inequalities requires r >= 2")
        family = self.family
        checks: list[CheckResult] = []
        m = family.m
        if m == 0:
            return InequalityReport(
                (CheckResult("nonempty", "skip", "empty family: nothing to check"),)
            )

        distinct, _ = family.distinct()
        md = distinct.m
        n_active = len(distinct.labels)

        vc, _ = self.vc
        ls, _ = self.ls

        def add(name: str, ok: bool, detail: str) -> None:
            checks.append(CheckResult(name, "pass" if ok else "fail", detail))

        def skip(name: str, detail: str) -> None:
            checks.append(CheckResult(name, "skip", detail))

        add("vc<=ls", vc <= ls, f"vc={vc}, ls={ls}")
        log2_md = md.bit_length() - 1
        add("ls<=log2(m)", ls <= log2_md, f"ls={ls}, floor(log2 {md})={log2_md}")
        cap = sauer_shelah_capacity(n_active, vc)
        add(
            "sauer_shelah",
            md <= cap,
            f"m_distinct={md} <= capacity(n_active={n_active}, vc={vc})={cap}",
        )

        has_empty_member = any(not mem for mem in family.members)
        nu = self.nu
        if has_empty_member:
            skip("nu<=tau", "empty member: transversal undefined")
            skip("dsw", "empty member: transversal undefined")
        else:
            tau = self.tau
            add("nu<=tau", nu.value <= tau.value, f"nu={nu.value}, tau={tau.value}")
            lam = self.lam
            if lam.cap_hit:
                skip("dsw", f"lambda search capped at {lam.cap}; value not exact")
            else:
                bound = evaluate_bound("DSW", lam=max(lam.value, 1), nu=nu.value).value
                add(
                    "dsw",
                    Fraction(tau.value) <= bound,
                    f"tau={tau.value} <= DSW(lambda={lam.value}, nu={nu.value})={bound}",
                )

        # popular-element bound applies to (r+1)-sunflower-free families of
        # nonempty members
        if has_empty_member:
            skip("popular_element", "empty member present")
        elif self.sunflower(r + 1) is not None:
            skip("popular_element", f"family contains an {r + 1}-sunflower")
        else:
            k = family.max_member_size()
            _, frac = popular_element(family)
            threshold = Fraction(1, k * r)
            add(
                "popular_element",
                frac >= threshold,
                f"max fraction {frac} >= 1/(k r) = {threshold}",
            )

        uniform_k = family.is_uniform()
        if extremal_f is not None:
            if family.multifamily or md != m:
                skip("size<=f-1", "needs distinct members")
            elif uniform_k is None:
                skip("size<=f-1", "needs a uniform family")
            elif self.sunflower(max(r, 3)) is not None:
                skip("size<=f-1", "family is not sunflower-free")
            else:
                a = self.alpha(r)
                ok = m <= extremal_f - 1 and a == Fraction(1, m ** (r - 1))
                add(
                    "size<=f-1",
                    ok,
                    f"sunflower-free size {m} <= f-1 = {extremal_f - 1}; alpha = m^(1-r) = {a}",
                )
        if extremal_g is not None:
            a = self.alpha(r)
            lo = evaluate_bound("L3", r=r, g=extremal_g).interval[1]
            add(
                "alpha>=g^(1-r)/e",
                a >= lo,
                f"alpha={a} >= conservative g^(1-r)/e = {float(lo):.6g}",
            )

        return InequalityReport(tuple(checks))
