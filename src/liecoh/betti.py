"""Closed-form Betti numbers b0..b4 of G/H from the pair decomposition.

The formulas:

    b0 = 1
    b1 = r0
    b2 = dim a_fixed + C(r0, 2)
    b3 = dim a_fixed * r0 + dim N + C(r0, 3)
    b4 = dim a_fixed * C(r0, 2) + dim N * r0 + dim C + C(r0, 4)

with r0 = dim g/([g,g]+h), a_fixed the generator-fixed part of z(h)∩[g,g],
and N, C the kernel and cokernel of the restriction map Ψ sending the
per-factor Killing forms to invariant forms on h∩[g,g].
"""

from math import comb

from .invariant_forms import psi_analysis
from .linalg import combination, kernel_in


class BettiReport:
    """Betti numbers plus the quantities that produced them.

    method is "formula", "koszul" or "ce"; intermediates holds the named
    dimensions the method actually computed; diagnostics carries
    method-specific extras (slice dimensions, ranks) for --explain output.
    """

    def __init__(self, betti, method, intermediates=None,
                 corollary_flags=None, diagnostics=None):
        self.betti = [int(x) for x in betti]
        self.method = method
        self.intermediates = dict(intermediates or {})
        self.corollary_flags = list(corollary_flags or [])
        self.diagnostics = dict(diagnostics or {})

    def to_dict(self, explain=False):
        out = {"betti": self.betti, "method": self.method,
               "intermediates": self.intermediates}
        if self.corollary_flags:
            out["corollary_flags"] = self.corollary_flags
        if explain and self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def betti_low(pair, validate=True):
    """Betti numbers b0..b4 of G/H by the closed formulas."""
    if validate:
        pair.validation.ensure()
    dec = pair.decomposition
    psi = psi_analysis(pair)
    r0 = dec.r0
    da = dec.a_fixed.dim
    betti = [1,
             r0,
             da + comb(r0, 2),
             da * r0 + psi.dim_N + comb(r0, 3),
             da * comb(r0, 2) + psi.dim_N * r0 + psi.dim_C + comb(r0, 4)]
    intermediates = {"l": pair.algebra.l, "r": pair.algebra.r, "r0": r0,
                     "dim_a_fixed": da, "dim_N": psi.dim_N,
                     "dim_C": psi.dim_C, "rank_psi": psi.rank_psi,
                     "dim_S2_hgg_inv": psi.dim}
    report = BettiReport(betti, "formula", intermediates)
    report.corollary_flags = corollary_checks(pair, report)
    return report


def _block_support(pair, hcapgg):
    """Factor indices h∩[g,g] projects onto, or None for diagonal embeddings.

    Returns the support list only when h meets every supporting factor
    nontrivially, which is the hypothesis of the blockwise corollaries; a
    factor hit by the projection but not by the intersection (a diagonal
    embedding) makes the hypothesis undecidable by block counting.
    """
    alg = pair.algebra
    support = []
    for fi, (_, start, stop) in enumerate(alg.factors):
        if not any(start <= i < stop for c in hcapgg.columns for i in c):
            continue
        off = {i: {i: 1} for i in range(alg.n) if not start <= i < stop}
        if kernel_in(hcapgg, [off]).dim == 0:
            return None
        support.append(fi)
    return support


def corollary_checks(pair, report):
    """Evaluate the applicable consistency identities on a formula report.

    Each flag is {"name", "status" ∈ pass/fail/skipped, "detail"?}; an
    identity whose hypotheses the pair does not satisfy is "skipped".
    """
    dec = pair.decomposition
    inter = report.intermediates
    b = report.betti
    l, r = inter["l"], inter["r"]
    flags = []

    def flag(name, status, detail=None):
        entry = {"name": name, "status": status}
        if detail is not None:
            entry["detail"] = detail
        flags.append(entry)

    # semisimple ambient: H^3 ≃ N, H^4 ≃ C, and the difference identity
    if l == 0:
        ok = (b[3] == inter["dim_N"] and b[4] == inter["dim_C"]
              and b[4] - b[3] == inter["dim_S2_hgg_inv"] - r)
        flag("semisimple_betti_identity", "pass" if ok else "fail")
    else:
        flag("semisimple_betti_identity", "skipped", "z(g) is nonzero")

    # simple ambient algebra: b3 vanishes
    if l == 0 and r == 1 and pair.h.dim > 0:
        flag("simple_ambient_b3_vanishes", "pass" if b[3] == 0 else "fail")
    else:
        flag("simple_ambient_b3_vanishes", "skipped",
             "needs simple g and dim h > 0")

    # h∩[g,g] supported on factors it meets: dim N counts the missed factors
    support = _block_support(pair, dec.hcapgg)
    if support is None:
        flag("block_support_kernel_count", "skipped",
             "h∩[g,g] projects onto a factor it meets trivially")
        flag("semisimple_h_block_betti", "skipped",
             "h∩[g,g] projects onto a factor it meets trivially")
    else:
        s = len(support)
        flag("block_support_kernel_count",
             "pass" if inter["dim_N"] == r - s else "fail", "s=%d" % s)
        if dec.zh.dim == 0:
            # h is semisimple, so h = [h,h] = h∩[g,g]: the blockwise b3/b4.
            # A compact simple ideal is absolutely simple, so its invariant
            # forms are the line of its Killing form, and forms on distinct
            # ideals pair to zero; the generators permute those lines, so
            # S²(h*)^H is spanned by the orbit sums and counts the orbits
            orbits = pair.h_forms.dim
            want3 = (r - s) + comb(l, 3)
            want4 = l * (r - s) + orbits - s + comb(l, 4)
            ok = b[3] == want3 and b[4] == want4
            flag("semisimple_h_block_betti", "pass" if ok else "fail",
                 "s=%d, ideal orbits=%d" % (s, orbits))
        else:
            flag("semisimple_h_block_betti", "skipped", "h is not semisimple")

    # toral h in semisimple g: the b4 − b3 difference formula; needs the
    # component group to act trivially on h, which is what makes H toral
    toral = dec.hh.dim == 0 and all(
        combination(gcols, c) == c
        for gcols in pair.generator_columns for c in pair.h.columns)
    if l == 0 and toral:
        m = pair.h.dim
        ok = b[4] - b[3] == m * (m + 1) // 2 - r
        flag("toral_h_difference", "pass" if ok else "fail")
    else:
        flag("toral_h_difference", "skipped",
             "needs semisimple g and a toral H")
    return flags
