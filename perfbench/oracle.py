"""Expected values for the generated workloads, computed without the program.

Everything here is plain integer arithmetic on coefficient lists: a class
on P^n is the list of its coefficients of h^0 .. h^n, and products are
truncated at h^(n+1).  None of it imports milnor_classes, so a wrong ring
operation in the program cannot make a generated expectation agree with
it.
"""

from __future__ import annotations

from itertools import product


def mul(a: list[int], b: list[int]) -> list[int]:
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def inverse(a: list[int]) -> list[int]:
    """Power-series inverse in Z[h]/(h^(n+1)); a[0] must be +-1."""
    if a[0] not in (1, -1):
        raise ValueError("degree-0 part is not a unit")
    n = len(a) - 1
    out = [0] * (n + 1)
    out[0] = a[0]
    for k in range(1, n + 1):
        out[k] = -a[0] * sum(a[i] * out[k - i] for i in range(1, k + 1))
    return out


def linear(n: int, c0: int, c1: int) -> list[int]:
    """c0 + c1 h on P^n."""
    out = [0] * (n + 1)
    out[0] = c0
    if n >= 1:
        out[1] = c1
    return out


def power(a: list[int], k: int) -> list[int]:
    out = linear(len(a) - 1, 1, 0)
    for _ in range(k):
        out = mul(out, a)
    return out


def point(n: int, count: int = 1) -> list[int]:
    out = [0] * (n + 1)
    out[n] = count
    return out


def combine(*terms: tuple[int, list[int]]) -> list[int]:
    """sum of scale * class over (scale, class) pairs."""
    out = [0] * len(terms[0][1])
    for s, a in terms:
        for i, x in enumerate(a):
            out[i] += s * x
    return out


def render(a: list[int]) -> str:
    """Class text in the program's input syntax, highest codimension first."""
    pieces = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        mono = "" if k == 0 else ("h" if k == 1 else f"h^{k}")
        term = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        pieces.append(("- " if c < 0 else "+ ") + term)
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def complete_intersection(n: int, degrees: list[int]) -> list[int]:
    """c(TP^n) prod_i d_i h (1 + d_i h)^(-1), pushed forward to P^n.

    This is the CSM class of a smooth complete intersection of the given
    degrees, and the virtual class of any complete intersection of them.
    """
    out = power(linear(n, 1, 1), n + 1)
    for d in degrees:
        out = mul(out, mul(linear(n, 0, d), inverse(linear(n, 1, d))))
    return out


def two_planes_csm(n: int, degrees: list[int]) -> list[int]:
    """CSM class of (A u B) cap H for hyperplanes A, B and generic H.

    Inclusion-exclusion: 1_X = 1_(A cap H) + 1_(B cap H) - 1_(A cap B cap H),
    where each piece is a smooth complete intersection.
    """
    one_plane = complete_intersection(n, [1] + degrees)
    meet = complete_intersection(n, [1, 1] + degrees)
    return combine((2, one_plane), (-1, meet))


def milnor_from_definition(n: int, codim: int, virt: list[int],
                           csm: list[int]) -> list[int]:
    """M = (-1)^(n - codim) (c_vir - c_SM)."""
    sign = -1 if (n - codim) % 2 else 1
    return combine((sign, virt), (-sign, csm))


def top_coefficient(forms: list[tuple[int, ...]], target: tuple[int, ...]) -> int:
    """Coefficient of h_1^t_1 ... h_k^t_k in a product of linear forms.

    forms[i] = (a_1, ..., a_k) stands for a_1 h_1 + ... + a_k h_k; the
    product is expanded without truncation.
    """
    total = 0
    for picks in product(range(len(target)), repeat=len(forms)):
        expo = [0] * len(target)
        coeff = 1
        for form, j in zip(forms, picks):
            expo[j] += 1
            coeff *= form[j]
        if tuple(expo) == target:
            total += coeff
    return total


def bundle_degree(base_n: int, degrees: list[int],
                  monomial: dict[tuple[int, int], int]) -> int:
    """Degree on P(E^v) -> P^b of a polynomial in h and z.

    E is the split bundle O(d_1) + ... + O(d_r) on P^b and z = c1(O(1)).
    The integral of h^x z^y is the h^b coefficient of h^x p_*(z^y), where
    w_i = p_*(z^(r-1+i)) follows from the Grothendieck relation
    z^r = sum_j (-1)^(j-1) c_j(E) z^(r-j):  w_0 = 1 and
    w_i = sum_{j=1..r} (-1)^(j-1) c_j(E) w_(i-j), with w_i = 0 for i < 0.
    """
    r = len(degrees)
    chern = linear(base_n, 1, 0)
    for d in degrees:
        chern = mul(chern, linear(base_n, 1, d))
    top_y = max((y for _, y in monomial), default=0)
    w = [linear(base_n, 1, 0)]
    for i in range(1, top_y - r + 2):
        acc = [0] * (base_n + 1)
        for j in range(1, min(i, r) + 1):
            cj = [0] * (base_n + 1)
            if j <= base_n:
                cj[j] = chern[j]
            acc = combine((1, acc), ((-1) ** (j - 1), mul(cj, w[i - j])))
        w.append(acc)
    total = 0
    for (x, y), c in monomial.items():
        i = y - (r - 1)
        if i < 0 or x > base_n:
            continue
        total += c * w[i][base_n - x]
    return total


def expand_linear_forms(forms: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """prod_j (a_j h + e_j z) as a map (x, y) -> coefficient of h^x z^y."""
    out = {(0, 0): 1}
    for a, e in forms:
        nxt: dict[tuple[int, int], int] = {}
        for (x, y), c in out.items():
            for key, k in (((x + 1, y), a), ((x, y + 1), e)):
                if k:
                    nxt[key] = nxt.get(key, 0) + c * k
        out = nxt
    return out
