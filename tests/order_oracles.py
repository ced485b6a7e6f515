"""Independent group-order formulas, used as oracles for enumeration tests.

Classical counts over a finite field with q elements:

  |GL_n(q)| = prod_{i=0}^{n-1} (q^n - q^i)
  |SL_n(q)| = |GL_n(q)| / (q - 1)
  |U_n(q)|  = q^(n(n-1)/2) * prod_{i=1}^{n} (q^i - (-1)^i)
  |SU_n(q)| = |U_n(q)| / (q + 1)

U_n(q) is the isometry group of a nondegenerate hermitian form on an
n-dimensional space over the quadratic field extension of F_q; its order
does not depend on the form chosen.

Over the unramified lift Z/p^2[sqrt(s)] of F_p[sqrt(s)] (a Galois ring, local
but not a field), reduction mod p maps U_n onto U_n(p) with kernel
1 + p*X, X in the n^2-dimensional space of skew-hermitian matrices over
F_p[sqrt(s)] (as an F_p-space), and SU_n onto SU_n(p) with the trace-zero
part of that space as kernel:

  |U_n|  = |U_n(p)|  * p^(n^2)
  |SU_n| = |SU_n(p)| * p^(n^2 - 1)
"""


def gl_order(n: int, q: int) -> int:
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def sl_order(n: int, q: int) -> int:
    order, rem = divmod(gl_order(n, q), q - 1)
    assert rem == 0
    return order


def unitary_order(n: int, q: int) -> int:
    total = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        total *= q ** i - (-1) ** i
    return total


def special_unitary_order(n: int, q: int) -> int:
    order, rem = divmod(unitary_order(n, q), q + 1)
    assert rem == 0
    return order


def lifted_unitary_order(n: int, p: int) -> int:
    return unitary_order(n, p) * p ** (n * n)


def lifted_special_unitary_order(n: int, p: int) -> int:
    return special_unitary_order(n, p) * p ** (n * n - 1)


if __name__ == "__main__":
    for q in (3, 5, 7, 9):
        for n in (1, 2, 3):
            print(f"q={q} n={n}  GL={gl_order(n, q)}  SL={sl_order(n, q)}  "
                  f"U={unitary_order(n, q)}  SU={special_unitary_order(n, q)}")
