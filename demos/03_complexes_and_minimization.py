"""Bounded complexes of projectives in label form.

A complex stores vertex labels per degree plus differentials with entries in
the algebra; homs in the homotopy category, minimization to the radical
form, homology, and idempotent splitting are all exact.
"""

from tiltbench import decompose_complex, homology, homotopy_hom, minimize
from tiltbench.complexes import ProjComplex
from tiltbench.corpus import fig1_algebra, fig1_tilting_complex

a = fig1_algebra()

# the two-term complex 0 -> P(2)+P(2)+P(3) -> P(1) -> 0
t = fig1_tilting_complex(a)
print("terms:", {d: t.term(d) for d in t.degrees()})
print("validation:", t.validate())

# homs in the homotopy category at every shift in range
for n in range(-2, 3):
    print(f"dim Hom(T, T[{n}]) =", homotopy_hom(t, t, n).dim)

# pad with a contractible cone and minimize back down
e3 = a.idempotent_index["3"]
cone = ProjComplex(a, {-1: ["3"], 0: ["3"]}, {-1: [[{e3: 1}]]})
padded = t.direct_sum(cone)
reduced, eq = minimize(padded)
print("padded terms:    ", {d: padded.term(d) for d in padded.degrees()})
print("minimized terms: ", {d: reduced.term(d) for d in reduced.degrees()})
print("homotopy equivalence verified:", eq.verify())

# homology, computed through honest representations
for i in (-1, 0):
    print(f"dim H^{i}(T) =", homology(t, i).total_dim())

# indecomposable summands with multiplicities
# with one inclusion T_k -> T and one projection T -> T_k per summand copy
summands, includes, projects = decompose_complex(t)
for s, mult in summands:
    print("summand", {d: s.term(d) for d in s.degrees()}, "x", mult)
print("copy 0: include then project is the identity:", includes[0].then(projects[0]).is_identity())
