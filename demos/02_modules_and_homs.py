"""Modules as quiver representations: homs, structure, decomposition.

Everything is exact: hom spaces are kernels of integer/rational linear
systems, and decompositions come with verified inclusions and projections.
"""

from tiltbench import decompose, hom_space, injective, is_isomorphic, projective, simple
from tiltbench.corpus import sec5_algebra
from tiltbench.reps import ModuleMap, radical_submodule, regular_module, socle, top

a = sec5_algebra()

# the hom-dimension count: dim Hom(P(v), X) equals the dimension of X at v
reg = regular_module(a)
print("dim Hom(P(v), A) per vertex:", {v: len(hom_space(projective(a, v), reg)) for v in a.quiver.vertices})
print("dims of A as a representation:", dict(zip(a.quiver.vertices, reg.dim_vector())))

# tops and socles
p3 = projective(a, "3")
print("top of P(3):", top(p3)[0].dim_vector())
print("socle of P(3):", socle(p3)[0].dim_vector())

# which projectives are injective? (the stable ones)
for v in a.quiver.vertices:
    stable = is_isomorphic(projective(a, v), injective(a, v)) is not None
    print(f"P({v}) is isomorphic to I({v}):", stable)

# decomposition with a verified certificate: one inclusion and one
# projection per summand copy
m = p3.direct_sum(radical_submodule(projective(a, "1"))[0]).direct_sum(p3)
summands, includes, projects = decompose(m)
print("decomposition of P(3) + rad P(1) + P(3):")
for rep, mult in summands:
    print("   summand of dims", rep.dim_vector(), "with multiplicity", mult)
back = ModuleMap.zero(m, m)
for k, incl in enumerate(includes):
    for l, proj in enumerate(projects):
        assert incl.then(proj).is_identity() if k == l else incl.then(proj).is_zero()
    back = back + projects[k].then(incl)
assert back.is_identity()
print(len(includes), "copies: include then project is the identity on each, zero across, and they sum to 1")

# simples at different vertices are not isomorphic
print("S(1) iso S(2)?", is_isomorphic(simple(a, "1"), simple(a, "2")) is not None)
