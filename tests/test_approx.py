from tiltbench import corpus
from tiltbench.approx import (
    minimal_left_approximation_labeled,
    minimal_right_approximation_labeled,
)
from tiltbench.linalg import row_space_basis
from tiltbench.reps import kernel_of, projective, regular_module


def test_right_approx_of_projective_by_itself_is_identity_sized():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    labels, f = minimal_right_approximation_labeled(a, ["1"], p1)
    assert labels == ["1"]
    assert all(f.mats[v].inverse() is not None for v in a.quiver.vertices)


def test_right_approx_with_no_homs_is_zero():
    a = corpus.sec5_algebra()
    q = projective(a, "3")
    # Hom(P(1), P(3)) = 0
    labels, f = minimal_right_approximation_labeled(a, ["1"], q)
    assert labels == []
    assert f.source.total_dim() == 0


def test_sec5_right_approx_of_regular_by_p1():
    a = corpus.sec5_algebra()
    reg = regular_module(a)
    labels, f = minimal_right_approximation_labeled(a, ["1"], reg)
    # two minimal generators: the inclusion onto the P1 summand and the map
    # into the socle of P2
    assert labels == ["1", "1"]
    ker, _ = kernel_of(f)
    assert f.source.total_dim() == 6
    # image dimensions: P1 fully (3) plus a 1-dim piece of P2
    img_dim = sum(row_space_basis(f.mats[v]).rows for v in a.quiver.vertices)
    assert img_dim == 4


def test_sec5_left_approx_of_regular_by_q():
    a = corpus.sec5_algebra()
    reg = regular_module(a)
    labels, g = minimal_left_approximation_labeled(a, ["3", "4"], reg)
    assert sorted(labels) == ["3", "3", "4"]


def test_left_approx_zero_case():
    a = corpus.sec5_algebra()
    p1 = projective(a, "1")
    # Hom(P1, P3 + P4) = 0 so the left approximation of P1 by them is zero
    labels, g = minimal_left_approximation_labeled(a, ["3", "4"], p1)
    assert labels == []
    assert g.target.total_dim() == 0
