"""Layouts made once: a table keeps its orders, a manifold keeps the rings
made from its names and rho renamed into a block, and none of it reaches
equality, hashing, pickling or another rho."""

import pickle

import pytest

from segrekit.catalog import sample_points
from segrekit.correspond import AlgebraicMap, build_correspondence
from segrekit.ideal import Ideal, eliminate, saturate
from segrekit.manifold import CRManifold, polar_gens
from segrekit.orders import MonomialCodec, block_elim, lex
from segrekit.parsing import parse_poly
from segrekit.poly import WB, VarTable
from segrekit.segre import essential_finiteness, inversion_set, segre_sets, segre_variety

SPHERE = ("vars z1 z2\n"
          "rho: z1*~z1 + z2*~z2 - 1\n")


def test_a_table_keeps_its_orders():
    table = VarTable.make(["x", "y", "z"], conjugates=False)
    assert table.lex is table.lex and table.lex == lex(3)
    assert table.block_elim((0, 2)) is table.block_elim((0, 2))
    assert table.block_elim((0, 2)) == block_elim(3, [2, 0])
    assert table.block_elim((0,)) is not table.block_elim((0, 2))
    assert table.extend_params(["t"]) is table.extend_params(("t",))
    assert table.extend_params(["t"]) == VarTable.make(["x", "y", "z"], ["t"], conjugates=False)


def test_eliminate_and_saturate_reuse_the_orders_of_their_tables():
    table = VarTable.make(["x", "y", "t"], conjugates=False)
    keep = VarTable.make(["x", "y"], conjugates=False)
    I = Ideal.make([parse_poly(s, table) for s in ("x - t^2", "y - t^3")], table=table)
    first = eliminate(I, keep)
    order = table.block_elim((2,))
    codec = order.codec
    assert eliminate(I, keep) == first
    assert table.block_elim((2,)) is order and order.codec is codec
    J = Ideal.make([parse_poly("x*y", keep)], table=keep)
    saturate(J, parse_poly("x", keep))
    ext = keep.extend_params(["_s"])
    assert saturate(J, parse_poly("x", keep)).table is keep
    assert keep.extend_params(["_s"]) is ext


def test_segre_varieties_at_two_points_share_one_table():
    M = CRManifold.from_text(SPHERE)
    assert M.block(WB) is M.block(WB) and M.block(WB) == ("wb_z1", "wb_z2")
    p, q = sample_points("sphere_C2", 2, seed=3)
    assert segre_variety(M, p).ideal.table is segre_variety(M, q).ideal.table
    assert (segre_variety(M, "symbolic").ideal.table
            is segre_variety(M, "symbolic").ideal.table)


def test_identity_correspondences_on_one_manifold_share_one_table():
    M = CRManifold.from_text(SPHERE)
    f = AlgebraicMap.identity(M)
    C1, C2 = build_correspondence(M, M, f), build_correspondence(M, M, f)
    assert C1.graph.table is C2.graph.table
    assert C1.graph == C2.graph


def test_fresh_points_build_no_table_and_no_codec(monkeypatch):
    """After one call, essential finiteness at 50 more points lays nothing
    out anew: the layouts are bounded by the manifold, not by its points."""
    M = CRManifold.from_text(SPHERE)
    points = sample_points("sphere_C2", 51, seed=11)
    essential_finiteness(M, points[0])
    made = []
    for cls in (VarTable, MonomialCodec):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            made.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for p in points[1:]:
        assert essential_finiteness(M, p) == (True, 1)
    assert made == []


def test_a_replaced_rho_never_reads_the_old_relayouts():
    M = CRManifold.from_text(SPHERE)
    p = sample_points("sphere_C2", 1, seed=7)[0]
    # fill M's rings and relayouts at the symbolic point and at p
    inversion_set(M, "symbolic")
    inversion_set(M, p)
    segre_sets(M, p, 3)
    scaled = M._replace(rho=tuple(3 * r for r in M.rho))
    fresh = CRManifold.from_text("vars z1 z2\nrho: 3*(z1*~z1 + z2*~z2 - 1)\n")
    assert scaled == fresh
    for w in ("symbolic", p):
        assert (inversion_set(scaled, w).ideal.generators
                == inversion_set(fresh, w).ideal.generators)
    assert ([I.generators for I in segre_sets(scaled, p, 3).ideals]
            == [I.generators for I in segre_sets(fresh, p, 3).ideals])
    wb = M.block(WB)
    joint = M.ring(M.zvar_names + wb)
    assert polar_gens(scaled, joint, wb) == tuple(3 * g for g in polar_gens(M, joint, wb))


def test_the_store_is_not_part_of_the_value():
    M = CRManifold.from_text(SPHERE)
    twin = CRManifold.from_text(SPHERE)
    inversion_set(M, "symbolic")
    assert M == twin and hash(M) == hash(twin) and repr(M) == repr(twin)
    back = pickle.loads(pickle.dumps(M))
    assert back == M and back.real
    assert back.ring(M.zvar_names) is not M.ring(M.zvar_names)


@pytest.mark.parametrize("conj", [(1, 0), ("wb_z1", 0)])
def test_a_binding_is_not_kept(conj):
    """Only a renaming depends on M alone; a point binding is made anew."""
    M = CRManifold.from_text(SPHERE)
    table = M.ring(M.zvar_names + ("wb_z1",))
    assert polar_gens(M, table, conj) is not polar_gens(M, table, conj)
    assert polar_gens(M, table, conj) == polar_gens(M, table, conj)
