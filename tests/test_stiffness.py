import dataclasses
import re

import numpy as np
import pytest

from twinmill import kinematics, stiffness
from twinmill.compensation import simulate_deformation
from twinmill.errors import DomainError
from twinmill.geometry import Pose, matrix_pose_rows, rotate6, transport_stiffness
from twinmill.kinematics import DEFAULT_TOL_POS, forward_kinematics, inverse_kinematics, jacobian
from twinmill.pathplan import Setpoints, SyncProgram
from twinmill.stiffness import (
    CoupledSystem,
    SpringModel,
    Wrench,
    _BLOCK_ROWS,
    _compliance_from_jacobian,
    _spd_inverse,
    _stiffness_from_jacobian,
    cartesian_stiffness,
    cell_sha256,
    coupled_stiffness,
    predicted_tension,
    tension_offset,
)

from conftest import JOINT_STIFFNESS, make_one_link_arm, make_test_arm, nominal_rows, random_nonsingular_q

DEFAULT_SPRING = np.diag([5e7, 5e7, 5e7, 5e5, 5e5, 5e5])
# A stack that reaches into the second block of the stacked evaluation, and
# two of its rows in that block.
STACK = _BLOCK_ROWS + 44
ROW, LATER_ROW = _BLOCK_ROWS + 14, _BLOCK_ROWS + 24


def make_twin_system(rng=None, spring_scale=1.0, base_shift=None):
    """Idealized coupled system: branch 2 is branch 1 shifted by a tiny
    world translation, so both branches present identical Cartesian
    stiffness at the tool point (to ~1e-6 relative)."""
    rng = rng or np.random.default_rng(0)
    if base_shift is None:
        base_shift = 1e-6 * rng.normal(size=3)
    arm1 = make_test_arm()
    arm2 = make_test_arm(base=Pose(np.asarray(base_shift)))
    q = random_nonsingular_q(arm1, rng)
    ks = np.exp(rng.uniform(np.log(5e5), np.log(5e6), 6))
    fk1 = forward_kinematics(arm1, q)
    # flange2_offset expressed in the arm-1 flange frame.
    flange2_offset = Pose(fk1.rotation().T @ np.asarray(base_shift))
    tool_offset = Pose(rng.uniform(-0.2, 0.2, 3))
    sys_ = CoupledSystem(
        arm1=dataclasses.replace(arm1, joint_stiffness=ks),
        arm2=dataclasses.replace(arm2, joint_stiffness=ks),
        spring=SpringModel(DEFAULT_SPRING * spring_scale),
        tool_offset=tool_offset,
        flange2_offset=flange2_offset,
    )
    return sys_, q, q, ks


def tool_point_branch_stiffness(sys_, q):
    fk1 = forward_kinematics(sys_.arm1, q)
    tool = fk1 @ sys_.tool_offset
    K = cartesian_stiffness(sys_.arm1, q)
    return transport_stiffness(K, tool.position - fk1.position)


class TestCartesianStiffness:
    def test_unit_jacobian_scalar(self):
        K = _stiffness_from_jacobian(np.array([[1.0]]), np.array([1e6]))
        np.testing.assert_allclose(K, [[1e6]])

    def test_compliance_finite_difference_oracle(self, test_arm):
        # Push a small wrench through the joint springs and measure the
        # Cartesian deflection with FK only.
        rng = np.random.default_rng(21)
        for _ in range(5):
            q = random_nonsingular_q(test_arm, rng)
            K = cartesian_stiffness(test_arm, q)
            J = jacobian(test_arm, q)
            C = np.linalg.inv(K)
            f0 = forward_kinematics(test_arm, q)
            for k in range(6):
                w = np.zeros(6)
                w[k] = 1.0
                scale = 1e-4 / np.linalg.norm(C[:, k])  # keep deflection ~1e-4
                dq = (1.0 / JOINT_STIFFNESS) * (J.T @ (scale * w))
                f1 = matrix_pose_rows(kinematics._flange(test_arm._chain_consts, q + dq))
                dx = f1[:3] - f0.position
                # linearization error is second order in the deflection
                assert np.linalg.norm(dx - scale * C[:3, k]) <= 1e-3 * 1e-4

    def test_positive_definite_random_postures(self, test_arm):
        rng = np.random.default_rng(22)
        for _ in range(100):
            q = random_nonsingular_q(test_arm, rng)
            eig = np.linalg.eigvalsh(cartesian_stiffness(test_arm, q))
            assert np.all(eig > 0)

    def test_symmetric(self, test_arm):
        rng = np.random.default_rng(23)
        q = random_nonsingular_q(test_arm, rng)
        K = cartesian_stiffness(test_arm, q)
        assert np.max(np.abs(K - K.T)) <= 1e-9 * np.max(np.abs(K))

    def test_singular_posture_raises(self):
        arm = make_one_link_arm()
        with pytest.raises(DomainError) as exc:
            cartesian_stiffness(arm, np.zeros(6))
        assert RANK_DEFICIENT.fullmatch(str(exc.value))
        assert (exc.value.index, exc.value.gap) == (0, None)

    def test_monotone_in_joint_stiffness(self, test_arm):
        rng = np.random.default_rng(24)
        for _ in range(20):
            q = random_nonsingular_q(test_arm, rng)
            base = np.exp(rng.uniform(np.log(5e5), np.log(5e6), 6))
            K0 = cartesian_stiffness(dataclasses.replace(test_arm, joint_stiffness=base), q)
            bumped = base.copy()
            i = rng.integers(6)
            bumped[i] *= rng.uniform(1.1, 3.0)
            K1 = cartesian_stiffness(dataclasses.replace(test_arm, joint_stiffness=bumped), q)
            e0 = np.linalg.eigvalsh(K0)
            e1 = np.linalg.eigvalsh(K1)
            assert np.all(e1 >= e0 * (1 - 1e-9))


class TestCoupledStiffness:
    def test_rigid_spring_doubles(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            sys_, q1, q2, _ = make_twin_system(rng, spring_scale=1e9)
            K = coupled_stiffness(sys_, q1, q2)
            K1 = tool_point_branch_stiffness(sys_, q1)
            np.testing.assert_allclose(K, 2 * K1, rtol=1e-3)

    def test_free_spring_decouples(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            sys_, q1, q2, _ = make_twin_system(rng, spring_scale=1e-9)
            K = coupled_stiffness(sys_, q1, q2)
            K1 = tool_point_branch_stiffness(sys_, q1)
            np.testing.assert_allclose(K, K1, rtol=1e-3)

    def test_energy_network_oracle(self):
        # Assemble the quadratic spring network independently (explicit
        # lever-arm adjoints) and extract the tool stiffness by a Schur
        # complement over the internal flange node. Arm 2 gets springs of its
        # own, so each branch must read its own arm's.
        rng = np.random.default_rng(27)
        sys_, q1, q2, _ = make_twin_system(rng)
        k2 = np.exp(rng.uniform(np.log(5e5), np.log(5e6), 6))
        sys_ = dataclasses.replace(sys_, arm2=dataclasses.replace(sys_.arm2, joint_stiffness=k2))
        K = coupled_stiffness(sys_, q1, q2)

        def lever(r):
            A = np.eye(6)
            A[0, 4], A[0, 5] = r[2], -r[1]
            A[1, 3], A[1, 5] = -r[2], r[0]
            A[2, 3], A[2, 4] = r[1], -r[0]
            return A

        fk1 = forward_kinematics(sys_.arm1, q1)
        fk2 = forward_kinematics(sys_.arm2, q2)
        attach = fk1 @ sys_.flange2_offset
        tool = fk1 @ sys_.tool_offset
        K1 = cartesian_stiffness(sys_.arm1, q1)
        K2 = cartesian_stiffness(sys_.arm2, q2)
        R6 = rotate6(attach.rotation())
        Ks = R6 @ sys_.spring.K @ R6.T
        # Ground springs at their own points, tool node at the tool point,
        # internal node at the attach point.
        A1 = lever(fk1.position - tool.position)    # twist at tool -> twist at flange 1
        As = lever(attach.position - tool.position)  # twist at tool -> twist at spring end 1
        # Energy: 0.5 x1' K1 x1 + 0.5 x2' K2 x2 + 0.5 (x2 - As xt)' Ks (x2 - As xt)
        # with x1 = A1 xt. Quadratic form in (xt, x2):
        P = A1.T @ K1 @ A1 + As.T @ Ks @ As
        Q = -Ks @ As
        S = K2 + Ks
        K_oracle = P - Q.T @ np.linalg.solve(S, Q)
        np.testing.assert_allclose(K, K_oracle, rtol=1e-3)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            sys_, q1, q2, _ = make_twin_system(rng)
            K = coupled_stiffness(sys_, q1, q2)
            assert np.max(np.abs(K - K.T)) <= 1e-9 * np.max(np.abs(K))
            assert np.all(np.linalg.eigvalsh(K) > 0)

    def test_closure_violation_raises(self):
        rng = np.random.default_rng(29)
        sys_, q1, q2, _ = make_twin_system(rng)
        q2_bad = q2 + 0.05
        with pytest.raises(DomainError) as exc:
            coupled_stiffness(sys_, q1, q2_bad)
        assert exc.value.gap > 1e-4

    def test_commanded_pairs_give_simulate_deformations_delta(self, cfg, demo_program):
        """The commanded arm-2 joints of a tensioned program sit the setpoint
        offset (about 0.27 mm on the demo slot at 1000 N) from the
        attachment frame, within MAX_OFFSET: coupled_stiffness takes them,
        and gives exactly the deformation simulate_deformation applies.
        tension_offset, which takes nominal pairs, refuses them at
        setpoint 0."""
        sp = demo_program.pairs
        K = coupled_stiffness(cfg.system, sp.q1, sp.q2)
        w = np.broadcast_to(demo_program.tension.as_vector(), sp.q1.shape)
        delta = np.linalg.solve(K, w[..., None])[..., 0]
        np.testing.assert_array_equal(simulate_deformation(cfg.system, demo_program).points,
                                      sp.tool_pose[:, :3] + delta[:, :3])
        with pytest.raises(DomainError) as exc:
            tension_offset(cfg.system, sp.q1, sp.q2, demo_program.tension)
        assert exc.value.index == 0
        assert exc.value.gap == pytest.approx(2.73e-4, rel=1e-2)
        # A nominal pair's gap is a closure violation, not a commanded offset.
        assert str(exc.value) == (f"kinematic closure violated: arm-2 flange is {exc.value.gap:.3e} m from its "
                                  "attachment frame")

    def test_pair_past_max_offset_is_refused(self, cfg, demo_program):
        """Arm-2 joints that reach 20 mm from the nominal arm-2 flange,
        FK1(q1) ∘ flange2_offset, at row ROW of a STACK-row stack (in its
        second block) are refused with that row and their gap."""
        sp = demo_program.pairs
        idx = np.arange(STACK) % len(sp)
        idx[ROW] = 11
        q1, q2 = sp.q1[idx], sp.q2[idx].copy()
        nominal = forward_kinematics(cfg.system.arm1, q1[ROW]) @ cfg.system.flange2_offset
        q2[ROW] = inverse_kinematics(cfg.system.arm2, nominal @ Pose(np.array([0.0, 0.02, 0.0])), q2[ROW])
        with pytest.raises(DomainError) as exc:
            coupled_stiffness(cfg.system, q1, q2)
        assert exc.value.index == ROW
        gap = np.linalg.norm(forward_kinematics(cfg.system.arm2, q2[ROW]).position - nominal.position)
        assert exc.value.gap == pytest.approx(gap, rel=1e-9)
        assert exc.value.gap == pytest.approx(0.02, abs=DEFAULT_TOL_POS)
        assert str(exc.value) == f"commanded arm-2 flange is {exc.value.gap:.3e} m from the nominal one"


class TestTension:
    def test_zero_wrench_zero_offset(self):
        sys_, q1, q2, _ = make_twin_system()
        offset = tension_offset(sys_, q1, q2, Wrench(np.zeros(3)))
        assert np.all(offset == 0.0)

    def test_soft_spring_dominates_compliance(self):
        # With the spring orders of magnitude softer than the arm, the
        # offset for a pure force is the spring compliance times the force.
        rng = np.random.default_rng(30)
        sys_, q1, q2, _ = make_twin_system(rng, spring_scale=1e-6)
        fk1 = forward_kinematics(sys_.arm1, q1)
        attach = fk1 @ sys_.flange2_offset
        R6 = rotate6(attach.rotation())
        Cs = np.linalg.inv(R6 @ sys_.spring.K @ R6.T)
        F = np.array([1000.0, 0.0, 0.0])
        offset = tension_offset(sys_, q1, q2, Wrench(F))
        expected = Cs @ np.concatenate([F, np.zeros(3)])
        # the arm contributes ~1e-6 m/N of extra series compliance
        np.testing.assert_allclose(offset, expected, rtol=1e-4, atol=1e-2)

    def test_round_trip_inverse_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sys_, q1, q2, _ = make_twin_system(rng)
            w = Wrench(rng.uniform(-2000, 2000, 3), rng.uniform(-200, 200, 3))
            offset = tension_offset(sys_, q1, q2, w)
            back = predicted_tension(sys_, q1, q2, offset)
            np.testing.assert_allclose(back.as_vector(), w.as_vector(), rtol=1e-9, atol=1e-9)

    def test_linearity(self):
        sys_, q1, q2, _ = make_twin_system()
        offset = tension_offset(sys_, q1, q2, Wrench(np.array([500.0, -200.0, 100.0])))
        w1 = predicted_tension(sys_, q1, q2, offset)
        w2 = predicted_tension(sys_, q1, q2, 2 * offset)
        np.testing.assert_allclose(w2.as_vector(), 2 * w1.as_vector(), rtol=1e-12)
        assert np.all(predicted_tension(sys_, q1, q2, np.zeros(6)).as_vector() == 0.0)


class TestTypes:
    def test_spring_must_be_spd(self):
        with pytest.raises(Exception):
            SpringModel(np.diag([1.0, 1, 1, 1, 1, -1]))
        bad = DEFAULT_SPRING.copy()
        bad[0, 1] = 1e3  # asymmetric
        with pytest.raises(Exception):
            SpringModel(bad)

    def test_wrench_arrays_are_read_only_copies(self):
        f, t = np.array([1000.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
        w = Wrench(f, t)
        with pytest.raises(ValueError):
            w.force[1] = 7.0
        with pytest.raises(ValueError):
            w.torque[0] = 7.0
        f[0] = t[1] = 5.0  # the caller's arrays stay writeable and are not the wrench's
        np.testing.assert_array_equal(w.as_vector(), [1000.0, 0.0, 0.0, 0.0, 2.0, 0.0])
        stacked = Wrench(np.ones((4, 3)))
        with pytest.raises(ValueError):
            stacked.force[2, 0] = 7.0
        with pytest.raises(ValueError):
            stacked.torque[2, 0] = 7.0

    def test_a_wrench_whose_square_is_finite_is_taken(self):
        """Per row of a stack; one whose squared norm overflows is refused."""
        edge = 1.3e154  # its square, 1.69e308, and its sum with two zeros are finite
        assert Wrench(np.array([edge, 0.0, 0.0]), np.array([0.0, 0.0, -edge])).force[0] == edge
        stacked = np.zeros((3, 3))
        stacked[:, 0] = edge
        Wrench(stacked)

    def test_spring_is_read_only(self):
        K = DEFAULT_SPRING.copy()
        spring = SpringModel(K)
        with pytest.raises(ValueError):
            spring.K[0, 0] *= 2
        with pytest.raises(ValueError):
            spring.compliance[0, 0] *= 2
        K[0, 0] = 1.0  # the caller's array stays writeable and is not the model's
        np.testing.assert_allclose(spring.compliance, np.linalg.inv(DEFAULT_SPRING), rtol=1e-12)

    def test_distinct_bases_required(self):
        arm = make_test_arm()
        with pytest.raises(Exception):
            CoupledSystem(arm, arm, SpringModel(DEFAULT_SPRING))


class TestCellSha256:
    """The cell hash is pinned as hex on every platform: its bytes are parsed
    floats, not computed ones. Both demo arms have the same springs, so a
    cell whose arm 2 is twice as compliant pins the order of the springs."""

    def test_the_demo_cell_hash_is_pinned(self, cfg):
        assert cell_sha256(cfg.system) == "b89aca6772a23a388c1819ec4159b00c47a108e9f17d4de14884af7df296af3d"

    def test_swapping_the_two_arms_springs_changes_the_hash(self, cfg):
        sys_ = cfg.system
        stiff, soft = sys_.arm1.joint_stiffness, sys_.arm2.joint_stiffness / 2

        def with_springs(k1, k2):
            return cell_sha256(dataclasses.replace(sys_, arm1=dataclasses.replace(sys_.arm1, joint_stiffness=k1),
                                                   arm2=dataclasses.replace(sys_.arm2, joint_stiffness=k2)))

        assert with_springs(stiff, soft) == "8e9329d11538a9e807816574722bcbdf139d17e4939b938762f3b1ce95f72ad9"
        assert with_springs(soft, stiff) == "02039ca186a84c532cef0471bc1cc4999a833ac61feaae09ed6b96f489218810"


@pytest.fixture(scope="module")
def demo_rows(cfg, demo_program):
    return nominal_rows(cfg, demo_program)


def _assert_rows_equal(stacked, per_row):
    """Equal to 1e-12 relative to each row's largest entry."""
    assert stacked.shape == per_row.shape
    scale = np.max(np.abs(per_row), axis=tuple(range(1, per_row.ndim)), keepdims=True)
    assert np.all(np.abs(stacked - per_row) <= 1e-12 * scale)


class TestStacked:
    """Stacked q[..., 6] gives the per-row scalar results, also across the
    block boundary of the stacked evaluation."""

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_matches_per_row_scalar_calls(self, cfg, demo_rows, n):
        sys_ = cfg.system
        m = len(demo_rows[0])
        # Rows repeat with period m, so the scalar reference is computed once per distinct row.
        idx = np.arange(n) % m
        q1, q2 = demo_rows[0][idx], demo_rows[1][idx]
        w = Wrench(np.array([1000.0, -200.0, 50.0]), np.array([3.0, -1.0, 2.0]))
        offsets = np.random.default_rng(n).normal(0.0, 1e-4, (n, 6))

        def per_row(fn):
            rows = [fn(demo_rows[0][i], demo_rows[1][i]) for i in range(m)]
            return np.array(rows)[idx]

        cases = [
            (jacobian(sys_.arm1, q1), lambda a, b: jacobian(sys_.arm1, a)),
            (cartesian_stiffness(sys_.arm2, q2),
             lambda a, b: cartesian_stiffness(sys_.arm2, b)),
            (coupled_stiffness(sys_, q1, q2), lambda a, b: coupled_stiffness(sys_, a, b)),
            (tension_offset(sys_, q1, q2, w), lambda a, b: tension_offset(sys_, a, b, w)),
        ]
        for stacked, scalar in cases:
            _assert_rows_equal(stacked, per_row(scalar))
        back = predicted_tension(sys_, q1, q2, offsets).as_vector()
        expected = np.array([
            predicted_tension(sys_, q1[i], q2[i], offsets[i]).as_vector() for i in range(n)
        ])
        _assert_rows_equal(back, expected)

    def test_single_configuration_shapes_unchanged(self, cfg, demo_rows):
        sys_ = cfg.system
        q1, q2 = demo_rows[0][0], demo_rows[1][0]
        assert jacobian(sys_.arm1, q1).shape == (6, 6)
        assert cartesian_stiffness(sys_.arm1, q1).shape == (6, 6)
        assert coupled_stiffness(sys_, q1, q2).shape == (6, 6)
        assert tension_offset(sys_, q1, q2, Wrench(np.array([1.0, 0.0, 0.0]))).shape == (6,)
        back = predicted_tension(sys_, q1, q2, np.zeros(6))
        assert back.force.shape == (3,) and back.torque.shape == (3,)

    def test_leading_axes_broadcast(self, cfg, demo_rows):
        sys_ = cfg.system
        q1 = demo_rows[0][:6].reshape(2, 3, 6)
        q2 = demo_rows[1][:6].reshape(2, 3, 6)
        K = coupled_stiffness(sys_, q1, q2)
        assert K.shape == (2, 3, 6, 6)
        flat = coupled_stiffness(sys_, demo_rows[0][:6], demo_rows[1][:6])
        _assert_rows_equal(K.reshape(6, 6, 6), flat)

    def test_error_names_the_stack_row(self, cfg, demo_rows):
        idx = np.arange(STACK) % len(demo_rows[0])
        q1, q2 = demo_rows[0][idx], demo_rows[1][idx]
        q2[ROW, 0] += 0.01  # opens the chain in the second block
        with pytest.raises(DomainError) as exc:
            coupled_stiffness(cfg.system, q1, q2)
        assert exc.value.index == ROW
        assert exc.value.gap > stiffness.MAX_OFFSET
        assert str(exc.value) == stiffness.COMMANDED_GAP.format(gap=exc.value.gap)


class TestBlockRows:
    """Stacked rows are computed independently, so every stacked result
    is the same, bit for bit, whatever the block size: here against one
    block of all N rows."""

    N = 600

    @pytest.mark.parametrize("rows", [1, 7, 256, 512, N])
    def test_results_are_bit_identical_for_every_block_size(self, cfg, demo_program, demo_rows, monkeypatch, rows):
        sys_, sp = cfg.system, demo_program.pairs
        idx = np.arange(self.N) % len(sp)
        q1, q2 = demo_rows[0][idx], demo_rows[1][idx]
        program = SyncProgram(Setpoints(sp.tool_pose[idx], sp.q1[idx], sp.q2[idx]), tension=demo_program.tension,
                              cell_sha256=demo_program.cell_sha256)
        w = Wrench(np.array([1000.0, -200.0, 50.0]), np.array([3.0, -1.0, 2.0]))
        offsets = np.random.default_rng(5).normal(0.0, 1e-4, (self.N, 6))

        def results():
            return [coupled_stiffness(sys_, q1, q2), tension_offset(sys_, q1, q2, w),
                    predicted_tension(sys_, q1, q2, offsets).as_vector(),
                    cartesian_stiffness(sys_.arm1, q1),
                    simulate_deformation(sys_, program).points]

        monkeypatch.setattr(stiffness, "_BLOCK_ROWS", self.N)
        expected = results()
        monkeypatch.setattr(stiffness, "_BLOCK_ROWS", rows)
        for got, want in zip(results(), expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


RANK_DEFICIENT = re.compile(r"Jacobian is rank deficient \(smallest singular value \S+\); "
                            r"deficient direction dominated by axis '(x|y|z|rx|ry|rz)'")


class TestRankScreen:
    """The Cartesian stiffness bounds each row's smallest singular value
    by 1 / ||J^-1||_F of one batched inverse, which is also its J^-1, and
    the arm-2 branch by |det J| / ||J||_F^5 (`TestBranchRankScreen`); the
    rows a bound cannot certify get the SVD, which names the first
    deficient one."""

    @pytest.fixture
    def stack(self, test_arm):
        rng = np.random.default_rng(41)
        return np.array([random_nonsingular_q(test_arm, rng) for _ in range(STACK)])

    def test_exactly_singular_matrix_alone_goes_to_the_svd(self, test_arm, stack, monkeypatch):
        J = jacobian(test_arm, stack)
        J[ROW, :, 2] = 0.0  # np.linalg.inv raises on the whole block
        stacks = TestBranchRankScreen.recorded(monkeypatch, "svd")
        with pytest.raises(DomainError) as exc:
            _stiffness_from_jacobian(J, JOINT_STIFFNESS)
        assert exc.value.index == ROW
        assert RANK_DEFICIENT.fullmatch(str(exc.value))
        # The other rows are inverted one at a time and certified by their own bound.
        assert [a.shape for a in stacks] == [(1, 6, 6), (6, 6)]
        np.testing.assert_array_equal(stacks[0][0], J[ROW])

    def test_full_rank_block_whose_inverse_fails_is_inverted_by_its_svd(self, test_arm, stack):
        """LU meets an exact zero pivot in [[3, 1], [1, 1/3]] * 1e9, whose
        smallest singular value is still about 5e-8: that row gets K from
        its SVD's inverse, and the other rows keep their own stiffness, bit
        for bit."""
        J = jacobian(test_arm, stack[:4])
        odd = np.eye(6)
        odd[:2, :2] = [[3.0, 1.0], [1.0, 1.0 / 3.0]]
        odd *= 1e9
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(odd)
        assert np.linalg.svd(odd, compute_uv=False)[-1] > 1e-8
        K = _stiffness_from_jacobian(np.concatenate([J, odd[None]]), JOINT_STIFFNESS)
        np.testing.assert_array_equal(K[:4], _stiffness_from_jacobian(J, JOINT_STIFFNESS))
        u, sv, vt = np.linalg.svd(odd)
        odd_inverse = (vt.T / sv) @ u.T
        np.testing.assert_allclose(K[4], odd_inverse.T @ np.diag(JOINT_STIFFNESS) @ odd_inverse, rtol=1e-9)

    def test_demo_rows_are_certified_without_an_svd(self, cfg, demo_rows, monkeypatch):
        idx = np.arange(STACK) % len(demo_rows[0])
        q1, q2 = demo_rows[0][idx], demo_rows[1][idx]
        expected = coupled_stiffness(cfg.system, q1, q2)

        def no_svd(*args, **kwargs):
            raise AssertionError("the rank check ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        np.testing.assert_array_equal(coupled_stiffness(cfg.system, q1, q2), expected)
        tension_offset(cfg.system, q1, q2, Wrench(np.array([1000.0, 0.0, 0.0])))


class TestBranchRankScreen:
    """The arm-2 branch screens its Jacobians by sigma_min >= |det J| /
    ||J||_F^5 and takes no inverse of them; its refusals are those of the
    SVD, as for the Cartesian stiffness."""

    @staticmethod
    def recorded(monkeypatch, name):
        """The first arguments of every `np.linalg.<name>` call, as copies."""
        calls, real = [], getattr(np.linalg, name)

        def spy(a, *args, **kwargs):
            calls.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_zero_determinant_goes_to_the_svd(self, test_arm, monkeypatch):
        rng = np.random.default_rng(43)
        J = jacobian(test_arm, np.array([random_nonsingular_q(test_arm, rng) for _ in range(8)]))
        J[5, :, 2] = 0.0
        assert np.linalg.det(J[5]) == 0.0
        stacks = self.recorded(monkeypatch, "svd")
        with pytest.raises(DomainError) as exc:
            _compliance_from_jacobian(J, JOINT_STIFFNESS)
        assert exc.value.index == 5
        assert RANK_DEFICIENT.fullmatch(str(exc.value))
        # The SVD of the one uncertified row decides, then names it.
        assert [a.shape for a in stacks] == [(1, 6, 6), (6, 6)]
        np.testing.assert_array_equal(stacks[0][0], J[5])

    def test_a_bound_within_the_rounding_margin_goes_to_the_svd(self, monkeypatch):
        """|det J| / ||J||_F of diag(1, 1.5e-8) is 1.5e-8: above 1e-8 but
        within the factor-2 margin, so the SVD decides, and keeps it."""
        J = np.array([np.eye(2), np.diag([1.0, 1.5e-8])])
        stacks = self.recorded(monkeypatch, "svd")
        np.testing.assert_array_equal(_compliance_from_jacobian(J, np.ones(2)), J @ J)
        assert [a.shape for a in stacks] == [(1, 2, 2)]

    def test_the_branch_takes_no_inverse(self, cfg, demo_rows, monkeypatch):
        """`tension_offset` is the branch alone, and `coupled_stiffness`
        inverts only arm 1's Jacobians, once per block."""
        idx = np.arange(STACK) % len(demo_rows[0])
        q1, q2 = demo_rows[0][idx], demo_rows[1][idx]
        inverted = self.recorded(monkeypatch, "inv")
        tension_offset(cfg.system, q1, q2, Wrench(np.array([1000.0, 0.0, 0.0])))
        assert inverted == []
        coupled_stiffness(cfg.system, q1, q2)
        np.testing.assert_array_equal(np.concatenate(inverted), jacobian(cfg.system.arm1, q1))


class TestSpdInverse:
    """`_spd_inverse` inverts the Cholesky factor by forward substitution."""

    @pytest.fixture
    def spd_stack(self):
        A = np.random.default_rng(42).normal(size=(STACK, 6, 6))
        return A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(6)

    def test_single_matrix(self, spd_stack):
        np.testing.assert_allclose(_spd_inverse(spd_stack[0], "M"), np.linalg.inv(spd_stack[0]),
                                   rtol=0, atol=1e-12 * np.max(np.abs(np.linalg.inv(spd_stack[0]))))

    def test_the_first_of_two_non_positive_definite_rows_is_named(self, spd_stack):
        spd_stack[[ROW, LATER_ROW], 3, 3] = -1.0
        with pytest.raises(DomainError) as exc:
            _spd_inverse(spd_stack, "M")
        assert exc.value.index == ROW
        assert str(exc.value) == "M is not positive definite: Matrix is not positive definite"
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


class TestFramePasses:
    """Kinematic-chain rows per setpoint, as (flange-only, full) rows: the
    flange-only kernel `_flange` builds no frame stack and no Jacobian,
    the full `_chain` both. `coupled_stiffness` takes (1, 2): arm 1's
    flange, then arm 1's Jacobian in `cartesian_stiffness` and arm 2's
    flange and Jacobian in one pass, which also checks the commanded
    arm-2 flange against MAX_OFFSET. `tension_offset` takes (1, 1) and
    `simulate_deformation` (2, 2): arm 1's flange for its tool-row check,
    then `coupled_stiffness`."""

    @pytest.fixture
    def chain_rows(self, monkeypatch):
        rows = {"_flange": 0, "_chain": 0}

        def counted(name):
            kernel = getattr(kinematics, name)

            def spy(consts, q):
                rows[name] += int(np.prod(q.shape[:-1]))
                return kernel(consts, q)

            monkeypatch.setattr(kinematics, name, spy)

        for name in rows:
            counted(name)
        return rows

    @pytest.fixture
    def pairs(self, demo_rows):
        idx = np.arange(STACK) % len(demo_rows[0])
        return demo_rows[0][idx], demo_rows[1][idx]

    def test_coupled_stiffness(self, cfg, pairs, chain_rows):
        coupled_stiffness(cfg.system, *pairs)
        assert chain_rows == {"_flange": STACK, "_chain": 2 * STACK}

    def test_tension_offset(self, cfg, pairs, chain_rows):
        tension_offset(cfg.system, *pairs, Wrench(np.array([1000.0, 0.0, 0.0])))
        assert chain_rows == {"_flange": STACK, "_chain": STACK}

    def test_simulate_deformation(self, cfg, demo_program, chain_rows):
        simulate_deformation(cfg.system, demo_program)
        n = len(demo_program.pairs)
        assert chain_rows == {"_flange": 2 * n, "_chain": 2 * n}
