import numpy as np
import pytest

from graphamp import CheckReport, goe_projection_checks, onsager_fd_check, opnorm_check, stein_check
from graphamp.ensembles import stream
from graphamp.nonlinearity import FD_STEP, Entrywise, FromCallable, Identity


def _tanh_pair():
    return Entrywise(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)


def test_stein_identity_holds_for_tanh():
    kappa = np.array([[1.0, 0.5], [0.5, 1.0]])
    rep = stein_check(_tanh_pair(), kappa, n=2000, M=100, rng=stream(0, "stein-ok"))
    assert rep.passed
    assert rep.statistic <= 3.0
    assert rep.params["q"] == 1


def test_stein_identity_holds_blockwise_for_identity():
    # q = 2 with cross-block correlation; the identity map makes the
    # prediction kappa_12 * n exact up to MC error
    C = np.array([[1.0, 0.3, 0.4, 0.0],
                  [0.3, 1.0, 0.1, 0.2],
                  [0.4, 0.1, 1.0, 0.25],
                  [0.0, 0.2, 0.25, 1.0]])
    rep = stein_check(Identity(), C, n=1500, M=100, rng=stream(0, "stein-id"))
    assert rep.passed
    assert rep.details["z_block"].shape == (2, 2)


def test_stein_flags_a_wrong_jacobian():
    wrong = Entrywise(np.tanh, lambda x: np.ones_like(x))
    kappa = np.array([[1.0, 0.5], [0.5, 1.0]])
    rep = stein_check(wrong, kappa, n=2000, M=100, rng=stream(0, "stein-bad"))
    assert not rep.passed
    assert rep.statistic > 10.0


def test_onsager_fd_agrees_for_smooth_map():
    rng = stream(0, "fd-ok")
    x = rng.normal(size=(300, 1))
    rep = onsager_fd_check(_tanh_pair(), [x])
    assert rep.passed
    assert rep.statistic <= 1e-5


def test_onsager_fd_reports_the_step_its_oracle_takes():
    rng = stream(0, "fd-step")
    rep = onsager_fd_check(_tanh_pair(), [rng.normal(size=(50, 1))])
    assert rep.params["step"] == FD_STEP
    assert f"step={FD_STEP}" in rep.row()["params"]


def test_onsager_fd_flags_a_wrong_jacobian():
    def jac(inputs, side, wrt):
        # deliberately doubled trace
        return np.array([[2.0 * float(np.sum(1.0 - np.tanh(inputs[0]) ** 2))]])

    broken = FromCallable(lambda inputs, side=None: np.tanh(inputs[0]),
                          jac=jac)
    rng = stream(0, "fd-bad")
    x = rng.normal(size=(200, 1))
    rep = onsager_fd_check(broken, [x])
    assert not rep.passed
    # doubled analytic trace shows up as rel error 0.5 exactly
    assert rep.statistic == pytest.approx(0.5, abs=1e-6)


def test_goe_projection_suite_passes_at_desk_scale():
    reports = goe_projection_checks(n=800, q=2, t_rank=1, M=30,
                                    rng=stream(0, "goe-suite"))
    ids = [r.check_id for r in reports]
    assert ids == ["goe_a_bilinear", "goe_b_projection", "goe_c_moments",
                   "goe_d_gram"]
    for r in reports:
        assert r.passed, f"{r.check_id}: stat={r.statistic:.4f}"
    # the projected-power statistic really is o(1): its mean is far
    # below the fluctuation scale q * t_rank
    assert reports[1].statistic < 0.05


def test_opnorm_concentrates_near_two():
    reports = opnorm_check([400], seeds=[0, 1])
    for r in reports:
        assert r.passed
        assert 1.5 < r.statistic < 2.5
        assert r.abs_tol == pytest.approx(5.0 * 400 ** (-1.0 / 3.0))


def test_report_gate_prefers_abs_tol_over_z():
    by_z = CheckReport(check_id="c", params={}, statistic=1.0, predicted=0.0,
                       stderr=0.5, z_threshold=3.0)
    assert by_z.z == pytest.approx(2.0)
    assert by_z.passed
    by_tol = CheckReport(check_id="c", params={}, statistic=1.0, predicted=0.0,
                         stderr=0.5, z_threshold=3.0, abs_tol=0.5)
    assert not by_tol.passed


def test_report_zero_stderr_degenerates_cleanly():
    exact = CheckReport(check_id="c", params={}, statistic=2.0, predicted=2.0,
                        stderr=0.0, z_threshold=3.0)
    assert exact.z == 0.0 and exact.passed
    off = CheckReport(check_id="c", params={}, statistic=2.1, predicted=2.0,
                      stderr=0.0, z_threshold=3.0)
    assert off.z == np.inf and not off.passed


def test_report_row_is_flat_and_csv_ready():
    rep = CheckReport(check_id="c", params={"n": 10, "seed": 3},
                      statistic=1.5, predicted=1.0, stderr=0.25,
                      z_threshold=3.0)
    row = rep.row()
    assert row["params"] == "n=10;seed=3"
    assert row["pass"] == 1
    assert set(row) == {"check_id", "params", "statistic", "predicted",
                        "stderr", "z", "pass"}
