import json

import numpy as np
import pytest

from isddp.cuts import CutPool
from isddp.ddp_engine import run_iddp
from isddp.models import (
    IterationRecord,
    ModelError,
    RunLog,
    StageModel,
    StochasticModel,
    StochasticStageModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from isddp.schedules import EXACT_SCHEDULE
from isddp.sddp_engine import make_pools
from isddp.toys import TOYS, toy_det_t3, toy_sto_t3_m2


class TestValidation:
    def test_stage_dimension_mismatch(self):
        with pytest.raises(ModelError):
            StageModel(A=[[1.0, 0.0]], B=[[1.0]], b=[1.0, 2.0], c=[0.0, 0.0])

    def test_chain_state_mismatch(self):
        s1 = StageModel(A=[[1.0, 1.0]], B=[[1.0]], b=[1.0], c=[0.0, 0.0])
        s2 = StageModel(A=[[1.0]], B=[[1.0]], b=[1.0], c=[0.0])  # expects dim 1
        with pytest.raises(ModelError):
            StochasticModel.chain([s1, s2], x0=np.array([0.0]), floors=np.array([0.0]))

    def test_probabilities_positive_and_normalized(self):
        s = StageModel(A=[[1.0]], B=[[1.0]], b=[1.0], c=[0.0])
        with pytest.raises(ModelError):
            StochasticStageModel(realizations=[s, s], probs=[0.5, 0.6])
        with pytest.raises(ModelError):
            StochasticStageModel(realizations=[s, s], probs=[1.0, 0.0])

    def test_chain_needs_a_stage(self):
        with pytest.raises(ModelError):
            StochasticModel.chain([], x0=np.array([0.0]), floors=np.zeros(0))

    def test_stage_accessor(self):
        sto, chain = toy_sto_t3_m2(), toy_det_t3()
        assert sto.stage(1) is sto.stage1
        assert sto.stage(3, 1) is sto.stages[1].realizations[1]
        assert chain.stage(2) is chain.stages[0].realizations[0]

    def test_floor_count(self):
        s = StageModel(A=[[1.0]], B=[[1.0]], b=[1.0], c=[0.0])
        with pytest.raises(ModelError):
            StochasticModel.chain([s], x0=np.array([0.0]), floors=np.array([1.0]))

    def test_structure_is_a_and_c_serialized_once(self):
        s = StageModel(A=[[1.0, 2.0], [0.0, 3.0]], B=[[1.0], [0.5]], b=[1.0, 2.0], c=[4.0, 5.0])
        structure = s.structure
        assert structure == (s.A.shape, s.A.tobytes(), s.c.tobytes())
        assert s.structure is structure


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_toys_round_trip(self, name, tmp_path):
        model = TOYS[name]()
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)

    def test_unknown_type_rejected(self):
        with pytest.raises(ModelError):
            model_from_json(json.dumps({"type": "mystery"}))


class TestRunLogCsv:
    def test_deterministic_schema(self, tmp_path):
        # one format for the four algorithms: a one-path log names its schedule too
        log = RunLog(algorithm="iddp", meta={"eps_bar": 0.1, "eps0": 1e-12})
        log.records.append(
            IterationRecord(k=1, lb=-1.0, ub=0.5, gap=3.0, wall_ms=1.25, n_paths=1)
        )
        path = tmp_path / "log.csv"
        log.write_csv(path)
        header, row = path.read_text().strip().split("\n")
        assert header == "iter,lb,ub,gap,n_paths,wall_ms,eps_bar,eps0"
        assert row.startswith("1,-1.0,0.5,3.0,1,")
        assert row.endswith(",0.1,1e-12")

    def test_sampled_schema(self, tmp_path):
        log = RunLog(algorithm="isddp", meta={"eps_bar": 0.1, "eps0": 1e-12})
        log.records.append(
            IterationRecord(k=1, lb=-1.0, ub=0.5, gap=3.0, wall_ms=1.25, n_paths=200)
        )
        path = tmp_path / "log.csv"
        log.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,lb,ub,gap,n_paths,wall_ms,eps_bar,eps0"


class TestPoolWarmRestart:
    def test_serialized_pools_resume_a_run(self):
        model = toy_det_t3()
        pools = make_pools(model)
        first = run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=2, initial_pools=pools)
        # serialize, reload, and keep iterating from the reloaded pools
        reloaded = {t: CutPool.from_dict(p.to_dict()) for t, p in pools.items()}
        resumed = run_iddp(
            model, EXACT_SCHEDULE, tol=1e-9, max_iter=50, initial_pools=reloaded
        )
        assert resumed.records[0].lb >= first.final_lb - 1e-12
        v_lb = resumed.final_lb
        fresh = run_iddp(model, EXACT_SCHEDULE, tol=1e-9, max_iter=50)
        assert v_lb == pytest.approx(fresh.final_lb, abs=1e-9)

    def test_degenerate_lift_preserves_solution(self):
        # a "deterministic" file (a plain list of stages) loads as the chain
        toy = toy_det_t3()
        stages = [toy.stage(t).to_dict() for t in range(1, toy.horizon + 1)]
        text = json.dumps({"type": "deterministic", "x0": toy.x0.tolist(),
                           "floors": toy.floors.tolist(), "stages": stages})
        model = model_from_json(text)
        assert model.deterministic and model.num_scenarios() == 1
        assert model_to_json(model) == model_to_json(toy)
        assert json.loads(model_to_json(model))["type"] == "stochastic"
        assert not toy_sto_t3_m2().deterministic
