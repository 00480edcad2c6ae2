"""Cost-sensitive multi-class boosting with jointly optimized binary weak learners."""

from .costs import CostMatrix, loss_floor, normalize_random_unit
from .io import Dataset, load_dataset, load_model, save_model
from .loss import empirical_risk
from .weak import Stump, Tree, build_grid, grow_layer, stump_search
from .boost import StrongClassifier, TrainConfig, predict_all, train
from .baselines import adaboost_train, posterior_all, two_step_predict_all
from .evaluation import evaluate, select_rounds
from .synth import gen_cost_matrix, gen_dataset, random_mixture_spec, run_comparison

__version__ = "0.1.0"
