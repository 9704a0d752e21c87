"""Multi-modal survival prediction with missing modalities.

Per-modality encoders map raw features to fixed-width embeddings; a fusion
stage combines whatever subset of modalities a patient has, by
concatenation, mean vector, or tensor product, and scores survival risk
under a Cox partial-likelihood objective with modality dropout and a
masked reconstruction loss.

Importing the package pins BLAS to one thread unless the caller already set
a count: how a product's rounding falls depends on how many threads split
it, so one thread keeps outputs the same from machine to machine. The pin
works only if numpy is not yet loaded when mmsurv is imported.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .cohort import (Cohort, MissingnessScenario, ModalityId, ModalitySchema,
                     apply_scenario, complete_subset, generate_synthetic,
                     load_cohort, load_schema, save_cohort, save_schema,
                     scenario_by_name)
from .config import TrainConfig, fit
from .errors import ConfigError, DataError, MmsurvError, NumericalError
from .fusion import (FusionModel, FusionStrategy, fuse, init_fusion_model,
                     modality_dropout, model_footprint, recon_loss_and_grad)
from .gradcheck import run_gradient_checks
from .nets import DenseNet, OptimizerState, init_net
from .pipeline import (AblationReport, ExperimentCell, SurvivalPredictor,
                       default_synthetic_pair, evaluate, load_predictor,
                       run_ablation_grid, save_predictor, table_cells,
                       train_cell, train_fusion_on_table)
from .survival import concordance_index, cox_loss_and_grad
from .unimodal import (UnimodalEncoder, embedding_table, load_unimodal,
                       save_unimodal, train_unimodal)

__version__ = "0.1.0"
