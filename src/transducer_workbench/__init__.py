"""Desk-scale neural transducer workbench.

Implements exact transducer lattice loss with an enumeration oracle,
additive and multiplicative joint networks, LSTM encoder/prediction/LM
stacks with closed-form backprop, the augmentation recipe, alignment-length
synchronous beam search, density-ratio LM fusion and two-model combination,
optimizer/schedule studies, and a synthetic-task experiment pipeline.
"""

from .augment import (
    NoiseInjectConfig,
    SpecAugmentConfig,
    SwitchoutConfig,
    replica_expand,
    sequence_noise_inject,
    spec_augment,
    speed_tempo_perturb,
    switchout,
)
from .data import (
    Alphabet,
    Dataset,
    SyntheticTaskConfig,
    Utterance,
    generate_synthetic_task,
    read_features,
    write_features,
)
from .decoding import alsd_beam, exhaustive_decode, greedy_decode
from .fusion import (
    CombinationWeights,
    FusionWeights,
    NBestRecord,
    combination_score,
    combine_rescore,
    density_ratio_score,
    top1_wer,
    tune_weights,
)
from .joint import JointParams, joint_backward, joint_forward
from .lattice import (
    BLANK_ID,
    brute_force_nll,
    enumerate_alignments,
    rnnt_backward,
    rnnt_forward,
)
from .model import ModelConfig, TransducerModel, init_model, load_checkpoint, save_checkpoint
from .networks import (
    CharLMConfig,
    EncoderConfig,
    LSTMParams,
    PredictionConfig,
    encode,
    lm_score,
    lstm_forward,
    predict_embed,
    sample_dropconnect_mask,
    stack_and_skip,
)
from .numerics import RandomStream, finite_difference_gradient, log_softmax, log_sum_exp
from .scoring import compute_wer
from .training import (
    OptimizerConfig,
    ScheduleConfig,
    TrainingRecipe,
    adamw_step,
    lr_at,
    momentum_sgd_step,
    train,
)

__version__ = "0.1.0"
