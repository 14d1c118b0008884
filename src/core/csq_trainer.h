// CSQ training pipeline — the paper's Algorithm 1.
//
//   1. Joint phase: train s, m_p, m_n, m_B with the budget-aware
//      regularizer; the shared temperature beta grows exponentially from
//      beta0 to beta_max across the epochs.
//   2. (optional) Finetune phase: freeze the bit selection to
//      q_b = I(m_B >= 0), rewind beta to beta0 and redo the schedule while
//      training only the bit representations (used for the ImageNet-scale
//      experiments).
//   3. Finalization: every gate becomes a unit step; the model is exactly
//      quantized and is evaluated in that form.
#pragma once

#include <string>
#include <vector>

#include "core/budget.h"
#include "core/csq_weight.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "opt/data_parallel.h"
#include "opt/trainer.h"

namespace csq {

struct CsqTrainConfig {
  TrainConfig train;            // epochs here = joint-phase epochs
  int finetune_epochs = 0;      // 0 disables the finetune phase
  float finetune_learning_rate = 0.01f;
  double lambda = 0.01;         // base regularization strength (paper: 0.01)
  double target_bits = 3.0;     // precision budget
  float beta0 = 1.0f;
  float beta_max = 200.0f;      // paper Algorithm 1
  // workers > 1 runs both phases data-parallel (opt/data_parallel.h); the
  // result is bit-identical to workers == 1 on the same shard grid.
  DataParallelConfig data_parallel;
};

struct CsqTrainResult {
  // Accuracy of the exactly-quantized (finalized) model — the number the
  // paper's tables report.
  float test_accuracy = 0.0f;
  // Accuracy of the soft model just before finalization (diagnostic; a
  // large gap would indicate the annealing failed to converge the gates).
  float soft_test_accuracy = 0.0f;
  double average_bits = 0.0;
  double compression = 0.0;  // 32 / average_bits
  // Element-weighted average precision recorded at the end of every joint
  // epoch — the series plotted in the paper's Figures 2 and 3.
  std::vector<double> precision_trajectory;
  // Final per-layer precision — the paper's Figure 4.
  std::vector<LayerPrecision> layer_bits;
  FitResult joint_phase;
  FitResult finetune_phase;
};

// Trains a model whose quantizable layers were built with
// csq_weight_factory(&sources). The model must contain at least one source.
// When config.data_parallel.workers > 1, `replica_factory` must rebuild the
// model with the same parameter layout (same builder; see
// opt/data_parallel.h). Only `sources` carry the temperature schedule and
// mask freezing: replicas never materialize their own sources.
CsqTrainResult train_csq(
    Model& model, const std::vector<CsqWeightSource*>& sources,
    const InMemoryDataset& train_data, const InMemoryDataset& test_data,
    const CsqTrainConfig& config,
    const DataParallelTrainer::ModelFactory& replica_factory = nullptr);

}  // namespace csq
