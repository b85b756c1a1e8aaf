#pragma once

/// \file train_loop.h
/// The `train_htt_event` workload's model, data and training step.
///
/// TrainLoop makes exactly the calls Trainer::run_epoch makes (one
/// ArenaScope and one DataLoader epoch per pass over the data; forward,
/// loss, zero_grad, backward, step and accuracy per batch), but one step at a
/// time so the benchmark can time each step from outside. It always trains
/// epoch 0 and rewinds the model to its initial state between epochs, so
/// the measured work is the same however many steps a run completes. The
/// spans it opens are no-ops unless the tracer is enabled.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/factorize.h"
#include "core/models.h"
#include "data/synthetic_event.h"
#include "snn/dataloader.h"
#include "snn/loss.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"
#include "tensor/arena.h"
#include "trace.h"

namespace perfbench {

/// Weights are initialized from this fixed seed on every workload, so the
/// workload seed varies the inputs (clips, requests, arrivals) but not the
/// network under test.
constexpr uint64_t kModelSeed = 7;

/// Independent stream `stream` of the workload seed (splitmix64 finalizer),
/// so each generated input draws from its own sequence.
inline uint64_t stream_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum Stream : uint64_t { kEventClips = 1, kLoaderOrder, kImages, kArrivals };

constexpr int64_t kTrainT = 6;
constexpr int64_t kTrainBatch = 16;

struct TrainSetup {
  std::unique_ptr<ttsnn::SyntheticEventDataset> data;
  ttsnn::ModulePtr model;
  ttsnn::TrainConfig cfg;
  std::unique_ptr<ttsnn::SGD> opt;
  std::unique_ptr<ttsnn::CosineLr> schedule;
  std::unique_ptr<ttsnn::DataLoader> loader;
  double factorize_ms = 0.0;
};

/// HTT-factorized MS-ResNet18 (width 16, rank fraction 0.4, schedule
/// 111100) on 2x16x16 synthetic event clips, T = 6, batch 16, NDA
/// augmentation, the Trainer's default prefetch and SGD recipe.
inline TrainSetup make_train(uint64_t seed) {
  TrainSetup s;
  s.data = std::make_unique<ttsnn::SyntheticEventDataset>(
      ttsnn::SyntheticEventDataset::Options{
          .num_classes = 10,
          .samples_per_class = 32,
          .size = 16,
          .seed = stream_seed(seed, kEventClips)});
  ttsnn::Rng rng(kModelSeed);
  ttsnn::ModelConfig mc;
  mc.in_channels = 2;
  mc.num_classes = 10;
  mc.base_width = 16;
  mc.timesteps = kTrainT;
  s.model = ttsnn::make_ms_resnet18(mc, rng);
  ttsnn::FactorizeOptions fo;
  fo.mode = ttsnn::TTMode::kHTT;
  fo.htt_schedule = {true, true, true, true, false, false};
  fo.use_vbmf = false;
  fo.rank_fraction = 0.4;
  const auto t0 = Clock::now();
  ttsnn::factorize_network(*s.model, fo, rng);
  s.factorize_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  s.cfg.batch_size = kTrainBatch;
  s.cfg.timesteps = kTrainT;
  s.cfg.augment = true;
  s.cfg.seed = stream_seed(seed, kLoaderOrder);
  s.opt = std::make_unique<ttsnn::SGD>(
      s.model->parameters(),
      ttsnn::SGD::Options{.lr = s.cfg.lr,
                          .momentum = s.cfg.momentum,
                          .weight_decay = s.cfg.weight_decay});
  s.schedule = std::make_unique<ttsnn::CosineLr>(s.cfg.lr, s.cfg.epochs);
  s.loader = std::make_unique<ttsnn::DataLoader>(
      *s.data, ttsnn::DataLoaderOptions{.batch_size = s.cfg.batch_size,
                                        .timesteps = s.cfg.timesteps,
                                        .seed = s.cfg.seed,
                                        .shuffle = true,
                                        .drop_last = true,
                                        .augment = s.cfg.augment,
                                        .augment_opts = s.cfg.augment_opts,
                                        .prefetch = s.cfg.prefetch});
  return s;
}

class TrainLoop {
 public:
  /// Snapshots the model's parameters and buffers, which rewind() restores.
  explicit TrainLoop(TrainSetup& s)
      : s_(s),
        steps_per_epoch_(s.data->size() / s.cfg.batch_size) {
    for (ttsnn::Parameter* p : s_.model->parameters()) {
      initial_.push_back(p->value.clone());
    }
    for (const ttsnn::BufferRef& b : s_.model->buffers()) {
      initial_.push_back(b.value->clone());
    }
  }

  /// One training step of epoch 0; the first step of the epoch opens it the
  /// way Trainer::run_epoch does. Returns the batch loss.
  double step(int64_t group) {
    ScopedSpan step_span("train.step", group);
    if (!arena_) {
      arena_.emplace();
      if (s_.cfg.cosine_lr) s_.opt->set_lr(s_.schedule->at(0));
      s_.model->set_training(true);
      s_.loader->begin_epoch(0);
    }
    ttsnn::Batch batch;
    bool got = false;
    {
      ScopedSpan wait("snn.dataloader.wait");
      got = s_.loader->next(&batch);
    }
    TTSNN_CHECK(got, "train loop: epoch shorter than steps_per_epoch()");
    ttsnn::Tensor logits = s_.model->forward(batch.input);
    ttsnn::LossResult loss;
    {
      ScopedSpan span("snn.loss");
      loss = ttsnn::cross_entropy_sum_loss(logits, batch.labels);
    }
    {
      ScopedSpan span("snn.optimizer");
      s_.opt->zero_grad();
    }
    s_.model->backward(loss.grad);
    {
      ScopedSpan span("snn.optimizer");
      s_.opt->step();
    }
    accuracy_ += ttsnn::accuracy(logits, batch.labels);
    ++step_in_epoch_;
    return loss.value;
  }

  /// Closes the open epoch's arena scope (the end of Trainer::run_epoch).
  void finish() { arena_.reset(); }

  int64_t steps_per_epoch() const { return steps_per_epoch_; }
  bool epoch_done() const { return step_in_epoch_ == steps_per_epoch_; }

  /// Closes the epoch's arena scope (the end of Trainer::run_epoch) and
  /// restores the initial parameters, buffers and a fresh optimizer, so the
  /// next epoch replays the first one step for step. A faster program then
  /// runs more replays of the same work, never steps of a further-trained
  /// model with other spike densities.
  void rewind() {
    finish();
    size_t i = 0;
    for (ttsnn::Parameter* p : s_.model->parameters()) {
      copy_into(p->value, initial_[i++]);
    }
    for (const ttsnn::BufferRef& b : s_.model->buffers()) {
      copy_into(*b.value, initial_[i++]);
    }
    s_.opt = std::make_unique<ttsnn::SGD>(
        s_.model->parameters(),
        ttsnn::SGD::Options{.lr = s_.cfg.lr,
                            .momentum = s_.cfg.momentum,
                            .weight_decay = s_.cfg.weight_decay});
    step_in_epoch_ = 0;
  }

 private:
  static void copy_into(ttsnn::Tensor& dst, const ttsnn::Tensor& src) {
    TTSNN_CHECK(dst.numel() == src.numel(), "train loop: snapshot mismatch");
    std::copy(src.data(), src.data() + src.numel(), dst.data());
  }

  TrainSetup& s_;
  int64_t steps_per_epoch_;
  int64_t step_in_epoch_ = 0;
  std::vector<ttsnn::Tensor> initial_;
  std::optional<ttsnn::ArenaScope> arena_;
  double accuracy_ = 0.0;  ///< consumed like Trainer's running accuracy
};

}  // namespace perfbench
