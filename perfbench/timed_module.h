#pragma once

/// \file timed_module.h
/// Span-recording wrapper installed on the leaf modules of a training model
/// for the traced run. It forwards every Module call to the wrapped module
/// unchanged, so a wrapped model computes exactly what the unwrapped one
/// does (the self-test pins losses and parameters bitwise).

#include <string>
#include <utility>

#include "core/ttconv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "nn/module.h"
#include "trace.h"

namespace perfbench {

class TimedModule : public ttsnn::Module {
 public:
  explicit TimedModule(ttsnn::ModulePtr inner) : inner_(std::move(inner)) {
    training_ = inner_->is_training();
    const ttsnn::Module* m = inner_.get();
    if (dynamic_cast<const ttsnn::TTConv2d*>(m) != nullptr) {
      fwd_ = "core.ttconv.fwd", bwd_ = "core.ttconv.bwd";
    } else if (dynamic_cast<const ttsnn::Conv2d*>(m) != nullptr) {
      fwd_ = "nn.conv2d.fwd", bwd_ = "nn.conv2d.bwd";
    } else if (dynamic_cast<const ttsnn::LIFNeuron*>(m) != nullptr) {
      fwd_ = "nn.lif.fwd", bwd_ = "nn.lif.bwd";
    } else if (dynamic_cast<const ttsnn::BatchNorm*>(m) != nullptr) {
      fwd_ = "nn.batchnorm.fwd", bwd_ = "nn.batchnorm.bwd";
    }
  }

  ttsnn::Tensor forward(const ttsnn::Tensor& x) override {
    ScopedSpan span(fwd_);
    return inner_->forward(x);
  }
  ttsnn::Tensor backward(const ttsnn::Tensor& grad_out) override {
    ScopedSpan span(bwd_);
    return inner_->backward(grad_out);
  }
  void collect_parameters(std::vector<ttsnn::Parameter*>& out) override {
    inner_->collect_parameters(out);
  }
  void collect_buffers(std::vector<ttsnn::BufferRef>& out) override {
    inner_->collect_buffers(out);
  }
  void set_training(bool training) override {
    training_ = training;
    inner_->set_training(training);
  }
  void describe(ttsnn::ShapeState& s,
                std::vector<ttsnn::LayerDesc>& out) const override {
    inner_->describe(s, out);
  }
  void clear_cache() override { inner_->clear_cache(); }
  std::string name() const override { return inner_->name(); }

  ttsnn::ModulePtr release() { return std::move(inner_); }

 private:
  ttsnn::ModulePtr inner_;
  const char* fwd_ = "nn.other.fwd";
  const char* bwd_ = "nn.other.bwd";
};

/// Wraps every leaf module (no child slots) of `root` in a TimedModule.
inline void wrap_leaves(ttsnn::Module& root) {
  ttsnn::visit_module_slots(root, [](ttsnn::ModulePtr& slot) {
    if (slot->child_slots().empty() &&
        dynamic_cast<TimedModule*>(slot.get()) == nullptr) {
      slot = std::make_unique<TimedModule>(std::move(slot));
    }
  });
}

/// Undoes wrap_leaves: puts every wrapped module back into its slot.
inline void unwrap_leaves(ttsnn::Module& root) {
  ttsnn::visit_module_slots(root, [](ttsnn::ModulePtr& slot) {
    if (auto* t = dynamic_cast<TimedModule*>(slot.get())) slot = t->release();
  });
}

}  // namespace perfbench
