#include "engine/engine_registry.h"

#include <utility>

#include "baselines/agg_plus_uniform.h"
#include "baselines/spn.h"
#include "baselines/stratified_sampling.h"
#include "baselines/uniform_sampling.h"
#include "cache/cached_system.h"
#include "core/synopsis.h"
#include "engine/exact_system.h"
#include "jit/kernel_cache.h"
#include "partition/builder.h"
#include "partition/ensemble.h"
#include "shard/sharded_synopsis.h"

namespace pass {
namespace {

using SystemResult = Result<std::unique_ptr<AqpSystem>>;

Status CheckDim(const Dataset& data, const EngineConfig& config) {
  if (config.dim >= data.NumPredDims()) {
    return Status::InvalidArgument("dim is out of range for the dataset");
  }
  return Status::Ok();
}

SystemResult MakeExact(const Dataset& data, const EngineConfig& config) {
  return std::unique_ptr<AqpSystem>(
      new ExactSystem(data, config.estimator.kernel_cache));
}

SystemResult MakeUniform(const Dataset& data, const EngineConfig& config) {
  return std::unique_ptr<AqpSystem>(new UniformSamplingSystem(
      data, config.sample_rate, config.seed, config.estimator));
}

SystemResult MakeStratified(const Dataset& data, const EngineConfig& config) {
  Status dim_ok = CheckDim(data, config);
  if (!dim_ok.ok()) return dim_ok;
  return std::unique_ptr<AqpSystem>(new StratifiedSamplingSystem(
      data, config.partitions, config.sample_rate, config.dim, config.seed,
      config.estimator));
}

SystemResult MakeAggUniform(const Dataset& data, const EngineConfig& config) {
  Status dim_ok = CheckDim(data, config);
  if (!dim_ok.ok()) return dim_ok;
  AqpPlusPlusOptions options;
  options.num_partitions = config.partitions;
  options.sample_rate = config.sample_rate;
  options.dim = config.dim;
  options.opt_sample_size = config.opt_sample_size;
  options.seed = config.seed;
  options.estimator = config.estimator;
  return std::unique_ptr<AqpSystem>(new AggregatePlusUniformSystem(
      MakeAqpPlusPlus(data, options)));
}

SystemResult MakeSpn(const Dataset& data, const EngineConfig& config) {
  SpnSystem::Options options;
  options.train_fraction = config.spn_train_fraction;
  options.seed = config.seed;
  return std::unique_ptr<AqpSystem>(new SpnSystem(data, options));
}

BuildOptions PassBuildOptions(const EngineConfig& config) {
  BuildOptions options;
  options.num_leaves = config.partitions;
  options.sample_rate = config.sample_rate;
  options.strategy = config.strategy;
  options.optimize_for = config.optimize_for;
  options.opt_sample_size = config.opt_sample_size;
  options.seed = config.seed;
  options.estimator = config.estimator;
  return options;
}

SystemResult MakePass(const Dataset& data, const EngineConfig& config) {
  Result<Synopsis> built = BuildSynopsis(data, PassBuildOptions(config));
  if (!built.ok()) return built.status();
  return std::unique_ptr<AqpSystem>(
      new Synopsis(std::move(built).value()));
}

SystemResult MakeShardedPass(const Dataset& data,
                             const EngineConfig& config) {
  ShardedBuildOptions options;
  options.shard.num_shards = config.num_shards;
  options.shard.strategy = config.shard_strategy;
  options.shard.dim = config.shard_dim;
  options.base = PassBuildOptions(config);
  Result<ShardedSynopsis> built = BuildShardedSynopsis(data, options);
  if (!built.ok()) return built.status();
  return std::unique_ptr<AqpSystem>(
      new ShardedSynopsis(std::move(built).value()));
}

SystemResult MakeEnsemble(const Dataset& data, const EngineConfig& config) {
  std::vector<std::vector<size_t>> templates = config.ensemble_templates;
  if (templates.empty()) {
    // Default: one 1-D member per predicate column.
    for (size_t d = 0; d < data.NumPredDims(); ++d) templates.push_back({d});
  }
  for (const auto& dims : templates) {
    for (const size_t dim : dims) {
      if (dim >= data.NumPredDims()) {
        return Status::InvalidArgument(
            "ensemble template dim is out of range for the dataset");
      }
    }
  }
  Result<SynopsisEnsemble> built =
      BuildEnsemble(data, templates, PassBuildOptions(config));
  if (!built.ok()) return built.status();
  return std::unique_ptr<AqpSystem>(
      new SynopsisEnsemble(std::move(built).value()));
}

}  // namespace

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    r->Register("exact", MakeExact);
    r->Register("uniform", MakeUniform);
    r->Register("stratified", MakeStratified);
    r->Register("agg_uniform", MakeAggUniform);
    r->Register("spn", MakeSpn);
    r->Register("pass", MakePass);
    r->Register("sharded_pass", MakeShardedPass);
    r->Register("ensemble", MakeEnsemble);
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

Result<std::unique_ptr<AqpSystem>> EngineRegistry::Create(
    const std::string& name, const Dataset& data,
    const EngineConfig& config) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no engine registered under \"" + name + "\"");
  }
  Status config_ok = config.Validate();
  if (!config_ok.ok()) return config_ok;
  if (data.NumRows() == 0) {
    return Status::FailedPrecondition("dataset is empty");
  }
  // One set of kernel tier counters per engine, injected through the
  // estimator options every factory forwards: shards, ensemble members
  // and the exact path all record into it. Counting never changes an
  // answer.
  EngineConfig effective = config;
  effective.estimator.kernel_cache = std::make_shared<KernelCache>();
  Result<std::unique_ptr<AqpSystem>> built = it->second(data, effective);
  if (!built.ok() || !config.cache.enabled) return built;
  // Serve the engine behind the semantic answer cache. The wrapper is
  // transparent (bit-identical answers, forwarded Name/Costs).
  return std::unique_ptr<AqpSystem>(new CachedSystem(
      std::move(built).value(), data, config.cache));
}

bool EngineRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& entry : factories_) names.push_back(entry.first);
  return names;
}

}  // namespace pass
