#include "change/backend.h"

#include <string>
#include <utility>
#include <vector>

#include "logic/vocabulary.h"
#include "model/distance.h"
#include "solve/arbitration_sat.h"
#include "solve/dalal_sat.h"
#include "solve/sum_sat.h"

namespace arbiter {

namespace {

/// Σ metric weights a counting cardinality path will tolerate: the
/// totalizer is quadratic in the repeated-literal count, so the
/// weighted diameter must stay modest.
constexpr int64_t kMaxCountingDiameter = 1024;

Status ValidateMetric(const DistanceSemantics& semantics) {
  for (int64_t w : semantics.metric) {
    if (w < 0) {
      return Status::InvalidArgument(
          "metric weights must be non-negative, got " + std::to_string(w));
    }
  }
  return Status::OK();
}

/// The aggregated distance at an argmin model, rendered in decimal.
std::string EnumOptimalAt(const DistanceSemantics& semantics,
                          const ModelSet& psi, uint64_t model) {
  switch (semantics.aggregator) {
    case DistanceAggregator::kMin:
      return std::to_string(MetricMinDist(semantics, psi, model));
    case DistanceAggregator::kMax:
      return std::to_string(MetricOverallDistBounded(
          semantics, psi, model,
          MetricDiameter(semantics, psi.num_terms()) + 1));
    case DistanceAggregator::kSum: {
      SumDistOracle oracle(psi, semantics.metric);
      return std::to_string(oracle(model));
    }
    case DistanceAggregator::kWeightedSum: {
      double total = 0.0;
      for (uint64_t j : psi) {
        total += static_cast<double>(MetricDist(semantics, model, j)) *
                 semantics.model_weight(j);
      }
      return std::to_string(total);
    }
  }
  return "";
}

class EnumeratingBackend : public DistanceBackend {
 public:
  std::string name() const override { return "enum"; }

  int MaxTerms(const DistanceSemantics&) const override {
    return kMaxEnumTerms;
  }

  int VocabularyLimit() const override { return kMaxEnumTerms; }

  int64_t ExactModelCap() const override { return -1; }

  Result<DistanceChangeResult> Change(const DistanceSemantics& semantics,
                                      const Formula& psi, const Formula& mu,
                                      int num_terms,
                                      int64_t max_models) override {
    if (num_terms < 1 || num_terms > kMaxEnumTerms) {
      return Status::CapacityExceeded(
          "enumerating backend serves 1.." + std::to_string(kMaxEnumTerms) +
          " atoms (2^n interpretations), got " + std::to_string(num_terms) +
          "; select the counting backend");
    }
    ARBITER_RETURN_NOT_OK(ValidateMetric(semantics));
    if (semantics.aggregator == DistanceAggregator::kWeightedSum &&
        !semantics.model_weight) {
      return Status::InvalidArgument(
          "weighted-sum semantics needs a model_weight function");
    }

    const ModelSet psi_models = ModelSet::FromFormula(psi, num_terms);
    const ModelSet mu_models = ModelSet::FromFormula(mu, num_terms);
    DistanceChangeResult result;
    result.models = SemanticArgmin(semantics, psi_models, mu_models);
    if (!result.models.empty() && !psi_models.empty()) {
      result.optimal =
          EnumOptimalAt(semantics, psi_models, result.models[0]);
    }
    if (max_models >= 0 &&
        static_cast<int64_t>(result.models.size()) > max_models) {
      std::vector<uint64_t> head(result.models.begin(),
                                 result.models.begin() + max_models);
      result.models = ModelSet::FromMasks(std::move(head), num_terms);
      result.truncated = true;
    }
    return result;
  }
};

class CountingBackend : public DistanceBackend {
 public:
  std::string name() const override { return "counting"; }

  int MaxTerms(const DistanceSemantics& semantics) const override {
    switch (semantics.aggregator) {
      case DistanceAggregator::kSum:
        return 120;  // exact __int128 counting; models omitted past 63
      case DistanceAggregator::kWeightedSum:
        return 0;  // needs per-model weights: enumeration only
      default:
        return kMaxVocabularyTerms - 1;  // uint64 model masks
    }
  }

  int VocabularyLimit() const override { return kMaxVocabularyTerms - 1; }

  int64_t ExactModelCap() const override { return 4096; }

  Result<DistanceChangeResult> Change(const DistanceSemantics& semantics,
                                      const Formula& psi, const Formula& mu,
                                      int num_terms,
                                      int64_t max_models) override {
    ARBITER_RETURN_NOT_OK(ValidateMetric(semantics));
    if (semantics.aggregator == DistanceAggregator::kWeightedSum) {
      return Status::Unsupported(
          "the counting backend cannot serve weighted-sum semantics "
          "(per-model weights require enumerating Mod(psi)); use the "
          "enum backend");
    }
    const int cap = MaxTerms(semantics);
    if (num_terms < 1 || num_terms > cap) {
      return Status::CapacityExceeded(
          "counting backend serves 1.." + std::to_string(cap) +
          " atoms for " + AggregatorName(semantics.aggregator) +
          " aggregation, got " + std::to_string(num_terms));
    }
    if (!semantics.unit_metric() &&
        semantics.aggregator != DistanceAggregator::kSum) {
      int64_t diameter = 0;
      for (int b = 0; b < num_terms; ++b) {
        diameter += semantics.AtomWeight(b);
      }
      if (diameter > kMaxCountingDiameter) {
        return Status::CapacityExceeded(
            "weighted diameter " + std::to_string(diameter) +
            " exceeds the counting cardinality budget of " +
            std::to_string(kMaxCountingDiameter));
      }
    }

    switch (semantics.aggregator) {
      case DistanceAggregator::kMin:
        return MinChange(semantics, psi, mu, num_terms, max_models);
      case DistanceAggregator::kMax:
        return MaxChange(semantics, psi, mu, num_terms, max_models);
      case DistanceAggregator::kSum:
        return SumChange(semantics, psi, mu, num_terms, max_models);
      case DistanceAggregator::kWeightedSum:
        break;  // rejected above
    }
    return Status::Internal("unreachable aggregator");
  }

 private:
  Result<DistanceChangeResult> MinChange(const DistanceSemantics& semantics,
                                         const Formula& psi,
                                         const Formula& mu, int num_terms,
                                         int64_t max_models) {
    solve::SatRevisionResult sat = solve::SatDalalRevise(
        psi, mu, num_terms, max_models, semantics.metric);
    DistanceChangeResult result;
    result.models = ModelSet::FromMasks(std::move(sat.models), num_terms);
    result.truncated = sat.truncated;
    // ψ-unsat convention (result is Mod(μ)) leaves the distance
    // undefined, matching the enumerating backend's empty `optimal`.
    if (!result.models.empty() && !sat.psi_unsat) {
      result.optimal = std::to_string(sat.min_distance);
    }
    return result;
  }

  Result<DistanceChangeResult> MaxChange(const DistanceSemantics& semantics,
                                         const Formula& psi,
                                         const Formula& mu, int num_terms,
                                         int64_t max_models) {
    solve::CegarResult cegar = solve::CegarMaxFitting(
        psi, mu, num_terms, max_models, semantics.metric);
    DistanceChangeResult result;
    result.models = ModelSet::FromMasks(std::move(cegar.models), num_terms);
    result.truncated = cegar.truncated;
    if (!result.models.empty()) {
      result.optimal = std::to_string(cegar.optimal_value);
    }
    return result;
  }

  Result<DistanceChangeResult> SumChange(const DistanceSemantics& semantics,
                                         const Formula& psi,
                                         const Formula& mu, int num_terms,
                                         int64_t max_models) {
    solve::SumFittingResult sum = solve::SatSumFitting(
        psi, mu, num_terms, max_models, semantics.metric, &column_cache_);
    if (!sum.completed) {
      return Status::CapacityExceeded(
          "counting budget exhausted for sum aggregation over " +
          std::to_string(num_terms) + " atoms");
    }
    DistanceChangeResult result;
    if (sum.psi_unsat || sum.mu_unsat) {
      result.models = ModelSet(num_terms <= kMaxVocabularyTerms ? num_terms
                                                                : 0);
      return result;
    }
    if (num_terms > kMaxVocabularyTerms - 1) {
      result.models_omitted = true;
      result.models = ModelSet(0);
    } else {
      result.models = ModelSet::FromMasks(std::move(sum.models), num_terms);
      result.truncated = sum.truncated;
    }
    result.optimal = sum.optimal_decimal;
    return result;
  }

  solve::ColumnCountCache column_cache_;
};

}  // namespace

std::shared_ptr<DistanceBackend> MakeEnumeratingBackend() {
  return std::make_shared<EnumeratingBackend>();
}

std::shared_ptr<DistanceBackend> MakeCountingBackend() {
  return std::make_shared<CountingBackend>();
}

Result<std::shared_ptr<DistanceBackend>> MakeDistanceBackend(
    const std::string& name) {
  if (name == "enum") return MakeEnumeratingBackend();
  if (name == "counting") return MakeCountingBackend();
  std::string known;
  for (const std::string& n : DistanceBackendNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown distance backend \"" + name +
                          "\"; known backends: " + known);
}

std::vector<std::string> DistanceBackendNames() {
  return {"enum", "counting"};
}

Result<BackendOperatorSpec> BackendOperatorFor(const std::string& op_name,
                                               std::vector<int64_t> metric) {
  BackendOperatorSpec spec;
  if (op_name == "dalal") {
    spec.semantics = MinSemantics(std::move(metric));
    return spec;
  }
  if (op_name == "revesz-max") {
    spec.semantics = MaxSemantics(std::move(metric));
    return spec;
  }
  if (op_name == "revesz-sum") {
    spec.semantics = SumSemantics(std::move(metric));
    return spec;
  }
  if (op_name == "arbitration-max") {
    spec.semantics = MaxSemantics(std::move(metric));
    spec.arbitration = true;
    return spec;
  }
  if (op_name == "arbitration-sum") {
    spec.semantics = SumSemantics(std::move(metric));
    spec.arbitration = true;
    return spec;
  }
  return Status::Unsupported(
      "operator \"" + op_name +
      "\" is not a distance argmin; distance backends serve dalal, "
      "revesz-max, revesz-sum, arbitration-max, arbitration-sum");
}

}  // namespace arbiter
