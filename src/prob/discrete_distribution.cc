#include "prob/discrete_distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace osd {

DiscreteDistribution DiscreteDistribution::FromAtoms(std::vector<Atom> atoms) {
  OSD_CHECK(!atoms.empty());
  // Equal values keep their input order, so the merged mass below is the
  // in-order sum on every standard library. Sorted input (the profile's
  // all-pairs view) skips the sort.
  const auto by_value = [](const Atom& a, const Atom& b) {
    return a.value < b.value;
  };
  if (!std::is_sorted(atoms.begin(), atoms.end(), by_value)) {
    std::stable_sort(atoms.begin(), atoms.end(), by_value);
  }
  DiscreteDistribution dist;
  double sum = 0.0;
  for (const Atom& a : atoms) {
    OSD_CHECK(a.prob > 0.0);
    sum += a.prob;
    if (!dist.atoms_.empty() && dist.atoms_.back().value == a.value) {
      dist.atoms_.back().prob += a.prob;
    } else {
      dist.atoms_.push_back(a);
    }
  }
  OSD_CHECK(std::abs(sum - 1.0) < kSumTolerance);
  return dist;
}

DiscreteDistribution DiscreteDistribution::FromArrays(
    std::span<const double> values, std::span<const double> probs) {
  OSD_CHECK(values.size() == probs.size());
  std::vector<Atom> atoms(values.size());
  for (size_t i = 0; i < values.size(); ++i) atoms[i] = {values[i], probs[i]};
  return FromAtoms(std::move(atoms));
}

double DiscreteDistribution::Min() const {
  OSD_CHECK(!atoms_.empty());
  return atoms_.front().value;
}

double DiscreteDistribution::Max() const {
  OSD_CHECK(!atoms_.empty());
  return atoms_.back().value;
}

double DiscreteDistribution::Mean() const {
  OSD_CHECK(!atoms_.empty());
  double m = 0.0;
  for (const Atom& a : atoms_) m += a.value * a.prob;
  return m;
}

double DiscreteDistribution::Quantile(double phi) const {
  OSD_CHECK(!atoms_.empty());
  OSD_CHECK(phi > 0.0 && phi <= 1.0);
  double cum = 0.0;
  for (const Atom& a : atoms_) {
    cum += a.prob;
    // Small slack so phi == k/n boundaries are insensitive to rounding.
    if (cum >= phi - 1e-12) return a.value;
  }
  return atoms_.back().value;
}

double DiscreteDistribution::CdfAt(double value) const {
  double cum = 0.0;
  for (const Atom& a : atoms_) {
    if (a.value > value) break;
    cum += a.prob;
  }
  return cum;
}

bool DiscreteDistribution::ApproxEqual(const DiscreteDistribution& x,
                                       const DiscreteDistribution& y,
                                       double tolerance) {
  if (x.size() != y.size()) return false;
  for (int i = 0; i < x.size(); ++i) {
    if (std::abs(x.atoms_[i].value - y.atoms_[i].value) > tolerance) {
      return false;
    }
    if (std::abs(x.atoms_[i].prob - y.atoms_[i].prob) > tolerance) {
      return false;
    }
  }
  return true;
}

}  // namespace osd
