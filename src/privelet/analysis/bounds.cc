#include "privelet/analysis/bounds.h"

#include <algorithm>

#include "privelet/common/math_util.h"
#include "privelet/mechanism/mechanism.h"

namespace privelet::analysis {

double PFactor(const data::Attribute& attribute) {
  if (attribute.is_ordinal()) {
    const std::size_t padded = NextPowerOfTwo(attribute.domain_size());
    return 1.0 + static_cast<double>(FloorLog2(padded));
  }
  return static_cast<double>(attribute.hierarchy().height());
}

double HFactor(const data::Attribute& attribute) {
  if (attribute.is_ordinal()) {
    const std::size_t padded = NextPowerOfTwo(attribute.domain_size());
    return (2.0 + static_cast<double>(FloorLog2(padded))) / 2.0;
  }
  return 4.0;
}

Result<double> PriveletPlusVarianceBound(
    const data::Schema& schema, const std::vector<std::string>& sa_names,
    double epsilon) {
  PRIVELET_RETURN_IF_ERROR(mechanism::CheckEpsilon(epsilon));
  std::vector<bool> in_sa(schema.num_attributes(), false);
  for (const std::string& name : sa_names) {
    PRIVELET_ASSIGN_OR_RETURN(std::size_t axis, schema.FindAttribute(name));
    in_sa[axis] = true;
  }
  double bound = 8.0 / (epsilon * epsilon);
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& attr = schema.attribute(a);
    if (in_sa[a]) {
      bound *= static_cast<double>(attr.domain_size());
    } else {
      const double p = PFactor(attr);
      bound *= p * p * HFactor(attr);
    }
  }
  return bound;
}

double BasicVarianceBound(const data::Schema& schema, double epsilon) {
  return 8.0 * static_cast<double>(schema.TotalDomainSize()) /
         (epsilon * epsilon);
}

double HaarOrdinalVarianceBound(std::size_t domain_size, double epsilon) {
  const double l =
      static_cast<double>(FloorLog2(NextPowerOfTwo(domain_size)));
  return (2.0 + l) * (2.0 + 2.0 * l) * (2.0 + 2.0 * l) / (epsilon * epsilon);
}

double NominalVarianceBound(std::size_t hierarchy_height, double epsilon) {
  const double h = static_cast<double>(hierarchy_height);
  return 32.0 * h * h / (epsilon * epsilon);
}

}  // namespace privelet::analysis
