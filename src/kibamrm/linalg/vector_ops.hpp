// Dense vector kernels used by the Markov-chain solvers.
//
// All kernels operate on std::vector<double> of matching sizes; size
// mismatches are programming errors and checked via KIBAMRM_REQUIRE.
#pragma once

#include <vector>

namespace kibamrm::linalg {

/// Sum of all entries.
double sum(const std::vector<double>& v);

/// Dot product.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x.
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// v *= alpha.
void scale(std::vector<double>& v, double alpha);

/// Fills v with a constant.
void fill(std::vector<double>& v, double value);

/// max_i |a_i - b_i|.
double linf_distance(const std::vector<double>& a,
                     const std::vector<double>& b);

/// max_i |v_i|.
double linf_norm(const std::vector<double>& v);

/// Sum of |v_i|.
double l1_norm(const std::vector<double>& v);

/// Scales v so its entries sum to 1; throws NumericalError if the sum is
/// not positive.  Used to re-normalise probability vectors after long
/// uniformisation runs (guards against drift, not against bugs).
double normalize_probability(std::vector<double>& v);

/// True iff every entry lies in [-eps, 1+eps] and the sum is within eps of 1.
bool is_probability_vector(const std::vector<double>& v, double eps = 1e-9);

}  // namespace kibamrm::linalg
