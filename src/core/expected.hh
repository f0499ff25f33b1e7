/**
 * @file
 * Value-or-typed-error result. Each layer that reports failures as
 * values instantiates it with its own error vocabulary: measurement
 * (Status, backend.hh), persistence (IoStatus, io_status.hh) and
 * estimation (FitError, estimator.hh). Any error type with a
 * `message` string member works.
 */

#ifndef GPUPM_CORE_EXPECTED_HH
#define GPUPM_CORE_EXPECTED_HH

#include <optional>
#include <utility>

#include "common/logging.hh"

namespace gpupm
{
namespace model
{

template <typename T, typename E>
class Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}
    Expected(E error) : error_(std::move(error)) {}

    bool ok() const { return value_.has_value(); }

    const T &value() const
    {
        GPUPM_ASSERT(ok(), "value() on failed Expected: ",
                     error_->message);
        return *value_;
    }

    const E &error() const
    {
        GPUPM_ASSERT(!ok(), "error() on successful Expected");
        return *error_;
    }

  private:
    std::optional<T> value_;
    std::optional<E> error_;
};

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_EXPECTED_HH
