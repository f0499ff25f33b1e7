/**
 * @file
 * Typed error vocabulary of the persistence layer (model_io.hh): the
 * failure codes every artifact load and save reports, apart from the
 * codecs so that layers below model_io (the resilient campaign's
 * checkpoint writes) can return them too.
 */

#ifndef GPUPM_CORE_IO_STATUS_HH
#define GPUPM_CORE_IO_STATUS_HH

#include <string>
#include <string_view>

#include "core/expected.hh"

namespace gpupm
{
namespace model
{

/** Failure taxonomy of artifact loading and saving. */
enum class IoErrc
{
    IoError,          ///< open / read / write / rename failed
    ParseError,       ///< malformed envelope or payload (incl. NaN)
    VersionMismatch,  ///< recognized format, unsupported version
    ChecksumMismatch, ///< payload does not match its declared CRC32
    ValidationError,  ///< parsed cleanly but physically implausible
};

/** Display name of an I/O error code. */
std::string_view ioErrcName(IoErrc code);

/** Typed failure description of a persistence operation. */
struct IoStatus
{
    IoErrc code = IoErrc::IoError;
    std::string message;
};

/** Value-or-typed-error result of a persistence operation. */
template <typename T>
using IoExpected = Expected<T, IoStatus>;

} // namespace model
} // namespace gpupm

#endif // GPUPM_CORE_IO_STATUS_HH
