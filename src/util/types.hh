/**
 * @file
 * Fundamental scalar types and the code-temperature encoding shared by
 * every layer of the TRRIP stack (compiler, OS, MMU, caches).
 */

#ifndef TRRIP_UTIL_TYPES_HH
#define TRRIP_UTIL_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace trrip {

/** Byte address (virtual or physical depending on context). */
using Addr = std::uint64_t;

/** Count of CPU clock cycles. */
using Cycles = std::uint64_t;

/** Count of retired instructions. */
using InstCount = std::uint64_t;

/** Destructive-interference padding unit (conservative constant: the
 *  standard's hardware_destructive_interference_size triggers ABI
 *  warnings on GCC and is unavailable on some libc++ builds). */
constexpr std::size_t kCacheLineBytes = 64;

/**
 * Code temperature as classified by PGO (paper section 3.2).
 *
 * The numeric values double as the 2-bit PBHA-style PTE attribute
 * encoding that travels with memory requests (paper section 3.3):
 * pages of code that was never seen by the TRRIP compiler carry None.
 */
enum class Temperature : std::uint8_t {
    None = 0,
    Cold = 1,
    Warm = 2,
    Hot = 3,
};

/** Number of bits used to encode a Temperature in a PTE / request. */
constexpr unsigned tempBits = 2;

/** Encode a temperature into its 2-bit PTE attribute value. */
constexpr std::uint8_t
encodeTemperature(Temperature t)
{
    return static_cast<std::uint8_t>(t);
}

/** Decode a 2-bit PTE attribute value into a temperature. */
constexpr Temperature
decodeTemperature(std::uint8_t bits)
{
    return static_cast<Temperature>(bits & 0x3);
}

/** Human-readable temperature name ("hot", "warm", "cold", "none"). */
inline const char *
temperatureName(Temperature t)
{
    switch (t) {
      case Temperature::Hot: return "hot";
      case Temperature::Warm: return "warm";
      case Temperature::Cold: return "cold";
      default: return "none";
    }
}

/** True if the temperature carries valid PGO information. */
constexpr bool
hasTemperature(Temperature t)
{
    return t != Temperature::None;
}

} // namespace trrip

#endif // TRRIP_UTIL_TYPES_HH
