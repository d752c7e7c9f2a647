/**
 * @file
 * The host record bench binaries write into their JSON results, so a
 * baseline file says which machine its wall-clock numbers came from.
 */

#ifndef DISE_BENCH_HOST_INFO_HH
#define DISE_BENCH_HOST_INFO_HH

#include <fstream>
#include <string>
#include <thread>

namespace dise {

/** Host CPU model from /proc/cpuinfo ("unknown" elsewhere). */
inline std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);) {
        size_t c = line.find(':');
        if (line.rfind("model name", 0) == 0 && c != std::string::npos)
            return line.substr(c + 2);
    }
    return "unknown";
}

/** {"cpu_model": ..., "nproc": ...} as one JSON object. */
inline std::string
hostJson()
{
    return "{\"cpu_model\": \"" + cpuModel() + "\", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

} // namespace dise

#endif // DISE_BENCH_HOST_INFO_HH
