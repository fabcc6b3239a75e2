// Minimal wrapper around the Linux cgroup-v1 cpu controller — the in-kernel
// mechanism that today covers ALPS's use case (cpu.shares). Its only user is
// tests/test_posix_cgroup.cpp, which checks that cpu.shares shapes CPU time
// on real processes (the extension row "ALPS vs Linux cgroup cpu.shares" in
// DESIGN.md §4); it is also usable as a reference backend.
//
// Requires a writable /sys/fs/cgroup/cpu (root, or a delegated subtree);
// available() reports whether that is the case so tests can skip.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>

namespace alps::posix {

/// RAII cgroup under the v1 cpu controller: created on construction,
/// processes moved back to the root group and the directory removed on
/// destruction.
class CpuCgroup {
public:
    /// True when cgroup-v1 cpu.shares groups can be created here.
    [[nodiscard]] static bool available();

    /// Creates /sys/fs/cgroup/cpu/<name> with the given cpu.shares weight.
    /// Throws std::system_error on failure.
    CpuCgroup(const std::string& name, long shares);
    ~CpuCgroup();

    CpuCgroup(const CpuCgroup&) = delete;
    CpuCgroup& operator=(const CpuCgroup&) = delete;

    /// Moves a process into this group. Returns false on failure.
    bool attach(pid_t pid);

    /// Updates the weight. Returns false on failure.
    bool set_shares(long shares);

    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

}  // namespace alps::posix
