/**
 * @file
 * Write fuzz_snapshot's seed corpus: one file per (config, mechanism)
 * pair of snapshot_pairs.hh, its index byte followed by its checkpoint
 * after 10000 references of mcf.  Rerun after any change to the
 * checkpoint format, from the repo root:
 *
 *   make_snapshot_seeds fuzz/corpus/snapshot
 */

#include <cstdio>
#include <string>
#include <vector>

#include "snapshot_pairs.hh"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s DIR\n", argv[0]);
        return 2;
    }
    using tlbpf::fuzz::kSnapshotPairs;
    for (std::size_t i = 0; i < kSnapshotPairs.size(); ++i) {
        std::string path = std::string(argv[1]) + "/" + kSnapshotPairs[i].seed;
        std::vector<std::uint8_t> input = tlbpf::fuzz::seedInput(i);
        std::FILE *file = std::fopen(path.c_str(), "wb");
        if (!file ||
            std::fwrite(input.data(), 1, input.size(), file) != input.size() ||
            std::fclose(file) != 0) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("%s: %zu bytes\n", path.c_str(), input.size());
    }
    return 0;
}
