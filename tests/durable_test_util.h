// Shared helpers for the durable-storage test suites
// (test_durable.cc, test_durable_recovery.cc).
#ifndef MOSAIC_TESTS_DURABLE_TEST_UTIL_H_
#define MOSAIC_TESTS_DURABLE_TEST_UTIL_H_

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/database.h"
#include "storage/durable/serde.h"

namespace mosaic {
namespace durable {
namespace testutil {

/// mkdtemp under TMPDIR (default /tmp). Dirs are left behind on
/// purpose: after a failure the on-disk state is the evidence.
inline std::string MakeTempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/mosaic_durable_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  return got != nullptr ? std::string(got) : std::string();
}

/// Bit-exact serialization of everything the durability layer must
/// preserve: version counters, auxiliary tables, populations
/// (marginals included), sample headers + data, and each sample's
/// current weight epoch with its fit provenance. Two databases with
/// equal fingerprints are indistinguishable to every query path.
inline std::string StateFingerprint(core::Database* db) {
  ByteWriter out;
  core::Catalog* cat = db->catalog();
  out.PutU64(db->catalog_version());
  out.PutU64(db->metadata_version());
  for (const std::string& name : cat->TableNames()) {
    out.PutString(name);
    EncodeTable(**cat->GetTable(name), &out);
  }
  for (const std::string& name : cat->PopulationNames()) {
    EncodePopulation(**cat->GetPopulation(name), &out);
  }
  for (const std::string& name : cat->SampleNames()) {
    core::SampleInfo* sample = *cat->GetSample(name);
    EncodeSampleHeader(*sample, &out);
    EncodeTable(sample->data, &out);
    EncodeWeightEpoch(*sample->weights.Pin(), &out);
  }
  return out.Take();
}

}  // namespace testutil
}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_TESTS_DURABLE_TEST_UTIL_H_
