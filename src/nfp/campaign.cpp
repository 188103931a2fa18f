#include "nfp/campaign.h"

#include <algorithm>

#include "nfp/service.h"

namespace nfp::model {

Campaign::Campaign(board::BoardConfig cfg, unsigned threads)
    : cfg_(cfg), threads_(resolve_workers(threads)) {}

KernelRunRecord Campaign::run_one(const KernelJob& job) const {
  return run({job})[0];
}

std::vector<KernelRunRecord> Campaign::run(
    const std::vector<KernelJob>& jobs) const {
  ServiceConfig cfg;
  cfg.board = cfg_;
  cfg.workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, std::max<std::size_t>(1, jobs.size())));
  cfg.calibrate = false;
  CampaignService service(cfg);
  std::vector<KernelRunRecord> records;
  records.reserve(jobs.size());
  for (ServiceResult& r : service.run_jobs(jobs)) {
    records.push_back(std::move(r.record));
  }
  return records;
}

}  // namespace nfp::model
