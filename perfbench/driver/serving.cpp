// serve_mixed and shard_rays: open-loop request streams into a QueryService
// (six query families on static bunny) and an in-process ShardRouter (rays on
// enclosed sibenik, K = 4 shards).
//
// One generator thread (the caller) sends each request at its scheduled time
// t0 + i / rate, whatever the state of earlier requests, and between sends
// polls the outstanding futures; a request's latency runs from its scheduled
// send time to the poll that observed its completion. Every response is
// compared bit-exactly with the answer of a sequential sweep-builder
// reference tree computed off the clock (the core/differential.hpp
// contract); a mismatch fails the run.
//
// A run has three phases: a short warm-up, a nominal phase at one fixed rate
// (latency metrics), and a saturation phase that keeps a fixed number of
// requests outstanding (CPU time per request).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "common.hpp"
#include "geom/intersect.hpp"
#include "geom/rng.hpp"
#include "kdtree/builder.hpp"
#include "kdtree/packet.hpp"
#include "kdtree/tree.hpp"
#include "parallel/thread_pool.hpp"
#include "scene/generators.hpp"
#include "serve/query_service.hpp"
#include "serve/scene_registry.hpp"
#include "shard/shard_router.hpp"

namespace perfbench {
namespace {

using namespace kdtune;

constexpr unsigned kPoolWorkers = 3;     ///< nproc - 1 on the 4-core reference
constexpr std::size_t kPlanCount = 16384;  ///< distinct requests per run
constexpr int kPacketRays = 16;
constexpr std::uint32_t kKnnK = 8;
/// A request still unanswered this long after the last send is failed.
constexpr double kDrainTimeoutS = 5.0;
/// Latency recorded for a request that failed: above every limit.
constexpr double kMissedUs = 1e9;
constexpr double kWarmupS = 0.5;
/// Share of --seconds at the nominal rate; the rest saturates the service.
constexpr double kNominalShare = 0.5;
/// Completions and CPU time are counted per slice of the saturation phase;
/// the run reports the median slice, so a short stall moves it little.
constexpr double kSliceS = 0.25;
/// Saturation runs this long before completions count: after the light
/// nominal phase the idle vCPUs take about a second to come up to speed.
constexpr double kSaturateWarmupS = 1.0;
constexpr std::size_t kTailWindow = 1000;  ///< requests per tail window
/// Completion-poll period of the generator while requests are outstanding:
/// the resolution of observed completion times.
constexpr std::chrono::microseconds kPollInterval{20};

constexpr std::array<const char*, kQueryKindCount> kFamilyNames = {
    "closest_hit", "any_hit", "packet", "range", "knn", "closest_point"};
constexpr std::array<const char*, kQueryKindCount> kDirectSpanNames = {
    "kdtree.closest_hit", "kdtree.any_hit", "kdtree.packet",
    "kdtree.range", "kdtree.knn", "kdtree.closest_point"};

/// Fixed constants of one serving workload (see perfbench/README.md for the
/// reason behind each value).
struct ServingConstants {
  double nominal_rate = 0.0;  ///< requests/s of the latency phase
  std::size_t window = 0;     ///< requests outstanding while saturating
};

// ---------------------------------------------------------------------------
// Planned requests and their reference answers.

struct Plan {
  QueryKind kind = QueryKind::kClosestHit;
  Ray ray{};
  std::vector<Ray> rays;
  AABB box{};
  Vec3 point{};
  std::uint32_t k = 1;
  float max_distance = std::numeric_limits<float>::infinity();

  Hit expect_hit{};
  bool expect_any = false;
  std::vector<Hit> expect_hits;
  std::vector<std::uint32_t> expect_ids;
  std::vector<NearestResult> expect_neighbors;
  NearestResult expect_nearest{};
};

/// A ray from outside the bounds toward a random point inside them.
Ray ray_into(Rng& rng, const AABB& box) {
  const Vec3 origin =
      box.center() + normalized(Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                                     rng.uniform(-1, 1)}) *
                         (length(box.extent()) * 0.8f + 0.5f);
  const Vec3 target{rng.uniform(box.lo.x, box.hi.x),
                    rng.uniform(box.lo.y, box.hi.y),
                    rng.uniform(box.lo.z, box.hi.z)};
  Vec3 dir = target - origin;
  if (length(dir) == 0.0f) dir = {1, 0, 0};
  return Ray(origin, normalized(dir));
}

/// A ray from a random point inside the (slightly shrunk) bounds in a
/// random direction: a viewer inside an enclosed scene.
Ray ray_from_inside(Rng& rng, const AABB& box) {
  const Vec3 margin = box.extent() * 0.05f;
  const Vec3 origin{rng.uniform(box.lo.x + margin.x, box.hi.x - margin.x),
                    rng.uniform(box.lo.y + margin.y, box.hi.y - margin.y),
                    rng.uniform(box.lo.z + margin.z, box.hi.z - margin.z)};
  Vec3 dir{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  if (length(dir) == 0.0f) dir = {0, 0, 1};
  return Ray(origin, normalized(dir));
}

/// Collision-detection style range box around a random target, sized like a
/// moving object's swept bounds (as tools/kdtune_serve generates them).
AABB collision_box(Rng& rng, const AABB& bounds) {
  const float diag = length(bounds.extent());
  const Vec3 center{rng.uniform(bounds.lo.x, bounds.hi.x),
                    rng.uniform(bounds.lo.y, bounds.hi.y),
                    rng.uniform(bounds.lo.z, bounds.hi.z)};
  const Vec3 half{rng.uniform(0.01f, 0.12f) * diag,
                  rng.uniform(0.01f, 0.12f) * diag,
                  rng.uniform(0.01f, 0.12f) * diag};
  return AABB(center - half, center + half);
}

Vec3 probe_point(Rng& rng, const AABB& bounds) {
  const float pad = 0.2f * length(bounds.extent());
  return {rng.uniform(bounds.lo.x - pad, bounds.hi.x + pad),
          rng.uniform(bounds.lo.y - pad, bounds.hi.y + pad),
          rng.uniform(bounds.lo.z - pad, bounds.hi.z + pad)};
}

void canonicalize(std::vector<std::uint32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// serve_mixed: 40% closest-hit, 15% any-hit, 5% 16-ray packets, 15% range,
/// 15% kNN (k = 8), 10% closest-point.
Plan plan_mixed(Rng& rng, const AABB& box, const KdTreeBase& ref) {
  Plan p;
  const std::int64_t mix = rng.next_int(0, 99);
  const float diag = length(box.extent());
  if (mix < 40) {
    p.kind = QueryKind::kClosestHit;
    p.ray = ray_into(rng, box);
    p.expect_hit = ref.closest_hit(p.ray);
  } else if (mix < 55) {
    p.kind = QueryKind::kAnyHit;
    p.ray = ray_into(rng, box);
    p.expect_any = ref.any_hit(p.ray);
  } else if (mix < 60) {
    p.kind = QueryKind::kPacket;
    for (int r = 0; r < kPacketRays; ++r) {
      p.rays.push_back(ray_into(rng, box));
      p.expect_hits.push_back(ref.closest_hit(p.rays.back()));
    }
  } else if (mix < 75) {
    p.kind = QueryKind::kRange;
    p.box = collision_box(rng, box);
    ref.query_range(p.box, p.expect_ids);
    canonicalize(p.expect_ids);
  } else if (mix < 90) {
    p.kind = QueryKind::kNearest;
    p.point = probe_point(rng, box);
    p.k = kKnnK;
    ref.nearest_k(p.point, p.k, p.expect_neighbors, p.max_distance);
  } else {
    p.kind = QueryKind::kClosestPoint;
    p.point = probe_point(rng, box);
    p.max_distance = rng.uniform(0.3f, 1.0f) * (diag + 1.0f);
    p.expect_nearest = ref.nearest_within(p.point, p.max_distance);
  }
  return p;
}

/// shard_rays: 70% closest-hit, 30% any-hit, from viewers inside the scene.
Plan plan_rays(Rng& rng, const AABB& box, const KdTreeBase& ref) {
  Plan p;
  p.ray = ray_from_inside(rng, box);
  if (rng.next_int(0, 9) < 7) {
    p.kind = QueryKind::kClosestHit;
    p.expect_hit = ref.closest_hit(p.ray);
  } else {
    p.kind = QueryKind::kAnyHit;
    p.expect_any = ref.any_hit(p.ray);
  }
  return p;
}

bool same_hit(const Hit& a, const Hit& b) {
  return a.valid() == b.valid() && (!a.valid() || a.t == b.t);
}

bool verify(const Plan& plan, const QueryResponse& resp) {
  switch (plan.kind) {
    case QueryKind::kClosestHit:
      return same_hit(resp.hit, plan.expect_hit);
    case QueryKind::kAnyHit:
      return resp.any == plan.expect_any;
    case QueryKind::kPacket:
      if (resp.hits.size() != plan.expect_hits.size()) return false;
      for (std::size_t i = 0; i < resp.hits.size(); ++i) {
        if (!same_hit(resp.hits[i], plan.expect_hits[i])) return false;
      }
      return true;
    case QueryKind::kRange:
      return resp.range_ids == plan.expect_ids;
    case QueryKind::kNearest:
      if (resp.neighbors.size() != plan.expect_neighbors.size()) return false;
      for (std::size_t i = 0; i < resp.neighbors.size(); ++i) {
        if (resp.neighbors[i].triangle != plan.expect_neighbors[i].triangle ||
            resp.neighbors[i].distance_sq !=
                plan.expect_neighbors[i].distance_sq) {
          return false;
        }
      }
      return true;
    case QueryKind::kClosestPoint:
      return resp.nearest.valid() == plan.expect_nearest.valid() &&
             (!resp.nearest.valid() ||
              (resp.nearest.triangle == plan.expect_nearest.triangle &&
               resp.nearest.distance_sq == plan.expect_nearest.distance_sq));
  }
  return false;
}

/// Makes a response wrong in a way no reference can match (self-test).
void corrupt(QueryResponse& resp) {
  const auto flip = [](Hit& h) {
    h = h.valid() ? Hit{} : Hit{1.0f, 0, 0.0f, 0.0f};
  };
  flip(resp.hit);
  resp.any = !resp.any;
  if (!resp.hits.empty()) flip(resp.hits[0]);
  resp.range_ids.push_back(Hit::kNoTriangle);
  resp.neighbors.emplace_back();
  resp.nearest = resp.nearest.valid() ? NearestResult{}
                                      : NearestResult{0, {}, 0.0f};
}

/// The expected answers (from a sequential sweep-builder tree) and the
/// oracle that settles a disagreement with them: brute force over the soup
/// for the ray families, a median-builder tree for range and point queries.
/// An answer is right when it equals the sweep reference, or when it differs
/// from it and equals the oracle; the second case is a defect of the
/// reference tree and is reported as such, never counted against the run.
class Reference {
 public:
  Reference(std::vector<Plan> plans, std::vector<Triangle> triangles,
            bool point_oracle, bool plant_wrong)
      : plans_(std::move(plans)), triangles_(std::move(triangles)),
        point_oracle_(point_oracle), plant_wrong_(plant_wrong) {}

  const std::vector<Plan>& plans() const noexcept { return plans_; }
  std::uint64_t overruled() const noexcept { return overruled_; }

  /// True when `resp` is the right answer to request `index`.
  bool check(std::size_t index, QueryResponse resp) {
    if (plant_wrong_) {
      plant_wrong_ = false;
      corrupt(resp);
    }
    const Plan& plan = plans_[index];
    if (verify(plan, resp)) return true;
    Plan oracle = plan;
    if (resolve(oracle) && verify(oracle, resp)) {
      if (++overruled_ <= kReported) {
        std::fprintf(stderr,
                     "perfbench: the sweep-builder reference is wrong on "
                     "request %zu (%s); the answer served matches the "
                     "oracle\n",
                     index, std::string(to_string(plan.kind)).c_str());
      }
      return true;
    }
    if (++wrong_ <= kReported) {
      std::fprintf(stderr,
                   "perfbench: wrong answer to request %zu (%s): expected "
                   "hit t=%a tri=%u any=%d, got hit t=%a tri=%u any=%d\n",
                   index, std::string(to_string(plan.kind)).c_str(),
                   plan.expect_hit.t, plan.expect_hit.triangle,
                   plan.expect_any ? 1 : 0, resp.hit.t, resp.hit.triangle,
                   resp.any ? 1 : 0);
    }
    return false;
  }

 private:
  static constexpr std::uint64_t kReported = 5;

  /// Recomputes the expected answer of `p` with the oracle; false when the
  /// family has none. The median-builder tree is built on first use only, so
  /// it is absent from the memory figures of every run that never needs it.
  bool resolve(Plan& p) {
    switch (p.kind) {
      case QueryKind::kClosestHit:
        p.expect_hit = brute_force_closest_hit(p.ray, triangles_);
        return true;
      case QueryKind::kAnyHit:
        p.expect_any = brute_force_any_hit(p.ray, triangles_);
        return true;
      case QueryKind::kPacket:
        for (std::size_t r = 0; r < p.rays.size(); ++r) {
          p.expect_hits[r] = brute_force_closest_hit(p.rays[r], triangles_);
        }
        return true;
      default:
        break;
    }
    if (!point_oracle_) return false;
    if (second_ == nullptr) {
      ThreadPool sequential(0);
      second_ = make_median_builder()->build(triangles_, kBaseConfig,
                                             sequential);
    }
    switch (p.kind) {
      case QueryKind::kRange:
        p.expect_ids.clear();
        second_->query_range(p.box, p.expect_ids);
        canonicalize(p.expect_ids);
        return true;
      case QueryKind::kNearest:
        p.expect_neighbors.clear();
        second_->nearest_k(p.point, p.k, p.expect_neighbors, p.max_distance);
        return true;
      case QueryKind::kClosestPoint:
        p.expect_nearest = second_->nearest_within(p.point, p.max_distance);
        return true;
      default:
        return false;
    }
  }

  std::vector<Plan> plans_;
  std::vector<Triangle> triangles_;
  bool point_oracle_;
  std::unique_ptr<KdTreeBase> second_;  ///< median-builder oracle, lazily
  bool plant_wrong_;
  std::uint64_t overruled_ = 0;
  std::uint64_t wrong_ = 0;
};

using Submit = std::function<std::future<QueryResponse>(const Plan&)>;

// ---------------------------------------------------------------------------
// The open-loop generator.

/// Sets the calling thread's timer slack to 1 ns for its lifetime, so the
/// generator's short sleeps end on time (the default 50 us slack would make
/// every send and poll up to 50 us late). Restored on destruction; threads
/// the program under test starts keep the default.
class FineTimerSlack {
 public:
  FineTimerSlack() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~FineTimerSlack() {
    if (saved_ > 0) {
      prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
    }
  }
  FineTimerSlack(const FineTimerSlack&) = delete;
  FineTimerSlack& operator=(const FineTimerSlack&) = delete;

 private:
  int saved_;
};

struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;      ///< non-ok status or never answered
  std::uint64_t mismatches = 0;  ///< ok status, wrong answer
  std::vector<double> latency_us;  ///< every sent request; failed = kMissedUs
  std::array<std::vector<double>, kQueryKindCount> family_us;
  std::vector<double> lateness_us;
  std::vector<double> submit_us;
  std::size_t first_plan = 0;   ///< plan index of the phase's first request
  double throughput = 0.0;      ///< saturation only: median slice ok/s
  /// Saturation only: median over slices of the program's CPU time (the
  /// process less the generator thread) per request answered ok, in us.
  double cpu_us_per_op = 0.0;
};

class Generator {
 public:
  Generator(Reference& ref, Submit submit, SpanLog& spans,
            const char* request_span, const char* submit_span)
      : ref_(ref),
        plans_(ref.plans()),
        submit_(std::move(submit)),
        spans_(spans),
        request_span_(request_span),
        submit_span_(submit_span) {}

  /// Sends `rate` requests/s for `seconds`, with the CPUs kept awake.
  Phase run(double rate, double seconds) {
    const IdleSpinners awake;
    const FineTimerSlack slack;
    Phase ph;
    ph.first_plan = next_plan_;
    const auto count = static_cast<std::uint64_t>(rate * seconds);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    const double period_ns = 1e9 / rate;
    for (std::uint64_t i = 0; i < count; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                   static_cast<double>(i) * period_ns));
      wait_until(ph, due);
      const Clock::time_point returned = send(ph, due);
      ph.lateness_us.push_back(seconds_between(due, pending_.back().sent) *
                               1e6);
      if ((i & 7) == 7) poll(ph, returned);
    }
    drain(ph);
    return ph;
  }

  /// Keeps `window` requests outstanding for kSaturateWarmupS + `seconds`:
  /// every kPollInterval the generator collects the completed requests and
  /// sends as many new ones (their latency runs from their send). The window
  /// is deep enough that the service never runs dry between two polls.
  /// Completions are counted after the warm-up.
  Phase saturate(std::size_t window, double seconds) {
    const FineTimerSlack slack;
    Phase ph;
    ph.first_plan = next_plan_;
    const Clock::time_point t0 =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kSaturateWarmupS));
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kSliceS));
    const auto slices = static_cast<std::size_t>(
        std::max(1.0, std::floor(seconds / kSliceS)));
    const Clock::time_point end = t0 + slice * static_cast<long>(slices);
    // Per slice: ok completions, wall span and program CPU time.
    std::vector<double> rates, cpu_per_op;
    long cur = -1;  // slice being counted; -1 during the warm-up
    std::uint64_t slice_ok = 0;
    Clock::time_point slice_t0{};
    double slice_cpu0 = 0.0;
    const auto close_slice = [&](Clock::time_point now, double cpu) {
      if (cur < 0 || slice_ok == 0) return;
      rates.push_back(static_cast<double>(slice_ok) /
                      seconds_between(slice_t0, now));
      cpu_per_op.push_back((cpu - slice_cpu0) * 1e6 /
                           static_cast<double>(slice_ok));
    };
    Clock::time_point now = Clock::now();
    for (; now < end; now = Clock::now()) {
      const long k = now < t0 ? -1 : static_cast<long>((now - t0) / slice);
      if (k != cur) {
        const double cpu = process_cpu_seconds() - thread_cpu_seconds();
        close_slice(now, cpu);
        cur = k;
        slice_ok = 0;
        slice_t0 = now;
        slice_cpu0 = cpu;
      }
      const std::uint64_t ok_before = ph.ok;
      poll(ph, now);
      slice_ok += ph.ok - ok_before;
      while (pending_.size() < window) send(ph, Clock::now());
      std::this_thread::sleep_for(kPollInterval);
    }
    close_slice(now, process_cpu_seconds() - thread_cpu_seconds());
    ph.throughput = median(rates);
    ph.cpu_us_per_op = median(cpu_per_op);
    drain(ph);
    return ph;
  }

 private:
  struct Pending {
    std::future<QueryResponse> future;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point returned;
    std::size_t plan = 0;
    std::uint64_t request = 0;
  };

  /// Submits the next planned request, due at `due`; returns when the submit
  /// call returned.
  Clock::time_point send(Phase& ph, Clock::time_point due) {
    const std::size_t idx = next_plan_;
    next_plan_ = (next_plan_ + 1) % plans_.size();
    const Clock::time_point sent = Clock::now();
    std::future<QueryResponse> fut = submit_(plans_[idx]);
    const Clock::time_point returned = Clock::now();
    ph.submit_us.push_back(seconds_between(sent, returned) * 1e6);
    pending_.push_back({std::move(fut), due, sent, returned, idx,
                        request_id_++});
    ++ph.sent;
    return returned;
  }

  /// Waits for every outstanding request, polling every kPollInterval.
  void drain(Phase& ph) {
    const Clock::time_point give_up =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainTimeoutS));
    while (!pending_.empty()) {
      const Clock::time_point now = Clock::now();
      if (now > give_up) {
        // Unanswered requests: failed, waited for so no future outlives
        // the phase (a QueryService answers every accepted request).
        for (Pending& p : pending_) {
          p.future.wait();
          ++ph.failed;
          ph.latency_us.push_back(kMissedUs);
        }
        pending_.clear();
        break;
      }
      poll(ph, now);
      std::this_thread::sleep_for(kPollInterval);
    }
  }

  /// Sleeps until `due`, waking every kPollInterval while requests are
  /// outstanding to observe completions. Sleeping rather than spinning
  /// leaves the cores to the program under test.
  void wait_until(Phase& ph, Clock::time_point due) {
    for (Clock::time_point now = Clock::now(); now < due;
         now = Clock::now()) {
      poll(ph, now);
      const Clock::duration left = due - now;
      std::this_thread::sleep_for(pending_.empty()
                                      ? left
                                      : std::min<Clock::duration>(
                                            left, kPollInterval));
    }
  }

  void poll(Phase& ph, Clock::time_point now) {
    for (std::size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      complete(ph, p, now);
      if (i + 1 != pending_.size()) p = std::move(pending_.back());
      pending_.pop_back();
    }
  }

  void complete(Phase& ph, Pending& p, Clock::time_point now) {
    const QueryResponse resp = p.future.get();
    const Plan& plan = plans_[p.plan];
    const auto fam = static_cast<std::size_t>(plan.kind);
    double us = seconds_between(p.due, now) * 1e6;
    if (resp.status != QueryStatus::kOk) {
      ++ph.failed;
      us = kMissedUs;
    } else if (!ref_.check(p.plan, resp)) {
      ++ph.mismatches;
      us = kMissedUs;
    } else {
      ++ph.ok;
    }
    ph.latency_us.push_back(us);
    ph.family_us[fam].push_back(us);
    if (spans_.enabled()) {
      const SpanLog::Id id =
          spans_.add(request_span_, p.due, now, 0, p.request);
      spans_.add(submit_span_, p.sent, p.returned, id, p.request);
    }
  }

  Reference& ref_;
  const std::vector<Plan>& plans_;
  Submit submit_;
  SpanLog& spans_;
  const char* request_span_;
  const char* submit_span_;
  std::vector<Pending> pending_;
  std::size_t next_plan_ = 0;
  std::uint64_t request_id_ = 1;
};

/// Median over consecutive windows of kTailWindow completions of each
/// window's q-quantile: a stall that hits a few windows does not set the
/// run's figure.
double windowed_quantile(const std::vector<double>& latency_us, double q) {
  std::vector<double> per_window;
  for (std::size_t start = 0; start + kTailWindow <= latency_us.size();
       start += kTailWindow) {
    per_window.push_back(quantile(
        std::vector<double>(latency_us.begin() + static_cast<long>(start),
                            latency_us.begin() +
                                static_cast<long>(start + kTailWindow)),
        q));
  }
  if (per_window.empty()) return quantile(latency_us, q);
  return median(per_window);
}

void add_end_to_end(WorkloadResult& out, double setup_s, const Phase& nominal,
                    const Phase& saturated) {
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("ok_share",
          static_cast<double>(nominal.ok) /
              static_cast<double>(std::max<std::uint64_t>(nominal.sent, 1)),
          "fraction");
  out.add("latency_p50_us", quantile(nominal.latency_us, 0.5), "us");
  out.add("cpu_us_per_op", saturated.cpu_us_per_op, "us");
}

void add_generator_layers(WorkloadResult& out, const Phase& nominal,
                          const Phase& saturated) {
  out.add("generator.throughput_per_s", saturated.throughput, "1/s");
  out.add("serve.latency_p90_us", windowed_quantile(nominal.latency_us, 0.9),
          "us");
  out.add("serve.latency_p99_us", windowed_quantile(nominal.latency_us, 0.99),
          "us");
  out.add("serve.submit_us_p50", quantile(nominal.submit_us, 0.5), "us");
  out.add("generator.lateness_us_p99", quantile(nominal.lateness_us, 0.99),
          "us");
}

void account(WorkloadResult& out, const Phase& warmup, const Phase& nominal,
             const Phase& saturated) {
  out.attempted += warmup.sent + nominal.sent + saturated.sent;
  const std::uint64_t wrong =
      warmup.mismatches + nominal.mismatches + saturated.mismatches;
  out.failed += wrong + nominal.failed + saturated.failed;
  if (wrong > 0) {
    out.correct = false;
    out.notes.push_back(std::to_string(wrong) +
                        " response(s) differ from the reference tree");
  }
}

/// kPlanCount requests with their reference answers, from a sequential
/// sweep build of `scene`; `point_oracle` adds the median-builder tree that
/// settles range and point-query disagreements when one occurs.
template <typename PlanFn>
Reference make_reference(const Scene& scene, std::uint64_t seed,
                         PlanFn plan_fn, bool point_oracle, bool plant_wrong) {
  ThreadPool sequential(0);
  const auto sweep = make_sweep_builder()->build(scene.triangles(),
                                                 kBaseConfig, sequential);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const AABB box = scene.bounds();
  std::vector<Plan> plans;
  plans.reserve(kPlanCount);
  for (std::size_t i = 0; i < kPlanCount; ++i) {
    plans.push_back(plan_fn(rng, box, *sweep));
  }
  const auto tris = scene.triangles();
  return Reference(std::move(plans),
                   std::vector<Triangle>(tris.begin(), tris.end()),
                   point_oracle, plant_wrong);
}

std::future<QueryResponse> submit_to_service(QueryService& svc,
                                             const std::string& scene,
                                             const Plan& p) {
  switch (p.kind) {
    case QueryKind::kClosestHit: return svc.submit_closest_hit(scene, p.ray);
    case QueryKind::kAnyHit: return svc.submit_any_hit(scene, p.ray);
    case QueryKind::kPacket: return svc.submit_packet(scene, p.rays);
    case QueryKind::kRange: return svc.submit_range(scene, p.box);
    case QueryKind::kNearest:
      return svc.submit_nearest(scene, p.point, p.k, p.max_distance);
    case QueryKind::kClosestPoint:
      return svc.submit_closest_point(scene, p.point, p.max_distance);
  }
  throw std::logic_error("unknown query kind");
}

std::future<QueryResponse> submit_to_router(ShardRouter& router,
                                            const Plan& p) {
  static const std::string tenant = "bench";
  switch (p.kind) {
    case QueryKind::kClosestHit:
      return router.submit_closest_hit(tenant, p.ray);
    case QueryKind::kAnyHit: return router.submit_any_hit(tenant, p.ray);
    default: break;
  }
  throw std::logic_error("shard_rays sends rays only");
}

/// Replays the nominal phase's requests on `tree` directly (off the serving
/// path, one at a time), timing each; returns per-family and overall p50.
void replay_direct(Reference& ref, const Phase& nominal,
                   const KdTreeBase& tree, SpanLog& spans,
                   WorkloadResult& out, std::uint64_t& mismatches) {
  const std::vector<Plan>& plans = ref.plans();
  std::array<std::vector<double>, kQueryKindCount> fam_us;
  std::vector<double> all_us;
  const std::size_t n = std::min<std::size_t>(nominal.sent, plans.size());
  QueryResponse resp;
  for (std::size_t i = 0; i < n; ++i) {
    const Plan& p = plans[(nominal.first_plan + i) % plans.size()];
    const auto fam = static_cast<std::size_t>(p.kind);
    const Clock::time_point a = Clock::now();
    switch (p.kind) {
      case QueryKind::kClosestHit: resp.hit = tree.closest_hit(p.ray); break;
      case QueryKind::kAnyHit: resp.any = tree.any_hit(p.ray); break;
      case QueryKind::kPacket:
        resp.hits.assign(p.rays.size(), Hit{});
        closest_hit_packet_any(tree, p.rays, resp.hits);
        break;
      case QueryKind::kRange:
        resp.range_ids.clear();
        tree.query_range(p.box, resp.range_ids);
        canonicalize(resp.range_ids);
        break;
      case QueryKind::kNearest:
        resp.neighbors.clear();
        tree.nearest_k(p.point, p.k, resp.neighbors, p.max_distance);
        break;
      case QueryKind::kClosestPoint:
        resp.nearest = tree.nearest_within(p.point, p.max_distance);
        break;
    }
    const Clock::time_point b = Clock::now();
    spans.add(kDirectSpanNames[fam], a, b, 0, i);
    if (!ref.check((nominal.first_plan + i) % plans.size(), resp)) {
      ++mismatches;
    }
    const double us = seconds_between(a, b) * 1e6;
    fam_us[fam].push_back(us);
    all_us.push_back(us);
  }
  for (std::size_t f = 0; f < kQueryKindCount; ++f) {
    if (fam_us[f].empty()) continue;
    out.add(std::string("kdtree.") + kFamilyNames[f] + ".direct_us_p50",
            quantile(fam_us[f], 0.5), "us");
  }
  out.add("kdtree.direct_us_p50", quantile(all_us, 0.5), "us");

}

/// Traversal work of the served configuration, counted on an eager build
/// of the same geometry and config (the counted paths live on KdTree).
void count_tree_work(const Scene& scene, const std::vector<Plan>& plans,
                     ThreadPool& pool, WorkloadResult& out) {
  const auto built = make_builder(Algorithm::kInPlace)
                         ->build(scene.triangles(), kBaseConfig, pool);
  const auto* tree = dynamic_cast<const KdTree*>(built.get());
  if (tree == nullptr) return;
  TraversalCounters counters;
  KnnSearchStats knn;
  std::size_t rays = 0, points = 0;
  for (const Plan& p : plans) {
    if (p.kind == QueryKind::kClosestHit) {
      (void)tree->closest_hit_counted(p.ray, counters);
      ++rays;
    } else if (p.kind == QueryKind::kNearest ||
               p.kind == QueryKind::kClosestPoint) {
      (void)tree->nearest_counted(p.point, knn);
      ++points;
    }
  }
  const TreeStats st = tree->stats();
  out.add("kdtree.sah_cost", st.sah_cost, "cost");
  out.add("kdtree.node_count", static_cast<double>(st.node_count), "count");
  if (rays > 0) {
    out.add("kdtree.interior_per_ray",
            static_cast<double>(counters.interior_visited) / rays, "count");
    out.add("kdtree.tris_per_ray",
            static_cast<double>(counters.triangles_tested) / rays, "count");
  }
  if (points > 0) {
    out.add("kdtree.knn.popped_per_query",
            static_cast<double>(knn.popped) / points, "count");
    out.add("kdtree.knn.pruned_per_query",
            static_cast<double>(knn.pruned) / points, "count");
  }
}

void add_service_layers(WorkloadResult& out, const ServiceStats& before,
                        const ServiceStats& after,
                        const ServiceStats& total) {
  const double batches = static_cast<double>(after.batches - before.batches);
  out.add("serve.batch_occupancy_mean",
          batches > 0.0 ? static_cast<double>(after.accepted -
                                              before.accepted) / batches
                        : 0.0,
          "requests");
  out.add("serve.batches", batches, "count");
  out.add("serve.rejected_overflow",
          static_cast<double>(total.rejected_overflow), "count");
  out.add("serve.timed_out", static_cast<double>(total.timed_out), "count");
}


// ---------------------------------------------------------------------------
// serve_mixed

// Bunny at detail 1.0: 69.7k triangles, a working set above a 2 MiB L2.
constexpr ServingConstants kMixed{/*nominal_rate=*/4000.0, /*window=*/256};

// serve_mixed's set-up is short (~0.1 s), so it is repeated more often.
constexpr int kMixedSetupReps = 9;

WorkloadResult mixed_pass(const RunOptions& opts, Reference& ref,
                          bool traced) {
  SpanLog spans(traced);
  WorkloadResult out;
  ThreadPool pool(kPoolWorkers);

  std::vector<double> setup_s, generate_s, admit_s;
  std::unique_ptr<SceneRegistry> registry;
  Scene scene;
  for (SetupReps reps(kMixedSetupReps); reps.more();) {
    const bool timed = reps.next();
    registry.reset();
    const Clock::time_point g0 = Clock::now();
    scene = make_bunny(1.0f);
    const Clock::time_point g1 = Clock::now();
    registry = std::make_unique<SceneRegistry>(pool);
    registry->admit("bunny", scene);
    const Clock::time_point a1 = Clock::now();
    spans.add("scene.generate", g0, g1);
    spans.add("serve.admit", g1, a1);
    if (!timed) continue;
    generate_s.push_back(seconds_between(g0, g1));
    admit_s.push_back(seconds_between(g1, a1));
    setup_s.push_back(seconds_between(g0, a1));
  }

  QueryService service(*registry, pool, ServiceOptions{});
  const std::string name = "bunny";
  Generator gen(
      ref,
      [&](const Plan& p) { return submit_to_service(service, name, p); },
      spans, "serve.request", "serve.submit");
  const double phase_s = opts.seconds * kNominalShare;
  const Phase warmup = gen.run(kMixed.nominal_rate, kWarmupS);
  const ServiceStats before = service.stats();
  const Phase nominal = gen.run(kMixed.nominal_rate, phase_s);
  const ServiceStats after = service.stats();
  const Phase saturated = gen.saturate(kMixed.window, opts.seconds - phase_s);
  service.drain();

  add_end_to_end(out, median(setup_s), nominal, saturated);
  account(out, warmup, nominal, saturated);
  if (traced) {
    out.add("scene.generate_s", median(generate_s), "s");
    out.add("serve.admit_s", median(admit_s), "s");
    const auto snap = registry->acquire(name);
    out.add("kdtree.build_ms_p50", snap->build_seconds * 1e3, "ms");
    add_generator_layers(out, nominal, saturated);
    for (std::size_t f = 0; f < kQueryKindCount; ++f) {
      const std::string fam = kFamilyNames[f];
      out.add("serve." + fam + ".latency_p50_us",
              quantile(nominal.family_us[f], 0.5), "us");
      out.add("serve." + fam + ".latency_p99_us",
              quantile(nominal.family_us[f], 0.99), "us");
    }
    add_service_layers(out, before, after, service.stats());
    std::uint64_t wrong = 0;
    replay_direct(ref, nominal, *snap->tree, spans, out, wrong);
    if (wrong > 0) {
      out.correct = false;
      out.failed += wrong;
      out.notes.push_back(std::to_string(wrong) +
                          " direct replay answer(s) differ from the reference");
    }
    const Metric* direct = out.find("kdtree.direct_us_p50");
    out.add("serve.overhead_us_p50",
            quantile(nominal.latency_us, 0.5) - (direct ? direct->value : 0.0),
            "us");
    count_tree_work(scene, ref.plans(), pool, out);
    report_spans(spans, opts,
                 {"bench", "scene", "kdtree", "render", "tuning", "dynamic",
                  "serve", "shard"},
                 out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// shard_rays

// Sibenik at detail 1.0: 75.3k triangles, enclosed, so rays from inside cross
// several shards of the K = 4 cut tree.
constexpr int kShards = 4;
constexpr ServingConstants kRays{/*nominal_rate=*/2000.0, /*window=*/64};

/// Shard services dispatch at once. A router thread waits for its request's
/// sub-queries before it takes the next request, so a shard sees at most
/// router_threads sub-queries at a time and its batch never fills: with the
/// default 200 us flush timeout every sub-query would wait out the timer, and
/// the workload would measure the timer rather than the router.
ServiceOptions shard_service_options() {
  ServiceOptions o;
  o.params.flush_timeout_us = 0;
  return o;
}

constexpr int kShardSetupReps = 5;

WorkloadResult shard_pass(const RunOptions& opts, Reference& ref,
                          bool traced) {
  SpanLog spans(traced);
  WorkloadResult out;

  ShardRouterOptions ropts;
  ropts.shard_count = kShards;
  ropts.shard_service = shard_service_options();
  ropts.workers_per_shard = 0;
  std::vector<double> setup_s, generate_s, build_s;
  std::unique_ptr<ShardRouter> router;
  Scene scene;
  for (SetupReps reps(kShardSetupReps); reps.more();) {
    const bool timed = reps.next();
    router.reset();
    const Clock::time_point g0 = Clock::now();
    scene = make_sibenik(1.0f);
    const Clock::time_point g1 = Clock::now();
    const auto tris = scene.triangles();
    router = std::make_unique<ShardRouter>(
        std::vector<Triangle>(tris.begin(), tris.end()), ropts);
    const Clock::time_point b1 = Clock::now();
    spans.add("scene.generate", g0, g1);
    spans.add("shard.cluster_build", g1, b1);
    if (!timed) continue;
    generate_s.push_back(seconds_between(g0, g1));
    build_s.push_back(seconds_between(g1, b1));
    setup_s.push_back(seconds_between(g0, b1));
  }

  Generator gen(
      ref, [&](const Plan& p) { return submit_to_router(*router, p); },
      spans, "shard.request", "shard.submit");
  const double phase_s = opts.seconds * kNominalShare;
  const Phase warmup = gen.run(kRays.nominal_rate, kWarmupS);
  std::array<ServiceStats, kShards> before{};
  for (int k = 0; k < kShards; ++k) {
    if (QueryService* svc = router->shard_service(k)) before[k] = svc->stats();
  }
  const Phase nominal = gen.run(kRays.nominal_rate, phase_s);
  std::array<ServiceStats, kShards> after{};
  for (int k = 0; k < kShards; ++k) {
    if (QueryService* svc = router->shard_service(k)) after[k] = svc->stats();
  }
  const Phase saturated = gen.saturate(kRays.window, opts.seconds - phase_s);
  router->drain();

  add_end_to_end(out, median(setup_s), nominal, saturated);
  account(out, warmup, nominal, saturated);
  if (traced) {
    out.add("scene.generate_s", median(generate_s), "s");
    out.add("shard.cluster_build_s", median(build_s), "s");
    add_generator_layers(out, nominal, saturated);
    for (std::size_t f = 0; f < 2; ++f) {
      const std::string fam = kFamilyNames[f];
      out.add("serve." + fam + ".latency_p50_us",
              quantile(nominal.family_us[f], 0.5), "us");
      out.add("serve." + fam + ".latency_p99_us",
              quantile(nominal.family_us[f], 0.99), "us");
    }
    ServiceStats b{}, a{}, total{};
    for (int k = 0; k < kShards; ++k) {
      b.batches += before[k].batches;
      b.accepted += before[k].accepted;
      a.batches += after[k].batches;
      a.accepted += after[k].accepted;
      if (QueryService* svc = router->shard_service(k)) {
        const ServiceStats st = svc->stats();
        total.rejected_overflow += st.rejected_overflow;
        total.timed_out += st.timed_out;
      }
    }
    const ShardRouterStats rs = router->stats();
    total.rejected_overflow += rs.rejected_overflow;
    total.timed_out += rs.timed_out;
    add_service_layers(out, b, a, total);
    out.add("shard.fanout_mean", rs.mean_fanout, "shards");
    std::uint64_t slot_subqueries = 0;
    std::vector<double> wave_us;
    for (const ShardSlotStats& slot : rs.shards) {
      slot_subqueries += slot.subqueries;
      wave_us.push_back(slot.p50_seconds * 1e6);
    }
    out.add("shard.subqueries_per_request",
            static_cast<double>(slot_subqueries) /
                static_cast<double>(std::max<std::uint64_t>(rs.completed, 1)),
            "count");
    out.add("shard.wave_us_p50", median(wave_us), "us");
    router.reset();

    // The same stream through a plain QueryService on the unsharded tree,
    // with the shards' service options.
    ThreadPool pool(kPoolWorkers);
    SceneRegistry registry(pool);
    const Clock::time_point a0 = Clock::now();
    registry.admit("sibenik", scene);
    const Clock::time_point a1 = Clock::now();
    spans.add("serve.admit", a0, a1);
    out.add("serve.admit_s", seconds_between(a0, a1), "s");
    const auto snap = registry.acquire("sibenik");
    out.add("kdtree.build_ms_p50", snap->build_seconds * 1e3, "ms");
    QueryService service(registry, pool, shard_service_options());
    const std::string name = "sibenik";
    Generator direct(
        ref,
        [&](const Plan& p) { return submit_to_service(service, name, p); },
        spans, "serve.request", "serve.submit");
    (void)direct.run(kRays.nominal_rate, kWarmupS);
    const Phase dphase = direct.run(kRays.nominal_rate, phase_s * 0.5);
    service.drain();
    out.add("shard.direct_latency_p50_us", quantile(dphase.latency_us, 0.5),
            "us");
    out.attempted += dphase.sent;
    if (dphase.mismatches > 0) {
      out.correct = false;
      out.failed += dphase.mismatches;
    }
    std::uint64_t wrong = 0;
    replay_direct(ref, nominal, *snap->tree, spans, out, wrong);
    if (wrong > 0) {
      out.correct = false;
      out.failed += wrong;
    }
    count_tree_work(scene, ref.plans(), pool, out);
    report_spans(spans, opts,
                 {"bench", "scene", "kdtree", "render", "tuning", "dynamic",
                  "serve", "shard"},
                 out);
  }
  return out;
}

WorkloadResult with_notes(WorkloadResult out, const Reference& ref) {
  if (ref.overruled() > 0) {
    out.notes.push_back("the sweep-builder reference was wrong on " +
                        std::to_string(ref.overruled()) +
                        " answer(s); the oracle confirmed the served ones");
  }
  return out;
}

}  // namespace

WorkloadResult run_serve_mixed(const RunOptions& opts) {
  const Clock::time_point ref_start = Clock::now();
  Reference ref = make_reference(make_bunny(1.0f), opts.seed, plan_mixed,
                                 /*point_oracle=*/true, opts.plant_wrong);
  log_phase("reference answers", ref_start);
  return with_notes(run_passes(opts, [&](bool traced) {
                      return mixed_pass(opts, ref, traced);
                    }),
                    ref);
}

WorkloadResult run_shard_rays(const RunOptions& opts) {
  const Clock::time_point ref_start = Clock::now();
  Reference ref = make_reference(make_sibenik(1.0f), opts.seed, plan_rays,
                                 /*point_oracle=*/false, opts.plant_wrong);
  log_phase("reference answers", ref_start);
  return with_notes(run_passes(opts, [&](bool traced) {
                      return shard_pass(opts, ref, traced);
                    }),
                    ref);
}

}  // namespace perfbench
