// frames_dynamic: the paper's dynamic-scene frame loop as a long-lived
// service.
//
// FramePipeline (overlap on, looping) rebuilds fairy_forest every frame with
// the in-place builder and publishes each tree by hot swap; each frame's
// query phase is a shaded 320x240 render() with shadow rays on the published
// snapshot. The measured loop builds at the paper's base configuration
// C_base. The traced run adds the tuning layer: a FrameTuner session that
// searches CI/CB/S under m = t_build + 1 * t_query for as long as the loop
// ran, and a pinned re-run of the configuration it found. Every framebuffer
// is checked against the hash of a reference render of the same animation
// frame, computed off the clock.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "dynamic/frame_pipeline.hpp"
#include "dynamic/frame_tuner.hpp"
#include "geom/rng.hpp"
#include "kdtree/builder.hpp"
#include "kdtree/tree.hpp"
#include "parallel/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/raycaster.hpp"
#include "scene/generators.hpp"
#include "serve/scene_registry.hpp"

namespace perfbench {
namespace {

using namespace kdtune;

// Fixed workload constants (never derived from a measurement of the code):
// 43.5k triangles at detail 0.5 puts one frame near 100 ms on 4 cores; the
// frame size and light count are the paper's ray-casting setup.
constexpr float kDetail = 0.5f;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr std::size_t kMinFrames = 100;  ///< measured frames per run, at least
constexpr std::size_t kPinnedFrames = 24;  ///< frames of the tuned re-run
constexpr int kSetupReps = 5;
constexpr unsigned kPoolWorkers = 3;  ///< nproc - 1 on the 4-core reference
constexpr int kProbeW = 64;           ///< counted-traversal probe grid
constexpr int kProbeH = 48;
constexpr std::size_t kRefThreads = 4;  ///< concurrent reference builds

/// fairy_forest with its loop shifted by a seed-chosen frame offset: the
/// seed picks which animation frame the run starts on.
class ShiftedAnimation final : public AnimatedScene {
 public:
  ShiftedAnimation(std::shared_ptr<const AnimatedScene> base,
                   std::size_t offset)
      : base_(std::move(base)), offset_(offset % base_->frame_count()) {}
  const std::string& name() const noexcept override { return base_->name(); }
  std::size_t frame_count() const noexcept override {
    return base_->frame_count();
  }
  Scene frame(std::size_t i) const override {
    return base_->frame((i + offset_) % base_->frame_count());
  }

 private:
  std::shared_ptr<const AnimatedScene> base_;
  std::size_t offset_;
};

std::uint64_t framebuffer_hash(const Framebuffer& fb) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      const Vec3& c = fb.at(x, y);
      const float rgb[3] = {c.x, c.y, c.z};
      h = fnv1a(rgb, sizeof(rgb), h);
    }
  }
  return h;
}

std::shared_ptr<const AnimatedScene> make_animation(std::uint64_t seed) {
  std::shared_ptr<const AnimatedScene> base = make_fairy_forest(kDetail);
  return std::make_shared<ShiftedAnimation>(std::move(base),
                                            static_cast<std::size_t>(seed));
}

/// Reference frame hashes: each animation frame built by the sequential
/// sweep builder and traced in the eager layout it was built in, plus the
/// same from the median builder, which settles a disagreement (an answer
/// matching only the median render is a defect of the sweep reference,
/// reported as such). kRefThreads frames are built at a time, one builder
/// thread each.
class Reference {
 public:
  Reference(const AnimatedScene& anim, const Scene& lights,
            const Camera& camera, ThreadPool& pool, bool plant_wrong)
      : plant_wrong_(plant_wrong) {
    const auto sweep = make_sweep_builder();
    const auto median = make_median_builder();
    RenderOptions ropts;
    ropts.use_compact = false;
    Framebuffer fb(kWidth, kHeight);
    const std::size_t n = anim.frame_count();
    for (std::size_t first = 0; first < n; first += kRefThreads) {
      const std::size_t count = std::min<std::size_t>(kRefThreads, n - first);
      std::vector<std::unique_ptr<KdTreeBase>> trees(2 * count);
      std::vector<std::thread> builders;
      for (std::size_t i = 0; i < count; ++i) {
        builders.emplace_back([&, i] {
          ThreadPool sequential(0);
          const Scene scene = anim.frame(first + i);
          trees[2 * i] =
              sweep->build(scene.triangles(), kBaseConfig, sequential);
          trees[2 * i + 1] =
              median->build(scene.triangles(), kBaseConfig, sequential);
        });
      }
      for (std::thread& t : builders) t.join();
      for (std::size_t i = 0; i < count; ++i) {
        render(*trees[2 * i], lights, camera, fb, pool, ropts);
        sweep_.push_back(framebuffer_hash(fb));
        render(*trees[2 * i + 1], lights, camera, fb, pool, ropts);
        median_.push_back(framebuffer_hash(fb));
      }
    }
  }

  /// True when `fb` is the right render of animation frame `frame`.
  bool check(std::size_t frame, Framebuffer& fb) {
    if (plant_wrong_) {  // self-test: a wrong pixel must fail the frame
      plant_wrong_ = false;
      fb.set(0, 0, fb.at(0, 0) + Vec3{0.5f, 0.5f, 0.5f});
    }
    const std::uint64_t h = framebuffer_hash(fb);
    if (h == sweep_[frame]) return true;
    if (h == median_[frame]) {
      if (++overruled_ <= 5) {
        std::fprintf(stderr,
                     "perfbench: the sweep-builder reference render of frame "
                     "%zu is wrong; the served frame matches the median "
                     "builder's\n",
                     frame);
      }
      return true;
    }
    std::fprintf(stderr, "perfbench: frame %zu differs from the reference\n",
                 frame);
    return false;
  }

  std::uint64_t overruled() const noexcept { return overruled_; }

 private:
  std::vector<std::uint64_t> sweep_;   ///< per animation frame
  std::vector<std::uint64_t> median_;
  bool plant_wrong_;
  std::uint64_t overruled_ = 0;
};

struct FramePass {
  std::uint64_t frames = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> frame_ms;
  std::vector<double> render_ms;
  std::vector<double> build_ms;
  std::vector<double> wait_ms;
  std::vector<double> advance_ms;
  std::vector<double> rays;
  std::size_t frames_to_converge = 0;
  bool converged = false;
  std::size_t retunes = 0;
  double wall_seconds = 0.0;
  BuildConfig best{};
  std::size_t last_frame = 0;
};

/// Runs the frame loop for at least `seconds` and kMinFrames frames (or
/// exactly `fixed_frames` when nonzero). `pipeline.begin()` must have run.
/// Frame spans are children of `parent`.
FramePass frame_loop(FramePipeline& pipeline, SceneRegistry& registry,
                     FrameTick tick, const Scene& lights, const Camera& camera,
                     ThreadPool& pool, Reference& ref, double seconds,
                     std::size_t fixed_frames, SpanLog& spans,
                     SpanLog::Id parent = 0) {
  FramePass out;
  Framebuffer fb(kWidth, kHeight);
  const RenderOptions ropts;
  FrameTuner* tuner = pipeline.tuner();
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const double elapsed = seconds_between(start, t0);
    if (fixed_frames > 0 ? out.frames >= fixed_frames
                         : (out.frames >= kMinFrames && elapsed >= seconds)) {
      break;
    }
    const auto snap = registry.acquire(pipeline.scene_name());
    const Clock::time_point r0 = Clock::now();
    const RenderResult rr =
        render(*snap->tree, lights, camera, fb, pool, ropts);
    const Clock::time_point r1 = Clock::now();
    if (!ref.check(tick.frame, fb)) ++out.mismatches;
    out.last_frame = tick.frame;
    tick = pipeline.advance(seconds_between(r0, r1));
    const Clock::time_point t1 = Clock::now();

    const SpanLog::Id frame_id =
        spans.add("bench.frame", t0, t1, parent, out.frames);
    spans.add("render.render", r0, r1, frame_id, out.frames);
    spans.add("dynamic.advance", r1, t1, frame_id, out.frames);

    ++out.frames;
    out.frame_ms.push_back(seconds_between(t0, t1) * 1e3);
    out.render_ms.push_back(seconds_between(r0, r1) * 1e3);
    out.advance_ms.push_back(seconds_between(r1, t1) * 1e3);
    out.build_ms.push_back(tick.build_seconds * 1e3);
    out.wait_ms.push_back(tick.wait_seconds * 1e3);
    out.rays.push_back(static_cast<double>(rr.rays_cast + rr.shadow_rays));
    if (tuner != nullptr && !out.converged && tuner->converged()) {
      out.converged = true;
      out.frames_to_converge = out.frames;
    }
  }
  out.wall_seconds = seconds_between(start, Clock::now());
  if (tuner != nullptr) {
    out.best = tuner->best_config();
    out.retunes = tuner->tuner(Algorithm::kInPlace).retune_count();
    if (!out.converged) out.frames_to_converge = out.frames;
  }
  return out;
}

FrameTunerOptions tuner_options() {
  FrameTunerOptions topts;
  topts.algorithms = {Algorithm::kInPlace};
  topts.query_weight = 1.0;
  return topts;
}

FramePipelineOptions pipeline_options(FrameTuner* tuner) {
  FramePipelineOptions popts;
  popts.algorithm = Algorithm::kInPlace;
  popts.overlap = true;
  popts.loop = true;
  popts.tuner = tuner;
  return popts;
}

/// Median frame time of a pinned-config re-run (no tuner).
double pinned_frame_ms(const std::shared_ptr<const AnimatedScene>& anim,
                       const BuildConfig& config, const Scene& lights,
                       const Camera& camera, ThreadPool& pool,
                       Reference& ref, std::uint64_t& mismatches,
                       SpanLog& spans) {
  const SpanLog::Id span = spans.open("tuning.pinned_tuned");
  SceneRegistry registry(pool);
  FramePipelineOptions popts = pipeline_options(nullptr);
  popts.config = config;
  FramePipeline pipeline(anim, registry, popts);
  const FrameTick tick = pipeline.begin();
  const FramePass pass = frame_loop(pipeline, registry, tick, lights, camera,
                                    pool, ref, 0.0, kPinnedFrames, spans, span);
  spans.close(span);
  mismatches += pass.mismatches;
  return median(pass.frame_ms);
}

struct Setup {
  std::shared_ptr<const AnimatedScene> anim;
  std::unique_ptr<FrameTuner> tuner;
  std::unique_ptr<SceneRegistry> registry;
  std::unique_ptr<FramePipeline> pipeline;
  FrameTick first{};
  double generate_s = 0.0;
  double begin_s = 0.0;

  /// Tears down in dependency order: the pipeline's in-flight build uses
  /// the registry, which must outlive it.
  void reset() {
    pipeline.reset();
    registry.reset();
    tuner.reset();
    anim.reset();
  }
};

/// One set-up: scene generation plus the first build/publish. With a
/// FrameTuner the pipeline builds the tuner's trials; without one it builds
/// every frame at the paper's base configuration C_base.
Setup set_up(std::uint64_t seed, ThreadPool& pool, SpanLog& spans,
             bool tuned) {
  Setup s;
  const Clock::time_point g0 = Clock::now();
  s.anim = make_animation(seed);
  const Clock::time_point g1 = Clock::now();
  FramePipelineOptions popts = pipeline_options(nullptr);
  if (tuned) {
    s.tuner = std::make_unique<FrameTuner>(tuner_options());
    popts.tuner = s.tuner.get();
  } else {
    popts.config = kBaseConfig;
  }
  s.registry = std::make_unique<SceneRegistry>(pool);
  s.pipeline = std::make_unique<FramePipeline>(s.anim, *s.registry, popts);
  s.first = s.pipeline->begin();
  const Clock::time_point b1 = Clock::now();
  spans.add("scene.generate", g0, g1);
  spans.add("dynamic.begin", g1, b1);
  s.generate_s = seconds_between(g0, g1);
  s.begin_s = seconds_between(g1, b1);
  return s;
}

/// Tree quality of `config` on animation frame `frame`, with traversal work
/// counted on a fixed primary-ray probe grid.
void count_tree_work(std::uint64_t seed, std::size_t frame,
                     const BuildConfig& config, const Scene& lights,
                     ThreadPool& pool, SpanLog& spans, WorkloadResult& out) {
  const SpanLog::Id span = spans.open("kdtree.probe");
  const Scene scene = make_animation(seed)->frame(frame);
  const auto built = make_builder(Algorithm::kInPlace)
                         ->build(scene.triangles(), config, pool);
  const auto* tree = dynamic_cast<const KdTree*>(built.get());
  if (tree == nullptr) return;
  const Camera probe_cam(lights.camera(), kProbeW, kProbeH);
  TraversalCounters counters;
  for (int y = 0; y < kProbeH; ++y) {
    for (int x = 0; x < kProbeW; ++x) {
      (void)tree->closest_hit_counted(probe_cam.primary_ray(x, y), counters);
    }
  }
  spans.close(span);
  const double n = static_cast<double>(kProbeW * kProbeH);
  const TreeStats st = tree->stats();
  out.add("kdtree.sah_cost", st.sah_cost, "cost");
  out.add("kdtree.node_count", static_cast<double>(st.node_count), "count");
  out.add("kdtree.interior_per_ray",
          static_cast<double>(counters.interior_visited) / n, "count");
  out.add("kdtree.tris_per_ray",
          static_cast<double>(counters.triangles_tested) / n, "count");
}

/// The tuning layer: a FrameTuner session of the same length as the
/// measured loop, then its best configuration re-run pinned.
void tuning_session(const RunOptions& opts, Reference& ref,
                    const Scene& lights, const Camera& camera,
                    ThreadPool& pool, SpanLog& spans, double base_frame_ms,
                    std::uint64_t& mismatches, WorkloadResult& out) {
  Setup session = set_up(opts.seed, pool, spans, /*tuned=*/true);
  const SpanLog::Id span = spans.open("tuning.session");
  const FramePass pass =
      frame_loop(*session.pipeline, *session.registry, session.first, lights,
                 camera, pool, ref, opts.seconds, 0, spans, span);
  spans.close(span);
  session.reset();  // the pinned re-run shares the pool
  mismatches += pass.mismatches;
  out.attempted += pass.frames;

  const double tuned =
      pinned_frame_ms(make_animation(opts.seed), pass.best, lights, camera,
                      pool, ref, mismatches, spans);
  out.add("tuning.session_frame_ms_p50", quantile(pass.frame_ms, 0.5), "ms");
  out.add("tuning.session_frame_ms_p90", quantile(pass.frame_ms, 0.9), "ms");
  out.add("tuning.frames_to_converge",
          static_cast<double>(pass.frames_to_converge), "count");
  out.add("tuning.search_share",
          static_cast<double>(pass.frames_to_converge) /
              static_cast<double>(std::max<std::uint64_t>(pass.frames, 1)),
          "fraction");
  out.add("tuning.retunes", static_cast<double>(pass.retunes), "count");
  out.add("tuning.tuned_frame_ms", tuned, "ms");
  out.add("tuning.base_frame_ms", base_frame_ms, "ms");
  out.add("tuning.gain_vs_base", base_frame_ms / tuned, "ratio");
  out.notes.push_back("tuned config: ci=" + std::to_string(pass.best.ci) +
                      " cb=" + std::to_string(pass.best.cb) +
                      " s=" + std::to_string(pass.best.s));
}

WorkloadResult frames_pass(const RunOptions& opts, Reference& ref,
                           const Scene& lights, const Camera& camera,
                           ThreadPool& pool, bool traced) {
  SpanLog spans(traced);
  WorkloadResult out;

  std::vector<double> setup_s, generate_s, begin_s;
  Setup live;
  for (SetupReps reps(kSetupReps); reps.more();) {
    const bool timed = reps.next();
    live.reset();  // tear the previous set-up down before timing the next
    live = set_up(opts.seed, pool, spans, /*tuned=*/false);
    if (!timed) continue;
    setup_s.push_back(live.generate_s + live.begin_s);
    generate_s.push_back(live.generate_s);
    begin_s.push_back(live.begin_s);
  }

  // The loop runs with the CPUs kept awake; its CPU time leaves the
  // spinners out.
  FramePass pass;
  double loop_cpu_s = 0.0;
  {
    const IdleSpinners awake;
    const double cpu0 = process_cpu_seconds() - awake.cpu_seconds();
    pass = frame_loop(*live.pipeline, *live.registry, live.first, lights,
                      camera, pool, ref, opts.seconds, 0, spans);
    loop_cpu_s = process_cpu_seconds() - awake.cpu_seconds() - cpu0;
  }
  live.reset();
  std::uint64_t mismatches = pass.mismatches;

  out.attempted = pass.frames;
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("ok_share",
          1.0 - static_cast<double>(pass.mismatches) /
                    static_cast<double>(
                        std::max<std::uint64_t>(pass.frames, 1)),
          "fraction");
  out.add("latency_p50_us", quantile(pass.frame_ms, 0.5) * 1e3, "us");
  out.add("cpu_us_per_op",
          loop_cpu_s * 1e6 /
              static_cast<double>(std::max<std::uint64_t>(pass.frames, 1)),
          "us");

  if (traced) {
    out.add("scene.generate_s", median(generate_s), "s");
    out.add("serve.admit_s", median(begin_s), "s");
    out.add("kdtree.build_ms_p50", median(pass.build_ms), "ms");
    out.add("dynamic.build_wait_ms_p50", median(pass.wait_ms), "ms");
    out.add("dynamic.advance_ms_p50", median(pass.advance_ms), "ms");
    out.add("dynamic.frame_ms_p50", quantile(pass.frame_ms, 0.5), "ms");
    out.add("dynamic.frame_ms_p90", quantile(pass.frame_ms, 0.9), "ms");
    out.add("dynamic.frames", static_cast<double>(pass.frames), "count");
    out.add("generator.throughput_per_s",
            static_cast<double>(pass.frames) / pass.wall_seconds, "1/s");
    out.add("render.frame_ms_p50", median(pass.render_ms), "ms");
    out.add("render.rays", median(pass.rays), "count");
    count_tree_work(opts.seed, pass.last_frame, kBaseConfig, lights, pool,
                    spans, out);
    const IdleSpinners awake;  // as in the measured loop
    tuning_session(opts, ref, lights, camera, pool, spans,
                   median(pass.frame_ms), mismatches, out);
    report_spans(spans, opts,
                 {"bench", "scene", "kdtree", "render", "tuning", "dynamic",
                  "serve", "shard"},
                 out);
  }

  out.failed = mismatches;
  out.correct = mismatches == 0;
  if (mismatches > 0) {
    out.notes.push_back(std::to_string(mismatches) +
                        " frame(s) differ from the reference render");
  }
  return out;
}

}  // namespace

WorkloadResult run_frames_dynamic(const RunOptions& opts) {
  ThreadPool pool(kPoolWorkers);

  // Reference renders, off the clock.
  const Clock::time_point ref_start = Clock::now();
  const auto anim = make_animation(opts.seed);
  const Scene lights = anim->frame(0);  // lights and camera are per-scene
  const Camera camera(lights.camera(), kWidth, kHeight);
  Reference ref(*anim, lights, camera, pool, opts.plant_wrong);
  log_phase("reference renders", ref_start);

  WorkloadResult out = run_passes(opts, [&](bool traced) {
    return frames_pass(opts, ref, lights, camera, pool, traced);
  });
  if (ref.overruled() > 0) {
    out.notes.push_back("the sweep-builder reference was wrong on " +
                        std::to_string(ref.overruled()) +
                        " frame(s); the median-builder render confirmed them");
  }
  return out;
}

}  // namespace perfbench
