//! The detection server: batched, parallel frame serving with metrics.
//!
//! [`DetectionServer`] wraps a trained detector and executes the
//! detection pipeline stage by stage on a fixed worker pool:
//!
//! 1. **pyramid** — one work item per frame;
//! 2. **cells** — one work item per (frame, pyramid level);
//! 3. **classify** — one work item per window-row chunk;
//! 4. **nms** — merge chunk results in scan order, then one NMS item
//!    per frame.
//!
//! Chunk results are concatenated in (frame, level, row) order before
//! NMS, so the parallel output is bit-identical to
//! [`Detector::detect`]'s serial scan for any worker count.

use crate::cache::{cell_patch_hash, frame_hash, CacheStats, CellCache, LevelCache};
use crate::chaos::PanicInjector;
use crate::degrade::FallbackChain;
use crate::metrics::{LevelReport, Metrics, RuntimeReport, Stage};
use crate::queue::{Backpressure, PushError, QueueConfig, RequestQueue};
use crate::scheduler::plan_chunks;
use crate::stream::{StreamFrameResult, StreamHandle, StreamState};
use crate::supervise::RetryPolicy;
use pcnn_core::pipeline::{Detector, TrainedDetector, WINDOW_BATCH};
use pcnn_core::{Error, StreamId};
use pcnn_hog::block::assemble_descriptor_into;
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_kernels::Scratch;
use pcnn_sched::{try_parallel_map, WorkerPanic};
use pcnn_truenorth::SystemStats;
use pcnn_vision::pyramid::scale_pyramid;
use pcnn_vision::{
    non_maximum_suppression, BoundingBox, Detection, GrayImage, WINDOW_HEIGHT, WINDOW_WIDTH,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Serving-runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. One means serial execution.
    pub workers: usize,
    /// Window start rows per classification work item. Smaller chunks
    /// balance better across workers; larger chunks amortize dispatch.
    pub chunk_rows: usize,
    /// Request queue/batcher parameters.
    pub queue: QueueConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 4, chunk_rows: 4, queue: QueueConfig::default() }
    }
}

impl RuntimeConfig {
    /// A validating builder:
    /// `RuntimeConfig::builder().workers(8).queue_capacity(64).build()?`.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder::default()
    }

    /// Validates every field, mirroring what [`DetectionServer::new`]
    /// enforces.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let bad = |what: &str, reason: &str| {
            Err(Error::InvalidConfig { what: what.to_owned(), reason: reason.to_owned() })
        };
        if self.workers == 0 {
            return bad("workers", "worker count must be positive");
        }
        if self.chunk_rows == 0 {
            return bad("chunk_rows", "chunk_rows must be positive");
        }
        if self.queue.capacity == 0 {
            return bad("queue.capacity", "queue capacity must be positive");
        }
        if self.queue.batch_size == 0 {
            return bad("queue.batch_size", "batch size must be positive");
        }
        if self.queue.batch_size > self.queue.capacity {
            return bad("queue.batch_size", "batch size cannot exceed queue capacity");
        }
        Ok(())
    }
}

/// Step-by-step construction of a [`RuntimeConfig`], validated at
/// [`build`](RuntimeConfigBuilder::build) time so an impossible
/// configuration is an [`Error`], not a panic deep in the server.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the window rows per classification work item.
    pub fn chunk_rows(mut self, chunk_rows: usize) -> Self {
        self.config.chunk_rows = chunk_rows;
        self
    }

    /// Sets the request-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue.capacity = capacity;
        self
    }

    /// Sets the maximum requests per drained batch.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.queue.batch_size = batch_size;
        self
    }

    /// Sets the full-queue behavior.
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.config.queue.backpressure = backpressure;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<RuntimeConfig, Error> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A batched, parallel serving front-end over a trained detector —
/// or over a [`FallbackChain`] of them, degrading per batch when the
/// preferred level fails its health probe.
#[derive(Debug)]
pub struct DetectionServer<'d> {
    engine: Detector,
    chain: FallbackChain<'d>,
    config: RuntimeConfig,
    metrics: Metrics,
    injector: Option<PanicInjector>,
}

impl<'d> DetectionServer<'d> {
    /// A server running `engine` over a single `detector` (no fallback).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `workers`, `chunk_rows` or the queue
    /// configuration is degenerate.
    pub fn new(
        engine: Detector,
        detector: &'d TrainedDetector,
        config: RuntimeConfig,
    ) -> Result<Self, Error> {
        let label = detector.extractor.kind().label();
        Self::with_chain(engine, FallbackChain::new().push(label, detector), config)
    }

    /// A server degrading along `chain`: each batch is served by the
    /// first level that passes its canary health probe, with everything
    /// below the primary counted as degraded in the report. The last
    /// level serves unconditionally, so the server never refuses a
    /// batch.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the chain is empty or the runtime
    /// configuration is degenerate.
    pub fn with_chain(
        engine: Detector,
        chain: FallbackChain<'d>,
        config: RuntimeConfig,
    ) -> Result<Self, Error> {
        config.validate()?;
        if chain.is_empty() {
            return Err(Error::InvalidConfig {
                what: "fallback chain".to_owned(),
                reason: "needs at least one service level".to_owned(),
            });
        }
        // Opt-in observability: PCNN_TRACE=1 turns on wall-clock span
        // tracing for the whole process (surfaced via RuntimeReport).
        pcnn_trace::init_from_env();
        let metrics = Metrics::with_levels(chain.len());
        Ok(DetectionServer { engine, chain, config, metrics, injector: None })
    }

    /// Arms chaos injection: classify chunks of the injector's target
    /// frame panic until its charges run out. Test-harness plumbing for
    /// the supervision contract — panics are caught per chunk, so only
    /// the poisoned frame's request fails.
    pub fn with_panic_injection(mut self, injector: PanicInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The live serving metrics — feed them to a
    /// [`Watchdog`](crate::Watchdog) for stall detection.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The wrapped detection engine.
    pub fn engine(&self) -> &Detector {
        &self.engine
    }

    /// The fallback chain (a single level for
    /// [`new`](DetectionServer::new)-built servers).
    pub fn chain(&self) -> &FallbackChain<'d> {
        &self.chain
    }

    /// Probes the chain and returns the level index and detector that
    /// would serve the next batch, recording any probe failures.
    fn select_level(&self, frames: u64) -> (usize, &'d TrainedDetector) {
        let levels = self.chain.levels();
        if levels.len() == 1 {
            self.metrics.add_level_batch(0);
            return (0, levels[0].detector());
        }
        let (index, failures) = self.chain.select();
        self.metrics.add_health_failures(failures);
        self.metrics.add_level_batch(index);
        if index > 0 {
            self.metrics.add_degraded_batch(frames);
        }
        (index, levels[index].detector())
    }

    /// Runs one batch of frames through the staged parallel pipeline,
    /// returning per-frame results in input order. With a fallback
    /// chain the serving level is chosen per batch by health probe.
    ///
    /// Supervised: a worker panic inside any stage fails **only the
    /// frames it belongs to** — every other frame in the batch still
    /// returns its detections, the caught panic is counted in the
    /// report, and no lock is left poisoned. Use
    /// [`detect_frame`](DetectionServer::detect_frame) when a panicking
    /// convenience wrapper is acceptable.
    pub fn detect_batch(&self, frames: &[&GrayImage]) -> Vec<Result<Vec<Detection>, Error>> {
        if frames.is_empty() {
            return Vec::new();
        }
        let (_, detector) = self.select_level(frames.len() as u64);
        self.try_run_batch(detector, frames)
    }

    /// The staged parallel pipeline over one fixed detector, with
    /// per-frame failure isolation.
    fn try_run_batch(
        &self,
        detector: &TrainedDetector,
        frames: &[&GrayImage],
    ) -> Vec<Result<Vec<Detection>, Error>> {
        let workers = self.config.workers;
        let batch_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_BATCH);
        if batch_span.is_recording() {
            batch_span.add(pcnn_trace::Counter::Frames, frames.len() as u64);
        }
        let batch_start = Instant::now();
        self.metrics.begin_work();

        // The first failure per frame; a failed frame is excluded from
        // every subsequent stage.
        let mut failed: Vec<Option<Error>> = (0..frames.len()).map(|_| None).collect();
        let record_failure =
            |failed: &mut Vec<Option<Error>>, frame: usize, stage: &str, p: WorkerPanic| {
                self.metrics.add_panics(1);
                if failed[frame].is_none() {
                    failed[frame] =
                        Some(Error::WorkerPanic { stage: stage.to_owned(), message: p.message });
                }
            };

        // Stage 1: scale pyramids, one item per frame.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_PYRAMID);
        let t = Instant::now();
        let pyramid_config = self.engine.config().pyramid;
        let mut pyramids = Vec::with_capacity(frames.len());
        for (f, r) in
            try_parallel_map(workers, frames.len(), |i| scale_pyramid(frames[i], pyramid_config))
                .into_iter()
                .enumerate()
        {
            match r {
                Ok(p) => pyramids.push(Some(p)),
                Err(p) => {
                    record_failure(&mut failed, f, "pyramid", p);
                    pyramids.push(None);
                }
            }
        }
        self.metrics.add_stage(Stage::Pyramid, t.elapsed());
        drop(stage_span);

        // Stage 2: cell grids, one item per (frame, level) of the
        // still-alive frames.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CELLS);
        let t = Instant::now();
        let level_of: Vec<(usize, usize)> = pyramids
            .iter()
            .enumerate()
            .filter_map(|(f, p)| p.as_ref().map(|p| (f, p.levels.len())))
            .flat_map(|(f, n)| (0..n).map(move |l| (f, l)))
            .collect();
        let mut grids = Vec::with_capacity(level_of.len());
        for (i, r) in try_parallel_map(workers, level_of.len(), |i| {
            let (f, l) = level_of[i];
            let level = &pyramids[f].as_ref().expect("alive frame has a pyramid").levels[l];
            let grid = Detector::cell_grid(&detector.extractor, &level.image);
            (grid, level.scale)
        })
        .into_iter()
        .enumerate()
        {
            match r {
                Ok(g) => grids.push(Some(g)),
                Err(p) => {
                    record_failure(&mut failed, level_of[i].0, "cells", p);
                    grids.push(None);
                }
            }
        }
        self.metrics.add_stage(Stage::Cells, t.elapsed());
        drop(stage_span);

        // Stage 3: classify window-row chunks in (frame, level, row)
        // order, over grids whose frame survived stage 2 in full.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CLASSIFY);
        let t = Instant::now();
        let ok_grids: Vec<_> = level_of
            .iter()
            .zip(&grids)
            .filter(|(&(f, _), _)| failed[f].is_none())
            .filter_map(|(&(f, _), g)| g.as_ref().map(|g| (f, g)))
            .collect();
        let grid_rows: Vec<(usize, usize)> =
            ok_grids.iter().map(|&(f, (grid, _))| (f, Detector::window_rows(grid))).collect();
        let chunks = plan_chunks(&grid_rows, self.config.chunk_rows);
        let raw = try_parallel_map(workers, chunks.len(), |i| {
            let chunk = &chunks[i];
            if let Some(injector) = &self.injector {
                injector.maybe_panic(chunk.frame);
            }
            let (grid, scale) = ok_grids[chunk.grid].1;
            self.engine.score_rows(detector, grid, *scale, chunk.rows.clone())
        });
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let mut windows = 0u64;
        for (chunk, r) in chunks.iter().zip(raw.iter()) {
            match r {
                Ok(_) => {
                    let per_row = ok_grids[chunk.grid].1 .0[0].len() + 1 - window_cells_x;
                    windows += (chunk.rows.len() * per_row) as u64;
                }
                Err(p) => record_failure(&mut failed, chunk.frame, "classify", p.clone()),
            }
        }
        self.metrics.add_windows(windows);
        self.metrics.add_stage(Stage::Classify, t.elapsed());
        if stage_span.is_recording() {
            stage_span.add(pcnn_trace::Counter::Windows, windows);
        }
        drop(stage_span);

        // Stage 4: merge chunk results in scan order and suppress, one
        // item per still-alive frame. Chunks are (frame, level, row)
        // ordered, so in-order concatenation per frame reproduces the
        // serial raw-detection sequence exactly.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_NMS);
        let t = Instant::now();
        let epsilon = self.engine.config().nms_epsilon;
        let alive: Vec<usize> = (0..frames.len()).filter(|&f| failed[f].is_none()).collect();
        let suppressed = try_parallel_map(workers, alive.len(), |a| {
            let f = alive[a];
            let merged: Vec<Detection> = chunks
                .iter()
                .zip(&raw)
                .filter(|(c, _)| c.frame == f)
                .flat_map(|(_, dets)| {
                    dets.as_ref().expect("alive frame has no failed chunks").iter().cloned()
                })
                .collect();
            non_maximum_suppression(merged, epsilon)
        });
        let mut detections: Vec<Option<Vec<Detection>>> = (0..frames.len()).map(|_| None).collect();
        for (&f, r) in alive.iter().zip(suppressed) {
            match r {
                Ok(dets) => detections[f] = Some(dets),
                Err(p) => record_failure(&mut failed, f, "nms", p),
            }
        }
        self.metrics.add_stage(Stage::Nms, t.elapsed());
        drop(stage_span);

        let results: Vec<Result<Vec<Detection>, Error>> = failed
            .into_iter()
            .zip(detections)
            .map(|(err, dets)| match err {
                Some(e) => Err(e),
                None => Ok(dets.expect("alive frame produced detections")),
            })
            .collect();
        self.metrics.add_frames(results.iter().filter(|r| r.is_ok()).count() as u64);
        self.metrics.add_batch(batch_start.elapsed());
        self.metrics.end_work();
        results
    }

    /// Detects over a single frame on the worker pool. Output is
    /// bit-identical to [`Detector::detect`]. A thin convenience
    /// wrapper over [`detect_batch`](DetectionServer::detect_batch).
    ///
    /// # Panics
    ///
    /// Re-raises the frame's failure as a panic — use
    /// [`detect_batch`](DetectionServer::detect_batch) when a worker
    /// panic must not take the caller down.
    pub fn detect_frame(&self, img: &GrayImage) -> Vec<Detection> {
        self.detect_batch(&[img])
            .pop()
            .expect("one frame in, one result out")
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Submits one frame under a [`RetryPolicy`]: failed attempts are
    /// retried with exponential backoff until the attempt budget or the
    /// deadline runs out. Retries and deadline misses are counted in
    /// the report.
    ///
    /// # Errors
    ///
    /// The last attempt's [`Error::WorkerPanic`] once attempts are
    /// exhausted, or [`Error::DeadlineExceeded`] when the in-flight
    /// budget ran out first.
    pub fn submit(&self, frame: &GrayImage, policy: &RetryPolicy) -> Result<Vec<Detection>, Error> {
        let start = Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=max_attempts {
            if let Some(deadline) = policy.deadline {
                if start.elapsed() >= deadline {
                    self.metrics.add_deadline_miss();
                    return Err(Error::DeadlineExceeded {
                        waited_ms: start.elapsed().as_millis() as u64,
                        deadline_ms: deadline.as_millis() as u64,
                    });
                }
            }
            match self.detect_batch(&[frame]).pop().expect("one frame in, one result out") {
                Ok(detections) => return Ok(detections),
                Err(e) => {
                    last_err = Some(e);
                    if attempt < max_attempts {
                        self.metrics.add_retry();
                        let mut backoff = policy.backoff_after(attempt);
                        if let Some(deadline) = policy.deadline {
                            backoff = backoff.min(deadline.saturating_sub(start.elapsed()));
                        }
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Serves a stream of frames through the request queue: a feeder
    /// thread enqueues every frame (index-tagged) while this thread
    /// drains batches and runs them on the worker pool.
    ///
    /// Returns per-frame detections in input order; `None` marks frames
    /// dropped by [`Backpressure::Reject`]. With
    /// [`Backpressure::Block`] every slot is `Some`.
    pub fn serve(&self, frames: &[GrayImage]) -> Vec<Option<Vec<Detection>>> {
        let queue: RequestQueue<usize> = RequestQueue::new(self.config.queue);
        let mut results: Vec<Option<Vec<Detection>>> = (0..frames.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let feeder = scope.spawn(|| {
                let mut rejected = 0u64;
                for index in 0..frames.len() {
                    match queue.push(index) {
                        Ok(depth) => self.metrics.observe_queue_depth(depth as u64),
                        Err(PushError::Full | PushError::Timeout) => rejected += 1,
                        Err(PushError::Closed) => break,
                    }
                }
                queue.close();
                self.metrics.add_rejected(rejected);
            });
            while let Some(batch) = queue.pop_batch() {
                let assemble_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_ASSEMBLE);
                let imgs: Vec<&GrayImage> = batch.iter().map(|&i| &frames[i]).collect();
                if assemble_span.is_recording() {
                    assemble_span.add(pcnn_trace::Counter::Frames, imgs.len() as u64);
                }
                drop(assemble_span);
                let dets = self.detect_batch(&imgs);
                for (&i, d) in batch.iter().zip(dets) {
                    results[i] = Some(d.unwrap_or_else(|e| panic!("{e}")));
                }
            }
            feeder.join().expect("feeder thread panicked");
        });
        results
    }

    /// Opens a video stream: mints a self-contained [`StreamHandle`]
    /// holding the stream's temporal cache and tracker. The server
    /// keeps no registry — dropping the last handle clone releases the
    /// state.
    pub fn open_stream(&self, id: StreamId) -> StreamHandle {
        StreamHandle::new(id)
    }

    /// Processes the next frame of a stream: detections come from the
    /// temporal cell cache (only changed cells re-run the extractor,
    /// only windows touching them re-run the classifier) and feed the
    /// stream's tracker. Frames of one stream must arrive in order.
    ///
    /// Output detections are **bit-identical** to a cold
    /// [`Detector::detect`] run on the same frame.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanic`] if a worker died mid-frame; the stream's
    /// cache is invalidated (the next frame runs cold) and the tracker
    /// is left as of the previous frame.
    pub fn detect_stream(
        &self,
        handle: &StreamHandle,
        img: &GrayImage,
    ) -> Result<StreamFrameResult, Error> {
        let mut state = handle.lock();
        self.detect_stream_state(&mut state, img)
    }

    /// [`detect_stream`](DetectionServer::detect_stream) over directly
    /// owned state — the entry point for owners that manage stream
    /// state themselves (cluster shards hold one [`StreamState`] per
    /// routed stream).
    pub fn detect_stream_state(
        &self,
        state: &mut StreamState,
        img: &GrayImage,
    ) -> Result<StreamFrameResult, Error> {
        let (level_index, detector) = self.select_level(1);
        let batch_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_BATCH);
        if batch_span.is_recording() {
            batch_span.add(pcnn_trace::Counter::Frames, 1);
        }
        let start = Instant::now();
        self.metrics.begin_work();
        let outcome = self.try_run_stream(detector, level_index as u64, &mut state.cache, img);
        let (detections, stats) = match outcome {
            Ok(v) => v,
            Err(e) => {
                self.metrics.end_work();
                return Err(e);
            }
        };

        let track_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_TRACK);
        let tracks = state.tracker.update(&detections);
        let active = tracks.len() as u64;
        if track_span.is_recording() {
            track_span.add(pcnn_trace::Counter::TracksActive, active);
        }
        drop(track_span);

        self.metrics.add_cells_reused(stats.cells_reused);
        self.metrics.add_cells_recomputed(stats.cells_recomputed);
        self.metrics.add_tracks_active(active);
        self.metrics.add_frames(1);
        self.metrics.add_batch(start.elapsed());
        self.metrics.end_work();
        Ok(StreamFrameResult {
            detections,
            tracks,
            cells_reused: stats.cells_reused,
            cells_recomputed: stats.cells_recomputed,
        })
    }

    /// The change-driven detection pipeline over one frame of a stream.
    ///
    /// Reuse decisions are pure functions of pixel content (per-cell
    /// FNV hashes), so the reuse/recompute counters and the output are
    /// identical for any worker count. On any worker panic the cache is
    /// invalidated before the error is returned, so partial state never
    /// survives.
    fn try_run_stream(
        &self,
        detector: &TrainedDetector,
        token: u64,
        cache: &mut CellCache,
        img: &GrayImage,
    ) -> Result<(Vec<Detection>, CacheStats), Error> {
        let workers = self.config.workers;
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let window_cells_y = WINDOW_HEIGHT / CELL_SIZE;

        // Probe: is this frame (or most of it) already cached?
        let probe_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CACHE_PROBE);
        cache.ensure_token(token);
        let fhash = frame_hash(img);
        if let Some(dets) = cache.unchanged(fhash) {
            // Unchanged frame: serve the last result without touching
            // the pyramid. Every cached cell counts as reused.
            let stats = CacheStats { cells_reused: cache.total_cells(), cells_recomputed: 0 };
            if probe_span.is_recording() {
                probe_span.add(pcnn_trace::Counter::CellsReused, stats.cells_reused);
                probe_span.add(pcnn_trace::Counter::CellsRecomputed, 0);
            }
            return Ok((dets.clone(), stats));
        }

        // Pyramid (shared with the batch path's stage 1).
        let t = Instant::now();
        let pyramid = scale_pyramid(img, self.engine.config().pyramid);
        self.metrics.add_stage(Stage::Pyramid, t.elapsed());

        // Diff cells against the cache: hash every cell's padded patch
        // and mark mismatches for recomputation.
        let t = Instant::now();
        let n_levels = pyramid.levels.len();
        let mut recompute: Vec<(usize, usize)> = Vec::new();
        let mut reused = 0u64;
        {
            let levels = cache.levels_mut(n_levels);
            for (l, level) in pyramid.levels.iter().enumerate() {
                let cells_x = level.image.width() / CELL_SIZE;
                let cells_y = level.image.height() / CELL_SIZE;
                let lc = &mut levels[l];
                if !lc.matches(cells_x, cells_y, level.scale) {
                    *lc = LevelCache {
                        cells_x,
                        cells_y,
                        scale: level.scale,
                        cell_hashes: vec![0; cells_x * cells_y],
                        histograms: vec![Vec::new(); cells_x * cells_y],
                        window_hashes: Vec::new(),
                        window_scores: Vec::new(),
                    };
                }
                for cy in 0..cells_y {
                    for cx in 0..cells_x {
                        let idx = cy * cells_x + cx;
                        let h = cell_patch_hash(&level.image, cx, cy);
                        // An empty histogram marks a never-computed cell
                        // (fresh level), which must recompute even if
                        // its stored hash happens to collide.
                        if lc.cell_hashes[idx] == h && !lc.histograms[idx].is_empty() {
                            reused += 1;
                        } else {
                            lc.cell_hashes[idx] = h;
                            recompute.push((l, idx));
                        }
                    }
                }
            }
        }
        let stats = CacheStats { cells_reused: reused, cells_recomputed: recompute.len() as u64 };
        if probe_span.is_recording() {
            probe_span.add(pcnn_trace::Counter::CellsReused, stats.cells_reused);
            probe_span.add(pcnn_trace::Counter::CellsRecomputed, stats.cells_recomputed);
        }
        drop(probe_span);

        // Recompute changed cells' histograms on the worker pool.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CELLS);
        let histograms = {
            let cache_view: &CellCache = cache;
            try_parallel_map(workers, recompute.len(), |i| {
                let (l, idx) = recompute[i];
                let level = &pyramid.levels[l];
                let cells_x = cache_view.levels()[l].cells_x;
                let patch = cell_patch(&level.image, 0, 0, idx % cells_x, idx / cells_x);
                detector.extractor.cell_histogram(&patch)
            })
        };
        if let Some(p) = histograms.iter().find_map(|r| r.as_ref().err()) {
            self.metrics.add_panics(1);
            let message = p.message.clone();
            cache.invalidate();
            return Err(Error::WorkerPanic { stage: "stream_cells".to_owned(), message });
        }
        {
            let levels = cache.levels_mut(n_levels);
            for (&(l, idx), h) in recompute.iter().zip(histograms) {
                levels[l].histograms[idx] = h.expect("errors returned above");
            }
        }
        self.metrics.add_stage(Stage::Cells, t.elapsed());
        drop(stage_span);

        // Diff windows: a window's hash covers its contributing cells,
        // so it changes exactly when one of them recomputed.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_CLASSIFY);
        let t = Instant::now();
        let mut rescore: Vec<(usize, usize)> = Vec::new();
        {
            let levels = cache.levels_mut(n_levels);
            for (l, lc) in levels.iter_mut().enumerate() {
                let (rows, cols) = window_dims(lc, window_cells_x, window_cells_y);
                let n = rows * cols;
                let warm = lc.window_hashes.len() == n && lc.window_scores.len() == n;
                if !warm {
                    lc.window_hashes = vec![0; n];
                    lc.window_scores = vec![0.0; n];
                }
                for r in 0..rows {
                    for c in 0..cols {
                        let w = r * cols + c;
                        let h = lc.window_hash(r, c, window_cells_x, window_cells_y);
                        if !warm || lc.window_hashes[w] != h {
                            lc.window_hashes[w] = h;
                            rescore.push((l, w));
                        }
                    }
                }
            }
        }
        // Rescore in WINDOW_BATCH chunks in (level, row, column) order:
        // the same descriptors and classifier as Detector::score_rows,
        // one batched classifier call per chunk.
        let norm = detector.extractor.norm();
        let batches: Vec<&[(usize, usize)]> = rescore.chunks(WINDOW_BATCH).collect();
        let scores = {
            let cache_view: &CellCache = cache;
            let level_rows: Vec<Vec<&[Vec<f32>]>> = cache_view
                .levels()
                .iter()
                .map(|lc| lc.histograms.chunks(lc.cells_x.max(1)).collect())
                .collect();
            try_parallel_map(workers, batches.len(), |i| {
                let mut buf = Vec::new();
                for &(l, w) in batches[i] {
                    let (_, cols) =
                        window_dims(&cache_view.levels()[l], window_cells_x, window_cells_y);
                    let (cy0, cx0) = (w / cols, w % cols);
                    let rows = &level_rows[l][cy0..cy0 + window_cells_y];
                    assemble_descriptor_into(rows, cx0, window_cells_x, norm, &mut buf);
                }
                detector.classifier.score_batch(&mut buf, &mut Scratch::default())
            })
        };
        if let Some(p) = scores.iter().find_map(|r| r.as_ref().err()) {
            self.metrics.add_panics(1);
            let message = p.message.clone();
            cache.invalidate();
            return Err(Error::WorkerPanic { stage: "stream_classify".to_owned(), message });
        }
        {
            let levels = cache.levels_mut(n_levels);
            let scores = scores.into_iter().flat_map(|s| s.expect("errors returned above"));
            for (&(l, w), s) in rescore.iter().zip(scores) {
                levels[l].window_scores[w] = s;
            }
        }
        self.metrics.add_windows(rescore.len() as u64);
        if stage_span.is_recording() {
            stage_span.add(pcnn_trace::Counter::Windows, rescore.len() as u64);
        }
        self.metrics.add_stage(Stage::Classify, t.elapsed());
        drop(stage_span);

        // Rebuild the raw detection sequence from cached scores in the
        // serial scan order (level, row, column) and suppress — exactly
        // what Detector::detect does with freshly computed scores.
        let stage_span = pcnn_trace::span(pcnn_trace::stages::RUNTIME_NMS);
        let t = Instant::now();
        let floor = self.engine.config().score_floor;
        let mut raw = Vec::new();
        for lc in cache.levels() {
            let (rows, cols) = window_dims(lc, window_cells_x, window_cells_y);
            for cy0 in 0..rows {
                for cx0 in 0..cols {
                    let score = lc.window_scores[cy0 * cols + cx0];
                    if score < floor {
                        continue;
                    }
                    let bbox = BoundingBox::new(
                        (cx0 * CELL_SIZE) as f32,
                        (cy0 * CELL_SIZE) as f32,
                        WINDOW_WIDTH as f32,
                        WINDOW_HEIGHT as f32,
                    )
                    .unscale(lc.scale);
                    raw.push(Detection { bbox, score });
                }
            }
        }
        let detections = non_maximum_suppression(raw, self.engine.config().nms_epsilon);
        self.metrics.add_stage(Stage::Nms, t.elapsed());
        drop(stage_span);

        cache.finish_frame(fhash, detections.clone());
        Ok((detections, stats))
    }

    /// Snapshots the serving metrics. Pass the simulator counters when
    /// the detector runs on the TrueNorth substrate (e.g. from
    /// `NApproxHogCorelet::stats`) to thread them into the report. The
    /// report carries per-level batch counts and degradation totals when
    /// the server has a fallback chain.
    pub fn report(&self, system: Option<SystemStats>) -> RuntimeReport {
        let mut report = self.metrics.report(self.config.workers, system);
        report.levels = self
            .chain
            .labels()
            .into_iter()
            .zip(self.metrics.level_counts())
            .map(|(label, batches)| LevelReport { label, batches })
            .collect();
        report.trace = pcnn_trace::profile_snapshot().map(crate::metrics::TraceSummary::from);
        report
    }
}

/// Valid window start (rows, cols) in a cached level's cell grid —
/// `(0, 0)` when the level is too small to hold one window, matching
/// [`Detector::window_rows`].
fn window_dims(lc: &LevelCache, window_cells_x: usize, window_cells_y: usize) -> (usize, usize) {
    if lc.cells_y < window_cells_y || lc.cells_x < window_cells_x {
        (0, 0)
    } else {
        (lc.cells_y - window_cells_y + 1, lc.cells_x - window_cells_x + 1)
    }
}
