//! Static verification of lowered [`ExecPlan`]s — the IR's invariants as
//! one explicit, machine-checked pass instead of assumptions scattered
//! across five executors.
//!
//! Every engine, the checkpointed DSE trie and the parallel batch path
//! trust the same properties of a plan: segment layouts chain (a planar
//! producer feeds a planar-declared consumer), stash slots have
//! single-writer/single-reader LIFO lifetimes, the scratch extents bound
//! every segment's buffers, checkpoint ranges partition the segment list,
//! compiled delta streams stay inside their pair-row extent, and parallel
//! lane windows tile the batch exactly. None of those failures is graceful:
//! a violated invariant is an out-of-bounds write in an `unsafe` executor
//! or a silently wrong logit. [`ExecPlan::verify`] checks all of them in
//! one O(segments + probe) pass, [`ExecPlan::lower`] runs it under
//! `debug_assertions` on every lowering, and the serving registry runs it
//! at deploy time (`serve::Registry::deploy`) so a corrupt design is a
//! typed [`PlanError`] at the API boundary rather than a worker panic
//! mid-batch.
//!
//! The checks **re-derive** every bound from segment geometry instead of
//! trusting the lowering's own arithmetic — a verifier that repeats the
//! code it checks verifies nothing. Mutation tests below corrupt each
//! invariant class and assert the matching variant fires.

use super::{ExecPlan, Segment};
use crate::compiled::CompiledConv;

/// Why a lowered plan failed static verification. One variant per
/// invariant class, carrying the offending segment ordinal (or conv
/// ordinal for per-conv invariants) and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Segment `segment`'s declared input layout/length disagrees with its
    /// predecessor's output (planar/NHWC flags, planar dims, or lengths —
    /// mixed-layout residual joins included).
    LayoutChain {
        /// Offending segment index.
        segment: usize,
        /// What disagreed.
        detail: String,
    },
    /// A stash slot's lifetime is broken at segment `segment`: not written
    /// exactly once before its `Add`, consumed out of LIFO order, length
    /// mismatch, or never consumed at all.
    StashLifetime {
        /// Offending segment index (0 for input-stash violations).
        segment: usize,
        /// What broke.
        detail: String,
    },
    /// A workspace scratch extent (`max_act`/`max_cols`/`max_pair_colt`/
    /// `max_stage`/`max_positions`) fails to bound segment `segment`'s
    /// re-derived requirement.
    ScratchExtent {
        /// Offending segment index.
        segment: usize,
        /// Which extent, and the bound it missed.
        detail: String,
    },
    /// Checkpoint ranges do not partition the segment list (conv ordinal
    /// `ordinal`): overlapping/gapped ranges, a `conv_starts` entry not
    /// naming a conv, or a misnumbered conv ordinal.
    CheckpointRange {
        /// Offending conv ordinal.
        ordinal: usize,
        /// What broke.
        detail: String,
    },
    /// A compiled delta stream for conv ordinal `ordinal` violates the
    /// stream contract: indices out of bounds or non-monotone, span table
    /// inconsistent, or tallies disagreeing with the stream payload.
    Stream {
        /// Conv ordinal the stream was compiled for.
        ordinal: usize,
        /// What broke.
        detail: String,
    },
    /// Parallel lane windows for conv ordinal `ordinal` fail to tile the
    /// batch (overlap, gap, or an empty/oversized tile group).
    TileWindows {
        /// Offending conv ordinal.
        ordinal: usize,
        /// What broke.
        detail: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::LayoutChain { segment, detail } => {
                write!(f, "segment {segment}: layout chain broken: {detail}")
            }
            PlanError::StashLifetime { segment, detail } => {
                write!(f, "segment {segment}: stash lifetime broken: {detail}")
            }
            PlanError::ScratchExtent { segment, detail } => {
                write!(f, "segment {segment}: scratch extent too small: {detail}")
            }
            PlanError::CheckpointRange { ordinal, detail } => {
                write!(
                    f,
                    "conv ordinal {ordinal}: checkpoint ranges broken: {detail}"
                )
            }
            PlanError::Stream { ordinal, detail } => {
                write!(
                    f,
                    "conv ordinal {ordinal}: compiled stream invalid: {detail}"
                )
            }
            PlanError::TileWindows { ordinal, detail } => {
                write!(f, "conv ordinal {ordinal}: tile windows unsound: {detail}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The activation flow state the layout walk threads between segments.
struct Flow {
    planar: bool,
    /// `Some((positions, channels))` iff `planar`.
    dims: Option<(usize, usize)>,
    len: usize,
}

/// One stash slot's recorded write: the layout and length of the value at
/// stash time, for checking the consuming `Add` against.
struct StashRec {
    planar: bool,
    dims: Option<(usize, usize)>,
    len: usize,
}

/// Batch sizes and thread counts the tile-soundness probe simulates —
/// deliberately including sizes that do not divide evenly (tail windows)
/// and thread counts exceeding the batch (empty trailing groups).
const TILE_PROBE_BATCHES: [usize; 4] = [1, 3, 8, 13];
const TILE_PROBE_THREADS: [usize; 4] = [1, 2, 4, 7];

impl ExecPlan {
    /// Statically verify this plan against the full invariant set: layout
    /// chaining, stash lifetimes, scratch extents, checkpoint-range
    /// partitioning and parallel-tile soundness. Compiled delta streams
    /// are per-design artifacts, so they are checked separately by
    /// [`ExecPlan::verify_stream`].
    ///
    /// O(segments) plus a constant-size tile probe per conv; called on
    /// every lowering under `debug_assertions` and at deploy time, never
    /// on an execution hot path.
    pub fn verify(&self) -> Result<(), PlanError> {
        self.verify_layout_and_stashes()?;
        self.verify_scratch_extents()?;
        self.verify_checkpoint_ranges()?;
        self.verify_tiles()?;
        Ok(())
    }

    /// Invariants 1 + 2: walk the segment list once, threading the
    /// activation layout and the stash lifetimes (they share the walk
    /// state: an `Add`'s lhs layout is whatever the stash recorded).
    fn verify_layout_and_stashes(&self) -> Result<(), PlanError> {
        let n_slots = self.stash_lens.len();
        let mut flow = Flow {
            planar: false, // the model input arrives NHWC (per-image)
            dims: None,
            len: self.input_len,
        };
        let mut recs: Vec<StashRec> = Vec::with_capacity(n_slots);
        let mut live: Vec<usize> = Vec::new();
        let mut consumed = vec![false; n_slots];

        let record = |recs: &mut Vec<StashRec>,
                      live: &mut Vec<usize>,
                      flow: &Flow,
                      stash_lens: &[usize],
                      segment: usize,
                      slot: usize|
         -> Result<(), PlanError> {
            // Slots are numbered in stash (write) order, so the next write
            // must mint exactly the next slot id — anything else is a
            // duplicate or out-of-range writer.
            if slot != recs.len() || slot >= stash_lens.len() {
                return Err(PlanError::StashLifetime {
                    segment,
                    detail: format!(
                        "stash writes slot {slot} but the next slot in write order is {} of {}",
                        recs.len(),
                        stash_lens.len()
                    ),
                });
            }
            if stash_lens[slot] != flow.len {
                return Err(PlanError::StashLifetime {
                    segment,
                    detail: format!(
                        "slot {slot} declares len {} but stashes a value of len {}",
                        stash_lens[slot], flow.len
                    ),
                });
            }
            recs.push(StashRec {
                planar: flow.planar,
                dims: flow.dims,
                len: flow.len,
            });
            live.push(slot);
            Ok(())
        };

        for &slot in &self.input_stashes {
            record(&mut recs, &mut live, &flow, &self.stash_lens, 0, slot)?;
        }

        let last = self.segments.len().wrapping_sub(1);
        for (i, seg) in self.segments.iter().enumerate() {
            let layout_err = |detail: String| PlanError::LayoutChain { segment: i, detail };
            if !matches!(seg, Segment::Logits(_)) && i == last {
                return Err(layout_err(
                    "plan does not end with a logits epilogue".into(),
                ));
            }
            match seg {
                Segment::Conv(s) => {
                    if s.planar_in != flow.planar {
                        return Err(layout_err(format!(
                            "conv declares planar_in={} but the flow is planar={}",
                            s.planar_in, flow.planar
                        )));
                    }
                    let geom_in = s.geom.in_h * s.geom.in_w * s.geom.in_c;
                    if s.in_len != flow.len || geom_in != flow.len {
                        return Err(layout_err(format!(
                            "conv in_len {} / geometry input {} vs flow len {}",
                            s.in_len, geom_in, flow.len
                        )));
                    }
                    // The copied per-segment extents must agree with the
                    // geometry they were copied from.
                    let positions = s.geom.out_positions();
                    let patch = s.geom.patch_len();
                    if s.positions != positions
                        || s.patch != patch
                        || s.pair_rows != patch.div_ceil(2)
                        || s.out_len != positions * s.geom.out_c
                    {
                        return Err(layout_err(format!(
                            "conv extents (positions {}, patch {}, pair_rows {}, out_len {}) \
                             disagree with geometry ({}, {}, {}, {})",
                            s.positions,
                            s.patch,
                            s.pair_rows,
                            s.out_len,
                            positions,
                            patch,
                            patch.div_ceil(2),
                            positions * s.geom.out_c
                        )));
                    }
                    flow = Flow {
                        planar: true,
                        dims: Some((positions, s.geom.out_c)),
                        len: s.out_len,
                    };
                }
                Segment::Pool(s) => {
                    if s.planar_in != flow.planar {
                        return Err(layout_err(format!(
                            "pool declares planar_in={} but the flow is planar={}",
                            s.planar_in, flow.planar
                        )));
                    }
                    let geom_in = s.in_h * s.in_w * s.c;
                    if s.in_len != flow.len || geom_in != flow.len {
                        return Err(layout_err(format!(
                            "pool in_len {} / {}x{}x{} vs flow len {}",
                            s.in_len, s.in_h, s.in_w, s.c, flow.len
                        )));
                    }
                    if flow.planar && flow.dims != Some((s.in_h * s.in_w, s.c)) {
                        return Err(layout_err(format!(
                            "pool planar dims {:?} vs flow {:?}",
                            (s.in_h * s.in_w, s.c),
                            flow.dims
                        )));
                    }
                    let out_len = (s.in_h / 2) * (s.in_w / 2) * s.c;
                    if s.out_len != out_len {
                        return Err(layout_err(format!(
                            "pool out_len {} vs re-derived {}",
                            s.out_len, out_len
                        )));
                    }
                    flow = Flow {
                        planar: flow.planar,
                        dims: flow.planar.then_some(((s.in_h / 2) * (s.in_w / 2), s.c)),
                        len: out_len,
                    };
                }
                Segment::GlobalAvgPool(s) => {
                    if s.planar_in != flow.planar {
                        return Err(layout_err(format!(
                            "gap declares planar_in={} but the flow is planar={}",
                            s.planar_in, flow.planar
                        )));
                    }
                    let geom_in = s.in_h * s.in_w * s.c;
                    if s.in_len != flow.len || geom_in != flow.len {
                        return Err(layout_err(format!(
                            "gap in_len {} / {}x{}x{} vs flow len {}",
                            s.in_len, s.in_h, s.in_w, s.c, flow.len
                        )));
                    }
                    if s.positions != s.in_h * s.in_w || s.out_len != s.c {
                        return Err(layout_err(format!(
                            "gap positions {} / out_len {} vs re-derived {} / {}",
                            s.positions,
                            s.out_len,
                            s.in_h * s.in_w,
                            s.c
                        )));
                    }
                    if flow.planar && flow.dims != Some((s.positions, s.c)) {
                        return Err(layout_err(format!(
                            "gap planar dims {:?} vs flow {:?}",
                            (s.positions, s.c),
                            flow.dims
                        )));
                    }
                    // One value per channel: NHWC and planar coincide.
                    flow = Flow {
                        planar: false,
                        dims: None,
                        len: s.c,
                    };
                }
                Segment::Dense(s) => {
                    match (s.planar_in, flow.planar) {
                        (Some(dims), true) if Some(dims) == flow.dims => {}
                        (None, false) => {}
                        _ => {
                            return Err(layout_err(format!(
                                "dense declares planar_in={:?} but the flow is planar={} {:?}",
                                s.planar_in, flow.planar, flow.dims
                            )))
                        }
                    }
                    if s.in_dim != flow.len {
                        return Err(layout_err(format!(
                            "dense in_dim {} vs flow len {}",
                            s.in_dim, flow.len
                        )));
                    }
                    flow = Flow {
                        planar: false,
                        dims: None,
                        len: s.out_dim,
                    };
                }
                Segment::Add(s) => {
                    // Stash lifetime: the consumed slot must be the most
                    // recent live write (LIFO pairing — what lets backends
                    // free a slot's buffer at its Add).
                    match live.pop() {
                        Some(top) if top == s.slot => {}
                        top => {
                            return Err(PlanError::StashLifetime {
                                segment: i,
                                detail: format!(
                                    "Add consumes slot {} but the live stash stack top is {:?}",
                                    s.slot, top
                                ),
                            })
                        }
                    }
                    if consumed[s.slot] {
                        return Err(PlanError::StashLifetime {
                            segment: i,
                            detail: format!("slot {} consumed twice", s.slot),
                        });
                    }
                    consumed[s.slot] = true;
                    let rec = &recs[s.slot];
                    if s.len != flow.len || s.len != rec.len {
                        return Err(PlanError::StashLifetime {
                            segment: i,
                            detail: format!(
                                "Add len {} vs rhs flow len {} / stashed len {}",
                                s.len, flow.len, rec.len
                            ),
                        });
                    }
                    // Mixed-layout residual join: the declared operand
                    // layouts and the planar view dims must agree with the
                    // flow (rhs) and the stash record (lhs).
                    if s.rhs_planar != flow.planar || s.lhs_planar != rec.planar {
                        return Err(layout_err(format!(
                            "Add declares lhs_planar={} rhs_planar={} but stash is planar={} \
                             and flow is planar={}",
                            s.lhs_planar, s.rhs_planar, rec.planar, flow.planar
                        )));
                    }
                    let want_dims = match (flow.planar, rec.planar) {
                        (true, _) => flow.dims,
                        (false, true) => rec.dims,
                        (false, false) => Some((s.len, 1)),
                    };
                    if flow.planar && rec.planar && flow.dims != rec.dims {
                        return Err(layout_err(format!(
                            "Add joins planar dims {:?} against stashed {:?}",
                            flow.dims, rec.dims
                        )));
                    }
                    if Some((s.positions, s.ch)) != want_dims || s.positions * s.ch != s.len {
                        return Err(layout_err(format!(
                            "Add planar view ({}, {}) vs expected {:?} over len {}",
                            s.positions, s.ch, want_dims, s.len
                        )));
                    }
                    // Output layout and length are the rhs branch's:
                    // flow unchanged.
                }
                Segment::Logits(s) => {
                    if i != last {
                        return Err(layout_err(
                            "logits epilogue is not the final segment".into(),
                        ));
                    }
                    if s.out_len != flow.len || s.out_len != self.logits_len {
                        return Err(layout_err(format!(
                            "logits out_len {} vs flow len {} / plan logits_len {}",
                            s.out_len, flow.len, self.logits_len
                        )));
                    }
                    match (s.planar, flow.planar) {
                        (Some(dims), true) if Some(dims) == flow.dims => {}
                        (None, false) => {}
                        _ => {
                            return Err(layout_err(format!(
                                "logits declares planar={:?} but the flow is planar={} {:?}",
                                s.planar, flow.planar, flow.dims
                            )))
                        }
                    }
                }
            }
            for &slot in seg.stash_slots() {
                record(&mut recs, &mut live, &flow, &self.stash_lens, i, slot)?;
            }
        }
        // Dead after last use: every declared slot was written and consumed.
        if recs.len() != n_slots {
            return Err(PlanError::StashLifetime {
                segment: last,
                detail: format!(
                    "{} of {} stash slots never written",
                    n_slots - recs.len(),
                    n_slots
                ),
            });
        }
        if let Some(slot) = consumed.iter().position(|&c| !c) {
            return Err(PlanError::StashLifetime {
                segment: last,
                detail: format!("slot {slot} written but never consumed by an Add"),
            });
        }
        Ok(())
    }

    /// Invariant 3: the workspace scratch extents bound every segment's
    /// requirement, **re-derived from geometry** — not read back from the
    /// same fields the lowering summed them from.
    fn verify_scratch_extents(&self) -> Result<(), PlanError> {
        let extent_err =
            |segment: usize, detail: String| PlanError::ScratchExtent { segment, detail };
        if self.max_act < self.input_len {
            return Err(extent_err(
                0,
                format!("max_act {} < input len {}", self.max_act, self.input_len),
            ));
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let out = seg.out_len();
            if self.max_act < out {
                return Err(extent_err(
                    i,
                    format!("max_act {} < segment out_len {}", self.max_act, out),
                ));
            }
            if let Segment::Conv(s) = seg {
                let positions = s.geom.out_positions();
                let patch = s.geom.patch_len();
                let need_cols = positions * patch;
                let need_pair = patch.div_ceil(2) * 2 * positions;
                if self.max_cols < need_cols {
                    return Err(extent_err(
                        i,
                        format!("max_cols {} < {need_cols}", self.max_cols),
                    ));
                }
                if self.max_pair_colt < need_pair {
                    return Err(extent_err(
                        i,
                        format!("max_pair_colt {} < {need_pair}", self.max_pair_colt),
                    ));
                }
                // An NHWC-input conv stages one image planar for its fill.
                let need_stage = s.geom.in_h * s.geom.in_w * s.geom.in_c;
                if !s.planar_in && self.max_stage < need_stage {
                    return Err(extent_err(
                        i,
                        format!("max_stage {} < {need_stage}", self.max_stage),
                    ));
                }
                if self.max_positions < positions {
                    return Err(extent_err(
                        i,
                        format!("max_positions {} < {positions}", self.max_positions),
                    ));
                }
            }
        }
        for (slot, &len) in self.stash_lens.iter().enumerate() {
            if self.max_act < len {
                return Err(extent_err(
                    0,
                    format!("max_act {} < stash slot {slot} len {len}", self.max_act),
                ));
            }
        }
        Ok(())
    }

    /// Invariant 4: `leading_range` plus the per-ordinal `advance_range`s
    /// partition the segment list — contiguous, non-overlapping, total —
    /// and every `conv_starts` entry names the conv of its ordinal.
    fn verify_checkpoint_ranges(&self) -> Result<(), PlanError> {
        let ckpt_err =
            |ordinal: usize, detail: String| PlanError::CheckpointRange { ordinal, detail };
        let mut cursor = self.leading_range();
        if cursor.start != 0 {
            return Err(ckpt_err(0, "leading range does not start at 0".into()));
        }
        // The leading prefix must be conv-free.
        for i in cursor.clone() {
            if matches!(self.segments[i], Segment::Conv(_)) {
                return Err(ckpt_err(
                    0,
                    format!("conv segment {i} before conv_starts[0]"),
                ));
            }
        }
        let mut end = cursor.end;
        for k in 0..self.conv_starts.len() {
            let r = self.advance_range(k);
            if r.start != end {
                return Err(ckpt_err(
                    k,
                    format!(
                        "range {:?} does not continue from the previous end {end} \
                         (overlap or gap)",
                        r
                    ),
                ));
            }
            if r.is_empty() {
                return Err(ckpt_err(k, format!("empty range {r:?}")));
            }
            match self.segments.get(r.start) {
                Some(Segment::Conv(s)) if s.ordinal == k => {}
                other => {
                    return Err(ckpt_err(
                        k,
                        format!(
                            "range start {} is not conv ordinal {k} (found {})",
                            r.start,
                            match other {
                                Some(Segment::Conv(s)) => format!("conv ordinal {}", s.ordinal),
                                Some(_) => "a non-conv segment".into(),
                                None => "nothing".into(),
                            }
                        ),
                    ))
                }
            }
            // Only the range head may be a conv: an interior conv belongs
            // to the next ordinal's range.
            for i in r.start + 1..r.end {
                if matches!(self.segments[i], Segment::Conv(_)) {
                    return Err(ckpt_err(
                        k,
                        format!("interior conv segment {i} inside range {r:?}"),
                    ));
                }
            }
            end = r.end;
            cursor = r;
        }
        let _ = cursor;
        if end != self.segments.len() {
            return Err(ckpt_err(
                self.conv_starts.len().saturating_sub(1),
                format!(
                    "ranges cover [0, {end}) of {} segments (gap at the tail)",
                    self.segments.len()
                ),
            ));
        }
        Ok(())
    }

    /// Invariant 6: for a probe grid of batch sizes and thread counts, the
    /// image-group tiling the parallel batch path would use yields lane
    /// windows that are pairwise disjoint and cover the batch exactly.
    fn verify_tiles(&self) -> Result<(), PlanError> {
        for seg in &self.segments {
            let Segment::Conv(s) = seg else { continue };
            for &batch in &TILE_PROBE_BATCHES {
                for &threads in &TILE_PROBE_THREADS {
                    let g = crate::batch::tile_images(s.pair_rows, s.positions, batch, threads);
                    if g == 0 || g > batch {
                        return Err(PlanError::TileWindows {
                            ordinal: s.ordinal,
                            detail: format!("tile group {g} outside [1, {batch}]"),
                        });
                    }
                    let windows: Vec<(usize, usize)> = (0..batch.div_ceil(g))
                        .map(|t| (t * g, ((t + 1) * g).min(batch)))
                        .collect();
                    check_tile_cover(&windows, batch, s.ordinal)?;
                }
            }
        }
        Ok(())
    }

    /// Invariant 5: validate one compiled delta stream against this plan's
    /// conv segment `ordinal` — span-table shape, per-channel index bounds
    /// and strict monotonicity ([`tinytensor::stream::check_deltas`]), and
    /// payload/tally consistency. Streams are per-design artifacts (masks,
    /// memoized τ streams), so this runs per deploy / per memo build, not
    /// inside [`ExecPlan::verify`].
    pub fn verify_stream(&self, ordinal: usize, cc: &CompiledConv) -> Result<(), PlanError> {
        let stream_err = |detail: String| PlanError::Stream { ordinal, detail };
        if ordinal >= self.n_convs() {
            return Err(stream_err(format!(
                "stream targets conv ordinal {ordinal} of a {}-conv plan",
                self.n_convs()
            )));
        }
        let seg = self.conv_segment(ordinal);
        let out_c = seg.geom.out_c;
        let patch = seg.geom.patch_len();
        let pair_rows = patch.div_ceil(2);
        if cc.row_offsets.len() != out_c + 1 {
            return Err(stream_err(format!(
                "row_offsets len {} vs out_c + 1 = {}",
                cc.row_offsets.len(),
                out_c + 1
            )));
        }
        if cc.row_offsets[0] != 0
            || *cc.row_offsets.last().unwrap_or(&0) as usize != cc.deltas.len()
        {
            return Err(stream_err(format!(
                "row_offsets spans [{}, {}] do not cover the {} delta entries",
                cc.row_offsets[0],
                cc.row_offsets.last().copied().unwrap_or(0),
                cc.deltas.len()
            )));
        }
        if cc.w.len() != 2 * cc.deltas.len() {
            return Err(stream_err(format!(
                "weight payload {} halves vs {} entries",
                cc.w.len(),
                cc.deltas.len()
            )));
        }
        if cc.retained.len() != out_c {
            return Err(stream_err(format!(
                "retained tallies {} vs out_c {}",
                cc.retained.len(),
                out_c
            )));
        }
        for o in 0..out_c {
            let (s, e) = (cc.row_offsets[o] as usize, cc.row_offsets[o + 1] as usize);
            if s > e || e > cc.deltas.len() {
                return Err(stream_err(format!(
                    "channel {o} span [{s}, {e}) out of order"
                )));
            }
            tinytensor::stream::check_deltas(&cc.deltas[s..e], pair_rows).map_err(|err| {
                stream_err(format!("channel {o}: {err} (pair-row extent {pair_rows})"))
            })?;
            if cc.retained[o] as usize > patch {
                return Err(stream_err(format!(
                    "channel {o} retains {} of {patch} products",
                    cc.retained[o]
                )));
            }
            // Every nonzero weight half is one retained nonzero product, so
            // the stream payload can never exceed the retained tally.
            let nonzero = cc.w[2 * s..2 * e].iter().filter(|&&h| h != 0).count();
            if nonzero > cc.retained[o] as usize {
                return Err(stream_err(format!(
                    "channel {o} streams {nonzero} nonzero halves but tallies {} retained",
                    cc.retained[o]
                )));
            }
        }
        Ok(())
    }

    /// The plan-derived peak ping-pong activation pair + live stashes (the
    /// accounting of [`QuantModel::peak_activation_pair`] replayed over
    /// segments and stash side-outputs). [`ExecPlan::lower`] debug-asserts
    /// the two agree — the cross-layer consistency check behind the
    /// stash-slot invariant.
    ///
    /// [`QuantModel::peak_activation_pair`]: crate::QuantModel::peak_activation_pair
    pub fn peak_activation_pair(&self) -> u64 {
        let mut stash_sum = 0u64;
        let mut peak = 0u64;
        for &slot in &self.input_stashes {
            peak = peak.max(2 * self.stash_lens[slot] as u64 + stash_sum);
            stash_sum += self.stash_lens[slot] as u64;
        }
        let mut cur = self.input_len as u64;
        for seg in &self.segments {
            let (in_len, out_len) = match seg {
                Segment::Conv(s) => (s.in_len, s.out_len),
                Segment::Pool(s) => (s.in_len, s.out_len),
                Segment::GlobalAvgPool(s) => (s.in_len, s.out_len),
                Segment::Dense(s) => (s.in_dim, s.out_dim),
                Segment::Add(s) => (s.len, s.len),
                // The epilogue is layout normalization, not a model layer:
                // the model-side accounting has no counterpart for it.
                Segment::Logits(_) => continue,
            };
            peak = peak.max((in_len + out_len) as u64 + stash_sum);
            if let Segment::Add(s) = seg {
                stash_sum -= self.stash_lens[s.slot] as u64;
            }
            cur = out_len as u64;
            for &slot in seg.stash_slots() {
                peak = peak.max(2 * self.stash_lens[slot] as u64 + stash_sum);
                stash_sum += self.stash_lens[slot] as u64;
            }
        }
        let _ = cur;
        peak
    }
}

/// Check that `windows` tile `[0, batch)` exactly: sorted, contiguous
/// (no overlap, no gap), non-empty, first at 0 and last ending at `batch`.
/// Factored out of [`ExecPlan::verify`]'s tile probe so mutation tests can
/// corrupt the window list directly.
fn check_tile_cover(
    windows: &[(usize, usize)],
    batch: usize,
    ordinal: usize,
) -> Result<(), PlanError> {
    let tile_err = |detail: String| PlanError::TileWindows { ordinal, detail };
    let mut end = 0usize;
    for &(lo, hi) in windows {
        if lo != end {
            return Err(tile_err(format!(
                "window [{lo}, {hi}) does not continue from {end} (overlap or gap)"
            )));
        }
        if hi <= lo {
            return Err(tile_err(format!("empty window [{lo}, {hi})")));
        }
        end = hi;
    }
    if end != batch {
        return Err(tile_err(format!(
            "windows cover [0, {end}) of batch {batch}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::quantized;
    use super::super::*;
    use super::check_tile_cover;
    use crate::calib::calibrate_ranges;
    use crate::compiled::CompiledConv;
    use crate::qmodel::quantize_model;
    use cifar10sim::DatasetConfig;

    fn resnet_plan() -> ExecPlan {
        let data = cifar10sim::generate(DatasetConfig::tiny(77));
        let m = tinynn::zoo::mini_resnet(77);
        let ranges = calibrate_ranges(&m, &data.train.take(4));
        let q = quantize_model(&m, &ranges);
        ExecPlan::lower(&q)
    }

    #[test]
    fn zoo_plans_verify_clean() {
        for seed in [31, 32, 33] {
            let q = quantized(seed);
            let plan = ExecPlan::lower(&q);
            plan.verify().expect("chain plan verifies");
            assert_eq!(plan.peak_activation_pair(), q.peak_activation_pair());
        }
        let plan = resnet_plan();
        plan.verify().expect("residual plan verifies");
    }

    #[test]
    fn peak_accounting_matches_the_model_for_residual_plans() {
        let data = cifar10sim::generate(DatasetConfig::tiny(78));
        let m = tinynn::zoo::mini_resnet(78);
        let ranges = calibrate_ranges(&m, &data.train.take(4));
        let q = quantize_model(&m, &ranges);
        let plan = ExecPlan::lower(&q);
        assert_eq!(plan.peak_activation_pair(), q.peak_activation_pair());
    }

    #[test]
    fn dense_streams_verify_against_their_plan() {
        let q = quantized(34);
        let plan = ExecPlan::lower(&q);
        for k in 0..plan.n_convs() {
            let cc = CompiledConv::dense(q.conv(k));
            plan.verify_stream(k, &cc).expect("dense stream verifies");
        }
    }

    // ---- mutation tests: one corrupted plan per invariant class ----

    #[test]
    fn mutation_swapped_layout_flag_fires_layout_chain() {
        let q = quantized(41);
        let mut plan = ExecPlan::lower(&q);
        let pool = plan
            .segments
            .iter_mut()
            .find_map(|s| match s {
                Segment::Pool(p) => Some(p),
                _ => None,
            })
            .expect("zoo model has a pool");
        pool.planar_in = !pool.planar_in;
        assert!(matches!(plan.verify(), Err(PlanError::LayoutChain { .. })));
    }

    #[test]
    fn mutation_dangling_stash_slot_fires_stash_lifetime() {
        let mut plan = resnet_plan();
        let add = plan
            .segments
            .iter_mut()
            .find_map(|s| match s {
                Segment::Add(a) => Some(a),
                _ => None,
            })
            .expect("residual plan has an Add");
        add.slot = 17; // no Stash ever writes slot 17
        assert!(matches!(
            plan.verify(),
            Err(PlanError::StashLifetime { .. })
        ));
    }

    #[test]
    fn mutation_unconsumed_stash_fires_stash_lifetime() {
        let mut plan = resnet_plan();
        // Drop one Add: its slot stays live to the end of the plan.
        let idx = plan
            .segments
            .iter()
            .position(|s| matches!(s, Segment::Add(_)))
            .expect("residual plan has an Add");
        plan.segments.remove(idx);
        assert!(matches!(
            plan.verify(),
            Err(PlanError::StashLifetime { .. }) | Err(PlanError::LayoutChain { .. })
        ));
    }

    #[test]
    fn mutation_undersized_scratch_extent_fires_scratch_extent() {
        let q = quantized(42);
        let base = ExecPlan::lower(&q);
        for field in 0..5 {
            let mut plan = base.clone();
            match field {
                0 => plan.max_act -= 1,
                1 => plan.max_cols -= 1,
                2 => plan.max_pair_colt -= 1,
                3 => plan.max_stage -= 1,
                _ => plan.max_positions -= 1,
            }
            assert!(
                matches!(plan.verify(), Err(PlanError::ScratchExtent { .. })),
                "field {field}"
            );
        }
    }

    #[test]
    fn mutation_overlapping_checkpoint_range_fires_checkpoint_range() {
        let q = quantized(43);
        let mut plan = ExecPlan::lower(&q);
        assert!(plan.conv_starts.len() >= 2, "need two convs to overlap");
        // Pulling a start backwards makes ordinal 1's range overlap
        // ordinal 0's (and no longer start at a conv).
        plan.conv_starts[1] -= 1;
        assert!(matches!(
            plan.verify(),
            Err(PlanError::CheckpointRange { .. })
        ));
    }

    #[test]
    fn mutation_out_of_bounds_delta_fires_stream() {
        let q = quantized(44);
        let plan = ExecPlan::lower(&q);
        let mut cc = CompiledConv::dense(q.conv(0));
        // Blow the first channel's final entry past the pair-row extent.
        let e = cc.row_offsets[1] as usize;
        assert!(e > 0, "dense channel streams at least one entry");
        cc.deltas[e - 1] = u8::MAX;
        assert!(matches!(
            plan.verify_stream(0, &cc),
            Err(PlanError::Stream { ordinal: 0, .. })
        ));
        // A duplicated index (zero delta past the first entry) also fires.
        let mut cc = CompiledConv::dense(q.conv(0));
        if cc.row_offsets[1] >= 2 {
            cc.deltas[1] = 0;
            assert!(matches!(
                plan.verify_stream(0, &cc),
                Err(PlanError::Stream { .. })
            ));
        }
    }

    #[test]
    fn mutation_overlapping_tile_windows_fire_tile_windows() {
        // Overlap: second window restarts inside the first.
        assert!(matches!(
            check_tile_cover(&[(0, 4), (3, 8)], 8, 0),
            Err(PlanError::TileWindows { .. })
        ));
        // Gap: a lane is covered by no window.
        assert!(matches!(
            check_tile_cover(&[(0, 4), (5, 8)], 8, 0),
            Err(PlanError::TileWindows { .. })
        ));
        // Short cover: the tail of the batch is missing.
        assert!(matches!(
            check_tile_cover(&[(0, 4)], 8, 0),
            Err(PlanError::TileWindows { .. })
        ));
        // The genuine tiling passes.
        check_tile_cover(&[(0, 4), (4, 8)], 8, 0).expect("exact cover");
    }

    #[test]
    fn stream_arity_and_tally_violations_fire_stream() {
        let q = quantized(45);
        let plan = ExecPlan::lower(&q);
        let conv = q.conv(0);
        // Wrong channel count.
        let mut cc = CompiledConv::dense(conv);
        cc.row_offsets.pop();
        cc.retained.pop();
        assert!(matches!(
            plan.verify_stream(0, &cc),
            Err(PlanError::Stream { .. })
        ));
        // Tally exceeding the patch.
        let mut cc = CompiledConv::dense(conv);
        cc.retained[0] = (conv.patch_len() + 1) as u32;
        assert!(matches!(
            plan.verify_stream(0, &cc),
            Err(PlanError::Stream { .. })
        ));
        // Stream out of plan range.
        let cc = CompiledConv::dense(conv);
        assert!(matches!(
            plan.verify_stream(plan.n_convs(), &cc),
            Err(PlanError::Stream { .. })
        ));
    }

    #[test]
    fn plan_error_display_names_the_site() {
        let e = PlanError::LayoutChain {
            segment: 3,
            detail: "x".into(),
        };
        assert!(e.to_string().contains("segment 3"));
        let e = PlanError::Stream {
            ordinal: 1,
            detail: "y".into(),
        };
        assert!(e.to_string().contains("ordinal 1"));
    }
}
