//! Causal-convolution kernels behind the tensor ops, and the register-tiled
//! GEMM behind [`crate::Tensor::matmul`].
//!
//! The seed kernels walked `(batch, c_out, c_in, tap)` nests with a scalar
//! AXPY over time per tap. These kernels restructure that work:
//!
//! 1. **Live reduction rows**: every `(channel, tap)` pair is one reduction
//!    row, read through its causal shift `tap · dilation`. Rows whose shift
//!    reaches past `T`, and taps the PIT time mask `M` zeroes, are dropped
//!    before any arithmetic (`live_rows`), and the mask is folded into the
//!    weight pack (`pack_weights`). So masked training skips the work the
//!    dilated deployment convolution would skip, without ever materialising
//!    `W ⊙ M`.
//! 2. **Padded slabs** (forward and input gradient): each sample's source
//!    rows are copied once into scratch, zero-padded by the largest live
//!    shift (on the left for the forward, where the causal pad is; on the
//!    right for the input gradient, past the sequence end) and out to whole
//!    `TILE`-wide slabs. `MR` output rows accumulate one slab in registers
//!    over every row live for it, each row loading the whole slab: one loop,
//!    with no per-lane path for rows that straddle the pad. Rows are sorted by
//!    shift, so the live ones are a prefix and rows lying wholly in the pad
//!    are skipped.
//! 3. **Blocked patch** (weight gradient): each sample is packed once into a
//!    time-major patch `[⌈R/8⌉][T][8]` of its `R` live rows, zero where
//!    `t < shift`. For each block of 8 columns and each output channel, the 8
//!    lane-class partial sums (`t mod 8`) of all 8 columns stay in registers,
//!    so every multiply-add is 8 wide and no output needs a horizontal sum.
//! 4. **Batch parallelism**: every kernel fans the batch axis out through
//!    [`crate::pool`] when the tensor is large enough to amortise threads,
//!    one contiguous group of samples per thread, with its scratch allocated
//!    once per group.
//!
//! # Reduction order
//!
//! Which products are summed, and in what order, is part of each kernel's
//! contract; `tests::*_keeps_the_reduction_order` spell it out as scalar
//! loops and compare bit for bit.
//!
//! * Forward: `out[co, t]` is the bias (or zero) plus a sum that starts at
//!   0.0 and adds `(w ⊙ m)[co, ci, k] · x[ci, t − k·d]` over the live
//!   `(c_in, tap)` rows in shift order (stable, so channel order within a
//!   shift), skipping rows with `k·d > t`.
//! * Input gradient: `gx[ci, τ]` is zero plus a sum that starts at 0.0 and
//!   adds `(w ⊙ m)[co, ci, k] · g[co, τ + k·d]` over the live
//!   `(c_out, tap)` rows in the same order, skipping rows with
//!   `τ + k·d ≥ T`.
//! * Weight gradient: per sample, 8 lane classes sum `g[co, t] · x[ci, t − k·d]`
//!   (zero for `t < k·d`) over `t mod 8`, the tail past the last whole group
//!   of 8 going to class 0; the classes are added in order, and the sample's
//!   value is added to its group's batch sum. Group sums are added in group
//!   order (`pool::map_accumulate`), so a weight gradient split across
//!   threads sums in another order than a serial one.
//!
//! A pad lane changes no sum: it adds `w · 0.0 = ±0.0` to an accumulator
//! that starts at `+0.0` and so is never `−0.0`. Outputs are therefore
//! bit-identical to the sums above for finite weights only: a NaN or ∞
//! weight turns the pad lanes of its row into NaN too. The kernels are safe
//! Rust written to autovectorise; Rust never contracts `a + x · w` into a
//! fused multiply-add, so the order above is the order the hardware runs.
//!
//! The seed's naive nests are preserved verbatim at the bottom of this module
//! (gated behind `cfg(test)` and the `reference` feature) as the oracle the
//! test suite and the `pit-bench` before/after benchmarks compare against.
//!
//! The module is public so tape-free code can drive [`gemm`] and
//! [`conv1d_forward`] directly into preallocated buffers; the gradient
//! kernels stay crate-private behind the autograd ops. Every kernel here is
//! f32: the int8 serving path accumulates one timestep at a time inside
//! `pit-infer`'s step microkernel.

use crate::pool;

/// Number of output rows each microkernel iteration produces.
const MR: usize = 4;
/// Width (in `f32` lanes) of the time slab held in accumulators.
const TILE: usize = 16;
/// Columns of one weight-gradient patch block: one 8-lane vector.
const COLS: usize = 8;
/// Lane classes (`t mod 8`) of a weight-gradient dot product.
const CLASSES: usize = 8;

/// Geometry of one causal-convolution call.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Sequence length.
    pub t: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel taps.
    pub k: usize,
    /// Dilation between taps.
    pub dilation: usize,
}

impl ConvShape {
    /// Multiply-accumulates per batch element of the dense convolution.
    fn work_per_batch(&self) -> usize {
        self.c_out * self.c_in * self.k * self.t
    }
}

/// One reduction row: a source channel read through a tap's time shift.
#[derive(Debug, Clone, Copy)]
struct TapRow {
    /// Source channel: `c_in` for the forward and the weight gradient,
    /// `c_out` for the input gradient.
    src: usize,
    /// Kernel tap.
    tap: usize,
    /// Causal delay `tap · dilation`.
    shift: usize,
}

/// The live reduction rows over `channels` source channels, channel-major:
/// one per `(channel, tap)` pair whose shift is below `T` and whose tap the
/// mask (if any) keeps.
fn live_rows(channels: usize, s: &ConvShape, mask: Option<&[f32]>) -> Vec<TapRow> {
    let mut rows = Vec::with_capacity(channels * s.k);
    for src in 0..channels {
        for tap in 0..s.k {
            let shift = tap * s.dilation;
            if shift >= s.t || mask.is_some_and(|m| m[tap] == 0.0) {
                continue;
            }
            rows.push(TapRow { src, tap, shift });
        }
    }
    rows
}

/// Gathers `weight(i, row)` for every reduction row and output row `i` into
/// a dense row-major `[rows.len(), rows_out]` matrix, folding the time mask
/// in, so the weights one reduction row gives `MR` output rows are adjacent.
fn pack_weights(
    rows_out: usize,
    rows: &[TapRow],
    mask: Option<&[f32]>,
    weight: impl Fn(usize, &TapRow) -> f32,
) -> Vec<f32> {
    let mut wp = Vec::with_capacity(rows.len() * rows_out);
    for row in rows {
        let m = mask.map_or(1.0, |m| m[row.tap]);
        wp.extend((0..rows_out).map(|i| weight(i, row) * m));
    }
    wp
}

/// One forward or input-gradient call: shift-sorted reduction rows read
/// from a zero-padded per-sample copy of the source rows.
struct SlabConv {
    /// Samples in the batch.
    n: usize,
    /// Source rows per sample.
    c_src: usize,
    /// Sequence length.
    t: usize,
    /// Floats between two rows of the padded copy.
    stride: usize,
    /// Offset of the sequence inside each padded row.
    lead: usize,
    /// Offset of each reduction row's read at slab 0; at time `tb` it reads
    /// the `TILE` floats from `base + tb`.
    bases: Vec<usize>,
    /// For each slab, how many rows (a prefix) read anything but pad.
    live: Vec<usize>,
}

impl SlabConv {
    /// The forward's reads, `x[ci, t − shift]`: padded on the left by the
    /// largest shift.
    fn forward(rows: &[TapRow], s: &ConvShape) -> Self {
        debug_assert!(rows.is_sorted_by_key(|r| r.shift));
        let pad = rows.last().map_or(0, |r| r.shift);
        let slabs = s.t.div_ceil(TILE);
        let stride = pad + slabs * TILE;
        Self {
            n: s.n,
            c_src: s.c_in,
            t: s.t,
            stride,
            lead: pad,
            bases: rows
                .iter()
                .map(|r| r.src * stride + pad - r.shift)
                .collect(),
            live: (0..slabs)
                .map(|sl| rows.partition_point(|r| r.shift < (sl + 1) * TILE))
                .collect(),
        }
    }

    /// The input gradient's reads, `g[co, τ + shift]`: padded on the right
    /// by the largest shift.
    fn grad_input(rows: &[TapRow], s: &ConvShape) -> Self {
        debug_assert!(rows.is_sorted_by_key(|r| r.shift));
        let pad = rows.last().map_or(0, |r| r.shift);
        let slabs = s.t.div_ceil(TILE);
        let stride = slabs * TILE + pad;
        Self {
            n: s.n,
            c_src: s.c_out,
            t: s.t,
            stride,
            lead: 0,
            bases: rows.iter().map(|r| r.src * stride + r.shift).collect(),
            live: (0..slabs)
                .map(|sl| rows.partition_point(|r| r.shift + sl * TILE < s.t))
                .collect(),
        }
    }

    /// Runs the call over the batch: for every sample, `init` sets its
    /// `[rows_out, t]` block of `out` (bias or zeros), the sample's source
    /// rows are copied into the padded scratch, and `slab_rows` adds
    /// `wp · source` to the block.
    ///
    /// The samples are split into one contiguous group per thread, so the
    /// scratch is allocated once per group.
    fn run(
        &self,
        src: &[f32],
        wp: &[f32],
        rows_out: usize,
        threads: usize,
        init: impl Fn(&mut [f32]) + Sync,
        out: &mut [f32],
    ) {
        let (n, c_src, t) = (self.n, self.c_src, self.t);
        let sample_out = rows_out * t;
        let per = n.div_ceil(threads);
        let out = &mut out[..n * sample_out];
        pool::for_each_chunk(out, per * sample_out, threads, |g, group| {
            if self.bases.is_empty() {
                group.chunks_mut(sample_out).for_each(&init);
                return;
            }
            let mut padded = vec![0.0f32; c_src * self.stride];
            for (i, out_b) in group.chunks_mut(sample_out).enumerate() {
                init(out_b);
                let bn = g * per + i;
                let sb = &src[bn * c_src * t..(bn + 1) * c_src * t];
                for (dst, row) in padded.chunks_exact_mut(self.stride).zip(sb.chunks_exact(t)) {
                    dst[self.lead..self.lead + t].copy_from_slice(row);
                }
                let mut i0 = 0;
                while i0 + MR <= rows_out {
                    slab_rows::<MR>(i0, wp, &padded, self, out_b);
                    i0 += MR;
                }
                match rows_out - i0 {
                    0 => {}
                    1 => slab_rows::<1>(i0, wp, &padded, self, out_b),
                    2 => slab_rows::<2>(i0, wp, &padded, self, out_b),
                    3 => slab_rows::<3>(i0, wp, &padded, self, out_b),
                    // A silent fall-through here would drop output rows; keep
                    // this exhaustive relative to MR so raising MR cannot
                    // corrupt results.
                    rem => unreachable!("slab remainder {rem} not covered (MR = {MR})"),
                }
            }
        });
    }
}

/// Produces output rows `i0..i0 + R` of one sample: for each `TILE`-wide
/// slab, `R × TILE` accumulators start at zero, add `wp[j, i] · slab_j` over
/// the rows live for the slab (in row order), and are added to `out`.
///
/// Every read is a whole slab of the padded source, so the one loop covers
/// rows inside the sequence and rows straddling its pad alike; the last slab
/// may run past `t`, and only its first `t − tb` lanes are stored.
fn slab_rows<const R: usize>(i0: usize, wp: &[f32], src: &[f32], conv: &SlabConv, out: &mut [f32]) {
    let t = conv.t;
    let rows_out = wp.len() / conv.bases.len();
    for (sl, &live) in conv.live.iter().enumerate() {
        let tb = sl * TILE;
        let mut acc = [[0.0f32; TILE]; R];
        for (&base, wrow) in conv.bases[..live].iter().zip(wp.chunks_exact(rows_out)) {
            let xs: &[f32; TILE] = src[base + tb..base + tb + TILE].try_into().expect("slab");
            let ws: &[f32; R] = wrow[i0..i0 + R].try_into().expect("weights");
            for (accr, &av) in acc.iter_mut().zip(ws) {
                for l in 0..TILE {
                    accr[l] += av * xs[l];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let orow = &mut out[(i0 + r) * t..(i0 + r + 1) * t];
            // Whole slabs store at a fixed width, which keeps `acc` in
            // vector registers.
            if let Ok(o) = <&mut [f32; TILE]>::try_from(&mut orow[tb..(tb + TILE).min(t)]) {
                for l in 0..TILE {
                    o[l] += accr[l];
                }
            } else {
                for (o, a) in orow[tb..].iter_mut().zip(accr) {
                    *o += a;
                }
            }
        }
    }
}

/// Packs one sample `[C_in, T]` into the blocked weight-gradient patch
/// `[⌈R/8⌉][T][8]`: column `j % 8` of block `j / 8` is reduction row `j`'s
/// source channel delayed by its shift. Entries with `t < shift`, and the
/// columns of a last block past `R`, are never written, so the zeros the
/// patch was allocated with stay.
fn pack_patch(xb: &[f32], t: usize, rows: &[TapRow], patch: &mut [f32]) {
    for (j, row) in rows.iter().enumerate() {
        let block = &mut patch[(j / COLS) * t * COLS..(j / COLS + 1) * t * COLS];
        let src = &xb[row.src * t..(row.src + 1) * t];
        for (dst, &v) in block[row.shift * COLS..].chunks_exact_mut(COLS).zip(src) {
            dst[j % COLS] = v;
        }
    }
}

/// `acc += a · x` over one 8-wide row.
#[inline(always)]
fn axpy(acc: [f32; COLS], a: f32, x: &[f32; COLS]) -> [f32; COLS] {
    let mut out = acc;
    for c in 0..COLS {
        out[c] += a * x[c];
    }
    out
}

/// `acc[co, j] += Σ_t gb[co, t] · patch[j, t]` for one sample, in the
/// lane-class order of the module docs: per 8-column block and output
/// channel, the `CLASSES` partial sums of all 8 columns stay in registers
/// and each timestep is one 8-wide multiply-add. `acc` rows are
/// `⌈R/8⌉·8` wide, so every block stores whole.
fn patch_gemm(c_out: usize, t: usize, gb: &[f32], patch: &[f32], acc: &mut [f32]) {
    let width = patch.len() / t;
    for (b, block) in patch.chunks_exact(t * COLS).enumerate() {
        let (steps, _) = block.as_chunks::<COLS>();
        let (groups, _) = steps.as_chunks::<CLASSES>();
        for co in 0..c_out {
            let (g8, g_tail) = gb[co * t..(co + 1) * t].as_chunks::<CLASSES>();
            // One variable per lane class: held in an array, the classes
            // get vectorised across the wrong axis.
            let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] =
                [[0.0f32; COLS]; CLASSES];
            for (gs, ps) in g8.iter().zip(groups) {
                c0 = axpy(c0, gs[0], &ps[0]);
                c1 = axpy(c1, gs[1], &ps[1]);
                c2 = axpy(c2, gs[2], &ps[2]);
                c3 = axpy(c3, gs[3], &ps[3]);
                c4 = axpy(c4, gs[4], &ps[4]);
                c5 = axpy(c5, gs[5], &ps[5]);
                c6 = axpy(c6, gs[6], &ps[6]);
                c7 = axpy(c7, gs[7], &ps[7]);
            }
            for (&gv, prow) in g_tail.iter().zip(&steps[g8.len() * CLASSES..]) {
                c0 = axpy(c0, gv, prow);
            }
            let mut sum = c0;
            for class in [c1, c2, c3, c4, c5, c6, c7] {
                for c in 0..COLS {
                    sum[c] += class[c];
                }
            }
            let dst: &mut [f32; COLS] = (&mut acc[co * width + b * COLS..][..COLS])
                .try_into()
                .expect("block");
            for c in 0..COLS {
                dst[c] += sum[c];
            }
        }
    }
}

// ----------------------------------------------------------------------
// GEMM microkernel
// ----------------------------------------------------------------------

/// `out[m, n] += a[m, kd] · b[kd, n]`, producing `MR` output rows at a time
/// over `TILE`-wide column slabs held in registers.
///
/// This is the tape-free GEMM entry point behind [`crate::Tensor::matmul`]:
/// `out` accumulates, so callers pre-fill it with zeros or a bias.
///
/// # Panics
///
/// Panics (by slice indexing) if `a`, `b` or `out` are shorter than
/// `m·kd`, `kd·n` and `m·n` respectively.
pub fn gemm(m: usize, kd: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut i = 0;
    while i + MR <= m {
        gemm_rows::<MR>(i, kd, n, a, b, out);
        i += MR;
    }
    match m - i {
        0 => {}
        1 => gemm_rows::<1>(i, kd, n, a, b, out),
        2 => gemm_rows::<2>(i, kd, n, a, b, out),
        3 => gemm_rows::<3>(i, kd, n, a, b, out),
        // A silent fall-through here would drop output rows; keep this
        // exhaustive relative to MR so raising MR cannot corrupt results.
        rem => unreachable!("gemm remainder {rem} not covered (MR = {MR})"),
    }
}

/// Produces output rows `i..i + R` of `out += a · b`.
fn gemm_rows<const R: usize>(i: usize, kd: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut col = 0;
    // Full TILE-wide slabs: accumulators never leave registers inside the
    // p-loop, and each b slab load is reused R times.
    while col + TILE <= n {
        let mut acc = [[0.0f32; TILE]; R];
        for p in 0..kd {
            let bs: &[f32; TILE] = b[p * n + col..p * n + col + TILE]
                .try_into()
                .expect("tile slab");
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = a[(i + r) * kd + p];
                for l in 0..TILE {
                    accr[l] += av * bs[l];
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let orow = &mut out[(i + r) * n + col..(i + r) * n + col + TILE];
            for l in 0..TILE {
                orow[l] += accr[l];
            }
        }
        col += TILE;
    }
    // Ragged tail shorter than a slab.
    if col < n {
        let mut acc = [[0.0f32; TILE]; R];
        for p in 0..kd {
            let bs = &b[p * n + col..p * n + n];
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = a[(i + r) * kd + p];
                for (l, &bv) in bs.iter().enumerate() {
                    accr[l] += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let orow = &mut out[(i + r) * n + col..(i + r) * n + n];
            for (l, ov) in orow.iter_mut().enumerate() {
                *ov += accr[l];
            }
        }
    }
}

// ----------------------------------------------------------------------
// Convolution drivers
// ----------------------------------------------------------------------

/// Forward causal convolution: `out[n, co, t] = Σ (w ⊙ m)[co, ci, k] · x[n, ci, t − k·d]`
/// plus bias, batch-parallel over `n`.
///
/// Tape-free into `out`, apart from the internal weight pack and one padded
/// source copy per thread; this is the kernel both
/// [`crate::Tensor::conv1d_causal`] and the compiled inference plans execute
/// through. The summation order is the one in the module docs.
///
/// # Panics
///
/// Panics (by slice indexing) if the buffers are shorter than the geometry in
/// `s` implies (`x`: `n·c_in·t`, `w`: `c_out·c_in·k`, `bias`: `c_out`,
/// `mask`: `k`, `out`: `n·c_out·t`).
pub fn conv1d_forward(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    mask: Option<&[f32]>,
    s: &ConvShape,
    out: &mut [f32],
) {
    let mut rows = live_rows(s.c_in, s, mask);
    // Stable: rows of one shift keep their channel order.
    rows.sort_by_key(|r| r.shift);
    let wp = pack_weights(s.c_out, &rows, mask, |co, r| {
        w[(co * s.c_in + r.src) * s.k + r.tap]
    });
    let t = s.t;
    let init = |out_b: &mut [f32]| match bias {
        Some(bv) => {
            for (orow, &b) in out_b.chunks_mut(t).zip(bv) {
                orow.fill(b);
            }
        }
        None => out_b.fill(0.0),
    };
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    SlabConv::forward(&rows, s).run(x, &wp, s.c_out, threads, init, out);
}

/// Input gradient: `gx[n, ci, τ] = Σ (w ⊙ m)[co, ci, k] · g[n, co, τ + k·d]`,
/// batch-parallel over `n`, in the summation order of the module docs.
pub(crate) fn conv1d_grad_input(
    g: &[f32],
    w: &[f32],
    mask: Option<&[f32]>,
    s: &ConvShape,
    gx: &mut [f32],
) {
    // Reduction rows seen from an input channel: every alive `(c_out, tap)`
    // pair, reading dY through a forward shift; output row `ci` weighs row
    // `(co, kk)` by `w[co, ci, kk]`.
    let mut rows = live_rows(s.c_out, s, mask);
    rows.sort_by_key(|r| r.shift);
    let wt = pack_weights(s.c_in, &rows, mask, |ci, r| {
        w[(r.src * s.c_in + ci) * s.k + r.tap]
    });
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    let zero = |gx_b: &mut [f32]| gx_b.fill(0.0);
    SlabConv::grad_input(&rows, s).run(g, &wt, s.c_in, threads, zero, gx);
}

/// Weight gradient: `gw[co, ci, k] = Σ_{n, t} g[n, co, t] · x[n, ci, t − k·d]`,
/// computed per sample from the blocked patch (`patch_gemm`) and reduced
/// over the batch through per-group accumulators, in the summation order of
/// the module docs.
///
/// Never masked: the fused masked op needs the gradient of the *dense*
/// product `W ⊙ M`, because the straight-through estimator sends gradient to
/// γ through currently-masked taps too.
pub(crate) fn conv1d_grad_weight(x: &[f32], g: &[f32], s: &ConvShape, gw: &mut [f32]) {
    let rows = live_rows(s.c_in, s, None);
    gw.fill(0.0);
    if rows.is_empty() {
        return;
    }
    let width = rows.len().div_ceil(COLS) * COLS;
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    let (c_in, t, c_out) = (s.c_in, s.t, s.c_out);
    let gwp = pool::map_accumulate(s.n, c_out * width, threads, |samples, acc| {
        let mut patch = vec![0.0f32; width * t];
        for bn in samples {
            pack_patch(&x[bn * c_in * t..(bn + 1) * c_in * t], t, &rows, &mut patch);
            patch_gemm(
                c_out,
                t,
                &g[bn * c_out * t..(bn + 1) * c_out * t],
                &patch,
                acc,
            );
        }
    });
    // Scatter the live columns back to [C_out, C_in, K]; taps whose shift
    // reaches past T stay zero.
    for co in 0..c_out {
        for (j, row) in rows.iter().enumerate() {
            gw[(co * c_in + row.src) * s.k + row.tap] = gwp[co * width + j];
        }
    }
}

// ----------------------------------------------------------------------
// Naive reference kernels (the seed implementation)
// ----------------------------------------------------------------------

/// The seed's nested-loop forward convolution, kept as the correctness oracle
/// for the im2col kernels and as the "before" side of the benchmark suite.
#[cfg(any(test, feature = "reference"))]
pub(crate) fn naive_conv1d_forward(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    s: &ConvShape,
    out: &mut [f32],
) {
    let (n, c_in, t, c_out, k) = (s.n, s.c_in, s.t, s.c_out, s.k);
    for bn in 0..n {
        for co in 0..c_out {
            let out_base = (bn * c_out + co) * t;
            let b = bias.map(|b| b[co]).unwrap_or(0.0);
            for v in &mut out[out_base..out_base + t] {
                *v = b;
            }
            for ci in 0..c_in {
                let x_base = (bn * c_in + ci) * t;
                let w_base = (co * c_in + ci) * k;
                for kk in 0..k {
                    let wv = w[w_base + kk];
                    if wv == 0.0 {
                        continue;
                    }
                    let shift = kk * s.dilation;
                    if shift >= t {
                        continue;
                    }
                    for tt in shift..t {
                        out[out_base + tt] += wv * x[x_base + tt - shift];
                    }
                }
            }
        }
    }
}

/// The seed's nested-loop input gradient (reference oracle).
#[cfg(any(test, feature = "reference"))]
pub(crate) fn naive_conv1d_grad_input(g: &[f32], w: &[f32], s: &ConvShape, gx: &mut [f32]) {
    let (n, c_in, t, c_out, k) = (s.n, s.c_in, s.t, s.c_out, s.k);
    gx.fill(0.0);
    for bn in 0..n {
        for co in 0..c_out {
            let go_base = (bn * c_out + co) * t;
            for ci in 0..c_in {
                let gx_base = (bn * c_in + ci) * t;
                let w_base = (co * c_in + ci) * k;
                for kk in 0..k {
                    let wv = w[w_base + kk];
                    if wv == 0.0 {
                        continue;
                    }
                    let shift = kk * s.dilation;
                    if shift >= t {
                        continue;
                    }
                    for tt in shift..t {
                        gx[gx_base + tt - shift] += wv * g[go_base + tt];
                    }
                }
            }
        }
    }
}

/// The seed's nested-loop weight gradient (reference oracle).
#[cfg(any(test, feature = "reference"))]
pub(crate) fn naive_conv1d_grad_weight(x: &[f32], g: &[f32], s: &ConvShape, gw: &mut [f32]) {
    let (n, c_in, t, c_out, k) = (s.n, s.c_in, s.t, s.c_out, s.k);
    gw.fill(0.0);
    for bn in 0..n {
        for co in 0..c_out {
            let go_base = (bn * c_out + co) * t;
            for ci in 0..c_in {
                let x_base = (bn * c_in + ci) * t;
                let w_base = (co * c_in + ci) * k;
                for kk in 0..k {
                    let shift = kk * s.dilation;
                    if shift >= t {
                        continue;
                    }
                    let mut acc = 0.0f32;
                    for tt in shift..t {
                        acc += g[go_base + tt] * x[x_base + tt - shift];
                    }
                    gw[w_base + kk] += acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shape(
        n: usize,
        c_in: usize,
        t: usize,
        c_out: usize,
        k: usize,
        dilation: usize,
    ) -> ConvShape {
        ConvShape {
            n,
            c_in,
            t,
            c_out,
            k,
            dilation,
        }
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Odd geometries from the satellite checklist: dilation past the
    /// sequence, single-tap kernels, batch of one, channel counts that are
    /// not multiples of the microkernel blocking.
    fn odd_shapes() -> Vec<ConvShape> {
        vec![
            shape(2, 3, 10, 4, 3, 2),
            shape(1, 1, 1, 1, 1, 1),  // everything degenerate
            shape(1, 2, 5, 3, 9, 4),  // (K-1)·d far beyond T: dead taps
            shape(2, 3, 4, 2, 3, 7),  // dilation > T
            shape(3, 5, 17, 7, 4, 2), // channels not a multiple of MR
            shape(1, 4, 16, 4, 1, 3), // K = 1
            shape(4, 1, 33, 6, 5, 1), // T not a multiple of TILE
            shape(2, 6, 16, 3, 2, 8), // shift lands exactly at T boundary
        ]
    }

    #[test]
    fn forward_matches_naive_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for s in odd_shapes() {
            let x = init::uniform(&mut rng, &[s.n, s.c_in, s.t], 1.0);
            let w = init::uniform(&mut rng, &[s.c_out, s.c_in, s.k], 1.0);
            let b = init::uniform(&mut rng, &[s.c_out], 1.0);
            let mut fast = vec![0.0f32; s.n * s.c_out * s.t];
            let mut naive = vec![0.0f32; s.n * s.c_out * s.t];
            conv1d_forward(x.data(), w.data(), Some(b.data()), None, &s, &mut fast);
            naive_conv1d_forward(x.data(), w.data(), Some(b.data()), &s, &mut naive);
            assert!(max_diff(&fast, &naive) < 1e-4, "forward mismatch on {s:?}");
        }
    }

    #[test]
    fn grad_input_matches_naive_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(12);
        for s in odd_shapes() {
            let g = init::uniform(&mut rng, &[s.n, s.c_out, s.t], 1.0);
            let w = init::uniform(&mut rng, &[s.c_out, s.c_in, s.k], 1.0);
            let mut fast = vec![0.0f32; s.n * s.c_in * s.t];
            let mut naive = vec![0.0f32; s.n * s.c_in * s.t];
            conv1d_grad_input(g.data(), w.data(), None, &s, &mut fast);
            naive_conv1d_grad_input(g.data(), w.data(), &s, &mut naive);
            assert!(
                max_diff(&fast, &naive) < 1e-4,
                "grad_input mismatch on {s:?}"
            );
        }
    }

    #[test]
    fn grad_weight_matches_naive_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        for s in odd_shapes() {
            let x = init::uniform(&mut rng, &[s.n, s.c_in, s.t], 1.0);
            let g = init::uniform(&mut rng, &[s.n, s.c_out, s.t], 1.0);
            let mut fast = vec![0.0f32; s.c_out * s.c_in * s.k];
            let mut naive = vec![0.0f32; s.c_out * s.c_in * s.k];
            conv1d_grad_weight(x.data(), g.data(), &s, &mut fast);
            naive_conv1d_grad_weight(x.data(), g.data(), &s, &mut naive);
            assert!(
                max_diff(&fast, &naive) < 1e-3,
                "grad_weight mismatch on {s:?}"
            );
        }
    }

    #[test]
    fn masked_forward_equals_naive_on_premasked_weights() {
        // Fusing the mask into the pack must equal masking the weights first
        // and running the dense kernel.
        let mut rng = StdRng::seed_from_u64(14);
        for s in odd_shapes() {
            let x = init::uniform(&mut rng, &[s.n, s.c_in, s.t], 1.0);
            let w = init::uniform(&mut rng, &[s.c_out, s.c_in, s.k], 1.0);
            let mask: Vec<f32> = (0..s.k)
                .map(|kk| if kk % 2 == 0 { 1.0 } else { 0.0 })
                .collect();
            let wm: Vec<f32> = w
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| v * mask[i % s.k])
                .collect();
            let mut fused = vec![0.0f32; s.n * s.c_out * s.t];
            let mut premasked = vec![0.0f32; s.n * s.c_out * s.t];
            conv1d_forward(x.data(), w.data(), None, Some(&mask), &s, &mut fused);
            naive_conv1d_forward(x.data(), &wm, None, &s, &mut premasked);
            assert!(
                max_diff(&fused, &premasked) < 1e-4,
                "masked forward mismatch on {s:?}"
            );

            let mut gi_fused = vec![0.0f32; s.n * s.c_in * s.t];
            let mut gi_premasked = vec![0.0f32; s.n * s.c_in * s.t];
            let g = init::uniform(&mut rng, &[s.n, s.c_out, s.t], 1.0);
            conv1d_grad_input(g.data(), w.data(), Some(&mask), &s, &mut gi_fused);
            naive_conv1d_grad_input(g.data(), &wm, &s, &mut gi_premasked);
            assert!(
                max_diff(&gi_fused, &gi_premasked) < 1e-4,
                "masked grad_input mismatch on {s:?}"
            );
        }
    }

    /// Geometries for the reduction-order tests, each with the case it covers,
    /// and small enough (`n·c_out·c_in·k·t < 2^19`) that `pool::plan_threads`
    /// keeps the weight-gradient batch reduction on one thread.
    fn order_shapes() -> Vec<ConvShape> {
        vec![
            shape(2, 3, 10, 4, 3, 2),   // T mod 8 ≠ 0, dilation > 1
            shape(2, 2, 5, 3, 9, 4),    // T below the largest shift
            shape(3, 5, 37, 7, 17, 1),  // T mod 16 ≠ 0, C_out mod 4 ≠ 0
            shape(2, 3, 24, 6, 5, 3),   // T mod 16 ≠ 0, T mod 8 = 0
            shape(2, 4, 64, 5, 5, 2),   // whole slabs, C_in·K mod 8 ≠ 0
            shape(1, 7, 3, 2, 2, 1),    // T shorter than a lane class
            shape(2, 2, 128, 9, 17, 8), // TEMPONet's longest window
            shape(1, 1, 1, 1, 1, 1),    // everything degenerate
        ]
    }

    /// The masks of the reduction-order tests: none, all taps live, and one
    /// with zero taps.
    fn order_masks(k: usize) -> [Option<Vec<f32>>; 3] {
        [
            None,
            Some(vec![1.0; k]),
            Some(
                (0..k)
                    .map(|kk| if kk % 3 == 1 { 0.0 } else { 1.0 })
                    .collect(),
            ),
        ]
    }

    /// Inputs with exact zeros in them, as after a ReLU, so products of ±0
    /// take part in the sums.
    fn relu_uniform(rng: &mut StdRng, dims: &[usize]) -> Vec<f32> {
        let v = init::uniform(rng, dims, 1.0);
        v.data()
            .iter()
            .enumerate()
            .map(|(i, &u)| if i % 2 == 0 { u.max(0.0) } else { u })
            .collect()
    }

    fn assert_same_bits(fast: &[f32], order: &[f32], what: &str) {
        assert_eq!(fast.len(), order.len());
        for (i, (f, o)) in fast.iter().zip(order).enumerate() {
            assert_eq!(f.to_bits(), o.to_bits(), "{what}: element {i}: {f} vs {o}");
        }
    }

    /// The live `(channel, tap)` reduction rows of the forward (channel =
    /// `c_in`) or the input gradient (channel = `c_out`): shift below `T`,
    /// mask non-zero, stably sorted by shift.
    fn order_rows(channels: usize, s: &ConvShape, mask: Option<&[f32]>) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> = (0..channels)
            .flat_map(|c| (0..s.k).map(move |kk| (c, kk)))
            .filter(|&(_, kk)| kk * s.dilation < s.t && mask.is_none_or(|m| m[kk] != 0.0))
            .collect();
        rows.sort_by_key(|&(_, kk)| kk * s.dilation);
        rows
    }

    /// Forward order: each output sums the live rows in shift order from
    /// 0.0, skipping lanes before the sequence start, then adds the sum to
    /// the bias (or to zero).
    fn order_forward(
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        mask: Option<&[f32]>,
        s: &ConvShape,
    ) -> Vec<f32> {
        let rows = order_rows(s.c_in, s, mask);
        let mut out = vec![0.0f32; s.n * s.c_out * s.t];
        for bn in 0..s.n {
            for co in 0..s.c_out {
                for tt in 0..s.t {
                    let mut acc = 0.0f32;
                    for &(ci, kk) in &rows {
                        let shift = kk * s.dilation;
                        if shift > tt {
                            continue;
                        }
                        let wv = w[(co * s.c_in + ci) * s.k + kk] * mask.map_or(1.0, |m| m[kk]);
                        acc += wv * x[(bn * s.c_in + ci) * s.t + tt - shift];
                    }
                    out[(bn * s.c_out + co) * s.t + tt] = bias.map_or(0.0, |b| b[co]) + acc;
                }
            }
        }
        out
    }

    /// Input-gradient order: each output sums the live `(c_out, tap)` rows
    /// in shift order from 0.0, skipping lanes past the sequence end, then
    /// adds the sum to zero.
    fn order_grad_input(g: &[f32], w: &[f32], mask: Option<&[f32]>, s: &ConvShape) -> Vec<f32> {
        let rows = order_rows(s.c_out, s, mask);
        let mut gx = vec![0.0f32; s.n * s.c_in * s.t];
        for bn in 0..s.n {
            for ci in 0..s.c_in {
                for tau in 0..s.t {
                    let mut acc = 0.0f32;
                    for &(co, kk) in &rows {
                        let shift = kk * s.dilation;
                        if tau + shift >= s.t {
                            continue;
                        }
                        let wv = w[(co * s.c_in + ci) * s.k + kk] * mask.map_or(1.0, |m| m[kk]);
                        acc += wv * g[(bn * s.c_out + co) * s.t + tau + shift];
                    }
                    gx[(bn * s.c_in + ci) * s.t + tau] = 0.0 + acc;
                }
            }
        }
        gx
    }

    /// Weight-gradient order: per sample, 8 lane classes sum `g · x` over
    /// `t mod 8` (the tail past the last whole group of 8 in class 0, zero
    /// input before the shift), the classes are added in order, and that is
    /// added to the batch sum. Taps whose shift reaches past `T` stay zero.
    fn order_grad_weight(x: &[f32], g: &[f32], s: &ConvShape) -> Vec<f32> {
        let mut gw = vec![0.0f32; s.c_out * s.c_in * s.k];
        let t8 = s.t / 8 * 8;
        for co in 0..s.c_out {
            for ci in 0..s.c_in {
                for kk in 0..s.k {
                    let shift = kk * s.dilation;
                    if shift >= s.t {
                        continue;
                    }
                    let mut batch = 0.0f32;
                    for bn in 0..s.n {
                        let xv = |tt: usize| {
                            if tt >= shift {
                                x[(bn * s.c_in + ci) * s.t + tt - shift]
                            } else {
                                0.0
                            }
                        };
                        let gv = |tt: usize| g[(bn * s.c_out + co) * s.t + tt];
                        let mut classes = [0.0f32; 8];
                        for tt in 0..t8 {
                            classes[tt % 8] += gv(tt) * xv(tt);
                        }
                        for tt in t8..s.t {
                            classes[0] += gv(tt) * xv(tt);
                        }
                        let mut sample = classes[0];
                        for &c in &classes[1..] {
                            sample += c;
                        }
                        batch += sample;
                    }
                    gw[(co * s.c_in + ci) * s.k + kk] = batch;
                }
            }
        }
        gw
    }

    #[test]
    fn forward_keeps_the_reduction_order() {
        let mut rng = StdRng::seed_from_u64(21);
        for s in order_shapes() {
            let x = relu_uniform(&mut rng, &[s.n, s.c_in, s.t]);
            let w = init::uniform(&mut rng, &[s.c_out, s.c_in, s.k], 1.0);
            let b = init::uniform(&mut rng, &[s.c_out], 1.0);
            for mask in order_masks(s.k) {
                for bias in [None, Some(b.data())] {
                    let mut fast = vec![f32::NAN; s.n * s.c_out * s.t];
                    conv1d_forward(&x, w.data(), bias, mask.as_deref(), &s, &mut fast);
                    let order = order_forward(&x, w.data(), bias, mask.as_deref(), &s);
                    let what = format!("forward {s:?} mask {mask:?} bias {}", bias.is_some());
                    assert_same_bits(&fast, &order, &what);
                }
            }
        }
    }

    #[test]
    fn grad_input_keeps_the_reduction_order() {
        let mut rng = StdRng::seed_from_u64(22);
        for s in order_shapes() {
            let g = relu_uniform(&mut rng, &[s.n, s.c_out, s.t]);
            let w = init::uniform(&mut rng, &[s.c_out, s.c_in, s.k], 1.0);
            for mask in order_masks(s.k) {
                let mut fast = vec![f32::NAN; s.n * s.c_in * s.t];
                conv1d_grad_input(&g, w.data(), mask.as_deref(), &s, &mut fast);
                let order = order_grad_input(&g, w.data(), mask.as_deref(), &s);
                assert_same_bits(&fast, &order, &format!("grad_input {s:?} mask {mask:?}"));
            }
        }
    }

    #[test]
    fn grad_weight_keeps_the_reduction_order() {
        let mut rng = StdRng::seed_from_u64(23);
        for s in order_shapes() {
            assert!(
                s.n * s.work_per_batch() < 1 << 19,
                "{s:?} could go parallel"
            );
            let x = relu_uniform(&mut rng, &[s.n, s.c_in, s.t]);
            let g = relu_uniform(&mut rng, &[s.n, s.c_out, s.t]);
            let mut fast = vec![f32::NAN; s.c_out * s.c_in * s.k];
            conv1d_grad_weight(&x, &g, &s, &mut fast);
            let order = order_grad_weight(&x, &g, &s);
            assert_same_bits(&fast, &order, &format!("grad_weight {s:?}"));
        }
    }

    #[test]
    fn gemm_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(15);
        for (m, kd, n) in [(1, 1, 1), (4, 3, 16), (5, 7, 33), (9, 2, 8), (3, 8, 50)] {
            let a = init::uniform(&mut rng, &[m, kd], 1.0);
            let b = init::uniform(&mut rng, &[kd, n], 1.0);
            let mut fast = vec![0.0f32; m * n];
            gemm(m, kd, n, a.data(), b.data(), &mut fast);
            let mut school = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..kd {
                    for j in 0..n {
                        school[i * n + j] += a.data()[i * kd + p] * b.data()[p * n + j];
                    }
                }
            }
            assert!(max_diff(&fast, &school) < 1e-4, "gemm {m}x{kd}x{n}");
        }
    }
}
