//! Flattened im2col/GEMM kernels behind the causal-convolution tensor ops.
//!
//! The original seed kernels walked `(batch, c_out, c_in, tap)` nests with a
//! scalar AXPY over time per tap — one fused multiply-add per load *and* store
//! of the output row. These kernels restructure the work the way a BLAS GEMM
//! does:
//!
//! 1. **im2col pack** (`pack_im2col`): each alive `(c_in, tap)` pair becomes
//!    one contiguous, pre-shifted row of a patch matrix, so the causal left
//!    padding is paid once per row as a `fill`/`copy_from_slice` instead of a
//!    per-element bounds decision in the hot loop;
//! 2. **register-tiled GEMM** ([`gemm`], [`gemm_nt`]): `MR` output rows are
//!    produced together over a `TILE`-wide time slab held in accumulator
//!    registers, so every packed input value is reused `MR` times and the
//!    output is touched once per slab instead of once per tap;
//! 3. **mask fusion**: the PIT time mask `M` is folded into the weight pack
//!    (`pack_weights`) and fully masked taps are dropped from the im2col
//!    plan (`plan_rows`), so masked training does one pass over the data and
//!    skips the work a dilated deployment convolution would skip — without
//!    ever materialising `W ⊙ M`;
//! 4. **batch parallelism**: every kernel fans the batch axis out through
//!    [`crate::pool`] when the tensor is large enough to amortise threads.
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

/// Number of output rows each GEMM microkernel iteration produces.
const MR: usize = 4;
/// Width (in `f32` lanes) of the time slab held in accumulators.
const TILE: usize = 16;

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

/// One row of the im2col patch matrix: which flat weight column feeds it and
/// how far along time its input channel is delayed.
#[derive(Debug, Clone, Copy)]
struct TapRow {
    /// Flat column into the `[C_out, C_in·K]` weight matrix (`ci * K + kk`).
    col: usize,
    /// Source channel `ci`.
    src: usize,
    /// Causal delay `kk * dilation`.
    shift: usize,
}

/// Builds the im2col plan: one row per `(c_in, tap)` pair whose tap is alive.
///
/// Taps whose shift falls outside the sequence (`kk·d >= T`) contribute
/// nothing and are dropped; when a mask is given, taps it zeroes are dropped
/// too — this is where masked training recovers the sparsity of the dilated
/// network it will deploy as.
fn plan_rows(s: &ConvShape, mask: Option<&[f32]>) -> Vec<TapRow> {
    let mut rows = Vec::with_capacity(s.c_in * s.k);
    for ci in 0..s.c_in {
        for kk in 0..s.k {
            let shift = kk * s.dilation;
            if shift >= s.t {
                continue;
            }
            if let Some(m) = mask {
                if m[kk] == 0.0 {
                    continue;
                }
            }
            rows.push(TapRow {
                col: ci * s.k + kk,
                src: ci,
                shift,
            });
        }
    }
    rows
}

/// Gathers the alive columns of the `[C_out, C_in·K]` weight matrix into a
/// dense `[C_out, rows.len()]` matrix, folding the time mask in as it goes.
fn pack_weights(w: &[f32], s: &ConvShape, rows: &[TapRow], mask: Option<&[f32]>) -> Vec<f32> {
    let ck = s.c_in * s.k;
    let nr = rows.len();
    let mut wp = vec![0.0f32; s.c_out * nr];
    for co in 0..s.c_out {
        let src = &w[co * ck..(co + 1) * ck];
        let dst = &mut wp[co * nr..(co + 1) * nr];
        for (j, row) in rows.iter().enumerate() {
            let mv = mask.map(|m| m[row.col % s.k]).unwrap_or(1.0);
            dst[j] = src[row.col] * mv;
        }
    }
    wp
}

/// Packs one batch sample `[C_in, T]` into the `[rows.len(), T]` patch
/// matrix: row `j` is its source channel delayed by `shift` with zero fill.
fn pack_im2col(xb: &[f32], s: &ConvShape, rows: &[TapRow], xcol: &mut [f32]) {
    let t = s.t;
    for (j, row) in rows.iter().enumerate() {
        let src = &xb[row.src * t..(row.src + 1) * t];
        let dst = &mut xcol[j * t..(j + 1) * t];
        dst[..row.shift].fill(0.0);
        dst[row.shift..].copy_from_slice(&src[..t - row.shift]);
    }
}

/// One reduction row of the virtual-slab convolution microkernel: a source
/// channel read through a time shift, without materialising the shifted copy.
#[derive(Debug, Clone, Copy)]
struct MacRow {
    /// Row of the `[C_src, T]` source buffer this reduction reads.
    src: usize,
    /// Time shift of the read.
    shift: usize,
}

/// Multiply-accumulate driver over virtual shifted rows:
/// dispatches `mac_rows` in blocks of `MR` output rows.
///
/// * `LEFT = false` (forward): `out[i, tt] += wp[i, j] · src[row_j, tt − shift_j]`
///   (reads before the start of the row contribute zero — the causal pad);
/// * `LEFT = true` (input gradient): `out[i, τ] += wp[i, j] · src[row_j, τ + shift_j]`
///   (reads past the end contribute zero).
///
/// `out` must be pre-initialised (zeros or bias); values are accumulated.
fn conv_mac<const LEFT: bool>(
    rows_out: usize,
    t: usize,
    wp: &[f32],
    src: &[f32],
    rows: &[MacRow],
    out: &mut [f32],
) {
    let mut i = 0;
    while i + MR <= rows_out {
        mac_rows::<MR, LEFT>(i, t, wp, src, rows, out);
        i += MR;
    }
    match rows_out - i {
        0 => {}
        1 => mac_rows::<1, LEFT>(i, t, wp, src, rows, out),
        2 => mac_rows::<2, LEFT>(i, t, wp, src, rows, out),
        3 => mac_rows::<3, LEFT>(i, t, wp, src, rows, out),
        // A silent fall-through here would drop output rows; keep this
        // exhaustive relative to MR so raising MR cannot corrupt results.
        rem => unreachable!("conv_mac remainder {rem} not covered (MR = {MR})"),
    }
}

/// Produces output rows `i0..i0 + R` of `conv_mac`, register-tiling
/// `TILE`-wide time slabs.
///
/// `rows` must be sorted by `shift`: for any slab the rows then split into a
/// *full* prefix (whole slab valid — the hot, branch-free loop), a *partial*
/// middle (slab straddles the causal pad / sequence end) and a dead suffix,
/// found by two `partition_point` probes per slab instead of a branch per
/// row. Interior slabs are contiguous loads of the unpacked source row, so
/// the input never needs an im2col copy.
fn mac_rows<const R: usize, const LEFT: bool>(
    i0: usize,
    t: usize,
    wp: &[f32],
    src: &[f32],
    rows: &[MacRow],
    out: &mut [f32],
) {
    debug_assert!(rows.windows(2).all(|w| w[0].shift <= w[1].shift));
    let nr = rows.len();
    let mut tb = 0;
    while tb + TILE <= t {
        // Forward reads srow[tb + l − s] (valid once s <= tb); the input
        // gradient reads srow[tb + l + s] (valid while tb + s + TILE <= t).
        let (full_end, live_end) = if !LEFT {
            (
                rows.partition_point(|r| r.shift <= tb),
                rows.partition_point(|r| r.shift < tb + TILE),
            )
        } else {
            (
                rows.partition_point(|r| r.shift + tb + TILE <= t),
                rows.partition_point(|r| r.shift + tb < t),
            )
        };
        let mut acc = [[0.0f32; TILE]; R];
        for (j, row) in rows[..full_end].iter().enumerate() {
            let off = if !LEFT {
                row.src * t + tb - row.shift
            } else {
                row.src * t + tb + row.shift
            };
            let xs: &[f32; TILE] = src[off..off + TILE].try_into().expect("slab");
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = wp[(i0 + r) * nr + j];
                for l in 0..TILE {
                    accr[l] += av * xs[l];
                }
            }
        }
        for (j, row) in rows[full_end..live_end].iter().enumerate() {
            let j = j + full_end;
            let s = row.shift;
            let srow = &src[row.src * t..(row.src + 1) * t];
            if !LEFT {
                let start = s - tb;
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = wp[(i0 + r) * nr + j];
                    for l in start..TILE {
                        accr[l] += av * srow[tb + l - s];
                    }
                }
            } else {
                let end = t - s - tb;
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = wp[(i0 + r) * nr + j];
                    for l in 0..end {
                        accr[l] += av * srow[tb + l + s];
                    }
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let orow = &mut out[(i0 + r) * t + tb..(i0 + r) * t + tb + TILE];
            for l in 0..TILE {
                orow[l] += accr[l];
            }
        }
        tb += TILE;
    }
    // Ragged tail shorter than a slab: scalar lanes with explicit bounds.
    if tb < t {
        let rem = t - tb;
        let mut acc = [[0.0f32; TILE]; R];
        for (j, row) in rows.iter().enumerate() {
            let s = row.shift;
            let srow = &src[row.src * t..(row.src + 1) * t];
            let (start, end) = if !LEFT {
                (s.saturating_sub(tb).min(rem), rem)
            } else {
                (0, t.saturating_sub(s).saturating_sub(tb).min(rem))
            };
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = wp[(i0 + r) * nr + j];
                if !LEFT {
                    for l in start..end {
                        accr[l] += av * srow[tb + l - s];
                    }
                } else {
                    for l in start..end {
                        accr[l] += av * srow[tb + l + s];
                    }
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (l, &av) in accr.iter().enumerate().take(rem) {
                out[(i0 + r) * t + tb + l] += av;
            }
        }
    }
}

// ----------------------------------------------------------------------
// GEMM microkernels
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

/// `out[m, n] += a[m, kd] · bt[n, kd]ᵀ` — inner-product form, for gradients
/// where both operands are stored row-major along the shared `kd` axis.
///
/// Each `a` row slab is loaded once per `MR` `bt` rows.
///
/// # Panics
///
/// Panics (by slice indexing) if `a`, `bt` or `out` are shorter than
/// `m·kd`, `n·kd` and `m·n` respectively.
pub fn gemm_nt(m: usize, n: usize, kd: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * kd..(i + 1) * kd];
        let mut j = 0;
        while j + MR <= n {
            let d = dot_rows::<MR>(arow, bt, j, kd);
            for (r, dv) in d.iter().enumerate() {
                out[i * n + j + r] += dv;
            }
            j += MR;
        }
        while j < n {
            let d = dot_rows::<1>(arow, bt, j, kd);
            out[i * n + j] += d[0];
            j += 1;
        }
    }
}

/// Dot products of `a` with `R` consecutive rows of `bt`, vectorised over
/// 8-lane slabs.
fn dot_rows<const R: usize>(a: &[f32], bt: &[f32], j0: usize, kd: usize) -> [f32; R] {
    const LANES: usize = 8;
    let mut acc = [[0.0f32; LANES]; R];
    let slabs = kd / LANES;
    for c in 0..slabs {
        let av: &[f32; LANES] = a[c * LANES..(c + 1) * LANES].try_into().expect("a slab");
        for (r, accr) in acc.iter_mut().enumerate() {
            let brow: &[f32; LANES] = bt
                [(j0 + r) * kd + c * LANES..(j0 + r) * kd + (c + 1) * LANES]
                .try_into()
                .expect("b slab");
            for l in 0..LANES {
                accr[l] += av[l] * brow[l];
            }
        }
    }
    let tail = slabs * LANES;
    for (r, accr) in acc.iter_mut().enumerate() {
        for p in tail..kd {
            accr[0] += a[p] * bt[(j0 + r) * kd + p];
        }
    }
    let mut out = [0.0f32; R];
    for (r, accr) in acc.iter().enumerate() {
        out[r] = accr.iter().sum();
    }
    out
}

// ----------------------------------------------------------------------
// Convolution drivers
// ----------------------------------------------------------------------

/// Forward causal convolution: `out[n, co, t] = Σ (w ⊙ m)[co, ci, k] · x[n, ci, t − k·d]`
/// plus bias, batch-parallel over `n`.
///
/// Tape-free, allocation-free into `out` apart from the internal weight pack;
/// this is the kernel both [`crate::Tensor::conv1d_causal`] and the compiled
/// inference plans execute through.
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
    let mut rows = plan_rows(s, mask);
    // Sorted by shift so the microkernel's full/partial/dead split is a
    // prefix partition per slab.
    rows.sort_by_key(|r| r.shift);
    let wp = pack_weights(w, s, &rows, mask);
    let mac: Vec<MacRow> = rows
        .iter()
        .map(|r| MacRow {
            src: r.src,
            shift: r.shift,
        })
        .collect();
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    let (c_in, t, c_out) = (s.c_in, s.t, s.c_out);
    pool::for_each_chunk(out, c_out * t, threads, |bn, out_b| {
        match bias {
            Some(bv) => {
                for (co, orow) in out_b.chunks_mut(t).enumerate() {
                    orow.fill(bv[co]);
                }
            }
            None => out_b.fill(0.0),
        }
        if mac.is_empty() {
            return;
        }
        let xb = &x[bn * c_in * t..(bn + 1) * c_in * t];
        conv_mac::<false>(c_out, t, &wp, xb, &mac, out_b);
    });
}

/// Input gradient: `gx[n, ci, τ] += Σ (w ⊙ m)[co, ci, k] · g[n, co, τ + k·d]`,
/// computed as `Wᵀ · dY` into patch rows followed by a shifted col2im
/// scatter-add. Batch-parallel over `n`.
pub(crate) fn conv1d_grad_input(
    g: &[f32],
    w: &[f32],
    mask: Option<&[f32]>,
    s: &ConvShape,
    gx: &mut [f32],
) {
    // Reduction rows seen from an input channel: every alive `(c_out, tap)`
    // pair, reading dY through a forward (left) shift. The weight giving
    // output row `ci` its coefficient for reduction row `(co, kk)` is
    // `w[co, ci, kk]`, gathered into `wt[ci, j]` with the mask folded in.
    let mut mac = Vec::with_capacity(s.c_out * s.k);
    let mut taps = Vec::with_capacity(s.c_out * s.k);
    for co in 0..s.c_out {
        for kk in 0..s.k {
            let shift = kk * s.dilation;
            if shift >= s.t {
                continue;
            }
            if let Some(m) = mask {
                if m[kk] == 0.0 {
                    continue;
                }
            }
            mac.push(MacRow { src: co, shift });
            taps.push((co, kk));
        }
    }
    // Shift-sorted for the microkernel's prefix partition (see `mac_rows`).
    let mut order: Vec<usize> = (0..mac.len()).collect();
    order.sort_by_key(|&j| mac[j].shift);
    let mac: Vec<MacRow> = order.iter().map(|&j| mac[j]).collect();
    let taps: Vec<(usize, usize)> = order.iter().map(|&j| taps[j]).collect();
    let nr = mac.len();
    let ck = s.c_in * s.k;
    let mut wt = vec![0.0f32; s.c_in * nr];
    for ci in 0..s.c_in {
        for (j, &(co, kk)) in taps.iter().enumerate() {
            let mv = mask.map(|m| m[kk]).unwrap_or(1.0);
            wt[ci * nr + j] = w[co * ck + ci * s.k + kk] * mv;
        }
    }
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    let (c_in, t, c_out) = (s.c_in, s.t, s.c_out);
    pool::for_each_chunk(gx, c_in * t, threads, |bn, gx_b| {
        gx_b.fill(0.0);
        if nr == 0 {
            return;
        }
        let gb = &g[bn * c_out * t..(bn + 1) * c_out * t];
        conv_mac::<true>(c_in, t, &wt, gb, &mac, gx_b);
    });
}

/// Weight gradient: `gw[co, ci, k] = Σ_{n, t} g[n, co, t] · x[n, ci, t − k·d]`,
/// computed per batch as `dY · X_colᵀ` and reduced over the batch through
/// per-worker accumulators.
///
/// Never masked: the fused masked op needs the gradient of the *dense*
/// product `W ⊙ M`, because the straight-through estimator sends gradient to
/// γ through currently-masked taps too.
pub(crate) fn conv1d_grad_weight(x: &[f32], g: &[f32], s: &ConvShape, gw: &mut [f32]) {
    let rows = plan_rows(s, None);
    let nr = rows.len();
    gw.fill(0.0);
    if nr == 0 {
        return;
    }
    let threads = pool::plan_threads(s.n, s.work_per_batch());
    let (c_in, t, c_out) = (s.c_in, s.t, s.c_out);
    let gwp = pool::map_accumulate(s.n, c_out * nr, threads, |bn, acc| {
        let mut xcol = vec![0.0f32; nr * t];
        pack_im2col(&x[bn * c_in * t..(bn + 1) * c_in * t], s, &rows, &mut xcol);
        gemm_nt(
            c_out,
            nr,
            t,
            &g[bn * c_out * t..(bn + 1) * c_out * t],
            &xcol,
            acc,
        );
    });
    // Scatter the packed columns back to [C_out, C_in, K]; taps dropped from
    // the plan (shift >= T) correctly stay zero.
    let ck = c_in * s.k;
    for co in 0..c_out {
        for (j, row) in rows.iter().enumerate() {
            gw[co * ck + row.col] = gwp[co * nr + j];
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

    #[test]
    fn gemm_nt_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(16);
        for (m, n, kd) in [(1, 1, 1), (4, 5, 16), (3, 9, 23), (7, 2, 64)] {
            let a = init::uniform(&mut rng, &[m, kd], 1.0);
            let bt = init::uniform(&mut rng, &[n, kd], 1.0);
            let mut fast = vec![0.0f32; m * n];
            gemm_nt(m, n, kd, a.data(), bt.data(), &mut fast);
            let mut school = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..kd {
                        school[i * n + j] += a.data()[i * kd + p] * bt.data()[j * kd + p];
                    }
                }
            }
            assert!(max_diff(&fast, &school) < 1e-4, "gemm_nt {m}x{n}x{kd}");
        }
    }
}
