//! Weight-bearing model artifacts: the `pit-arch/2` format.
//!
//! The `pit-arch/1` descriptor JSON persists a searched architecture's
//! *geometry* only — enough to re-derive shapes and deployment costs, but a
//! server booting from it would serve zeros. A `pit-arch/2` artifact is a
//! strict superset: the same `name`/`layers` geometry (so every `pit-arch/1`
//! consumer, e.g. [`NetworkDescriptor::from_json_str`] and the `pit-hw`
//! deployment model, reads it unchanged) plus the compiled plan itself —
//! block structure, f32 weights for an [`InferencePlan`] or int8 codes,
//! per-channel scales and calibration ranges for a [`QuantizedPlan`] —
//! with tensor payloads as base64 little-endian bytes
//! ([`pit_tensor::json::encode_f32s`] / [`pit_tensor::json::encode_i8s`];
//! the vendored serde stub cannot serialise, so the writer and parser are
//! hand-rolled over [`pit_tensor::json::Json`]).
//!
//! This is the boot path of the `pit-serve` daemon: compile (and optionally
//! calibrate + quantize) once, write the artifact with
//! [`InferencePlan::to_artifact_string`] /
//! [`QuantizedPlan::to_artifact_string`], and any later process rebuilds the
//! exact serving plan from the file with [`PlanArtifact::load`] — no model
//! code, searched network or calibration data needed.
//!
//! Round trips are *bit-stable*: parse → render reproduces the committed
//! golden fixtures byte for byte (see `crates/infer/tests/golden_artifact.rs`),
//! and a deserialized [`QuantizedPlan`] streams bit-identically to the plan
//! it was written from (the execution packs and dequantization factors are
//! rebuilt from verbatim-stored scales, not re-derived through lossy float
//! division).
//!
//! Every parse error is a `Result` — corrupt payloads (bad base64, wrong
//! tensor lengths, broken channel chaining, non-finite values) must never
//! panic the process that loads them, because that process is a long-running
//! daemon.

use crate::plan::{Block, CompiledConv, Dense, Head, InferencePlan, PoolSpec};
use crate::precision::{ConvOp, LinearOp, Precision};
use crate::quant::{QuantPool, QuantizedConv, QuantizedDense, QuantizedPlan};
use pit_models::{NetworkDescriptor, DESCRIPTOR_SCHEMA, DESCRIPTOR_SCHEMA_V2};
use pit_tensor::json::{decode_f32s, decode_i8s, encode_f32s, encode_i8s, Json};
use pit_tensor::Tensor;

/// Schema tag of weight-bearing artifacts (alias of
/// [`pit_models::DESCRIPTOR_SCHEMA_V2`]).
pub const ARTIFACT_SCHEMA: &str = DESCRIPTOR_SCHEMA_V2;

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn get_usize(node: &Json, name: &str) -> Result<usize, String> {
    let v = node
        .get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{name}'"))?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > (1u64 << 32) as f64 {
        return Err(format!("field '{name}': {v} is not a valid size"));
    }
    Ok(v as usize)
}

fn get_dim(node: &Json, name: &str) -> Result<usize, String> {
    let v = get_usize(node, name)?;
    if v == 0 {
        return Err(format!("field '{name}' must be at least 1"));
    }
    Ok(v)
}

fn get_f32(node: &Json, name: &str) -> Result<f32, String> {
    let v = node
        .get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field '{name}'"))?;
    // Check finiteness *after* the narrowing cast: an f64 like 1e39 is
    // finite but overflows to f32 infinity, which would silently poison
    // every derived scale instead of failing the load.
    let narrowed = v as f32;
    if !narrowed.is_finite() {
        return Err(format!("field '{name}': {v} is not a finite f32"));
    }
    Ok(narrowed)
}

fn get_str<'a>(node: &'a Json, name: &str) -> Result<&'a str, String> {
    node.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{name}'"))
}

fn get_obj<'a>(node: &'a Json, name: &str) -> Result<&'a Json, String> {
    match node.get(name) {
        Some(obj @ Json::Obj(_)) => Ok(obj),
        Some(_) => Err(format!("field '{name}' must be an object")),
        None => Err(format!("missing object field '{name}'")),
    }
}

/// `node.get(name)` treating an absent key and JSON `null` the same.
fn get_opt<'a>(node: &'a Json, name: &str) -> Option<&'a Json> {
    match node.get(name) {
        None | Some(Json::Null) => None,
        Some(v) => Some(v),
    }
}

/// Product of tensor dimensions with overflow protection (geometry fields
/// are attacker-controlled in a serving daemon).
fn dims_product(parts: &[usize]) -> Result<usize, String> {
    parts
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| "tensor dimensions overflow".to_string())
}

/// Decodes a base64 f32 payload, checking length and finiteness — arbitrary
/// bytes decode to *some* f32s, including NaN/Inf, which would silently
/// poison every downstream output instead of failing the load.
fn get_f32_payload(node: &Json, name: &str, expect: usize) -> Result<Vec<f32>, String> {
    let values = decode_f32s(get_str(node, name)?).map_err(|e| format!("field '{name}': {e}"))?;
    if values.len() != expect {
        return Err(format!(
            "field '{name}' holds {} values, geometry needs {expect}",
            values.len()
        ));
    }
    if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!("field '{name}' contains non-finite value {bad}"));
    }
    Ok(values)
}

fn get_i8_payload(node: &Json, name: &str, expect: usize) -> Result<Vec<i8>, String> {
    let values = decode_i8s(get_str(node, name)?).map_err(|e| format!("field '{name}': {e}"))?;
    if values.len() != expect {
        return Err(format!(
            "field '{name}' holds {} values, geometry needs {expect}",
            values.len()
        ));
    }
    Ok(values)
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

fn check_schema_and_kind(doc: &Json, want_kind: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(ARTIFACT_SCHEMA) => {}
        Some(DESCRIPTOR_SCHEMA) => {
            return Err(format!(
                "'{DESCRIPTOR_SCHEMA}' documents carry geometry only (no weights); \
                 load them with NetworkDescriptor::from_json_str + \
                 InferencePlan::from_descriptor, or re-export the plan as \
                 '{ARTIFACT_SCHEMA}'"
            ))
        }
        Some(other) => return Err(format!("unsupported artifact schema '{other}'")),
        None => return Err("missing 'schema' field".into()),
    }
    let kind = get_str(doc, "kind")?;
    if kind != want_kind {
        return Err(format!("artifact kind is '{kind}', expected '{want_kind}'"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Layer payloads
// ---------------------------------------------------------------------------

/// How the layers of one precision serialize: f32 weights, or int8 codes
/// with their scales, calibration ranges and rounding masses. The block and
/// head walkers below are written once over it.
trait Payload: Precision {
    fn conv_to_json(conv: &Self::Conv) -> Json;
    fn conv_from_json(node: &Json) -> Result<Self::Conv, String>;
    fn dense_to_json(dense: &Self::Dense) -> Json;
    fn dense_from_json(node: &Json) -> Result<Self::Dense, String>;
    fn pool_to_json(pool: &Self::Pool) -> Json;
    fn pool_from_json(node: &Json) -> Result<Self::Pool, String>;
}

impl Payload for f32 {
    fn conv_to_json(conv: &CompiledConv) -> Json {
        Json::Obj(vec![
            ("c_in".into(), num(conv.in_channels())),
            ("c_out".into(), num(conv.out_channels())),
            ("kernel".into(), num(conv.kernel())),
            ("dilation".into(), num(conv.dilation())),
            ("weight".into(), Json::Str(encode_f32s(conv.weight.data()))),
            ("bias".into(), Json::Str(encode_f32s(conv.bias.data()))),
        ])
    }

    fn conv_from_json(node: &Json) -> Result<CompiledConv, String> {
        let c_in = get_dim(node, "c_in")?;
        let c_out = get_dim(node, "c_out")?;
        let kernel = get_dim(node, "kernel")?;
        let dilation = get_dim(node, "dilation")?;
        let weight = get_f32_payload(node, "weight", dims_product(&[c_out, c_in, kernel])?)?;
        let bias = get_f32_payload(node, "bias", c_out)?;
        let weight = Tensor::from_vec(weight, &[c_out, c_in, kernel]).map_err(|e| e.to_string())?;
        let bias = Tensor::from_vec(bias, &[c_out]).map_err(|e| e.to_string())?;
        Ok(CompiledConv::new(weight, bias, dilation))
    }

    fn dense_to_json(dense: &Dense) -> Json {
        Json::Obj(vec![
            ("in_features".into(), num(dense.in_features())),
            ("out_features".into(), num(dense.out_features())),
            ("weight".into(), Json::Str(encode_f32s(dense.weight.data()))),
            ("bias".into(), Json::Str(encode_f32s(dense.bias.data()))),
        ])
    }

    fn dense_from_json(node: &Json) -> Result<Dense, String> {
        let in_f = get_dim(node, "in_features")?;
        let out_f = get_dim(node, "out_features")?;
        let weight = get_f32_payload(node, "weight", dims_product(&[in_f, out_f])?)?;
        let bias = get_f32_payload(node, "bias", out_f)?;
        let weight = Tensor::from_vec(weight, &[in_f, out_f]).map_err(|e| e.to_string())?;
        let bias = Tensor::from_vec(bias, &[out_f]).map_err(|e| e.to_string())?;
        Ok(Dense::new(weight, bias))
    }

    fn pool_to_json(spec: &PoolSpec) -> Json {
        Json::Obj(vec![
            ("kernel".into(), num(spec.kernel)),
            ("stride".into(), num(spec.stride)),
        ])
    }

    fn pool_from_json(node: &Json) -> Result<PoolSpec, String> {
        Ok(PoolSpec {
            kernel: get_dim(node, "kernel")?,
            stride: get_dim(node, "stride")?,
        })
    }
}

impl Payload for i8 {
    fn conv_to_json(conv: &QuantizedConv) -> Json {
        Json::Obj(vec![
            ("c_in".into(), num(conv.in_channels())),
            ("c_out".into(), num(conv.out_channels())),
            ("kernel".into(), num(conv.kernel())),
            ("dilation".into(), num(conv.dilation())),
            ("in_max".into(), Json::Num(f64::from(conv.in_max))),
            ("wq".into(), Json::Str(encode_i8s(&conv.canonical_wq()))),
            ("scales".into(), Json::Str(encode_f32s(&conv.w_scales))),
            ("bias".into(), Json::Str(encode_f32s(&conv.bias))),
            ("dw_l1".into(), Json::Str(encode_f32s(&conv.dw_l1))),
        ])
    }

    fn conv_from_json(node: &Json) -> Result<QuantizedConv, String> {
        let c_in = get_dim(node, "c_in")?;
        let c_out = get_dim(node, "c_out")?;
        let kernel = get_dim(node, "kernel")?;
        let dilation = get_dim(node, "dilation")?;
        let in_max = get_f32(node, "in_max")?;
        if in_max < 0.0 {
            return Err("field 'in_max' must be non-negative".into());
        }
        let wq = get_i8_payload(node, "wq", dims_product(&[c_out, c_in, kernel])?)?;
        let scales = get_f32_payload(node, "scales", c_out)?;
        let bias = get_f32_payload(node, "bias", c_out)?;
        let dw_l1 = get_f32_payload(node, "dw_l1", c_out)?;
        Ok(QuantizedConv::from_quantized_parts(
            c_in, c_out, kernel, dilation, &wq, scales, in_max, bias, dw_l1,
        ))
    }

    fn dense_to_json(dense: &QuantizedDense) -> Json {
        Json::Obj(vec![
            ("in_features".into(), num(dense.in_features())),
            ("out_features".into(), num(dense.out_features())),
            ("in_max".into(), Json::Num(f64::from(dense.in_max))),
            ("wq".into(), Json::Str(encode_i8s(&dense.canonical_wq()))),
            ("scales".into(), Json::Str(encode_f32s(&dense.w_scales))),
            ("bias".into(), Json::Str(encode_f32s(&dense.bias))),
            ("dw_l1".into(), Json::Str(encode_f32s(&dense.dw_l1))),
        ])
    }

    fn dense_from_json(node: &Json) -> Result<QuantizedDense, String> {
        let in_f = get_dim(node, "in_features")?;
        let out_f = get_dim(node, "out_features")?;
        let in_max = get_f32(node, "in_max")?;
        if in_max < 0.0 {
            return Err("field 'in_max' must be non-negative".into());
        }
        let wq = get_i8_payload(node, "wq", dims_product(&[in_f, out_f])?)?;
        let scales = get_f32_payload(node, "scales", out_f)?;
        let bias = get_f32_payload(node, "bias", out_f)?;
        let dw_l1 = get_f32_payload(node, "dw_l1", out_f)?;
        Ok(QuantizedDense::from_quantized_parts(
            in_f, out_f, &wq, scales, in_max, bias, dw_l1,
        ))
    }

    fn pool_to_json(pool: &QuantPool) -> Json {
        Json::Obj(vec![
            ("kernel".into(), num(pool.spec.kernel)),
            ("stride".into(), num(pool.spec.stride)),
            ("in_max".into(), Json::Num(f64::from(pool.in_max))),
        ])
    }

    fn pool_from_json(node: &Json) -> Result<QuantPool, String> {
        let spec = f32::pool_from_json(node)?;
        let in_max = get_f32(node, "in_max")?;
        if in_max < 0.0 {
            return Err("field 'in_max' must be non-negative".into());
        }
        Ok(QuantPool::new(spec, in_max))
    }
}

fn blocks_to_json<P: Payload>(blocks: &[Block<P>]) -> Json {
    Json::Arr(
        blocks
            .iter()
            .map(|block| match block {
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => Json::Obj(vec![
                    ("kind".into(), Json::Str("residual".into())),
                    ("conv1".into(), P::conv_to_json(conv1)),
                    ("conv2".into(), P::conv_to_json(conv2)),
                    (
                        "downsample".into(),
                        downsample
                            .as_ref()
                            .map(P::conv_to_json)
                            .unwrap_or(Json::Null),
                    ),
                ]),
                Block::Plain { convs, pool } => Json::Obj(vec![
                    ("kind".into(), Json::Str("plain".into())),
                    (
                        "convs".into(),
                        Json::Arr(convs.iter().map(P::conv_to_json).collect()),
                    ),
                    (
                        "pool".into(),
                        pool.as_ref().map(P::pool_to_json).unwrap_or(Json::Null),
                    ),
                ]),
            })
            .collect(),
    )
}

/// Parses blocks and walks the channel chain, returning the feature width
/// feeding the head — the same invariants [`InferencePlan::new`] asserts,
/// but as `Err` instead of a panic: the caller is typically a daemon
/// loading an untrusted file.
fn blocks_from_json<P: Payload>(
    doc: &Json,
    input_channels: usize,
) -> Result<(Vec<Block<P>>, usize), String> {
    let nodes = doc
        .get("blocks")
        .and_then(Json::as_array)
        .ok_or("missing 'blocks' array")?;
    let mut blocks = Vec::with_capacity(nodes.len());
    let mut width = input_channels;
    for (i, node) in nodes.iter().enumerate() {
        let err = |msg: String| format!("block {i}: {msg}");
        match get_str(node, "kind").map_err(&err)? {
            "residual" => {
                let conv1 =
                    P::conv_from_json(get_obj(node, "conv1").map_err(&err)?).map_err(&err)?;
                let conv2 =
                    P::conv_from_json(get_obj(node, "conv2").map_err(&err)?).map_err(&err)?;
                let downsample = match get_opt(node, "downsample") {
                    Some(ds) => Some(P::conv_from_json(ds).map_err(&err)?),
                    None => None,
                };
                if conv1.in_channels() != width {
                    return Err(err(format!(
                        "conv1 expects {} input channels, chain carries {width}",
                        conv1.in_channels()
                    )));
                }
                if conv2.in_channels() != conv1.outputs() {
                    return Err(err("conv2 does not chain after conv1".into()));
                }
                match &downsample {
                    Some(ds) => {
                        if ds.in_channels() != width || ds.outputs() != conv2.outputs() {
                            return Err(err("downsample geometry mismatch".into()));
                        }
                    }
                    None => {
                        if width != conv2.outputs() {
                            return Err(err(
                                "residual skip needs a downsample when channels change".into(),
                            ));
                        }
                    }
                }
                width = conv2.outputs();
                blocks.push(Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                });
            }
            "plain" => {
                let conv_nodes = node
                    .get("convs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| err("missing 'convs' array".into()))?;
                if conv_nodes.is_empty() {
                    return Err(err("plain block holds no convolutions".into()));
                }
                let mut convs = Vec::with_capacity(conv_nodes.len());
                for cn in conv_nodes {
                    let conv = P::conv_from_json(cn).map_err(&err)?;
                    if conv.in_channels() != width {
                        return Err(err(format!(
                            "convolution expects {} input channels, chain carries {width}",
                            conv.in_channels()
                        )));
                    }
                    width = conv.outputs();
                    convs.push(conv);
                }
                let pool = match get_opt(node, "pool") {
                    Some(p) => Some(P::pool_from_json(p).map_err(&err)?),
                    None => None,
                };
                blocks.push(Block::Plain { convs, pool });
            }
            other => return Err(err(format!("unknown block kind '{other}'"))),
        }
    }
    Ok((blocks, width))
}

fn head_to_json<P: Payload>(head: &Head<P>) -> Json {
    match head {
        Head::PerStep(conv) => Json::Obj(vec![
            ("kind".into(), Json::Str("per_step".into())),
            ("conv".into(), P::conv_to_json(conv)),
        ]),
        Head::Fc {
            hidden,
            output,
            channels,
            window,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("fc".into())),
            ("channels".into(), num(*channels)),
            ("window".into(), num(*window)),
            ("hidden".into(), P::dense_to_json(hidden)),
            ("output".into(), P::dense_to_json(output)),
        ]),
        Head::GlobalPoolFc(dense) => Json::Obj(vec![
            ("kind".into(), Json::Str("global_pool_fc".into())),
            ("dense".into(), P::dense_to_json(dense)),
        ]),
    }
}

fn head_from_json<P: Payload>(doc: &Json, width: usize) -> Result<Head<P>, String> {
    let node = get_obj(doc, "head")?;
    let err = |msg: String| format!("head: {msg}");
    match get_str(node, "kind").map_err(&err)? {
        "per_step" => {
            let conv = P::conv_from_json(get_obj(node, "conv").map_err(&err)?).map_err(&err)?;
            if conv.in_channels() != width {
                return Err(err(format!(
                    "per-step conv expects {} input channels, chain carries {width}",
                    conv.in_channels()
                )));
            }
            Ok(Head::PerStep(conv))
        }
        "fc" => {
            let channels = get_dim(node, "channels").map_err(&err)?;
            let window = get_dim(node, "window").map_err(&err)?;
            let hidden =
                P::dense_from_json(get_obj(node, "hidden").map_err(&err)?).map_err(&err)?;
            let output =
                P::dense_from_json(get_obj(node, "output").map_err(&err)?).map_err(&err)?;
            if channels != width {
                return Err(err(format!(
                    "fc head channels {channels} do not match chain width {width}"
                )));
            }
            if hidden.inputs() != dims_product(&[channels, window])? {
                return Err(err("hidden layer does not match channels x window".into()));
            }
            if output.inputs() != hidden.outputs() {
                return Err(err("output layer does not stack on hidden".into()));
            }
            Ok(Head::Fc {
                hidden,
                output,
                channels,
                window,
            })
        }
        "global_pool_fc" => {
            let dense = P::dense_from_json(get_obj(node, "dense").map_err(&err)?).map_err(&err)?;
            if dense.inputs() != width {
                return Err(err(format!(
                    "dense expects {} features, chain carries {width}",
                    dense.inputs()
                )));
            }
            Ok(Head::GlobalPoolFc(dense))
        }
        other => Err(err(format!("unknown head kind '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Plan round trips
// ---------------------------------------------------------------------------

fn artifact_doc(
    name: &str,
    kind: &str,
    input_channels: usize,
    layers: NetworkDescriptor,
    blocks: Json,
    head: Json,
) -> Json {
    let layers = match layers.to_json() {
        Json::Obj(pairs) => pairs
            .into_iter()
            .find(|(k, _)| k == "layers")
            .map(|(_, v)| v)
            .unwrap_or(Json::Arr(Vec::new())),
        _ => Json::Arr(Vec::new()),
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str(ARTIFACT_SCHEMA.into())),
        ("name".into(), Json::Str(name.into())),
        ("kind".into(), Json::Str(kind.into())),
        ("input_channels".into(), num(input_channels)),
        ("layers".into(), layers),
        ("blocks".into(), blocks),
        ("head".into(), head),
    ])
}

impl InferencePlan {
    /// Serialises the plan — structure *and* weights — as a `pit-arch/2`
    /// artifact document. The geometry `layers` list matches
    /// [`InferencePlan::descriptor`] at `t_in = receptive_field()`, so the
    /// document doubles as a `pit-arch/1`-shaped descriptor for
    /// geometry-only consumers.
    pub fn to_artifact(&self) -> Json {
        artifact_doc(
            self.name(),
            "f32",
            self.input_channels(),
            self.descriptor(self.receptive_field()),
            blocks_to_json(&self.blocks),
            head_to_json(&self.head),
        )
    }

    /// [`InferencePlan::to_artifact`] rendered as committed-file-friendly
    /// JSON text.
    pub fn to_artifact_string(&self) -> String {
        self.to_artifact().render()
    }

    /// Rebuilds a plan, weights included, from a `pit-arch/2` artifact
    /// document of kind `f32`.
    ///
    /// # Errors
    ///
    /// Returns a message on a schema/kind mismatch, a malformed layer
    /// payload (bad base64, wrong tensor length, non-finite value) or
    /// geometry that does not chain — never panics, so a serving daemon can
    /// load untrusted files.
    pub fn from_artifact(doc: &Json) -> Result<Self, String> {
        check_schema_and_kind(doc, "f32")?;
        let name = get_str(doc, "name")?.to_string();
        let input_channels = get_dim(doc, "input_channels")?;
        let (blocks, width) = blocks_from_json(doc, input_channels)?;
        let head = head_from_json(doc, width)?;
        // The chain checks above re-establish `InferencePlan::new`'s
        // invariants, so this cannot panic.
        Ok(Self::new(name, input_channels, blocks, head))
    }

    /// [`InferencePlan::from_artifact`] from JSON text.
    ///
    /// # Errors
    ///
    /// As [`InferencePlan::from_artifact`], plus JSON syntax errors.
    pub fn from_artifact_str(text: &str) -> Result<Self, String> {
        Self::from_artifact(&Json::parse(text)?)
    }
}

impl QuantizedPlan {
    /// Serialises the quantized plan — int8 codes, per-channel scales,
    /// calibration ranges, f32 biases and the weight-rounding masses the
    /// analytic error bound needs — as a `pit-arch/2` artifact of kind `i8`.
    pub fn to_artifact(&self) -> Json {
        artifact_doc(
            self.name(),
            "i8",
            self.input_channels(),
            self.descriptor(self.receptive_field()),
            blocks_to_json(&self.blocks),
            head_to_json(&self.head),
        )
    }

    /// [`QuantizedPlan::to_artifact`] rendered as committed-file-friendly
    /// JSON text.
    pub fn to_artifact_string(&self) -> String {
        self.to_artifact().render()
    }

    /// Rebuilds a quantized plan from a `pit-arch/2` artifact of kind `i8`.
    /// The loaded plan streams bit-identically to the plan the artifact was
    /// written from, and [`QuantizedPlan::error_bound`] is re-derived from
    /// the stored scales and rounding masses.
    ///
    /// # Errors
    ///
    /// Returns a message on a schema/kind mismatch, malformed payloads or
    /// broken geometry — never panics (daemon boot path).
    pub fn from_artifact(doc: &Json) -> Result<Self, String> {
        check_schema_and_kind(doc, "i8")?;
        let name = get_str(doc, "name")?.to_string();
        let input_channels = get_dim(doc, "input_channels")?;
        let (blocks, width) = blocks_from_json(doc, input_channels)?;
        let head = head_from_json(doc, width)?;
        Ok(Self::assemble(name, input_channels, blocks, head))
    }

    /// [`QuantizedPlan::from_artifact`] from JSON text.
    ///
    /// # Errors
    ///
    /// As [`QuantizedPlan::from_artifact`], plus JSON syntax errors.
    pub fn from_artifact_str(text: &str) -> Result<Self, String> {
        Self::from_artifact(&Json::parse(text)?)
    }
}

/// A loaded `pit-arch/2` artifact of either kind — what a serving process
/// boots from when the precision is decided by the file, not the code.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlanArtifact {
    /// An f32 inference plan.
    F32(InferencePlan),
    /// An int8 quantized plan.
    I8(QuantizedPlan),
}

impl PlanArtifact {
    /// Parses an artifact document of either kind (dispatching on the
    /// `kind` field).
    ///
    /// # Errors
    ///
    /// Returns a message on syntax errors, unsupported schemas (including a
    /// pointed message for weight-less `pit-arch/1` documents) or malformed
    /// payloads.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("f32") => InferencePlan::from_artifact(&doc).map(PlanArtifact::F32),
            Some("i8") => QuantizedPlan::from_artifact(&doc).map(PlanArtifact::I8),
            Some(other) => Err(format!("unknown artifact kind '{other}'")),
            // No kind field: let the schema check produce the right error
            // (pit-arch/1 gets the "geometry only" explanation).
            None => InferencePlan::from_artifact(&doc).map(PlanArtifact::F32),
        }
    }

    /// Largest artifact file [`PlanArtifact::load`] will read. Real
    /// artifacts are kilobytes to a few megabytes; the cap keeps a hostile
    /// LOAD_MODEL path (or a fat-fingered one) from ballooning a serving
    /// daemon's memory.
    pub const MAX_FILE_BYTES: u64 = 256 << 20;

    /// Reads and parses an artifact file.
    ///
    /// Defensive like the rest of this module — callers are long-running
    /// daemons handed untrusted paths: only regular files are read (no
    /// FIFOs or device nodes, whose reads can block or never end) and the
    /// size is bounded by [`PlanArtifact::MAX_FILE_BYTES`] before any
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O errors, non-regular or oversized files, or
    /// any parse failure.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let meta =
            std::fs::metadata(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if !meta.is_file() {
            return Err(format!("{} is not a regular file", path.display()));
        }
        if meta.len() > Self::MAX_FILE_BYTES {
            return Err(format!(
                "{} is {} bytes, beyond the {}-byte artifact bound",
                path.display(),
                meta.len(),
                Self::MAX_FILE_BYTES
            ));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `"f32"` or `"i8"` — the `kind` field of the document.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanArtifact::F32(_) => "f32",
            PlanArtifact::I8(_) => "i8",
        }
    }

    /// The plan name.
    pub fn name(&self) -> &str {
        match self {
            PlanArtifact::F32(p) => p.name(),
            PlanArtifact::I8(p) => p.name(),
        }
    }

    /// Channels of the input stream.
    pub fn input_channels(&self) -> usize {
        match self {
            PlanArtifact::F32(p) => p.input_channels(),
            PlanArtifact::I8(p) => p.input_channels(),
        }
    }

    /// Width of one emitted output vector.
    pub fn output_dim(&self) -> usize {
        match self {
            PlanArtifact::F32(p) => p.output_dim(),
            PlanArtifact::I8(p) => p.output_dim(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_temponet;
    use crate::{QuantizedSession, Session};
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use pit_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn searched_plan(seed: u64) -> InferencePlan {
        let cfg = TempoNetConfig::scaled(8, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        compile_temponet(&net)
    }

    #[test]
    fn f32_artifact_roundtrip_preserves_outputs_exactly() {
        let plan = searched_plan(40);
        let text = plan.to_artifact_string();
        let loaded = InferencePlan::from_artifact_str(&text).unwrap();
        assert_eq!(loaded.name(), plan.name());
        assert_eq!(loaded.input_channels(), plan.input_channels());
        assert_eq!(loaded.output_dim(), plan.output_dim());
        assert_eq!(loaded.num_weights(), plan.num_weights());

        let mut rng = StdRng::seed_from_u64(41);
        let x = init::uniform(&mut rng, &[2, 4, 64], 1.0);
        let a = plan.forward(&x).unwrap();
        let b = loaded.forward(&x).unwrap();
        // Same weights bit-for-bit, same kernels: outputs are identical.
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn f32_artifact_rerender_is_byte_stable() {
        let plan = searched_plan(42);
        let text = plan.to_artifact_string();
        let loaded = InferencePlan::from_artifact_str(&text).unwrap();
        assert_eq!(loaded.to_artifact_string(), text);
    }

    #[test]
    fn i8_artifact_roundtrip_streams_bit_identically() {
        let plan = searched_plan(43);
        let mut rng = StdRng::seed_from_u64(44);
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap();
        let text = qplan.to_artifact_string();
        let loaded = QuantizedPlan::from_artifact_str(&text).unwrap();
        assert_eq!(loaded.name(), qplan.name());
        assert_eq!(loaded.error_bound(), qplan.error_bound());
        assert_eq!(loaded.weight_bytes(), qplan.weight_bytes());
        assert_eq!(loaded.to_artifact_string(), text);

        let mut a = QuantizedSession::new(Arc::new(qplan));
        let mut b = QuantizedSession::new(Arc::new(loaded));
        let mut sample = [0.0f32; 4];
        for t in 0..64 {
            for (ci, slot) in sample.iter_mut().enumerate() {
                *slot = x.data()[ci * 64 + t];
            }
            assert_eq!(a.push(&sample), b.push(&sample), "step {t}");
        }
    }

    #[test]
    fn artifact_doubles_as_geometry_descriptor() {
        let plan = searched_plan(45);
        let text = plan.to_artifact_string();
        let desc = pit_models::NetworkDescriptor::from_json_str(&text).unwrap();
        assert_eq!(desc.name, plan.name());
        assert_eq!(
            desc.layers.len(),
            plan.descriptor(plan.receptive_field()).layers.len()
        );
    }

    #[test]
    fn plan_artifact_dispatches_on_kind() {
        let plan = searched_plan(46);
        let f32_text = plan.to_artifact_string();
        assert!(matches!(
            PlanArtifact::from_json_str(&f32_text).unwrap(),
            PlanArtifact::F32(_)
        ));
        let mut rng = StdRng::seed_from_u64(47);
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap();
        let loaded = PlanArtifact::from_json_str(&qplan.to_artifact_string()).unwrap();
        assert_eq!(loaded.kind(), "i8");
        assert_eq!(loaded.input_channels(), 4);
        assert_eq!(loaded.output_dim(), 1);
    }

    #[test]
    fn v1_documents_get_a_pointed_error() {
        let plan = searched_plan(48);
        let v1 = plan.descriptor(64).to_json_string();
        let err = PlanArtifact::from_json_str(&v1).unwrap_err();
        assert!(err.contains("geometry only"), "{err}");
    }

    #[test]
    fn loaded_f32_plan_streams_like_the_original() {
        let plan = Arc::new(searched_plan(49));
        let loaded =
            Arc::new(InferencePlan::from_artifact_str(&plan.to_artifact_string()).unwrap());
        let mut a = Session::new(Arc::clone(&plan));
        let mut b = Session::new(loaded);
        for t in 0..32 {
            let sample = [t as f32 * 0.05, -0.1, 0.2, 0.3];
            assert_eq!(a.push(&sample), b.push(&sample));
        }
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        let plan = searched_plan(50);
        let good = plan.to_artifact_string();

        // Bad base64 inside a weight payload.
        let bad_b64 = good.replacen("\"weight\": \"", "\"weight\": \"!!!!", 1);
        assert!(InferencePlan::from_artifact_str(&bad_b64)
            .unwrap_err()
            .contains("base64"));

        // Truncated payload: valid base64, wrong tensor length.
        let doc = Json::parse(&good).unwrap();
        let mutate_first_weight = |doc: &Json, new_payload: &str| -> String {
            let mut text = doc.render();
            let start = text.find("\"weight\": \"").unwrap() + "\"weight\": \"".len();
            let end = start + text[start..].find('"').unwrap();
            text.replace_range(start..end, new_payload);
            text
        };
        let short = mutate_first_weight(&doc, &pit_tensor::json::encode_f32s(&[1.0, 2.0]));
        let err = InferencePlan::from_artifact_str(&short).unwrap_err();
        assert!(err.contains("geometry needs"), "{err}");

        // Non-finite weight values.
        let nan = mutate_first_weight(&doc, &pit_tensor::json::encode_f32s(&[f32::NAN; 840]));
        let err = InferencePlan::from_artifact_str(&nan);
        // Either the length or the finiteness check trips; both are errors.
        assert!(err.is_err());

        // Wrong kind for the loader.
        assert!(QuantizedPlan::from_artifact_str(&good)
            .unwrap_err()
            .contains("kind"));

        // Unknown schema.
        let wrong_schema = good.replacen("pit-arch/2", "pit-arch/9", 1);
        assert!(InferencePlan::from_artifact_str(&wrong_schema).is_err());
    }

    #[test]
    fn overflowing_in_max_is_rejected() {
        // 1e39 is a finite f64 but overflows to f32 infinity; a loader that
        // let it through would serve NaN garbage instead of failing.
        let plan = searched_plan(54);
        let mut rng = StdRng::seed_from_u64(55);
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap();
        let text = qplan.to_artifact_string();
        let start = text.find("\"in_max\": ").unwrap() + "\"in_max\": ".len();
        let end = start + text[start..].find([',', '\n']).unwrap();
        let mut bad = text.clone();
        bad.replace_range(start..end, "1e39");
        let err = QuantizedPlan::from_artifact_str(&bad).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn broken_channel_chain_is_rejected() {
        let plan = searched_plan(51);
        let doc = plan.to_artifact();
        // Lie about the input channel count: the first conv no longer chains.
        let Json::Obj(mut pairs) = doc else {
            panic!("artifact must be an object")
        };
        for (k, v) in &mut pairs {
            if k == "input_channels" {
                *v = Json::Num(7.0);
            }
        }
        let err = InferencePlan::from_artifact(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("chain carries"), "{err}");
    }

    #[test]
    fn quantized_descriptor_matches_f32_geometry() {
        let plan = searched_plan(52);
        let mut rng = StdRng::seed_from_u64(53);
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap();
        assert_eq!(qplan.receptive_field(), plan.receptive_field());
        let qd = qplan.descriptor(64);
        let fd = plan.descriptor(64);
        assert_eq!(qd.layers, fd.layers);
        assert_eq!(qd.total_macs(), fd.total_macs());
    }
}
