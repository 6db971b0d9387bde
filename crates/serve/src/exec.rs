//! The data operations — compress, compress-tiled, decompress and
//! read-region — written once. Serve's workers run [`execute`] on every
//! decoded request and the `qip` CLI runs it on the operation its arguments
//! describe, so the two entry points refuse the same operands with the same
//! status and reason, name the same stages and return the same bytes.

use crate::wire::{Op, Status, WireBound};
use qip_core::{CompressCtx, CompressError, Compressor, ErrorBound};
use qip_registry::AnyCompressor;
use qip_telemetry::StageTimer;
use qip_tensor::{Field, Region, Scalar, Shape};
use std::time::Instant;

/// Why an operation produced no output: the status a server answers with and
/// a one-line reason (what `qip` prints).
pub(crate) type OpError = (Status, String);

/// Run one data operation and return its output bytes: a stream or tiled
/// container for the compress ops, raw little-endian scalars for the others.
///
/// Operands are checked before any work: for the compress ops nonzero dims
/// whose product does not overflow, a payload of exactly dims × dtype bytes
/// and a positive, finite bound; the tiled magic for `ReadRegion`; a known
/// stream magic for `Decompress`. The op then runs as `f32` or `f64` by its
/// `dtype_bits`. `stages` closes `parse` and then the op's own stage
/// (`compress`, `decompress` or `read_region`); a `deadline` is checked
/// before that stage and before `respond`. Ping, metrics and flight carry no
/// data and answer `BAD_REQUEST`.
pub fn execute(
    op: &Op,
    ctx: &mut CompressCtx,
    stages: &mut StageTimer,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, (Status, String)> {
    match op {
        Op::Compress { dtype_bits, .. }
        | Op::CompressTiled { dtype_bits, .. }
        | Op::Decompress { dtype_bits, .. }
        | Op::ReadRegion { dtype_bits, .. } => match *dtype_bits {
            32 => execute_as::<f32>(op, ctx, stages, deadline),
            64 => execute_as::<f64>(op, ctx, stages, deadline),
            _ => Err(bad_request("dtype bits must be 32 or 64")),
        },
        Op::Ping | Op::Metrics | Op::Flight { .. } => {
            Err(bad_request(format!("{} carries no data to execute", op.kind().name())))
        }
    }
}

fn execute_as<T: Scalar>(
    op: &Op,
    ctx: &mut CompressCtx,
    stages: &mut StageTimer,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, OpError> {
    let out = match op {
        Op::Compress { compressor, dims, bound, payload, .. } => {
            let comp = by_name(compressor)?;
            compress::<T>(&comp, dims, *bound, payload, ctx, stages, deadline)?
        }
        // A bad tile edge is refused before the dims are looked at.
        Op::CompressTiled { compressor, dims, tile, bound, payload, .. } => {
            let tiled = qip_container::TiledCompressor::new(by_name(compressor)?, *tile as usize)
                .map_err(|e| bad_request(e.to_string()))?;
            compress::<T>(&tiled, dims, *bound, payload, ctx, stages, deadline)?
        }
        Op::Decompress { payload, .. } => {
            // The stream names its decoder in its magic byte; a foreign byte
            // is the caller's mistake, not a failed decode.
            if qip_registry::detect_stream(payload).is_none() {
                return Err(bad_request("unrecognized stream magic"));
            }
            stages.mark("parse");
            check_deadline(deadline, "decompress")?;
            let field = qip_container::decompress_any::<T>(payload, ctx).map_err(failed)?;
            stages.mark("decompress");
            field.to_le_bytes()
        }
        // Only the tiles the region intersects decode; a region the field
        // does not contain is the typed `BAD_REGION`.
        Op::ReadRegion { origin, extent, payload, .. } => {
            if payload.first() != Some(&qip_container::MAGIC_TILED) {
                return Err(bad_request("payload is not a tiled container"));
            }
            let region = Region::new(&usizes(origin), &usizes(extent));
            stages.mark("parse");
            check_deadline(deadline, "read_region")?;
            let field = qip_container::read_region::<T>(payload, &region).map_err(|e| match e {
                CompressError::Tensor(_) => (Status::BadRegion, e.to_string()),
                e => failed(e),
            })?;
            stages.mark("read_region");
            field.to_le_bytes()
        }
        Op::Ping | Op::Metrics | Op::Flight { .. } => unreachable!("refused by execute"),
    };
    check_deadline(deadline, "respond")?;
    Ok(out)
}

/// The compress ops once their compressor is built: operands checked, the
/// payload read as a `Field<T>`, then the stream.
fn compress<T: Scalar>(
    comp: &impl Compressor<T>,
    dims: &[u32],
    bound: WireBound,
    payload: &[u8],
    ctx: &mut CompressCtx,
    stages: &mut StageTimer,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, OpError> {
    if dims.contains(&0) {
        return Err(bad_request("every axis must be nonzero"));
    }
    let elems = dims
        .iter()
        .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
        .ok_or_else(|| bad_request("dims product overflows"))?;
    let expected = elems.saturating_mul(std::mem::size_of::<T>() as u64);
    if expected != payload.len() as u64 {
        let have = payload.len();
        let reason = format!("payload is {have} bytes but dims x dtype need {expected}");
        return Err(bad_request(reason));
    }
    let bound = bound.to_bound();
    let (ErrorBound::Abs(v) | ErrorBound::Rel(v)) = bound;
    if !(v.is_finite() && v > 0.0) {
        return Err(bad_request("error bound must be positive and finite"));
    }
    let field = Field::<T>::from_le_bytes(Shape::new(&usizes(dims)), payload)
        .map_err(|e| bad_request(e.to_string()))?;
    stages.mark("parse");
    check_deadline(deadline, "compress")?;
    let mut out = Vec::new();
    comp.compress_into(&field, bound, ctx, &mut out).map_err(failed)?;
    stages.mark("compress");
    Ok(out)
}

/// `DEADLINE_EXCEEDED` naming `stage` once `deadline` has passed.
pub(crate) fn check_deadline(deadline: Option<Instant>, stage: &str) -> Result<(), OpError> {
    match deadline {
        Some(d) if Instant::now() > d => {
            Err((Status::DeadlineExceeded, format!("deadline expired before stage '{stage}'")))
        }
        _ => Ok(()),
    }
}

fn by_name(compressor: &str) -> Result<AnyCompressor, OpError> {
    AnyCompressor::by_name(compressor).map_err(|e| (Status::UnknownCompressor, e.to_string()))
}

fn bad_request(reason: impl Into<String>) -> OpError {
    (Status::BadRequest, reason.into())
}

fn failed(e: CompressError) -> OpError {
    (Status::Failed, e.to_string())
}

fn usizes(v: &[u32]) -> Vec<usize> {
    v.iter().map(|&x| x as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn expired_deadline_reports_the_stage() {
        let past = Some(Instant::now() - Duration::from_millis(1));
        let (status, reason) = check_deadline(past, "compress").unwrap_err();
        assert_eq!(status, Status::DeadlineExceeded);
        assert!(reason.contains("compress"), "{reason}");
        assert!(check_deadline(Some(Instant::now() + Duration::from_secs(5)), "compress").is_ok());
        assert!(check_deadline(None, "compress").is_ok());
    }
}
