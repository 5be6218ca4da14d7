#!/usr/bin/env bash
# The repository's whole lint gate in one script, so CI and a developer's
# pre-push hook run exactly the same checks:
#
#   1. rustfmt        — formatting is canonical.
#   2. per-kind lint  — the CoreModel contract: layer kinds are defined in
#                       exactly one place. Outside the model registry
#                       (crates/core/src/model/ — including the fork tee,
#                       eltwise-add, concat-join and scale-shift modules)
#                       and the
#                       resource cost model (crates/fpga/src/resources.rs),
#                       no consumer may match on CoreKind or on Layer
#                       variants — adding a layer kind must never require
#                       touching graph/sim/exec/verify/codegen/dse/multi/
#                       flow/check again. Construct layers via the From
#                       impls (`conv.into()`), not by naming variants.
#   3. actor shells   — every layer kind runs in one of three actor
#                       shells: the windowed shell (model/windowed.rs), the
#                       gather shell (model/gather.rs) and the router
#                       (port.rs); a kind's model/<kind>.rs supplies only
#                       its body or route. Besides the shells, only the
#                       non-layer plumbing may implement Actor: the DMA
#                       source and sink (endpoints.rs), the board link
#                       (multi.rs) and the test actors in sim.rs's test
#                       module. Host stage workers likewise: StageWorker is
#                       implemented only by the conv and pool workers
#                       (model/conv.rs, model/pool.rs), every gather body
#                       (model/gather.rs), the route stage (port.rs) and
#                       flatten (model/mod.rs).
#   4. numeric dispatch — concrete fixed-point element types appear only
#                       in kernel.rs, model/ and crates/tensor.
#   5. numeric casts  — no value-lossy `as` cast in a numeric hot path.
#   6. one tanh       — library code calls dfcnn_tensor::tanh, never libm's.
#   7. clippy         — warnings are errors, across every target.
#
# Usage: scripts/lint.sh   (exits non-zero on the first failing phase)
set -u
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check || exit 1

echo "== per-kind dispatch lint =="
fail=0

# CoreKind must not appear in crates/core outside the model registry.
hits=$(grep -rn 'CoreKind' crates/core/src --include='*.rs' \
    | grep -v '^crates/core/src/model/' || true)
if [ -n "$hits" ]; then
    echo "error: CoreKind referenced outside crates/core/src/model/:" >&2
    echo "$hits" >&2
    fail=1
fi

# No per-variant Layer dispatch in the consumer modules. (The model
# registry and per-kind modules are the only legitimate match sites;
# consumers go through model_for / paper_layer_model instead.)
consumers="crates/core/src/graph.rs crates/core/src/sim.rs \
    crates/core/src/exec.rs crates/core/src/verify.rs \
    crates/core/src/codegen.rs crates/core/src/dse.rs \
    crates/core/src/multi.rs crates/core/src/flow.rs \
    crates/core/src/check.rs"
hits=$(grep -nE 'Layer::(Conv|Pool|Linear|Flatten|LogSoftmax|ScaleShift)\(' $consumers || true)
if [ -n "$hits" ]; then
    echo "error: per-variant Layer dispatch in a consumer module:" >&2
    echo "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo >&2
    echo "Layer-kind behaviour belongs in crates/core/src/model/ (one module" >&2
    echo "per kind); see DESIGN.md s2d for the CoreModel contract." >&2
    exit 1
fi
echo "per-kind dispatch confined to model/ and resources.rs"

echo "== actor shell lint =="
# An indented impl in sim.rs is one of its test actors (mod tests).
hits=$(grep -rnE '^\s*impl\b.*\bActor for ' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/model/(windowed|gather)\.rs:' \
    | grep -vE '^crates/core/src/(endpoints|port|multi)\.rs:' \
    | grep -vE '^crates/core/src/sim\.rs:[0-9]+:\s+impl' || true)
if [ -n "$hits" ]; then
    echo "error: simulator actor implemented outside the actor shells:" >&2
    echo "$hits" >&2
    echo "give the kind a WindowBody, GatherBody or Route instead (DESIGN.md s2d)" >&2
    exit 1
fi
hits=$(grep -rnE '^\s*impl\b.*\bStageWorker for ' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/model/(conv|pool|gather|mod)\.rs:' \
    | grep -vE '^crates/core/src/port\.rs:' || true)
if [ -n "$hits" ]; then
    echo "error: host stage worker implemented outside the shared stages:" >&2
    echo "$hits" >&2
    echo "run the kind's GatherBody or Route as its host stage instead (DESIGN.md s2d)" >&2
    exit 1
fi
echo "actors and stage workers confined to the shells and the plumbing"

echo "== numeric dispatch lint =="
# Concrete fixed-point element types must not leak past the numeric
# kernel layer: engines, graph and platform code stay element-agnostic
# (f32 transport, DesignConfig.numeric as the selector) and reach a
# monomorphized kernel only through with_numeric! in kernel.rs and
# model/. See DESIGN.md s2h for the numeric trait contract.
hits=$(grep -rnE 'Fixed16<|Fixed8<' \
    crates/core/src crates/hls/src crates/nn/src crates/datasets/src \
    crates/fpga/src --include='*.rs' \
    | grep -v '^crates/core/src/kernel.rs' \
    | grep -v '^crates/core/src/model/' || true)
if [ -n "$hits" ]; then
    echo "error: concrete fixed-point element type outside the numeric kernel layer:" >&2
    echo "$hits" >&2
    echo "dispatch on DesignConfig.numeric via with_numeric! instead (DESIGN.md s2h)" >&2
    exit 1
fi
echo "numeric monomorphization confined to kernel.rs, model/ and crates/tensor"

echo "== numeric-casts lint =="
# Value-lossy `as` casts are banned in the numeric hot paths: every
# narrowing conversion must go through crates/tensor/src/cast.rs, which
# saturates (and, in debug builds, counts the clamp) instead of silently
# truncating — otherwise the value-range analyzer's container bounds
# (crates/core/src/range.rs) would be unsound. Widening stays as
# `i32::from`/`i64::from`/`f64::from`, which the compiler proves lossless;
# `as f64` from integers and usize/isize index arithmetic are exempt.
numeric_paths="crates/tensor/src/fixed.rs crates/tensor/src/simd.rs \
    crates/tensor/src/tanh.rs crates/core/src/kernel.rs"
hits=$(grep -nE ' as (i8|i16|i32|i64|u8|u16|u32|u64|f32)\b|as \$store\b' \
    $numeric_paths || true)
if [ -n "$hits" ]; then
    echo "error: value-lossy 'as' cast in a numeric hot path:" >&2
    echo "$hits" >&2
    echo "route narrowing through crates/tensor/src/cast.rs (SatNarrow," >&2
    echo "f64_to_f32, len_to_f32) or widen with i32::from/i64::from" >&2
    exit 1
fi
echo "numeric narrowing confined to crates/tensor/src/cast.rs"

echo "== one tanh lint =="
# Every tanh the workspace executes is dfcnn_tensor::tanh
# (crates/tensor/src/tanh.rs): libm's tanhf differs between platforms in
# the last place, so a call to it would pin output bits nothing
# specifies. Only tanh.rs itself, and the test modules (everything from a
# file's first #[cfg(test)] on), may call libm's tanh, as an f64 oracle.
hits=$(for f in $(grep -rlE '\.tanh\(\)|\bf(32|64)::tanh\b' crates/*/src --include='*.rs' \
        | grep -v '^crates/tensor/src/tanh\.rs$'); do
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /\.tanh\(\)|(^|[^[:alnum:]_])f(32|64)::tanh([^[:alnum:]_]|$)/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "error: libm tanh outside crates/tensor/src/tanh.rs:" >&2
    echo "$hits" >&2
    echo "call dfcnn_tensor::tanh (or Numeric::tanh_hw) instead" >&2
    exit 1
fi
echo "tanh confined to crates/tensor/src/tanh.rs"

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings || exit 1

echo "lint: OK"
