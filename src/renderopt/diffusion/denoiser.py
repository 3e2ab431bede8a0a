"""Attention-gated encoder-decoder noise predictor over 1-D sequences.

The network maps a perturbed preference sequence, a timestep, and a resource
condition vector to the noise it believes was injected. Layout:

    input projection + sinusoidal timestep embedding + condition embedding
    -> transformer block at full resolution          (encoder)
    -> mean-pool pairs                               (downsample)
    -> transformer block at half resolution          (bottleneck)
    -> nearest upsample
    -> additive attention gate on the encoder skip
    -> concat(up, gated skip) -> merge projection
    -> MLP block (decoder) -> output projection

Each transformer block is two pre-norm residual sub-layers, x + attn(LN(x))
then x + mlp(LN(x)) (Xiong et al., ICML 2020), and the decoder's MLP block is
a fifth: `_residual` and `_residual_back` run that rule for all five.
Every MLP uses the tanh-form GELU (Hendrycks & Gimpel), which needs only numpy.
The network's exp, tanh and logistic come from `elementary`, the one module
that picks the numpy kernels whose last bits vary with the CPU.
Everything is float64 numpy with hand-written backpropagation; gradients are
validated against central finite differences (see analytic_gradient_check).
The weights are one vector laid out by `param_shapes`: `init_weights` builds
it, `split_params` views it tensor by tensor, and `loss_and_grads` returns the
gradient as a vector in the same layout. Each in-place kernel sequence replays
Python's left-to-right evaluation of the expression it replaced (kept in
`tests/oracles.py`), so results match to the bit: no edit may reassociate it.

Training runs in a `Workspace`: the kernels write into its buffers through
`out=` (None, their default, makes a new array), and a buffer takes a new value
once its old one is dead. A role is one buffer whatever shapes it takes, so
`tmp`, `act` and the two backward scratch roles hold one each. Each
sub-layer's last linear writes into `tmp`, and `_residual` adds that into the
stream's own buffer, so one buffer carries the stream through a block. Each
layernorm's output goes into `attn.y` or `mlp.y`, shared by the sub-layers of
that kind, and the skip concat into `act`, dead from the bottleneck's MLP to
the decoder's; the backward pass rebuilds each from what it was made of, with
the forward's own operations, before it is read. The backward pass writes
most gradients over the activation their layer read, each sub-layer's dx over
its input; `denc` over `enc` once the gate's weight gradients have read it,
and `dbot` into the bottleneck stream, dead once `up` has copied it. A row's
result does not depend on how many rows share the call, except that a batch
of one sequence takes another BLAS path in the (1, d) products of the embeddings.
Inference passes no workspace: `predict` runs batches of at most
`DenoiserConfig.training_rows`. Allocating is faster for one sequence, a kept
workspace for more (1.17, 0.94 and 0.83 times the allocating time at 1, 20 and
120 rows; default config, 2 Intel Xeon cores). `call_count` counts sequences.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import NumericalError
from ..config import DenoiserConfig, param_count, param_shapes
from .elementary import exp, logistic, tanh

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5


@lru_cache(maxsize=None)
def _frequencies(half: int) -> np.ndarray:
    freqs = exp(-math.log(10_000.0) * np.arange(half, dtype=np.float64) / half)
    freqs.flags.writeable = False          # one row, shared by every caller
    return freqs


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape (B, dim)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    args = t[:, None] * _frequencies(dim // 2)
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def _gelu(x: np.ndarray, act: np.ndarray | None = None, term: np.ndarray | None = None):
    """GELU(x) in tanh form (arXiv:1606.08415) and the 1 + tanh term its gradient
    reuses; into `act` and `term` when given."""
    term = np.multiply(_GELU_A, x, out=term)   # 1 + tanh(C (x + A x x x)), in place
    term *= x
    term *= x
    term += x
    term *= _GELU_C
    tanh(term, out=term)
    term += 1.0
    act = np.multiply(0.5, x, out=act)
    act *= term
    return act, term


def _gelu_grad(x: np.ndarray, term: np.ndarray, out: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
    # d tanh(u) / du = 1 - tanh(u)^2 = term (2 - term); 0.5 term + 0.5 x term (2 - term) du
    out = np.multiply(0.5, x, out=out)
    out *= term
    tmp = np.subtract(2.0, term, out=tmp)
    out *= tmp
    np.multiply(3.0 * _GELU_A, x, out=tmp)
    tmp *= x
    tmp += 1.0
    tmp *= _GELU_C
    out *= tmp
    out += np.multiply(0.5, term, out=tmp)
    return out


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    y = x @ w if out is None else np.matmul(x, w, out=out)
    y += b
    return y


def _linear_back(x: np.ndarray, dy: np.ndarray, params: dict, grads: dict,
                 w: str, b: str, out: np.ndarray | None = None) -> np.ndarray:
    """dx for y = x @ params[w] + params[b] with arbitrary leading axes, into
    `out` (shaped as x, and x itself if x is not needed after) when given;
    writes the weight and bias gradients into grads[w] and grads[b] first."""
    din, dout = params[w].shape
    x2 = x.reshape(-1, din)
    dy2 = dy.reshape(-1, dout)
    np.matmul(x2.T, dy2, out=grads[w])
    grads[b][...] = dy2.sum(axis=0)
    dx2 = np.matmul(dy2, params[w].T, out=None if out is None else out.reshape(-1, din))
    return dx2.reshape(x.shape)


def _mean_last(x: np.ndarray) -> np.ndarray:   # x.mean(-1, keepdims=True), minus its wrapper
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray,
               xhat: np.ndarray | None = None, out: np.ndarray | None = None):
    """g xhat + b for xhat = x normalised over its last axis, into `out`, and the
    context (xhat, 1 / std) its backward pass needs, xhat into `xhat`, when given."""
    xhat = np.subtract(x, _mean_last(x), out=xhat)
    inv = _mean_last(np.multiply(xhat, xhat, out=out))     # `out` is scratch until the end
    inv += _LN_EPS
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    xhat *= inv
    out = np.multiply(g, xhat, out=out)
    out += b
    return out, (xhat, inv)


def _layernorm_back(params: dict, prefix: str, dy: np.ndarray, cache: dict, grads: dict,
                    out: np.ndarray | None = None, tmp: np.ndarray | None = None):
    """dx of `_layernorm`, into `out` (dy itself if dy is not needed after)
    when given, with `tmp` as scratch."""
    xhat, inv = cache[prefix]
    d = xhat.shape[-1]
    grads[f"{prefix}.g"][...] = np.multiply(dy, xhat, out=tmp).reshape(-1, d).sum(axis=0)
    grads[f"{prefix}.b"][...] = dy.reshape(-1, d).sum(axis=0)
    # inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat))
    dxhat = np.multiply(dy, params[f"{prefix}.g"], out=out)
    proj = np.multiply(dxhat, xhat, out=tmp)
    dxhat -= _mean_last(dxhat)
    dxhat -= np.multiply(xhat, _mean_last(proj), out=proj)
    dxhat *= inv
    return dxhat


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _merged_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """a @ b per head, (B, H, L, dh), with its heads merged to (B, L, H dh);
    written through a per-head view of `out` when given."""
    if out is None:
        return _merge_heads(a @ b)
    np.matmul(a, b, out=_split_heads(out, a.shape[1]))
    return out


def _softmax(scores: np.ndarray, scale: float) -> np.ndarray:   # in the buffer of `scores`
    scores *= scale
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


class Workspace:
    """Float64 buffers for batches of up to `rows` sequences, made on first use
    and reused by every later call: `buffers` holds one flat vector per role,
    `rows` times the largest per-row shape the role has taken, and a batch of
    fewer rows works in a view of the leading rows. Also the gradient vector and
    its per-tensor views (`grads`), which `loss_and_grads` overwrites and
    returns on every call."""

    def __init__(self, config: DenoiserConfig, rows: int):
        self.rows = rows
        self.buffers: dict[str, np.ndarray] = {}
        self.grad = np.zeros(param_count(config))
        self.grads = split_params(config, self.grad)
        self._loose: dict[str, None] = {}      # roles made or grown since the last `pack`

    def take(self, role: str, b: int, *shape: int) -> np.ndarray:
        """The leading `b` rows of a (rows, *shape) view of the front of the
        vector of `role`, made larger when the shape needs more."""
        size = self.rows * math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = self.buffers[role] = np.empty(size)
            self._loose[role] = None
        return buf[:size].reshape(self.rows, *shape)[:b]

    def pack(self) -> None:
        """Move the vectors made since the last call into one block, their
        contents dropped; call it when no view of a buffer is in use. After a
        run's first step its buffers are then one allocation, freed at once
        when the run ends: glibc raises its mmap threshold to the largest
        block freed, so a process that goes on to make large arrays, such as
        a loaded checkpoint's weights, takes them from the heap instead of
        faulting in fresh pages for each."""
        sizes = {role: self.buffers.pop(role).size for role in self._loose}   # freed first
        self._loose = {}
        if sizes:
            block = np.empty(sum(sizes.values()))
            start = 0
            for role, size in sizes.items():
                self.buffers[role] = block[start:start + size]
                start += size


def _attention_forward(params: dict, prefix: str, x: np.ndarray, cache: dict | None,
                       ws: Workspace | None, heads: int):
    b, l, d = x.shape
    # (l, d) per sequence, as three products were: at l = 1, (b l, d) takes another BLAS path
    qkv = _linear(x, params[f"{prefix}.wqkv"][:, None], params[f"{prefix}.bqkv"][:, None, None],
                  ws and ws.take(f"{prefix}.qkv", b, 3 * l * d).reshape(3, b, l, d))
    qh, kh, vh = (_split_heads(p, heads) for p in qkv)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    probs = _softmax(np.matmul(qh, kh.transpose(0, 1, 3, 2),
                               out=ws and ws.take(f"{prefix}.probs", b, heads, l, l)), scale)
    merged = _merged_matmul(probs, vh, ws and ws.take(f"{prefix}.merged", b, l, d))
    out = _linear(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"],
                  ws and ws.take("tmp", b, l, d))
    if cache is not None:
        cache[prefix] = (x, qkv, qh, kh, vh, probs, merged, scale)
    return out


def _attention_backward(params: dict, prefix: str, dout: np.ndarray, cache: dict,
                        grads: dict, ws: Workspace, heads: int):
    x, qkv, qh, kh, vh, probs, merged, scale = cache[prefix]
    b, l, d = x.shape
    dmerged = _linear_back(merged, dout, params, grads, f"{prefix}.wo", f"{prefix}.bo", merged)
    dctx = _split_heads(dmerged, heads)
    # dscores = probs (dprobs - sum(dprobs probs)), in the buffer of dprobs
    dscores = np.matmul(dctx, vh.transpose(0, 1, 3, 2),
                        out=ws.take("attn.dscores", b, heads, l, l))
    dscores -= np.multiply(dscores, probs, out=ws.take("tmp", b, heads, l, l)).sum(
        axis=-1, keepdims=True)
    dscores *= probs
    # dq, dk and dv over q, k and v, each once its last product has read it
    dq = _merged_matmul(dscores, kh, ws.take("tmp", b, l, d))
    _merged_matmul(dscores.transpose(0, 1, 3, 2), qh, qkv[1])
    qkv[0] = dq
    _merged_matmul(probs.transpose(0, 1, 3, 2), dctx, qkv[2])
    qkv[:2] *= scale
    x2, dqkv = x.reshape(-1, d), qkv.reshape(3, -1, d)
    np.matmul(x2.T, dqkv, out=grads[f"{prefix}.wqkv"])
    grads[f"{prefix}.bqkv"][...] = dqkv.sum(axis=1)
    x2.fill(0.0)                       # 0.0 + a turns a's -0.0 into 0.0, as np.zeros_like did
    for dp, w in zip(dqkv, params[f"{prefix}.wqkv"]):
        x2 += np.matmul(dp, w.T, out=dq.reshape(-1, d))
    return x


def _mlp_forward(params: dict, prefix: str, x: np.ndarray, cache: dict | None,
                 ws: Workspace | None):
    b, l, d = x.shape
    mf = params[f"{prefix}.b1"].shape[0]
    pre = _linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"],
                  ws and ws.take(f"{prefix}.pre", b, l, mf))
    act, term = _gelu(pre, ws and ws.take("act", b, l, mf),
                      ws and ws.take(f"{prefix}.term", b, l, mf))
    # the tanh term replaces `act` in the cache: the backward pass rebuilds act
    # from it with one product, and the cache stays the size it was
    if cache is not None:
        cache[prefix] = (x, pre, term)
    del pre, term                   # uncached, both are freed before the output is allocated
    return _linear(act, params[f"{prefix}.w2"], params[f"{prefix}.b2"],
                   ws and ws.take("tmp", b, l, d))


def _mlp_backward(params: dict, prefix: str, dout: np.ndarray, cache: dict, grads: dict,
                  ws: Workspace):
    x, pre, term = cache[prefix]
    b, l, mf = pre.shape
    act = np.multiply(0.5, pre, out=ws.take("act", b, l, mf))
    act *= term
    dact = _linear_back(act, dout, params, grads, f"{prefix}.w2", f"{prefix}.b2", act)
    dact *= _gelu_grad(pre, term, ws.take("mlp.dgelu", b, l, mf), ws.take("tmp", b, l, mf))
    return _linear_back(x, dact, params, grads, f"{prefix}.w1", f"{prefix}.b1", x)


def _residual(params: dict, ln: str, layer, prefix: str, x: np.ndarray,
              cache: dict | None, ws: Workspace | None, *extra):
    """Pre-norm residual sub-layer x + layer(LN(x)), `layer` being
    `_attention_forward` or `_mlp_forward` (with `extra` after its workspace),
    written over x, whose value nothing reads after. LN(x) goes into the role
    `attn.y` or `mlp.y` that all attention or all MLP sub-layers share, and
    `_residual_back` rebuilds it from the cached xhat.

    Stores what the backward pass needs in `cache`; None keeps nothing alive.
    """
    b, l, d = x.shape
    y, ctx = _layernorm(x, params[f"{ln}.g"], params[f"{ln}.b"],
                        ws and ws.take(f"{ln}.xhat", b, l, d),
                        ws and ws.take(prefix.rpartition(".")[2] + ".y", b, l, d))
    if cache is not None:
        cache[ln] = ctx
    del ctx                         # uncached, it is freed before the layer runs
    x += layer(params, prefix, y, cache, ws, *extra)   # a + b == b + a, bit for bit
    return x


def _residual_back(params: dict, ln: str, layer_back, prefix: str, dout: np.ndarray,
                   cache: dict, grads: dict, ws: Workspace, *extra):
    """dx of `_residual`, `layer_back` being the backward of its layer. Each
    gradient is written over the input activation of its layer, which the
    backward pass no longer needs.

    First rebuilds the layer's input LN(x), first in the layer's cache, which
    a later sub-layer of its kind wrote over. Its role is never dout's: every
    sub-layer returns its dx in its input's role, `attn.y` or `mlp.y`, and
    dout arrives in the stream's buffer or, for an attention sub-layer, in the
    `mlp.y` of the MLP after it."""
    b, l, d = dout.shape
    y = np.multiply(params[f"{ln}.g"], cache[ln][0], out=cache[prefix][0])   # as `_layernorm`
    y += params[f"{ln}.b"]
    dy = layer_back(params, prefix, dout, cache, grads, ws, *extra)
    dx = _layernorm_back(params, ln, dy, cache, grads, dy, ws.take("tmp", b, l, d))
    dx += dout
    return dx


def _concat(up: np.ndarray, alpha: np.ndarray, enc: np.ndarray,
            out: np.ndarray | None) -> np.ndarray:
    """concat(up, alpha enc) on the last axis, into `out` when given."""
    b, l, d = up.shape
    cat = np.empty((b, l, 2 * d)) if out is None else out
    cat[..., :d] = up
    np.multiply(alpha, enc, out=cat[..., d:])
    return cat


def split_params(config: DenoiserConfig, weights: np.ndarray) -> dict[str, np.ndarray]:
    """Every tensor as a view into `weights`, in `param_shapes` order."""
    if weights.shape != (param_count(config),):
        raise ValueError(f"weight vector shape {weights.shape} != ({param_count(config)},)")
    params, start = {}, 0
    for name, shape in param_shapes(config).items():
        size = math.prod(shape)
        params[name] = weights[start:start + size].reshape(shape)
        start += size
    return params


def init_weights(config: DenoiserConfig, seed: int) -> np.ndarray:
    """Seeded weight vector, by each tensor's name: a layernorm gain (".g…")
    one, a bias (".b…") zero, and any other tensor standard normal over
    sqrt(fan-in), its shape[-2], drawn in layout order."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(param_count(config))
    for name, tensor in split_params(config, weights).items():
        kind = name.rpartition(".")[2][0]
        if kind == "g":
            tensor[...] = 1.0
        elif kind != "b":
            tensor[...] = rng.standard_normal(tensor.shape) / math.sqrt(tensor.shape[-2])
    return weights


def forward(params: dict, config: DenoiserConfig, m_t: np.ndarray, t: np.ndarray,
            s: np.ndarray, cache: dict | None = None,
            workspace: Workspace | None = None) -> np.ndarray:
    """Predict the injected noise. m_t: (B, L, F); t: (B,); s: (B, C).

    Fills `cache` with what `loss_and_grads` needs; without one, each
    intermediate is freed as soon as the next layer has used it. With a
    `workspace`, each activation the size of the sequences or larger goes
    into its buffers, and the next call overwrites it.
    """
    b, l, f = m_t.shape
    if l % 2 != 0 or l < 2:
        raise ValueError(f"sequence length must be even and >= 2, got {l}")
    if f != config.feature_dim:
        raise ValueError(f"expected {config.feature_dim} features, got {f}")
    if s.shape != (b, config.cond_dim):
        raise ValueError(f"condition shape {s.shape} != ({b}, {config.cond_dim})")
    ws = workspace            # without one, each `ws and ws.take(...)` below is None
    if ws is not None and b > ws.rows:
        raise ValueError(f"batch of {b} sequences > the workspace's {ws.rows} rows")
    heads, d, a = config.heads, config.d_model, config.gate_dim

    sin_emb = timestep_embedding(t, d)
    temb = _linear(sin_emb, params["time.w"], params["time.b"])
    semb = _linear(s, params["cond.w"], params["cond.b"])
    h = _linear(m_t, params["in.w"], params["in.b"], ws and ws.take("h", b, l, d))
    h += temb[:, None, :]
    h += semb[:, None, :]

    enc = _residual(params, "enc.ln1", _attention_forward, "enc.attn", h, cache, ws, heads)
    enc = _residual(params, "enc.ln2", _mlp_forward, "enc.mlp", enc, cache, ws)
    down = np.add(enc[:, 0::2, :], enc[:, 1::2, :], out=ws and ws.take("down", b, l // 2, d))
    down *= 0.5
    bot = _residual(params, "bot.ln1", _attention_forward, "bot.attn", down, cache, ws, heads)
    bot = _residual(params, "bot.ln2", _mlp_forward, "bot.mlp", bot, cache, ws)
    up = ws and ws.take("up", b, l, d)
    up = np.empty((b, l, d)) if up is None else up
    up.reshape(b, l // 2, 2, d)[...] = bot[:, :, None, :]         # each row twice

    gpre = np.matmul(up, params["gate.wg"], out=ws and ws.take("gact", b, l, a))
    gpre += np.matmul(enc, params["gate.wx"], out=ws and ws.take("tmp", b, l, a))
    gpre += params["gate.b"]
    gact = tanh(gpre, out=gpre)
    zpsi = gact @ params["gate.psi"] + params["gate.bpsi"]
    alpha = logistic(zpsi)
    # in the MLPs' `act`, dead from the bottleneck's MLP to the decoder's
    cat = _concat(up, alpha, enc, ws and ws.take("act", b, l, 2 * d))
    if cache is not None:
        cache.update(m_t=m_t, sin_emb=sin_emb, s=s, enc=enc, up=up, gact=gact, alpha=alpha)
    del enc, up, gpre, gact              # the cache, if any, holds what backward needs

    mrg = _linear(cat, params["merge.w"], params["merge.b"], ws and ws.take("mrg", b, l, d))
    del cat
    dec = _residual(params, "dec.ln", _mlp_forward, "dec.mlp", mrg, cache, ws)
    if cache is not None:
        cache["dec"] = dec
    return _linear(dec, params["out.w"], params["out.b"])


def loss_and_grads(params: dict, config: DenoiserConfig, m_t: np.ndarray,
                   t: np.ndarray, s: np.ndarray, target: np.ndarray,
                   workspace: Workspace | None = None):
    """Mean squared error against the true noise, and its gradient as one
    vector in the weight vector's layout. With a `workspace`, the pass runs in
    its buffers and the gradient returned is its `grad`, overwritten by the
    next call; without one, in a workspace of its own."""
    b, l, _ = m_t.shape
    ws = Workspace(config, b) if workspace is None else workspace
    cache: dict = {}
    out = forward(params, config, m_t, t, s, cache, ws)
    diff = out - target
    loss = float(np.mean(diff * diff))
    grads = ws.grads
    dout = 2.0 * diff / diff.size
    heads, d, a_dim = config.heads, config.d_model, config.gate_dim

    # as in `_residual_back`, most gradients overwrite a layer's input activation
    ddec = _linear_back(cache["dec"], dout, params, grads, "out.w", "out.b", cache["dec"])
    dmrg = _residual_back(params, "dec.ln", _mlp_backward, "dec.mlp", ddec, cache, grads, ws)
    enc, up, gact, alpha = cache["enc"], cache["up"], cache["gact"], cache["alpha"]
    cat = _concat(up, alpha, enc, ws.take("act", b, l, 2 * d))   # the decoder's MLP reused it
    dcat = _linear_back(cat, dmrg, params, grads, "merge.w", "merge.b", cat)
    dup = dcat[..., :d]
    dgated = dcat[..., d:]

    tmp = ws.take("tmp", b, l, d)
    dalpha = np.multiply(dgated, enc, out=tmp).sum(axis=-1, keepdims=True)
    dzpsi = dalpha * alpha * (1.0 - alpha)
    gtmp = np.multiply(gact, gact, out=ws.take("tmp", b, l, a_dim))
    np.subtract(1.0, gtmp, out=gtmp)
    dgpre = _linear_back(gact, dzpsi, params, grads, "gate.psi", "gate.bpsi", gact)
    dgpre *= gtmp
    np.matmul(up.reshape(-1, d).T, dgpre.reshape(-1, a_dim), out=grads["gate.wg"])
    np.matmul(enc.reshape(-1, d).T, dgpre.reshape(-1, a_dim), out=grads["gate.wx"])
    grads["gate.b"][...] = dgpre.reshape(-1, a_dim).sum(axis=0)
    denc = np.multiply(dgated, alpha, out=enc)      # enc's last read was gate.wx's
    dup += np.matmul(dgpre, params["gate.wg"].T, out=tmp)
    denc += np.matmul(dgpre, params["gate.wx"].T, out=tmp)

    # into the bottleneck stream's buffer, dead since `up` copied it
    dbot = np.add(dup[:, 0::2, :], dup[:, 1::2, :], out=ws.take("down", b, l // 2, d))
    dbot = _residual_back(params, "bot.ln2", _mlp_backward, "bot.mlp", dbot, cache, grads, ws)
    ddown = _residual_back(params, "bot.ln1", _attention_backward, "bot.attn", dbot, cache,
                           grads, ws, heads)
    ddown *= 0.5
    denc[:, 0::2, :] += ddown
    denc[:, 1::2, :] += ddown
    denc = _residual_back(params, "enc.ln2", _mlp_backward, "enc.mlp", denc, cache, grads, ws)
    dh = _residual_back(params, "enc.ln1", _attention_backward, "enc.attn", denc, cache,
                        grads, ws, heads)

    dtemb = dh.sum(axis=1)
    _linear_back(cache["sin_emb"], dtemb, params, grads, "time.w", "time.b")
    _linear_back(cache["s"], dtemb, params, grads, "cond.w", "cond.b")
    _linear_back(cache["m_t"], dh, params, grads, "in.w", "in.b")
    return loss, ws.grad


class AttentionGatedDenoiser:
    """Stateful wrapper: config, one weight vector, its per-tensor views
    (`params`), and a counter of the sequences `predict` has denoised."""

    def __init__(self, config: DenoiserConfig, seed: int = 0,
                 weights: np.ndarray | None = None):
        self.config = config
        self.weights = weights if weights is not None else init_weights(config, seed)
        self.params = split_params(config, self.weights)
        self.step_count = 0
        self.call_count = 0

    def predict(self, m_t: np.ndarray, t, s, workspace: Workspace | None = None) -> np.ndarray:
        """Noise prediction for one sequence (L, F) or a batch (B, L, F), the
        batch's activations in `workspace` if given (see `forward`)."""
        m_t = np.asarray(m_t, dtype=np.float64)
        s_arr = np.asarray(s, dtype=np.float64)
        single = m_t.ndim == 2
        if single:                  # t is one step, s one condition vector
            m_t, s_arr = m_t[None], s_arr.reshape(1, -1)
        else:
            t = np.full(len(m_t), t, dtype=np.float64)
            s_arr = np.broadcast_to(s_arr, (len(m_t), s_arr.size)) if s_arr.ndim == 1 else s_arr
        out = forward(self.params, self.config, m_t, t, s_arr, workspace=workspace)
        self.call_count += len(m_t)
        if not np.isfinite(out).all():
            raise NumericalError("denoiser produced non-finite activations")
        return out[0] if single else out


def analytic_gradient_check(model: AttentionGatedDenoiser, m_t: np.ndarray,
                            t: np.ndarray, s: np.ndarray, target: np.ndarray,
                            fd_step: float = 1e-4) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs every element of the weight vector, so keep the model tiny
    (d_model <= 16) and the probe batch small.
    """
    weights, params, config = model.weights, model.params, model.config
    _, grad = loss_and_grads(params, config, m_t, t, s, target)

    def loss_at() -> float:
        out = forward(params, config, m_t, t, s)
        diff = out - target
        return float(np.mean(diff * diff))

    max_rel = 0.0
    for i in range(weights.size):
        orig = weights[i]
        weights[i] = orig + fd_step
        hi = loss_at()
        weights[i] = orig - fd_step
        lo = loss_at()
        weights[i] = orig
        fd = (hi - lo) / (2.0 * fd_step)
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
        if rel > max_rel:
            max_rel = rel
    return max_rel
