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
    -> MLP block -> output projection

Everything is float64 numpy with hand-written backpropagation; gradients are
validated against central finite differences (see analytic_gradient_check).
The weights are one vector laid out by `param_shapes`: `init_weights` builds
it, `split_params` views it tensor by tensor, and `loss_and_grads` returns the
gradient as a vector in the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..errors import NumericalError, check

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5


@dataclass(frozen=True)
class DenoiserConfig:
    """Shapes of the network. d_model must be even, divisible by heads and at
    most 1024, where the weights take ~200 MB (four times that in training)."""

    feature_dim: int = 6
    cond_dim: int = 4
    d_model: int = 64
    heads: int = 4
    mlp_ratio: int = 2

    def __post_init__(self):
        for name in ("feature_dim", "cond_dim", "d_model", "heads", "mlp_ratio"):
            check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))
        check(self.d_model <= 1024, "d_model", "at most 1024", self.d_model)
        check(self.d_model % 2 == 0, "d_model", "even", self.d_model)
        check(self.d_model % self.heads == 0, "d_model", f"divisible by heads ({self.heads})",
              self.d_model)

    @property
    def gate_dim(self) -> int:
        return max(1, self.d_model // 2)


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape (B, dim)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(10_000.0) * np.arange(half, dtype=np.float64) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def _gelu(x: np.ndarray):
    """GELU(x) and the 1 + erf(x / sqrt 2) term its gradient reuses."""
    erf_term = 1.0 + erf(x / _SQRT2)
    return 0.5 * x * erf_term, erf_term


def _gelu_grad(x: np.ndarray, erf_term: np.ndarray) -> np.ndarray:
    return 0.5 * erf_term + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def _linear_back(x: np.ndarray, dy: np.ndarray, params: dict, grads: dict,
                 w: str, b: str) -> np.ndarray:
    """dx for y = x @ params[w] + params[b] with arbitrary leading axes;
    writes the weight and bias gradients into grads[w] and grads[b]."""
    din, dout = params[w].shape
    x2 = x.reshape(-1, din)
    dy2 = dy.reshape(-1, dout)
    grads[w][...] = x2.T @ dy2
    grads[b][...] = dy2.sum(axis=0)
    return (dy2 @ params[w].T).reshape(x.shape)


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layernorm_back(params: dict, prefix: str, dy: np.ndarray, cache: dict, grads: dict):
    xhat, inv = cache[prefix]
    grads[f"{prefix}.g"][...] = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    grads[f"{prefix}.b"][...] = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dxhat = dy * params[f"{prefix}.g"]
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _attention_forward(params: dict, prefix: str, x: np.ndarray, heads: int,
                       cache: dict | None):
    q = _linear(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = _linear(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v = _linear(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores)
    probs = ex / ex.sum(axis=-1, keepdims=True)
    ctx = probs @ vh
    merged = _merge_heads(ctx)
    out = _linear(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    if cache is not None:
        cache[prefix] = (x, qh, kh, vh, probs, merged, scale)
    return out


def _attention_backward(params: dict, prefix: str, dout: np.ndarray, heads: int,
                        cache: dict, grads: dict):
    x, qh, kh, vh, probs, merged, scale = cache[prefix]
    dmerged = _linear_back(merged, dout, params, grads, f"{prefix}.wo", f"{prefix}.bo")
    dctx = _split_heads(dmerged, heads)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dqh = (dscores @ kh) * scale
    dkh = (dscores.transpose(0, 1, 3, 2) @ qh) * scale
    dx = np.zeros_like(x)
    for name, dh in (("q", dqh), ("k", dkh), ("v", dvh)):
        dx += _linear_back(x, _merge_heads(dh), params, grads,
                           f"{prefix}.w{name}", f"{prefix}.b{name}")
    return dx


def _mlp_forward(params: dict, prefix: str, x: np.ndarray, cache: dict | None):
    pre = _linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    act, erf_term = _gelu(pre)
    # the erf term replaces `act` in the cache: the backward pass rebuilds act
    # from it with one product, and the cache stays the size it was
    if cache is not None:
        cache[prefix] = (x, pre, erf_term)
    return _linear(act, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _mlp_backward(params: dict, prefix: str, dout: np.ndarray, cache: dict, grads: dict):
    x, pre, erf_term = cache[prefix]
    act = 0.5 * pre * erf_term
    dact = _linear_back(act, dout, params, grads, f"{prefix}.w2", f"{prefix}.b2")
    dpre = dact * _gelu_grad(pre, erf_term)
    return _linear_back(x, dpre, params, grads, f"{prefix}.w1", f"{prefix}.b1")


def _block_forward(params: dict, prefix: str, x: np.ndarray, heads: int,
                   cache: dict | None):
    """Pre-norm transformer block: x + attn(LN(x)), then + mlp(LN(.)).

    Stores what the backward pass needs in `cache`; None keeps nothing alive.
    """
    ln1, ctx1 = _layernorm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    h1 = x + _attention_forward(params, f"{prefix}.attn", ln1, heads, cache)
    ln2, ctx2 = _layernorm(h1, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    if cache is not None:
        cache[f"{prefix}.ln1"] = ctx1
        cache[f"{prefix}.ln2"] = ctx2
    return h1 + _mlp_forward(params, f"{prefix}.mlp", ln2, cache)


def _block_backward(params: dict, prefix: str, dout: np.ndarray, heads: int,
                    cache: dict, grads: dict):
    dln2 = _mlp_backward(params, f"{prefix}.mlp", dout, cache, grads)
    dh1 = _layernorm_back(params, f"{prefix}.ln2", dln2, cache, grads) + dout
    dln1 = _attention_backward(params, f"{prefix}.attn", dh1, heads, cache, grads)
    return _layernorm_back(params, f"{prefix}.ln1", dln1, cache, grads) + dh1


def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor the network with this config holds, in the order
    the tensors sit in its weight vector."""
    d, f, c = config.d_model, config.feature_dim, config.cond_dim
    mf = config.d_model * config.mlp_ratio
    a = config.gate_dim
    shapes = {
        "in.w": (f, d), "in.b": (d,),
        "time.w": (d, d), "time.b": (d,),
        "cond.w": (c, d), "cond.b": (d,),
        "gate.wg": (d, a), "gate.wx": (d, a), "gate.b": (a,),
        "gate.psi": (a, 1), "gate.bpsi": (1,),
        "merge.w": (2 * d, d), "merge.b": (d,),
        "dec.ln.g": (d,), "dec.ln.b": (d,),
        "dec.mlp.w1": (d, mf), "dec.mlp.b1": (mf,),
        "dec.mlp.w2": (mf, d), "dec.mlp.b2": (d,),
        "out.w": (d, f), "out.b": (f,),
    }
    for prefix in ("enc", "bot"):
        for ln in ("ln1", "ln2"):
            shapes[f"{prefix}.{ln}.g"] = shapes[f"{prefix}.{ln}.b"] = (d,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{name}"] = (d, d)
        for name in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.attn.{name}"] = (d,)
        shapes[f"{prefix}.mlp.w1"], shapes[f"{prefix}.mlp.b1"] = (d, mf), (mf,)
        shapes[f"{prefix}.mlp.w2"], shapes[f"{prefix}.mlp.b2"] = (mf, d), (d,)
    return shapes


def param_count(config: DenoiserConfig) -> int:
    """Length of the weight vector of the network with this config."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


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
    """Seeded weight vector: each matrix standard normal over sqrt(fan-in),
    drawn in layout order; layernorm gains (".g") one; biases zero."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(param_count(config))
    for name, tensor in split_params(config, weights).items():
        if tensor.ndim == 2:
            tensor[...] = rng.standard_normal(tensor.shape) / math.sqrt(tensor.shape[0])
        elif name.endswith(".g"):
            tensor[...] = 1.0
    return weights


def forward(params: dict, config: DenoiserConfig, m_t: np.ndarray, t: np.ndarray,
            s: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Predict the injected noise. m_t: (B, L, F); t: (B,); s: (B, C).

    Fills `cache` with what `loss_and_grads` needs; without one, each
    intermediate is freed as soon as the next layer has used it.
    """
    b, l, f = m_t.shape
    if l % 2 != 0 or l < 2:
        raise ValueError(f"sequence length must be even and >= 2, got {l}")
    if f != config.feature_dim:
        raise ValueError(f"expected {config.feature_dim} features, got {f}")
    if s.shape != (b, config.cond_dim):
        raise ValueError(f"condition shape {s.shape} != ({b}, {config.cond_dim})")
    heads = config.heads

    sin_emb = timestep_embedding(t, config.d_model)
    temb = _linear(sin_emb, params["time.w"], params["time.b"])
    semb = _linear(s, params["cond.w"], params["cond.b"])
    h = _linear(m_t, params["in.w"], params["in.b"]) + temb[:, None, :] + semb[:, None, :]

    enc = _block_forward(params, "enc", h, heads, cache)
    down = 0.5 * (enc[:, 0::2, :] + enc[:, 1::2, :])
    up = np.repeat(_block_forward(params, "bot", down, heads, cache), 2, axis=1)

    gpre = up @ params["gate.wg"] + enc @ params["gate.wx"] + params["gate.b"]
    gact = np.tanh(gpre)
    zpsi = gact @ params["gate.psi"] + params["gate.bpsi"]
    alpha = 1.0 / (1.0 + np.exp(-zpsi))
    cat = np.concatenate([up, alpha * enc], axis=-1)
    if cache is not None:
        cache.update(m_t=m_t, sin_emb=sin_emb, s=s, enc=enc, up=up, gact=gact,
                     alpha=alpha, cat=cat)
    del enc, up, gpre, gact              # the cache, if any, holds what backward needs

    mrg = _linear(cat, params["merge.w"], params["merge.b"])
    del cat
    dln, dctx = _layernorm(mrg, params["dec.ln.g"], params["dec.ln.b"])
    dec = mrg + _mlp_forward(params, "dec.mlp", dln, cache)
    if cache is not None:
        cache["dec"] = dec
        cache["dec.ln"] = dctx
    return _linear(dec, params["out.w"], params["out.b"])


def loss_and_grads(params: dict, config: DenoiserConfig, m_t: np.ndarray,
                   t: np.ndarray, s: np.ndarray, target: np.ndarray):
    """Mean squared error against the true noise, and its gradient as one
    vector in the weight vector's layout."""
    cache: dict = {}
    out = forward(params, config, m_t, t, s, cache)
    diff = out - target
    loss = float(np.mean(diff * diff))
    grad = np.zeros(param_count(config))
    grads = split_params(config, grad)
    dout = 2.0 * diff / diff.size

    ddec = _linear_back(cache["dec"], dout, params, grads, "out.w", "out.b")
    ddln = _mlp_backward(params, "dec.mlp", ddec, cache, grads)
    dmrg = _layernorm_back(params, "dec.ln", ddln, cache, grads) + ddec
    dcat = _linear_back(cache["cat"], dmrg, params, grads, "merge.w", "merge.b")
    d = config.d_model
    dup = dcat[..., :d].copy()
    dgated = dcat[..., d:]

    enc, up, gact, alpha = cache["enc"], cache["up"], cache["gact"], cache["alpha"]
    dalpha = (dgated * enc).sum(axis=-1, keepdims=True)
    denc = dgated * alpha
    dzpsi = dalpha * alpha * (1.0 - alpha)
    dgact = _linear_back(gact, dzpsi, params, grads, "gate.psi", "gate.bpsi")
    dgpre = dgact * (1.0 - gact * gact)
    dup += dgpre @ params["gate.wg"].T
    denc = denc + dgpre @ params["gate.wx"].T
    a_dim = params["gate.b"].shape[0]
    grads["gate.wg"][...] = up.reshape(-1, d).T @ dgpre.reshape(-1, a_dim)
    grads["gate.wx"][...] = enc.reshape(-1, d).T @ dgpre.reshape(-1, a_dim)
    grads["gate.b"][...] = dgpre.reshape(-1, a_dim).sum(axis=0)

    dbot = dup[:, 0::2, :] + dup[:, 1::2, :]
    ddown = _block_backward(params, "bot", dbot, config.heads, cache, grads)
    denc[:, 0::2, :] += 0.5 * ddown
    denc[:, 1::2, :] += 0.5 * ddown
    dh = _block_backward(params, "enc", denc, config.heads, cache, grads)

    dtemb = dh.sum(axis=1)
    _linear_back(cache["sin_emb"], dtemb, params, grads, "time.w", "time.b")
    _linear_back(cache["s"], dtemb, params, grads, "cond.w", "cond.b")
    _linear_back(cache["m_t"], dh, params, grads, "in.w", "in.b")
    return loss, grad


class AttentionGatedDenoiser:
    """Stateful wrapper: config, one weight vector, its per-tensor views
    (`params`), and a denoiser-call counter."""

    def __init__(self, config: DenoiserConfig, seed: int = 0,
                 weights: np.ndarray | None = None):
        self.config = config
        self.weights = weights if weights is not None else init_weights(config, seed)
        self.params = split_params(config, self.weights)
        self.step_count = 0
        self.call_count = 0

    def predict(self, m_t: np.ndarray, t, s) -> np.ndarray:
        """Noise prediction for one sequence (L, F) or a batch (B, L, F)."""
        m_t = np.asarray(m_t, dtype=np.float64)
        single = m_t.ndim == 2
        if single:
            m_t = m_t[None]
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if t_arr.shape[0] == 1 and m_t.shape[0] > 1:
            t_arr = np.full(m_t.shape[0], t_arr[0])
        s_arr = np.asarray(s, dtype=np.float64)
        if s_arr.ndim == 1:
            s_arr = np.broadcast_to(s_arr, (m_t.shape[0], s_arr.shape[0]))
        out = forward(self.params, self.config, m_t, t_arr, s_arr)
        self.call_count += 1
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
