"""Versioned per-node random streams shared by both execution engines.

Every node draws from a private, reproducible stream derived from the
master seed.  Two stream formats exist, selected by the ``rng=`` argument
that :class:`repro.sim.network.Simulator`, the vectorized engines, and
every layer above them accept:

``"pernode"`` (v1, the default)
    One :class:`random.Random` per node, string-seeded with
    ``f"repro|{seed}|{node_id}"`` (SHA-512 under the hood -- stable across
    processes and platforms).  This is the original stream format; every
    seed recorded before the ``batched`` stream existed replays under it.
    Constructing the per-node ``Random`` objects is the format's cost:
    one SHA-512 of a fresh string per node, which profiles at ~40% of a
    vectorized run on mid-size graphs.

``"batched"`` (v2)
    A counter-based stream: draw ``j`` of node index ``i`` is
    ``mix64(key + (i << 32) + j)`` where ``key`` is derived from the master
    seed once per run and ``mix64`` is the splitmix64 finalizer.  Because a
    draw is a pure function of ``(key, node index, counter)``, whole arrays
    of randomness come out of a handful of numpy passes -- no per-node
    object construction at all -- and the generator engine consumes the
    *same* values through the :class:`CounterRNG` facade, so cross-engine
    bit-for-bit equivalence holds under v2 exactly as it does under v1.

The two formats are **deliberately incompatible**: the same master seed
produces different executions under v1 and v2.  That break is the point --
a seed-compatible batched stream would have to replay SHA-512 string
seeding and the Mersenne Twister, forfeiting the vectorization win.  The
format is versioned (:data:`STREAM_VERSIONS`) so results can always be
pinned: record ``rng="pernode"`` or ``rng="batched"`` next to the seed.

v2 stream definition (normative)
--------------------------------
* node index = the node's position in the sorted node-id order (both
  engines sort node ids identically);
* ``key = sha256(f"repro|rng-v2|{seed}")[:8]`` as a little-endian uint64;
* draw ``j`` of node ``i``: ``u = mix64((key + (i << 32) + j) mod 2^64)``
  -- distinct ``(i, j)`` give distinct inputs (``i, j < 2^32``), and the
  finalizer is a bijection, so draws never collide for one key;
* ``random()  = (u >> 11) * 2^-53``  (53-bit mantissa, uniform in [0, 1));
* ``randrange(b) = u mod b``  (for ``b >= 2^64`` this is ``u`` itself;
  the modulo bias is < 2^-11 for every bound the algorithms use);
* ``getrandbits(k)`` takes the top ``k`` of one draw (``k <= 64``), or
  little-endian-concatenates ``ceil(k/64)`` draws.
"""

from __future__ import annotations

import gc
import hashlib
import random
from _random import Random as _CoreRandom
from typing import Any, Callable, List, Optional

import numpy as np

#: Known stream formats, in version order.
RNG_STREAMS = ("pernode", "batched")

#: Stream name -> format version number.
STREAM_VERSIONS = {"pernode": 1, "batched": 2}

#: The default stream: v1, the original per-node format.
DEFAULT_STREAM = "pernode"

_MASK64 = (1 << 64) - 1
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def validate_stream(rng: str) -> str:
    """Return ``rng`` if it names a known stream format, else raise."""
    if rng not in RNG_STREAMS:
        raise ValueError(f"unknown rng stream {rng!r}; known: {RNG_STREAMS}")
    return rng


# ----------------------------------------------------------------------
# v1 -- "pernode": string-seeded random.Random per node.
# ----------------------------------------------------------------------


def node_rng(seed: Optional[int], node_id: Any) -> random.Random:
    """A private, reproducible v1 random stream for one node.

    Streams are derived from ``(seed, node_id)`` via string seeding, which
    Python hashes with SHA-512 -- stable across processes and platforms.
    """
    return random.Random(f"repro|{seed}|{node_id}")


def node_rng_factory(seed: Optional[int]) -> Callable[[Any], random.Random]:
    """A ``node_id -> Random`` factory with the seed prefix prebuilt.

    ``node_rng`` formats the full ``f"repro|{seed}|{node_id}"`` string per
    node; when one run constructs thousands of streams, re-rendering the
    identical ``repro|{seed}|`` prefix each time is measurable.  The
    returned closure concatenates the prefix instead, producing exactly
    the same seed strings (and therefore identical streams).
    """
    prefix = f"repro|{seed}|"
    return lambda node_id: random.Random(prefix + str(node_id))


#: Upper bound on the node count :func:`node_rng_bulk` will seed.  The v1
#: ``"pernode"`` format is inherently per-node Python work -- one SHA-512
#: and one Mersenne--Twister init each, ~2.5 us/node even bulk-seeded --
#: so seeding alone would cost minutes at 10^8 nodes and the stream list
#: would hold ~10^8 live objects (~250 GB at ~2.5 KB of state each).
#: Past this threshold the run belongs on the v2 counter-based stream
#: (``rng="batched"``), whose coins are drawn as whole arrays with no
#: per-node state at all; the bound refuses the footgun loudly instead
#: of hanging.  Sized one decade above the largest measured pernode run
#: (10^7, ``BENCH_scale_1e7``) and below the 10^8 decade that motivated
#: it.
PERNODE_SEED_MAX_NODES = 50_000_000


def node_rng_bulk(seed: Optional[int], node_ids: Any) -> List[Any]:
    """Every node's v1 stream at once, bit-for-bit equal to :func:`node_rng`.

    The closure of :func:`node_rng_factory` already amortizes the prefix
    *string*; what it cannot amortize is everything CPython layers on top
    of each ``random.Random(str)`` construction.  Profiled at n = 10^6,
    the SHA-512 itself is a sideshow (~1.5 us of ~27 us per node) -- the
    real costs are (a) every ``random.Random`` instance being tracked by
    the cyclic garbage collector, whose generational scans re-walk the
    whole growing list of streams several times during construction, and
    (b) the Python-level ``Random.__init__``/``seed`` plumbing.

    This constructor removes both while keeping the *values* frozen:

    * it builds ``_random.Random`` (the untracked C base class) instances,
      seeded with the exact integer CPython's string seeding derives --
      ``int.from_bytes(s + sha512(s).digest(), "big")`` for the UTF-8
      seed string ``s`` -- so every stream is bit-for-bit the v1 stream;
    * garbage collection is paused across the construction loop (the
      instances are acyclic; nothing is lost by not scanning them).

    The returned objects expose the C primitives (``random``,
    ``getrandbits``, ``getstate``/``setstate``) but **not** the derived
    Python methods (``randrange``, ``choice``, ...); vectorized-engine
    call sites draw ranks through :func:`randbelow`, which replays
    ``Random.randrange(bound)`` exactly.  Consumers needing the full
    interface (the generator engine) keep :func:`make_node_rng`.
    """
    try:
        count = len(node_ids)
    except TypeError:
        count = None
    if count is not None and count > PERNODE_SEED_MAX_NODES:
        raise ValueError(
            f"rng='pernode' (v1) cannot scale to n={count}: bulk-seeding "
            f"one stream per node is bounded at "
            f"PERNODE_SEED_MAX_NODES={PERNODE_SEED_MAX_NODES} nodes "
            f"(per-node SHA-512 seeding time and ~2.5 KB of stream "
            f"state per node) -- run this size on the v2 counter-based "
            f"stream with rng='batched', which draws coins as whole "
            f"arrays with no per-node state"
        )
    prefix = f"repro|{seed}|".encode()
    sha512 = hashlib.sha512
    from_bytes = int.from_bytes
    out: List[Any] = []
    append = out.append
    enabled = gc.isenabled()
    gc.disable()
    try:
        for node_id in node_ids:
            # UTF-8 is concatenative, so prefix + str(node_id).encode()
            # equals f"repro|{seed}|{node_id}".encode(); %d short-cuts the
            # dominant int-id case (bool is an int subclass that must
            # render as "True"/"False", so it takes the str path).
            if type(node_id) is int:
                s = prefix + b"%d" % node_id
            else:
                s = prefix + str(node_id).encode()
            append(_CoreRandom(from_bytes(s + sha512(s).digest(), "big")))
    finally:
        if enabled:
            gc.enable()
    return out


def randbelow(rng: Any, bound: int) -> int:
    """``rng.randrange(bound)`` via ``getrandbits``, for the bulk streams.

    Replays CPython's ``Random._randbelow_with_getrandbits`` exactly --
    draw ``bit_length(bound)`` bits, retry while the draw reaches
    ``bound`` -- so a ``_random.Random`` from :func:`node_rng_bulk`
    consumes the same underlying Mersenne--Twister words, and lands at
    the same stream position, as ``random.Random.randrange`` would.
    """
    if bound <= 0:
        raise ValueError(f"empty range for randbelow({bound})")
    k = bound.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= bound:
        r = getrandbits(k)
    return r


# ----------------------------------------------------------------------
# v2 -- "batched": counter-based splitmix64 substreams.
# ----------------------------------------------------------------------


def stream_key(seed: Optional[int]) -> int:
    """The run-level uint64 key of the v2 stream for ``seed``.

    Derived by hashing once per *run* (not per node); accepts anything
    ``str()``-able, mirroring v1's handling of arbitrary seeds.
    """
    digest = hashlib.sha256(f"repro|rng-v2|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def graph_stream_key(seed: Optional[int]) -> int:
    """The uint64 key of the v2 *graph-sampling* stream for ``seed``.

    Domain-separated from the node streams (``repro|graph-v2|`` vs
    ``repro|rng-v2|``), so a graph sampled and a protocol run under the
    same master seed never share draws.  Graph-sampling draw ``j`` is
    ``mix64((key + j) mod 2^64)`` -- one flat counter stream, no per-node
    substreams; see :func:`repro.graphs.arrays.gnp_arrays_v2` for the
    normative skip-sampling format built on it.
    """
    digest = hashlib.sha256(f"repro|graph-v2|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def mix64(x: int) -> int:
    """The splitmix64 finalizer on a Python int (mod 2^64)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 31
    return x


def draw_u64(key: int, node_index: int, counter: int) -> int:
    """Scalar v2 draw: uint64 for ``(key, node index, counter)``."""
    return mix64(key + (node_index << 32) + counter)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (in place, returned)."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def draw_u64_array(
    key: int, node_index: np.ndarray, counter: np.ndarray
) -> np.ndarray:
    """Vectorized v2 draws; broadcasts ``node_index`` against ``counter``.

    Computes exactly :func:`draw_u64` element-wise: both sides form
    ``key + (i << 32) + j`` in wrapping uint64 arithmetic and apply the
    same finalizer.  Either operand may be a scalar (e.g. one shared
    counter for a whole index array, the lazy per-level coin draw).
    """
    x = (
        np.uint64(key & _MASK64)
        + (np.asarray(node_index).astype(np.uint64) << np.uint64(32))
        + np.asarray(counter).astype(np.uint64)
    )
    return mix64_array(x)


def u64_to_unit_float(u: np.ndarray) -> np.ndarray:
    """Map uint64 draws to floats in [0, 1) exactly as ``random()`` does."""
    return (u >> np.uint64(11)) * 2.0**-53


def u64_mod_bound(u: np.ndarray, bound: int) -> np.ndarray:
    """``u mod bound`` over a uint64 array, matching Python's ``u % bound``.

    For ``bound >= 2^64`` every uint64 is already below the bound, so the
    modulo is the identity (which is also what Python int arithmetic
    yields).  Returns uint64.
    """
    if bound >= 1 << 64:
        return u
    return u % np.uint64(bound)


def bit_length_u64(u: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length()`` over a uint64 array, as int64.

    ``floor(log2)`` of the whole value misrounds above 2^53, so each
    32-bit half is converted on its own: both convert to float64 exactly,
    and ``frexp``'s exponent of an integer below 2^53 is its bit length
    (0 for 0).  The high half, when nonzero, decides.
    """
    u = np.asarray(u, dtype=np.uint64)
    hi = (u >> np.uint64(32)).astype(np.float64)
    lo = (u & np.uint64(0xFFFFFFFF)).astype(np.float64)
    e_hi = np.frexp(hi)[1].astype(np.int64)
    e_lo = np.frexp(lo)[1].astype(np.int64)
    return np.where(hi > 0, e_hi + 32, e_lo)


class CounterRNG(random.Random):
    """v2 stream facade with the :class:`random.Random` interface.

    The generator engine hands one of these to each node as ``ctx.rng``;
    every ``random()`` / ``randrange()`` / ``getrandbits()`` call consumes
    one (or, for wide ``getrandbits``, several) counter draws.  The
    vectorized engines compute the same draws in arrays, which is what
    keeps the two engines bit-for-bit equivalent under ``rng="batched"``.

    Derived methods inherited from :class:`random.Random` (``shuffle``,
    ``choice``, ``randint``, ...) work through the overridden primitives
    and are deterministic, but only ``random``, single-argument
    ``randrange``, and ``getrandbits`` are part of the pinned v2 format.
    """

    def __init__(self, key: int, node_index: int):
        super().__init__(0)
        self._key = key
        self._node_index = node_index
        self._counter = 0

    def _next_u64(self) -> int:
        u = draw_u64(self._key, self._node_index, self._counter)
        self._counter += 1
        return u

    def random(self) -> float:
        return (self._next_u64() >> 11) * 2.0**-53

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k <= 64:
            return self._next_u64() >> (64 - k) if k else 0
        out = 0
        for word in range((k + 63) // 64):
            out |= self._next_u64() << (64 * word)
        return out & ((1 << k) - 1)

    def randrange(self, start, stop=None, step=1):
        if stop is None and step == 1:
            bound = int(start)
            if bound <= 0:
                raise ValueError(f"empty range for randrange({start})")
            return self._next_u64() % bound
        return super().randrange(start, stop, step)

    def seed(self, *args, **kwargs) -> None:  # pragma: no cover - trivial
        # The counter stream has no reseedable state; random.Random.__init__
        # calls this once during construction, which is a no-op beyond the
        # (unused) Mersenne Twister state it initializes.
        super().seed(0)

    def getstate(self):
        return (self._key, self._node_index, self._counter)

    def setstate(self, state) -> None:
        self._key, self._node_index, self._counter = state


def make_node_rng(
    rng: str, seed: Optional[int]
) -> Callable[[Any, int], random.Random]:
    """A ``(node_id, node_index) -> Random`` factory for either stream."""
    validate_stream(rng)
    if rng == "pernode":
        v1 = node_rng_factory(seed)
        return lambda node_id, node_index: v1(node_id)
    key = stream_key(seed)
    return lambda node_id, node_index: CounterRNG(key, node_index)
