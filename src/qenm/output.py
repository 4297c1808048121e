"""Every file the commands write: the CSV and JSON writers and the ``%.17g`` formatter.

The numeric modules compute and this module writes, so each file format is
decided here alone.  Floats are written as ``%.17g``, so each value reads
back as the same double; ``format_17g`` gives those bytes for a whole
array in numpy, by Dekker's error-free product where 10^-6 <= |v| < 10^17.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

from .encoding import EncodedState, active_slots
from .enm import Trajectory
from .lattice import SPARSITY, LatticeSpec, adjacency, decode_index, dummy_mask

FORMAT_CHUNK = 8192  # values per pass of ``format_17g``, whose temporaries then peak near 0.9 MB

_U = np.uint64
_FORMS = 22      # layout classes: exponent E = -4..16 written fixed (E + 4), then exponent form
_DIGITS = 18     # significant digits 0..17 (0 for a zero)
_EXACT = (-6, 16)   # the E for which 10^(16 - E) is an exact double


@cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray]:
    """The two tables of ``format_17g``, built on its first call.

    ``powers``: one column per p = 0..22, the exact double 10^p and its two
    26-bit halves.  ``layouts``: one column per layout key
    ``2 (form * _DIGITS + k) + sign``, the words of a row's mask of kept
    digits (k, or E + 1 for a fixed-form integer), its mask of the bytes
    before the decimal point, the point, the sign with the "0." and zeros
    before a fixed-form value below 1, and that prefix's length in bits.
    """
    hi = np.array([float(10 ** p) for p in range(_EXACT[1] - _EXACT[0] + 1)])
    c = hi * 134217729.0                    # 2^27 + 1: Dekker's split
    hh = c - (c - hi)
    layouts = []
    for form in range(_FORMS):
        for k in range(_DIGITS):
            E = form - 4
            if form == _FORMS - 1:
                kept, point, zeros = k, 1, b""
            elif E >= 0:
                kept, point, zeros = max(k, E + 1), E + 1, b""
            else:
                kept, point, zeros = k, 24, b"0.000"[:1 - E]   # "0." and -E - 1 zeros
            if kept <= point:
                point = 24                                     # no fraction digits: no point
            for sign in (b"", b"-"):
                front = sign + zeros
                layouts.append(b"\xff" * kept + bytes(24 - kept)
                               + b"\xff" * point + bytes(24 - point)
                               + (bytes(point) + b".")[:24].ljust(24, b"\0")
                               + front.ljust(8, b"\0") + (8 * len(front)).to_bytes(8, "little"))
    tables = (np.array([hi, hh, hi - hh]),
              np.frombuffer(b"".join(layouts), "<u8").reshape(-1, 11).T.copy())
    for t in tables:
        t.flags.writeable = False
    return tables


def _seventeen_digits(a: np.ndarray, E: np.ndarray, powers: np.ndarray):
    """The integer D nearest y = a 10^(16 - E), and y - D, for E in -6..16.

    The power is an exact double there, and a times it is exactly ph + rest
    by Dekker's product (the power split into halves in the table, a by
    2^27 + 1), so D and y - D are exact.  ph is an even integer where D has
    17 digits (10^16 > 2^53), so rint of the rest rounds y half to even, as
    dtoa does.  Any other E takes the nearest power in the table.
    """
    hi, hh, hl = np.take(powers, 16 - E, axis=1, mode="clip")
    ph = a * hi
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    rest = ah * hh
    rest -= ph          # ((ah hh - ph) + ah hl + al hh) + al hl: a hi - ph, exactly
    ah *= hl
    rest += ah
    hh *= al
    rest += hh
    al *= hl
    rest += al
    r = np.rint(rest)
    rest -= r
    D = ph.astype(np.int64)
    D += r.astype(np.int64)
    return D, rest


def _settle(a: np.ndarray, E: np.ndarray, powers: np.ndarray):
    """Exponent, 17-digit integer and certainty of values near a power of ten.

    log10 may miss E by one there, and y may round up to 10^17; E moves until
    10^16 <= y < 10^17, and a carry to 10^17 is 10^16 at E + 1.  A value is
    certain where its E then lies in -6..16.
    """
    D, d = _seventeen_digits(a, E, powers)
    for _ in range(3):
        up = (D > 10 ** 17) | ((D == 10 ** 17) & (d >= 0))
        down = (D < 10 ** 16) | ((D == 10 ** 16) & (d < 0))
        if not (up | down).any():
            break
        E = E + up - down
        D, d = _seventeen_digits(a, E, powers)
    sure = ~(up | down) & (E >= _EXACT[0]) & (E <= _EXACT[1])
    carry = D == 10 ** 17
    return np.where(carry, 10 ** 16, D), E + carry, sure


def _digit_words(m: np.ndarray) -> None:
    """Integers below 10^8, in place, as words of their 8 decimal digits, first in byte 0.

    Each word splits into two 4-digit, then four 2-digit, then eight 1-digit
    lanes; multiply-and-shift divides every lane by 100 or 10 at once.
    """
    hi = m // _U(10000)
    m <<= _U(32)
    m -= hi * _U((10000 << 32) - 1)                   # (m - 10^4 hi) << 32 | hi
    t = m * _U(10486)
    t >>= _U(20)
    t &= _U(0x7F0000007F)                             # each 4-digit lane // 100
    m <<= _U(16)
    m -= t * _U((100 << 16) - 1)                      # (m - 100 t) << 16 | t
    t = m * _U(103)
    t >>= _U(10)
    t &= _U(0x000F000F000F000F)                       # each 2-digit lane // 10
    m <<= _U(8)
    m -= t * _U((10 << 8) - 1)                        # (m - 10 t) << 8 | t


def _format_chunk(v: np.ndarray, out: np.ndarray):
    """Rows of ``format_17g`` for at most FORMAT_CHUNK values, written into the
    (n, 3) words ``out``; returns the positions left to Python, or None."""
    powers, layouts = _decimal_tables()
    a = np.abs(v)
    E = np.floor(np.log10(a)).astype(np.int64)
    D = _seventeen_digits(a, E, powers)[0]
    # certain at once: E in -6..16, where y is exact, and 10^16 < D < 10^17
    sure = (D - (10 ** 16 + 1)).view(_U) < _U(9 * 10 ** 16 - 1)
    sure &= (E - _EXACT[0]).view(_U) <= _U(_EXACT[1] - _EXACT[0])
    zero = a == 0
    if zero.any():
        D[zero] = 0
        E[zero] = 0
        sure |= zero
    python = None
    odd = np.flatnonzero(~sure)
    if odd.size:
        ao = a[odd]
        near = (ao >= 1e-7) & (ao < 1e18)       # finite, and E within one of -6..16
        Eo = np.where(near, np.clip(E[odd], *_EXACT), 0)   # log10 may have stepped out
        Do, Eo, certain = _settle(np.where(near, ao, 1.0), Eo, powers)
        left = ~(near & certain)
        Do[left] = 10 ** 16
        Eo[left] = 0
        D[odd] = Do
        E[odd] = Eo
        if left.any():
            python = odd[left]
    del a
    # digits 0-7, 8-15 and 16 of D, one byte each
    g = np.empty((3, v.size), _U)
    eights = g[:2].view(np.int64)
    np.floor_divide(D, 10 ** 9, out=eights[0])
    D -= eights[0] * 10 ** 9
    np.floor_divide(D, 10, out=eights[1])
    D -= eights[1] * 10
    g[2] = D
    del D
    _digit_words(g[:2])
    # significant digits k: 1 + the highest nonzero byte, read off the float exponent
    # ((exponent + 1) // 8 - 127 of a nonzero word, -127 of a zero one)
    top = g.astype(np.float64).view(np.int64)
    top += 1 << 52
    top >>= 55
    top += np.array([[-127], [-119], [-111]])
    k = np.maximum(top.max(axis=0), 0)
    del top
    form = np.minimum((E + 4).view(_U), _U(_FORMS - 1)).view(np.int64)
    expo = np.flatnonzero(form == _FORMS - 1)
    form *= 2 * _DIGITS
    form += 2 * k
    form += v.view(np.int64) < 0        # the layout key, sign bit last
    g |= _U(0x3030303030303030)
    g &= np.take(layouts[:3], form, axis=1)
    if expo.size:                   # "e-05" or "e-06" after the k digits
        tail = (48 - E[expo]).astype(_U) << _U(24)
        tail |= _U(0x302D65)
        b = k[expo].astype(_U) << _U(3)
        bits = np.arange(3, dtype=_U)[:, None] << _U(6)
        g[:, expo] |= (tail << (b - bits)) | (tail >> (bits - b))
    # the point: the bytes from it on move up one
    low = np.take(layouts[3:6], form, axis=1)
    low &= g
    g ^= low
    low |= g << _U(8)
    low[1:] |= g[:-1] >> _U(56)
    low |= np.take(layouts[6:9], form, axis=1)
    # the sign, "0." and zeros before it all
    shift = np.take(layouts[10], form)
    np.left_shift(low, shift, out=g)
    g[1:] |= low[:-1] >> (_U(64) - shift)
    g[0] |= np.take(layouts[9], form)
    out[...] = g.T
    return python


def format_17g(values) -> tuple[np.ndarray, np.ndarray]:
    """``'%.17g' % v`` for every float64 v, byte for byte, formatted in numpy.

    Returns the rows as an ``S24`` array (NUL-padded, so ``tolist`` gives the
    bytes) and a mask of the values it left to Python's own ``'%.17g' % v``.
    The 17 significant digits are those of CPython's correctly rounded
    conversion (Gay's dtoa): with E = floor(log10|v|), corrected by one where
    the digits fall outside [10^16, 10^17), the integer nearest
    y = |v| 10^(16 - E).  For -6 <= E <= 16, 10^(16 - E) is an exact double,
    so Dekker's error-free product gives y exactly and ties go to even, as in
    dtoa.  Python formats every other value (|v| below 10^-6 or from 10^17
    up), NaN and the infinities; zeros and -0.0 are formatted here.  The
    fixed (-4 <= E < 17) and exponent forms of %g are laid out as three
    8-byte words a row, with trailing zeros stripped, FORMAT_CHUNK values at
    a time.  The words are read as bytes in little-endian order, so on a
    big-endian host Python formats every value.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    words = np.empty((v.size, 3), _U)
    left = []
    if not np.little_endian:
        left.append(np.arange(v.size))
    else:
        with np.errstate(all="ignore"):     # NaN, infinities and zeros take garbage until set
            for s in range(0, v.size, FORMAT_CHUNK):
                python = _format_chunk(v[s:s + FORMAT_CHUNK], words[s:s + FORMAT_CHUNK])
                if python is not None:
                    left.append(python + s)
    rows = words.view("S24").ravel()
    mask = np.zeros(v.size, dtype=bool)
    if left:
        idx = np.concatenate(left)
        mask[idx] = True
        rows[idx] = [b"%.17g" % x for x in v[idx].tolist()]
    return rows, mask


def _fill(template: bytes, lead, rows: np.ndarray) -> bytes:
    """``template`` % (lead, a_0, b_0, lead, a_1, b_1, ...), the pairs (a_i, b_i) taken in
    order from ``rows``, the ``format_17g`` rows of the interleaved a_0, b_0, a_1, b_1, ..."""
    fields = rows.tolist()
    vals = [lead] * (3 * (len(fields) // 2))
    vals[1::3] = fields[0::2]
    vals[2::3] = fields[1::2]
    return template % tuple(vals)


def dump_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows (t, node, axis, x, xdot) of every sample, axis and node, in that order.

    Samples are formatted a block of FORMAT_CHUNK values (or one sample) at a
    time and turned into bytes one sample at a time, so the memory stays that
    of one block."""
    n = traj.x.shape[2]
    template = "".join(f"%s,{j},{axis.replace('%', '%%')},%s,%s\n"
                       for axis in traj.axes for j in range(n)).encode()
    per = traj.x.shape[1] * n
    step = max(1, FORMAT_CHUNK // max(2 * per, 1))
    with open(path, "wb") as fh:
        fh.write(b"t,node,axis,x,xdot\n")
        for s in range(0, len(traj.times), step):
            rows = format_17g(np.stack([traj.x[s:s + step], traj.xdot[s:s + step]], -1))[0]
            for i, t in enumerate(traj.times[s:s + step].tolist()):
                fh.write(_fill(template, b"%.17g" % t, rows[2 * i * per:2 * (i + 1) * per]))


def dump_state_csv(state: EncodedState, path) -> None:
    """Padded-layout rows (axis, part, j, k) of the amplitudes above 1e-12 in modulus."""
    n = state.n
    part, rest = np.divmod(active_slots(state.sys), n * n)
    j, k = np.divmod(rest, n)
    # one % per axis over the row templates of its kept slots
    slots = [f"%d,{p},{jj},{kk},%s,%s\n".encode()
             for p, jj, kk in zip(part.tolist(), j.tolist(), k.tolist())]
    with open(path, "wb") as fh:
        fh.write(b"axis,part,j,k,re,im\n")
        for a, row in enumerate(state.amps):
            keep = np.flatnonzero(np.abs(row) > 1e-12)
            rows = format_17g(np.stack([row[keep].real, row[keep].imag], -1))[0]
            fh.write(_fill(b"".join([slots[i] for i in keep.tolist()]), a, rows))


def dump_lattice_csv(spec: LatticeSpec, path) -> None:
    """One row per node, with CRLF line ends: its index j, its cell (r, c, s), whether it
    is padding, and the site and validity of each neighbor slot."""
    adj = adjacency(spec)
    co = decode_index(np.arange(spec.n_total), spec)
    columns = {"j": np.arange(spec.n_total), "r": co.r, "c": co.c, "s": co.s,
               "dummy": dummy_mask(spec),
               **{f"neigh{l}": adj.neighbors[:, l] for l in range(SPARSITY)},
               **{f"valid{l}": adj.valid[:, l] for l in range(SPARSITY)}}
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\r\n").encode())
        template = (",".join(["%d"] * len(columns)) + "\r\n") * spec.n_total
        fh.write(template.encode() % tuple(np.stack(list(columns.values()), 1).ravel().tolist()))


def write_rows(path, header: str, rows) -> None:
    """``header``, then one comma-joined line per row: floats (numpy float64
    included) as ``%.17g``, every other value as ``str``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                      + "\n" for row in rows)


def dump_results_csv(path, rows) -> None:
    """rows: iterables of (t, observable, subset_id, estimate, stderr, mode); a
    subset id that holds commas must come quoted."""
    write_rows(path, "t,observable,subset_id,estimate,stderr,mode", rows)


def write_json(path, obj) -> None:
    """``obj`` as JSON, keys sorted, indented by two, with a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
