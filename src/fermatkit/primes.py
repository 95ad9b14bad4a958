"""Prime generation and deterministic primality testing.

The base sieve, the flags and primes up to BASE = 2**16, is built at
import and never changes: it is trial division's one table, and the
flags that ``is_prime``, ``prime_factors`` and the class walk read.
``primes_up_to`` slices its list up to BASE, and past it sieves for the
call, up to MAX_SIEVE. ``is_prime`` reads n's flag when n is in range,
and otherwise runs strong probable-prime tests to the first k of the 13
prime bases 2..41, for the least k with n < psi_k, the least odd
composite that passes the test to those k bases. So the test decides
primality exactly below PSI13 = psi_13. The psi_k are from Pomerance,
Selfridge and Wagstaff (Math. Comp. 35, 1980) for k <= 4, Jaeschke (Math.
Comp. 61, 1993) for k = 5..8, Jiang and Deng (Math. Comp. 83, 2014) for
k = 9..11, and Sorenson and Webster (Math. Comp. 86, 2017) for k = 12
and 13.

``prime_factors`` answers a prime n up to BASE by its flag. Otherwise it
tries the base primes, and no more, by two gcds: one with the product of
those below 2**7, then, when what is left is 2**14 or more, one with the
product of those below 2**k, k the bit length of its root, at most 16.
These products are built one octave at a time, as far as a call needs.
A composite gcd is walked prime by prime, the second block by block, by
gcds with the products of the base primes 32 at a time. A cofactor past
65537**2 that ``is_prime`` does not prove prime is split by Brent's rho,
with a step cap past which the caller gets ValueError.

``class_segments`` is the one walk over the primes of a residue class, a
segment at a time, with one sieve for the progression the residues
share when it is at most half outside them. As far as the base flags
reach, the sieve is a strided slice of them, and past them it is
sieved; either way its holes, the members in no residue, are zeroed,
and its primes are read in order, 2**14 bytes at a time, as the lines
a piece splits into at its primes. Its one scanning caller,
``factoring.class_scan``, sends it where the scan stops, and the
segment that holds the stop runs 64 k values past it, so the first
prime past the stop seldom takes another segment. Segments grow 8x
from 64 k values up to a cap, and each sieving prime carries a running
offset, the next member it strikes, from segment to segment (the
segmented sieve for arithmetic progressions of Bays and Hudson, BIT 17,
1977).
``primes_in_classes`` flattens a walk of at most MAX_SIEVE members.
"""

import bisect
import functools
import io
import itertools
import math
import operator


def _sieve(limit):
    """Sieve of Eratosthenes to limit >= 2: (flags, primes), flags[n] = 10,
    a newline, iff n is prime, else 0, so that the class walk reads the
    primes of a slice of the flags as line ends. Past the even numbers,
    each odd prime strikes only its odd multiples, and the list after 2 is
    read from the odd flags."""
    flags = bytearray(b"\n") * (limit + 1)
    flags[0] = flags[1] = 0
    flags[4::2] = bytes(len(range(4, limit + 1, 2)))
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, limit + 1, 2 * p)))
    return flags, [2, *itertools.compress(range(3, limit + 1, 2), flags[3::2])]


# The largest limit primes_up_to sieves to.
MAX_SIEVE = 1 << 24
# The base sieve's limit, and trial division's ceiling: prime_factors
# tries the primes up to BASE, and no more, so a cofactor they leave is
# prime below the square of the next, 65537.
BASE = 1 << 16
_BASE_SQUARE = (BASE + 1) ** 2
# The base sieve, (flags, primes) to BASE, built at import: the one table
# of flags and of trial-division primes. Callers read it and never mutate
# it.
_BASE = _sieve(BASE)


def primes_up_to(limit):
    """All primes <= limit, as a fresh list: a slice of the base primes up
    to BASE, past it the list of a sieve built for the call. A limit past
    MAX_SIEVE raises ValueError before any sieve is built."""
    if limit > MAX_SIEVE:
        raise ValueError(f"the prime sieve stops at {MAX_SIEVE}, got {limit}")
    if limit > BASE:
        return _sieve(limit)[1]
    primes = _BASE[1]
    return primes[: bisect.bisect_right(primes, limit)]


# The first 13 primes, and psi_1 .. psi_12 and PSI13 (OEIS A014233):
# psi_k is the least odd composite that passes the strong test to the
# first k, so below it those k bases are exact.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)
PSI13 = 3317044064679887385961981


def is_prime(n):
    """True iff n is prime, without sieving.

    0 <= n <= BASE is answered by n's base flag, read by one global load
    and one index. Past it, n is divided by the 13 bases 2..41 and then,
    below PSI13, given the strong test to the first k bases for the least
    k with n < psi_k: 4 bases below 3,215,031,751, all 13 only from
    psi_12. n >= PSI13 without a factor <= 41 raises ValueError, since no
    base set here is proven exact for it.
    """
    flags = _BASE[0]
    if 0 <= n < len(flags):
        return flags[n] != 0
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n >= PSI13:
        raise ValueError(
            f"is_prime is exact only below psi_13 = {PSI13}, got {n}"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Primes per block product: a gcd that shares more than one prime with n
# is split by one gcd per block.
_BLOCK = 32


@functools.cache
def _below(k):
    """The product of the base primes below 2**k, 1 <= k <= 16: the primes
    of the octave from 2**(k - 1), read from the base flags, times the
    table for k - 1. Each is built once, at the first call that needs it."""
    low = 1 << k - 1
    octave = itertools.compress(range(low, 2 * low), _BASE[0][low : 2 * low])
    return math.prod(octave) * (_below(k - 1) if k > 1 else 1)


@functools.cache
def _blocks():
    """The products of the base primes 32 at a time: 205 of them, the last
    the 14 primes 65,371..65,521. Built whole at the first composite
    second gcd."""
    primes = _BASE[1]
    return [math.prod(primes[i : i + _BLOCK]) for i in range(0, len(primes), _BLOCK)]


def _divide_out(n, factors):
    """The cofactor of n once the base primes up to isqrt(n) are out.

    Appends (p, e) to factors for each p that divides n. Two gcds try
    them, g = gcd(n, _below(k)) for k = isqrt(n).bit_length(), so that the
    table holds every prime up to isqrt(n): k is at most 7 for the first,
    and at most 16 for the second, on what is left, which is taken only
    when that is at least 2**14. A g that the base flags call prime is
    divided out at once. Another is walked prime by prime: the first over
    block 0, which holds every prime below 2**7; the second block by
    block, by one gcd with each block product in turn until it is used
    up, each block's gcd walked unless the flags call it prime.
    """
    flags, primes = _BASE
    for top in 7, 16:
        if top == 16 and n < 1 << 14:  # every prime up to isqrt(n) is tried
            break
        g, i = math.gcd(n, _below(min(top, math.isqrt(n).bit_length()))), 0
        while g > 1:  # the first g's primes, below 2**7, are all in block 0
            h = g if top == 7 or g <= BASE and flags[g] else math.gcd(g, _blocks()[i])
            if h > 1:
                block = primes[i * _BLOCK : (i + 1) * _BLOCK]
                for p in (h,) if h <= BASE and flags[h] else block:
                    if h % p == 0:
                        g, h, e = g // p, h // p, 0
                        while n % p == 0:
                            n, e = n // p, e + 1
                        factors.append((p, e))
                        if h == 1:
                            break
            i += 1
    return n


# Steps of f(x) = x*x + c that _split takes on one n before it gives up,
# over all its c: 0.3 to 0.6 s on the 89-bit M89 on a 2-core host. A least
# prime factor p takes about 0.5 to 5 * sqrt(p) steps, so one below 10**10
# is found well inside the cap, and one past 10**12 seldom.
_RHO_STEPS = 1 << 20


def _split(n):
    """(d, n // d) for a factor d of the odd composite n, 1 < d < n.

    Brent's form (BIT 20, 1980) of Pollard's rho (BIT 15, 1975): from
    y = 2 it iterates f(x) = x*x + c mod n, with c = 1, 2, ..., compares
    y with x, its value at the end of the last round, each round twice as
    long as the last, and takes one gcd with n per batch of up to 128
    differences multiplied together. A batch whose gcd is n, which caught
    every prime of n at once, drops c for the next. Past _RHO_STEPS steps
    in all it raises ValueError: n is then a prime past PSI13, or a
    composite whose least prime factor lies out of reach.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor {n}: it is not proven prime,"
                                 f" and {_RHO_STEPS} rho steps found no factor")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                q = 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g > 1:
                    break
            r *= 2
        if g < n:
            return g, n // g


def prime_factors(n):
    """Ascending (prime, multiplicity) pairs of n >= 2.

    A prime n up to BASE is answered by its base flag; else the base
    primes up to isqrt(n) go by the two gcds of ``_divide_out``, so a
    prime near 10**9 or 10**12 takes two. What is left has no prime
    factor tried, so it is prime below 65537**2, or where ``is_prime``
    proves it below PSI13; else ``_split`` splits it, and each part
    ``is_prime`` does not prove, until all are proven. A part that
    ``_split`` cannot split raises ValueError.
    """
    if n < 2:
        raise ValueError(f"prime_factors requires n >= 2, got {n}")
    if n <= BASE and _BASE[0][n]:
        return ((n, 1),)
    factors = []
    n = _divide_out(n, factors)
    if n >= _BASE_SQUARE and (n >= PSI13 or not is_prime(n)):
        counts, parts = {}, list(_split(n))
        for part in parts:  # no part has a prime factor that was tried
            if part < PSI13 and is_prime(part):
                counts[part] = counts.get(part, 0) + 1
            else:
                parts += _split(part)
        return tuple(factors) + tuple(sorted(counts.items()))
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# k values per class-sieve segment: a small first one keeps an early stop
# cheap, then each is _GROWTH times the last (64, 512, 4,096, 32,768) up
# to the cap, which bounds the sieve's memory.
_FIRST_SEGMENT = 64
_GROWTH = 8
_MAX_SEGMENT = 1 << 16
# Sieve bytes read at a time: the line reader's copy of a piece is a
# piece long, not a segment (up to s * 2**16).
_PIECE = 1 << 14


def class_segments(classes, limit=None):
    """Primes p with p mod classes.modulus in classes.residues, as ascending
    lists, one per sieve segment of k values; together they ascend.

    Residue r's members are r + k*m. One sieve per segment holds the
    progression r0 + j*base that every residue lies on, where r0 is the
    least residue, base = gcd(m, r - r0 for each r) and s = m // base:
    s*(k1 - k0) bytes, whose offset t = j mod s holds residue r0 + t*base
    or, at a hole, no residue. When s > 2 * len(residues), as for +-1 mod
    2*10**6, most of that progression is holes, and each residue is a
    group of its own, with base = m and s = 1. This layout, and its
    holes, are chosen once, before the first segment. A sieve marks a
    prime by a newline, as the base flags do. Up to the last k whose
    members all have base flags, every k when limit <= BASE, it is the
    flags' strided slice from k0*m + r0 by base; past it, it starts as
    newlines and is struck. Then its holes are zeroed. Each sieving prime
    keeps at most one entry per group, a stride and the next j it
    strikes; the sieving primes are the base primes, and only a walk past
    BASE**2 takes more, from one ``primes_up_to`` list that doubles as the
    walk needs it. The walk stops past limit, if any.

    A sieve's primes are read off it in one ascending pass, a piece of
    _PIECE bytes at a time, with no per-residue copy and no merge. A
    piece splits into lines that each end at a prime, as long as that
    prime's distance in members from the one before, so the running sum
    of their lengths times base gives the primes; the line after the
    last prime is left unread. Only separate groups' lists are merged.

    Segments span _FIRST_SEGMENT k values, then _GROWTH times the last up
    to _MAX_SEGMENT; the one holding the last flagged k is cut after it.
    A sieving prime's entries are made once, when a sieved segment first
    reaches its square; each segment carries them past its end.

    A scan may send where it stops: the next segment then ends
    _FIRST_SEGMENT k values past the last k whose least member is at most
    that, or spans _FIRST_SEGMENT if that k lies before it, so it seldom
    lacks the first prime past the stop; the one after grows from it.
    A stop moves only where segments end, never which primes are yielded.
    A segment may be empty.
    """
    if not classes.residues:
        raise ValueError("candidate class has an empty residue set")
    m = classes.modulus
    residues = sorted(classes.residues)
    cap = math.inf if limit is None else limit + 1
    # The k values below read have every member's flag in the base sieve.
    (flags, primes), top = _BASE, BASE  # sieving primes up to top
    read = (BASE - residues[-1]) // m + 1 if cap > BASE + 1 else math.inf
    # The layout: (r0, plan) per progression r0 + j*base, s members per k.
    # All residues share one unless it is more than half outside them.
    base = math.gcd(m, *(r - residues[0] for r in residues))
    base = m if m // base > 2 * len(residues) else base
    s = m // base
    groups = [(r, []) for r in residues] if s == 1 else [(residues[0], [])]
    # The holes: the offsets t whose members r0 + t*base are in no residue.
    holes = [t for t in range(s) if residues[0] + t * base not in classes.residues]
    planned, k0, end, size, stop = 0, 0, 0, _FIRST_SEGMENT, None
    while k0 * m + residues[0] < cap:
        if k0 == end:  # the next segment of the schedule
            n = size if stop is None else min(
                size, max(k0, (stop - residues[0]) // m + 1) - k0 + _FIRST_SEGMENT)
            if limit is not None:
                n = min(n, (limit - residues[0]) // m + 1 - k0)
            end, size = k0 + n, min(_GROWTH * n, _MAX_SEGMENT)
        k1 = read if k0 < read < end else end  # cut where the flags end
        if k1 > read:  # a sieved segment: plan the primes up to its root
            root = math.isqrt((k1 - 1) * m + residues[-1])
            if root > top:  # a walk past top**2: at least double the list
                top = max(root, min(2 * top, MAX_SIEVE))
                primes = primes_up_to(top)
            count = bisect.bisect_right(primes, root)
            for p in itertools.islice(primes, planned, count):
                # Sieving prime p strikes each j with p | r0 + j*base from
                # the first member >= p*p, but not before this segment: its
                # entry [p, j] holds the next. If p | base, p strikes every
                # member (stride 1) when p | r0, none otherwise.
                inverse = pow(base, -1, p) if base % p else 0  # one per prime
                for r0, plan in groups:
                    j = max(k0 * s, -((r0 - p * p) // base))
                    if inverse:
                        plan.append([p, j + (-r0 * inverse - j) % p])
                    elif r0 % p == 0:
                        plan.append([1, j])
            planned = count
        segment, width = [], s * (k1 - k0)
        for r0, plan in groups:
            low = k0 * m + r0
            if k1 <= read:
                # The flags are the sieve. The slice comes up short only
                # past the last residue's member: read keeps
                # r + (k1 - 1)*m <= BASE for every residue, and when read
                # is unbounded, every member read is below cap <= BASE + 1.
                sieve = flags[low : low + width * base : base]
            else:
                sieve = bytearray(b"\n") * width
                zeros = len(range(low, 2, base))  # 0 and 1 are not prime
                sieve[:zeros] = bytes(zeros)
                for entry in plan:
                    i = entry[1] - k0 * s
                    if i < width:
                        p = entry[0]
                        strikes = (width - 1 - i) // p + 1
                        sieve[i::p] = bytes(strikes)
                        entry[1] += strikes * p
            for t in holes:
                sieve[t::s] = bytes(len(range(t, len(sieve), s)))
            # Members past limit, in the walk's last segment only.
            del sieve[len(range(low, min(low + width * base, cap), base)) :]
            for i in range(0, len(sieve), _PIECE):
                # The piece's lines end at its primes, so their lengths times
                # base are the gaps between them, the first from
                # low + (i - 1)*base; the line after its last newline holds
                # no prime.
                lines = io.BytesIO(memoryview(sieve)[i : i + _PIECE])
                gaps = map(operator.mul, map(len, lines), itertools.repeat(base))
                found = itertools.accumulate(gaps, initial=low + (i - 1) * base)
                segment += itertools.islice(found, 1, sieve.count(10, i, i + _PIECE) + 1)
        stop = yield segment if len(groups) == 1 else sorted(segment)
        k0 = k1


def primes_in_classes(limit, classes):
    """Primes p <= limit with p mod classes.modulus in classes.residues.

    A walk over more than MAX_SIEVE members, the k values up to limit times
    the residues, so limit >= MAX_SIEVE // len(residues) * modulus, raises
    ``_walk_refusal``'s ValueError before any segment, and no quotient of
    the limit is formed.
    """
    residues = len(classes.residues)  # none: class_segments raises
    if residues and limit >= MAX_SIEVE // residues * classes.modulus:
        raise _walk_refusal(limit.bit_length(), limit)
    return list(itertools.chain.from_iterable(class_segments(classes, limit)))


def _walk_refusal(bits, limit=None):
    """The ValueError of a class walk past MAX_SIEVE members to a limit of
    bits bits. It names the limit, or its bit length where no limit is
    given or the limit is past str()'s digit cap."""
    shown = f"a {bits}-bit limit"
    if limit is not None:
        try:
            shown = f"limit {limit}"
        except ValueError:  # past the interpreter's int-to-str digit cap
            pass
    return ValueError(f"a class walk stops at {MAX_SIEVE} members, got {shown}")
