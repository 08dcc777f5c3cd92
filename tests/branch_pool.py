"""Level parameters for each branch of the code that branches on a level's
kind and degree, one list per branch: `wreath.standard_generators`,
`GroupSpec.abelian_primes` (entries are level tokens) and
`formula.d_tower` (entries are tower texts, keyed by the case they name).
Every level here but A4 lies outside the acceptance pool's A4, A5, S3-S5
and C2-C6.

Each A4 and Sn tower puts one such level between a top and a bottom that
share one prime q, S3 and C2 at 2 or A4 and C3 at 3, so that whether q
divides the middle level's abelianization decides d; the oracle tests
draw their new-level towers from these two lists.
"""

STANDARD_GENERATORS = {
    "C_n": ["C7", "C8", "C9", "C10", "C12", "C15"],
    "S_n": ["S6", "S7"],
    "A_n, n odd": ["A7"],
    "A_n, n even": ["A6"],
}

ABELIAN_PRIMES = {
    "C_n, n a prime": ["C7"],
    "C_n, n a prime power": ["C8", "C9"],
    "C_n, two primes": ["C10", "C12", "C15"],
    "S_n": ["S6", "S7"],
    "A4": ["A4"],
    "A_n, n >= 5": ["A6", "A7"],
}

D_TOWER = {
    "SingleLevel": ["S6", "A7", "C15"],
    "Cyclic": ["C7;S6", "C9;A6", "C10;C12"],
    "A4": ["A4;A6;C3", "A4;A7;C3", "A4;C9;C3", "A4;C12;C3", "A4;C15;C3"],
    "An": ["A6;C10", "A7;S7"],
    "Sn": ["S3;S6;C2", "S3;S7;C2", "S3;C8;C2", "S3;C10;C2"],
}
