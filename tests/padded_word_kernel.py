"""Left-padded word kernel: every word of a block multiplied over the same number of gathers.

The test-only reference for ``tccr.symbolic``'s suffix-shared kernel, which
evaluates each distinct suffix of a block once.  Here every word is padded on
the left with an identity letter up to the block's longest word, and each of
the ``width`` steps gathers every ``(word, column)`` entry.

One change from the kernel it was: each product is formed out of place.
numpy's in-place loop for a single element rounds a complex product without
the fused multiply-add of its vector loop, so a block of one word on the
vacuum column used to round non-real values differently from the same word's
full product.
"""

import numpy as np

from tccr.symbolic import _WORD_BLOCK_ENTRIES, _check_indices


def padded_letter_tables(family):
    """Column forms of a_1, a_1*, .., a_d, a_d* and the identity, as (2d+1, dim+1) arrays.

    Column c of letter k holds ``vals[k, c]`` in row ``rows[k, c]``, and the last column is a
    dead entry (-1, 0); a letter's column form is its adjoint's row form, conjugated.
    """
    dim = family.basis.dim
    rows = np.full((2 * len(family.ops) + 1, dim + 1), -1, dtype=np.intp)
    vals = np.zeros(rows.shape, dtype=complex)
    for k, op in enumerate(family.ops):
        for code, mono in ((2 * k, op.adjoint().monomial), (2 * k + 1, op.monomial)):
            rows[code, :dim], vals[code, :dim] = mono.cols, mono.vals.conj()
    rows[-1, :dim], vals[-1, :dim] = np.arange(dim), 1.0
    return rows, vals


def padded_word_blocks(family, words, columns=None, block_entries=_WORD_BLOCK_ENTRIES):
    """Yield ``(rows, vals)`` per block of words: ``vals[k, c]`` in row ``rows[k, c]`` of word k, column c."""
    d, dim = len(family.ops), family.basis.dim
    _check_indices(words, d)
    if columns is None:
        columns = np.arange(dim)
    table_rows, table_vals = (t.ravel() for t in padded_letter_tables(family))
    per_block = max(1, block_entries // len(columns))
    for start in range(0, len(words), per_block):
        block = words[start : start + per_block]
        width = max(map(len, block))
        # letter codes, left-padded with the identity (code 2d)
        padded = [[2 * d] * (width - len(w)) + [2 * l.index - 2 + l.starred for l in w] for w in block]
        codes = np.array(padded, dtype=np.intp)
        rows = columns[None, :]
        vals = np.ones((len(block), len(columns)), dtype=complex)
        for k in reversed(range(width)):
            # row -1 lands on the dead entry (-1, 0) ending the previous table row (the last, for code 0)
            at = codes[:, k, None] * (dim + 1) + rows
            vals = table_vals[at] * vals
            rows = table_rows[at]
        yield rows, vals


def padded_word_norms(family, words, block_entries=_WORD_BLOCK_ENTRIES):
    """Largest entry modulus of every word's product; NaN or inf where a live entry is not finite."""
    norms = [
        np.abs(np.where(rows >= 0, vals, 0)).max(axis=1)
        for rows, vals in padded_word_blocks(family, words, block_entries=block_entries)
    ]
    return np.concatenate([np.zeros(0), *norms])


def padded_word_columns(family, word):
    """Column form of one word's product, as a lone padded block: ``(cols, vals)`` by row."""
    rows, vals = (a[0] for a in next(padded_word_blocks(family, [tuple(word)])))
    live = np.flatnonzero(rows >= 0)
    cols, out = np.full(len(rows), -1), np.zeros(len(rows), dtype=complex)
    cols[rows[live]], out[rows[live]] = live, vals[live]
    return cols, out


def padded_vacuum_value(family, terms, block_entries=_WORD_BLOCK_ENTRIES):
    """``<vacuum, p vacuum>`` from the padded kernel over the vacuum column, summed in ``terms`` order."""
    words = [word for word, _ in terms]
    vacuum = np.zeros(1, dtype=np.intp)
    blocks = [
        np.where(rows[:, 0] == 0, vals[:, 0], 0)
        for rows, vals in padded_word_blocks(family, words, vacuum, block_entries)
    ]
    numeric = 0j
    for (_, coeff), entry in zip(terms, np.concatenate([np.zeros(0, dtype=complex), *blocks])):
        if entry:
            numeric += coeff.evaluate(family.mu) * entry
    return numeric
