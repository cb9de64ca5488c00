"""Frozen synchronous image of a component's own pattern under its two
conditions: IMAGE[own][2 * plus + minus], for each triplet (levels,
transients and artifacts) and for a plain component's bit.  Every unfolded
rule is one bit of this image; the suite checks triplet_step on every
triplet row and unfold's plain rules on the two plain rows.
"""

IMAGE = {
    "000": ("000", "000", "001", "001"),
    "001": ("011", "111", "011", "111"),
    "011": ("111",) * 4,
    "111": ("111", "101", "111", "101"),
    "101": ("100", "100", "000", "000"),
    "100": ("000",) * 4,
    # artifacts drain toward the nearest level
    "010": ("000",) * 4,
    "110": ("111",) * 4,
    # a plain component may rise under plus and fall under minus
    "0": ("0", "0", "1", "1"),
    "1": ("1", "0", "1", "0"),
}
