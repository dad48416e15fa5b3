"""Reference forms the tests compare the solver's arithmetic against."""


def theta(k: int) -> float:
    """Momentum schedule k/(k+1) for inner index k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k / (k + 1.0)


def update_average(z: float, y_bar, y, th: float):
    """One step of the running weighted average: given the normalizer ``z``
    and average ``y_bar`` over previous momentum points, fold in ``y`` with
    momentum weight ``th``.  Returns (z_new, y_bar_new)."""
    z_new = 1.0 + th * z
    return z_new, (y + (th * z) * y_bar) / z_new
