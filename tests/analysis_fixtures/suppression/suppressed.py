"""Suppression-mechanics fixture for RPR000."""


def silenced(x: int) -> int:
    _ = [v for v in {x}]  # repro: ignore[RPR012] -- consumed suppression
    return x


def unused(x: int) -> int:
    return x + 1  # repro: ignore[RPR012] -- silences nothing


def malformed(x: int) -> int:
    return x + 2  # repro: ignore -- no code list


def unknown(x: int) -> int:
    return x + 3  # repro: ignore[RPR999] -- no such rule


def filtered(x: int) -> int:
    return x + 4  # repro: ignore[RPR001] -- catalogue rule, off under select
