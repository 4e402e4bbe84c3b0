"""Score tables from row literals, for tests."""

from slascore.core import JoinedDataset, Scores


def scores(*rows) -> Scores:
    """A ``Scores`` table from (speaker_id, part, score) rows."""
    return Scores(*zip(*rows)) if rows else Scores([], [], [])


def dataset(*rows) -> JoinedDataset:
    """A ``JoinedDataset`` from (speaker_id, part, w2v, mllm, reference)
    rows; blind when any reference is None."""
    sid, part, w2v, mllm, ref = zip(*rows) if rows else ([],) * 5
    return JoinedDataset(sid, part, w2v, mllm, None if None in ref else ref)


def rows(table) -> list[tuple]:
    """A table's rows as tuples of Python values, for comparisons."""
    names = ("speaker_id", "part", "score", "w2v", "mllm", "reference")
    columns = [getattr(table, n) for n in names if getattr(table, n, None) is not None]
    return list(zip(*(c.tolist() for c in columns)))
