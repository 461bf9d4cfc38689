"""Token <-> id mapping with a reserved unknown-token slot."""

from __future__ import annotations

from typing import Iterable, Iterator

UNK_TOKEN = "<unk>"


class Vocabulary:
    """Bijective token/id map in which id 0 is always the unknown token.

    Construct it from the ordered known tokens (ids 1..V follow that
    order); ``UNK_TOKEN`` must not be passed in, it is added implicitly.
    """

    def __init__(self, tokens: Iterable[str]):
        id_to_token = [UNK_TOKEN]
        for tok in tokens:
            if tok.split() != [tok]:
                raise ValueError(f"token {tok!r} is empty or contains whitespace")
            if tok == UNK_TOKEN:
                raise ValueError(f"{UNK_TOKEN!r} is reserved and added implicitly")
            id_to_token.append(tok)
        self._id_to_token = id_to_token
        self._token_to_id = {t: i for i, t in enumerate(id_to_token)}
        if len(self._token_to_id) != len(id_to_token):
            dupes = [t for t in set(id_to_token) if id_to_token.count(t) > 1]
            raise ValueError(f"duplicate token(s): {sorted(dupes)}")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_token == other._id_to_token

    def __iter__(self) -> Iterator[str]:
        """The tokens in id order, the unknown token first, without a copy of the list."""
        return iter(self._id_to_token)

    @property
    def tokens(self) -> list[str]:
        """All tokens in id order, the unknown token first."""
        return list(self._id_to_token)

    def id_of(self, token: str) -> int:
        """Id of ``token``, or 0 (the unknown token) when absent."""
        return self._token_to_id.get(token, 0)
