"""Accept/reject verdicts with machine-readable reason paths.

A reason path names the first failed check, e.g. ``rabin/check-ii/i=3/j=1``.
Paths are stable strings meant for tooling; verifiers always report the
first failure in a fixed deterministic order.
"""

from typing import NamedTuple


class Verdict(NamedTuple):
    accepted: bool
    reason: str = ""

    @staticmethod
    def accept() -> "Verdict":
        return Verdict(True, "")

    @staticmethod
    def reject(reason: str) -> "Verdict":
        if not reason:
            raise ValueError("a rejection needs a reason path")
        return Verdict(False, reason)

    def prefixed(self, prefix: str) -> "Verdict":
        """The same verdict with `prefix/` prepended to the reason path."""
        if self.accepted:
            return self
        return Verdict(False, f"{prefix}/{self.reason}")

    def __bool__(self) -> bool:
        return self.accepted

