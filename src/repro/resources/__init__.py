"""Resource governance: deadlines, budgets, trivalent verdicts, resume.

Every decider in this library is worst-case exponential; this package is
how a single pathological instance is kept from taking a sweep (or a
service) down:

* :mod:`repro.resources.governor` — :class:`Deadline`, :class:`Budget`
  and :class:`RunContext`, the ambient cooperative governor whose
  ``checkpoint()`` calls thread through every hot search loop;
* :mod:`repro.resources.verdict` — :class:`Verdict`, the trivalent
  TRUE/FALSE/UNKNOWN answer (with reason and consumption record) that
  governed deciders return instead of hanging or lying;
* :mod:`repro.resources.checkpointing` — :class:`SweepJournal`,
  append-only *crash-safe* per-instance result journaling (CRC32
  checksummed records, torn-tail truncation on recovery, atomic
  tmp+rename compaction) so interrupted benchmark sweeps resume
  losslessly instead of restarting.

See DESIGN.md §"Resource governance" for the fallback ladder and the
fault-injection harness (``tests/chaos.py``) that locks the contract in;
the supervised fault-tolerant parallel runtime built on top lives in
:mod:`repro.parallel`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "checkpointing": ("JOURNAL_VERSION", "SweepJournal"),
    "governor": (
        "GOVERNOR", "PASSIVE_CONTEXT", "Budget", "Deadline", "GovernorStats",
        "RunContext", "current_context", "governed",
    ),
    "verdict": ("Trivalent", "Verdict"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Budget",
    "Deadline",
    "GOVERNOR",
    "JOURNAL_VERSION",
    "GovernorStats",
    "PASSIVE_CONTEXT",
    "RunContext",
    "SweepJournal",
    "Trivalent",
    "Verdict",
    "current_context",
    "governed",
]
