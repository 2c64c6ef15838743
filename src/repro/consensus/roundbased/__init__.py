"""Rotating-coordinator round-based consensus (the Section 3 baseline).

Round ``r`` is coordinated by process ``r mod N``.  The algorithm uses the
majority-round-entry rule (a process does not spontaneously move past round
``r`` until it has heard that a majority began round ``r``), which removes
the obsolete-message hazard, but it still has to sit through a full timeout
for every round whose coordinator crashed before stabilization — up to
``⌈N/2⌉ − 1`` of them, hence ``O(Nδ)``.  Experiment E3 reproduces that.
"""
