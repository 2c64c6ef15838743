"""Traditional single-decree Paxos driven by an Ω leader oracle (Section 2).

This is the baseline the paper argues *cannot* guarantee a decision within
``O(δ)`` of stabilization: obsolete messages with anomalously high ballot
numbers — sent before stabilization by processes that have since crashed, or
replayed by restarting processes — can force the post-stabilization leader
through one ballot bump per obsolete ballot, i.e. ``O(Nδ)`` in the worst
case.  Experiment E2 reproduces exactly that behaviour.
"""
