"""Network substrate: messages, partial synchrony, adversaries, monitoring.

The network realizes the communication model of the paper:

* messages sent after the stabilization time ``TS`` are delivered to live
  processes within ``δ`` (the bound includes processing time, which is why
  process actions are instantaneous in the kernel);
* messages sent before ``TS`` are under adversary control — they may be
  dropped, delayed arbitrarily (even past ``TS``), or delivered normally;
* messages to crashed processes are lost;
* duplication is permitted (and exercised by some adversaries) because the
  protocols under study tolerate it.
"""
