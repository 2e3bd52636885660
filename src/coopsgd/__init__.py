"""Desk-scale simulator and analysis toolkit for communication-efficient SGD.

The algorithm family A(tau, W, v) covers periodic averaging, elastic
averaging, decentralized gossip, and their hybrids through three knobs:
the communication period tau, the mixing matrix W, and the number of
auxiliary (gradient-free) variables v.
"""
